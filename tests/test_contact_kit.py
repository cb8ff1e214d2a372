"""Integer contact-invariant arithmetic: connected sums, stabilization
plans, framing rules, and the extension-obstruction calculus."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearsymp.contact_kit import (
    GEN_P,
    GEN_Q,
    GEN_R,
    GEN_S,
    LegendrianState,
    StabilizationPlan,
    canonical_anticomplex_link,
    connect_sum,
    handle_framing,
    o_from_counts,
    obstruction_from_linking_matrix,
    obstruction_from_lk,
    plan_stabilization,
    theta_from_h,
    total_obstruction,
)

from oracles import brute_force_plans

UNKNOT = LegendrianState(-1, 0)


# ---------------------------------------------------------------------------
# connected sums
# ---------------------------------------------------------------------------


def test_connect_sum_examples():
    assert connect_sum(UNKNOT, GEN_P) == LegendrianState(-2, 1)
    assert connect_sum(UNKNOT, UNKNOT) == UNKNOT
    assert connect_sum(UNKNOT, GEN_R) == LegendrianState(0, 1)


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20),
       st.integers(-20, 20))
def test_connect_sum_formula(ta, ra, tb, rb):
    out = connect_sum(LegendrianState(ta, ra), LegendrianState(tb, rb))
    assert out == LegendrianState(ta + tb + 1, ra + rb)


# ---------------------------------------------------------------------------
# stabilization planning
# ---------------------------------------------------------------------------


def test_plan_tight_double_drop():
    plan = plan_stabilization(UNKNOT, LegendrianState(-3, 0), overtwisted=False)
    assert (plan.p, plan.q, plan.r, plan.s) == (1, 1, 0, 0)


def test_plan_overtwisted_single_raise():
    plan = plan_stabilization(UNKNOT, LegendrianState(0, 1), overtwisted=True)
    assert (plan.p, plan.q, plan.r, plan.s) == (0, 0, 1, 0)


def test_plan_parity_error():
    with pytest.raises(ValueError, match="parity"):
        plan_stabilization(UNKNOT, LegendrianState(0, 0), overtwisted=True)


def test_plan_tight_infeasible():
    with pytest.raises(ValueError, match="tight"):
        plan_stabilization(UNKNOT, LegendrianState(1, 0), overtwisted=False)


def test_plan_rejects_negative_counts():
    with pytest.raises(ValueError):
        StabilizationPlan(p=-1, q=0, r=0, s=0)


def test_plan_replay_matches_deltas():
    plan = StabilizationPlan(p=2, q=1, r=1, s=0)
    end = plan.replay(UNKNOT)
    assert end.tb == UNKNOT.tb + plan.delta_tb
    assert end.rot == UNKNOT.rot + plan.delta_rot


def test_plan_replay_huge_counts():
    n = 10**20
    plan = StabilizationPlan(p=n + 3, q=n, r=2 * n + 1, s=n - 7)
    end = plan.replay(UNKNOT)
    assert end == LegendrianState(
        UNKNOT.tb + plan.delta_tb, UNKNOT.rot + plan.delta_rot
    )


BEST_OVERTWISTED = brute_force_plans(max_total=20, tight=False)
BEST_TIGHT = brute_force_plans(max_total=20, tight=True)


@settings(max_examples=120, deadline=None)
@given(st.integers(-8, 8), st.integers(-8, 8), st.booleans())
def test_plan_minimal_and_replayable(dtb, drot, overtwisted):
    if (dtb + drot) % 2 != 0:
        with pytest.raises(ValueError):
            plan_stabilization(
                UNKNOT, LegendrianState(UNKNOT.tb + dtb, UNKNOT.rot + drot),
                overtwisted,
            )
        return
    best = BEST_OVERTWISTED if overtwisted else BEST_TIGHT
    target = LegendrianState(UNKNOT.tb + dtb, UNKNOT.rot + drot)
    if (dtb, drot) not in best:
        with pytest.raises(ValueError):
            plan_stabilization(UNKNOT, target, overtwisted)
        return
    plan = plan_stabilization(UNKNOT, target, overtwisted)
    assert (plan.p, plan.q, plan.r, plan.s) == best[(dtb, drot)]
    assert plan.replay(UNKNOT) == target
    if not overtwisted:
        assert plan.r == plan.s == 0


# ---------------------------------------------------------------------------
# framings
# ---------------------------------------------------------------------------


def test_handle_framing():
    assert handle_framing(1, 1) == 0
    assert handle_framing(0, 1) == -1
    assert handle_framing(0, -1) == 1
    with pytest.raises(ValueError):
        handle_framing(0, 0)


# ---------------------------------------------------------------------------
# the obstruction calculus
# ---------------------------------------------------------------------------


def test_obstruction_from_lk_is_identity():
    assert obstruction_from_lk(-1) == -1
    assert obstruction_from_lk(1) == 1
    assert obstruction_from_lk(0) == 0


def test_theta_from_h():
    assert theta_from_h(0) == -1
    assert theta_from_h(-1) == 1
    assert theta_from_h(1) == -3


def test_total_obstruction():
    assert total_obstruction((-1, 1), 0) == 0
    assert total_obstruction((-1, -1), -2) == 0
    assert total_obstruction((-1,), 0) == 1


@pytest.mark.parametrize("entry", [1.7, True, None])
def test_total_obstruction_rejects_what_int_would_truncate(entry):
    # int() made total_obstruction([-1.5, 1.7], 0) read 0
    with pytest.raises(ValueError, match="must be integers"):
        total_obstruction((-1, entry), 0)
    with pytest.raises(ValueError, match="must be integers"):
        total_obstruction((-1, 1), entry)


def test_two_cancelling_circles_theta_sum():
    # lk -1 gives theta +1/2, lk +1 gives theta -3/2; together -1, the cost
    # of two standard ball extensions at -1/2 each
    assert sum(theta_from_h(obstruction_from_lk(lk)) for lk in (-1, 1)) == -2


def test_obstruction_from_linking_matrix():
    from nearsymp.topo_core import SymmetricForm

    assert obstruction_from_linking_matrix(SymmetricForm([[-1]])) == -1
    assert obstruction_from_linking_matrix(SymmetricForm([[0, 0], [0, 0]])) == 0
    assert obstruction_from_linking_matrix(canonical_anticomplex_link(2, 1)) == 1


def test_o_from_counts():
    assert o_from_counts(2, 1) == 1
    assert o_from_counts(0, 0) == -1
    assert o_from_counts(0, 1) == -3
    with pytest.raises(ValueError):
        o_from_counts(-1, 0)


def test_o_from_counts_matches_canonical_link_small():
    for e in range(4):
        for h in range(4):
            assert o_from_counts(e, h) == obstruction_from_linking_matrix(
                canonical_anticomplex_link(e, h)
            )


@given(st.integers(0, 40), st.integers(0, 40))
def test_o_from_counts_always_odd(e, h):
    assert o_from_counts(e, h) % 2 != 0


def test_canonical_link_structure():
    L = canonical_anticomplex_link(1, 2)
    assert L.matrix[0][0] == -1
    assert L.matrix[0][1] == 1
    assert L.matrix[0][2] == L.matrix[0][3] == -1
    # meridians unlinked, framed 0
    for i in range(1, 4):
        for j in range(1, 4):
            assert L.matrix[i][j] == 0
