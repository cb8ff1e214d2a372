"""Planning layer: adjunction targets, circle plans and their level
schedules, genus bookkeeping, configuration builders and cocycle
selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearsymp.spinc_planner import (
    CirclePlan,
    ConfigurationGraph,
    SurfaceSpec,
    adjunction_target,
    cap_corollary_config,
    check_spinc_constraints,
    choose_cocycle,
    compute_d,
    custom_circle_plan,
    e_decomposition,
    noextragenus_case,
    plan_circles,
    plumbing_form,
)
from nearsymp.topo_core import ChainComplex, IntegerCochain, SymmetricForm

from oracles import exhaustive_mod2, in_integer_column_span, uniform_levels_reference


def sphere(sq, cls=(1,), genus=0):
    return SurfaceSpec(genus=genus, cls=cls, self_intersection=sq)


@pytest.mark.parametrize("entry", [1.5, 2.9, True, None])
def test_surface_class_rejects_what_int_would_truncate(entry):
    # int() made SurfaceSpec(0, (1.5,), 1).cls read (1,)
    with pytest.raises(ValueError, match="must be integers"):
        SurfaceSpec(genus=0, cls=(1, entry), self_intersection=1)


def test_planner_types_reject_what_int_would_truncate():
    # each was taken as given: genus 1.5 passed, e_decomposition(1.5, 2)
    # returned (1, 4.0, 2, 0, 0), and an edge (0, 1.0) to a missing
    # surface made intersection(0, 1) read 1
    with pytest.raises(ValueError, match="must be integers"):
        SurfaceSpec(genus=1.5, cls=(1,), self_intersection=1)
    with pytest.raises(ValueError, match="must be integers"):
        SurfaceSpec(genus=0, cls=(1,), self_intersection=True)
    with pytest.raises(ValueError, match="must be integers"):
        e_decomposition(1.5, 2)
    with pytest.raises(ValueError, match="must be integers"):
        e_decomposition(1, 2.5)
    with pytest.raises(ValueError, match="must join surfaces among 0..0"):
        ConfigurationGraph(vertices=(sphere(1, (1,)),), edges=((0, 1.0),))
    with pytest.raises(ValueError, match="must be integers"):
        ConfigurationGraph(vertices=(sphere(1, (1, 0)), sphere(1, (0, 1))), edges=((0, 0.5),))


def test_planner_types_convert_integral_floats_and_numpy_ints():
    s = SurfaceSpec(genus=2.0, cls=(1,), self_intersection=np.int64(3))
    assert (s.genus, s.self_intersection) == (2, 3)
    assert type(s.genus) is int and type(s.self_intersection) is int
    assert e_decomposition(np.int32(1), 2.0) == (1, 3, 2, 0, 0)
    config = ConfigurationGraph(
        vertices=(sphere(1, (1, 0)), sphere(1, (0, 1))), edges=((np.int8(1), 0.0),)
    )
    assert config.edges == ((0, 1),) and all(type(v) is int for v in config.edges[0])


def test_surface_class_accepts_integral_floats_and_numpy_ints():
    cls = SurfaceSpec(genus=0, cls=(1, 2.0, np.int32(-3)), self_intersection=1).cls
    assert cls == (1, 2, -3) and all(type(v) is int for v in cls)


# ---------------------------------------------------------------------------
# adjunction targets
# ---------------------------------------------------------------------------


def test_adjunction_target_values():
    assert adjunction_target(0, 1, stabilized=True) == 1
    assert adjunction_target(1, 0, stabilized=False) == 0
    assert adjunction_target(0, 2, stabilized=False) == 4


def test_adjunction_target_rejects_negative_genus():
    with pytest.raises(ValueError):
        adjunction_target(-1, 0, stabilized=False)


@given(st.integers(0, 50), st.integers(-50, 50))
def test_stabilized_target_equals_next_genus_unstabilized(g, sq):
    assert adjunction_target(g, sq, True) == adjunction_target(g + 1, sq, False)


# ---------------------------------------------------------------------------
# constraint reports
# ---------------------------------------------------------------------------

Q3 = SymmetricForm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
CONFIG3 = ConfigurationGraph(
    vertices=(SurfaceSpec(genus=0, cls=(1, 0, 0), self_intersection=1),)
)


def test_constraints_pass_on_three_plus_one_framings():
    clauses = check_spinc_constraints((1, 3, 3), CONFIG3, Q3)
    assert all(c.passed for c in clauses)


def test_constraints_fail_on_wrong_first_pairing():
    clauses = check_spinc_constraints((3, 3, 3), CONFIG3, Q3)
    failed = next(c for c in clauses if not c.passed)
    assert "Sigma_1" in failed.name
    assert (failed.lhs, failed.rhs) == (3, 1)


def test_constraints_fail_on_degenerate_configuration_form():
    config = ConfigurationGraph(
        vertices=(SurfaceSpec(genus=0, cls=(0, 1), self_intersection=0),)
    )
    Q = SymmetricForm([[0, 1], [1, 0]])
    clauses = check_spinc_constraints((2, 2), config, Q)
    names = [c.name for c in clauses if not c.passed]
    assert "det(Q_config) != 0" in names


def test_constraints_multi_surface_uses_unstabilized_targets():
    Q = SymmetricForm([[0, 1], [1, 0]])
    config = ConfigurationGraph(
        vertices=(
            SurfaceSpec(genus=0, cls=(1, 0), self_intersection=0),
            SurfaceSpec(genus=1, cls=(0, 1), self_intersection=0),
        ),
        edges=((0, 1),),
    )
    clauses = check_spinc_constraints((0, 0), config, Q)
    assert all(c.passed for c in clauses)


# ---------------------------------------------------------------------------
# the circle count and circle plans
# ---------------------------------------------------------------------------


def test_compute_d_values():
    assert compute_d(19, 3, 5) == 0
    assert compute_d(9, 1, 3) == 0
    assert compute_d(1, 1, 3) == -2


def test_compute_d_rejects_nondivisible():
    with pytest.raises(ValueError):
        compute_d(1, 0, 0)


def test_plan_circles_zero():
    assert plan_circles(0).signs == (-1, 1)


def test_plan_circles_negative():
    assert plan_circles(-2).signs == (-1, -1)


def test_plan_circles_positive():
    assert plan_circles(3).signs == (-1, 1, 1, 1, 1)


@given(st.integers(-50, 50))
def test_plan_circles_sign_sum_and_leading_sign(d):
    plan = plan_circles(d)
    assert sum(plan.signs) == d
    assert plan.signs[0] == -1
    assert plan.levels[0] == 0.9
    assert plan.levels[-1] == 1.0
    assert all(a < b for a, b in zip(plan.levels, plan.levels[1:]))
    assert plan.levels == uniform_levels_reference(len(plan.signs))
    mids = plan.midpoints
    assert len(mids) == len(plan.signs)
    assert all(lo < mid < hi for lo, mid, hi in zip(plan.levels, mids, plan.levels[1:]))


def test_custom_circle_plan():
    plan = custom_circle_plan((-1, 1, -1, 1))
    assert plan.d == 0
    assert custom_circle_plan((-1,)).d == -1


def test_custom_circle_plan_rejects_bad_first_sign():
    with pytest.raises(ValueError, match="first circle sign must be -1"):
        custom_circle_plan((1,))


def test_custom_circle_plan_rejects_bad_entry():
    with pytest.raises(ValueError):
        custom_circle_plan((-1, 2))
    with pytest.raises(ValueError):
        custom_circle_plan(())


@pytest.mark.parametrize("entry", [-1.5, 1.2, True, None])
def test_circle_signs_reject_what_int_would_truncate(entry):
    # int() made custom_circle_plan([-1.5, 1.2]) read (-1, 1) and
    # CirclePlan(signs=(-1.0, True), d=0) pass
    with pytest.raises(ValueError, match="must be integers"):
        custom_circle_plan((-1, entry))
    with pytest.raises(ValueError, match="must be integers"):
        CirclePlan(signs=(-1, entry), d=0)
    with pytest.raises(ValueError, match="must be integers"):
        CirclePlan(signs=(-1, 1), d=entry)


def test_circle_plan_converts_integral_floats_and_numpy_ints():
    plan = CirclePlan(signs=(-1.0, np.int64(1)), d=0.0)
    assert plan == CirclePlan(signs=(-1, 1), d=0)
    assert all(type(v) is int for v in (*plan.signs, plan.d))
    assert custom_circle_plan(np.array([-1, -1])).d == -2


def test_circle_plan_rejects_inconsistent_sum():
    with pytest.raises(ValueError):
        CirclePlan(signs=(-1, 1), d=5)


def test_circle_levels_for_cancelling_pair():
    mids = plan_circles(0).midpoints
    assert max(abs(a - b) for a, b in zip(mids, (0.925, 0.975))) < 1e-12


# ---------------------------------------------------------------------------
# genus bookkeeping
# ---------------------------------------------------------------------------


def test_e_decomposition():
    assert e_decomposition(0, 1) == (1, 0, 1, 0, 0)
    assert e_decomposition(2, 3) == (1, 6, 3, 0, 0)
    assert e_decomposition(1, 1) == (1, 2, 1, 0, 0)
    with pytest.raises(ValueError):
        e_decomposition(0, 0)


# ---------------------------------------------------------------------------
# plumbings and configurations
# ---------------------------------------------------------------------------


def test_plumbing_form_two_spheres_one_edge():
    config = ConfigurationGraph(
        vertices=(sphere(2, (1, 0)), sphere(1, (0, 1))), edges=((0, 1),)
    )
    assert plumbing_form(config).matrix == [[2, 1], [1, 1]]


def test_plumbing_form_single_vertex():
    config = ConfigurationGraph(vertices=(sphere(7, (1,)),))
    assert plumbing_form(config).matrix == [[7]]


def test_plumbing_form_counts_parallel_edges():
    config = ConfigurationGraph(
        vertices=(sphere(0, (1, 0)), sphere(0, (0, 1))),
        edges=((0, 1), (1, 0)),
    )
    assert plumbing_form(config).matrix == [[0, 2], [2, 0]]


def test_cap_corollary_matrix_m1():
    config = cap_corollary_config(1, 0)
    assert plumbing_form(config).matrix == [[1, 0, 1], [0, 0, 1], [1, 1, 0]]
    assert plumbing_form(config).det() == -1


def test_cap_corollary_det_small_range():
    for m in (1, 2, 3, 5):
        assert plumbing_form(cap_corollary_config(m, 1)).det() == -m


def test_cap_corollary_rejects_nonpositive_square():
    with pytest.raises(ValueError):
        cap_corollary_config(0, 0)


def test_noextragenus_cases():
    two_spheres = ConfigurationGraph(
        vertices=(sphere(2, (1, 0)), sphere(1, (0, 1))), edges=((0, 1),)
    )
    assert noextragenus_case(two_spheres) == 1

    sphere_torus = ConfigurationGraph(
        vertices=(sphere(1, (1, 0)), SurfaceSpec(1, (0, 1), 1)), edges=((0, 1),)
    )
    assert noextragenus_case(sphere_torus) == 2

    chain = ConfigurationGraph(
        vertices=(sphere(1, (1, 0, 0)), sphere(2, (0, 1, 0)), sphere(3, (0, 0, 1))),
        edges=((0, 1), (1, 2)),
    )
    assert noextragenus_case(chain) == 3

    two_tori = ConfigurationGraph(
        vertices=(SurfaceSpec(1, (1, 0), 1), SurfaceSpec(1, (0, 1), 1)),
        edges=((0, 1),),
    )
    assert noextragenus_case(two_tori) == "none"


def test_noextragenus_first_sphere_meeting_third_is_not_case_three():
    config = ConfigurationGraph(
        vertices=(sphere(1, (1, 0, 0)), sphere(2, (0, 1, 0)), sphere(3, (0, 0, 1))),
        edges=((0, 1), (0, 2)),
    )
    assert noextragenus_case(config) == "none"


def test_configuration_rejects_self_edges():
    with pytest.raises(ValueError):
        ConfigurationGraph(vertices=(sphere(1, (1,)),), edges=((0, 0),))


# ---------------------------------------------------------------------------
# cocycle selection
# ---------------------------------------------------------------------------

# one 0-cell, one 1-cell, two 2-cells; the second 2-cell's boundary is the
# 1-cell, the first is a cycle
FIXTURE_C = ChainComplex(
    cells_per_degree=(1, 1, 2, 0, 0),
    boundary={1: [[0]], 2: [[0, 1]]},
)


def test_choose_cocycle_example():
    x = choose_cocycle(IntegerCochain((1, 0)), IntegerCochain((3, 1)), FIXTURE_C)
    assert x.values == (1, -1)


def test_choose_cocycle_identity_when_congruent():
    x = choose_cocycle(IntegerCochain((1, 0)), IntegerCochain((3, 2)), FIXTURE_C)
    assert x.values == (1, 0)


def test_choose_cocycle_no_solution():
    with pytest.raises(ValueError):
        choose_cocycle(IntegerCochain((0, 0)), IntegerCochain((1, 0)), FIXTURE_C)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_choose_cocycle_postconditions_random(n1, n2, seed):
    rng = np.random.default_rng(seed)
    d2 = rng.integers(-2, 3, size=(n1, n2)).tolist()
    C = ChainComplex(cells_per_degree=(1, n1, n2, 0, 0), boundary={2: d2})
    x0 = IntegerCochain(rng.integers(-4, 5, size=n2).tolist())
    xp = IntegerCochain(rng.integers(-4, 5, size=n2).tolist())
    delta = [[d2[i][j] for i in range(n1)] for j in range(n2)]
    rhs = [(a - b) % 2 for a, b in zip(x0.values, xp.values)]
    brute = exhaustive_mod2(delta, rhs)
    if brute is None:
        with pytest.raises(ValueError):
            choose_cocycle(x0, xp, C)
        return
    x = choose_cocycle(x0, xp, C)
    assert all((a - b) % 2 == 0 for a, b in zip(x.values, xp.values))
    diff = [a - b for a, b in zip(x0.values, x.values)]
    assert in_integer_column_span(delta, diff)

