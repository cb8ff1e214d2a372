"""Numerical local model: profile curves, the assembled two-parameter map,
the model 2-form, compatibility, Hodge stars, and level schedules."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nearsymp.local_model import (
    CARTESIAN,
    CYLINDRICAL,
    ChartPoint,
    Metric4,
    ProfileCurve,
    TwoForm,
    circle_levels,
    contact_positivity,
    contact_profile,
    d_omega_numeric,
    hodge_star_2form,
    honda_form,
    J_near,
    level_schedule_check,
    lutz_form,
    lutz_form_cartesian,
    metric_g,
    omega_near_Z,
    phi,
    phi_immersion_check,
    smooth_step,
    smooth_step_d,
    wedge_square,
)
from nearsymp.spinc_planner import plan_circles

from oracles import hodge_star_general, immersion_check_meshgrid, immersion_meshgrid_axes

P = ProfileCurve()
G0 = Metric4(1.0)

# the self-dual frame A = dT^dx + dy^dlam, B = dT^dy - dx^dlam,
# C = dx^dy + dT^dlam of the model form omega = y A - x B - 2T C
FORM_A = TwoForm((1.0, 0.0, 0.0, 0.0, 0.0, 1.0), CARTESIAN)
FORM_B = TwoForm((0.0, 1.0, 0.0, 0.0, -1.0, 0.0), CARTESIAN)
FORM_C = TwoForm((0.0, 0.0, 1.0, 1.0, 0.0, 0.0), CARTESIAN)


# ---------------------------------------------------------------------------
# smooth primitives
# ---------------------------------------------------------------------------


def test_smooth_step_endpoints_and_monotonicity():
    assert smooth_step(-1.0) == 0.0
    assert smooth_step(0.0) == 0.0
    assert smooth_step(1.0) == 1.0
    assert smooth_step(2.0) == 1.0
    u = np.linspace(0, 1, 200)
    v = smooth_step(u)
    assert np.all(np.diff(v) >= 0)


def test_smooth_step_derivative_matches_finite_differences():
    h = 1e-6
    for u in (0.2, 0.5, 0.8):
        fd = (smooth_step(u + h) - smooth_step(u - h)) / (2 * h)
        assert abs(smooth_step_d(u) - fd) < 1e-6
    assert smooth_step_d(-0.5) == 0.0
    assert smooth_step_d(1.5) == 0.0


# ---------------------------------------------------------------------------
# chart points and forms
# ---------------------------------------------------------------------------


def test_chart_point_validation():
    with pytest.raises(ValueError):
        ChartPoint("spherical", (0, 0, 0, 0))
    with pytest.raises(ValueError):
        ChartPoint(CYLINDRICAL, (0.5, -0.1, 0, 0))
    pt = ChartPoint(CARTESIAN, (0, 1, 2, 3))
    assert pt.coords == (0.0, 1.0, 2.0, 3.0)


def test_two_form_validation_and_arithmetic():
    with pytest.raises(ValueError):
        TwoForm((1.0,) * 5)
    a = TwoForm((1, 0, 0, 0, 0, 0))
    b = TwoForm((0, 1, 0, 0, 0, 0))
    assert (a + b).components == (1, 1, 0, 0, 0, 0)
    assert (a - b).components == (1, -1, 0, 0, 0, 0)
    assert a.scaled(3).components == (3, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        a + TwoForm((0,) * 6, CYLINDRICAL)


def test_two_form_matrix_is_antisymmetric():
    W = omega_near_Z(0.3, -0.2, 0.7).as_matrix()
    assert np.allclose(W, -W.T)


# ---------------------------------------------------------------------------
# boundary profiles
# ---------------------------------------------------------------------------


def test_standard_profile_at_origin():
    assert contact_profile("standard", 0.0, 1.0) == (0.0, 1.0)


def test_twisted_profile_at_origin():
    f, g = contact_profile("lutz", 0.0, 1.0)
    assert abs(f) < 1e-12
    assert abs(g + 1.0) < 1e-12


def test_profiles_agree_at_outer_radius():
    rho = 0.5
    fs, gs = contact_profile("standard", rho, 1.0)
    fl, gl = contact_profile("lutz", rho, 1.0)
    assert abs(fs - fl) < 1e-12
    assert abs(gs - gl) < 1e-12


def test_profile_rejects_out_of_range():
    with pytest.raises(ValueError):
        contact_profile("standard", 0.6, 1.0)
    with pytest.raises(ValueError):
        contact_profile("other", 0.1, 1.0)
    with pytest.raises(ValueError):
        contact_profile("standard", 0.1, -1.0)


def test_contact_positivity_linear_profile():
    val = contact_positivity(lambda r: (r, 1.0), 0.5, samples=500)
    assert abs(val - 1.0) < 1e-9


def test_contact_positivity_flags_constant_profile():
    val = contact_positivity(lambda r: (0.0, 1.0), 0.5, samples=500)
    assert abs(val) < 1e-9


def test_contact_positivity_twisted_profile():
    val = contact_positivity(
        lambda r: contact_profile("lutz", r, 1.0), 0.5, samples=2000
    )
    assert val > 0


# ---------------------------------------------------------------------------
# the assembled map
# ---------------------------------------------------------------------------


def test_phi_fold_point_value():
    assert phi(0.5, 0.0, P) == (1.0 + P.delta, 0.0)


def test_phi_left_corner_value():
    assert phi(0.0, 0.0, P) == (1.0, 0.0)


def test_phi_near_fold_formula():
    t, rho = 0.51, 0.001
    u, v = phi(t, rho, P)
    assert u == rho - (t - 0.5) ** 2 + 1 + P.delta
    assert v == -2.0 * rho * (t - 0.5)


def test_phi_rejects_out_of_domain():
    with pytest.raises(ValueError):
        phi(1.5, 0.0, P)
    with pytest.raises(ValueError):
        phi(0.5, 0.6, P)


def test_phi_jacobian_vanishes_at_fold():
    gt, gr, ft, fr = P.phi_derivs(np.asarray(0.5), np.asarray(1e-5))
    det = gt * fr - gr * ft
    assert abs(det) < 1e-3


def test_phi_immersion_on_coarse_grid():
    assert phi_immersion_check(P, grid=80, exclusion=0.05) > 0


def test_phi_immersion_rejects_bad_exclusion():
    with pytest.raises(ValueError):
        phi_immersion_check(P, exclusion=0.0)


IMMERSION_CURVES = [(1.0, 0.2), (0.6, 0.1), (1.5, 0.3), (0.83, 0.17)]


@pytest.mark.parametrize("eps,delta", IMMERSION_CURVES)
@pytest.mark.parametrize("grid", [2, 3, 80, 200])
def test_phi_immersion_check_equals_meshgrid_reference(eps, delta, grid):
    curve = ProfileCurve(eps=eps, delta=delta)
    assert phi_immersion_check(curve, grid=grid) == immersion_check_meshgrid(curve, grid=grid)


@pytest.mark.parametrize("eps,delta", IMMERSION_CURVES)
def test_phi_on_broadcast_axes_matches_meshgrid_bytes(eps, delta):
    h = 1e-5
    curve = ProfileCurve(eps=eps, delta=delta)
    _, _, Tc, Rc = immersion_meshgrid_axes(curve, 200, h)
    tc, rc = Tc[:, :1], Rc[:1, :]
    for dt, dr in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h)):
        for full, axes in zip(curve.phi(Tc + dt, Rc + dr), curve.phi(tc + dt, rc + dr)):
            assert axes.shape == full.shape
            assert axes.tobytes() == full.tobytes()


def _left_rate_full_bisection(curve):
    """All 200 bisection steps of the spine's bump amplitude, never stopping early."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    x = 0.5 * (curve.T1 - curve.T0) * nodes + 0.5 * (curve.T0 + curve.T1)
    target = curve.q(curve.T1) - math.exp(curve.T0)
    lo, hi = -30.0, 30.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = 0.5 * (curve.T1 - curve.T0) * np.sum(weights * curve._spine_rate(x, mid))
        if val > target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("eps,delta", IMMERSION_CURVES + [(2.0, 0.05), (1.0, 1.0)])
def test_left_rate_equals_full_bisection(eps, delta):
    curve = ProfileCurve(eps=eps, delta=delta)
    assert curve.c_left == _left_rate_full_bisection(curve)


def test_profile_curve_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ProfileCurve(eps=0.0)
    with pytest.raises(ValueError):
        ProfileCurve(delta=-1.0)


# ---------------------------------------------------------------------------
# the model 2-form in both charts
# ---------------------------------------------------------------------------


def test_lutz_form_matches_symplectization_patch():
    t, rho = 0.02, 0.1
    w = lutz_form(ChartPoint(CYLINDRICAL, (t, rho, 0, 0)), P)
    expected = (0.0, math.exp(t) * rho, math.exp(t), math.exp(t), 0.0, 0.0)
    assert w.basis == CYLINDRICAL
    assert max(abs(a - b) for a, b in zip(w.components, expected)) < 1e-9


def test_lutz_form_requires_cylindrical_point():
    with pytest.raises(ValueError):
        lutz_form(ChartPoint(CARTESIAN, (0, 0, 0, 0)), P)


def test_lutz_form_vanishes_on_circle():
    w = lutz_form_cartesian(ChartPoint(CARTESIAN, (0.0, 0.0, 0.0, 0.0)), P)
    assert max(abs(c) for c in w.components) < 1e-9


def test_lutz_form_wedge_positive_off_fold():
    rng = np.random.default_rng(7)
    for _ in range(30):
        t = float(rng.uniform(0, 1))
        rho = float(rng.uniform(0, P.rho_max))
        if (t - 0.5) ** 2 + rho**2 < 0.05**2:
            continue
        w = lutz_form(ChartPoint(CYLINDRICAL, (t, rho, 0, 0)), P)
        assert wedge_square(w) > 0


def test_omega_near_Z_values():
    assert omega_near_Z(0, 0, 0).components == (0,) * 6
    assert omega_near_Z(0, 1, 0).components == (0, -1, 0, 0, 1, 0)
    assert wedge_square(omega_near_Z(0, 0, 1)) == 2.0


def test_frame_forms_square_to_twice_volume():
    for F in (FORM_A, FORM_B, FORM_C):
        assert wedge_square(F) == 2.0
    assert wedge_square(FORM_A + FORM_B) == 4.0  # cross terms cancel


# ---------------------------------------------------------------------------
# J, metric, Hodge star
# ---------------------------------------------------------------------------


def test_J_squares_to_minus_identity():
    J = J_near(1.0, 0.0, 0.0)
    assert np.allclose(J @ J, -np.eye(4), atol=1e-14)


def test_J_undefined_on_circle():
    with pytest.raises(ValueError):
        J_near(0.0, 0.0, 0.0)


def test_J_compatibility_and_taming():
    rng = np.random.default_rng(11)
    for _ in range(20):
        T, x, y = rng.uniform(-1, 1, 3)
        if math.sqrt(4 * T * T + x * x + y * y) < 1e-3:
            continue
        J = J_near(T, x, y)
        W = omega_near_Z(T, x, y).as_matrix()
        assert np.abs(J.T @ W @ J - W).max() < 1e-12
        for _ in range(5):
            v = rng.standard_normal(4)
            assert float(v @ W @ (J @ v)) > 0


def test_metric_is_identity_near_circle():
    g = metric_g(0.0, 0.0, 0.0, 0.5)
    assert np.allclose(g.as_array(), np.eye(4))


def test_metric_scales_linearly_far_out():
    eps_prime = 0.3
    g = metric_g(eps_prime, 0.0, 0.0, eps_prime)  # R = 2 eps'
    assert np.allclose(g.as_array(), 2 * eps_prime * np.eye(4))


def test_metric_positive_definite_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        T, x, y = rng.uniform(-2, 2, 3)
        assert metric_g(T, x, y, 0.5).is_positive_definite()
    with pytest.raises(ValueError):
        metric_g(0, 0, 0, -1.0)


def test_self_dual_frame():
    for F in (FORM_A, FORM_B, FORM_C):
        st = hodge_star_2form(G0, 1, F)
        assert max(abs(a - b) for a, b in zip(st.components, F.components)) < 1e-14


def test_anti_self_dual_partner():
    w = TwoForm((1, 0, 0, 0, 0, -1))  # opposite-sign pairing of the first frame
    st = hodge_star_2form(G0, 1, w)
    assert max(abs(a + b) for a, b in zip(st.components, w.components)) < 1e-14


def test_star_conformally_invariant():
    rng = np.random.default_rng(5)
    for _ in range(50):
        T, x, y = rng.uniform(-1, 1, 3)
        w = TwoForm(tuple(rng.standard_normal(6)))
        st_g = hodge_star_2form(metric_g(T, x, y, 0.5), 1, w)
        st_0 = hodge_star_2form(G0, 1, w)
        assert max(
            abs(a - b) for a, b in zip(st_g.components, st_0.components)
        ) < 1e-12


def test_hodge_star_rejects_bad_orientation():
    with pytest.raises(ValueError):
        hodge_star_2form(G0, 0, FORM_A)


@pytest.mark.parametrize("factor", [0.0, -1.0])
def test_hodge_star_rejects_degenerate_metric(factor):
    assert not Metric4(factor).is_positive_definite()
    with pytest.raises(ValueError, match="degenerate or indefinite metric"):
        hodge_star_2form(Metric4(factor), 1, FORM_A)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=6, max_size=6),
    st.sampled_from([1, -1]),
    st.floats(0.01, 5.0),
)
# the worst gap found so far, 1.02e-15 relative, from numpy's determinant
@example([0.0, 0.0, 0.0, 0.0, 0.0, 42702.25], 1, 0.01171875)
def test_hodge_star_matches_general_metric_star(comps, orientation, factor):
    w = TwoForm(tuple(comps))
    scale = max(abs(c) for c in w.components)
    # keep W G^-1 G^-1 clear of the subnormal range, where the reference
    # loses digits that the signed permutation keeps
    assume(scale == 0.0 or scale > 1e-200)
    # at the flat metric the reference does no rounding: exact equality
    # (signed zeros compare equal)
    flat = hodge_star_2form(G0, orientation, w).components
    assert flat == hodge_star_general(np.eye(4), orientation, w.components)
    g = Metric4(factor)
    ref = hodge_star_general(g.as_array(), orientation, w.components)
    star = hodge_star_2form(g, orientation, w).components
    assert star == flat
    # the star under test only flips signs, so the gap is the reference's own
    # rounding: about 8 roundings in inv, the two products, sqrt and the
    # scaling, plus the determinant, which numpy evaluates as the exp of the
    # log-determinant (relative error about |ln det G| = 4 |ln factor| units,
    # halved by the sqrt)
    bound = (8 + 2 * abs(math.log(factor))) * 2.0**-53 * scale
    assert max(abs(a - b) for a, b in zip(star, ref)) <= bound


def test_omega_self_dual_under_scaled_metric():
    rng = np.random.default_rng(9)
    for _ in range(50):
        T, x, y = rng.uniform(-1, 1, 3)
        w = omega_near_Z(T, x, y)
        st = hodge_star_2form(metric_g(T, x, y, 0.5), 1, w)
        assert max(abs(a - b) for a, b in zip(st.components, w.components)) < 1e-12


def test_gradient_flow_presentation_matches_model_form():
    rng = np.random.default_rng(13)
    for _ in range(100):
        T, x, y = rng.uniform(-1, 1, 3)
        hf = honda_form(T, x, y)
        w = omega_near_Z(T, x, y)
        assert max(abs(a - b) for a, b in zip(hf.components, w.components)) < 1e-12
    assert honda_form(0, 0, 0).components == (0,) * 6


# ---------------------------------------------------------------------------
# numerical exterior derivative
# ---------------------------------------------------------------------------


def omega_field(coords):
    return omega_near_Z(coords[0], coords[1], coords[2])


def test_d_omega_small_for_closed_form():
    pt = ChartPoint(CARTESIAN, (0.3, -0.4, 0.2, 0.0))
    res = d_omega_numeric(omega_field, pt, 1e-3)
    assert max(abs(v) for v in res) < 1e-6


def test_d_omega_exactly_zero_for_constant_form():
    res = d_omega_numeric(
        lambda c: TwoForm((1, 2, 3, 4, 5, 6)),
        ChartPoint(CARTESIAN, (0.1, 0.2, 0.3, 0.0)),
        1e-3,
    )
    assert res == (0.0, 0.0, 0.0, 0.0)


def test_d_omega_detects_non_closed_form():
    # the form x dT^dy has derivative -dT^dx^dy of unit magnitude
    res = d_omega_numeric(
        lambda c: TwoForm((0, c[1], 0, 0, 0, 0)),
        ChartPoint(CARTESIAN, (0.1, 0.2, 0.3, 0.0)),
        1e-3,
    )
    assert abs(abs(res[0]) - 1.0) < 1e-9


def test_d_omega_rejects_bad_step():
    with pytest.raises(ValueError):
        d_omega_numeric(omega_field, ChartPoint(CARTESIAN, (0, 0, 0, 0)), 0.0)


def test_form_coefficients_vanish_linearly_toward_circle():
    # components of the model form scale linearly with distance from the circle
    base = omega_near_Z(0.02, 0.04, -0.06)
    half = omega_near_Z(0.01, 0.02, -0.03)
    assert np.allclose(np.array(base.components), 2 * np.array(half.components))


# ---------------------------------------------------------------------------
# level schedules
# ---------------------------------------------------------------------------


def test_circle_levels_for_cancelling_pair():
    mids = circle_levels(plan_circles(0))
    assert max(abs(a - b) for a, b in zip(mids, (0.925, 0.975))) < 1e-12


def test_level_schedule_check_passes():
    assert level_schedule_check(plan_circles(0)).passed
    plan = plan_circles(-2)
    assert plan.signs == (-1, -1)
    assert level_schedule_check(plan).passed


def test_level_schedule_vacuous_for_empty_plan():
    from nearsymp.spinc_planner import CirclePlan

    empty = CirclePlan(signs=(), levels=(), d=0)
    assert level_schedule_check(empty).passed
