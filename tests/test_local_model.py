"""Numerical local model: profile curves, the assembled two-parameter map,
the model 2-form, compatibility and Hodge stars."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nearsymp.certify_cli import POSITIVITY_STEP
from nearsymp.local_model import (
    CARTESIAN,
    CYLINDRICAL,
    ChartPoint,
    ProfileCurve,
    _blend,
    contact_positivity,
    contact_profile,
    d_omega_numeric,
    form_matrix,
    hodge_star_2form,
    honda_form,
    J_near,
    lutz_form,
    metric_g,
    omega_near_Z,
    phi_immersion_check,
    smooth_step,
    wedge_square,
)

from oracles import (
    J_near_reference,
    d_omega_numeric_reference,
    form_matrix_loop,
    hodge_star_general,
    hodge_star_scaled,
    metric_factor_reference,
    phi_jet_all_zones,
    phi_jet_spine_everywhere,
    phi_partials_central,
    smooth_step_derivative_decimal,
    smooth_step_where,
    twisted_profile_reference,
)

P = ProfileCurve()
G0 = 1.0  # the conformal factor of the flat metric

# the self-dual frame A = dT^dx + dy^dlam, B = dT^dy - dx^dlam,
# C = dx^dy + dT^dlam of the model form omega = y A - x B - 2T C
FORM_A = (1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
FORM_B = (0.0, 1.0, 0.0, 0.0, -1.0, 0.0)
FORM_C = (0.0, 0.0, 1.0, 1.0, 0.0, 0.0)


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


SMOOTH_STEP_EDGES = [
    0.0, -0.0, 1.0, 5e-324, 1e-310, 1e-300, 2.0**-53, 1.0 - 2.0**-53, 1.0 - 1e-300,
    1e-3, 0.999, 0.5, math.inf, -math.inf, 1e308, -1e308,
]


def test_smooth_step_matches_the_where_form_bit_for_bit():
    rng = np.random.default_rng(7)
    u = np.concatenate([
        rng.uniform(-0.5, 1.5, 20_000),
        rng.uniform(0.0, 1e-2, 5_000),
        1.0 - rng.uniform(0.0, 1e-2, 5_000),
        SMOOTH_STEP_EDGES,
    ])
    got = smooth_step(u)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), smooth_step_where(u).view(np.int64))


@pytest.mark.parametrize("u", SMOOTH_STEP_EDGES + [0.3, 0.7])
def test_smooth_step_scalar_value_and_type(u):
    got, want = smooth_step(u), smooth_step_where(u)
    assert type(got) is type(want)
    assert np.array_equal(np.float64(got).view(np.int64), np.float64(want).view(np.int64))


def test_smooth_step_nan_stays_nan_without_a_warning():
    with np.errstate(all="raise"):
        got = smooth_step(np.array([np.nan, 0.5]))
    assert np.isnan(got[0]) and not np.isnan(got[1])
    with np.errstate(invalid="ignore"):
        assert np.isnan(smooth_step_where(math.nan))
    assert np.isnan(smooth_step(math.nan))


def test_smooth_step_derivative_matches_finite_differences():
    h = 1e-6
    for u in (0.2, 0.5, 0.8):
        fd = (smooth_step(u + h) - smooth_step(u - h)) / (2 * h)
        assert abs(_blend(u, 0.0, 1.0)[1] - fd) < 1e-6
    assert _blend(-0.5, 0.0, 1.0)[1] == 0.0
    assert _blend(1.5, 0.0, 1.0)[1] == 0.0


def test_blend_derivative_matches_a_50_digit_reference():
    # 1 - s in place of b/(a + b) cancels near u = 1 and misses this by 5e-6
    u = np.concatenate([
        np.linspace(0.0, 1.0, 2001)[1:-1],
        10.0 ** -np.arange(1, 16),
        1.0 - 10.0 ** -np.arange(1, 16),
    ])
    got = _blend(u, 0.0, 1.0)[1]
    checked = 0
    for ui, gi in zip(u.tolist(), got.tolist()):
        want = smooth_step_derivative_decimal(ui)
        if want > Decimal("1e-8"):
            assert abs(Decimal(gi) - want) <= Decimal("1e-13") * want, ui
            checked += 1
    assert checked > 1500
    assert _blend(0.0, 0.0, 1.0)[1] == _blend(1.0, 0.0, 1.0)[1] == 0.0


def test_blend_raises_no_floating_point_error_and_is_flat_outside_the_step():
    u = np.array([
        -math.inf, -1.0, 0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0, 2.0, math.inf,
    ])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        s, s_u = _blend(u, 0.0, 1.0)
        scalar = [_blend(v, 0.0, 1.0) for v in u.tolist()]
    assert np.array_equal(np.array(scalar), np.stack([s, s_u], axis=1))
    assert np.all(np.isfinite(s_u))
    assert np.all(s_u[(u <= 0.0) | (u >= 1.0)] == 0.0)
    assert s_u[5] == 2.0  # s' = s (1 - s) (4 + 4) at u = 1/2


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


def test_two_form_matrix_is_antisymmetric():
    W = form_matrix(omega_near_Z(0.3, -0.2, 0.7))
    assert np.allclose(W, -W.T)


def test_form_matrix_stacks_the_per_form_matrices():
    comps = np.random.default_rng(3).normal(size=(3, 5, 6))
    W = form_matrix(comps)
    assert W.shape == (3, 5, 4, 4)
    for idx in np.ndindex(3, 5):
        assert np.array_equal(W[idx], form_matrix_loop(comps[idx]))


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


@pytest.mark.parametrize("eps", [0.002, 0.05, 0.6, 1.0, 1.5, 30.0])
def test_lutz_point_matches_lutz_profile(eps):
    # the float path of contact_profile against the array formula: both
    # ends, the seam RB1 where the twist stops and one ulp on either side
    P = ProfileCurve(eps=eps)
    seam = [P.RB1, math.nextafter(P.RB1, 0.0), math.nextafter(P.RB1, math.inf)]
    rho = np.concatenate([[0.0, P.rho_max], seam, np.linspace(0.0, P.rho_max, 2000)])
    g, f = P.lutz_profile(rho)
    points = np.array([P.lutz_point(r) for r in rho.tolist()])
    bound = 16 * np.spacing(np.sqrt(1.0 + rho * rho))
    assert np.all(np.abs(points[:, 0] - g) <= bound)
    assert np.all(np.abs(points[:, 1] - f) <= bound)
    for kind in ("standard", "lutz"):
        for r in (0.0, np.float64(P.RB1), P.rho_max):
            assert all(type(v) is float for v in contact_profile(kind, r, eps))


@pytest.mark.parametrize("eps", [0.002, 0.6, 1.0, 1.5, 30.0])
def test_twisted_profile_jets_match_the_reference_bits(eps):
    # the twist and lutz_jet against the twisted profile's formulas, each
    # written out on its own: the ends, RB0, the seam RB1 and one ulp on
    # either side, a uniform grid and one row of the immersion grid's shape
    P = ProfileCurve(eps=eps)
    seam = [P.RB1, math.nextafter(P.RB1, 0.0), math.nextafter(P.RB1, math.inf)]
    points = np.array([0.0, P.RB0, *seam, P.rho_max])
    uniform = np.linspace(0.0, P.rho_max, 2000)
    row = np.linspace(0.0, P.rho_max, 200)[None, :]
    for rho in (points, uniform, row):
        got = (*P._twist(rho), *P.lutz_jet(rho))
        for a, b in zip(got, twisted_profile_reference(P, rho), strict=True):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def test_contact_positivity_linear_profile():
    val = contact_positivity(lambda r: (r, 1.0), 0.5, samples=500, h=POSITIVITY_STEP)
    assert abs(val - 1.0) < 1e-9


def test_contact_positivity_flags_constant_profile():
    val = contact_positivity(lambda r: (0.0, 1.0), 0.5, samples=500, h=POSITIVITY_STEP)
    assert abs(val) < 1e-9


def test_contact_positivity_twisted_profile():
    val = contact_positivity(
        lambda r: contact_profile("lutz", r, 1.0), 0.5, samples=2000, h=POSITIVITY_STEP
    )
    assert val > 0


# ---------------------------------------------------------------------------
# the assembled map
# ---------------------------------------------------------------------------


def test_phi_fold_point_value():
    assert P.phi(0.5, 0.0) == (1.0 + P.delta, 0.0)


def test_phi_left_corner_value():
    assert P.phi(0.0, 0.0) == (1.0, 0.0)


def test_phi_near_fold_formula():
    t, rho = 0.51, 0.001
    u, v = P.phi(t, rho)
    assert u == rho - (t - 0.5) ** 2 + 1 + P.delta
    assert v == -2.0 * rho * (t - 0.5)


def test_phi_jacobian_vanishes_at_fold():
    _, _, gt, gr, ft, fr = P.phi_jet(0.5, 1e-5)
    det = gt * fr - gr * ft
    assert abs(det) < 1e-3


def test_phi_immersion_on_coarse_grid():
    assert phi_immersion_check(P, grid=80) > 0


def _nan_row_curve(nan_t: float) -> ProfileCurve:
    """The profile curve with a NaN jet on the grid line t = nan_t."""

    class NaNRowCurve(ProfileCurve):
        def phi_jet(self, t, rho):
            jet = super().phi_jet(t, rho)
            return tuple(np.where(np.asarray(t) == nan_t, np.nan, part) for part in jet)

    return NaNRowCurve()


@pytest.mark.parametrize("row", [0, 100, 129])
def test_phi_immersion_check_keeps_a_nan(row):
    # grid 130 makes blocks of 64, 64 and 2 rows: a NaN in the first, the
    # middle and the last block must all reach the minimum, which Python's
    # min(lowest, nan) dropped
    curve = _nan_row_curve(float(np.linspace(0.0, 1.0, 130)[row]))
    assert math.isnan(phi_immersion_check(curve, grid=130))


def test_min_jacobian_det_at_grid_200():
    # on the grid the minimum sits in the fold zone at rho = 0, where the
    # determinant is exactly 4 (t - 1/2)^2 + 2 rho; t = 89/199 is the grid
    # line nearest the exclusion disk
    expected = 4 * (89 / 199 - 0.5) ** 2
    assert abs(phi_immersion_check(P, grid=200) - expected) <= 1e-15 * expected


IMMERSION_CURVES = [(1.0, 0.2), (0.6, 0.1), (1.5, 0.3), (0.83, 0.17)]


def _meshgrid(curve, grid):
    return np.meshgrid(
        np.linspace(0.0, 1.0, grid), np.linspace(0.0, curve.rho_max, grid), indexing="ij"
    )


@pytest.mark.parametrize("eps,delta", IMMERSION_CURVES)
@pytest.mark.parametrize("grid", [2, 3, 80, 200])
def test_phi_immersion_check_equals_meshgrid_reference(eps, delta, grid):
    # grids 2 and 3 are one short block, 80 and 200 end on a partial block
    curve = ProfileCurve(eps=eps, delta=delta)
    T, R = _meshgrid(curve, grid)
    _, _, u_t, u_r, v_t, v_r = curve.phi_jet(T, R)
    det = u_t * v_r - u_r * v_t
    reference = float(np.where((T - 0.5) ** 2 + R**2 > 0.05**2, det, np.inf).min())
    assert phi_immersion_check(curve, grid=grid) == reference


@pytest.mark.parametrize("eps,delta", IMMERSION_CURVES)
def test_phi_on_broadcast_axes_matches_meshgrid_bytes(eps, delta):
    curve = ProfileCurve(eps=eps, delta=delta)
    T, R = _meshgrid(curve, 200)
    full = curve.phi_jet(T, R)
    axes = curve.phi_jet(T[:, :1], R[:1, :])
    for a, b in zip(full, axes):
        assert b.shape == a.shape
        assert b.tobytes() == a.tobytes()


@pytest.mark.parametrize("eps,delta", IMMERSION_CURVES)
def test_phi_jet_matches_central_differences(eps, delta):
    curve = ProfileCurve(eps=eps, delta=delta)
    rng = np.random.default_rng(11)
    t = rng.uniform(1e-3, 1.0 - 1e-3, 4000)
    rho = rng.uniform(1e-3, curve.rho_max - 1e-3, 4000)
    # off the zone edges, where the blends switch to closed forms
    t_edges = np.array([curve.T0, curve.T1, curve.T2, curve.T3])
    rho_edges = np.array([curve.RB0, curve.RB1])
    off = (np.abs(t[:, None] - t_edges).min(axis=1) > 1e-5) & (
        np.abs(rho[:, None] - rho_edges).min(axis=1) > 1e-5
    )
    t, rho = t[off], rho[off]
    jet = np.array(curve.phi_jet(t, rho)[2:])
    reference = np.array(phi_partials_central(curve, t, rho))
    scale = np.abs(jet).max(axis=0)
    assert np.all(np.abs(jet - reference) <= 1e-6 * scale)


@pytest.mark.parametrize("eps", [0.6, 1.0, 1.5])
@pytest.mark.parametrize("delta", [0.081, 0.1, 0.11, 0.1325, 0.2, 0.3, 1.0])
def test_left_spine_lands_on_the_fold_with_a_positive_rate(eps, delta):
    # a bisected exp-bump spine missed q(T1) by 0.0325 at delta = 0.1
    curve = ProfileCurve(eps=eps, delta=delta)
    k = curve.plateau_rate
    q1 = float(curve.q(curve.T1))
    assert abs(float(curve._spine_left(curve.T1, k)) - q1) <= 4 * np.spacing(q1)
    rho = 0.5 * curve.RB0
    before = np.array(curve.phi(np.nextafter(curve.T1, 0.0), rho))
    at = np.array(curve.phi(curve.T1, rho))
    assert np.abs(before - at).max() <= 1e-12
    assert curve._spine_rate(np.linspace(curve.T0, curve.T1, 10_000), k).min() > 0


def _spine_inputs(curve):
    """(name, t, rho) cases for the zone-indexed spine and the skipped
    zones: the battery's fold, patch and outer-band points, uniform t, t in
    the blend only, the immersion check's blocks and single points."""
    rng = np.random.default_rng(17)
    n = 200
    ang = rng.uniform(0, math.pi, n)
    rad = curve.fold_radius * np.sqrt(rng.uniform(0, 1, n))
    rho = rng.uniform(0, curve.rho_max, n)
    cases = [
        ("fold", 0.5 + rad * np.cos(ang), np.abs(rad * np.sin(ang))),
        ("left-patch", rng.uniform(0, curve.T0, n), rho),
        ("twisted-patch", rng.uniform(curve.T3, 1.0, n), rho),
        ("outer-band", rng.uniform(0, 1, n), rng.uniform(curve.RB1, curve.rho_max, n)),
        ("uniform", rng.uniform(0, 1, n), rho),
        ("blend-only", rng.uniform(curve.T0, curve.T1, n), rho),
        ("zone-edges", np.array([0.0, curve.T0, np.nextafter(curve.T0, 1), curve.T1,
                                 np.nextafter(curve.T1, 1), 1.0]), rho[:6]),
        ("scalar-blend", 0.5 * (curve.T0 + curve.T1), 0.3 * curve.rho_max),
        ("scalar-wall", 0.5 * curve.T0, 0.3 * curve.rho_max),
        ("scalar-twisted", 0.5 * (curve.T3 + 1.0), 0.3 * curve.rho_max),
        ("scalar-core", 0.5, 0.5 * curve.RB0),
        ("scalar-polar", 0.5 * (curve.T2 + curve.T3), 0.5 * (curve.RB0 + curve.RB1)),
    ]
    grid = 150
    t = np.linspace(0.0, 1.0, grid)[:, None]
    r = np.linspace(0.0, curve.rho_max, grid)[None, :]
    for i in range(0, grid, 64):
        cases.append((f"immersion-block-{i}", t[i:i + 64], r))
    return cases


@pytest.mark.parametrize("eps,delta", IMMERSION_CURVES)
def test_phi_jet_matches_the_spine_evaluated_everywhere(eps, delta):
    # the spine's quadrature runs only at the t inside the blend zone; the
    # reference runs it at every t and discards the rest with np.where
    curve = ProfileCurve(eps=eps, delta=delta)
    in_blend = 0
    for name, t, rho in _spine_inputs(curve):
        got = curve.phi_jet(t, rho)
        want = phi_jet_spine_everywhere(curve, t, rho)
        for a, b in zip(got, want):
            assert a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        t = np.asarray(t)
        in_blend += int(((t > curve.T0) & (t <= curve.T1)).sum())
    assert in_blend > 0


@pytest.mark.parametrize("eps,delta", IMMERSION_CURVES)
def test_phi_jet_matches_every_zone_evaluated_everywhere(eps, delta, monkeypatch):
    # a zone's formulas run only when some point lies in it; the reference
    # runs every zone at every point and picks by the same np.where
    curve = ProfileCurve(eps=eps, delta=delta)
    zone_terms = {"_base", "_twist", "_polar"}
    calls = []

    def counted(name):
        method = getattr(ProfileCurve, name)
        return lambda self, *args: calls.append(name) or method(self, *args)

    for name in zone_terms:
        monkeypatch.setattr(ProfileCurve, name, counted(name))
    skipped = set()
    for name, t, rho in _spine_inputs(curve):
        calls.clear()
        got = curve.phi_jet(t, rho)
        skipped |= zone_terms - set(calls)
        want = phi_jet_all_zones(curve, t, rho)
        for a, b in zip(got, want):
            assert a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
    # the patches and single points leave zones out, so each skip is compared
    assert skipped == zone_terms


def test_curves_share_one_read_only_gauss_legendre_rule():
    a, b = ProfileCurve(eps=1.0, delta=0.2), ProfileCurve(eps=0.6, delta=0.1)
    assert a._qx is b._qx and a._qw is b._qw
    nodes, weights = np.polynomial.legendre.leggauss(64)
    assert a._qx.tobytes() == nodes.tobytes()
    assert a._qw.tobytes() == weights.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        a._qx[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        b._qw[0] = 0.0


def test_profile_curve_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ProfileCurve(eps=0.0)
    with pytest.raises(ValueError):
        ProfileCurve(delta=-1.0)
    # below delta ~ 0.0804 the spine's plateau rate is not positive
    with pytest.raises(ValueError, match="left spine"):
        ProfileCurve(delta=0.08)


# ---------------------------------------------------------------------------
# the model 2-form in both charts
# ---------------------------------------------------------------------------


def test_lutz_form_matches_symplectization_patch():
    t, rho = 0.02, 0.1
    w = lutz_form(ChartPoint(CYLINDRICAL, (t, rho, 0, 0)), P)
    expected = (0.0, math.exp(t) * rho, math.exp(t), math.exp(t), 0.0, 0.0)
    assert all(type(v) is float for v in w)
    assert max(abs(a - b) for a, b in zip(w, expected)) < 1e-9


def test_lutz_form_requires_cylindrical_point():
    with pytest.raises(ValueError):
        lutz_form(ChartPoint(CARTESIAN, (0, 0, 0, 0)), P)


def test_lutz_form_vanishes_on_circle():
    # at the circle (t, rho) = (1/2, 0) only the drho^dlam component is left,
    # and drho = x dx + y dy vanishes on the axis, so the form is zero there
    w = lutz_form(ChartPoint(CYLINDRICAL, (0.5, 0.0, 0.0, 0.0)), P)
    assert w == (0.0, 0.0, 0.0, 0.0, 1.0, 0.0)


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
    assert omega_near_Z(0, 0, 0) == (0,) * 6
    assert omega_near_Z(0, 1, 0) == (0, -1, 0, 0, 1, 0)
    assert wedge_square(omega_near_Z(0, 0, 1)) == 2.0


def test_frame_forms_square_to_twice_volume():
    for F in (FORM_A, FORM_B, FORM_C):
        assert wedge_square(F) == 2.0
    a_plus_b = tuple(a + b for a, b in zip(FORM_A, FORM_B))
    assert wedge_square(a_plus_b) == 4.0  # cross terms cancel


# ---------------------------------------------------------------------------
# J, metric, Hodge star
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("point", [(0.3, -0.2, 0.7), (0.1, 0.2, -0.1)])
def test_pointwise_model_values_are_python_floats(point):
    # the second point lies in the metric's blend, eps'/2 < R < eps'
    form = omega_near_Z(*point)
    values = [
        *sum(J_near(*point), ()), *form, metric_g(*point, 0.5),
        *hodge_star_2form(metric_g(*point, 0.5), 1, form), *honda_form(*point),
        wedge_square(form),
    ]
    assert len(values) == 16 + 6 + 1 + 6 + 6 + 1
    assert all(type(v) is float for v in values)


def test_J_squares_to_minus_identity():
    J = np.array(J_near(1.0, 0.0, 0.0))
    assert np.allclose(J @ J, -np.eye(4), atol=1e-14)


def test_J_undefined_on_circle():
    with pytest.raises(ValueError):
        J_near(0.0, 0.0, 0.0)


# (T, x, y) with R = |x| exactly: sqrt of a correctly rounded square is |x|
def _radius_points(R):
    return [(0.0, R, 0.0), (0.0, -R, -0.0), (-0.0, R, 0.0)]


def _edge_radii(eps_prime):
    """eps'/2 and eps', each also one ulp either side."""
    return [
        v
        for r in (eps_prime / 2.0, eps_prime)
        for v in (math.nextafter(r, 0.0), r, math.nextafter(r, math.inf))
    ]


def _random_points(seed, n):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-4, 1, (n, 1))
    pts = rng.uniform(-1.0, 1.0, (n, 3)) * scale
    pts[np.arange(n // 10), rng.integers(0, 3, n // 10)] = 0.0  # one zero each
    pts[n // 10 : n // 5, 0] = -0.0
    return [tuple(p) for p in pts.tolist()]


def test_J_near_matches_the_array_division_bit_for_bit():
    # tobytes, so a -0.0 entry must match a -0.0 entry
    points = _random_points(5, 20_000) + [
        p for eps_prime in (0.5, 0.3, 1.0) for R in _edge_radii(eps_prime)
        for p in _radius_points(R)
    ] + [(1e-150, 0.0, 0.0), (0.0, 1e-160, 0.0), (-1e150, 3.0, -0.0)]
    for T, x, y in points:
        got = np.array(J_near(T, x, y)).tobytes()
        assert got == J_near_reference(T, x, y).tobytes(), (T, x, y)


@pytest.mark.parametrize("eps_prime", [0.5, 0.3, 1.0, 1e-3, 7.0, 2.0**-20])
def test_metric_g_matches_the_smooth_blend_bit_for_bit(eps_prime):
    edge = []
    for R in _edge_radii(eps_prime):
        for T, x, y in _radius_points(R):
            assert math.sqrt(4.0 * T * T + x * x + y * y) == R
            edge.append((T, x, y))
    rng = np.random.default_rng(17)
    # radii spread over both pieces and the blend between them
    near = [(0.0, R, 0.0) for R in rng.uniform(0.0, 1.5 * eps_prime, 2_000).tolist()]
    for T, x, y in edge + near + _random_points(23, 2_000):
        got = np.float64(metric_g(T, x, y, eps_prime)).tobytes()
        want = np.float64(metric_factor_reference(T, x, y, eps_prime)).tobytes()
        assert got == want, (T, x, y)
    assert metric_g(0.0, eps_prime / 2.0, 0.0, eps_prime) == 1.0
    assert metric_g(0.0, eps_prime, 0.0, eps_prime) == eps_prime


def test_J_compatibility_and_taming():
    rng = np.random.default_rng(11)
    for _ in range(20):
        T, x, y = rng.uniform(-1, 1, 3)
        if math.sqrt(4 * T * T + x * x + y * y) < 1e-3:
            continue
        J = np.array(J_near(T, x, y))
        W = form_matrix(omega_near_Z(T, x, y))
        assert np.abs(J.T @ W @ J - W).max() < 1e-12
        for _ in range(5):
            v = rng.standard_normal(4)
            assert float(v @ W @ (J @ v)) > 0


def test_metric_is_identity_near_circle():
    assert metric_g(0.0, 0.0, 0.0, 0.5) == pytest.approx(1.0)


def test_metric_scales_linearly_far_out():
    eps_prime = 0.3
    factor = metric_g(eps_prime, 0.0, 0.0, eps_prime)  # R = 2 eps'
    assert factor == pytest.approx(2 * eps_prime)


def test_metric_positive_definite_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        T, x, y = rng.uniform(-2, 2, 3)
        assert metric_g(T, x, y, 0.5) > 0


# at each point one of the early exits (R <= eps'/2, R >= eps') would return
# a factor if the eps' check came after them
@pytest.mark.parametrize("point", [(0.0, 0.0, 0.0), (0.0, 1.0, 0.0)])
@pytest.mark.parametrize("eps_prime", [0.0, -0.0, -1.0])
def test_metric_g_rejects_non_positive_eps_prime(point, eps_prime):
    with pytest.raises(ValueError, match="eps_prime"):
        metric_g(*point, eps_prime)


def test_self_dual_frame():
    for F in (FORM_A, FORM_B, FORM_C):
        st = hodge_star_2form(G0, 1, F)
        assert max(abs(a - b) for a, b in zip(st, F)) < 1e-14


def test_anti_self_dual_partner():
    w = (1.0, 0.0, 0.0, 0.0, 0.0, -1.0)  # opposite-sign pairing of the first frame
    st = hodge_star_2form(G0, 1, w)
    assert max(abs(a + b) for a, b in zip(st, w)) < 1e-14


def test_star_conformally_invariant():
    rng = np.random.default_rng(5)
    for _ in range(50):
        T, x, y = rng.uniform(-1, 1, 3)
        w = tuple(rng.standard_normal(6).tolist())
        st_g = hodge_star_2form(metric_g(T, x, y, 0.5), 1, w)
        st_0 = hodge_star_2form(G0, 1, w)
        assert max(abs(a - b) for a, b in zip(st_g, st_0)) < 1e-12


def test_hodge_star_rejects_bad_orientation():
    with pytest.raises(ValueError):
        hodge_star_2form(G0, 0, FORM_A)


@pytest.mark.parametrize("factor", [0.0, -0.0, -1.0, math.nan])
def test_hodge_star_rejects_degenerate_metric(factor):
    with pytest.raises(ValueError, match="degenerate or indefinite metric"):
        hodge_star_2form(factor, 1, FORM_A)


_SPECIAL = [0.0, -0.0, 1.5, -2.25, math.inf, -math.inf, math.nan, 5e-324, -1e308]


def _bits(form):
    return np.array(form, dtype=float).tobytes()


def test_hodge_star_is_the_orientation_times_the_permutation_bit_for_bit():
    rng = np.random.default_rng(23)
    for _ in range(200):
        w = tuple(float(v) for v in rng.choice(_SPECIAL, 6))
        assert _bits(hodge_star_2form(G0, 1, w)) == _bits(hodge_star_scaled(1, w))
        # the flipped orientation agrees by value (a NaN stays a NaN)
        flipped = hodge_star_2form(G0, -1, w)
        assert np.array_equal(flipped, hodge_star_scaled(-1, w), equal_nan=True)
        # the reference's sums overflow near the top of the float range
        finite = tuple(v if abs(v) < 1e300 else 3.0 for v in w)
        assert hodge_star_2form(2.0, -1, finite) == hodge_star_general(np.eye(4), -1, finite)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=6, max_size=6),
    st.sampled_from([1, -1]),
    st.floats(0.01, 5.0),
)
# the worst gap found so far, 1.02e-15 relative, from numpy's determinant
@example([0.0, 0.0, 0.0, 0.0, 0.0, 42702.25], 1, 0.01171875)
def test_hodge_star_matches_general_metric_star(comps, orientation, factor):
    w = tuple(comps)
    scale = max(abs(c) for c in w)
    # keep W G^-1 G^-1 clear of the subnormal range, where the reference
    # loses digits that the signed permutation keeps
    assume(scale == 0.0 or scale > 1e-200)
    # at the flat metric the reference does no rounding: exact equality
    # (signed zeros compare equal)
    flat = hodge_star_2form(G0, orientation, w)
    assert flat == hodge_star_general(np.eye(4), orientation, w)
    ref = hodge_star_general(factor * np.eye(4), orientation, w)
    star = hodge_star_2form(factor, orientation, w)
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
        assert max(abs(a - b) for a, b in zip(st, w)) < 1e-12


def test_gradient_flow_presentation_matches_model_form():
    rng = np.random.default_rng(13)
    for _ in range(100):
        T, x, y = rng.uniform(-1, 1, 3)
        hf = honda_form(T, x, y)
        w = omega_near_Z(T, x, y)
        assert max(abs(a - b) for a, b in zip(hf, w)) < 1e-12
    assert honda_form(0, 0, 0) == (0,) * 6


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
        lambda c: (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
        ChartPoint(CARTESIAN, (0.1, 0.2, 0.3, 0.0)),
        1e-3,
    )
    assert res == (0.0, 0.0, 0.0, 0.0)


def test_d_omega_detects_non_closed_form():
    # the form x dT^dy has derivative -dT^dx^dy of unit magnitude
    res = d_omega_numeric(
        lambda c: (0.0, c[1], 0.0, 0.0, 0.0, 0.0),
        ChartPoint(CARTESIAN, (0.1, 0.2, 0.3, 0.0)),
        1e-3,
    )
    assert abs(abs(res[0]) - 1.0) < 1e-9


def nonlinear_field(c):
    T, x, y, lam = c
    return (
        math.sin(T * x), x * y * y, math.exp(y) * T,
        math.cos(x + lam), T**3 - y * lam, x * math.exp(-T * T),
    )


@settings(max_examples=100, deadline=None)
@given(st.tuples(*[st.floats(-2.0, 2.0)] * 4), st.sampled_from([1e-3, 1e-5, 0.1]))
def test_d_omega_makes_eight_field_calls_and_matches_the_reference_bit_for_bit(coords, h):
    pt = ChartPoint(CARTESIAN, coords)
    for field in (omega_field, nonlinear_field):
        calls = []

        def counted(c):
            calls.append(c)
            return field(c)

        got = d_omega_numeric(counted, pt, h)
        assert len(calls) == 8
        want = d_omega_numeric_reference(field, pt, h)
        assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


def test_d_omega_rejects_bad_step():
    with pytest.raises(ValueError):
        d_omega_numeric(omega_field, ChartPoint(CARTESIAN, (0, 0, 0, 0)), 0.0)


def test_form_coefficients_vanish_linearly_toward_circle():
    # components of the model form scale linearly with distance from the circle
    base = omega_near_Z(0.02, 0.04, -0.06)
    half = omega_near_Z(0.01, 0.02, -0.03)
    assert np.allclose(np.array(base), 2 * np.array(half))
