"""Numerical side of the construction: the explicit closed 2-form near a
signed zero circle, its compatible almost complex structure and metric, and
the two-parameter profile map whose immersion property drives everything.

Conventions.  The cartesian chart is (T, x, y, lam) with 2-form components
in the ordered basis

    dT^dx, dT^dy, dT^dlam, dx^dy, dx^dlam, dy^dlam.

The cylindrical chart is (t, rho, mu, lam) with rho >= 0 and 2-form basis

    dt^drho, dt^dmu, dt^dlam, drho^dmu, drho^dlam, dmu^dlam.

A 2-form is a tuple of its six float components in the ordered basis of
its chart.  All fields are independent of lam (and of mu in the cylindrical
chart); the angles enter only through the form bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Callable

import numpy as np

CARTESIAN = "cartesian"
CYLINDRICAL = "cylindrical"

# index pairs (a, b), a < b, matching the ordered 2-form bases above, with
# coordinates numbered 0..3 in chart order
_BASIS_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIR_ROWS, _PAIR_COLS = (list(v) for v in zip(*_BASIS_PAIRS))

Form = tuple[float, float, float, float, float, float]

# the math functions of ProfileCurve.lutz_point, bound once
_exp, _atan2, _sqrt, _cos, _sin, _PI = math.exp, math.atan2, math.sqrt, math.cos, math.sin, math.pi


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChartPoint:
    """A point in one of the two charts.

    cartesian: coords = (T, x, y, lam).  cylindrical: coords = (t, rho, mu,
    lam) with rho >= 0.
    """

    chart: str
    coords: tuple[float, float, float, float]

    def __post_init__(self):
        if self.chart not in (CARTESIAN, CYLINDRICAL):
            raise ValueError(f"unknown chart {self.chart!r}")
        coords = tuple(float(v) for v in self.coords)
        if len(coords) != 4:
            raise ValueError("a chart point has four coordinates")
        if self.chart == CYLINDRICAL and coords[1] < 0:
            raise ValueError("rho must be non-negative")
        object.__setattr__(self, "coords", coords)


def form_matrix(components) -> np.ndarray:
    """Antisymmetric matrices of 2-forms from their components in the
    ordered basis: W[a, b] = -W[b, a] is the dx_a^dx_b component.
    Components of shape (..., 6) give matrices of shape (..., 4, 4)."""
    c = np.asarray(components, dtype=float)
    W = np.zeros(c.shape[:-1] + (4, 4))
    W[..., _PAIR_ROWS, _PAIR_COLS] = c
    W[..., _PAIR_COLS, _PAIR_ROWS] = -c
    return W


# ---------------------------------------------------------------------------
# smooth interpolation primitives
# ---------------------------------------------------------------------------


def _step_terms(u):
    """u clamped to [0, 1] and the two exponentials a = exp(-1/u),
    b = exp(-1/(1 - u)) of smooth_step."""
    # every divisor is at least 1e-300 and every exp argument is <= 0, so
    # nothing here divides by zero or overflows; at the clamped ends the
    # argument is -1e300, whose exp is exactly 0.0, so a = 0 at u = 0 and
    # b = 0 at u = 1 need no separate branch
    u = np.minimum(np.maximum(u, 0.0), 1.0)
    a = np.exp(-1.0 / np.maximum(u, 1e-300))
    b = np.exp(-1.0 / np.maximum(1.0 - u, 1e-300))
    return u, a, b


def smooth_step(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, strictly increasing
    in between, flat to all orders at both ends."""
    _, a, b = _step_terms(u)
    return a / (a + b)


def _blend(x, lo, hi):
    """The smooth_step weight from 0 at x = lo to 1 at x = hi, and its x-derivative."""
    width = hi - lo
    u, a, b = _step_terms((x - lo) / width)
    s = a / (a + b)
    # s' = s b/(a + b) (1/u^2 + 1/(1 - u)^2).  b/(a + b), not 1 - s, which
    # cancels near u = 1.  The clamp keeps both squares finite; outside
    # (0, 1) s or b is exactly 0.0, so s' is too
    u = np.minimum(np.maximum(u, 1e-100), 1.0 - 2.0**-53)
    return s, s * (b / (a + b)) * (1.0 / u**2 + 1.0 / (1.0 - u) ** 2) / width


# ---------------------------------------------------------------------------
# the profile curve
# ---------------------------------------------------------------------------

_NQUAD = 64
# the width of each of the left spine's two rate switches; below half of
# T1 - T0, so they do not overlap
SPINE_EDGE = 0.03


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The spine's _NQUAD-node Gauss-Legendre rule (nodes, weights), shared
    read-only by every curve.  It is computed by the first curve built, not
    at import: leggauss runs LAPACK, whose first call costs about 1.6 MiB of
    RSS that exact-only runs never need."""
    qx, qw = np.polynomial.legendre.leggauss(_NQUAD)
    qx.flags.writeable = False
    qw.flags.writeable = False
    return qx, qw


@dataclass(frozen=True)
class ProfileCurve:
    """The assembled two-parameter profile phi(t, rho) = (g, f).

    Zone layout in t: standard symplectization wall [0, T0], an engineered
    blend [T0, T1], the fold formula [T1, T2], a polar rotation [T2, T3]
    sweeping the image left-handedly by pi, and the twisted wall [T3, 1].
    In rho: the fold/blend data below RB0, a polar interpolation on
    [RB0, RB1], and the standard symplectization above RB1.  The fold
    formula (rho - (t-1/2)^2 + 1 + delta, -2 rho (t-1/2)) holds verbatim on
    [T1, T2] x [0, RB0], which contains the declared fold disk of radius
    fold_radius around (1/2, 0).

    ``zone_jet`` gives phi with its four partials by the chain rule through
    one zone's formulas and ``phi_jet`` picks each point's zone; they are
    the only derivative of phi in the package, and ``phi`` is the value
    part of ``phi_jet``.
    """

    eps: float = 1.0
    delta: float = 0.2

    T0: float = field(default=0.05, init=False)
    T1: float = field(default=0.4, init=False)
    T2: float = field(default=0.6, init=False)
    T3: float = field(default=0.95, init=False)

    def __post_init__(self):
        if self.eps <= 0 or self.delta <= 0:
            raise ValueError("eps and delta must be positive")
        try:
            object.__setattr__(self, "rho_max", self.eps**2 / 2.0)
        except OverflowError:
            raise ValueError(f"eps = {self.eps} is too large: eps^2 overflows") from None
        object.__setattr__(self, "RB0", 0.24 * self.rho_max)
        object.__setattr__(self, "RB1", 0.7 * self.rho_max)
        object.__setattr__(self, "kappa", 0.5 / self.rho_max)
        object.__setattr__(self, "fold_radius", min(0.1, self.RB0))
        qx, qw = _gauss_legendre()
        object.__setattr__(self, "_qx", qx)
        object.__setattr__(self, "_qw", qw)
        # the spine at T1 is G0 + k (G1 - G0), affine in the plateau rate k
        G0, G1 = self._spine_left(self.T1, 0.0), self._spine_left(self.T1, 1.0)
        k = float((self.q(self.T1) - G0) / (G1 - G0))
        if not k > 0:
            raise ValueError(
                f"delta = {self.delta} is too small for the left spine to reach "
                f"q(T1) with a positive rate (plateau rate {k})"
            )
        object.__setattr__(self, "plateau_rate", k)

    # -- the monotone spine on the left blend zone --------------------------

    def q(self, t):
        return 1.0 + self.delta - (np.asarray(t, dtype=float) - 0.5) ** 2

    def _spine_rate(self, t, k):
        """The spine's rate at plateau k: e^t switched to k across
        [T0, T0 + E], k switched to q'(t) = -2 (t - 1/2) across [T1 - E, T1],
        E = SPINE_EDGE.  Each switch is a convex blend of two values, so the
        rate is positive wherever k is."""
        t = np.asarray(t, dtype=float)
        L = smooth_step((t - self.T0) / SPINE_EDGE)
        R = smooth_step((self.T1 - t) / SPINE_EDGE)
        return k + (1 - L) * (np.exp(t) - k) + (1 - R) * (-2.0 * (t - 0.5) - k)

    def _spine_left(self, t, k):
        """The spine e^T0 + integral of the rate at plateau k from T0 to t,
        t clipped to [T0, T1]: k per unit length on the plateau, exactly,
        and each switch up to t by the Gauss-Legendre rule."""
        tc = np.clip(np.asarray(t, dtype=float), self.T0, self.T1)
        a, b = self.T0 + SPINE_EDGE, self.T1 - SPINE_EDGE
        G = math.exp(self.T0) + k * (np.clip(tc, a, b) - a)
        for lo, hi in ((self.T0, np.minimum(tc, a)), (b, np.maximum(tc, b))):
            # every t on the plateau has the same limit: each distinct one
            # is integrated once
            hi, back = np.unique(hi, return_inverse=True)
            x = 0.5 * (hi[:, None] - lo) * self._qx + 0.5 * (hi[:, None] + lo)
            part = 0.5 * (hi - lo) * np.sum(self._qw * self._spine_rate(x, k), axis=-1)
            G = G + part[back.reshape(tc.shape)]
        return G

    # -- cartesian base: wall -> blend -> fold, valid at every rho ----------

    def _base(self, t, rho):
        """(bu, bv) and their partials (bu_t, bu_rho, bv_t, bv_rho)."""
        t = np.asarray(t, dtype=float)
        rho = np.asarray(rho, dtype=float)
        et = np.exp(t)
        w, w_t = _blend(t, self.T0, self.T1)
        left, blend = t <= self.T0, t <= self.T1
        B = (1 - w) * et + w * (-2.0) * (t - 0.5)
        B_t = (1 - w) * et - w_t * et - 2.0 * w_t * (t - 0.5) - 2.0 * w
        # the spine's quadrature runs only at the t inside the blend zone
        in_blend = ~left & blend
        G = np.where(left, et, self.q(t))
        G[in_blend] = self._spine_left(t[in_blend], self.plateau_rate)
        # the spine's t-derivative is its integrand, the rate
        G_t = np.where(
            left, et, np.where(blend, self._spine_rate(t, self.plateau_rate), -2.0 * (t - 0.5))
        )
        Ac = np.where(left, 0.0, np.where(blend, w, 1.0))
        Ac_t = np.where(left | ~blend, 0.0, w_t)
        Bc = np.where(left, et, np.where(blend, B, -2.0 * (t - 0.5)))
        Bc_t = np.where(left, et, np.where(blend, B_t, -2.0))
        return G + rho * Ac, rho * Bc, G_t + rho * Ac_t, Ac, rho * Bc_t, Bc

    # -- the twisted (extra-pi) boundary profile ----------------------------

    def _twist(self, rho):
        """Angle of the twisted profile and its rho-derivative: the angle
        climbs monotonically from -pi at rho = 0 back to the standard angle
        at rho >= RB1."""
        s, s_r = _blend(rho, 0.0, self.RB1)
        sigma = self.kappa * rho + (1.0 - self.kappa * rho) * s
        sigma_r = self.kappa * (1.0 - s) + (1.0 - self.kappa * rho) * s_r
        return (
            np.arctan2(rho, 1.0) - math.pi * (1.0 - sigma),
            1.0 / (1.0 + rho**2) + math.pi * sigma_r,
        )

    @staticmethod
    def _at_twist(rho, a, a_r):
        """(g1, f1, g1', f1') for the twist angle a and its derivative a_r."""
        r = np.sqrt(1.0 + rho**2)
        rd = rho / r
        cos, sin = np.cos(a), np.sin(a)
        return r * cos, r * sin, rd * cos - r * a_r * sin, rd * sin + r * a_r * cos

    def lutz_jet(self, rho):
        """(g1, f1, g1', f1'): radius sqrt(1 + rho^2) at the twisted angle,
        with the rho-derivatives."""
        rho = np.asarray(rho, dtype=float)
        return self._at_twist(rho, *self._twist(rho))

    def lutz_profile(self, rho):
        """(g1, f1), the value part of ``lutz_jet``."""
        return self.lutz_jet(rho)[:2]

    def lutz_point(self, rho: float) -> tuple[float, float]:
        """``lutz_profile`` at one Python float, line for line in ``math``:
        the smooth_step clamp and floors, the angle of ``_twist`` and the
        radius.  Each clamp and floor is a conditional that picks what the
        builtin min or max would, NaN included: the first operand unless the
        second lies strictly past it.  ``rho * rho`` rather than ``rho**2``:
        float ``**`` raises OverflowError where numpy gives inf."""
        u = rho / self.RB1
        u = 0.0 if 0.0 > u else u
        u = 1.0 if 1.0 < u else u
        a = _exp(-1.0 / (1e-300 if 1e-300 > u else u))
        v = 1.0 - u
        b = _exp(-1.0 / (1e-300 if 1e-300 > v else v))
        s = a / (a + b)
        kr = self.kappa * rho
        angle = _atan2(rho, 1.0) - _PI * (1.0 - (kr + (1.0 - kr) * s))
        r = _sqrt(1.0 + rho * rho)
        return r * _cos(angle), r * _sin(angle)

    # -- the assembled map --------------------------------------------------

    def phi(self, t, rho):
        """Evaluate phi = (g, f); accepts scalars or numpy arrays."""
        return self.phi_jet(t, rho)[:2]

    def _polar(self, t, rho, base, th_wall, th_wall_r):
        """The polar zone's jet (pu, pv, pu_t, pu_rho, pv_t, pv_rho):
        (pu, pv) = exp(lam) (cos th, sin th), with the base's log-polar
        coordinates (lam, th) blended into the standard ones across rho and
        into the twisted wall's angle across t."""
        bu, bv, bu_t, bu_r, bv_t, bv_r = base
        n2 = bu * bu + bv * bv
        lam_base = 0.5 * np.log(n2)
        th_base = np.arctan2(bv, bu)
        # d lam_base = (bu dbu + bv dbv) / n2, d th_base = (bu dbv - bv dbu) / n2
        lb_t = (bu * bu_t + bv * bv_t) / n2
        lb_r = (bu * bu_r + bv * bv_r) / n2
        tb_t = (bu * bv_t - bv * bu_t) / n2
        tb_r = (bu * bv_r - bv * bu_r) / n2
        s, s_r = _blend(rho, self.RB0, self.RB1)
        th_std = np.arctan2(rho, 1.0)
        lam_std = t + 0.5 * np.log1p(rho**2)
        ts_r = 1.0 / (1.0 + rho**2)
        ls_r = rho * ts_r
        lam_mid = (1 - s) * lam_base + s * lam_std
        th_mid = (1 - s) * th_base + s * th_std
        # each blend (1 - s) a + s b has partials (1 - s) da + s db + ds (b - a)
        lm_t = (1 - s) * lb_t + s
        lm_r = (1 - s) * lb_r + s * ls_r + s_r * (lam_std - lam_base)
        tm_t = (1 - s) * tb_t
        tm_r = (1 - s) * tb_r + s * ts_r + s_r * (th_std - th_base)
        w, w_t = _blend(t, self.T2, self.T3)
        lam = (1 - w) * lam_mid + w * lam_std
        th = (1 - w) * th_mid + w * th_wall
        lam_t = (1 - w) * lm_t + w + w_t * (lam_std - lam_mid)
        lam_r = (1 - w) * lm_r + w * ls_r
        th_t = (1 - w) * tm_t + w_t * (th_wall - th_mid)
        th_r = (1 - w) * tm_r + w * th_wall_r
        radius = np.exp(lam)
        pu, pv = radius * np.cos(th), radius * np.sin(th)
        # d(pu + i pv) = (pu + i pv)(dlam + i dth)
        return (
            pu, pv, pu * lam_t - pv * th_t, pu * lam_r - pv * th_r,
            pv * lam_t + pu * th_t, pv * lam_r + pu * th_r,
        )

    def zone_jet(self, zone: str, t, rho):
        """phi = (u, v) = (g, f) with its partials (u, v, u_t, u_rho, v_t,
        v_rho) by one zone's formulas, t broadcast against rho, whether or
        not the points lie in the zone.  The zones of ``phi_jet``: "wall" is
        e^t (1, rho), "twisted" e^t (g1, f1), "core" the base with the fold
        formula from T1 on, "polar" exp(lam) (cos th, sin th)."""
        t = np.asarray(t, dtype=float)
        rho = np.asarray(rho, dtype=float)
        if zone == "wall":
            et = np.exp(t)
            return et, et * rho, et, 0.0, et * rho, et
        if zone == "twisted":
            et = np.exp(t)
            g1, f1, g1_r, f1_r = self._at_twist(rho, *self._twist(rho))
            return et * g1, et * f1, et * g1, et * g1_r, et * f1, et * f1_r
        if zone == "core":
            # the fold formula verbatim, exact to the bit; its partials
            # (-2 (t-1/2), 1) are the base's own for t >= T1
            bu, *rest = self._base(t, rho)
            return (np.where(t >= self.T1, rho - (t - 0.5) ** 2 + 1 + self.delta, bu), *rest)
        if zone == "polar":
            return self._polar(t, rho, self._base(t, rho), *self._twist(rho))
        raise ValueError(f"unknown zone {zone!r}")

    def phi_jet(self, t, rho):
        """phi = (u, v) = (g, f) with its partials: (u, v, u_t, u_rho, v_t,
        v_rho), t broadcast against rho.  Each point takes ``zone_jet`` of
        the first zone it lies in: the wall (t <= T0 or rho >= RB1), the
        twisted wall (t >= T3), the core (t <= T2 and rho <= RB0), else the
        polar zone.  A zone's jet runs only when some point lies in it; the
        blends are flat at the zone edges, so the pieces join smoothly."""
        t = np.asarray(t, dtype=float)
        rho = np.asarray(rho, dtype=float)
        wall = (t <= self.T0) | (rho >= self.RB1)
        twisted = t >= self.T3
        core = (t <= self.T2) & (rho <= self.RB0)
        inner = ~(wall | twisted)
        zones = {"wall": wall, "twisted": twisted & ~wall, "core": inner & core,
                 "polar": inner & ~core}
        # an absent zone's terms are 0.0, which np.where never picks
        jets = [self.zone_jet(z, t, rho) if m.any() else (0.0,) * 6 for z, m in zones.items()]
        return tuple(
            np.where(wall, on_wall, np.where(twisted, on_twisted, np.where(core, on_core, polar)))
            for on_wall, on_twisted, on_core, polar in zip(*jets)
        )


# ---------------------------------------------------------------------------
# profiles and their contact positivity
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _curve_for(eps: float) -> ProfileCurve:
    return ProfileCurve(eps=eps)


def contact_profile(kind: str, rho: float, eps: float) -> tuple[float, float]:
    """The boundary profiles at one rho, returned as Python floats (f, g).

    standard: (rho, 1).  lutz: the twisted profile, starting at (0, -1) and
    agreeing with the standard profile for rho near eps^2/2.

    The lutz profile is evaluated in Python floats by
    ``ProfileCurve.lutz_point``, not by ``lutz_profile`` on a 0-d array:
    ``contact_positivity`` makes one call per point (perfbench's traced run
    counts 12000 a battery until ROADMAP item 1), and numpy's per-call cost
    on a 0-d array was most of the battery.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    try:
        rho_max = eps**2 / 2
    except OverflowError:
        raise ValueError(f"eps = {eps} is too large: eps^2 overflows") from None
    if not 0 <= rho <= rho_max:
        raise ValueError(f"rho = {rho} outside [0, {rho_max}]")
    if kind == "standard":
        return (float(rho), 1.0)
    if kind == "lutz":
        g1, f1 = _curve_for(eps).lutz_point(float(rho))
        return (f1, g1)
    raise ValueError(f"unknown profile kind {kind!r}")


def contact_positivity(
    profile: Callable[[float], tuple[float, float]],
    rho_max: float,
    samples: int = 10000,
    *,
    h: float,
) -> float:
    """Minimum of g f' - f g' over a uniform grid, by central differences of
    step ``h`` (the battery's is ``certify_cli.POSITIVITY_STEP``)."""
    rho = np.linspace(0.0, rho_max, samples)
    rc = np.clip(rho, h, rho_max - h)
    # the stencil rc + h, rc - h, rc as Python floats, not numpy scalars:
    # the lutz profile evaluates them in math, without numpy's per-call
    # cost.  The (f, g) pairs stream into one array
    x = np.concatenate((rc + h, rc - h, rc)).tolist()
    pairs = np.fromiter(chain.from_iterable(map(profile, x)), float, 2 * len(x))
    fp, fm, f0 = pairs.reshape(3, samples, 2)
    df = (fp[:, 0] - fm[:, 0]) / (2 * h)
    dg = (fp[:, 1] - fm[:, 1]) / (2 * h)
    val = f0[:, 1] * df - f0[:, 0] * dg
    return float(val.min())


# ---------------------------------------------------------------------------
# the immersion check
# ---------------------------------------------------------------------------


# full grid lines per block of the immersion check: each block holds at most
# _IMMERSION_BLOCK x grid points, which bounds its temporaries
_IMMERSION_BLOCK = 64
# the immersion check skips the disk of this radius around the fold point (1/2, 0)
FOLD_EXCLUSION = 0.05


def phi_immersion_check(P: ProfileCurve, grid: int = 200) -> float:
    """Minimum Jacobian determinant u_t v_rho - u_rho v_t of phi, from
    ``ProfileCurve.zone_jet``, over the grid x grid points of [0, 1] x
    [0, rho_max] outside the disk of radius FOLD_EXCLUSION around the fold
    point (1/2, 0); NaN if the determinant is NaN at any of those points."""
    # t along axis 0 and rho along axis 1 as broadcast shapes (rows, 1) and
    # (1, columns): every term that depends on one variable only (the spine
    # quadrature above all) is computed once per grid line, not per point
    t = np.linspace(0.0, 1.0, grid)[:, None]
    r = np.linspace(0.0, P.rho_max, grid)[None, :]
    # each zone of phi_jet is cut out by thresholds on t and rho, and both
    # axes increase, so it is a union of rectangles of whole grid lines;
    # each zone's jet runs on its own rectangles only
    i0, i2 = np.searchsorted(t[:, 0], (P.T0, P.T2), side="right")
    i3 = np.searchsorted(t[:, 0], P.T3, side="left")
    j0 = np.searchsorted(r[0], P.RB0, side="right")
    j1 = np.searchsorted(r[0], P.RB1, side="left")
    rectangles = (
        ("wall", 0, i0, 0, grid), ("wall", i0, grid, j1, grid), ("twisted", i3, grid, 0, j1),
        ("core", i0, i2, 0, j0), ("polar", i0, i2, j0, j1), ("polar", i2, i3, 0, j1),
    )
    block_minima = []
    for zone, row0, row1, col0, col1 in rectangles:
        if col0 == col1:
            continue
        rc = r[:, col0:col1]
        rows = _IMMERSION_BLOCK * grid // (col1 - col0)
        for i in range(row0, row1, rows):
            tb = t[i:min(i + rows, row1)]
            _, _, u_t, u_r, v_t, v_r = P.zone_jet(zone, tb, rc)
            det = u_t * v_r - u_r * v_t
            mask = (tb - 0.5) ** 2 + rc**2 > FOLD_EXCLUSION**2
            block_minima.append(np.where(mask, det, np.inf).min())
    # np.min, not Python's min: a NaN block minimum stays NaN
    return float(np.min(block_minima))


# ---------------------------------------------------------------------------
# the 2-form of the model and its chart presentations
# ---------------------------------------------------------------------------


def lutz_form(pt: ChartPoint, P: ProfileCurve) -> Form:
    """d(alpha) for alpha = f dt-free primitive f dmu + g dlam, in the
    cylindrical basis (dt^drho, dt^dmu, dt^dlam, drho^dmu, drho^dlam,
    dmu^dlam): f_t dt^dmu + f_rho drho^dmu + g_t dt^dlam + g_rho drho^dlam."""
    if pt.chart != CYLINDRICAL:
        raise ValueError("lutz_form expects a cylindrical chart point")
    t, rho = pt.coords[0], pt.coords[1]
    if not 0 <= t <= 1 or not 0 <= rho <= P.rho_max:
        raise ValueError("point outside the model domain")
    _, _, gt, gr, ft, fr = P.phi_jet(t, rho)
    return (0.0, float(ft), float(gt), float(fr), float(gr), 0.0)


def omega_near_Z(T: float, x: float, y: float) -> Form:
    """y A - x B - 2T C with A = dT^dx + dy^dlam, B = dT^dy - dx^dlam,
    C = dx^dy + dT^dlam."""
    return (y, -x, -2.0 * T, -2.0 * T, x, y)


def wedge_square(w: Form) -> float:
    """Coefficient of the volume form in w ^ w."""
    return 2.0 * (w[0] * w[5] - w[1] * w[4] + w[2] * w[3])


# ---------------------------------------------------------------------------
# almost complex structure, metric, Hodge star
# ---------------------------------------------------------------------------


def J_near(T: float, x: float, y: float) -> tuple[tuple[float, ...], ...]:
    """(1/R) Q with R = sqrt(4T^2 + x^2 + y^2), as four rows; undefined on
    the circle."""
    R = math.sqrt(4.0 * T * T + x * x + y * y)
    if R == 0.0:
        raise ValueError("J is undefined on the zero circle (R = 0)")
    # each entry of Q divided by R once: IEEE division commutes with
    # negation, so these are the entries of Q / R bit for bit
    a, b, c = x / R, y / R, 2.0 * T / R
    return (
        (0.0, -b, a, c),
        (b, 0.0, c, -a),
        (-a, -c, 0.0, -b),
        (-c, a, b, 0.0),
    )


def metric_g(T: float, x: float, y: float, eps_prime: float) -> float:
    """The factor f(R) of the conformal metric f(R) g0, g0 the flat metric
    of the chart, with R = sqrt(4T^2 + x^2 + y^2) and

        f = 1                    for R <= eps'/2,
        f = (1 - s) + s R        for eps'/2 < R < eps', s = smooth_step of
                                 (R - eps'/2) / (eps'/2),
        f = R                    for R >= eps'.

    smooth_step is exactly 0.0 and 1.0 at its clamped ends, so the two outer
    pieces are the blend's own values there, bit for bit."""
    if eps_prime <= 0:
        raise ValueError("eps_prime must be positive")
    R = math.sqrt(4.0 * T * T + x * x + y * y)
    half = eps_prime / 2.0
    if R <= half:
        return 1.0
    if R >= eps_prime:
        return R
    s = float(smooth_step((R - half) / half))
    return (1.0 - s) + s * R


def hodge_star_2form(factor: float, orientation: int, w: Form) -> Form:
    """Hodge star on 2-forms for the metric factor * g0 and the given
    orientation (+1 is the chart orientation).

    On 2-forms in dimension 4 the star is unchanged by conformal rescaling,
    so for every positive factor it is the flat star: the signed permutation
    dT^dx <-> dy^dlam, dT^dy <-> -dx^dlam, dT^dlam <-> dx^dy.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    # factor * g0 is positive definite exactly when factor > 0, which a NaN
    # factor is not
    if not factor > 0:
        raise ValueError("degenerate or indefinite metric")
    c0, c1, c2, c3, c4, c5 = w
    if orientation == 1:
        return (c5, -c4, c3, c2, -c1, c0)
    return (-c5, c4, -c3, -c2, c1, -c0)


def honda_form(T: float, x: float, y: float) -> Form:
    """dlam ^ dh + star3(dh) for h = -x^2/2 - y^2/2 + T^2, with the
    3-dimensional star taken for dy^2 + dx^2 + dT^2 and orientation (y, x, T)."""
    hT, hx, hy = 2.0 * T, -x, -y
    # dlam ^ dh = -hT dT^dlam - hx dx^dlam - hy dy^dlam
    #           = (0, 0, -hT, 0, -hx, -hy)
    # with the oriented orthonormal coframe (dy, dx, dT): star3 dy = dx^dT,
    # star3 dx = dT^dy, star3 dT = dy^dx, so for dh = hT dT + hx dx + hy dy
    # star3 dh = -hy dT^dx + hx dT^dy - hT dx^dy
    #          = (-hy, hx, 0, -hT, 0, 0)
    return (-hy, hx, -hT, -hT, -hx, -hy)


# ---------------------------------------------------------------------------
# numerical exterior derivative
# ---------------------------------------------------------------------------

_TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
_PAIR_INDEX = {p: i for i, p in enumerate(_BASIS_PAIRS)}


def d_omega_numeric(
    field_fn: Callable[[tuple[float, float, float, float]], Form],
    pt: ChartPoint,
    h: float,
) -> tuple[float, float, float, float]:
    """Central-difference exterior derivative: the four components of dw on
    the coordinate triples (012), (013), (023), (123), from one field call
    at each of the eight points pt +- h e_a."""
    if h <= 0:
        raise ValueError("step must be positive")
    d = []  # d[a][k]: the a-th partial of component k
    for a in range(4):
        plus, minus = list(pt.coords), list(pt.coords)
        plus[a] += h
        minus[a] -= h
        p, m = field_fn(tuple(plus)), field_fn(tuple(minus))
        d.append([(pk - mk) / (2.0 * h) for pk, mk in zip(p, m)])
    ix = _PAIR_INDEX
    return tuple(
        d[a][ix[b, c]] - d[b][ix[a, c]] + d[c][ix[a, b]] for a, b, c in _TRIPLES
    )
