"""Independent reference implementations used only by the tests.

Everything here is deliberately naive (exhaustive search, floating-point
eigenvalues, direct matrix multiplication) so that the trusted exact code
paths in the package are checked against a second, structurally different
computation.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# integer matrix helpers
# ---------------------------------------------------------------------------


def matmul(A, B):
    ra, ca = len(A), len(A[0]) if A else 0
    cb = len(B[0]) if B else 0
    return [
        [sum(A[i][k] * B[k][j] for k in range(ca)) for j in range(cb)]
        for i in range(ra)
    ]


def det_exact(A) -> int:
    """Exact determinant by elimination over Fractions."""
    n = len(A)
    M = [[Fraction(v) for v in row] for row in A]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det *= M[col][col]
        inv = 1 / M[col][col]
        for r in range(col + 1, n):
            f = M[r][col] * inv
            if f:
                for c in range(col, n):
                    M[r][c] -= f * M[col][c]
    assert det.denominator == 1
    return int(det)


def signature_fraction(matrix) -> int:
    """Signature by symmetric elimination over Fractions.

    Nonzero diagonal pivots contribute their sign; a zero diagonal with a
    nonzero off-diagonal partner splits off a hyperbolic 2x2 block
    contributing 0; zero rows contribute 0.
    """
    n = len(matrix)
    M = [[Fraction(v) for v in row] for row in matrix]
    active = list(range(n))
    sig = 0
    while active:
        piv = next((i for i in active if M[i][i] != 0), None)
        if piv is not None:
            d = M[piv][piv]
            sig += 1 if d > 0 else -1
            rest = [i for i in active if i != piv]
            for a in rest:
                for b in rest:
                    M[a][b] -= M[a][piv] * M[piv][b] / d
            active = rest
            continue
        pair = None
        for i in active:
            for j in active:
                if j > i and M[i][j] != 0:
                    pair = (i, j)
                    break
            if pair:
                break
        if pair is None:
            break  # all-zero block
        i, j = pair
        a = M[i][j]
        rest = [k for k in active if k not in (i, j)]
        for p in rest:
            for q in rest:
                M[p][q] -= (M[p][i] * M[j][q] + M[p][j] * M[i][q]) / a
        active = rest
    return sig


def symmetric_bareiss_reference(matrix) -> tuple[int, int]:
    """Signature and determinant by eager fraction-free symmetric
    elimination: the same pivot rule and congruence as the package's
    ``_symmetric_bareiss``, but every remaining entry is updated at every
    pivot, so each stored entry is always the current minor."""
    M = [list(row) for row in matrix]
    active = list(range(len(M)))
    sig, prev = 0, 1
    while active:
        p = next((i for i in active if M[i][i]), None)
        if p is None:
            pair = next(
                ((i, j) for k, i in enumerate(active)
                 for j in active[k + 1:] if M[i][j]),
                None,
            )
            if pair is None:
                return sig, 0
            p, j = pair
            Mp, Mj = M[p], M[j]
            for b in active:
                Mp[b] += Mj[b]
            for a in active:
                M[a][p] += M[a][j]
        d = M[p][p]
        sig += 1 if (d > 0) == (prev > 0) else -1
        active.remove(p)
        Mp = M[p]
        for k, a in enumerate(active):
            Ma = M[a]
            f = Ma[p]
            for b in active[k:]:
                v = (d * Ma[b] - f * Mp[b]) // prev
                Ma[b] = v
                M[b][a] = v
        prev = d
    return sig, prev


@dataclass(frozen=True)
class SmithReference:
    """A Smith decomposition U*A*V = D with its unimodular transforms."""

    U: list
    D: list
    V: list
    rank: int
    divisors: tuple

    def same_form(self, snf) -> bool:
        """Whether the package's D, rank and divisors are these."""
        return (snf.D, snf.rank, snf.divisors) == (self.D, self.rank, self.divisors)


def smith_normal_form_reference(A) -> SmithReference:
    """Smith normal form U*A*V = D by the package's pivot rule, with full
    scans: the smallest-magnitude nonzero entry of the working submatrix,
    ties broken in row-major order, and the divisibility chain checked at
    every pivot.  Each row and column operation is applied entry by entry,
    to U and V as well as to D."""
    M = [[int(v) for v in row] for row in A]
    m, n = len(M), len(M[0]) if M else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            M[i], M[j] = M[j], M[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in M:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(dst, src, mult):
        for c in range(n):
            M[dst][c] += mult * M[src][c]
        for c in range(m):
            U[dst][c] += mult * U[src][c]

    def add_col(dst, src, mult):
        for r in range(m):
            M[r][dst] += mult * M[r][src]
        for r in range(n):
            V[r][dst] += mult * V[r][src]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = M[i][j]
                if v != 0 and (best is None or abs(v) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])

        dirty = False
        for i in range(t + 1, m):
            if M[i][t] != 0:
                q = M[i][t] // M[t][t]
                add_row(i, t, -q)
                if M[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if M[t][j] != 0:
                q = M[t][j] // M[t][t]
                add_col(j, t, -q)
                if M[t][j] != 0:
                    dirty = True
        if dirty:
            continue

        p = M[t][t]
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if M[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, 1)
            continue
        if p < 0:
            for c in range(n):
                M[t][c] = -M[t][c]
            for c in range(m):
                U[t][c] = -U[t][c]
        t += 1

    divisors = tuple(M[i][i] for i in range(min(m, n)) if M[i][i] != 0)
    return SmithReference(U=U, D=M, V=V, rank=len(divisors), divisors=divisors)


def recheck_smith(A, snf) -> None:
    """Assert that the package's Smith form ``snf`` of A is the reference's,
    that the reference's U*A*V = D with U and V unimodular, and that D is
    diagonal with a divisibility chain."""
    ref = smith_normal_form_reference(A)
    assert ref.same_form(snf), f"D, rank, divisors: {snf} vs {ref}"
    A = [[int(v) for v in row] for row in A]
    got = matmul(matmul(ref.U, A), ref.V)
    assert got == ref.D, f"U*A*V != D: {got} vs {ref.D}"
    if ref.U:
        assert abs(det_exact(ref.U)) == 1, "U not unimodular"
    if ref.V:
        assert abs(det_exact(ref.V)) == 1, "V not unimodular"
    divs = snf.divisors
    for a, b in zip(divs, divs[1:]):
        assert b % a == 0, f"divisibility chain broken: {a} does not divide {b}"
    # off-diagonal entries of D must vanish
    for i, row in enumerate(snf.D):
        for j, v in enumerate(row):
            if i != j:
                assert v == 0, f"D not diagonal at ({i},{j})"


def eigenvalue_signature(matrix) -> int:
    """Floating-point eigenvalue sign count; independent of the exact path."""
    M = np.array(matrix, dtype=float)
    vals = np.linalg.eigvalsh(M)
    scale = max(1.0, float(np.abs(M).max()) * M.shape[0])
    tol = 1e-9 * scale
    return int(np.sum(vals > tol)) - int(np.sum(vals < -tol))


# ---------------------------------------------------------------------------
# GF(2) exhaustive solving
# ---------------------------------------------------------------------------


def pairing_entrywise(c, a, Q) -> int:
    """c^T Q a one entry at a time, each vector entry through int()."""
    a = [int(v) for v in a]
    return sum(
        int(ci) * sum(q * aj for q, aj in zip(row, a))
        for ci, row in zip(c, Q.matrix)
        if ci
    )


def is_characteristic_entrywise(c, Q) -> bool:
    """(Qc)_i = Q_ii mod 2 for every i, reading column i of Q one entry at
    a time, each vector entry through int()."""
    n = len(Q.matrix)
    for i in range(n):
        ce = sum(int(c[k]) * Q.matrix[k][i] for k in range(n))
        if (ce - Q.matrix[i][i]) % 2 != 0:
            return False
    return True


def first_asymmetric_entry(M):
    """The first (i, j) in row-major order with M[i][j] != M[j][i], or None."""
    n = len(M)
    for i in range(n):
        for j in range(n):
            if M[i][j] != M[j][i]:
                return i, j
    return None


def exhaustive_mod2(A, b):
    """All-solutions search over GF(2); returns one solution or None."""
    m = len(A)
    n = len(A[0]) if A else 0
    bb = [int(v) % 2 for v in b]
    for bits in itertools.product((0, 1), repeat=n):
        if all(
            sum(A[i][j] * bits[j] for j in range(n)) % 2 == bb[i] for i in range(m)
        ):
            return list(bits)
    return None


def in_integer_column_span(A, b) -> bool:
    """Does A y = b have an integer solution?  Decided through the reference
    Smith form: with U A V = D, solvability is divisibility of (U b) by the
    diagonal plus vanishing beyond the rank."""
    m = len(A)
    snf = smith_normal_form_reference(A)
    Ub = [sum(snf.U[i][k] * b[k] for k in range(m)) for i in range(m)]
    for i in range(m):
        if i < snf.rank:
            if Ub[i] % snf.D[i][i] != 0:
                return False
        elif Ub[i] != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# stabilization plan brute force
# ---------------------------------------------------------------------------


def uniform_levels_reference(n: int) -> tuple[float, ...]:
    """The n + 1 levels 0.9 + 0.1 i / n of a plan with n circles."""
    return tuple(0.9 + 0.1 * i / n for i in range(n + 1))


def brute_force_plans(max_total: int = 24, tight: bool = False) -> dict:
    """Best (p, q, r, s) for every reachable (delta_tb, delta_rot).

    Best means: smallest total, then fewest tb-keeping summands (r + s),
    then lexicographically least (p, q, r, s).
    """
    best: dict[tuple[int, int], tuple] = {}
    rs_range = range(max_total + 1) if not tight else range(1)
    for p in range(max_total + 1):
        for q in range(max_total + 1 - p):
            for r in rs_range:
                if p + q + r > max_total:
                    break
                for s in rs_range:
                    total = p + q + r + s
                    if total > max_total:
                        break
                    dtb = -(p + q) + (r + s)
                    drot = (p - q) + (r - s)
                    key = (total, r + s, (p, q, r, s))
                    prev = best.get((dtb, drot))
                    if prev is None or key < prev:
                        best[(dtb, drot)] = key
    return {k: v[2] for k, v in best.items()}


# ---------------------------------------------------------------------------
# partials of the profile map by central differences
# ---------------------------------------------------------------------------


def phi_partials_central(P, t, rho, h: float = 1e-6):
    """(u_t, u_rho, v_t, v_rho) of phi = (u, v), each a central difference
    of step h; t and rho must lie at least h inside the domain."""
    up, vp = P.phi(t + h, rho)
    um, vm = P.phi(t - h, rho)
    ur, vr = P.phi(t, rho + h)
    ul, vl = P.phi(t, rho - h)
    return (
        (up - um) / (2 * h),
        (ur - ul) / (2 * h),
        (vp - vm) / (2 * h),
        (vr - vl) / (2 * h),
    )


def phi_jet_spine_everywhere(P, t, rho):
    """``P.phi_jet(t, rho)`` with the left spine's quadrature evaluated at
    every t and kept only in the blend zone T0 < t <= T1 by np.where."""
    from nearsymp.local_model import ProfileCurve, _blend

    class SpineEverywhere(ProfileCurve):
        def _base(self, t, rho):
            t = np.asarray(t, dtype=float)
            rho = np.asarray(rho, dtype=float)
            et = np.exp(t)
            w, w_t = _blend(t, self.T0, self.T1)
            left, blend = t <= self.T0, t <= self.T1
            B = (1 - w) * et + w * (-2.0) * (t - 0.5)
            B_t = (1 - w) * et - w_t * et - 2.0 * w_t * (t - 0.5) - 2.0 * w
            k = self.plateau_rate
            G = np.where(left, et, np.where(blend, self._spine_left(t, k), self.q(t)))
            G_t = np.where(left, et, np.where(blend, self._spine_rate(t, k), -2.0 * (t - 0.5)))
            Ac = np.where(left, 0.0, np.where(blend, w, 1.0))
            Ac_t = np.where(left | ~blend, 0.0, w_t)
            Bc = np.where(left, et, np.where(blend, B, -2.0 * (t - 0.5)))
            Bc_t = np.where(left, et, np.where(blend, B_t, -2.0))
            return G + rho * Ac, rho * Bc, G_t + rho * Ac_t, Ac, rho * Bc_t, Bc

    return SpineEverywhere(eps=P.eps, delta=P.delta).phi_jet(t, rho)


def phi_jet_all_zones(P, t, rho):
    """``P.phi_jet(t, rho)`` with every zone's formulas evaluated at every
    point, whether or not any point lies in the zone, each output then
    picked by the same nested np.where."""
    from nearsymp.local_model import _blend

    t = np.asarray(t, dtype=float)
    rho = np.asarray(rho, dtype=float)
    bu, bv, bu_t, bu_r, bv_t, bv_r = P._base(t, rho)
    n2 = bu * bu + bv * bv
    lam_base = 0.5 * np.log(n2)
    th_base = np.arctan2(bv, bu)
    lb_t = (bu * bu_t + bv * bv_t) / n2
    lb_r = (bu * bu_r + bv * bv_r) / n2
    tb_t = (bu * bv_t - bv * bu_t) / n2
    tb_r = (bu * bv_r - bv * bu_r) / n2
    s, s_r = _blend(rho, P.RB0, P.RB1)
    th_std = np.arctan2(rho, 1.0)
    lam_std = t + 0.5 * np.log1p(rho**2)
    ts_r = 1.0 / (1.0 + rho**2)
    ls_r = rho * ts_r
    lam_mid = (1 - s) * lam_base + s * lam_std
    th_mid = (1 - s) * th_base + s * th_std
    lm_t = (1 - s) * lb_t + s
    lm_r = (1 - s) * lb_r + s * ls_r + s_r * (lam_std - lam_base)
    tm_t = (1 - s) * tb_t
    tm_r = (1 - s) * tb_r + s * ts_r + s_r * (th_std - th_base)
    w, w_t = _blend(t, P.T2, P.T3)
    th_wall, th_wall_r = P._twist(rho)
    lam = (1 - w) * lam_mid + w * lam_std
    th = (1 - w) * th_mid + w * th_wall
    lam_t = (1 - w) * lm_t + w + w_t * (lam_std - lam_mid)
    lam_r = (1 - w) * lm_r + w * ls_r
    th_t = (1 - w) * tm_t + w_t * (th_wall - th_mid)
    th_r = (1 - w) * tm_r + w * th_wall_r
    radius = np.exp(lam)
    pu, pv = radius * np.cos(th), radius * np.sin(th)
    bu = np.where(t >= P.T1, rho - (t - 0.5) ** 2 + 1 + P.delta, bu)
    g1, f1, g1_r, f1_r = P._at_twist(rho, th_wall, th_wall_r)
    wall = (t <= P.T0) | (rho >= P.RB1)
    twisted = t >= P.T3
    core = (t <= P.T2) & (rho <= P.RB0)

    def zones(on_wall, on_twisted, on_core, polar):
        return np.where(
            wall, on_wall, np.where(twisted, on_twisted, np.where(core, on_core, polar))
        )

    et = np.exp(t)
    return (
        zones(et, et * g1, bu, pu),
        zones(et * rho, et * f1, bv, pv),
        zones(et, et * g1, bu_t, pu * lam_t - pv * th_t),
        zones(0.0, et * g1_r, bu_r, pu * lam_r - pv * th_r),
        zones(et * rho, et * f1, bv_t, pv * lam_t + pu * th_t),
        zones(et, et * f1_r, bv_r, pv * lam_r + pu * th_r),
    )


def twisted_profile_reference(P, rho):
    """(angle, angle', g1, f1, g1', f1') of the twisted profile, each part
    from its own formula: the twist sigma = kappa rho + (1 - kappa rho) s
    with s = smooth_step(rho / RB1) and its derivative from ``_blend``, the
    angle arctan(rho) - pi (1 - sigma) and the radius sqrt(1 + rho^2)."""
    from nearsymp.local_model import _blend

    rho = np.asarray(rho, dtype=float)
    s, sd = _blend(rho, 0.0, P.RB1)
    sigma = P.kappa * rho + (1.0 - P.kappa * rho) * s
    sigma_d = P.kappa * (1.0 - s) + (1.0 - P.kappa * rho) * sd
    a = np.arctan2(rho, 1.0) - math.pi * (1.0 - sigma)
    ad = 1.0 / (1.0 + rho**2) + math.pi * sigma_d
    r = np.sqrt(1.0 + rho**2)
    rd = rho / r
    return (
        a,
        ad,
        r * np.cos(a),
        r * np.sin(a),
        rd * np.cos(a) - r * ad * np.sin(a),
        rd * np.sin(a) + r * ad * np.cos(a),
    )


def spine_left_reference(P, t, k):
    """The left spine e^T0 + integral of the rate at plateau k from T0 to
    t, t clipped to [T0, T1], with both switches' Gauss-Legendre sums taken
    at every t, the plateau's included."""
    from nearsymp.local_model import SPINE_EDGE

    tc = np.clip(np.asarray(t, dtype=float), P.T0, P.T1)
    a, b = P.T0 + SPINE_EDGE, P.T1 - SPINE_EDGE
    G = math.exp(P.T0) + k * (np.clip(tc, a, b) - a)
    for lo, hi in ((P.T0, np.minimum(tc, a)), (b, np.maximum(tc, b))):
        x = 0.5 * (hi[..., None] - lo) * P._qx + 0.5 * (hi[..., None] + lo)
        G = G + 0.5 * (hi - lo) * np.sum(P._qw * P._spine_rate(x, k), axis=-1)
    return G


def lutz_point_reference(P, rho: float) -> tuple[float, float]:
    """(g1, f1) of the twisted profile at one Python float, in ``math`` with
    the builtin min and max for the smooth_step clamp and floors."""
    u = min(max(rho / P.RB1, 0.0), 1.0)
    a = math.exp(-1.0 / max(u, 1e-300))
    b = math.exp(-1.0 / max(1.0 - u, 1e-300))
    s = a / (a + b)
    sigma = P.kappa * rho + (1.0 - P.kappa * rho) * s
    angle = math.atan2(rho, 1.0) - math.pi * (1.0 - sigma)
    r = math.sqrt(1.0 + rho * rho)
    return r * math.cos(angle), r * math.sin(angle)


def contact_positivity_reference(profile, rho_max: float, samples: int, *, h: float) -> float:
    """Minimum of g f' - f g' by central differences of step h, one list of
    (f, g) tuples per stencil row turned into an array by np.array."""
    rho = np.linspace(0.0, rho_max, samples)
    rc = np.clip(rho, h, rho_max - h)
    fp = np.array([profile(v) for v in (rc + h).tolist()])
    fm = np.array([profile(v) for v in (rc - h).tolist()])
    f0 = np.array([profile(v) for v in rc.tolist()])
    df = (fp[:, 0] - fm[:, 0]) / (2 * h)
    dg = (fp[:, 1] - fm[:, 1]) / (2 * h)
    return float((f0[:, 1] * df - f0[:, 0] * dg).min())


# ---------------------------------------------------------------------------
# Hodge star on 2-forms for a general metric
# ---------------------------------------------------------------------------

# index pairs of the ordered 2-form basis dT^dx, dT^dy, dT^dlam, dx^dy,
# dx^dlam, dy^dlam, coordinates numbered 0..3 in chart order
_BASIS_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

_LEVI_CIVITA = np.zeros((4, 4, 4, 4))
for _perm in itertools.permutations(range(4)):
    _inversions = sum(a > b for a, b in itertools.combinations(_perm, 2))
    _LEVI_CIVITA[_perm] = -1.0 if _inversions % 2 else 1.0


def form_matrix_loop(w):
    """The antisymmetric 4x4 matrix of the 2-form with components w, one
    entry pair at a time."""
    W = np.zeros((4, 4))
    for c, (a, b) in zip(w, _BASIS_PAIRS):
        W[a, b] = c
        W[b, a] = -c
    return W


def hodge_star_scaled(orientation: int, w) -> tuple[float, ...]:
    """The flat star as the signed permutation of w, each component
    multiplied by the orientation."""
    c0, c1, c2, c3, c4, c5 = w
    o = orientation
    return (o * c5, o * -c4, o * c3, o * c2, o * -c1, o * c0)


def hodge_star_general(G, orientation: int, w) -> tuple[float, ...]:
    """Hodge star of the 2-form with components w for the symmetric positive
    definite 4x4 metric G: raise both indices with G^-1 and contract with
    sqrt(det G) times the Levi-Civita symbol."""
    G = np.asarray(G, dtype=float)
    W = form_matrix_loop(w)
    Ginv = np.linalg.inv(G)
    W_up = Ginv @ W @ Ginv
    star = 0.5 * np.sqrt(np.linalg.det(G)) * np.einsum("ab,abcd->cd", W_up, _LEVI_CIVITA)
    return tuple(float(orientation * star[a, b]) for a, b in _BASIS_PAIRS)


# ---------------------------------------------------------------------------
# J and the conformal factor from their defining formulas
# ---------------------------------------------------------------------------


def J_near_reference(T: float, x: float, y: float) -> np.ndarray:
    """J = Q / R: the matrix Q built first, then divided by R as an array."""
    R = math.sqrt(4.0 * T * T + x * x + y * y)
    Q = np.array(
        [
            [0.0, -y, x, 2.0 * T],
            [y, 0.0, 2.0 * T, -x],
            [-x, -2.0 * T, 0.0, -y],
            [-2.0 * T, x, y, 0.0],
        ]
    )
    return Q / R


def metric_factor_reference(T: float, x: float, y: float, eps_prime: float) -> float:
    """The conformal factor (1 - s) + s R, s = smooth_step((R - eps'/2) /
    (eps'/2)), blended at every R with no piecewise shortcut."""
    from nearsymp.local_model import smooth_step

    R = math.sqrt(4.0 * T * T + x * x + y * y)
    s = float(smooth_step((R - eps_prime / 2.0) / (eps_prime / 2.0)))
    return (1.0 - s) + s * R


# ---------------------------------------------------------------------------
# the battery's pointwise identities, one sample at a time
# ---------------------------------------------------------------------------


def smooth_step_where(u):
    """smooth_step with each clamped end selected by np.where: the
    bit-for-bit reference of the branch-free form."""
    u = np.minimum(np.maximum(u, 0.0), 1.0)
    a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
    b = np.where(u < 1, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def smooth_step_derivative_decimal(u: float) -> Decimal:
    """s'(u) = a b (1/u^2 + 1/(1 - u)^2) / (a + b)^2 with a = exp(-1/u),
    b = exp(-1/(1 - u)), in 50-digit decimal at the exact value of u."""
    with localcontext() as ctx:
        ctx.prec = 50
        u, one = Decimal(u), Decimal(1)
        a, b = (-one / u).exp(), (-one / (one - u)).exp()
        return a * b * (one / u**2 + one / (one - u) ** 2) / (a + b) ** 2


def d_omega_numeric_reference(field_fn, pt, h: float):
    """Central-difference exterior derivative on the triples (012), (013),
    (023), (123), with a fresh pair of field calls for every partial of
    every triple: 24 calls per point."""
    from nearsymp.local_model import _BASIS_PAIRS

    index = {p: i for i, p in enumerate(_BASIS_PAIRS)}
    base = list(pt.coords)

    def partial(a, b, c):
        plus, minus = list(base), list(base)
        plus[a] += h
        minus[a] -= h
        k = index[(b, c)]
        return (field_fn(tuple(plus))[k] - field_fn(tuple(minus))[k]) / (2.0 * h)

    return tuple(
        partial(a, b, c) - partial(b, a, c) + partial(c, a, b)
        for a, b, c in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    )


def pointwise_identities_loop(seed: int, samples: int) -> dict:
    """The battery's pointwise identity maxima, each identity checked on one
    sample at a time.  The samples are the battery's: its generator's first
    draw, minus the points within 1e-3 of the circle."""
    from nearsymp import local_model

    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(samples, 3))
    keep = np.sqrt(4 * pts[:, 0] ** 2 + pts[:, 1] ** 2 + pts[:, 2] ** 2) >= 1e-3
    pts = pts[keep]
    max_j2 = max_compat = max_star = max_honda = max_wedge = 0.0
    I4 = np.eye(4)
    for T, x, y in pts:
        J = np.array(local_model.J_near(T, x, y))
        max_j2 = max(max_j2, float(np.abs(J @ J + I4).max()))
        w = local_model.omega_near_Z(T, x, y)
        W = form_matrix_loop(w)
        max_compat = max(max_compat, float(np.abs(J.T @ W @ J - W).max()))
        factor = local_model.metric_g(T, x, y, 0.5)
        st = local_model.hodge_star_2form(factor, 1, w)
        max_star = max(max_star, max(abs(a - b) for a, b in zip(st, w)))
        hf = local_model.honda_form(T, x, y)
        max_honda = max(max_honda, max(abs(a - b) for a, b in zip(hf, w)))
        R2 = 4 * T * T + x * x + y * y
        max_wedge = max(max_wedge, abs(local_model.wedge_square(w) - 2 * R2))
    return {
        "samples": int(len(pts)),
        "max_J_squared_deviation": max_j2,
        "max_compatibility_deviation": max_compat,
        "max_selfdual_deviation": max_star,
        "max_honda_deviation": max_honda,
        "max_wedge_square_deviation": max_wedge,
    }


# ---------------------------------------------------------------------------
# certificate JSON through a recursive copy
# ---------------------------------------------------------------------------


def _native(obj):
    """Recursively convert numpy scalars/arrays to plain Python values."""
    if isinstance(obj, dict):
        return {k: _native(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_native(v) for v in obj]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_native(v) for v in obj.tolist()]
    return obj


def certificate_json_reference(cert) -> str:
    """A certificate's JSON text from a plain-Python copy of every field, in
    the CLI's layout: one line, sorted keys, no spaces."""
    doc = {
        "passed": cert.passed,
        "seed": cert.seed,
        "tolerances": cert.tolerances,
        "invariants": cert.invariants,
        "circle_plan": cert.circle_plan,
        "two_handles": cert.two_handles,
        "obstructions": cert.obstructions,
        "local_checks": cert.local_checks,
        "clauses": [
            {
                "name": c.name,
                "kind": c.kind,
                "passed": bool(c.passed),
                "value": c.value,
                "expected": c.expected,
                "anchor": c.anchor,
            }
            for c in cert.clauses
        ],
    }
    return json.dumps(_native(doc), sort_keys=True, separators=(",", ":")) + "\n"


def dumps_indented(doc) -> str:
    """The CLI's earlier JSON layout: a two-space indent, sorted keys and
    no NaN or Infinity."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def certificate_json_indented(cert) -> str:
    """A certificate's JSON text as the CLI wrote it in the indented
    layout: the same document, non-finite battery values as strings."""
    from nearsymp.certify_cli import _strict

    doc = vars(cert) | {
        "passed": cert.passed,
        "local_checks": _strict(cert.local_checks),
        "clauses": [
            vars(c) | {"passed": bool(c.passed), "value": _strict(c.value)}
            for c in cert.clauses
        ],
    }
    return dumps_indented(doc)
