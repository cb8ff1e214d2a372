"""Independent reference implementations used only by the tests.

Everything here is deliberately naive (exhaustive search, floating-point
eigenvalues, direct matrix multiplication) so that the trusted exact code
paths in the package are checked against a second, structurally different
computation.
"""

from __future__ import annotations

import itertools
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


def recheck_smith(A, snf) -> None:
    """Assert U*A*V = D, U and V unimodular, and the divisibility chain."""
    A = [[int(v) for v in row] for row in A]
    got = matmul(matmul(snf.U, A), snf.V)
    assert got == snf.D, f"U*A*V != D: {got} vs {snf.D}"
    if snf.U:
        assert abs(det_exact(snf.U)) == 1, "U not unimodular"
    if snf.V:
        assert abs(det_exact(snf.V)) == 1, "V not unimodular"
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
    """Does A y = b have an integer solution?  Decided through the Smith
    form: with U A V = D, solvability is divisibility of (U b) by the
    diagonal plus vanishing beyond the rank."""
    from nearsymp.topo_core import smith_normal_form

    m = len(A)
    snf = smith_normal_form(A)
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
# profile-map immersion check on the full meshgrid
# ---------------------------------------------------------------------------


def immersion_meshgrid_axes(P, grid: int, h: float = 1e-5):
    """The clipped (t, rho) meshgrids of shape (grid, grid) at which the
    immersion check evaluates phi before its +-h shifts."""
    t = np.linspace(0.0, 1.0, grid)
    r = np.linspace(0.0, P.rho_max, grid)
    T, R = np.meshgrid(t, r, indexing="ij")
    return T, R, np.clip(T, h, 1.0 - h), np.clip(R, h, P.rho_max - h)


def immersion_check_meshgrid(P, grid: int = 200, exclusion: float = 0.05, h: float = 1e-5) -> float:
    """Minimum central-difference Jacobian determinant of phi, evaluating
    phi at every one of the grid x grid points (no broadcasting)."""
    T, R, Tc, Rc = immersion_meshgrid_axes(P, grid, h)
    up, vp = P.phi(Tc + h, Rc)
    um, vm = P.phi(Tc - h, Rc)
    ur, vr = P.phi(Tc, Rc + h)
    ul, vl = P.phi(Tc, Rc - h)
    det = ((up - um) * (vr - vl) - (ur - ul) * (vp - vm)) / (4.0 * h * h)
    mask = (T - 0.5) ** 2 + R**2 > exclusion**2
    return float(np.where(mask, det, np.inf).min())
