"""Exact integer and mod-2 linear algebra over cellular chain complexes.

Everything here is exact: matrices are Python-integer valued, the signature
and determinant come from one fraction-free (Bareiss) symmetric elimination
over the integers, and mod-2 solving runs over GF(2).  No floating point
enters any trusted path.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

IntMatrix = list[list[int]]


def as_int(v) -> int:
    """An integer entry as a Python int.  Integers (Python or numpy) and
    integral floats convert; a fractional float, a bool, a string or any
    other value raises ValueError, where int() would truncate or parse it."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if not isinstance(v, (bool, float)):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ValueError(f"entries must be integers, got {v!r}")


def _as_int_matrix(A) -> IntMatrix:
    """Copy input (nested sequence / numpy array) into lists of Python ints
    by the rule of ``as_int``; Python ints, the common case, pass as is."""
    return [[v if type(v) is int else as_int(v) for v in row] for row in A]


def _shape(A: IntMatrix) -> tuple[int, int]:
    return (len(A), len(A[0]) if A else 0)


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _matmul(A: IntMatrix, B: IntMatrix) -> IntMatrix:
    ra, ca = _shape(A)
    rb, cb = _shape(B)
    if ca != rb:
        raise ValueError(f"shape mismatch in product: {ra}x{ca} times {rb}x{cb}")
    return [
        [sum(A[i][k] * B[k][j] for k in range(ca)) for j in range(cb)]
        for i in range(ra)
    ]


def _transpose(A: IntMatrix) -> IntMatrix:
    r, c = _shape(A)
    return [[A[i][j] for i in range(r)] for j in range(c)]


def _symmetric_bareiss(matrix: IntMatrix) -> tuple[int, int]:
    """Signature and determinant of a symmetric integer matrix.

    Fraction-free symmetric elimination (Bareiss 1968) over Python ints.
    Pivoting on a nonzero diagonal entry d updates the remaining block by
    ``(d*M[a][b] - M[a][p]*M[p][b]) // prev``; every entry is then a minor
    of a matrix integrally congruent to the input, so the division is exact.
    The Schur pivot is d/prev, whose sign is the pivot's contribution to the
    signature.  When the remaining diagonal is zero, the unimodular
    congruence e_i <- e_i + e_j on the first nonzero pair i < j makes
    M[i][i] = 2*M[i][j] nonzero; congruences change neither the signature
    nor the determinant.  A zero remaining block contributes 0 to the
    signature and makes the determinant 0.
    """
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


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainComplex:
    """Cellular chain complex of a handle decomposition, degrees 0..4.

    ``boundary[k]`` is the integer matrix of the boundary map from k-cells to
    (k-1)-cells, shape (cells_per_degree[k-1], cells_per_degree[k]).
    """

    cells_per_degree: tuple[int, int, int, int, int]
    boundary: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "cells_per_degree", tuple(as_int(n) for n in self.cells_per_degree)
        )
        if len(self.cells_per_degree) != 5:
            raise ValueError(
                "cells_per_degree needs one count for each degree 0..4, "
                f"got {len(self.cells_per_degree)}"
            )
        bnd = {int(k): _as_int_matrix(v) for k, v in self.boundary.items()}
        # materialize zero matrices for degrees the caller omitted
        for k in range(1, 5):
            if k not in bnd:
                bnd[k] = [
                    [0] * self.cells_per_degree[k]
                    for _ in range(self.cells_per_degree[k - 1])
                ]
        object.__setattr__(self, "boundary", bnd)

    def d(self, k: int) -> IntMatrix:
        return self.boundary[k]


@dataclass(frozen=True)
class SymmetricForm:
    """Square symmetric integer matrix."""

    matrix: IntMatrix

    def __post_init__(self):
        M = _as_int_matrix(self.matrix)
        object.__setattr__(self, "matrix", M)
        n = len(M)
        if any(len(row) != n for row in M):
            raise ValueError(
                f"form matrix must be square, got {n} rows of lengths "
                f"{[len(row) for row in M]}"
            )
        for i in range(n):
            for j in range(n):
                if M[i][j] != M[j][i]:
                    raise ValueError(
                        f"form matrix not symmetric at ({i},{j}): "
                        f"{M[i][j]} != {M[j][i]}"
                    )

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def det(self) -> int:
        return _symmetric_bareiss(self.matrix)[1]


@dataclass(frozen=True)
class IntegerCochain:
    """Integer 2-cochain: one value per 2-cell of a chain complex."""

    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SmithDecomposition:
    U: IntMatrix
    D: IntMatrix
    V: IntMatrix
    rank: int
    divisors: tuple[int, ...]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[str, ...]


def validate_complex(C: ChainComplex) -> ValidationReport:
    """Check matrix shapes and that consecutive boundaries compose to zero."""
    violations: list[str] = []
    counts = C.cells_per_degree
    for k in range(1, 5):
        M = C.boundary[k]
        want = (counts[k - 1], counts[k])
        got = _shape(M) if (M or counts[k] == 0) else (counts[k - 1], 0)
        rows = len(M)
        cols = len(M[0]) if M else 0
        if counts[k - 1] == 0:
            rows_ok = rows == 0 or all(len(r) == counts[k] for r in M)
        else:
            rows_ok = rows == counts[k - 1]
        if not rows_ok or (rows and cols != counts[k]):
            violations.append(
                f"boundary[{k}] has shape {(rows, cols)}, expected {want}"
            )
    if not violations:
        for k in range(2, 5):
            if counts[k] == 0 or counts[k - 2] == 0:
                continue
            P = _matmul(C.boundary[k - 1], C.boundary[k])
            for i, row in enumerate(P):
                for j, v in enumerate(row):
                    if v != 0:
                        violations.append(
                            f"boundary composite nonzero in degree {k}: "
                            f"entry ({i},{j}) = {v}"
                        )
    return ValidationReport(valid=not violations, violations=tuple(violations))


def euler_characteristic(C: ChainComplex) -> int:
    return sum((-1) ** k * n for k, n in enumerate(C.cells_per_degree))


def smith_normal_form(A) -> SmithDecomposition:
    """Smith normal form U*A*V = D with unimodular U, V.

    Pivot rule: the smallest-magnitude nonzero entry of the working
    submatrix, ties broken in row-major order, so the output is
    deterministic.
    """
    M = _as_int_matrix(A)
    m, n = _shape(M)
    U = _identity(m)
    V = _identity(n)

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
        # row_dst += mult * row_src
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
        # smallest-magnitude nonzero entry, row-major tie-break
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
            continue  # remainders became new, smaller pivot candidates

        # enforce the divisibility chain
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
    return SmithDecomposition(U=U, D=M, V=V, rank=len(divisors), divisors=divisors)


def _rank(A: IntMatrix) -> int:
    if not A or not A[0]:
        return 0
    return smith_normal_form(A).rank


def homology(C: ChainComplex, k: int) -> tuple[int, list[int]]:
    """Rank and torsion coefficients of H_k of the complex."""
    if not 0 <= k <= 4:
        raise ValueError(f"degree {k} out of range 0..4")
    n_k = C.cells_per_degree[k]
    rank_in = _rank(C.boundary[k]) if k >= 1 else 0
    snf_out = (
        smith_normal_form(C.boundary[k + 1]) if k + 1 <= 4 else None
    )
    rank_out = snf_out.rank if snf_out else 0
    betti = n_k - rank_in - rank_out
    torsion = [d for d in (snf_out.divisors if snf_out else ()) if d > 1]
    return betti, torsion


def has_odd_torsion_only(C: ChainComplex, k: int) -> bool:
    """Predicate: H_k has no 2-torsion (hypothesis for the gluing clause)."""
    _, torsion = homology(C, k)
    return all(d % 2 == 1 for d in torsion)


def intersection_form_from_link(
    framings: Sequence[int], linkings: IntMatrix
) -> SymmetricForm:
    """Intersection form of a 2-handlebody on a framed link without 1-handles.

    Diagonal = framings; off-diagonal = pairwise linking numbers.  The
    ``linkings`` matrix must be symmetric with zero diagonal.
    """
    n = len(framings)
    L = _as_int_matrix(linkings)
    if _shape(L) != (n, n):
        raise ValueError("linkings shape does not match number of components")
    for i in range(n):
        if L[i][i] != 0:
            raise ValueError(f"linkings diagonal must be zero, entry {i} is {L[i][i]}")
        for j in range(n):
            if L[i][j] != L[j][i]:
                raise ValueError(f"linkings not symmetric at ({i},{j})")
    Q = [[L[i][j] if i != j else int(framings[i]) for j in range(n)] for i in range(n)]
    return SymmetricForm(matrix=Q)


def signature(Q: SymmetricForm) -> int:
    """Signature by exact fraction-free symmetric elimination over the
    integers (see ``_symmetric_bareiss``)."""
    return _symmetric_bareiss(Q.matrix)[0]


def pairing(c: Sequence[int], a: Sequence[int], Q: SymmetricForm) -> int:
    """The pairing c^T Q a; with a = c this is the square of the class c."""
    if len(c) != Q.dim or len(a) != Q.dim:
        raise ValueError(
            f"dimension mismatch: vectors {len(c)},{len(a)} vs form {Q.dim}"
        )
    a = [int(v) for v in a]
    return sum(
        int(ci) * sum(q * aj for q, aj in zip(row, a))
        for ci, row in zip(c, Q.matrix)
        if ci
    )


def is_characteristic(c: Sequence[int], Q: SymmetricForm) -> bool:
    """True iff c pairs with every basis vector like that vector squares, mod 2."""
    if len(c) != Q.dim:
        raise ValueError(f"dimension mismatch: vector {len(c)} vs form {Q.dim}")
    for i in range(Q.dim):
        ce = sum(int(c[k]) * Q.matrix[k][i] for k in range(Q.dim))
        if (ce - Q.matrix[i][i]) % 2 != 0:
            return False
    return True


def solve_mod2(A, b) -> Optional[list[int]]:
    """One solution of A y = b over GF(2), or None if b is outside the image.

    Absence of a solution is a value, not an error.
    """
    M = [[int(v) % 2 for v in row] for row in A]
    rhs = [int(v) % 2 for v in b]
    m = len(M)
    n = len(M[0]) if M else 0
    if len(rhs) != m:
        raise ValueError(f"rhs length {len(rhs)} does not match {m} rows")
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n):
        sel = next((r for r in range(row, m) if M[r][col]), None)
        if sel is None:
            continue
        M[row], M[sel] = M[sel], M[row]
        rhs[row], rhs[sel] = rhs[sel], rhs[row]
        for r in range(m):
            if r != row and M[r][col]:
                M[r] = [(x + y) % 2 for x, y in zip(M[r], M[row])]
                rhs[r] = (rhs[r] + rhs[row]) % 2
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if rhs[r] % 2:
            return None
    y = [0] * n
    for r, c in pivots:
        y[c] = rhs[r]
    return y


def coboundary_matrix(C: ChainComplex, k: int) -> IntMatrix:
    """Matrix of the coboundary from k-cochains to (k+1)-cochains."""
    if not 0 <= k <= 3:
        raise ValueError(f"degree {k} out of range 0..3")
    return _transpose(C.boundary[k + 1])
