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


def _as_int_vector(v) -> list[int]:
    """Copy a sequence (or numpy array) into a list of Python ints by the
    rule of ``as_int``; Python ints, the common case, pass as is."""
    return [x if type(x) is int else as_int(x) for x in v]


def _as_int_matrix(A) -> IntMatrix:
    """``_as_int_vector`` of each row of a nested sequence or numpy array."""
    return [_as_int_vector(row) for row in A]


def _shape(A: IntMatrix) -> tuple[int, int]:
    return (len(A), len(A[0]) if A else 0)


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

    Rows are scaled lazily.  A row whose pivot-column entry f is 0 would
    only be multiplied by d/prev, so it is left as it is: ``at[a]`` records
    the pivot value at which row a's stored entries were current, and its
    true entries are the stored ones times prev/at[a], an exact division
    because both are minors.  Each pivot brings current only the pivot row
    and the rows with f != 0, updates the latter among themselves, and
    scales them by d/prev on the other active columns; on sparse forms
    most rows are not touched at most pivots.
    """
    M = [list(row) for row in matrix]
    at = [1] * len(M)
    active = list(range(len(M)))
    sig, prev = 0, 1

    def current(a):  # bring row a's active entries to the scale prev
        if (s := at[a]) != prev:
            Ma = M[a]
            for b in active:
                if v := Ma[b]:
                    Ma[b] = v * prev // s
            at[a] = prev

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
            current(p)
            current(j)
            Mp, Mj = M[p], M[j]
            for b in active:
                Mp[b] += Mj[b]
            for a in active:
                M[a][p] += M[a][j]
        # f is read from column p, so the rows it selects are brought
        # current while p is still active
        hit = [a for a in active if M[a][p]]
        for a in hit:
            current(a)
        hit.remove(p)
        active.remove(p)
        Mp = M[p]
        d = Mp[p]
        sig += 1 if (d > 0) == (prev > 0) else -1
        for k, a in enumerate(hit):
            Ma = M[a]
            f = Ma[p]
            for b in hit[k:]:
                v = (d * Ma[b] - f * Mp[b]) // prev
                Ma[b] = v
                M[b][a] = v
        if d != prev and len(hit) < len(active):
            rest = [b for b in active if not M[b][p]]
            for a in hit:
                Ma = M[a]
                for b in rest:
                    if v := Ma[b]:
                        Ma[b] = v * d // prev
        for a in hit:
            at[a] = d
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
        if any(n < 0 for n in self.cells_per_degree):
            raise ValueError(
                f"cell counts must be non-negative, got {list(self.cells_per_degree)}"
            )
        cells = self.cells_per_degree
        bnd = {}
        for key, v in self.boundary.items():
            if type(key) is bool or key not in range(1, 5):
                raise ValueError(f"boundary degree must be an integer 1..4, got {key!r}")
            k = as_int(key)
            M = _as_int_matrix(v)
            if len(M) != cells[k - 1] or any(len(row) != cells[k] for row in M):
                raise ValueError(
                    f"boundary[{k}] must be {cells[k - 1]} x {cells[k]}, "
                    f"got {len(M)} rows of lengths {[len(row) for row in M]}"
                )
            bnd[k] = M
        # materialize zero matrices for degrees the caller omitted
        for k in range(1, 5):
            if k not in bnd:
                bnd[k] = [[0] * cells[k] for _ in range(cells[k - 1])]
        object.__setattr__(self, "boundary", bnd)


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
        if [list(col) for col in zip(*M)] != M:
            # the first asymmetric entry in row-major order
            i, j = next((i, j) for i in range(n) for j in range(n) if M[i][j] != M[j][i])
            raise ValueError(
                f"form matrix not symmetric at ({i},{j}): {M[i][j]} != {M[j][i]}"
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
        object.__setattr__(self, "values", tuple(_as_int_vector(self.values)))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SmithDecomposition:
    """The diagonal form D of a Smith decomposition U*A*V = D; the
    unimodular U and V are not kept."""

    D: IntMatrix
    rank: int
    divisors: tuple[int, ...]


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def euler_characteristic(C: ChainComplex) -> int:
    return sum((-1) ** k * n for k, n in enumerate(C.cells_per_degree))


def smith_normal_form(A) -> SmithDecomposition:
    """Smith normal form D = U*A*V of A, for some unimodular U, V.

    Pivot rule: the smallest-magnitude nonzero entry of the working
    submatrix, ties broken in row-major order, so the output is
    deterministic.  No nonzero entry is smaller than a unit, so the scan
    stops at the first one; on the unimodular forms of the pipeline nearly
    every pivot is a unit.
    """
    M = _as_int_matrix(A)
    m, n = _shape(M)

    t = 0
    while t < min(m, n):
        best, size = None, 0
        for i in range(t, m):
            for j, v in enumerate(M[i][t:], t):
                if v and (best is None or abs(v) < size):
                    best, size = (i, j), abs(v)
                    if size == 1:
                        break
            if size == 1:
                break
        if best is None:
            break
        i, j = best
        if i != t:
            M[i], M[t] = M[t], M[i]
        if j != t:
            for row in M:
                row[j], row[t] = row[t], row[j]

        # a row operation reads only the pivot row, and a column operation
        # only the pivot column, which none of them changes: so the column
        # quotients can all be taken before the first column operation
        p = M[t][t]
        for i in range(t + 1, m):
            if q := M[i][t] // p:
                M[i] = [a - q * b for a, b in zip(M[i], M[t])]
        col_q = [(j, q) for j in range(t + 1, n) if (q := M[t][j] // p)]
        for row in M:
            if r := row[t]:
                for j, q in col_q:
                    row[j] -= q * r
        if any(M[i][t] for i in range(t + 1, m)) or any(M[t][t + 1:]):
            continue  # remainders became new, smaller pivot candidates

        # enforce the divisibility chain; a unit divides everything
        if size != 1:
            bad = next(
                (i for i in range(t + 1, m) if any(v % p for v in M[i][t + 1:])), None
            )
            if bad is not None:
                M[t] = [a + b for a, b in zip(M[t], M[bad])]
                continue
        if p < 0:
            M[t] = [-v for v in M[t]]
        t += 1

    divisors = tuple(M[i][i] for i in range(min(m, n)) if M[i][i] != 0)
    return SmithDecomposition(D=M, rank=len(divisors), divisors=divisors)


def signature(Q: SymmetricForm) -> int:
    """Signature by exact fraction-free symmetric elimination over the
    integers (see ``_symmetric_bareiss``)."""
    return _symmetric_bareiss(Q.matrix)[0]


def pairing(c: Sequence[int], a: Sequence[int], Q: SymmetricForm) -> int:
    """The pairing c^T Q a; with a = c this is the square of the class c.
    Vector entries follow the rule of ``as_int``.  Q is symmetric, so
    c^T Q a = a^T Q c, and the outer sum runs over whichever vector has
    more zeros: a surface class has a few nonzero entries, c is dense."""
    if len(c) != Q.dim or len(a) != Q.dim:
        raise ValueError(
            f"dimension mismatch: vectors {len(c)},{len(a)} vs form {Q.dim}"
        )
    c, a = _as_int_vector(c), _as_int_vector(a)
    if a.count(0) > c.count(0):
        c, a = a, c
    return sum(
        ci * sum(map(operator.mul, row, a))
        for ci, row in zip(c, Q.matrix)
        if ci
    )


def is_characteristic(c: Sequence[int], Q: SymmetricForm) -> bool:
    """True iff c pairs with every basis vector like that vector squares, mod 2."""
    if len(c) != Q.dim:
        raise ValueError(f"dimension mismatch: vector {len(c)} vs form {Q.dim}")
    c = _as_int_vector(c)
    # (Qc)_i reads row i, which is column i of the symmetric Q
    return all(
        (sum(map(operator.mul, row, c)) - row[i]) % 2 == 0
        for i, row in enumerate(Q.matrix)
    )


def solve_mod2(A, b) -> Optional[list[int]]:
    """One solution of A y = b over GF(2), or None if b is outside the image.

    Absence of a solution is a value, not an error.
    """
    M = [[v % 2 for v in row] for row in _as_int_matrix(A)]
    rhs = [v % 2 for v in _as_int_vector(b)]
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
