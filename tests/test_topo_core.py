"""Exact linear algebra layer: chain complexes, Smith form, homology,
signatures, characteristic vectors, GF(2) solving."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearsymp.topo_core import (
    ChainComplex,
    SymmetricForm,
    coboundary_matrix,
    euler_characteristic,
    has_odd_torsion_only,
    homology,
    intersection_form_from_link,
    is_characteristic,
    pairing,
    signature,
    smith_normal_form,
    solve_mod2,
    validate_complex,
)

from oracles import (
    det_exact,
    eigenvalue_signature,
    exhaustive_mod2,
    matmul,
    recheck_smith,
    signature_fraction,
)

E8 = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


# ---------------------------------------------------------------------------
# complexes and validation
# ---------------------------------------------------------------------------


def test_empty_complex_is_valid():
    C = ChainComplex(cells_per_degree=(0, 0, 0, 0, 0))
    assert validate_complex(C).valid


def test_composable_boundaries_valid():
    C = ChainComplex(
        cells_per_degree=(1, 1, 1, 0, 0),
        boundary={1: [[0]], 2: [[2]]},
    )
    assert validate_complex(C).valid


def test_nonzero_composite_boundary_reported():
    C = ChainComplex(
        cells_per_degree=(1, 1, 1, 0, 0),
        boundary={1: [[1]], 2: [[1]]},
    )
    report = validate_complex(C)
    assert not report.valid
    assert any("composite" in v for v in report.violations)


def test_shape_mismatch_reported():
    C = ChainComplex(
        cells_per_degree=(1, 2, 1, 0, 0),
        boundary={1: [[0]], 2: [[1], [0]]},
    )
    report = validate_complex(C)
    assert not report.valid
    assert any("shape" in v for v in report.violations)


def test_euler_characteristic_values():
    assert euler_characteristic(ChainComplex((1, 0, 3, 0, 1))) == 5
    assert euler_characteristic(ChainComplex((1, 0, 1, 0, 1))) == 3
    assert euler_characteristic(ChainComplex((1, 2, 1, 2, 1))) == -1


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_smith_diag_2_3():
    snf = smith_normal_form([[2, 0], [0, 3]])
    assert snf.divisors == (1, 6)
    assert snf.rank == 2
    recheck_smith([[2, 0], [0, 3]], snf)


def test_smith_zero_matrix():
    snf = smith_normal_form([[0, 0], [0, 0]])
    assert snf.rank == 0
    assert snf.divisors == ()
    recheck_smith([[0, 0], [0, 0]], snf)


def test_smith_identity_1x1():
    snf = smith_normal_form([[1]])
    assert snf.divisors == (1,)
    recheck_smith([[1]], snf)


def test_smith_deterministic():
    A = [[4, 6, 2], [2, 8, 4]]
    first = smith_normal_form(A)
    second = smith_normal_form(A)
    assert first == second


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_smith_transforms_recheck(rows, cols, seed):
    rng = np.random.default_rng(seed)
    A = rng.integers(-9, 10, size=(rows, cols)).tolist()
    snf = smith_normal_form(A)
    recheck_smith(A, snf)


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def test_homology_sphere_like():
    C = ChainComplex((1, 0, 0, 0, 1))
    assert homology(C, 0) == (1, [])
    assert homology(C, 2) == (0, [])
    assert homology(C, 4) == (1, [])


def test_homology_rank_three_middle():
    C = ChainComplex((1, 0, 3, 0, 1))
    assert homology(C, 2) == (3, [])


def test_homology_torsion_two():
    C = ChainComplex(
        cells_per_degree=(1, 1, 1, 0, 0),
        boundary={1: [[0]], 2: [[2]]},
    )
    assert homology(C, 1) == (0, [2])
    assert not has_odd_torsion_only(C, 1)


def test_homology_torsion_odd():
    C = ChainComplex(
        cells_per_degree=(1, 1, 1, 0, 0),
        boundary={1: [[0]], 2: [[3]]},
    )
    assert homology(C, 1) == (0, [3])
    assert has_odd_torsion_only(C, 1)


def test_homology_degree_out_of_range():
    with pytest.raises(ValueError):
        homology(ChainComplex((1, 0, 0, 0, 0)), 5)


# ---------------------------------------------------------------------------
# intersection forms and signatures
# ---------------------------------------------------------------------------


def test_form_from_unlinked_plus_one_framings():
    Q = intersection_form_from_link([1, 1, 1], [[0] * 3 for _ in range(3)])
    assert Q.matrix == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_form_from_hopf_pair():
    Q = intersection_form_from_link([0, 0], [[0, 1], [1, 0]])
    assert Q.matrix == [[0, 1], [1, 0]]


def test_form_single_component():
    assert intersection_form_from_link([5], [[0]]).matrix == [[5]]


def test_form_rejects_nonzero_linking_diagonal():
    with pytest.raises(ValueError):
        intersection_form_from_link([0, 0], [[1, 0], [0, 0]])


def test_form_rejects_asymmetric_linkings():
    with pytest.raises(ValueError):
        intersection_form_from_link([0, 0], [[0, 1], [2, 0]])


def test_signature_positive_diagonal():
    assert signature(SymmetricForm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3


def test_signature_hyperbolic_block():
    assert signature(SymmetricForm([[0, 1], [1, 0]])) == 0


def test_signature_e8():
    assert signature(SymmetricForm(E8)) == 8
    assert eigenvalue_signature(E8) == 8


def test_signature_degenerate_block():
    assert signature(SymmetricForm([[0, 0], [0, 0]])) == 0
    assert signature(SymmetricForm([[1, 0], [0, 0]])) == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_signature_matches_eigenvalue_oracle(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.integers(-9, 10, size=(n, n))
    M = (M + M.T).tolist()
    assert signature(SymmetricForm(M)) == eigenvalue_signature(M)


@st.composite
def symmetric_forms(draw):
    """Symmetric integer matrices with n <= 10 and entries up to 1000 in
    size, optionally with a zero diagonal and optionally singular (two
    equal rows, made by the congruence that sends e_r to e_s)."""
    n = draw(st.integers(1, 10))
    entry = st.one_of(st.integers(-2, 2), st.integers(-1000, 1000))
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = draw(entry)
    if draw(st.booleans()):
        for i in range(n):
            M[i][i] = 0
    if n > 1 and draw(st.booleans()):
        r, s = draw(st.permutations(range(n)))[:2]
        idx = [s if k == r else k for k in range(n)]
        M = [[M[a][b] for b in idx] for a in idx]
    return M


@settings(max_examples=300, deadline=None)
@given(symmetric_forms())
def test_signature_and_det_match_fraction_elimination(M):
    Q = SymmetricForm(M)
    assert signature(Q) == signature_fraction(M)
    assert Q.det() == det_exact(M)


def _unit_triangular(n, rng, lower):
    return [
        [1 if i == j else (int(rng.integers(-1, 2)) if (i > j) == lower else 0)
         for j in range(n)]
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "plus, minus, hyperbolic", [(48, 0, 0), (0, 0, 24), (10, 6, 16), (1, 23, 12)]
)
def test_signature_and_det_at_b2_48_after_basis_change(plus, minus, hyperbolic):
    n = plus + minus + 2 * hyperbolic
    assert n == 48
    Q = [[0] * n for _ in range(n)]
    for i in range(plus):
        Q[i][i] = 1
    for i in range(plus, plus + minus):
        Q[i][i] = -1
    for k in range(plus + minus, n, 2):
        Q[k][k + 1] = Q[k + 1][k] = 1
    sigma, det = plus - minus, (-1) ** (minus + hyperbolic)
    assert signature(SymmetricForm(Q)) == sigma
    assert SymmetricForm(Q).det() == det
    # U = L * R with unit triangular L, R of entries in {-1, 0, 1}: det U = 1
    rng = np.random.default_rng(n + 7 * minus + hyperbolic)
    U = matmul(_unit_triangular(n, rng, True), _unit_triangular(n, rng, False))
    Ut = [list(col) for col in zip(*U)]
    P = SymmetricForm(matmul(matmul(Ut, Q), U))
    assert P.matrix != Q
    assert signature(P) == sigma
    assert P.det() == det


# ---------------------------------------------------------------------------
# pairings and characteristic vectors
# ---------------------------------------------------------------------------


def test_pairing_values():
    Q = SymmetricForm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert pairing((1, 3, 3), (1, 3, 3), Q) == 19
    assert pairing((1, 3, 3), (1, 0, 0), Q) == 1
    assert pairing((1, 3, 3), (0, 0, 0), Q) == 0


def test_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        pairing((1, 2), (1, 2, 3), SymmetricForm([[1, 0], [0, 1]]))


def test_characteristic_odd_diagonal():
    Q = SymmetricForm([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert is_characteristic((1, 3, 3), Q)
    assert not is_characteristic((0, 0, 0), Q)


def test_characteristic_even_form():
    Q = SymmetricForm([[0, 1], [1, 0]])
    assert is_characteristic((2, 2), Q)
    assert is_characteristic((0, 0), Q)
    assert not is_characteristic((1, 0), Q)


def test_characteristic_dimension_mismatch():
    with pytest.raises(ValueError):
        is_characteristic((1,), SymmetricForm([[1, 0], [0, 1]]))


# ---------------------------------------------------------------------------
# GF(2) solving and coboundaries
# ---------------------------------------------------------------------------


def test_solve_mod2_identity():
    assert solve_mod2([[1, 0], [0, 1]], [1, 0]) == [1, 0]


def test_solve_mod2_column():
    assert solve_mod2([[0], [1]], [0, 1]) == [1]


def test_solve_mod2_none_for_zero_matrix():
    assert solve_mod2([[0, 0], [0, 0]], [1, 0]) is None


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_solve_mod2_matches_exhaustive(rows, cols, seed):
    rng = np.random.default_rng(seed)
    A = rng.integers(0, 2, size=(rows, cols)).tolist()
    b = rng.integers(0, 2, size=rows).tolist()
    y = solve_mod2(A, b)
    brute = exhaustive_mod2(A, b)
    if y is None:
        assert brute is None
    else:
        assert all(
            sum(A[i][j] * y[j] for j in range(cols)) % 2 == b[i] % 2
            for i in range(rows)
        )
        assert brute is not None


def test_coboundary_is_transpose():
    C = ChainComplex(
        cells_per_degree=(1, 1, 2, 0, 0),
        boundary={1: [[0]], 2: [[0, 1]]},
    )
    assert coboundary_matrix(C, 1) == [[0], [1]]


def test_coboundary_zero():
    C = ChainComplex((1, 2, 2, 0, 0))
    assert coboundary_matrix(C, 1) == [[0, 0], [0, 0]]


def test_coboundary_degree_out_of_range():
    with pytest.raises(ValueError):
        coboundary_matrix(ChainComplex((1, 0, 0, 0, 0)), 4)


# ---------------------------------------------------------------------------
# symmetric form validation
# ---------------------------------------------------------------------------


def test_symmetric_form_rejects_asymmetry():
    with pytest.raises(ValueError):
        SymmetricForm([[0, 1], [2, 0]])


def test_symmetric_form_rejects_nonsquare():
    with pytest.raises(ValueError):
        SymmetricForm([[0, 1]])


@pytest.mark.parametrize("entry", [1.7, -0.5, True, "1", None, float("nan"), float("inf")])
def test_integer_entries_reject_what_int_would_truncate_or_parse(entry):
    with pytest.raises(ValueError, match="must be integers"):
        SymmetricForm([[entry, 0], [0, 1]])
    with pytest.raises(ValueError, match="must be integers"):
        ChainComplex((1, 0, entry, 0, 1))


def test_integer_entries_accept_integral_floats_and_numpy_ints():
    Q = SymmetricForm(np.array([[2, 1], [1, 1]]))
    assert SymmetricForm([[2.0, 1], [1.0, np.int64(1)]]).matrix == Q.matrix == [[2, 1], [1, 1]]
    assert all(type(v) is int for row in Q.matrix for v in row)
    assert ChainComplex((1.0, 0, np.int32(3), 0, 1)).cells_per_degree == (1, 0, 3, 0, 1)


def test_symmetric_form_determinant():
    assert SymmetricForm([[2, 1], [1, 1]]).det() == 1
    assert SymmetricForm(E8).det() == 1
