"""Exact linear algebra layer: chain complexes, Smith form, signatures,
characteristic vectors, GF(2) solving."""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from nearsymp.topo_core import (
    ChainComplex,
    IntegerCochain,
    SymmetricForm,
    coboundary_matrix,
    euler_characteristic,
    is_characteristic,
    pairing,
    signature,
    smith_normal_form,
    solve_mod2,
)

from oracles import (
    det_exact,
    eigenvalue_signature,
    exhaustive_mod2,
    first_asymmetric_entry,
    is_characteristic_entrywise,
    matmul,
    pairing_entrywise,
    recheck_smith,
    signature_fraction,
    smith_normal_form_reference,
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
# complexes
# ---------------------------------------------------------------------------


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


@st.composite
def smith_inputs(draw):
    """1-8 x 1-8 integer matrices with zero rows, negative entries, a common
    factor and a factor per row, so that non-unit pivots, the divisibility
    fix-up and sign flips all occur."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    factor = st.sampled_from((1, 2, 3, 6))
    common = draw(factor)
    row = st.one_of(
        st.just([0] * cols), st.lists(st.integers(-9, 9), min_size=cols, max_size=cols)
    )
    matrix = []
    for _ in range(rows):
        f = common * draw(factor)
        matrix.append([f * v for v in draw(row)])
    return matrix


@settings(max_examples=300, deadline=None)
@given(smith_inputs())
def test_smith_matches_reference(A):
    # D, rank and divisors, all equal
    assert smith_normal_form_reference(A).same_form(smith_normal_form(A))


# ---------------------------------------------------------------------------
# intersection forms and signatures
# ---------------------------------------------------------------------------


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


# <+1>, <-1> and hyperbolic blocks of the b2 = 48 forms
B2_48_BLOCKS = [(48, 0, 0), (0, 0, 24), (10, 6, 16), (1, 23, 12)]


def _block_form(plus, minus, hyperbolic):
    n = plus + minus + 2 * hyperbolic
    Q = [[0] * n for _ in range(n)]
    for i in range(plus):
        Q[i][i] = 1
    for i in range(plus, plus + minus):
        Q[i][i] = -1
    for k in range(plus + minus, n, 2):
        Q[k][k + 1] = Q[k + 1][k] = 1
    return Q


def _basis_change(Q, rng):
    """U^T Q U for U = L * R with unit triangular L, R of entries in
    {-1, 0, 1}, so det U = 1."""
    n = len(Q)
    U = matmul(_unit_triangular(n, rng, True), _unit_triangular(n, rng, False))
    Ut = [list(col) for col in zip(*U)]
    return matmul(matmul(Ut, Q), U)


@pytest.mark.parametrize("plus, minus, hyperbolic", B2_48_BLOCKS)
def test_signature_and_det_at_b2_48_after_basis_change(plus, minus, hyperbolic):
    Q = _block_form(plus, minus, hyperbolic)
    n = len(Q)
    assert n == 48
    sigma, det = plus - minus, (-1) ** (minus + hyperbolic)
    assert signature(SymmetricForm(Q)) == sigma
    assert SymmetricForm(Q).det() == det
    P = SymmetricForm(_basis_change(Q, np.random.default_rng(n + 7 * minus + hyperbolic)))
    assert P.matrix != Q
    assert signature(P) == sigma
    assert P.det() == det


# dense forms with entries in the hundreds, whose reference U and V reach
# thousands of bits: a few tenths of a second each on the reference side
@settings(max_examples=4, deadline=None)
@given(st.sampled_from(B2_48_BLOCKS), st.integers(0, 2**32 - 1))
def test_smith_matches_reference_at_b2_48(blocks, seed):
    Q = _basis_change(_block_form(*blocks), np.random.default_rng(seed))
    assert smith_normal_form_reference(Q).same_form(smith_normal_form(Q))


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


@st.composite
def forms_and_vectors(draw):
    """(Q, c, a): a symmetric n x n integer matrix with n <= 12 and two
    vectors, entries up to 10^6 in size; the vectors are tuples of Python
    ints or numpy int64 arrays."""
    n = draw(st.integers(1, 12))
    entry = st.one_of(st.integers(-2, 2), st.integers(-10**6, 10**6))
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = draw(entry)
    c, a = (tuple(draw(st.lists(entry, min_size=n, max_size=n))) for _ in range(2))
    # half the time a characteristic c, when Q has one: a solution y of
    # Q y = diag(Q) mod 2 shifted by even entries
    y = solve_mod2(M, [M[i][i] for i in range(n)])
    if y is not None and draw(st.booleans()):
        c = tuple(yi + 2 * (ci // 2) for yi, ci in zip(y, c))
    if draw(st.booleans()):
        c, a = np.array(c, dtype=np.int64), np.array(a, dtype=np.int64)
    return SymmetricForm(M), c, a


@settings(max_examples=300, deadline=None)
@given(forms_and_vectors())
def test_pairing_and_characteristic_match_the_entrywise_formulas(case):
    Q, c, a = case
    assert pairing(c, a, Q) == pairing_entrywise(c, a, Q)
    assert pairing(c, c, Q) == pairing_entrywise(c, c, Q)
    assert type(pairing(c, a, Q)) is int
    characteristic = is_characteristic(c, Q)
    assert characteristic == is_characteristic_entrywise(c, Q)
    event(f"characteristic: {characteristic}")


@pytest.mark.parametrize("entry", [1.5, 1.9, -0.5, True, None, "1", float("nan")])
def test_pairings_reject_what_int_would_truncate(entry):
    Q = SymmetricForm([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="must be integers"):
        pairing([entry, 0], [1, 0], Q)
    with pytest.raises(ValueError, match="must be integers"):
        pairing([1, 0], [entry, 0], Q)
    with pytest.raises(ValueError, match="must be integers"):
        is_characteristic([entry, 1], Q)


def test_pairings_accept_integral_floats_and_numpy_ints():
    Q = SymmetricForm([[1, 0], [0, 1]])
    assert pairing([3.0, np.int32(1)], np.array([1, 2]), Q) == 5
    assert is_characteristic(np.array([1, 3], dtype=np.int16), Q)


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


def test_chain_complex_rejects_a_boundary_of_the_wrong_shape():
    # d2 maps 1 two-cell to 2 one-cells, so it is 2 x 1, not 1 x 1
    with pytest.raises(ValueError, match=r"boundary\[2\] must be 2 x 1"):
        ChainComplex((1, 2, 1, 0, 0), boundary={2: [[1]]})
    with pytest.raises(ValueError, match=r"boundary\[2\] must be 2 x 1"):
        ChainComplex((1, 2, 1, 0, 0), boundary={2: [[1], [0, 1]]})


@pytest.mark.parametrize("key", [2.7, 9, 0, -1, True, "2", None])
def test_chain_complex_rejects_a_boundary_degree_outside_1_to_4(key):
    # int() read the key 2.7 as 2, and the key 9 was kept unused
    with pytest.raises(ValueError, match=f"boundary degree must be an integer 1..4, got {key!r}"):
        ChainComplex((1, 2, 1, 0, 0), boundary={key: [[1], [0]]})


def test_chain_complex_converts_integral_boundary_degrees():
    C = ChainComplex((1, 2, 1, 0, 0), boundary={2.0: [[1], [0]], np.int64(1): [[0, 0]]})
    assert C.boundary == {1: [[0, 0]], 2: [[1], [0]], 3: [[]], 4: []}
    assert all(type(k) is int for k in C.boundary)


def test_coboundary_degree_out_of_range():
    with pytest.raises(ValueError):
        coboundary_matrix(ChainComplex((1, 0, 0, 0, 0)), 4)


# ---------------------------------------------------------------------------
# symmetric form validation
# ---------------------------------------------------------------------------


def test_symmetric_form_rejects_asymmetry():
    with pytest.raises(ValueError):
        SymmetricForm([[0, 1], [2, 0]])


@settings(max_examples=200, deadline=None)
@given(symmetric_forms(), st.data())
def test_asymmetric_form_names_the_first_entry_in_row_major_order(M, data):
    n = len(M)
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        M[i][j] += data.draw(st.integers(1, 5))
    first = first_asymmetric_entry(M)
    if first is None:
        assert SymmetricForm(M).matrix == M
        return
    i, j = first
    with pytest.raises(ValueError) as err:
        SymmetricForm(M)
    assert str(err.value) == (
        f"form matrix not symmetric at ({i},{j}): {M[i][j]} != {M[j][i]}"
    )


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


@pytest.mark.parametrize("entry", [1.5, 2.9, True, None])
def test_cochains_and_mod2_solving_reject_what_int_would_truncate(entry):
    # int() made IntegerCochain((1.5, True, 2.9)) read (1, 1, 2) and
    # solve_mod2([[1]], [1.5]) return [1]
    with pytest.raises(ValueError, match="must be integers"):
        IntegerCochain((1, entry, 3))
    with pytest.raises(ValueError, match="must be integers"):
        solve_mod2([[1, 0], [0, entry]], [1, 0])
    with pytest.raises(ValueError, match="must be integers"):
        solve_mod2([[1, 0], [0, 1]], [1, entry])


def test_cochains_and_mod2_solving_accept_integral_floats_and_numpy_ints():
    values = IntegerCochain((1, 2.0, np.int64(-3))).values
    assert values == (1, 2, -3) and all(type(v) is int for v in values)
    assert solve_mod2([[1.0, 0], [0, np.int8(3)]], [np.int64(5), 2.0]) == [1, 0]


def test_symmetric_form_determinant():
    assert SymmetricForm([[2, 1], [1, 1]]).det() == 1
    assert SymmetricForm(E8).det() == 1
