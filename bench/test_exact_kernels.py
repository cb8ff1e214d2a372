"""Benchmark cases for the exact kernels and the exact pipeline.

    PYTHONPATH=src python -m pytest bench --benchmark-only --benchmark-json BENCH_<n>.json

With ``--benchmark-disable`` each case runs once as a plain test, which
checks its result.  ``bench/`` lies outside the ``testpaths`` of
pyproject.toml, so the tier-1 run does not collect it.  Every input is built
here from fixed seeds, so two trees run the same cases on the same inputs.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from nearsymp.certify_cli import certify, parse_input
from nearsymp.contact_kit import LegendrianState, plan_stabilization
from nearsymp.topo_core import SymmetricForm, _symmetric_bareiss, pairing, smith_normal_form

B2_48 = Path(__file__).resolve().parent.parent / "tests" / "data" / "b2_48.json"

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
H = [[0, 1], [1, 0]]
SIZES = (4, 16, 48, 96)
DENSE_SIZES = (16, 40, 64)
TARGETS = (10, 300, 10**6)


def sparse_form(b2: int) -> tuple[list[list[int]], int]:
    """(Q, sigma): b2 // 16 copies of E8, then equal numbers of <+1>, <-1>
    and H blocks, after a permutation and two layers of elementary
    congruences e_j <- e_j +- e_i on disjoint pairs, drawn from a generator
    keyed by b2 alone.  The determinant is 1: there are as many <-1> blocks
    as H blocks, and those are the blocks of determinant -1."""
    e8 = b2 // 16
    k = (b2 - 8 * e8) // 4
    blocks = [E8] * e8 + [[[1]]] * k + [[[-1]]] * k + [H] * k
    Q = [[0] * b2 for _ in range(b2)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            Q[at + i][at:at + len(row)] = row
        at += len(block)
    rng = random.Random(f"bench-form:{b2}")
    perm = list(range(b2))
    rng.shuffle(perm)
    Q = [[Q[r][s] for s in perm] for r in perm]
    for _ in range(2):
        order = list(range(b2))
        rng.shuffle(order)
        for i, j in zip(order[0::2], order[1::2]):
            a = rng.choice((-1, 1))
            for row in Q:  # column j += a * column i
                row[j] += a * row[i]
            Q[j] = [x + a * y for x, y in zip(Q[j], Q[i])]  # row j += a * row i
    return Q, 8 * e8


def dense_form(b2: int) -> list[list[int]]:
    """A symmetric form with every entry drawn from -9..9."""
    rng = random.Random(f"bench-dense:{b2}")
    Q = [[0] * b2 for _ in range(b2)]
    for i in range(b2):
        for j in range(i, b2):
            Q[i][j] = Q[j][i] = rng.randint(-9, 9)
    return Q


@pytest.mark.parametrize("b2", SIZES)
def test_bareiss_sparse(benchmark, b2):
    Q, sigma = sparse_form(b2)
    assert benchmark(_symmetric_bareiss, Q) == (sigma, 1)


@pytest.mark.parametrize("b2", DENSE_SIZES)
def test_bareiss_dense(benchmark, b2):
    Q = dense_form(b2)
    sigma, det = benchmark(_symmetric_bareiss, Q)
    assert abs(sigma) <= b2 and det != 0


@pytest.mark.parametrize("b2", SIZES)
def test_smith_normal_form(benchmark, b2):
    Q, _ = sparse_form(b2)
    snf = benchmark(smith_normal_form, Q)
    assert snf.rank == b2 and set(snf.divisors) == {1}


@pytest.mark.parametrize("b2", SIZES)
def test_pairing_dense_with_sparse(benchmark, b2):
    # a dense class c against a surface class with two nonzero entries, the
    # shape of the c . Sigma_i pairings of certify
    Q, _ = sparse_form(b2)
    form = SymmetricForm(Q)
    rng = random.Random(f"bench-pairing:{b2}")
    c = [rng.randint(-3, 3) for _ in range(b2)]
    a = [0] * b2
    for i in rng.sample(range(b2), 2):
        a[i] = rng.choice((-1, 1))
    expected = sum(c[i] * Q[i][j] * a[j] for i in range(b2) for j in range(b2))
    assert benchmark(pairing, c, a, form) == expected


@pytest.mark.parametrize("size", TARGETS)
def test_plan_and_replay(benchmark, size):
    # one target raising tb and one lowering it, each with a rotation of a
    # third of the size, of the parity the unknot can reach
    unknot = LegendrianState(tb=-1, rot=0)
    rot = size // 3
    targets = [LegendrianState(tb=tb, rot=rot + (tb + 1 + rot) % 2) for tb in (size, -size)]

    def plan_and_replay():
        return [plan_stabilization(unknot, t, overtwisted=True).replay(unknot) for t in targets]

    assert benchmark(plan_and_replay) == targets


def test_certify_exact_b2_48(benchmark):
    mi = parse_input(B2_48)
    cert = benchmark(certify, mi, run_battery=False)
    assert cert.passed
