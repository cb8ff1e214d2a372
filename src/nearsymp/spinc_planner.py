"""Exact planning layer: adjunction-style constraints, the signed circle
count d, circle plans with level schedules, genus stabilization bookkeeping,
cocycle selection mod 2, and plumbing/configuration builders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .topo_core import (
    ChainComplex,
    IntegerCochain,
    SymmetricForm,
    as_int,
    coboundary_matrix,
    pairing,
    is_characteristic,
    solve_mod2,
)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfaceSpec:
    """An embedded surface given by genus and its class in a fixed H2 basis."""

    genus: int
    cls: tuple[int, ...]
    self_intersection: int

    def __post_init__(self):
        genus = as_int(self.genus)
        if genus < 0:
            raise ValueError("genus must be non-negative")
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "self_intersection", as_int(self.self_intersection))
        object.__setattr__(self, "cls", tuple(v if type(v) is int else as_int(v) for v in self.cls))

    def check_square(self, Q: SymmetricForm) -> None:
        sq = pairing(self.cls, self.cls, Q)
        if sq != self.self_intersection:
            raise ValueError(
                f"declared self-intersection {self.self_intersection} "
                f"disagrees with class pairing {sq}"
            )


@dataclass(frozen=True)
class ConfigurationGraph:
    """Surfaces meeting pairwise transversely and positively.

    Each edge is one positive transverse intersection point between the two
    incident surfaces.
    """

    vertices: tuple[SurfaceSpec, ...]
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        k = len(self.vertices)
        norm = []
        for edge in self.edges:
            i, j = (as_int(v) for v in edge)
            if i == j:
                raise ValueError("edges must join distinct surfaces")
            if not (0 <= i < k and 0 <= j < k):
                raise ValueError(
                    f"edge {tuple(edge)} must join surfaces among 0..{k - 1}"
                )
            norm.append((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", tuple(norm))

    def intersection(self, i: int, j: int) -> int:
        if i == j:
            return self.vertices[i].self_intersection
        return sum(1 for e in self.edges if e == (min(i, j), max(i, j)))


@dataclass(frozen=True)
class CirclePlan:
    """Ordered signed circles, each at the midpoint of its level interval."""

    signs: tuple[int, ...]
    d: int

    def __post_init__(self):
        signs = tuple(as_int(s) for s in self.signs)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "d", as_int(self.d))
        if not signs:
            raise ValueError("need at least one circle sign")
        if any(s not in (-1, 1) for s in signs):
            raise ValueError("circle signs must be +1 or -1")
        if signs[0] != -1:
            raise ValueError("first circle sign must be -1")
        if sum(signs) != self.d:
            raise ValueError("circle signs must sum to d")

    @property
    def levels(self) -> tuple[float, ...]:
        """The n + 1 levels 0.9 + 0.1 i / n of n circles, from 0.9 to 1.0."""
        n = len(self.signs)
        return tuple(0.9 + 0.1 * i / n for i in range(n + 1))

    @property
    def midpoints(self) -> tuple[float, ...]:
        """Midpoints of the level intervals: where the circles sit."""
        levels = self.levels
        return tuple(0.5 * (a + b) for a, b in zip(levels, levels[1:]))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def adjunction_target(genus: int, self_int: int, stabilized: bool) -> int:
    """Required pairing of the characteristic class with a surface.

    The stabilized variant budgets one extra handle of genus for the surface
    the construction actually uses.
    """
    if genus < 0:
        raise ValueError("genus must be non-negative")
    g_eff = genus + 1 if stabilized else genus
    return 2 - 2 * g_eff + self_int


@dataclass(frozen=True)
class Clause:
    name: str
    passed: bool
    lhs: object = None
    rhs: object = None


def check_spinc_constraints(
    c: Sequence[int], config: ConfigurationGraph, Q: SymmetricForm
) -> tuple[Clause, ...]:
    """Verify the pairing constraints tying the class c to a configuration.

    The first surface carries the stabilized target, later surfaces the
    unstabilized one; c must be characteristic and the configuration's own
    intersection matrix nondegenerate.
    """
    clauses: list[Clause] = []
    for idx, surf in enumerate(config.vertices):
        target = adjunction_target(surf.genus, surf.self_intersection, idx == 0)
        got = pairing(c, surf.cls, Q)
        label = "stabilized" if idx == 0 else "unstabilized"
        clauses.append(
            Clause(f"c.Sigma_{idx + 1} ({label} adjunction)", got == target, got, target)
        )
    clauses.append(Clause("c characteristic", is_characteristic(c, Q)))
    Qc = plumbing_form(config)
    det = Qc.det()
    clauses.append(Clause("det(Q_config) != 0", det != 0, det, "nonzero"))
    if len(config.vertices) == 1:
        m = config.vertices[0].self_intersection
        clauses.append(Clause("surface square positive", m > 0, m, "> 0"))
    else:
        for i, row in enumerate(Qc.matrix):
            rowsum = sum(row)
            clauses.append(
                Clause(f"row sum positive at surface {i + 1}", rowsum > 0, rowsum, "> 0")
            )
    return tuple(clauses)


def compute_d(c_squared: int, sigma: int, chi: int) -> int:
    """Signed count of zero circles: (c^2 - 3*sigma - 2*chi) / 4."""
    num = c_squared - 3 * sigma - 2 * chi
    if num % 4 != 0:
        raise ValueError(
            f"c^2 - 3*sigma - 2*chi = {num} is not divisible by 4; "
            "the class is not characteristic or the input is inconsistent"
        )
    return num // 4


def plan_circles(d: int) -> CirclePlan:
    """Default sign plan for the circle count d.

    d < 0: |d| circles, all negative.  d > 0: d + 2 circles, one negative
    and the rest positive.  d = 0: a cancelling pair (-1, +1).
    """
    if d < 0:
        signs = (-1,) * (-d)
    elif d > 0:
        signs = (-1,) + (1,) * (d + 1)
    else:
        signs = (-1, 1)
    return CirclePlan(signs=signs, d=d)


def custom_circle_plan(signs: Sequence[int]) -> CirclePlan:
    """Any sign sequence works, provided it starts with -1."""
    signs = tuple(as_int(s) for s in signs)
    return CirclePlan(signs=signs, d=sum(signs))


def e_decomposition(g: int, m: int) -> tuple[int, int, int, int, int]:
    """Handle counts per index of the standard capping piece: one 0-handle,
    2g + m - 1 one-handles and m two-handles, each framed +1."""
    g, m = as_int(g), as_int(m)
    if m <= 0:
        raise ValueError("surface square m must be positive")
    if g < 0:
        raise ValueError("genus must be non-negative")
    return (1, 2 * g + m - 1, m, 0, 0)


def plumbing_form(config: ConfigurationGraph) -> SymmetricForm:
    """Intersection matrix of a plumbing neighborhood of the configuration."""
    k = len(config.vertices)
    M = [[config.intersection(i, j) for j in range(k)] for i in range(k)]
    return SymmetricForm(matrix=M)


def cap_corollary_config(m: int, g: int) -> ConfigurationGraph:
    """Capping configuration: the surface plus the two sphere factors of a
    punctured sphere-product, with determinant -m enforced at build time."""
    if m <= 0:
        raise ValueError("surface square must be positive")
    sigma1 = SurfaceSpec(genus=g, cls=(1, 0, 0), self_intersection=m)
    sigma2 = SurfaceSpec(genus=0, cls=(0, 1, 0), self_intersection=0)
    sigma3 = SurfaceSpec(genus=0, cls=(0, 0, 1), self_intersection=0)
    config = ConfigurationGraph(
        vertices=(sigma1, sigma2, sigma3),
        edges=((1, 2), (0, 2)),
    )
    det = plumbing_form(config).det()
    if det != -m:
        raise AssertionError(f"capping determinant {det} != -{m}")
    return config


def noextragenus_case(config: ConfigurationGraph) -> int | str:
    """Classify a configuration into one of the three no-extra-genus cases.

    Case 1: two spheres with squares >= 2 and >= 1.  Case 2: a sphere and a
    positive-genus surface, both with positive square.  Case 3: more than two
    surfaces, the first a sphere of positive square meeting only the second,
    once.  Returns "none" when no case applies.
    """
    k = len(config.vertices)
    v = config.vertices
    if k == 2:
        if (
            v[0].genus == 0
            and v[1].genus == 0
            and v[0].self_intersection >= 2
            and v[1].self_intersection >= 1
        ):
            return 1
        if (
            v[0].genus == 0
            and v[1].genus >= 1
            and v[0].self_intersection >= 1
            and v[1].self_intersection >= 1
        ):
            return 2
    if k > 2:
        if (
            v[0].genus == 0
            and v[0].self_intersection >= 1
            and config.intersection(0, 1) == 1
            and all(config.intersection(0, i) == 0 for i in range(2, k))
        ):
            return 3
    return "none"


def choose_cocycle(
    x0: IntegerCochain, x_prime: IntegerCochain, C: ChainComplex
) -> IntegerCochain:
    """Replace x0 by a cohomologous cocycle congruent to x_prime mod 2.

    Solves the coboundary equation mod 2, lifts the solution to a 0/1
    integer cochain y, and returns x0 - (coboundary of y).  Raises when no
    mod-2 solution exists.
    """
    delta = coboundary_matrix(C, 1)  # 1-cochains -> 2-cochains
    n2 = C.cells_per_degree[2]
    if len(x0) != n2 or len(x_prime) != n2:
        raise ValueError("cochain length does not match the number of 2-cells")
    rhs = [(a - b) % 2 for a, b in zip(x0.values, x_prime.values)]
    y = solve_mod2(delta, rhs)
    if y is None:
        raise ValueError(
            "no mod-2 solution: the class and the prescribed residues are "
            "incompatible"
        )
    dy = [sum(delta[i][j] * y[j] for j in range(len(y))) for i in range(n2)]
    return IntegerCochain(values=tuple(a - b for a, b in zip(x0.values, dy)))

