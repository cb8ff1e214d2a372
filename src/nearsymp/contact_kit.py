"""Integer arithmetic of contact-topological invariants: Legendrian connected
sums and stabilizations, 2-handle framing rules, and the
extension-obstruction calculus for almost complex structures over balls and
circle neighborhoods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .topo_core import SymmetricForm, as_int


@dataclass(frozen=True)
class LegendrianState:
    """Framing (tb) and rotation number of a Legendrian knot.

    In an overtwisted ambient structure every integer pair of the right
    parity is realized, so there is no intrinsic constraint here.
    """

    tb: int
    rot: int


# the four stabilizing summands: (tb, rot) = (-2, +1), (-2, -1), (0, +1), (0, -1)
GEN_P = LegendrianState(-2, 1)
GEN_Q = LegendrianState(-2, -1)
GEN_R = LegendrianState(0, 1)
GEN_S = LegendrianState(0, -1)


@dataclass(frozen=True)
class StabilizationPlan:
    """Counts of the four generator summands.

    p, q count (-2, +1) and (-2, -1); r, s count (0, +1) and (0, -1).  The
    latter two exist only in overtwisted structures.
    """

    p: int
    q: int
    r: int
    s: int

    def __post_init__(self):
        if min(self.p, self.q, self.r, self.s) < 0:
            raise ValueError("summand counts must be non-negative")

    @property
    def total(self) -> int:
        return self.p + self.q + self.r + self.s

    @property
    def delta_tb(self) -> int:
        return -(self.p + self.q) + (self.r + self.s)

    @property
    def delta_rot(self) -> int:
        return (self.p - self.q) + (self.r - self.s)

    def replay(self, start: LegendrianState) -> LegendrianState:
        """Apply the plan via connected sum with the generators.

        Each count is added by binary doubling: the powers gen, gen # gen,
        ... are built with ``connect_sum`` and the ones the count's bits
        select are summed in, so a count n costs O(log n) connected sums.
        """
        state = start
        for gen, count in (
            (GEN_P, self.p),
            (GEN_Q, self.q),
            (GEN_R, self.r),
            (GEN_S, self.s),
        ):
            power = gen
            while count:
                if count & 1:
                    state = connect_sum(state, power)
                count >>= 1
                if count:
                    power = connect_sum(power, power)
        return state


def connect_sum(a: LegendrianState, b: LegendrianState) -> LegendrianState:
    """tb adds plus one; rotation numbers add."""
    return LegendrianState(tb=a.tb + b.tb + 1, rot=a.rot + b.rot)


def plan_stabilization(
    current: LegendrianState, target: LegendrianState, overtwisted: bool
) -> StabilizationPlan:
    """Minimal generator plan moving ``current`` to ``target``.

    Minimizes the total number of summands; ties favor tight summands and
    then the lexicographically least (p, q, r, s).  Without overtwistedness
    only the tb-dropping summands exist, which forces -dtb >= |drot|.
    """
    dtb = target.tb - current.tb
    drot = target.rot - current.rot
    if (dtb + drot) % 2 != 0:
        raise ValueError(
            f"parity violation: dtb + drot = {dtb + drot} must be even"
        )
    if not overtwisted:
        if -dtb < abs(drot):
            raise ValueError(
                "tight-case infeasibility: need -dtb >= |drot| when only "
                "tb-dropping summands are available"
            )
        p = (-dtb + drot) // 2
        q = (-dtb - drot) // 2
        return StabilizationPlan(p=p, q=q, r=0, s=0)
    # minimal total is max(|dtb|, |drot|); split it as u tb-droppers and
    # v tb-keepers with v - u = dtb
    n = max(abs(dtb), abs(drot))
    u = (n - dtb) // 2
    v = (n + dtb) // 2
    # lexicographically least p: p - q = c1, smallest feasible c1
    c1 = max(-u, drot - v)
    p = (u + c1) // 2
    q = (u - c1) // 2
    d1 = drot - c1
    r = (v + d1) // 2
    s = (v - d1) // 2
    return StabilizationPlan(p=p, q=q, r=r, s=s)


def handle_framing(tb: int, boundary_sign: int) -> int:
    """Framing for a 2-handle along a Legendrian knot: tb - 1 on a convex
    (positive) boundary, tb + 1 viewed from a concave boundary."""
    if boundary_sign not in (1, -1):
        raise ValueError("boundary_sign must be +1 (convex) or -1 (concave)")
    return tb - 1 if boundary_sign == 1 else tb + 1


def obstruction_from_lk(lk: int) -> int:
    """The ball-extension obstruction of a circle equals the self-linking."""
    return lk


def theta_from_h(h: int) -> int:
    """Twice theta = -h - 1/2 for the ball-extension obstruction h, so that
    it stays an integer."""
    return -2 * h - 1


def total_obstruction(signs: Sequence[int], d: int) -> int:
    """Residual 4-handle obstruction: d minus the sum of circle signs.

    Zero means the plan is consistent; a nonzero value is a reported
    failure, not an exception.
    """
    return as_int(d) - sum(as_int(s) for s in signs)


def obstruction_from_linking_matrix(L: SymmetricForm) -> int:
    """Framing of the induced push-off: the sum of all linking-matrix entries."""
    return sum(sum(row) for row in L.matrix)


def canonical_anticomplex_link(e_minus: int, h_minus: int) -> SymmetricForm:
    """Linking matrix for a -1-framed unknot with one 0-framed meridian per
    anticomplex point: +1 linking for elliptic points, -1 for hyperbolic,
    meridians mutually unlinked."""
    if e_minus < 0 or h_minus < 0:
        raise ValueError("point counts must be non-negative")
    n = 1 + e_minus + h_minus
    M = [[0] * n for _ in range(n)]
    M[0][0] = -1
    for k in range(1, n):
        lk = 1 if k <= e_minus else -1
        M[0][k] = M[k][0] = lk
    return SymmetricForm(matrix=M)


def o_from_counts(e_minus: int, h_minus: int) -> int:
    """Extension obstruction from anticomplex point counts: -1 + 2(e - h)."""
    if e_minus < 0 or h_minus < 0:
        raise ValueError("point counts must be non-negative")
    return -1 + 2 * (e_minus - h_minus)
