"""End-to-end certification pipeline and command line interface.

Reads a manifold description (intersection form, Betti numbers, surface
configuration, class vector, options), runs the exact planning layers and
the numerical local-model battery, and emits a machine-checkable
certificate: a list of named clauses, each either computed here or recorded
as an assumption resting on a classical theorem, plus the invariants,
circle plan, stabilization plans, and obstruction ledger.

Certificates are deterministic: identical input files and seeds produce
byte-identical JSON output, with the sampling seed echoed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import contact_kit, local_model, spinc_planner, topo_core
from .contact_kit import LegendrianState
from .spinc_planner import ConfigurationGraph, SurfaceSpec
from .topo_core import SymmetricForm

DEFAULT_SEED = 20060401
DEFAULT_GRID = 200
MIN_GRID = 2  # the immersion check's central differences need two points per axis
DEFAULT_PROFILE_EPS = 1.0
DEFAULT_PROFILE_DELTA = 0.2
DEFAULT_TOLERANCE = 1e-9
DEFAULT_SAMPLES = 2000


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


class CertifyError(Exception):
    """A hard precondition failure; carries the failing clause name."""

    def __init__(self, clause: str, detail: str):
        super().__init__(f"{clause}: {detail}")
        self.clause = clause
        self.detail = detail


def _check_grid(grid: int) -> None:
    if grid < MIN_GRID:
        raise CertifyError("grid", f"must be at least {MIN_GRID}, got {grid}")


# ---------------------------------------------------------------------------
# input model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ManifoldInput:
    intersection_form: SymmetricForm
    b1: int
    b3: int
    configuration: ConfigurationGraph
    c: tuple[int, ...]
    handle_counts: Optional[tuple[int, int, int, int, int]] = None
    two_handle_framings: Optional[tuple[int, ...]] = None
    distinguished_pair: Optional[tuple[int, int]] = None
    x0: Optional[tuple[int, ...]] = None
    x_prime: Optional[tuple[int, ...]] = None
    z: Optional[tuple[int, ...]] = None
    signs: Optional[tuple[int, ...]] = None
    tolerance: float = DEFAULT_TOLERANCE
    grid: int = DEFAULT_GRID
    seed: int = DEFAULT_SEED
    profile_eps: float = DEFAULT_PROFILE_EPS
    profile_delta: float = DEFAULT_PROFILE_DELTA

    def __post_init__(self):
        # also runs for CLI overrides applied through dataclasses.replace
        _check_grid(self.grid)

    def to_dict(self) -> dict:
        data = {
            "intersection_form": [list(row) for row in self.intersection_form.matrix],
            "b1": self.b1,
            "b3": self.b3,
            "surfaces": [
                {
                    "genus": s.genus,
                    "cls": list(s.cls),
                    "self_intersection": s.self_intersection,
                }
                for s in self.configuration.vertices
            ],
            "edges": [list(e) for e in self.configuration.edges],
            "side_conditions": list(self.configuration.side_conditions),
            "spinc": {"c": list(self.c)},
            "options": {
                "tolerance": self.tolerance,
                "grid": self.grid,
                "seed": self.seed,
                "profile_eps": self.profile_eps,
                "profile_delta": self.profile_delta,
            },
        }
        if self.handle_counts is not None:
            data["handle_counts"] = list(self.handle_counts)
        if self.two_handle_framings is not None:
            data["two_handle_framings"] = list(self.two_handle_framings)
        if self.distinguished_pair is not None:
            data["distinguished_pair"] = {
                "two_handle": self.distinguished_pair[0],
                "one_handle": self.distinguished_pair[1],
            }
        for name in ("x0", "x_prime", "z"):
            val = getattr(self, name)
            if val is not None:
                data["spinc"][name] = list(val)
        if self.signs is not None:
            data["options"]["signs"] = list(self.signs)
        return data


def manifold_input_from_dict(data: dict) -> ManifoldInput:
    for req in ("intersection_form", "b1", "b3", "surfaces", "spinc"):
        if req not in data:
            raise CertifyError("input schema", f"missing required field {req!r}")
    try:
        Q = SymmetricForm(matrix=data["intersection_form"])
    except (ValueError, TypeError) as exc:
        raise CertifyError("intersection_form", str(exc)) from exc
    if not data["surfaces"]:
        raise CertifyError("surfaces", "at least one surface is required")
    surfaces = []
    for i, s in enumerate(data["surfaces"]):
        for req in ("genus", "cls", "self_intersection"):
            if req not in s:
                raise CertifyError(
                    "input schema", f"surfaces[{i}] missing field {req!r}"
                )
        surfaces.append(
            SurfaceSpec(
                genus=s["genus"],
                cls=tuple(s["cls"]),
                self_intersection=s["self_intersection"],
            )
        )
    config = ConfigurationGraph(
        vertices=tuple(surfaces),
        edges=tuple(tuple(e) for e in data.get("edges", [])),
        side_conditions=tuple(data.get("side_conditions", [])),
    )
    spinc = data["spinc"]
    if "c" not in spinc:
        raise CertifyError("input schema", "spinc missing field 'c'")
    handle_counts = None
    if "handle_counts" in data:
        try:
            handle_counts = topo_core.ChainComplex(data["handle_counts"]).cells_per_degree
        except (ValueError, TypeError) as exc:
            raise CertifyError("handle_counts", str(exc)) from exc
    opts = data.get("options", {})
    pair = data.get("distinguished_pair")
    return ManifoldInput(
        intersection_form=Q,
        b1=int(data["b1"]),
        b3=int(data["b3"]),
        configuration=config,
        c=tuple(int(v) for v in spinc["c"]),
        handle_counts=handle_counts,
        two_handle_framings=(
            tuple(int(v) for v in data["two_handle_framings"])
            if "two_handle_framings" in data
            else None
        ),
        distinguished_pair=(
            (int(pair["two_handle"]), int(pair["one_handle"])) if pair else None
        ),
        x0=tuple(int(v) for v in spinc["x0"]) if "x0" in spinc else None,
        x_prime=tuple(int(v) for v in spinc["x_prime"]) if "x_prime" in spinc else None,
        z=tuple(int(v) for v in spinc["z"]) if "z" in spinc else None,
        signs=tuple(int(v) for v in opts["signs"]) if opts.get("signs") else None,
        tolerance=float(opts.get("tolerance", DEFAULT_TOLERANCE)),
        grid=int(opts.get("grid", DEFAULT_GRID)),
        seed=int(opts.get("seed", DEFAULT_SEED)),
        profile_eps=float(opts.get("profile_eps", DEFAULT_PROFILE_EPS)),
        profile_delta=float(opts.get("profile_delta", DEFAULT_PROFILE_DELTA)),
    )


def parse_input(path: str | Path) -> ManifoldInput:
    path = Path(path)
    if not path.exists():
        raise CertifyError("input file", f"{path} does not exist")
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CertifyError("input file", f"invalid JSON: {exc}") from exc
    return manifold_input_from_dict(data)


def emit_input(mi: ManifoldInput, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(mi.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture file, e.g. 'three_cp2.json'."""
    return Path(__file__).parent / "fixtures" / name


# ---------------------------------------------------------------------------
# certificate model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertClause:
    name: str
    passed: bool
    kind: str = "computed"  # or "assumption"
    value: object = None
    expected: object = None
    anchor: str = ""

    def to_dict(self) -> dict:
        return _native(
            {
                "name": self.name,
                "kind": self.kind,
                "passed": bool(self.passed),
                "value": self.value,
                "expected": self.expected,
                "anchor": self.anchor,
            }
        )


@dataclass
class ConstructionCertificate:
    seed: int
    tolerances: dict
    invariants: dict
    circle_plan: dict
    two_handles: list
    obstructions: dict
    local_checks: dict
    clauses: list[CertClause] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def to_dict(self) -> dict:
        return _native({
            "passed": self.passed,
            "seed": self.seed,
            "tolerances": self.tolerances,
            "invariants": self.invariants,
            "circle_plan": self.circle_plan,
            "two_handles": self.two_handles,
            "obstructions": self.obstructions,
            "local_checks": self.local_checks,
            "clauses": [c.to_dict() for c in self.clauses],
        })

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def report(self) -> str:
        lines = ["construction certificate", "=" * 24]
        inv = self.invariants
        lines.append(
            f"chi = {inv['chi']}, sigma = {inv['sigma']}, "
            f"c^2 = {inv['c_squared']}, d = {inv['d']}"
        )
        lines.append(f"circle signs: {tuple(self.circle_plan['signs'])}")
        lines.append(f"residual obstruction: {self.obstructions['residual']}")
        lines.append(f"seed: {self.seed}")
        lines.append("")
        for c in self.clauses:
            status = "PASS" if c.passed else "FAIL"
            tag = " (assumed)" if c.kind == "assumption" else ""
            detail = ""
            if c.value is not None:
                detail = f": {c.value}"
                if c.expected is not None:
                    detail += f" vs {c.expected}"
            lines.append(f"[{status}]{tag} {c.name}{detail}")
        lines.append("")
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"


def emit_certificate(cert: ConstructionCertificate, out_base: str | Path) -> list[Path]:
    """Write <base>.json and <base>.txt; returns the written paths."""
    base = Path(out_base)
    json_path = base.with_suffix(".json")
    txt_path = base.with_suffix(".txt")
    json_path.write_text(cert.to_json())
    txt_path.write_text(cert.report())
    return [json_path, txt_path]


# ---------------------------------------------------------------------------
# the local-model check battery
# ---------------------------------------------------------------------------


def run_local_battery(
    seed: int,
    grid: int,
    tolerance: float,
    eps: float,
    delta: float,
    samples: int = DEFAULT_SAMPLES,
) -> tuple[dict, list[CertClause]]:
    """Numerical checks of the local model; returns (summary, clauses)."""
    _check_grid(grid)
    rng = np.random.default_rng(seed)
    P = local_model.ProfileCurve(eps=eps, delta=delta)

    pts = rng.uniform(-1.0, 1.0, size=(samples, 3))
    keep = np.sqrt(4 * pts[:, 0] ** 2 + pts[:, 1] ** 2 + pts[:, 2] ** 2) >= 1e-3
    pts = pts[keep]
    max_j2 = max_compat = max_star = max_honda = max_wedge = 0.0
    I4 = np.eye(4)
    for T, x, y in pts:
        J = local_model.J_near(T, x, y)
        max_j2 = max(max_j2, float(np.abs(J @ J + I4).max()))
        w = local_model.omega_near_Z(T, x, y)
        W = w.as_matrix()
        max_compat = max(max_compat, float(np.abs(J.T @ W @ J - W).max()))
        g = local_model.metric_g(T, x, y, 0.5)
        st = local_model.hodge_star_2form(g, 1, w)
        max_star = max(
            max_star, max(abs(a - b) for a, b in zip(st.components, w.components))
        )
        hf = local_model.honda_form(T, x, y)
        max_honda = max(
            max_honda, max(abs(a - b) for a, b in zip(hf.components, w.components))
        )
        R2 = 4 * T * T + x * x + y * y
        max_wedge = max(max_wedge, abs(local_model.wedge_square(w) - 2 * R2))

    def omega_field(coords):
        return local_model.omega_near_Z(coords[0], coords[1], coords[2])

    max_domega = 0.0
    for T, x, y in pts[:20]:
        res = local_model.d_omega_numeric(
            omega_field, local_model.ChartPoint("cartesian", (T, x, y, 0.0)), 1e-3
        )
        max_domega = max(max_domega, max(abs(v) for v in res))

    min_det = local_model.phi_immersion_check(P, grid=grid, exclusion=0.05)

    # fold-zone exactness at seeded sample points
    n_fold = 200
    ang = rng.uniform(0, math.pi, n_fold)
    rad = P.fold_radius * np.sqrt(rng.uniform(0, 1, n_fold))
    tf = 0.5 + rad * np.cos(ang)
    rf = np.abs(rad * np.sin(ang))
    uf, vf = P.phi(tf, rf)
    fold_err = float(
        max(
            np.abs(uf - (rf - (tf - 0.5) ** 2 + 1 + P.delta)).max(),
            np.abs(vf - (-2 * rf * (tf - 0.5))).max(),
        )
    )

    # boundary patch residuals
    rho_w = rng.uniform(0, P.rho_max, 200)
    t_left = rng.uniform(0, P.T0, 200)
    u, v = P.phi(t_left, rho_w)
    left_err = float(
        max(np.abs(u - np.exp(t_left)).max(), np.abs(v - np.exp(t_left) * rho_w).max())
    )
    t_right = rng.uniform(P.T3, 1.0, 200)
    g1, f1 = P.lutz_profile(rho_w)
    u, v = P.phi(t_right, rho_w)
    right_err = float(
        max(
            np.abs(u - np.exp(t_right) * g1).max(),
            np.abs(v - np.exp(t_right) * f1).max(),
        )
    )
    t_any = rng.uniform(0, 1, 200)
    rho_out = rng.uniform(P.RB1, P.rho_max, 200)
    u, v = P.phi(t_any, rho_out)
    outer_err = float(
        max(np.abs(u - np.exp(t_any)).max(), np.abs(v - np.exp(t_any) * rho_out).max())
    )

    pos_std = local_model.contact_positivity(
        lambda r: local_model.contact_profile("standard", r, eps), P.rho_max, 2000
    )
    pos_lutz = local_model.contact_positivity(
        lambda r: local_model.contact_profile("lutz", r, eps), P.rho_max, 2000
    )

    summary = {
        "samples": int(len(pts)),
        "max_J_squared_deviation": max_j2,
        "max_compatibility_deviation": max_compat,
        "max_selfdual_deviation": max_star,
        "max_honda_deviation": max_honda,
        "max_wedge_square_deviation": max_wedge,
        "max_d_omega_residual": max_domega,
        "min_jacobian_det": min_det,
        "fold_zone_error": fold_err,
        "patch_error_left": left_err,
        "patch_error_twisted": right_err,
        "patch_error_outer": outer_err,
        "contact_positivity_standard": pos_std,
        "contact_positivity_lutz": pos_lutz,
    }
    tight = 1e-12
    clauses = [
        CertClause(
            "J squared is minus identity", max_j2 <= tight, "computed",
            max_j2, tight, "pointwise matrix identity J^2 = -I",
        ),
        CertClause(
            "omega is J-invariant", max_compat <= tight, "computed",
            max_compat, tight, "omega(Jv, Jw) = omega(v, w)",
        ),
        CertClause(
            "omega self-dual for the conformal metric", max_star <= tight, "computed",
            max_star, tight, "Hodge star on 2-forms is conformally invariant",
        ),
        CertClause(
            "gradient-flow presentation matches the model form",
            max_honda <= tight, "computed",
            max_honda, tight, "d(lam)^dh + star3(dh) with h = T^2 - (x^2+y^2)/2",
        ),
        CertClause(
            "wedge square equals 2 R^2", max_wedge <= tight, "computed",
            max_wedge, tight, "A^A = B^B = C^C = 2 vol, cross terms vanish",
        ),
        CertClause(
            "model form is closed (finite differences)", max_domega <= 1e-6,
            "computed", max_domega, 1e-6, "d(omega) = 0 at step 1e-3",
        ),
        CertClause(
            "profile map is an orientation-preserving immersion off the fold",
            min_det > 0, "computed", min_det, "> 0",
            "Jacobian determinant positive outside exclusion radius 0.05",
        ),
        CertClause(
            "fold formula exact in its declared zone", fold_err == 0.0,
            "computed", fold_err, 0.0,
            "(rho - (t-1/2)^2 + 1 + delta, -2 rho (t-1/2)) verbatim",
        ),
        CertClause(
            "symplectization patch at t = 0", left_err <= tolerance, "computed",
            left_err, tolerance, "phi = e^t (1, rho) near t = 0",
        ),
        CertClause(
            "twisted patch at t = 1", right_err <= tolerance, "computed",
            right_err, tolerance, "phi = e^t (g1, f1) near t = 1",
        ),
        CertClause(
            "symplectization patch at outer radius", outer_err <= tolerance,
            "computed", outer_err, tolerance, "phi = e^t (1, rho) near rho = eps^2/2",
        ),
        CertClause(
            "contact positivity of both profiles",
            pos_std > 0 and pos_lutz > 0, "computed",
            [pos_std, pos_lutz], "> 0", "g f' - f g' > 0",
        ),
    ]
    return summary, clauses


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


def certify(mi: ManifoldInput, run_battery: bool = True) -> ConstructionCertificate:
    Q = mi.intersection_form
    b2 = Q.dim
    clauses: list[CertClause] = []

    # hard preconditions -----------------------------------------------------
    if len(mi.c) != b2:
        raise CertifyError(
            "dimension consistency",
            f"class vector has length {len(mi.c)}, form rank is {b2}",
        )
    for i, s in enumerate(mi.configuration.vertices):
        if len(s.cls) != b2:
            raise CertifyError(
                "dimension consistency",
                f"surface {i + 1} class has length {len(s.cls)}, form rank is {b2}",
            )
        s.check_square(Q)
    sigma = topo_core.signature(Q)
    rank = topo_core.smith_normal_form(Q.matrix).rank
    b2_plus = (rank + sigma) // 2
    if b2_plus <= 0:
        raise CertifyError(
            "positive part of the intersection form", f"b2+ = {b2_plus} must be > 0"
        )
    clauses.append(
        CertClause(
            "b2+ positive", True, "computed", b2_plus, "> 0",
            "setting: closed oriented 4-manifold with b2+ > 0",
        )
    )

    report = spinc_planner.check_spinc_constraints(mi.c, mi.configuration, Q)
    for cl in report.clauses:
        if not cl.passed:
            raise CertifyError(
                f"adjunction/characteristic clause '{cl.name}'",
                f"{cl.lhs} != {cl.rhs}; constraint set unsatisfiable as given",
            )
        clauses.append(
            CertClause(
                cl.name, True, "computed", cl.lhs, cl.rhs,
                "pairing constraints on the chosen class",
            )
        )

    # invariants -------------------------------------------------------------
    chi = 2 - mi.b1 + b2 - mi.b3
    if mi.handle_counts is not None:
        C = topo_core.ChainComplex(cells_per_degree=mi.handle_counts)
        chi_handles = topo_core.euler_characteristic(C)
        clauses.append(
            CertClause(
                "handle count Euler characteristic", chi_handles == chi,
                "computed", chi_handles, chi,
                "alternating sum of handle counts",
            )
        )
    c_squared = topo_core.pairing(mi.c, mi.c, Q)
    d = spinc_planner.compute_d(c_squared, sigma, chi)
    invariants = {"chi": chi, "sigma": sigma, "c_squared": c_squared, "d": d}
    clauses.append(
        CertClause(
            "circle count d", True, "computed", d,
            f"({c_squared} - 3*{sigma} - 2*{chi})/4",
            "signed count of zero circles",
        )
    )

    # circle plan ------------------------------------------------------------
    if mi.signs is not None:
        plan = spinc_planner.custom_circle_plan(mi.signs)
        clauses.append(
            CertClause(
                "custom circle signs consistent with d", plan.d == d,
                "computed", plan.d, d, "sign sum equals the circle count",
            )
        )
    else:
        plan = spinc_planner.plan_circles(d)
    sched = local_model.level_schedule_check(plan)
    clauses.append(
        CertClause(
            "one circle per level, at midpoints", sched.passed, "computed",
            [round(v, 12) for v in local_model.circle_levels(plan)], None,
            "nested level spheres between radius 0.9 and 1",
        )
    )
    circle_plan = {
        "signs": list(plan.signs),
        "levels": list(plan.levels),
        "circle_levels": list(local_model.circle_levels(plan)),
    }

    # two-handle records -----------------------------------------------------
    rotations = list(mi.x0) if mi.x0 is not None else list(mi.c)
    framings = (
        list(mi.two_handle_framings)
        if mi.two_handle_framings is not None
        else [s.self_intersection for s in mi.configuration.vertices]
    )
    if len(framings) != len(rotations):
        raise CertifyError(
            "dimension consistency",
            f"{len(framings)} two-handle framings vs {len(rotations)} rotation targets",
        )
    two_handles = []
    unknot = LegendrianState(tb=-1, rot=0)
    for i, (fr, rot) in enumerate(zip(framings, rotations)):
        tb = fr + 1  # framing is realized as tb - 1 on a convex boundary
        target = LegendrianState(tb=tb, rot=rot)
        if (tb - unknot.tb + rot - unknot.rot) % 2 != 0:
            raise CertifyError(
                f"two-handle {i + 1} parity",
                f"tb + rot parity obstruction for target ({tb}, {rot})",
            )
        splan = contact_kit.plan_stabilization(unknot, target, overtwisted=True)
        replay = splan.replay(unknot)
        clauses.append(
            CertClause(
                f"two-handle {i + 1} stabilization replay",
                replay == target, "computed",
                [replay.tb, replay.rot], [target.tb, target.rot],
                "repeated connected sums with the four generators",
            )
        )
        clauses.append(
            CertClause(
                f"two-handle {i + 1} framing rule", fr == tb - 1, "computed",
                fr, tb - 1, "contact framing minus one on a convex boundary",
            )
        )
        two_handles.append(
            {
                "index": i,
                "framing": fr,
                "tb": tb,
                "rotation": rot,
                "plan": {"p": splan.p, "q": splan.q, "r": splan.r, "s": splan.s},
            }
        )

    # obstruction ledger -----------------------------------------------------
    per_circle = []
    for sign in plan.signs:
        lk = sign
        h = contact_kit.obstruction_from_lk(lk)
        rec = contact_kit.theta_from_h(h)
        per_circle.append({"lk": lk, "h": h, "theta_times_2": rec.theta_times_2})
    residual = contact_kit.total_obstruction(plan.signs, d)
    sum_h = sum(r["h"] for r in per_circle)
    obstructions = {
        "per_circle": per_circle,
        "sum_h": sum_h,
        "residual": residual,
    }
    clauses.append(
        CertClause(
            "residual 4-handle obstruction vanishes", residual == 0,
            "computed", residual, 0,
            "d minus the sum of circle signs",
        )
    )

    # capping-piece clauses (only when the first surface has positive square)
    first = mi.configuration.vertices[0]
    if first.self_intersection > 0:
        g_prime = spinc_planner.stabilized_surface_genus(first.genus)
        e_counts = spinc_planner.e_decomposition(g_prime, first.self_intersection)
        clauses.append(
            CertClause(
                "capping surface genus g' = g + 1", g_prime == first.genus + 1,
                "computed", g_prime, first.genus + 1,
                "connected sum with one standard torus",
            )
        )
        clauses.append(
            CertClause(
                "capping handle decomposition", True, "computed",
                list(e_counts.counts),
                [1, 2 * g_prime + first.self_intersection - 1,
                 first.self_intersection, 0, 0],
                "one 0-handle, 2g'+m-1 one-handles, m two-handles framed +1",
            )
        )
        target_prime = spinc_planner.adjunction_target(
            first.genus, first.self_intersection, stabilized=True
        )
        got_prime = topo_core.pairing(mi.c, first.cls, Q)
        clauses.append(
            CertClause(
                "class pairing on the stabilized surface",
                got_prime == target_prime, "computed", got_prime, target_prime,
                "2 - 2g' + m for the capped surface",
            )
        )
    clauses.append(
        CertClause(
            "capping-piece boundary structure negative and overtwisted", True,
            "assumption", None, None,
            "by construction of the capping piece's open book",
        )
    )

    # gluing clauses ---------------------------------------------------------
    clauses.append(
        CertClause(
            "boundary contact structures isotopic", True, "assumption", None, None,
            "Eliashberg: overtwisted structures on a closed 3-manifold are "
            "isotopic once homotopic as plane fields",
        )
    )
    clauses.append(
        CertClause(
            "plane fields homotopic over the gluing region", True, "assumption",
            None, None,
            "equal first Chern classes and no 2-torsion in the relevant "
            "cohomology determine the homotopy class over the 2-skeleton",
        )
    )
    clauses.append(
        CertClause(
            "restriction map injectivity", True, "assumption", None, None,
            "Mayer-Vietoris: the gluing region's cohomology injects",
        )
    )
    clauses.append(
        CertClause(
            "cohomology class of the 2-form", True, "assumption", None, None,
            "[omega] Poincare dual to the sum of the surface classes; "
            "normalization clause, no global form is assembled",
        )
    )

    # local model battery ----------------------------------------------------
    local_checks: dict = {}
    if run_battery:
        local_checks, battery_clauses = run_local_battery(
            mi.seed, mi.grid, mi.tolerance, mi.profile_eps, mi.profile_delta
        )
        clauses.extend(battery_clauses)

    return ConstructionCertificate(
        seed=mi.seed,
        tolerances={"tolerance": mi.tolerance, "grid": mi.grid},
        invariants=invariants,
        circle_plan=circle_plan,
        two_handles=two_handles,
        obstructions=obstructions,
        local_checks=local_checks,
        clauses=clauses,
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--profile-eps", type=float, default=None)
    p.add_argument("--profile-delta", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearsymp",
        description="Plan and certify closed 2-forms symplectic off circles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run the full pipeline on an input file")
    p.add_argument("input", help="manifold description (JSON)")
    p.add_argument("--out", default=None, help="output base path for certificate")
    p.add_argument("--signs", default=None, help="comma-separated circle signs")
    _add_common_flags(p)

    p = sub.add_parser("signature", help="signature of a symmetric integer matrix")
    p.add_argument("matrix", help="JSON file holding the matrix (or a raw JSON array)")

    p = sub.add_parser("plan-circles", help="default circle plan for a count d")
    p.add_argument("-d", type=int, required=True, dest="d")

    p = sub.add_parser("stabilize", help="minimal stabilization plan")
    p.add_argument("--from-tb", type=int, required=True)
    p.add_argument("--from-rot", type=int, required=True)
    p.add_argument("--to-tb", type=int, required=True)
    p.add_argument("--to-rot", type=int, required=True)
    p.add_argument("--tight", action="store_true")

    p = sub.add_parser("obstruction", help="extension obstruction from point counts")
    p.add_argument("--elliptic", type=int, required=True)
    p.add_argument("--hyperbolic", type=int, required=True)

    p = sub.add_parser("local-check", help="run the local model battery alone")
    p.add_argument("--out", default=None)
    _add_common_flags(p)
    # parser-level defaults override the None of _add_common_flags
    p.set_defaults(
        tolerance=DEFAULT_TOLERANCE,
        grid=100,
        seed=DEFAULT_SEED,
        profile_eps=DEFAULT_PROFILE_EPS,
        profile_delta=DEFAULT_PROFILE_DELTA,
    )
    return parser


def _load_matrix(arg: str) -> SymmetricForm:
    text = arg
    path = Path(arg)
    if path.exists():
        text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertifyError("matrix", f"not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("matrix", data.get("intersection_form"))
        if data is None:
            raise CertifyError("matrix", "no 'matrix' field in JSON object")
    return SymmetricForm(matrix=data)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "certify":
            mi = parse_input(args.input)
            overrides = {}
            if args.tolerance is not None:
                overrides["tolerance"] = args.tolerance
            if args.grid is not None:
                overrides["grid"] = args.grid
            if args.seed is not None:
                overrides["seed"] = args.seed
            if args.profile_eps is not None:
                overrides["profile_eps"] = args.profile_eps
            if args.profile_delta is not None:
                overrides["profile_delta"] = args.profile_delta
            if args.signs is not None:
                overrides["signs"] = tuple(
                    int(v) for v in args.signs.split(",") if v.strip()
                )
            if overrides:
                from dataclasses import replace

                mi = replace(mi, **overrides)
            cert = certify(mi)
            if args.out:
                for written in emit_certificate(cert, args.out):
                    print(f"wrote {written}")
            print(cert.report(), end="")
            return 0 if cert.passed else 1

        if args.command == "signature":
            Q = _load_matrix(args.matrix)
            print(topo_core.signature(Q))
            return 0

        if args.command == "plan-circles":
            plan = spinc_planner.plan_circles(args.d)
            print("(" + ",".join(f"{s:+d}" for s in plan.signs) + ")")
            return 0

        if args.command == "stabilize":
            splan = contact_kit.plan_stabilization(
                LegendrianState(args.from_tb, args.from_rot),
                LegendrianState(args.to_tb, args.to_rot),
                overtwisted=not args.tight,
            )
            print(f"p={splan.p} q={splan.q} r={splan.r} s={splan.s}")
            return 0

        if args.command == "obstruction":
            print(contact_kit.o_from_counts(args.elliptic, args.hyperbolic))
            return 0

        if args.command == "local-check":
            summary, clauses = run_local_battery(
                args.seed, args.grid, args.tolerance, args.profile_eps, args.profile_delta
            )
            ok = all(c.passed for c in clauses)
            for c in clauses:
                status = "PASS" if c.passed else "FAIL"
                print(f"[{status}] {c.name}: {c.value}")
            if args.out:
                Path(args.out).write_text(
                    json.dumps(summary, indent=2, sort_keys=True) + "\n"
                )
            print("overall:", "PASS" if ok else "FAIL")
            return 0 if ok else 1

    except CertifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
