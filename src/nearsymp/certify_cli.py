"""End-to-end certification pipeline and command line interface.

Reads a manifold description (intersection form, Betti numbers, surface
configuration, class vector, options), runs the exact planning layers and
the numerical local-model battery, and emits a machine-checkable
certificate: a list of named clauses, each either computed here or recorded
as an assumption resting on a classical theorem, plus the invariants,
circle plan, stabilization plans, and obstruction ledger.

Certificates are deterministic: identical input files and seeds produce
byte-identical JSON output, with the sampling seed echoed.

The exact side runs without numpy: numpy and ``local_model`` are imported
only when the battery runs.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import sys
from dataclasses import dataclass, field, replace
from itertools import chain, combinations
from pathlib import Path
from typing import Optional, Sequence

from . import contact_kit, spinc_planner, topo_core
from .contact_kit import LegendrianState
from .spinc_planner import ConfigurationGraph, SurfaceSpec
from .topo_core import SymmetricForm

DEFAULT_SEED = 20060401
MIN_GRID = 2  # the immersion grid spans [0, 1] x [0, rho_max] only from two lines per axis
DEFAULT_SAMPLES = 2000
# the difference step of the battery's local_model.contact_positivity
POSITIVITY_STEP = 1e-6

# the options that tune the local model, each with its JSON and flag type;
# an option's default is the ManifoldInput field of the same name
_OPTIONS = (
    ("tolerance", float),
    ("grid", int),
    ("seed", int),
    ("profile_eps", float),
    ("profile_delta", float),
)


def __getattr__(name):
    # the numerical module as an attribute, imported on first access like
    # the package's own
    if name == "local_model":
        return importlib.import_module(f"{__package__}.local_model")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _strict(value):
    """``value`` with every non-finite float written as the string "nan",
    "inf" or "-inf": strict JSON (RFC 8259) has no NaN or Infinity."""
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    return value


def _dumps(doc) -> str:
    """The layout of every JSON file the CLI writes: one line with sorted
    keys and no spaces, on the json module's C encoder (an indent makes
    CPython fall back to its pure-Python encoder)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


class CertifyError(Exception):
    """A hard precondition failure; carries the failing clause name."""

    def __init__(self, clause: str, detail: str):
        super().__init__(f"{clause}: {detail}")
        self.clause = clause
        self.detail = detail


def _check_options(tolerance: float, grid: int, seed: int, eps: float, delta: float) -> None:
    """Reject option values the local-model battery cannot use, naming the
    option."""
    if not 0 <= tolerance < math.inf:
        raise CertifyError("tolerance", f"must be finite and >= 0, got {tolerance}")
    if grid < MIN_GRID:
        raise CertifyError("grid", f"must be at least {MIN_GRID}, got {grid}")
    if seed < 0:
        raise CertifyError("seed", f"must be >= 0, got {seed}")
    for name, value in (("profile_eps", eps), ("profile_delta", delta)):
        if not 0 < value < math.inf:
            raise CertifyError(name, f"must be finite and > 0, got {value}")
    # the profiles live on [0, eps^2/2], and contact_positivity differences
    # them at rho +- h, so that interval must hold 2h
    rho_max, least = eps * eps / 2, 2 * POSITIVITY_STEP
    if not least <= rho_max < math.inf:
        raise CertifyError("profile_eps", f"eps^2/2 must be finite and >= {least}, got eps = {eps}")


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
    x0: Optional[tuple[int, ...]] = None
    signs: Optional[tuple[int, ...]] = None
    tolerance: float = 1e-9
    grid: int = 200
    seed: int = DEFAULT_SEED
    profile_eps: float = 1.0
    profile_delta: float = 0.2

    def __post_init__(self):
        # also runs for CLI overrides applied through dataclasses.replace
        _check_options(self.tolerance, self.grid, self.seed, self.profile_eps, self.profile_delta)


# every key of the input format, per JSON object; any other key is rejected
_TOP_FIELDS = (
    "intersection_form", "b1", "b3", "surfaces", "edges",
    "spinc", "options", "handle_counts", "two_handle_framings",
)
_SURFACE_FIELDS = ("genus", "cls", "self_intersection")
_SPINC_FIELDS = ("c", "x0")
_OPTION_FIELDS = tuple(name for name, _ in _OPTIONS) + ("signs",)


def _object(value, path: str, known: tuple[str, ...], required: tuple[str, ...] = ()) -> dict:
    """``value`` as a JSON object holding only ``known`` keys and every
    ``required`` one; ``path`` names it in errors."""
    if not isinstance(value, dict):
        raise CertifyError(path or "input", f"must be a JSON object, got {value!r}")
    for key in value:
        if key not in known:
            name = f"{path}.{key}" if path else key
            raise CertifyError("input schema", f"unknown field {name!r}")
    for key in required:
        if key not in value:
            where = f"{path} missing" if path else "missing required"
            raise CertifyError("input schema", f"{where} field {key!r}")
    return value


def _int(value, path: str) -> int:
    if type(value) is int:
        return value
    try:
        return topo_core.as_int(value)
    except ValueError:
        raise CertifyError(path, f"must be an integer, got {value!r}") from None


def _list(value, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise CertifyError(path, f"must be a list, got {value!r}")
    return value


def _ints(value, path: str) -> tuple[int, ...]:
    value = _list(value, path)
    if all(type(v) is int for v in value):
        return tuple(value)
    return tuple(_int(v, f"{path}[{i}]") for i, v in enumerate(value))


def _number(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise CertifyError(path, f"must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise CertifyError(path, f"must be finite, got {value!r}") from None


def manifold_input_from_dict(data: dict) -> ManifoldInput:
    """Validate a parsed input document; every malformed field raises a
    CertifyError that names it."""
    _object(data, "", _TOP_FIELDS, ("intersection_form", "b1", "b3", "surfaces", "spinc"))
    try:
        Q = SymmetricForm(matrix=data["intersection_form"])
    except (ValueError, TypeError) as exc:
        raise CertifyError("intersection_form", str(exc)) from exc
    if not _list(data["surfaces"], "surfaces"):
        raise CertifyError("surfaces", "at least one surface is required")
    surfaces = []
    for i, s in enumerate(data["surfaces"]):
        path = f"surfaces[{i}]"
        _object(s, path, _SURFACE_FIELDS, _SURFACE_FIELDS)
        genus = _int(s["genus"], f"{path}.genus")
        cls = _ints(s["cls"], f"{path}.cls")
        square = _int(s["self_intersection"], f"{path}.self_intersection")
        try:
            surfaces.append(SurfaceSpec(genus=genus, cls=cls, self_intersection=square))
        except ValueError as exc:  # on these ints, only the genus check can fail
            raise CertifyError(f"{path}.genus", str(exc)) from exc
    edges = _list(data.get("edges", []), "edges")
    edges = [_ints(edge, f"edges[{k}]") for k, edge in enumerate(edges)]
    for k, edge in enumerate(edges):
        if len(edge) != 2 or edge[0] == edge[1] or not all(0 <= v < len(surfaces) for v in edge):
            raise CertifyError(
                f"edges[{k}]",
                f"must join two distinct surfaces among 0..{len(surfaces) - 1}, got {list(edge)}",
            )
    config = ConfigurationGraph(vertices=tuple(surfaces), edges=tuple(edges))
    spinc = _object(data["spinc"], "spinc", _SPINC_FIELDS, ("c",))
    handle_counts = None
    if "handle_counts" in data:
        try:
            handle_counts = topo_core.ChainComplex(data["handle_counts"]).cells_per_degree
        except (ValueError, TypeError) as exc:
            raise CertifyError("handle_counts", str(exc)) from exc
    opts = _object(data.get("options", {}), "options", _OPTION_FIELDS)
    options = {
        name: (_int if kind is int else _number)(opts[name], f"options.{name}")
        for name, kind in _OPTIONS
        if name in opts
    }
    if "signs" in opts:
        options["signs"] = _ints(opts["signs"], "options.signs")

    def optional_ints(obj, key, prefix=""):
        return _ints(obj[key], prefix + key) if key in obj else None

    fields = dict(
        intersection_form=Q,
        b1=_int(data["b1"], "b1"),
        b3=_int(data["b3"], "b3"),
        configuration=config,
        c=_ints(spinc["c"], "spinc.c"),
        handle_counts=handle_counts,
        two_handle_framings=optional_ints(data, "two_handle_framings"),
        x0=optional_ints(spinc, "x0", "spinc."),
    )
    try:
        return ManifoldInput(**fields, **options)
    except CertifyError as exc:  # from _check_options: an option's value
        raise CertifyError(f"options.{exc.clause}", exc.detail) from None


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

    def to_json(self) -> str:
        # vars() holds exactly the dataclass fields; only the battery's values
        # can be non-finite
        doc = vars(self) | {
            "passed": self.passed,
            "local_checks": _strict(self.local_checks),
            "clauses": [
                vars(c) | {"passed": bool(c.passed), "value": _strict(c.value)}
                for c in self.clauses
            ],
        }
        return _dumps(doc)

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

# samples per block of the pointwise identity checks: bounds their batched
# temporaries to _SAMPLE_BLOCK x 4 x 4
_SAMPLE_BLOCK = 256


def _pointwise_maxima(pts) -> tuple[float, float, float, float, float]:
    """Largest deviations of J^2 = -I, J-invariance, self-duality, the Honda
    form and omega^omega = 2 R^2 over the (T, x, y) samples ``pts``.

    Each sample makes six model calls, in this order: J_near, omega_near_Z,
    metric_g (the conformal factor f(R) at eps' = 0.5: 1 for R <= eps'/2, R
    for R >= eps', the smooth blend only in between), hodge_star_2form,
    honda_form and wedge_square.  Their outputs are collected in lists per
    block of _SAMPLE_BLOCK samples and streamed into one flat array each by
    np.fromiter, with the count known in advance; each identity is then
    checked on the whole block at once.  The maxima are folded with
    np.maximum, so a NaN deviation stays NaN.
    """
    import numpy as np

    from . import local_model

    def stacked(rows, *shape):
        # the floats of the tuples in rows, in order, as one array of shape
        return np.fromiter(chain.from_iterable(rows), float, math.prod(shape)).reshape(shape)

    maxima = np.zeros(5)
    for start in range(0, len(pts), _SAMPLE_BLOCK):
        block = pts[start:start + _SAMPLE_BLOCK]
        n = len(block)
        J, w, star, honda, wedge = [], [], [], [], []
        for T, x, y in block.tolist():
            J.extend(local_model.J_near(T, x, y))  # its four rows
            form = local_model.omega_near_Z(T, x, y)
            factor = local_model.metric_g(T, x, y, 0.5)
            star.append(local_model.hodge_star_2form(factor, 1, form))
            honda.append(local_model.honda_form(T, x, y))
            w.append(form)
            wedge.append(local_model.wedge_square(form))
        Jb, wb = stacked(J, n, 4, 4), stacked(w, n, 6)
        Wb = local_model.form_matrix(wb)
        T, x, y = block.T
        R2 = 4 * T * T + x * x + y * y
        maxima = np.maximum(maxima, [
            np.abs(Jb @ Jb + np.eye(4)).max(),
            np.abs(Jb.transpose(0, 2, 1) @ Wb @ Jb - Wb).max(),
            np.abs(stacked(star, n, 6) - wb).max(),
            np.abs(stacked(honda, n, 6) - wb).max(),
            np.abs(np.fromiter(wedge, float, n) - 2 * R2).max(),
        ])
    return tuple(maxima.tolist())


def run_local_battery(
    seed: int,
    grid: int,
    tolerance: float,
    eps: float,
    delta: float,
    samples: int = DEFAULT_SAMPLES,
) -> tuple[dict, list[CertClause]]:
    """Numerical checks of the local model; returns (summary, clauses)."""
    _check_options(tolerance, grid, seed, eps, delta)
    try:
        import numpy as np

        from . import local_model
    except ImportError as exc:
        raise CertifyError(
            "local-model battery", f"needs numpy, which failed to import: {exc}"
        ) from None

    rng = np.random.default_rng(seed)
    try:
        P = local_model.ProfileCurve(eps=eps, delta=delta)
    except ValueError as exc:  # past _check_options, only the spine's limit on delta
        raise CertifyError("profile_delta", str(exc)) from None

    pts = rng.uniform(-1.0, 1.0, size=(samples, 3))
    keep = np.sqrt(4 * pts[:, 0] ** 2 + pts[:, 1] ** 2 + pts[:, 2] ** 2) >= 1e-3
    pts = pts[keep]
    max_j2, max_compat, max_star, max_honda, max_wedge = _pointwise_maxima(pts)

    def omega_field(coords):
        return local_model.omega_near_Z(coords[0], coords[1], coords[2])

    def worst(*deviations) -> float:
        # np.max, not Python's max, which drops a NaN after the first item
        return float(np.max([np.abs(d).max() for d in deviations]))

    max_domega = worst([0.0], *(
        local_model.d_omega_numeric(
            omega_field, local_model.ChartPoint("cartesian", (T, x, y, 0.0)), 1e-3
        )
        for T, x, y in pts[:20]
    ))

    min_det = local_model.phi_immersion_check(P, grid=grid)

    # fold-zone exactness at seeded sample points
    n_fold = 200
    ang = rng.uniform(0, math.pi, n_fold)
    rad = P.fold_radius * np.sqrt(rng.uniform(0, 1, n_fold))
    tf = 0.5 + rad * np.cos(ang)
    rf = np.abs(rad * np.sin(ang))
    uf, vf = P.phi(tf, rf)
    fold_err = worst(uf - (rf - (tf - 0.5) ** 2 + 1 + P.delta), vf - (-2 * rf * (tf - 0.5)))

    # boundary patch residuals
    rho_w = rng.uniform(0, P.rho_max, 200)
    t_left = rng.uniform(0, P.T0, 200)
    u, v = P.phi(t_left, rho_w)
    left_err = worst(u - np.exp(t_left), v - np.exp(t_left) * rho_w)
    t_right = rng.uniform(P.T3, 1.0, 200)
    g1, f1 = P.lutz_profile(rho_w)
    u, v = P.phi(t_right, rho_w)
    right_err = worst(u - np.exp(t_right) * g1, v - np.exp(t_right) * f1)
    t_any = rng.uniform(0, 1, 200)
    rho_out = rng.uniform(P.RB1, P.rho_max, 200)
    u, v = P.phi(t_any, rho_out)
    outer_err = worst(u - np.exp(t_any), v - np.exp(t_any) * rho_out)

    pos_std = local_model.contact_positivity(
        lambda r: local_model.contact_profile("standard", r, eps), P.rho_max, 2000,
        h=POSITIVITY_STEP,
    )
    pos_lutz = local_model.contact_positivity(
        lambda r: local_model.contact_profile("lutz", r, eps), P.rho_max, 2000,
        h=POSITIVITY_STEP,
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
            0 < min_det < math.inf, "computed", min_det, "> 0",
            f"Jacobian determinant positive outside exclusion radius {local_model.FOLD_EXCLUSION}",
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
            0 < pos_std < math.inf and 0 < pos_lutz < math.inf, "computed",
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
    for name, value in (("b1", mi.b1), ("b3", mi.b3)):
        if value < 0:
            raise CertifyError(name, f"must be >= 0, got {value}")
    if mi.b1 != mi.b3:
        raise CertifyError(
            "b1, b3",
            f"Poincare duality on a closed oriented 4-manifold needs b1 = b3, "
            f"got b1 = {mi.b1} and b3 = {mi.b3}",
        )
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
        try:
            s.check_square(Q)
        except ValueError as exc:
            raise CertifyError(f"surfaces[{i}].self_intersection", str(exc)) from exc
    # each edge is one positive transverse intersection, so two surfaces
    # share as many edges as their classes pair to
    surfaces = mi.configuration.vertices
    for i, j in combinations(range(len(surfaces)), 2):
        met = mi.configuration.intersection(i, j)
        paired = topo_core.pairing(surfaces[i].cls, surfaces[j].cls, Q)
        if met != paired:
            raise CertifyError(
                "edges",
                f"surfaces {i} and {j} share {met} edges, but their classes pair to {paired}",
            )
    sigma = topo_core.signature(Q)
    snf = topo_core.smith_normal_form(Q.matrix)
    if snf.rank != b2 or any(v != 1 for v in snf.divisors):
        raise CertifyError(
            "intersection_form",
            "Poincare duality on a closed oriented 4-manifold needs a unimodular "
            f"form, got Smith divisors {list(snf.divisors)} for b2 = {b2}",
        )
    b2_plus = (snf.rank + sigma) // 2
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

    for cl in spinc_planner.check_spinc_constraints(mi.c, mi.configuration, Q):
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
        try:
            plan = spinc_planner.custom_circle_plan(mi.signs)
        except ValueError as exc:
            raise CertifyError("options.signs", str(exc)) from None
        clauses.append(
            CertClause(
                "custom circle signs consistent with d", plan.d == d,
                "computed", plan.d, d, "sign sum equals the circle count",
            )
        )
    else:
        plan = spinc_planner.plan_circles(d)
    levels, mids = plan.levels, plan.midpoints
    clauses.append(
        CertClause(
            "one circle per level, at midpoints",
            all(lo < mid < hi for lo, mid, hi in zip(levels, mids, levels[1:])),
            "computed", [round(v, 12) for v in mids], None,
            "nested level spheres between radius 0.9 and 1",
        )
    )
    circle_plan = {
        "signs": list(plan.signs),
        "levels": list(levels),
        "circle_levels": list(mids),
    }

    # two-handle records -----------------------------------------------------
    # without x0, two-handle i turns c_1 on its surface's class: c . S_i is
    # its rotation number (Gompf 1998, Prop. 2.3), one per surface and the
    # same in every basis of H2
    rotations = (
        list(mi.x0)
        if mi.x0 is not None
        else [topo_core.pairing(mi.c, s.cls, Q) for s in mi.configuration.vertices]
    )
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
        try:
            splan = contact_kit.plan_stabilization(unknot, target, overtwisted=True)
        except ValueError as exc:  # overtwisted, the only error is tb + rot parity
            raise CertifyError(f"two-handle {i + 1} parity", str(exc)) from None
        replay = splan.replay(unknot)
        framing = contact_kit.handle_framing(tb, 1)
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
                f"two-handle {i + 1} framing rule", fr == framing, "computed",
                fr, framing, "contact framing minus one on a convex boundary",
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
        per_circle.append({"lk": lk, "h": h, "theta_times_2": contact_kit.theta_from_h(h)})
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
        g_prime = first.genus + 1
        e_counts = spinc_planner.e_decomposition(g_prime, first.self_intersection)
        clauses.append(
            CertClause(
                "capping surface genus g' = g + 1", True,
                "computed", g_prime, first.genus + 1,
                "connected sum with one standard torus",
            )
        )
        clauses.append(
            CertClause(
                "capping handle decomposition", True, "computed",
                list(e_counts),
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


def _add_option_flags(p: argparse.ArgumentParser) -> None:
    for name, kind in _OPTIONS:
        p.add_argument("--" + name.replace("_", "-"), type=kind)


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
    _add_option_flags(p)

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
    _add_option_flags(p)
    return parser


def _load_matrix(arg: str) -> SymmetricForm:
    # JSON text starts with [ or {; anything else names a file
    if arg.lstrip().startswith(("[", "{")):
        text = arg
    else:
        try:
            text = Path(arg).read_text()
        except OSError as exc:
            raise CertifyError("matrix", f"not JSON text and not a readable file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertifyError("matrix", f"not valid JSON: {exc}") from exc
    if isinstance(data, dict):
        data = data.get("matrix", data.get("intersection_form"))
        if data is None:
            raise CertifyError("matrix", "no 'matrix' field in JSON object")
    try:
        return SymmetricForm(matrix=data)
    except (ValueError, TypeError) as exc:
        raise CertifyError("matrix", str(exc)) from exc


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # the options given as flags; the other commands have none
    flags = {
        name: value for name, _ in _OPTIONS
        if (value := getattr(args, name, None)) is not None
    }
    try:
        if args.command == "certify":
            if args.signs is not None:
                try:
                    flags["signs"] = tuple(int(v) for v in args.signs.split(",") if v.strip())
                except ValueError:
                    raise CertifyError(
                        "--signs", f"must be comma-separated integers, got {args.signs!r}"
                    ) from None
            cert = certify(replace(parse_input(args.input), **flags))
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
            # the defaults of certify: a dataclass keeps each field's default
            # as a class attribute
            opts = {name: getattr(ManifoldInput, name) for name, _ in _OPTIONS} | flags
            summary, clauses = run_local_battery(
                opts["seed"], opts["grid"], opts["tolerance"], opts["profile_eps"],
                opts["profile_delta"],
            )
            ok = all(c.passed for c in clauses)
            for c in clauses:
                status = "PASS" if c.passed else "FAIL"
                print(f"[{status}] {c.name}: {c.value}")
            if args.out:
                Path(args.out).write_text(_dumps(_strict(summary)))
            print("overall:", "PASS" if ok else "FAIL")
            return 0 if ok else 1

    except (CertifyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
