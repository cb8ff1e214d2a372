"""In-memory span tracing of the package's public functions.

The tracer wraps each public function of the five modules at every name it
is reachable through (module attributes, and class attributes for methods),
records one span per call (name, start, end, parent span, operation id) in
flat arrays, and derives per-layer self times and counts after the run.
Nothing inside the package is changed; ``uninstall`` restores every name.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

# (module, attribute path) -> per-layer metric that receives its self time
SPANS = {
    ("certify_cli", "parse_input"): "certify_cli.parse_s",
    ("certify_cli", "manifold_input_from_dict"): "certify_cli.parse_s",
    ("certify_cli", "certify"): "certify_cli.certify_self_s",
    ("certify_cli", "run_local_battery"): "certify_cli.battery_self_s",
    ("certify_cli", "ConstructionCertificate.to_json"): "certify_cli.serialize_s",
    ("certify_cli", "ConstructionCertificate.report"): "certify_cli.serialize_s",
    ("topo_core", "signature"): "topo_core.signature_s",
    ("topo_core", "smith_normal_form"): "topo_core.smith_normal_form_s",
    ("topo_core", "SymmetricForm.det"): "topo_core.det_s",
    ("topo_core", "pairing"): "topo_core.pairing_s",
    ("topo_core", "is_characteristic"): "topo_core.is_characteristic_s",
    ("spinc_planner", "check_spinc_constraints"): "spinc_planner.check_spinc_constraints_self_s",
    ("spinc_planner", "plan_circles"): "spinc_planner.plan_circles_s",
    ("contact_kit", "plan_stabilization"): "contact_kit.plan_stabilization_s",
    ("contact_kit", "StabilizationPlan.replay"): "contact_kit.replay_s",
    ("contact_kit", "obstruction_from_lk"): "contact_kit.ledger_s",
    ("contact_kit", "theta_from_h"): "contact_kit.ledger_s",
    ("contact_kit", "total_obstruction"): "contact_kit.ledger_s",
    ("local_model", "phi_immersion_check"): "local_model.immersion_s",
    ("local_model", "ProfileCurve.phi"): "local_model.phi_s",
    ("local_model", "ProfileCurve.__init__"): "local_model.profile_curve_init_s",
    ("local_model", "J_near"): "local_model.pointwise_s",
    ("local_model", "omega_near_Z"): "local_model.pointwise_s",
    ("local_model", "metric_g"): "local_model.pointwise_s",
    ("local_model", "hodge_star_2form"): "local_model.pointwise_s",
    ("local_model", "honda_form"): "local_model.pointwise_s",
    ("local_model", "wedge_square"): "local_model.pointwise_s",
    ("local_model", "contact_positivity"): "local_model.positivity_s",
    ("local_model", "d_omega_numeric"): "local_model.d_omega_s",
}
# called 12000 times per battery from inside contact_positivity: counted only
COUNTED = {("local_model", "contact_profile"): "local_model.profile_calls"}

# the immersion check and the closedness check are one battery stage each:
# the phi and omega_near_Z calls they make are timed as part of them
FOLD_INTO = {"local_model.immersion_s", "local_model.d_omega_s"}
# parts of pointwise_s reported on their own as well
PARTS = {"local_model.metric_g": "local_model.metric_g_s",
         "local_model.hodge_star_2form": "local_model.hodge_star_s"}

# stage of each span that the pipeline or the battery calls directly; the
# names follow the stages that the stage trace planned in ROADMAP.md will emit
STAGES = {
    "certify_cli.parse_input": "parse",
    "certify_cli.manifold_input_from_dict": "parse",
    "topo_core.signature": "exact_invariants",
    "topo_core.smith_normal_form": "exact_invariants",
    "topo_core.pairing": "exact_invariants",
    "spinc_planner.check_spinc_constraints": "spinc_constraints",
    "spinc_planner.plan_circles": "spinc_constraints",
    "contact_kit.plan_stabilization": "stabilization",
    "contact_kit.StabilizationPlan.replay": "stabilization",
    "contact_kit.obstruction_from_lk": "ledger",
    "contact_kit.theta_from_h": "ledger",
    "contact_kit.total_obstruction": "ledger",
    "certify_cli.ConstructionCertificate.to_json": "serialize",
    "certify_cli.ConstructionCertificate.report": "serialize",
    "local_model.J_near": "battery.pointwise",
    "local_model.omega_near_Z": "battery.pointwise",
    "local_model.metric_g": "battery.pointwise",
    "local_model.hodge_star_2form": "battery.pointwise",
    "local_model.honda_form": "battery.pointwise",
    "local_model.wedge_square": "battery.pointwise",
    "local_model.d_omega_numeric": "battery.closedness",
    "local_model.phi_immersion_check": "battery.immersion",
    "local_model.ProfileCurve.phi": "battery.fold_and_patches",
    "local_model.contact_positivity": "battery.positivity",
    "local_model.ProfileCurve.__init__": "battery.profile_curve",
}
STAGE_NAMES = tuple(dict.fromkeys(STAGES.values()))
# spans whose direct children are pipeline stages
CONTAINERS = {"op", "certify_cli.certify", "certify_cli.run_local_battery"}

COUNTS = (
    "certify_cli.errors",
    "topo_core.signature_calls",
    "topo_core.signature_n3",
    "topo_core.pairing_calls",
    "spinc_planner.circles",
    "contact_kit.replay_steps",
    "local_model.immersion_points",
    "local_model.phi_points",
    "local_model.pointwise_calls",
    "local_model.profile_calls",
)


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a stable order."""
    times = sorted(set(SPANS.values()) | set(PARTS.values()))
    stages = [f"stage.{s}_s" for s in STAGE_NAMES]
    ratios = ["local_model.phi_unique_t_ratio", "local_model.curve_cache_hit_ratio"]
    trace = ["trace.spans", "trace.overhead_s", "trace.overhead_share"]
    return times + list(COUNTS) + ratios + stages + trace


def _resolve(owner, path: str):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder; ``install`` patches the package, ``uninstall`` undoes it."""

    def __init__(self, package):
        self.modules = {
            name: getattr(package, name)
            for name in ("certify_cli", "topo_core", "spinc_planner", "contact_kit", "local_model")
        }
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self.wrapped: list[str] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._last_error = None
        self._op_kind = self._kind("op")
        self._hook_kind = self._kind("trace.hook")
        self._build()

    # -- recording ----------------------------------------------------------

    def _open(self, kind: int) -> int:
        idx = len(self.end)
        self.kind.append(kind)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _kind(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def begin_op(self, op_id: int) -> int:
        self.op_id = op_id
        return self._open(self._op_kind)

    def end_op(self, idx: int) -> None:
        self._close(idx)

    def _span_wrapper(self, fn, name: str, hook):
        kind = self._kind(name)
        counts_errors = name.startswith("certify_cli.")
        signature = inspect.signature(fn) if hook is not None else None
        tracer = self
        # bound methods, looked up once: this wrapper runs 10^5 times per battery
        clock = time.perf_counter
        stack, end = self.stack, self.end
        kind_add, parent_add, op_add = self.kind.append, self.parent.append, self.op.append
        start_add, end_add, push, pop = self.start.append, self.end.append, stack.append, stack.pop

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(end)
            kind_add(kind)
            parent_add(stack[-1])
            op_add(tracer.op_id)
            end_add(0.0)
            push(idx)
            start_add(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if counts_errors and exc is not tracer._last_error:
                    tracer._last_error = exc
                    tracer.counts["certify_cli.errors"] += 1
                raise
            finally:
                end[idx] = clock()
                pop()
            if hook is not None:
                # counting can cost more than the call; give it its own span
                h = tracer._open(tracer._hook_kind)
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer.counts, bound.arguments, result)
                tracer._close(h)
            return result

        return wrapper

    def _count_wrapper(self, fn, metric: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def _build(self) -> None:
        """Make one wrapper per target and find every name it replaces:
        every module attribute of the package that refers to a function
        (``spinc_planner.pairing`` is ``topo_core.pairing``), or the class
        attribute of a method."""
        targets = [(key, True) for key in SPANS] + [(key, False) for key in COUNTED]
        for (module, path), timed in targets:
            owner, attr = _resolve(self.modules[module], path)
            original = vars(owner)[attr]
            name = f"{module}.{path}"
            if timed:
                wrapper = self._span_wrapper(original, name, HOOKS.get(name))
            else:
                wrapper = self._count_wrapper(original, COUNTED[(module, path)])
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [(mod, a) for mod in self.modules.values()
                         for a, value in vars(mod).items() if value is original]
                if not sites:
                    raise RuntimeError(f"{name} is not reachable through any module attribute")
            self._patches += [(o, a, original, wrapper) for o, a in sites]
            self.wrapped.append(name)

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the span table as a compressed numpy archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            kind=np.frombuffer(self.kind, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def summary(self) -> tuple[dict, Counter]:
        """The traced run's per-layer values (times, stage times, counts,
        ratios) and the number of calls each wrapped name recorded.

        A span's self time is its duration minus the durations of its direct
        child spans; spans nest strictly because the run is single-threaded.
        """
        kinds = np.frombuffer(self.kind, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))
        self_times = (dur - child).tolist()

        metric_of = {f"{m}.{p}": metric for (m, p), metric in SPANS.items()}
        names = [self.names[k] for k in kinds.tolist()]
        parents = parent.tolist()
        attributed: list = [None] * len(names)
        stage: list = [None] * len(names)
        values: Counter = Counter()
        calls: Counter = Counter()
        pointwise_calls = 0
        # a parent span always precedes its children in the table
        for i, name in enumerate(names):
            if name == "trace.hook":
                continue
            calls[name] += 1
            p = parents[i]
            if p >= 0 and attributed[p] in FOLD_INTO:
                attributed[i] = attributed[p]
            else:
                attributed[i] = metric_of.get(name)
                pointwise_calls += attributed[i] == "local_model.pointwise_s"
                if name in PARTS:
                    values[PARTS[name]] += self_times[i]
            if p >= 0:
                stage[i] = STAGES.get(name) if names[p] in CONTAINERS else stage[p]
            if attributed[i] is not None:
                values[attributed[i]] += self_times[i]
            if stage[i] is not None:
                values[f"stage.{stage[i]}_s"] += self_times[i]

        counts = self.counts
        counts["local_model.pointwise_calls"] = pointwise_calls
        values.update({k: counts[k] for k in COUNTS})
        points = counts["local_model.phi_points"]
        values["local_model.phi_unique_t_ratio"] = counts["phi_unique_t"] / points if points else 0.0
        values["trace.spans"] = len(names)
        for (module, path), metric in COUNTED.items():
            calls[f"{module}.{path}"] = counts[metric]
        return values, calls


# ---------------------------------------------------------------------------
# counting hooks: (counts, arguments by parameter name, result) -> None
# ---------------------------------------------------------------------------


def _signature_hook(counts, a, result):
    counts["topo_core.signature_calls"] += 1
    counts["topo_core.signature_n3"] += a["Q"].dim ** 3


def _pairing_hook(counts, a, result):
    counts["topo_core.pairing_calls"] += 1


def _plan_circles_hook(counts, a, result):
    counts["spinc_planner.circles"] += len(result.signs)


def _replay_hook(counts, a, result):
    counts["contact_kit.replay_steps"] += a["self"].total


def _immersion_hook(counts, a, result):
    counts["local_model.immersion_points"] += a["grid"] ** 2


def _phi_hook(counts, a, result):
    t = np.asarray(a["t"])
    counts["local_model.phi_points"] += np.broadcast(t, np.asarray(a["rho"])).size
    counts["phi_unique_t"] += np.unique(t).size


HOOKS = {
    "topo_core.signature": _signature_hook,
    "topo_core.pairing": _pairing_hook,
    "spinc_planner.plan_circles": _plan_circles_hook,
    "contact_kit.StabilizationPlan.replay": _replay_hook,
    "local_model.phi_immersion_check": _immersion_hook,
    "local_model.ProfileCurve.phi": _phi_hook,
}
