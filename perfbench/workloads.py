"""Inputs, operations and output checks for the three benchmark workloads.

Every operation goes through the package's public entry points only:
``parse_input`` (which calls ``manifold_input_from_dict``) -> ``certify``
-> ``ConstructionCertificate.to_json`` / ``report``, or ``run_local_battery``.
Inputs are a pure function of the workload seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
FIXTURES = ("three_cp2.json", "circle_times_y.json")

# exact_batch: one round certifies one manifold of each size and block
# structure, so every round does about the same exact work whatever the seed
EXACT_B2 = tuple(range(4, 49, 4))
EXACT_VARIANTS = 3
# framings and rotation targets of the two-handles are drawn from
# [-FRAMING_RANGE, FRAMING_RANGE]; each handle then replays up to a few
# hundred stabilization steps
FRAMING_RANGE = 300
# the basis change is this many layers of elementary operations on disjoint
# pairs of basis vectors; bounded so matrix entries stay small (see README:
# unbounded changes hang)
BASIS_LAYERS = 2

# certify_full: the options a user varies, each drawn from one stratum per
# generated input so the mix of values is the same for every seed
EPS_RANGE = (0.6, 1.5)
DELTA_RANGE = (0.1, 0.3)
FULL_GENERATED = 4
FULL_B2 = (2, 6)

# battery_dense: local-check scaled up
BATTERY_SAMPLES = 20_000
BATTERY_GRID = 100
BATTERY_POOL = 4
# calls into local_model per kept sample in run_local_battery's loop:
# J_near, omega_near_Z, metric_g, hodge_star_2form, honda_form, wedge_square
POINTWISE_PER_SAMPLE = 6
# contact_positivity evaluates each of its two profiles at 3 x 2000 points
PROFILE_CALLS_PER_BATTERY = 6 * 2000


# ---------------------------------------------------------------------------
# the exact_batch generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    """What an input implies, known from its construction."""

    invariants: dict | None = None  # chi, sigma, c_squared, d
    b2: int = 0
    replay_steps: int = 0
    circles: int = 0
    golden: str | None = None  # fixture name


def _circle_count(d: int) -> int:
    return -d if d < 0 else (d + 2 if d > 0 else 2)


def _replay_steps(data: dict) -> int:
    """Stabilization steps the two-handles of an input imply: the unknot
    (-1, 0) moves to (framing + 1, rotation) in max(|dtb|, |drot|) steps."""
    framings = data.get("two_handle_framings") or [s["self_intersection"] for s in data["surfaces"]]
    rotations = data["spinc"].get("x0") or data["spinc"]["c"]
    return sum(max(abs(fr + 2), abs(rot)) for fr, rot in zip(framings, rotations))


def generate_manifold(rng: random.Random, b2: int, variant: int) -> tuple[dict, Expected]:
    """A manifold description with known sigma, chi, c^2 and d.

    The form is an orthogonal sum of <+1>, <-1> and hyperbolic blocks, in
    proportions fixed by ``variant`` (0, 1 or 2).  The surfaces are +1-spheres
    on the first <+1> blocks; the class c is 1 on the first (the stabilized
    adjunction target), 3 on the others, and a random characteristic value
    elsewhere.  A bounded random unimodular basis change P then gives
    Q' = P^T Q P and coordinates v' = P^-1 v for c and the surface classes,
    which leaves every pairing unchanged.

    P is drawn from a generator keyed by (b2, variant) alone, so the form,
    and with it the cost of its signature and Smith form, is the same for
    every seed; ``rng`` draws the class, the framings and the rotations.
    """
    h = variant * b2 // 8
    rest = b2 - 2 * h
    q = rest // 3
    p = rest - q
    n_surf = min(p, 2 + variant)
    diag = [1] * p + [-1] * q
    c = [1] + [3] * (n_surf - 1) + [rng.choice((-3, -1, 1, 3)) for _ in range(p + q - n_surf)]
    Q = [[0] * b2 for _ in range(b2)]
    for i, v in enumerate(diag):
        Q[i][i] = v
    for k in range(h):
        i = p + q + 2 * k
        Q[i][i + 1] = Q[i + 1][i] = 1
        c += [rng.choice((-2, 0, 2)), rng.choice((-2, 0, 2))]
    c_squared = sum(v * c[i] * c[i] for i, v in enumerate(diag)) + sum(
        2 * c[p + q + 2 * k] * c[p + q + 2 * k + 1] for k in range(h)
    )
    sigma = p - q
    b1 = variant
    chi = 2 - 2 * b1 + b2
    d = (c_squared - 3 * sigma - 2 * chi) // 4
    classes = [[1 if j == i else 0 for j in range(b2)] for i in range(n_surf)]

    # basis change: a permutation, then elementary operations
    # E = I + a e_i e_j^T, applied as Q <- E^T Q E and v <- E^-1 v
    basis_rng = random.Random(f"basis:{b2}:{variant}")
    perm = list(range(b2))
    basis_rng.shuffle(perm)
    Q = [[Q[perm[r]][perm[s]] for s in range(b2)] for r in range(b2)]
    vecs = [c] + classes
    vecs = [[v[perm[r]] for r in range(b2)] for v in vecs]
    for _ in range(BASIS_LAYERS):
        order = list(range(b2))
        basis_rng.shuffle(order)
        for i, j in zip(order[0::2], order[1::2]):
            a = basis_rng.choice((-1, 1))
            for row in Q:  # Q E: column j += a * column i
                row[j] += a * row[i]
            Q[j] = [x + a * y for x, y in zip(Q[j], Q[i])]  # E^T (Q E)
            for v in vecs:  # E^-1 v: entry i -= a * entry j
                v[i] -= a * v[j]
    c, classes = vecs[0], vecs[1:]

    rotations, framings = [], []
    for i in range(b2):
        rot = rng.randint(-FRAMING_RANGE, FRAMING_RANGE)
        rot += (rot - c[i]) % 2  # parity of the class, as a cocycle would have
        fr = rng.randint(-FRAMING_RANGE, FRAMING_RANGE)
        fr += (fr - rot) % 2  # tb + rot parity of the Legendrian target
        rotations.append(rot)
        framings.append(fr)
    data = {
        "intersection_form": Q,
        "b1": b1,
        "b3": b1,
        "handle_counts": [1, b1, b2, b1, 1],
        "two_handle_framings": framings,
        "surfaces": [
            {"genus": 0, "cls": cls, "self_intersection": 1} for cls in classes
        ],
        "edges": [],
        "spinc": {"c": c, "x0": rotations},
        "options": {},
    }
    expected = Expected(
        invariants={"chi": chi, "sigma": sigma, "c_squared": c_squared, "d": d},
        b2=b2,
        replay_steps=_replay_steps(data),
        circles=_circle_count(d),
    )
    return data, expected


# ---------------------------------------------------------------------------
# workload items
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Item:
    """One operation's input: a manifold file with optional CLI-style option
    overrides, or a battery configuration."""

    key: str
    path: str | None = None
    overrides: dict | None = None
    battery: dict | None = None
    run_battery: bool = False
    expected: Expected = Expected()


def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled."""
    w = (hi - lo) / n
    vals = [round(lo + w * (k + rng.random()), 6) for k in range(n)]
    rng.shuffle(vals)
    return vals


def build_items(workload: str, seed: int, src: Path, workdir: Path) -> list[Item]:
    """The workload's inputs for this seed; generated manifolds are written
    to ``workdir`` so that every operation parses a file, as the CLI does."""
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)

    def generated(key: str, b2: int, variant: int, options: dict, run_battery: bool) -> Item:
        data, exp = generate_manifold(rng, b2, variant)
        data["options"] = options
        path = workdir / f"{key}.json"
        path.write_text(json.dumps(data))
        return Item(key, path=str(path), run_battery=run_battery, expected=exp)

    if workload == "exact_batch":
        shapes = [(b2, v) for b2 in EXACT_B2 for v in range(EXACT_VARIANTS)]
        rng.shuffle(shapes)
        return [generated(f"m{k}-b2-{b2}", b2, v, {}, False) for k, (b2, v) in enumerate(shapes)]
    if workload == "certify_full":
        n = len(FIXTURES) + FULL_GENERATED
        eps = _strata(rng, *EPS_RANGE, n)
        delta = _strata(rng, *DELTA_RANGE, n)
        items = []
        for k in range(n):
            opts = {
                "seed": rng.randrange(2**31),
                "profile_eps": eps[k],
                "profile_delta": delta[k],
            }
            if k < len(FIXTURES):
                path = src / "nearsymp" / "fixtures" / FIXTURES[k]
                data = json.loads(path.read_text())
                golden = json.loads((GOLDEN_DIR / FIXTURES[k]).read_text())
                exp = Expected(
                    b2=len(data["intersection_form"]),
                    replay_steps=_replay_steps(data),
                    circles=len(golden["circle_plan"]["signs"]),
                    golden=FIXTURES[k],
                )
                items.append(Item(FIXTURES[k], path=str(path), overrides=opts,
                                  run_battery=True, expected=exp))
            else:
                items.append(generated(f"m{k}", rng.randint(*FULL_B2), k % 3, opts, True))
        return items
    if workload == "battery_dense":
        return [
            Item(
                f"battery{k}",
                battery={
                    "seed": rng.randrange(2**31),
                    "grid": BATTERY_GRID,
                    "tolerance": 1e-9,
                    "eps": 1.0,
                    "delta": 0.2,
                    "samples": BATTERY_SAMPLES,
                },
            )
            for k in range(BATTERY_POOL)
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# one operation and its checks
# ---------------------------------------------------------------------------


def run_item(cli, item: Item):
    """The timed operation.  Returns what check() needs."""
    if item.battery is not None:
        summary, clauses = cli.run_local_battery(**item.battery)
        return summary, clauses
    mi = cli.parse_input(item.path)
    if item.overrides:
        mi = replace(mi, **item.overrides)  # as `certify FILE --seed ...` does
    cert = cli.certify(mi, run_battery=item.run_battery)
    return cert, cert.to_json(), cert.report()


def golden_fields(cert_dict: dict) -> str:
    """The option-independent part of a fixture certificate, as canonical
    JSON.  FD-derived floats and the echoed options are left out."""
    keep = {k: cert_dict[k] for k in ("invariants", "circle_plan", "two_handles", "obstructions")}
    keep["clauses"] = [
        {"name": c["name"], "kind": c["kind"], "passed": c["passed"]}
        for c in cert_dict["clauses"]
    ]
    return json.dumps(keep, indent=2, sort_keys=True) + "\n"


def check(item: Item, result, seen: dict) -> list[str]:
    """Correctness problems with one operation's output (empty if none).

    ``seen`` maps item keys to the digest of their first output in this run;
    a repeated input must give identical bytes.
    """
    problems = []
    if item.battery is not None:
        summary, clauses = result
        failed = [c.name for c in clauses if not c.passed]
        if failed:
            problems.append(f"battery clauses failed: {failed}")
        want = item.battery["samples"]
        if not 0.99 * want <= summary["samples"] <= want:
            problems.append(f"kept {summary['samples']} of {want} samples")
        blob = json.dumps(summary, sort_keys=True) + "".join(
            f"{c.name}|{c.passed}|{c.value!r}\n" for c in clauses
        )
    else:
        cert, text, report = result
        if not cert.passed:
            problems.append("certificate failed: " + ", ".join(
                c.name for c in cert.clauses if not c.passed))
        data = json.loads(text)
        exp = item.expected
        if exp.invariants is not None and data["invariants"] != exp.invariants:
            problems.append(f"invariants {data['invariants']} != {exp.invariants}")
        if exp.circles and len(data["circle_plan"]["signs"]) != exp.circles:
            problems.append("circle count differs from the plan implied by d")
        if exp.golden is not None:
            golden = (GOLDEN_DIR / exp.golden).read_text()
            if golden_fields(data) != golden:
                problems.append(f"{exp.golden}: certificate differs from golden")
        blob = text + report
    digest = hashlib.sha256(blob.encode()).hexdigest()
    if seen.setdefault(item.key, digest) != digest:
        problems.append(f"{item.key}: output bytes differ on repeat")
    return problems


# ---------------------------------------------------------------------------
# what a traced run must have seen
# ---------------------------------------------------------------------------


def facts(item: Item, result) -> dict:
    """Counts an operation's input implies, for the traced run's coverage check."""
    if item.battery is not None:
        summary, _ = result
        return {"batteries": 1, "kept": summary["samples"], "grid2": item.battery["grid"] ** 2}
    cert = result[0]
    exp = item.expected
    out = {"certify": 1, "b2_cubed": exp.b2**3, "replay_steps": exp.replay_steps,
           "circles": exp.circles}
    if item.run_battery:
        out.update(batteries=1, kept=cert.local_checks["samples"],
                   grid2=cert.tolerances["grid"] ** 2)
    return out


def _reaches(workload: str, name: str) -> bool:
    battery = name.startswith("local_model.") or name == "certify_cli.run_local_battery"
    return {"exact_batch": not battery, "battery_dense": battery}.get(workload, True)


def coverage(workload: str, wrapped: list[str], calls: dict, counts: dict,
             op_facts: list) -> list[str]:
    """Every wrapped name the workload reaches must have been called, none
    that it bypasses may have been, and the counts must match the inputs."""
    problems = []
    for name in wrapped:
        if _reaches(workload, name) and not calls[name]:
            problems.append(f"coverage: {name} recorded no call")
        if not _reaches(workload, name) and calls[name]:
            problems.append(f"coverage: {name} called {calls[name]} times on a bypassing workload")
    total: dict = {}
    for f in op_facts:
        for k, v in (f or {}).items():
            total[k] = total.get(k, 0) + v
    b = total.get("batteries", 0)
    want = {
        "local_model.pointwise_calls": POINTWISE_PER_SAMPLE * total.get("kept", 0),
        "local_model.immersion_points": total.get("grid2", 0),
        "local_model.profile_calls": PROFILE_CALLS_PER_BATTERY * b,
        "topo_core.signature_calls": total.get("certify", 0),
        "topo_core.signature_n3": total.get("b2_cubed", 0),
        "contact_kit.replay_steps": total.get("replay_steps", 0),
        "spinc_planner.circles": total.get("circles", 0),
    }
    for key, value in want.items():
        if counts[key] != value:
            problems.append(f"coverage: {key} = {counts[key]}, inputs imply {value}")
    return problems
