"""Benchmark of `nearsymp certify`: one workload, one run.

    python3 perfbench/run.py --workload exact_batch --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ./src.  With
--trace 0 the last line of output is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run.  The
line before it records the environment and how the tail was taken.  See
perfbench/README.md for the workloads, the metrics and what each should move.
"""

import os

# one thread for every numerical library, before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("exact_batch", "certify_full", "battery_dense")
SETUP_REPEATS = 5
TAIL_BEYOND = 10  # latency_tail_s is the highest percentile with 10 samples above it
MIN_OPS = TAIL_BEYOND + 1
# a CLI call pays a fresh interpreter plus this import
IMPORT_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import nearsymp.certify_cli"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup(workload: str, seed: int, workloads):
    """Fresh-interpreter import plus input generation, repeated; returns the
    median time and the items of the last repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)], check=True)
        items = workloads.build_items(workload, seed, SRC, WORK / f"{workload}-{seed}")
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times, items


class Runner:
    """Runs operations, times them, checks every output."""

    def __init__(self, cli, workloads, items, round_size: int):
        self.cli = cli
        self.workloads = workloads
        self.items = items
        self.round_size = round_size
        self.seen: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._next = 0

    def one(self, index: int, tracer=None):
        """Run item ``index`` once.  Returns the latency, the facts of a
        passing operation (else None), and whether the operation hit
        ``_curve_for``'s cache without a miss."""
        item = self.items[index]
        curve_cache = self.cli.local_model._curve_for
        misses = curve_cache.cache_info().misses
        hits = curve_cache.cache_info().hits
        gc.collect()
        span = tracer.begin_op(self.attempted) if tracer else None
        t0 = time.perf_counter()
        try:
            result = self.workloads.run_item(self.cli, item)
        except Exception:  # a failed operation is counted, the run goes on
            result = None
            err = traceback.format_exc()
        latency = time.perf_counter() - t0
        if tracer:
            tracer.end_op(span)
        self.attempted += 1
        info = curve_cache.cache_info()
        hit = info.misses == misses and info.hits > hits
        problems = (
            self.workloads.check(item, result, self.seen)
            if result is not None
            else [f"{item.key} raised:\n{err}"]
        )
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return latency, None, hit
        return latency, self.workloads.facts(item, result), hit

    def _rounds(self, seconds: float, min_ops: int):
        """Item indices, in whole rounds, until ``seconds`` have passed and
        ``min_ops`` have been handed out."""
        t_end = time.perf_counter() + seconds
        n = 0
        while time.perf_counter() < t_end or n < min_ops:
            for _ in range(self.round_size):
                yield self._next
                self._next = (self._next + 1) % len(self.items)
                n += 1

    def timed(self, seconds: float):
        """Latencies of untraced operations, and how many hit the curve cache."""
        runs = [self.one(index) for index in self._rounds(seconds, MIN_OPS)]
        return [r[0] for r in runs], sum(r[2] for r in runs)

    def traced(self, seconds: float, tracer):
        """Each operation runs traced and untraced back to back, alternating
        which goes first, so that drift of the machine and warm caches cancel
        out of the tracing overhead.  Returns traced latencies, untraced
        latencies, the traced operations' curve-cache hits and their facts."""
        traced_lat, plain_lat, facts, hits = [], [], [], 0
        for n, index in enumerate(self._rounds(seconds, 1)):
            if n % 2:
                plain_lat.append(self.one(index)[0])
            tracer.install()
            try:
                latency, fact, hit = self.one(index, tracer)
            finally:
                tracer.uninstall()
            traced_lat.append(latency)
            facts.append(fact)
            hits += hit
            if not n % 2:
                plain_lat.append(self.one(index)[0])
        return traced_lat, plain_lat, hits, facts


def tail(latencies):
    """(value, percentile): the highest sample with TAIL_BEYOND samples above it."""
    s = sorted(latencies)
    k = len(s) - TAIL_BEYOND
    return s[k - 1], 100.0 * k / len(s)


def end_to_end(lat, runner, setup_s):
    value, pct = tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (value, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "pass_ratio": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }
    return metrics, {"tail_percentile": round(pct, 2), "latency_samples": len(lat)}


def per_layer(workload, workloads, tracer_mod, tracer, traced, untraced, cache_hits, facts):
    """Per-layer metrics of the traced operations, and coverage problems."""
    values, calls = tracer.summary()
    values["local_model.curve_cache_hit_ratio"] = cache_hits / len(traced)
    values["trace.overhead_s"] = sum(traced) - sum(untraced)
    values["trace.overhead_share"] = values["trace.overhead_s"] / sum(untraced)
    metrics = {}
    for name in tracer_mod.per_layer_names():
        unit = "s" if name.endswith("_s") else ("ratio" if "ratio" in name or "share" in name else "count")
        metrics[name] = (values.get(name, 0), unit)
    problems = workloads.coverage(workload, tracer.wrapped, calls, tracer.counts, facts)
    return metrics, problems


def emit(correct, runner, metrics, info):
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nearsymp" / "certify_cli.py").is_file():
        print(f"error: no package source at {SRC}/nearsymp; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import nearsymp
    from nearsymp import certify_cli
    if Path(nearsymp.__file__).resolve().parent != SRC / "nearsymp":
        print(f"error: imported nearsymp from {nearsymp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    import workloads

    setup_s, setup_times, items = setup(args.workload, args.seed, workloads)
    round_size = len(items) if args.workload == "exact_batch" else 1
    runner = Runner(certify_cli, workloads, items, round_size)
    runner.one(0)  # warm-up: caches filled, lazy imports done; checked, not timed
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "setup_samples_s": [round(t, 6) for t in setup_times],
    }
    if args.trace == 0:
        lat, hits = runner.timed(args.seconds)
        metrics, tail_info = end_to_end(lat, runner, setup_s)
        info.update(tail_info)
        info["curve_cache_hit_ratio"] = hits / len(lat)
        problems = list(runner.problems)
    else:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer(nearsymp)
        lat, untraced, hits, facts = runner.traced(args.seconds, tracer)
        metrics, problems = per_layer(
            args.workload, workloads, tracer_mod, tracer, lat, untraced, hits, facts
        )
        spans = WORK / f"spans-{args.workload}-{args.seed}.npz"
        tracer.write(spans)
        info["spans_file"] = str(spans.relative_to(ROOT))
        info["traced_ops"] = len(lat)
        layer_times = {k: v for k, (v, u) in metrics.items()
                       if u == "s" and not k.startswith(("stage.", "trace."))}
        info["largest_layers"] = sorted(layer_times, key=layer_times.get, reverse=True)[:4]
        problems = list(runner.problems) + problems
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    emit(runner.failed == 0 and not problems, runner, metrics, info)
    return 0


if __name__ == "__main__":
    sys.exit(main())
