"""Keeps ``--benchmark-json`` files small enough to commit: the per-round
timings, hundreds of thousands for the microsecond cases, are dropped and
the statistics computed from them stay."""


def pytest_benchmark_update_json(config, benchmarks, output_json):
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)
