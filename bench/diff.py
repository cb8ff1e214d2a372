"""Median ratios between two pytest-benchmark JSON files.

    python bench/diff.py BENCH_28.json BENCH_31.json

For each case in both files it prints the two medians, their ratio old/new
(above 1 means the new run is faster) and each run's interquartile range,
so a ratio can be read against the spread of the runs.  Cases in only one
file are listed by name.
"""

from __future__ import annotations

import json
import sys


def load(path) -> dict[str, dict]:
    with open(path) as f:
        return {b["name"]: b["stats"] for b in json.load(f)["benchmarks"]}


def diff(old_path, new_path) -> list[str]:
    old, new = load(old_path), load(new_path)
    header = ("case", "old ms", "new ms", "old/new", "old IQR", "new IQR")
    lines = ["{:<40} {:>10} {:>10} {:>8} {:>9} {:>9}".format(*header)]
    for name in sorted(old.keys() & new.keys()):
        a, b = old[name], new[name]
        lines.append(
            f"{name:<40} {a['median'] * 1e3:10.4f} {b['median'] * 1e3:10.4f} "
            f"{a['median'] / b['median']:7.2f}x {a['iqr'] * 1e3:9.4f} {b['iqr'] * 1e3:9.4f}"
        )
    for name in sorted(old.keys() ^ new.keys()):
        lines.append(f"{name:<40} only in {old_path if name in old else new_path}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python bench/diff.py OLD.json NEW.json")
    print("\n".join(diff(sys.argv[1], sys.argv[2])))
