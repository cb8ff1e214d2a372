"""``bench/diff.py`` on the committed BENCH files: every case of the older
file is in the newer one, and each gets a median ratio."""

from pathlib import Path

from diff import diff, load

ROOT = Path(__file__).resolve().parent.parent


def test_diff_of_the_committed_bench_files():
    old, new = ROOT / "BENCH_28.json", ROOT / "BENCH_31.json"
    lines = diff(old, new)
    assert load(old).keys() <= load(new).keys()
    for name in load(old):
        (line,) = (line for line in lines if line.split()[0] == name)
        assert line.split()[3].endswith("x")
    added = load(new).keys() - load(old).keys()
    assert {line.split()[0] for line in lines if "only in" in line} == added
