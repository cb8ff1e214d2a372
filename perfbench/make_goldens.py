"""Rewrite perfbench/goldens/ from the current program.

Run from the repository root:  python3 perfbench/make_goldens.py

A golden holds the option-independent part of a fixture certificate (see
workloads.golden_fields).  Rewrite them only for a change that is meant to
alter those bytes, and say so in CHANGES.md.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from nearsymp import certify_cli  # noqa: E402

from workloads import FIXTURES, GOLDEN_DIR, golden_fields  # noqa: E402

GOLDEN_DIR.mkdir(exist_ok=True)
for name in FIXTURES:
    cert = certify_cli.certify(certify_cli.parse_input(certify_cli.fixture_path(name)))
    (GOLDEN_DIR / name).write_text(golden_fields(json.loads(cert.to_json())))
    print(f"wrote {GOLDEN_DIR / name}")
