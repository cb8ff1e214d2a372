"""Benchmark cases for the stages of the local-model battery.

    PYTHONPATH=src python -m pytest bench --benchmark-only --benchmark-json BENCH_<n>.json

Each case is one stage of ``certify_cli.run_local_battery`` at the sizes the
battery runs it with: the pointwise identities at 2000 samples, the
immersion check at grid 200, each profile's contact positivity at 2000
points, and the whole battery at the defaults of ``ManifoldInput``.  With
``--benchmark-disable`` each case runs once as a plain test, which checks
its result.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from nearsymp import local_model
from nearsymp.certify_cli import (
    DEFAULT_SAMPLES,
    POSITIVITY_STEP,
    ManifoldInput,
    _pointwise_maxima,
    run_local_battery,
)

DEFAULTS = {f.name: f.default for f in fields(ManifoldInput)}
EPS, DELTA = DEFAULTS["profile_eps"], DEFAULTS["profile_delta"]


def test_pointwise_maxima(benchmark):
    # the battery's samples: uniform in [-1, 1]^3, off the zero circle
    pts = np.random.default_rng(DEFAULTS["seed"]).uniform(-1.0, 1.0, size=(DEFAULT_SAMPLES, 3))
    pts = pts[np.sqrt(4 * pts[:, 0] ** 2 + pts[:, 1] ** 2 + pts[:, 2] ** 2) >= 1e-3]
    maxima = benchmark(_pointwise_maxima, pts)
    assert max(maxima) <= 1e-12


def test_phi_immersion_check(benchmark):
    curve = local_model.ProfileCurve(eps=EPS, delta=DELTA)
    # the grid's minimum lies in the fold zone at rho = 0, t = 89/199
    expected = 4 * (89 / 199 - 0.5) ** 2
    assert abs(benchmark(local_model.phi_immersion_check, curve, 200) - expected) <= 1e-15


@pytest.mark.parametrize("kind", ["standard", "lutz"])
def test_contact_positivity(benchmark, kind):
    rho_max = local_model.ProfileCurve(eps=EPS, delta=DELTA).rho_max

    def profile(r):
        return local_model.contact_profile(kind, r, EPS)

    value = benchmark(local_model.contact_positivity, profile, rho_max, 2000, h=POSITIVITY_STEP)
    assert value > 0


def test_run_local_battery(benchmark):
    args = (DEFAULTS[k] for k in ("seed", "grid", "tolerance", "profile_eps", "profile_delta"))
    summary, clauses = benchmark(run_local_battery, *args)
    assert all(c.passed for c in clauses)
    assert summary["samples"] <= DEFAULT_SAMPLES
