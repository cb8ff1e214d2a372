"""End-to-end pipeline and command line: input parsing, certification,
determinism, abort behavior, and the utility subcommands."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearsymp import certify_cli
from nearsymp.certify_cli import (
    CertClause,
    CertifyError,
    ManifoldInput,
    certify,
    emit_certificate,
    fixture_path,
    main,
    manifold_input_from_dict,
    parse_input,
    run_local_battery,
)
from nearsymp.spinc_planner import SurfaceSpec
from oracles import certificate_json_reference, pointwise_identities_loop

FIXTURES = ["three_cp2.json", "circle_times_y.json"]
DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_parse(name):
    mi = parse_input(fixture_path(name))
    assert isinstance(mi, ManifoldInput)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_round_trip(name, tmp_path):
    # the fixture document with every optional field added, written out and
    # read back, parses to the fixture with those fields replaced
    doc = json.loads(fixture_path(name).read_text())
    n = len(doc["intersection_form"])
    doc["distinguished_pair"] = {"two_handle": 0, "one_handle": 0}
    doc["spinc"] = dict(doc["spinc"], x_prime=[1] * n, z=[0] * n)
    doc["options"] = dict(doc["options"], signs=[-1, 1])
    out = tmp_path / "echo.json"
    out.write_text(json.dumps(doc))
    want = dataclasses.replace(
        parse_input(fixture_path(name)),
        distinguished_pair=(0, 0), x_prime=(1,) * n, z=(0,) * n, signs=(-1, 1),
    )
    assert parse_input(out) == want


def test_every_key_of_the_input_format_parses():
    doc = {
        "intersection_form": [[1, 0], [0, -1]],
        "b1": 1,
        "b3": 1,
        "surfaces": [
            {"genus": 2, "cls": [1, 0], "self_intersection": 1},
            {"genus": 0, "cls": [0, 1], "self_intersection": -1},
        ],
        "edges": [[1, 0]],
        "side_conditions": ["simply connected"],
        "spinc": {"c": [1, 1], "x0": [3, 1], "x_prime": [1, 0], "z": [0, 2]},
        "handle_counts": [1, 1, 2, 1, 1],
        "two_handle_framings": [1, -1],
        "distinguished_pair": {"two_handle": 1, "one_handle": 0},
        "options": {
            "tolerance": 1e-7, "grid": 40, "seed": 5,
            "profile_eps": 1.5, "profile_delta": 0.25, "signs": [-1, 1, -1],
        },
    }
    # the document sets every key the schema knows
    assert set(doc) == set(certify_cli._TOP_FIELDS)
    assert set(doc["spinc"]) == set(certify_cli._SPINC_FIELDS)
    assert set(doc["options"]) == set(certify_cli._OPTION_FIELDS)
    mi = manifold_input_from_dict(doc)
    assert mi.intersection_form.matrix == [[1, 0], [0, -1]]
    assert (mi.b1, mi.b3) == (1, 1)
    assert mi.configuration.vertices == (
        SurfaceSpec(genus=2, cls=(1, 0), self_intersection=1),
        SurfaceSpec(genus=0, cls=(0, 1), self_intersection=-1),
    )
    assert mi.configuration.edges == ((0, 1),)
    assert mi.configuration.side_conditions == ("simply connected",)
    assert (mi.c, mi.x0, mi.x_prime, mi.z) == ((1, 1), (3, 1), (1, 0), (0, 2))
    assert mi.handle_counts == (1, 1, 2, 1, 1)
    assert mi.two_handle_framings == (1, -1)
    assert mi.distinguished_pair == (1, 0)
    assert mi.signs == (-1, 1, -1)
    assert (mi.tolerance, mi.grid, mi.seed) == (1e-7, 40, 5)
    assert (mi.profile_eps, mi.profile_delta) == (1.5, 0.25)


_FIXTURE = json.loads(fixture_path("three_cp2.json").read_text())
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(ManifoldInput)}
_OPTION_VALUES = st.one_of(
    st.integers(-(10**400), 10**400),
    st.floats(),  # NaN and +-inf included
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.one_of(st.integers(-3, 3), st.floats(), st.none()), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(certify_cli._OPTION_FIELDS + ("colour",)), _OPTION_VALUES
    )
)
def test_options_parse_or_name_the_option(options):
    # no battery runs here: values the battery cannot use are rejected by
    # the parser, and every other value reaches ManifoldInput unchanged
    data = dict(_FIXTURE, options=options)
    try:
        mi = manifold_input_from_dict(data)
    except CertifyError as exc:
        assert any(f"options.{key}" in str(exc) for key in options), str(exc)
        return
    for key in certify_cli._OPTION_FIELDS:
        want = options.get(key, _DEFAULTS[key])
        assert getattr(mi, key) == (tuple(want) if isinstance(want, list) else want), key


def test_missing_form_names_the_field():
    with pytest.raises(CertifyError) as err:
        manifold_input_from_dict({"b1": 0, "b3": 0, "surfaces": [], "spinc": {}})
    assert "intersection_form" in str(err.value)


def test_missing_surface_field_names_the_path():
    data = json.loads(fixture_path("three_cp2.json").read_text())
    del data["surfaces"][1]["genus"]
    with pytest.raises(CertifyError) as err:
        manifold_input_from_dict(data)
    assert "surfaces[1]" in str(err.value)


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(CertifyError):
        parse_input(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CertifyError):
        parse_input(bad)


# ---------------------------------------------------------------------------
# certification pipeline
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def three_cp2():
    return parse_input(fixture_path("three_cp2.json"))


def test_certify_three_plus_ones_passes(three_cp2):
    cert = certify(three_cp2, run_battery=False)
    assert cert.passed
    assert cert.invariants == {"chi": 5, "sigma": 3, "c_squared": 19, "d": 0}
    assert tuple(cert.circle_plan["signs"]) == (-1, 1)
    assert cert.obstructions["residual"] == 0
    assert cert.seed == three_cp2.seed


def test_certify_product_configuration_passes():
    mi = parse_input(fixture_path("circle_times_y.json"))
    cert = certify(mi, run_battery=False)
    assert cert.passed
    assert cert.invariants["d"] == 0
    assert cert.obstructions["residual"] == 0


def test_certify_replays_huge_rotation_targets(three_cp2):
    big = 10**20 + 1
    mi = dataclasses.replace(three_cp2, x0=(1, 3, big))
    cert = certify(mi, run_battery=False)
    assert cert.passed
    assert cert.two_handles[2]["rotation"] == big
    replay = next(c for c in cert.clauses if c.name == "two-handle 3 stabilization replay")
    assert replay.passed and replay.value == [2, big]


def test_certify_aborts_on_unsatisfiable_pairing(three_cp2):
    bad = dataclasses.replace(three_cp2, c=(1, 1, 3), x0=None)
    with pytest.raises(CertifyError) as err:
        certify(bad, run_battery=False)
    assert "unstabilized adjunction" in str(err.value)
    assert "1 != 3" in str(err.value)


def test_certify_aborts_on_dimension_mismatch(three_cp2):
    bad = dataclasses.replace(three_cp2, c=(1, 3))
    with pytest.raises(CertifyError) as err:
        certify(bad, run_battery=False)
    assert "dimension" in str(err.value)


def test_certify_aborts_without_positive_part():
    mi = manifold_input_from_dict(
        {
            "intersection_form": [[-1]],
            "b1": 0,
            "b3": 0,
            "surfaces": [
                {"genus": 0, "cls": [1], "self_intersection": -1}
            ],
            "spinc": {"c": [1]},
        }
    )
    with pytest.raises(CertifyError) as err:
        certify(mi, run_battery=False)
    assert "b2+" in str(err.value)


def test_certify_custom_signs_checked_against_count(three_cp2):
    mi = dataclasses.replace(three_cp2, signs=(-1, 1, -1, 1))
    cert = certify(mi, run_battery=False)
    assert cert.passed  # still sums to d = 0
    mi = dataclasses.replace(three_cp2, signs=(-1, -1))
    cert = certify(mi, run_battery=False)
    assert not cert.passed  # sign sum -2 disagrees with d = 0
    assert cert.obstructions["residual"] != 0


def test_certificate_deterministic_with_battery(three_cp2):
    fast = dataclasses.replace(three_cp2, grid=60)
    first = certify(fast).to_json()
    second = certify(fast).to_json()
    assert first == second
    assert '"passed": true' in first


# The exact side of a certificate, pinned byte for byte: <stem>.exact.json
# and <stem>.exact.txt hold to_json() and report() of certify(...,
# run_battery=False).  The battery is left out, since its floats come from
# numpy's exp, sin and cos, whose last bit may depend on the CPU's SIMD path.
@pytest.mark.parametrize(
    "path",
    [fixture_path("three_cp2.json"), fixture_path("circle_times_y.json"), DATA / "b2_48.json"],
    ids=lambda path: path.stem,
)
def test_exact_certificate_bytes_are_pinned(path):
    cert = certify(parse_input(path), run_battery=False)
    assert cert.to_json() == (DATA / f"{path.stem}.exact.json").read_text()
    assert cert.report() == (DATA / f"{path.stem}.exact.txt").read_text()


def test_to_json_matches_the_recursive_copy(three_cp2):
    cert = certify(dataclasses.replace(three_cp2, grid=20))
    cert.clauses.append(
        CertClause(
            "numpy values", np.bool_(True), "computed",
            {"flag": np.bool_(False), "count": np.int64(-3), "x": np.float64(1 / 3)},
            [np.array([0.1, -2.5e-17, np.float64(7.0)]), np.arange(3), np.float32(0.1)],
        )
    )
    assert cert.to_json() == certificate_json_reference(cert)


def test_certificate_emission(three_cp2, tmp_path):
    cert = certify(three_cp2, run_battery=False)
    paths = emit_certificate(cert, tmp_path / "cert")
    assert [p.name for p in paths] == ["cert.json", "cert.txt"]
    data = json.loads(paths[0].read_text())
    assert data["passed"] is True
    report = paths[1].read_text()
    assert "overall: PASS" in report
    assert "residual obstruction: 0" in report


def test_assumption_clauses_are_labelled(three_cp2):
    cert = certify(three_cp2, run_battery=False)
    kinds = {c.kind for c in cert.clauses}
    assert kinds == {"computed", "assumption"}
    for c in cert.clauses:
        assert c.anchor  # every clause carries its justification string


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_plan_circles(capsys):
    assert main(["plan-circles", "-d", "3"]) == 0
    assert capsys.readouterr().out.strip() == "(-1,+1,+1,+1,+1)"


def test_cli_obstruction(capsys):
    assert main(["obstruction", "--elliptic", "2", "--hyperbolic", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_stabilize(capsys):
    code = main(
        ["stabilize", "--from-tb", "-1", "--from-rot", "0",
         "--to-tb", "-5", "--to-rot", "2", "--tight"]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "p=3 q=1 r=0 s=0"


def test_cli_signature_inline_matrix(capsys):
    assert main(["signature", "[[0,1],[1,0]]"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_signature_from_file(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"matrix": [[1,0],[0,1]]}')
    assert main(["signature", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_certify_writes_certificate(tmp_path, capsys):
    out = tmp_path / "cert"
    code = main(
        ["certify", str(fixture_path("three_cp2.json")),
         "--out", str(out), "--grid", "60"]
    )
    assert code == 0
    assert (tmp_path / "cert.json").exists()
    assert (tmp_path / "cert.txt").exists()
    assert "overall: PASS" in capsys.readouterr().out


def test_cli_certify_missing_file_exits_2(tmp_path, capsys):
    assert main(["certify", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_certify_bad_signs_exit_1(tmp_path, capsys):
    code = main(
        ["certify", str(fixture_path("three_cp2.json")),
         "--grid", "60", "--signs=-1,-1"]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "patch, flags, field",
    [
        ({"handle_counts": [1, 0]}, [], "handle_counts"),
        ({"surfaces": []}, [], "surfaces"),
        ({"options": {"grid": 0}}, [], "grid"),
        ({}, ["--grid", "1"], "grid"),
        # a falsy value is read like any other
        ({"options": {"signs": []}}, [], "options.signs"),
        ({"options": {"signs": 0}}, [], "options.signs"),
        ({"options": {"signs": False}}, [], "options.signs"),
        ({}, ["--signs", "a"], "--signs"),
    ],
)
def test_cli_certify_malformed_input_exits_2(tmp_path, capsys, patch, flags, field):
    data = json.loads(fixture_path("three_cp2.json").read_text())
    data.update(patch)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["certify", str(path), *flags]) == 2
    err = capsys.readouterr().err
    assert field in err
    assert "Traceback" not in err


def _set_cls(data):
    data["surfaces"][0]["cls"] = 3


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.update(distinguished_pair={"two_handle": 0}), "one_handle"),
        (_set_cls, "surfaces[0].cls"),
        (lambda d: d.update(intersection_form=[[1, 0], [0]]), "intersection_form"),
        (lambda d: d.update(b1=None), "b1"),
        (lambda d: d.update(edges=[[0, 7]]), "edges[0]"),
        (lambda d: d.update(colour="blue"), "colour"),
        (lambda d: d["spinc"].update(x_prime=[1]), "spinc.x_prime"),
        (lambda d: d["spinc"].update(z=[0, 0, 0, 0]), "spinc.z"),
    ],
    ids=["pair-without-one-handle", "scalar-class", "ragged-form", "null-b1",
         "edge-to-missing-surface", "unknown-field", "short-x-prime", "long-z"],
)
def test_cli_certify_rejects_malformed_field(tmp_path, capsys, mutate, field):
    data = json.loads(fixture_path("three_cp2.json").read_text())
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["certify", str(path), "--grid", "20"]) == 2
    captured = capsys.readouterr()
    assert field in captured.err
    assert "Traceback" not in captured.err
    assert "overall" not in captured.out


@pytest.mark.parametrize("b1, b3", [(2, 0), (0, 1)])
def test_cli_certify_rejects_b1_unequal_b3(tmp_path, capsys, b1, b3):
    # without handle_counts no clause can see the mismatch: b1 = 2, b3 = 0
    # on three_cp2 used to give chi = 3, d = 1 and exit 0
    data = json.loads(fixture_path("three_cp2.json").read_text())
    data.update(b1=b1, b3=b3)
    del data["handle_counts"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["certify", str(path), "--grid", "20"]) == 2
    captured = capsys.readouterr()
    assert f"b1 = {b1} and b3 = {b3}" in captured.err
    assert "Poincare duality" in captured.err
    assert "Traceback" not in captured.err
    assert "overall" not in captured.out


def _fractional_form(tmp_path):
    data = json.loads(fixture_path("three_cp2.json").read_text())
    data["intersection_form"][0][0] = 1.7
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return ["certify", str(path), "--grid", "20"]


def _fractional_count(tmp_path):
    data = json.loads(fixture_path("three_cp2.json").read_text())
    data["handle_counts"] = [1, 0, 3.9, 0, 1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return ["certify", str(path), "--grid", "20"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (_fractional_form, "intersection_form"),
        (_fractional_count, "handle_counts"),
        (lambda tmp_path: ["signature", "[[1.7,0],[0,1]]"], "matrix"),
    ],
    ids=["form-entry", "handle-count", "signature-matrix"],
)
def test_cli_rejects_fractional_integer_entries(tmp_path, capsys, argv, field):
    # int() would truncate 1.7 to 1 and 3.9 to 3 and carry on with exit 0
    assert main(argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert field in captured.err
    assert "must be integers" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


_UNUSABLE = [
    ("profile_eps", math.nan),
    ("profile_eps", 0.0),
    # eps^2/2 is 0, inf, or below the 2e-6 that contact_positivity steps over
    ("profile_eps", 1e-300),
    ("profile_eps", 1e155),
    ("profile_eps", 1e-20),
    ("profile_eps", 1e-3),
    ("profile_delta", math.inf),
    ("profile_delta", -0.5),
    ("tolerance", math.nan),
    ("tolerance", -1.0),
    ("seed", -1),
]


@pytest.mark.parametrize("name, value", _UNUSABLE)
@pytest.mark.parametrize("source", ["options", "certify-flag", "local-check-flag"])
def test_cli_rejects_unusable_option_values(tmp_path, capsys, source, name, value):
    # the same rule and the same exit code whatever the value came through
    flag = f"--{name.replace('_', '-')}={value}"
    if source == "local-check-flag":
        argv = ["local-check", flag]
    else:
        data = json.loads(fixture_path("three_cp2.json").read_text())
        if source == "options":
            data["options"] = {name: value}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(data))  # NaN and Infinity as Python writes them
        argv = ["certify", str(path), "--grid", "20"]
        if source == "certify-flag":
            argv.append(flag)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert name in captured.err
    if source == "options":
        assert f"options.{name}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_smallest_usable_profile_eps_gives_a_certificate(capsys):
    # eps^2/2 = 2e-6 exactly: the profile map folds over, a FAIL with exit 1
    argv = ["certify", str(fixture_path("three_cp2.json")), "--grid", "20", "--profile-eps", "2e-3"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "[FAIL] profile map is an orientation-preserving immersion" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("grid", ["0", "1", "-3"])
def test_cli_local_check_rejects_small_grid(capsys, grid):
    assert main(["local-check", "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert "grid" in captured.err
    assert "zero-size" not in captured.err
    assert "Traceback" not in captured.err
    assert "overall" not in captured.out


def test_cli_bad_matrix_exits_2(capsys):
    assert main(["signature", "not json"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("matrix", ["5", '{"matrix": 3}', "[[true]]"])
def test_cli_signature_of_a_non_matrix_exits_2(capsys, matrix):
    # a scalar raised a TypeError traceback (exit 1) and [[true]] printed 1
    assert main(["signature", matrix]) == 2
    captured = capsys.readouterr()
    assert "matrix" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_cli_local_check(capsys, tmp_path):
    out = tmp_path / "battery.json"
    code = main(["local-check", "--grid", "60", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text
    summary = json.loads(out.read_text())
    assert summary["min_jacobian_det"] > 0
    assert summary["fold_zone_error"] == 0.0


@pytest.mark.parametrize("samples", [1, 255, 256, 257, 2000])
def test_battery_identities_match_the_per_sample_loop(samples):
    # one short block, one exact block, a partial last block and many blocks
    summary, _ = run_local_battery(
        seed=11, grid=2, tolerance=1e-9, eps=1.0, delta=0.2, samples=samples
    )
    want = pointwise_identities_loop(11, samples)
    assert want["samples"] == samples
    for key, value in want.items():
        assert summary[key] == value, key
