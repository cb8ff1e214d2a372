"""End-to-end pipeline and command line: input parsing, certification,
determinism, abort behavior, and the utility subcommands."""

import contextlib
import dataclasses
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
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
from oracles import (
    certificate_json_indented,
    certificate_json_reference,
    dumps_indented,
    pointwise_identities_loop,
)

FIXTURES = ["three_cp2.json", "circle_times_y.json"]
DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


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
    doc["spinc"] = dict(doc["spinc"], x0=[1] * n)
    doc["options"] = dict(doc["options"], signs=[-1, 1])
    out = tmp_path / "echo.json"
    out.write_text(json.dumps(doc))
    want = dataclasses.replace(parse_input(fixture_path(name)), x0=(1,) * n, signs=(-1, 1))
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
        "spinc": {"c": [1, 1], "x0": [3, 1]},
        "handle_counts": [1, 1, 2, 1, 1],
        "two_handle_framings": [1, -1],
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
    assert (mi.c, mi.x0) == ((1, 1), (3, 1))
    assert mi.handle_counts == (1, 1, 2, 1, 1)
    assert mi.two_handle_framings == (1, -1)
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


def test_certify_genus_100_places_d_plus_two_circles():
    # the genus-g variant of three_cp2 (c_1 = x0_1 = 1 - 2g) has d = g (g - 1):
    # d + 2 circles, one at the midpoint of each interval of d + 3 levels
    g = 100
    doc = json.loads(fixture_path("three_cp2.json").read_text())
    doc["surfaces"][0]["genus"] = g
    doc["spinc"]["c"][0] = doc["spinc"]["x0"][0] = 1 - 2 * g
    cert = certify(manifold_input_from_dict(doc), run_battery=False)
    d = g * (g - 1)
    assert cert.invariants["d"] == d
    assert len(cert.circle_plan["signs"]) == d + 2
    assert len(cert.circle_plan["levels"]) == d + 3
    assert len(cert.circle_plan["circle_levels"]) == d + 2
    levels = {c.name: c for c in cert.clauses}["one circle per level, at midpoints"]
    assert levels.passed and levels.kind == "computed"


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


def _k3_document() -> dict:
    """A K3 surface as -E8 + -E8 + 3H, with one genus-1 surface of square 2
    (e + f in the first H) and c = 0, and no x0.  By hand: sigma = -16,
    chi = 2 + 22 = 24 and c^2 = 0 = 2 chi + 3 sigma, so d = (0 + 48 - 48)/4
    = 0."""
    # -E8: the negative Cartan matrix of E8, a chain of seven nodes with the
    # eighth joined to the third
    minus_e8 = [[-2 if i == j else 0 for j in range(8)] for i in range(8)]
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]:
        minus_e8[a][b] = minus_e8[b][a] = 1
    form = [[0] * 22 for _ in range(22)]
    for k in (0, 8):
        for i in range(8):
            form[k + i][k:k + 8] = minus_e8[i]
    for a in (16, 18, 20):
        form[a][a + 1] = form[a + 1][a] = 1
    cls = [0] * 22
    cls[16] = cls[17] = 1
    return {
        "intersection_form": form,
        "b1": 0,
        "b3": 0,
        "surfaces": [{"genus": 1, "cls": cls, "self_intersection": 2}],
        "edges": [],
        "spinc": {"c": [0] * 22},
        "options": {},
    }


def test_certify_k3_rotates_its_handle_by_c_on_the_surface(tmp_path, capsys):
    # the default rotation target is c . S, one per surface; c's 22
    # coordinates gave "1 two-handle framings vs 22 rotation targets"
    doc = _k3_document()
    cert = certify(manifold_input_from_dict(doc), run_battery=False)
    assert cert.invariants == {"chi": 24, "sigma": -16, "c_squared": 0, "d": 0}
    assert [(h["framing"], h["tb"], h["rotation"]) for h in cert.two_handles] == [(2, 3, 0)]
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(doc))
    assert main(["certify", str(path), "--grid", "20"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_default_rotations_do_not_depend_on_the_basis():
    # three_cp2 without x0, and the same manifold after the basis change
    # e2 <- e1 + e2: Q' = P^T Q P, with c and the classes mapped by P^-1
    doc = json.loads(fixture_path("three_cp2.json").read_text())
    del doc["spinc"]["x0"]
    P = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    P_inv = [[1, -1, 0], [0, 1, 0], [0, 0, 1]]
    Q = doc["intersection_form"]

    def inv(v):
        return [sum(P_inv[i][k] * v[k] for k in range(3)) for i in range(3)]

    changed = json.loads(json.dumps(doc))
    changed["intersection_form"] = [
        [sum(P[k][i] * Q[k][m] * P[m][j] for k in range(3) for m in range(3))
         for j in range(3)]
        for i in range(3)
    ]
    assert changed["intersection_form"] == [[1, 1, 0], [1, 2, 0], [0, 0, 1]]
    changed["spinc"]["c"] = inv(doc["spinc"]["c"])
    for surface in changed["surfaces"]:
        surface["cls"] = inv(surface["cls"])
    before = certify(manifold_input_from_dict(doc), run_battery=False)
    after = certify(manifold_input_from_dict(changed), run_battery=False)
    assert before.passed
    assert after.invariants == before.invariants
    assert after.two_handles == before.two_handles
    assert after.clauses == before.clauses


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
    assert json.loads(first)["passed"] is True


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


# run in a fresh interpreter in which every import of numpy raises
# ImportError; argv[1] is the directory of the pins, the rest are inputs
_WITHOUT_NUMPY = """
import contextlib, io, sys
sys.modules["numpy"] = None
from pathlib import Path
from nearsymp.certify_cli import certify, main, parse_input

data = Path(sys.argv[1])
for path in map(Path, sys.argv[2:]):
    cert = certify(parse_input(path), run_battery=False)
    assert cert.to_json() == (data / f"{path.stem}.exact.json").read_text(), path
    assert cert.report() == (data / f"{path.stem}.exact.txt").read_text(), path
for argv in (
    ["signature", "[[0,1],[1,0]]"],
    ["plan-circles", "-d", "3"],
    ["stabilize", "--from-tb", "-1", "--from-rot", "0", "--to-tb", "-5", "--to-rot", "2"],
    ["obstruction", "--elliptic", "2", "--hyperbolic", "1"],
):
    assert main(argv) == 0, argv
assert "nearsymp.local_model" not in sys.modules
# the battery needs numpy: exit 2 with one error line, no traceback
for argv in (["certify", sys.argv[2]], ["local-check"]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(argv) == 2, argv
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "numpy" in lines[0], lines
"""


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True
    )


def test_exact_layer_runs_without_numpy():
    inputs = [fixture_path(name) for name in FIXTURES] + [DATA / "b2_48.json"]
    done = _run_python(_WITHOUT_NUMPY, str(DATA), *map(str, inputs))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["0", "(-1,+1,+1,+1,+1)", "p=3 q=1 r=0 s=0", "1"]


def test_importing_the_cli_loads_no_numpy():
    code = (
        "import sys, nearsymp.certify_cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy' "
        "or m == 'nearsymp.local_model'))"
    )
    done = _run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_local_model_is_an_attribute_of_the_package_and_the_cli():
    import nearsymp

    local_model = importlib.import_module("nearsymp.local_model")
    assert nearsymp.local_model is local_model
    assert certify_cli.local_model is local_model
    for module in (nearsymp, certify_cli):
        with pytest.raises(AttributeError):
            module.no_such_module


def test_to_json_matches_the_recursive_copy(three_cp2):
    cert = certify(dataclasses.replace(three_cp2, grid=20))
    assert cert.to_json() == certificate_json_reference(cert)


@pytest.mark.parametrize("path, battery", [
    (fixture_path("three_cp2.json"), {"grid": 20}),
    (fixture_path("circle_times_y.json"), {"grid": 20}),
    (DATA / "b2_48.json", None),
    # a failing certificate with non-finite battery values
    (fixture_path("three_cp2.json"), {"grid": 20, "profile_eps": 1e100}),
], ids=["three_cp2", "circle_times_y", "b2_48-exact", "eps-1e100"])
def test_to_json_parses_to_the_indented_document(path, battery):
    # the layout is one line on the C encoder; the document is the one the
    # indented layout wrote
    mi = parse_input(path)
    with np.errstate(all="ignore"):
        cert = certify(mi, run_battery=False) if battery is None else certify(
            dataclasses.replace(mi, **battery)
        )
    text = cert.to_json()
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == json.loads(certificate_json_indented(cert))


def test_local_check_out_parses_to_the_indented_document(tmp_path, capsys):
    out = tmp_path / "battery.json"
    assert main(["local-check", "--grid", "20", "--out", str(out)]) == 0
    capsys.readouterr()
    mi = ManifoldInput
    summary, _ = run_local_battery(mi.seed, 20, mi.tolerance, mi.profile_eps, mi.profile_delta)
    text = out.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == json.loads(dumps_indented(certify_cli._strict(summary)))


def _leaves(value):
    if isinstance(value, CertClause):
        value = vars(value)
    if isinstance(value, dict):
        return [leaf for v in value.values() for leaf in _leaves(v)]
    if isinstance(value, (list, tuple)):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


@pytest.mark.parametrize("name", FIXTURES)
@pytest.mark.parametrize("eps", [1.0, 1e100])
def test_certificate_holds_only_plain_python_values(name, eps):
    # to_json has no hook for numpy values, so none may reach a certificate,
    # on a passing battery or on one whose values are NaN
    mi = dataclasses.replace(parse_input(fixture_path(name)), grid=20, profile_eps=eps)
    with np.errstate(all="ignore"):
        cert = certify(mi)
    assert cert.passed is (eps == 1.0)
    leaves = _leaves(vars(cert))
    assert {type(v) for v in leaves} <= {str, int, float, bool, type(None)}


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


@pytest.mark.parametrize("source, code, out, err", [
    ("inline", 0, "30", ""),
    ("file", 0, "30", ""),
    ("unparsable", 2, "", "error: matrix: not valid JSON"),
])
def test_cli_signature_reads_json_text_or_a_path(tmp_path, capsys, source, code, out, err):
    # the 30 x 30 identity is 2760 characters, longer than a file name may be
    text = json.dumps([[int(i == j) for j in range(30)] for i in range(30)])
    assert len(text) > 255
    if source == "file":
        path = tmp_path / "identity.json"
        path.write_text(text)
        arg = str(path)
    else:
        arg = text if source == "inline" else text[:-1]
    assert main(["signature", arg]) == code
    captured = capsys.readouterr()
    assert captured.out.strip() == out
    assert captured.err.startswith(err)
    assert arg not in captured.err
    assert "Traceback" not in captured.err


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
        # without x0 there is one rotation target per surface, not one per
        # basis vector: three framings for two surfaces
        ({"surfaces": [{"genus": 0, "cls": [1, 0, 0], "self_intersection": 1},
                       {"genus": 0, "cls": [0, 1, 0], "self_intersection": 1}],
          "spinc": {"c": [1, 3, 3]}},
         [], "3 two-handle framings vs 2 rotation targets"),
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


def test_cli_certify_rejects_a_profile_delta_the_spine_cannot_reach(capsys):
    # below delta ~ 0.0804 the left spine's plateau rate is not positive
    code = main(["certify", str(fixture_path("three_cp2.json")), "--profile-delta", "0.05"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: profile_delta: ")
    assert len(captured.err.splitlines()) == 1
    assert "overall" not in captured.out


def test_cli_certify_rejects_a_two_handle_target_of_odd_tb_plus_rot(tmp_path, capsys):
    # x0 = (2, 1, 1) keeps c characteristic, but handle 1's target (tb, rot)
    # = (2, 2) lies an odd tb + rot step from the unknot's (-1, 0)
    data = json.loads(fixture_path("three_cp2.json").read_text())
    data["spinc"]["x0"] = [2, 1, 1]
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(data))
    assert main(["certify", str(path), "--grid", "20"]) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: two-handle 1 parity: ")
    assert "Traceback" not in captured.err
    assert "overall" not in captured.out


def _set_cls(data):
    data["surfaces"][0]["cls"] = 3


@pytest.mark.parametrize(
    "mutate, field",
    [
        (_set_cls, "surfaces[0].cls"),
        (lambda d: d.update(intersection_form=[[1, 0], [0]]), "intersection_form"),
        # named as given, not as an option
        (lambda d: d.update(b1=None), "error: b1:"),
        (lambda d: d["spinc"].update(c=[1, 1.5, 3]), "error: spinc.c[1]:"),
        (lambda d: d.update(two_handle_framings=["1", 1, 1]), "error: two_handle_framings[0]:"),
        (lambda d: d.update(edges=[[0, 7]]), "edges[0]"),
        # two edges between surfaces whose classes pair to 0
        (lambda d: d.update(edges=[[0, 1], [0, 1], [1, 2]]), "error: edges: surfaces 0 and 1"),
        (lambda d: d.update(colour="blue"), "colour"),
        (lambda d: d["surfaces"][0].update(self_intersection=2),
         "error: surfaces[0].self_intersection:"),
        (lambda d: d["surfaces"][0].update(genus=-1), "error: surfaces[0].genus:"),
    ],
    ids=["scalar-class", "ragged-form", "null-b1", "fractional-class-entry",
         "string-framing", "edge-to-missing-surface", "edges-against-pairings", "unknown-field",
         "wrong-self-intersection", "negative-genus"],
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


def _non_unimodular(data):
    # diag(1, 1, 5) with the first two surfaces: c = x0 = (1, 3, 1) is
    # characteristic and meets every pairing clause, and d = -1
    data["intersection_form"] = [[1, 0, 0], [0, 1, 0], [0, 0, 5]]
    data["surfaces"] = data["surfaces"][:2]
    data["spinc"] = {"c": [1, 3, 1], "x0": [1, 3, 1]}
    data["two_handle_framings"] = [1, 1, 5]


def _negative_betti(data):
    # without handle_counts, chi = 2 - b1 + b2 - b3 = 9 sees no contradiction
    data.update(b1=-2, b3=-2)
    del data["handle_counts"]


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d["spinc"].update(x_prime=[1, 3, 3]), "unknown field 'spinc.x_prime'"),
        (lambda d: d["spinc"].update(z=[0, 0, 0]), "unknown field 'spinc.z'"),
        (lambda d: d.update(distinguished_pair={"two_handle": 0, "one_handle": 0}),
         "unknown field 'distinguished_pair'"),
        (lambda d: d.update(side_conditions=["simply connected"]),
         "unknown field 'side_conditions'"),
        (_non_unimodular, "error: intersection_form: "),
        (_negative_betti, "error: b1: "),
        (lambda d: d.update(handle_counts=[1, -1, 3, -1, 1]), "error: handle_counts: "),
    ],
    ids=["x-prime", "z", "distinguished-pair", "side-conditions", "non-unimodular",
         "negative-b1-b3", "negative-handle-count"],
)
def test_cli_certify_rejects_unused_keys_and_impossible_inputs(tmp_path, capsys, mutate, field):
    # keys nothing reads, and inputs that no closed oriented 4-manifold has
    data = json.loads(fixture_path("three_cp2.json").read_text())
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["certify", str(path), "--grid", "20"]) == 2
    captured = capsys.readouterr()
    assert field in captured.err
    assert "options." not in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_certify_rejects_negative_betti_numbers_given_directly(three_cp2):
    for b in ({"b1": -1, "b3": -1}, {"b3": -1}):
        with pytest.raises(CertifyError) as err:
            certify(dataclasses.replace(three_cp2, **b), run_battery=False)
        assert err.value.clause == next(iter(b))


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


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=reject)


def test_cli_huge_profile_eps_fails_positivity_without_traceback(tmp_path, capsys):
    # eps^2/2 = 5e199 is finite, so the option is usable; rho^2 overflows to
    # inf in the profiles, the positivity clause fails, and the exit code is
    # 1 rather than an OverflowError traceback.  The profile map's jet is
    # NaN, so its minimum determinant is NaN, not inf, and the immersion
    # clause fails too; the certificate writes the non-finite values as
    # strings
    out = tmp_path / "cert"
    argv = ["certify", str(fixture_path("three_cp2.json")), "--grid", "20",
            "--profile-eps", "1e100", "--out", str(out)]
    with np.errstate(all="ignore"):
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert "[FAIL] contact positivity of both profiles" in captured.out
    assert (
        "[FAIL] profile map is an orientation-preserving immersion off the fold: nan vs > 0"
        in captured.out
    )
    assert "overall: FAIL" in captured.out
    assert "Traceback" not in captured.err
    cert = _strict_json((tmp_path / "cert.json").read_text())
    assert cert["passed"] is False
    checks = cert["local_checks"]
    assert checks["min_jacobian_det"] == "nan"
    assert checks["contact_positivity_lutz"] == "nan"
    assert checks["patch_error_twisted"] == "nan"
    clauses = {c["name"]: c for c in cert["clauses"]}
    immersion = clauses["profile map is an orientation-preserving immersion off the fold"]
    assert immersion["passed"] is False and immersion["value"] == "nan"
    assert clauses["contact positivity of both profiles"]["value"] == [0.0, "nan"]


def test_cli_local_check_writes_strict_json(tmp_path, capsys):
    out = tmp_path / "battery.json"
    with np.errstate(all="ignore"):
        code = main(["local-check", "--grid", "20", "--profile-eps", "1e100", "--out", str(out)])
    assert code == 1
    assert "[FAIL] profile map is an orientation-preserving immersion" in capsys.readouterr().out
    summary = _strict_json(out.read_text())
    assert summary["min_jacobian_det"] == "nan"


@pytest.mark.parametrize("value, want", [
    (1.5, 1.5),
    (math.nan, "nan"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
    (np.float64(-math.inf), "-inf"),
    ({"a": (math.nan, 2, [math.inf])}, {"a": ["nan", 2, ["inf"]]}),
])
def test_strict_writes_non_finite_floats_as_strings(value, want):
    assert certify_cli._strict(value) == want


@pytest.mark.parametrize("at", [0, 255, 256, 299])
def test_pointwise_maxima_keep_a_nan(monkeypatch, at):
    # Python's max(prev, nan) keeps prev: a NaN deviation in any sample,
    # whichever block it falls in, must reach the summary and fail its clause
    from nearsymp import local_model

    calls = []
    wedge_square = local_model.wedge_square

    def nan_once(form):
        calls.append(None)
        return math.nan if len(calls) == at + 1 else wedge_square(form)

    monkeypatch.setattr(local_model, "wedge_square", nan_once)
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(300, 3))
    maxima = certify_cli._pointwise_maxima(pts)
    assert math.isnan(maxima[4])
    assert all(0 <= v <= 1e-12 for v in maxima[:4])


def test_pointwise_maxima_of_no_samples_are_zero():
    assert certify_cli._pointwise_maxima(np.empty((0, 3))) == (0.0,) * 5


def test_battery_residuals_keep_a_nan(monkeypatch):
    # a NaN in the second component of a residual, where Python's max(x, nan)
    # kept x: the closedness check's second sample and the twisted wall's f1
    from nearsymp import local_model

    calls = []
    d_omega_numeric = local_model.d_omega_numeric

    def nan_at_second_call(*args):
        calls.append(None)
        res = d_omega_numeric(*args)
        return (res[0], math.nan, *res[2:]) if len(calls) == 2 else res

    lutz_profile = local_model.ProfileCurve.lutz_profile

    def nan_first_f1(self, rho):
        g1, f1 = lutz_profile(self, rho)
        f1 = np.array(f1)
        f1.flat[0] = np.nan
        return g1, f1

    monkeypatch.setattr(local_model, "d_omega_numeric", nan_at_second_call)
    monkeypatch.setattr(local_model.ProfileCurve, "lutz_profile", nan_first_f1)
    summary, clauses = run_local_battery(
        seed=11, grid=2, tolerance=1e-9, eps=1.0, delta=0.2, samples=20
    )
    assert math.isnan(summary["max_d_omega_residual"])
    assert math.isnan(summary["patch_error_twisted"])
    failed = {c.name for c in clauses if not c.passed}
    assert "model form is closed (finite differences)" in failed
    assert "twisted patch at t = 1" in failed


@pytest.mark.parametrize("min_det", [math.inf, math.nan])
def test_immersion_clause_needs_a_finite_minimum(monkeypatch, min_det):
    # the parent read an inf minimum (every block minimum NaN) as a PASS
    from nearsymp import local_model

    monkeypatch.setattr(local_model, "phi_immersion_check", lambda *a, **k: min_det)
    _, clauses = run_local_battery(
        seed=11, grid=2, tolerance=1e-9, eps=1.0, delta=0.2, samples=1
    )
    immersion = {c.name: c for c in clauses}[
        "profile map is an orientation-preserving immersion off the fold"
    ]
    assert immersion.passed is False


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("profile", ["standard", "lutz"])
def test_positivity_clause_needs_finite_values(monkeypatch, profile, value):
    # g f' - f g' = inf or NaN says nothing about the sign: FAIL, as the
    # immersion clause does
    from nearsymp import local_model

    contact_positivity = local_model.contact_positivity
    calls = []

    def patched(*args, **kwargs):  # the battery checks standard, then lutz
        calls.append(None)
        if len(calls) == ("standard", "lutz").index(profile) + 1:
            return value
        return contact_positivity(*args, **kwargs)

    monkeypatch.setattr(local_model, "contact_positivity", patched)
    summary, clauses = run_local_battery(
        seed=11, grid=2, tolerance=1e-9, eps=1.0, delta=0.2, samples=1
    )
    assert summary[f"contact_positivity_{profile}"] is value
    positivity = {c.name: c for c in clauses}["contact positivity of both profiles"]
    assert positivity.passed is False


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


# ---------------------------------------------------------------------------
# the exit-code contract on mutated fixtures
# ---------------------------------------------------------------------------

_DOCS = {name: json.loads(fixture_path(name).read_text()) for name in FIXTURES}
# what a retyped value becomes: every JSON type, each small
_RETYPED = [None, True, 0, -1, 2, 2.0, 1.5, "1", [], [1], [[1]], {}]
_EXTREME = {
    "profile_eps": [1e-300, 1e-3, 2e-3, 0.05, 0.6, 1.0, 30.0, 1e100, 1e155, 0.0, -1.0,
                    math.inf, math.nan],
    "profile_delta": [1e-300, 1e-9, 0.05, 0.08, 0.1, 0.2, 1.0, 1e6, 1e300, 0.0, -0.5, math.inf,
                      math.nan],
    "tolerance": [0.0, 1e-300, 1e-9, 1.0, 1e300, -1.0, math.inf, math.nan],
}


def _locations(value):
    """(container, key) of every value nested in a parsed JSON document."""
    keys = value.keys() if isinstance(value, dict) else range(len(value))
    for key in list(keys):
        yield value, key
        if isinstance(value[key], (dict, list)):
            yield from _locations(value[key])


@st.composite
def _mutated_inputs(draw):
    """A fixture with a small grid and some extreme option values, then up
    to three mutations: a value dropped or retyped, or small integers where
    the pipeline reads them.  |c_i| <= 5 and genus <= 3 keep the circle
    count d small."""
    doc = json.loads(json.dumps(_DOCS[draw(st.sampled_from(FIXTURES))]))
    options = {"grid": draw(st.integers(2, 20))}
    for name, values in _EXTREME.items():
        if draw(st.booleans()):
            options[name] = draw(st.sampled_from(values))
    if draw(st.booleans()):
        options["seed"] = draw(st.integers(-1, 3))
    doc["options"] = options
    b2 = len(doc["intersection_form"])
    small = st.lists(st.integers(-5, 5), min_size=b2 - 1, max_size=b2 + 1)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["drop", "retype", "c", "x0", "framings", "surface", "signs"]))
        if kind in ("drop", "retype"):
            container, key = draw(st.sampled_from(list(_locations(doc))))
            if kind == "retype":
                container[key] = draw(st.sampled_from(_RETYPED))
            elif isinstance(container, dict):
                del container[key]
            else:
                container.pop(key)
        elif kind in ("c", "x0") and isinstance(doc.get("spinc"), dict):
            doc["spinc"][kind] = draw(small)
        elif kind == "framings":
            doc["two_handle_framings"] = draw(small)
        elif kind == "surface" and isinstance(doc.get("surfaces"), list) and doc["surfaces"]:
            surface = draw(st.sampled_from(doc["surfaces"]))
            if isinstance(surface, dict):
                surface["genus"] = draw(st.integers(0, 3))
                surface["self_intersection"] = draw(st.integers(-2, 3))
        elif kind == "signs" and isinstance(doc.get("options"), dict):
            doc["options"]["signs"] = draw(
                st.lists(st.sampled_from([1, -1, 1, -1, 0, 2]), max_size=8)
            )
    return doc


def _certify_in_process(doc: dict, base: Path) -> tuple[int, str, str]:
    """main(["certify", ...]) on ``doc``; returns (exit code, stdout, stderr)."""
    path = base.with_name(base.name + ".in.json")
    path.write_text(json.dumps(doc))  # NaN and Infinity as Python writes them
    out, err = io.StringIO(), io.StringIO()
    # the 1e100-style profiles overflow inside numpy; its warnings are not
    # part of the contract
    with np.errstate(all="ignore"), contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(err):
            code = main(["certify", str(path), "--out", str(base)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(doc=_mutated_inputs())
def test_exit_code_contract_on_mutated_fixtures(tmp_path_factory, doc):
    # exit 0, 1 or 2 and no exception; 0 exactly when the report passes; a
    # certificate that parses as strict JSON; exit 2 with one error line
    base = tmp_path_factory.mktemp("contract") / "cert"
    code, out, err = _certify_in_process(doc, base)
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert (code == 0) == ("overall: PASS" in out)
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        return
    assert err == ""
    cert = _strict_json(base.with_suffix(".json").read_text())
    assert cert["passed"] is (code == 0)
    assert out.endswith("overall: " + ("PASS" if code == 0 else "FAIL") + "\n")
