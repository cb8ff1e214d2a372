"""End-to-end pipeline and command line: input parsing, certification,
determinism, abort behavior, and the utility subcommands."""

import dataclasses
import json

import pytest

from nearsymp.certify_cli import (
    CertifyError,
    ManifoldInput,
    certify,
    emit_certificate,
    emit_input,
    fixture_path,
    main,
    manifold_input_from_dict,
    parse_input,
)

FIXTURES = ["three_cp2.json", "circle_times_y.json"]


# ---------------------------------------------------------------------------
# input parsing and round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_parse(name):
    mi = parse_input(fixture_path(name))
    assert isinstance(mi, ManifoldInput)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_round_trip(name, tmp_path):
    mi = parse_input(fixture_path(name))
    out = tmp_path / "echo.json"
    emit_input(mi, out)
    again = parse_input(out)
    assert again.to_dict() == mi.to_dict()


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


def test_cli_local_check(capsys, tmp_path):
    out = tmp_path / "battery.json"
    code = main(["local-check", "--grid", "60", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text
    summary = json.loads(out.read_text())
    assert summary["min_jacobian_det"] > 0
    assert summary["fold_zone_error"] == 0.0
