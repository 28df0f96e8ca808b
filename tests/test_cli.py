"""Command-line interface: commands, formats, exit codes, determinism."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import cliffkit
from cliffkit.cli import main, parse_region_spec, parse_set_spec
from cliffkit.structural import StructuralSet


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_reference_fields(capsys):
    expected_regions = {
        "(x2^2 - x1^2)*e[2] - 2*x1*x2*e[3] - x1*e[1,2] + x3*e[2,3]": "H∩Hpp∩I",
        "2*x1*x3*e[1] - x2*e[2] - (x1^2 - x3^2)*e[3]": "H∩Hpp∩I",
        "2*x2*x3*e[1] - (x1^2 + x2^2)*e[2]": "Hpp∩I",
        "x1*x3*e[1] + x2*e[2]": "H∩I",
        "(x1*x2 + x2*x3)*e[2]": "H∩Hpp",
    }
    for expr, want in expected_regions.items():
        code, out, _ = run_cli(
            capsys, "classify", "--m", "3", "--phi", "standard", "--psi", "reversed",
            "--expr", expr, "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["region"] == want


def test_classify_zero_and_degree_one(capsys):
    code, out, _ = run_cli(capsys, "classify", "--m", "3", "--expr", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["region"] == "H∩Hpp∩I" and payload["hypLeft"]

    code, out, _ = run_cli(capsys, "classify", "--m", "3", "--expr", "x1*e[1]", "--format", "json")
    payload = json.loads(out)
    assert payload["harmonic"] and payload["phiPsiHarmonic"] and payload["inframonogenic"]


def test_classify_parse_error_exits_2(capsys):
    code, out, err = run_cli(capsys, "classify", "--m", "3", "--expr", "x1 + x9")
    assert code == 2
    assert "position" in err


def test_classify_json_schema(capsys):
    code, out, _ = run_cli(capsys, "classify", "--m", "2", "--expr", "x1*e[1]", "--format", "json")
    payload = json.loads(out)
    assert set(payload) == {"harmonic", "phiPsiHarmonic", "inframonogenic", "hypLeft", "hypRight", "region"}


def test_verify_quick_run_exits_0(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "2", "--trials", "2", "--seed", "7")
    assert code == 0
    assert "checks passed" in out


def test_verify_corrupt_negative_control(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--m", "2", "--trials", "2", "--corrupt", "psi-recursion",
    )
    assert code == 1
    assert "FAIL" in out and "psi-recursion" in out


def test_verify_rejects_unknown_corrupt_target(capsys):
    code, _, err = run_cli(capsys, "verify", "--m", "2", "--trials", "2", "--corrupt", "nope")
    assert code == 2
    assert "unknown check" in err


def test_verify_rejects_bad_m(capsys):
    code, _, err = run_cli(capsys, "verify", "--m", "0", "--trials", "2")
    assert code == 2


def test_verify_deterministic_output(capsys):
    args = ("verify", "--m", "2,3", "--trials", "3", "--seed", "5", "--format", "json")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_solve_reference_configuration(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--m", "3", "--degree", "2", "--phi", "standard", "--psi", "reversed",
        "--region", "H,Hpp,I", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"]["triple"] >= 1
    assert payload["dims"]["H"] == 40
    assert len(payload["witnesses"]) == 1
    assert set(payload["dims"]) == {"H", "Hpp", "I", "H∩Hpp", "H∩I", "Hpp∩I", "triple"}


def test_solve_degree_zero_trivial(capsys):
    code, out, _ = run_cli(capsys, "solve", "--m", "2", "--degree", "0", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"]["H"] == payload["dims"]["triple"] == 4


def test_demo_passes(capsys):
    code, out, _ = run_cli(capsys, "demo")
    assert code == 0
    assert "examples match" in out


def test_demo_json(capsys):
    code, out, _ = run_cli(capsys, "demo", "--format", "json")
    payload = json.loads(out)
    assert payload["allPass"] is True
    assert all({"name", "expected", "actual", "ok"} == set(i) for i in payload["items"])


def test_set_specs(tmp_path):
    assert parse_set_spec("standard", 3) == StructuralSet.standard(3)
    assert parse_set_spec("reversed", 3) == StructuralSet.reversed_standard(3)
    assert parse_set_spec("signedperm:3,-1,2", 3) == StructuralSet.signed_permutation(3, [3, -1, 2])
    rot = parse_set_spec("rot2:1/2", 2)
    assert rot == StructuralSet.rotation_2d("3/5", "4/5")
    refl = parse_set_spec("refl2:1/2", 2)
    assert refl == StructuralSet.reflection_2d("3/5", "4/5")
    path = tmp_path / "mat.json"
    path.write_text(json.dumps([["3/5", "-4/5"], ["4/5", "3/5"]]))
    assert parse_set_spec(f"matrix:{path}", 2) == StructuralSet.rotation_2d("3/5", "4/5")


def test_set_spec_errors():
    from cliffkit.cli import UsageError

    with pytest.raises(UsageError):
        parse_set_spec("bogus", 3)
    with pytest.raises(UsageError):
        parse_set_spec("rot2:1/2", 3)
    with pytest.raises(UsageError):
        parse_set_spec("matrix:/does/not/exist.json", 2)


def test_region_spec_parsing():
    assert parse_region_spec("H,Hpp,I").classes == frozenset({"H", "Hpp", "I"})
    assert parse_region_spec("none").classes == frozenset()
    from cliffkit.cli import UsageError

    with pytest.raises(UsageError):
        parse_region_spec("H,X")


def test_matrix_set_spec_error_cases(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "classify", "--m", "2", "--expr", "x1",
                           "--phi", f"matrix:{bad}")
    assert code == 2


GOLDEN_STDOUT_SHA256 = {
    ("verify", "--m", "2,3", "--trials", "2", "--seed", "0", "--format", "json"):
        "9f1ec594a18858c4658b851d8892245b491580cf8eb3f57646520eee7d139e31",
    # degree 1: every class matrix has zero rows
    ("solve", "--m", "3", "--degree", "1"):
        "fe989ad2f4aefcd676595f07d4c6d15954760d11efb437fd301c907dcb7f7802",
    # region none: the witness pool is the whole space
    ("solve", "--m", "3", "--degree", "2", "--region", "none"):
        "d3c922c9ef2796f1de327931a20ea17495d219c8d2ca919eb90a5587d3daaa0b",
    ("solve", "--m", "3", "--degree", "2", "--phi", "standard", "--psi", "reversed",
     "--region", "H,Hpp,I", "--format", "json"):
        "94039cd3cb306376d230da4a0cd8c164c7aabc9aae6cd53566e07a496f71113e",
    ("demo",):
        "e93b8075d2a00c53220a6e17b5b8294cc3a86c54270cacdc4ee64d49b44a5103",
    ("demo", "--format", "json"):
        "dfdb5cf9b393c048714f65355175d29d23827030830bb8da49cff08799159bed",
    ("classify", "--m", "2", "--phi", "rot2:1/2", "--psi", "refl2:2/3",
     "--expr", "(x1^2 - x2^2)*e[1] + x1*x2*e[1,2]"):
        "332212e232ed71bef1ce4d9c509020274317ef89cb81b1db560327438f2030aa",
    ("classify", "--m", "3", "--phi", "signedperm:2,-3,1", "--psi", "reversed",
     "--expr", "x1*x3*e[1] + x2*e[2]", "--format", "json"):
        "3d065ebdd0cd5bbc9264b659c87278753ca172eb499fdf7dde36119c8107714b",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT_SHA256), ids=" ".join)
def test_golden_stdout(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


def test_non_orthogonal_matrix_spec_message(tmp_path, capsys):
    path = tmp_path / "shear.json"
    path.write_text(json.dumps([["1", "1"], ["0", "1"]]))
    code, out, err = run_cli(capsys, "classify", "--m", "2", "--expr", "x1", "--phi", f"matrix:{path}")
    assert code == 2
    assert out == ""
    assert err == "error: matrix is not orthogonal: row dot (1,1) = 2\n"


@pytest.mark.parametrize("expr", ["(" * 2000 + "x1" + ")" * 2000, "-" * 5000 + "x1"],
                         ids=["2000 nested parentheses", "5000 leading minus signs"])
def test_deeply_nested_expression_is_a_parse_error(capsys, expr):
    code, _, err = run_cli(capsys, "classify", "--m", "2", f"--expr={expr}")
    assert code == 2
    assert "position" in err
    assert "Traceback" not in err


def test_huge_power_of_one_variable_answers():
    # A subprocess with a timeout, so that a regression to n successive
    # multiplications fails instead of hanging the suite.
    src = pathlib.Path(cliffkit.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cliffkit", "classify", "--m", "2", "--expr", "x1^100000000"],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "harmonic: False" in proc.stdout.splitlines()
