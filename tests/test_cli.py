"""Command-line interface: commands, formats, exit codes, determinism."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import cliffkit
from cliffkit import cli, solver
from cliffkit.algebra import blade_order
from cliffkit.classify import HARMONIC, INFRAMONOGENIC, TWO_SET_HARMONIC
from cliffkit.cli import build_parser, main, parse_region_spec, parse_set_spec
from cliffkit.linalg import RationalMatrix, RowEchelon
from cliffkit.structural import StructuralSet, StructuralSetError, _number_text


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


def test_verify_rejects_a_repeated_m(capsys):
    code, out, err = run_cli(capsys, "verify", "--m", "2,3,2", "--trials", "1")
    assert code == 2 and out == ""
    assert "dimension 2 is given more than once" in err


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
    assert parse_region_spec(" H , I ").classes == frozenset({"H", "I"})
    from cliffkit.cli import UsageError

    with pytest.raises(UsageError):
        parse_region_spec("H,X")
    with pytest.raises(UsageError, match="names no class"):
        parse_region_spec(" , ")


def test_matrix_set_spec_error_cases(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    code, _, err = run_cli(capsys, "classify", "--m", "2", "--expr", "x1",
                           "--phi", f"matrix:{bad}")
    assert code == 2


@pytest.mark.parametrize("text", [
    "[[1e400]]",                         # infinite as a float: no OverflowError traceback
    '[["1", "0"], [0.6, 0.8]]',          # binary floats, not 3/5 and 4/5
    '[["1", "0"], [0, 1.0]]',
    '[[true, false], [false, true]]',    # booleans are not integers here
    '[["1", null], ["0", "1"]]',
    '["10", "01"]',                      # rows must be arrays, not strings
    '[["1", "0"], [["0"], "1"]]',
    '{"rows": [["1"]]}',
    '[["1", "0"], ["0", "1/0"]]',
    '[["1", "0"], ["0", "one"]]',
])
def test_matrix_set_spec_accepts_only_exact_entries(tmp_path, capsys, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "classify", "--m", "2", "--expr", "x1", "--phi", f"matrix:{path}")
    assert (code, out) == (2, "")
    assert err == f"error: matrix file {str(path)!r} must hold an array of arrays of rational strings\n"


def test_matrix_set_spec_reads_strings_and_integers(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('[["3/5", "-4/5"], ["4/5", "3/5"]]')
    assert parse_set_spec(f"matrix:{path}", 2) == StructuralSet.rotation_2d("3/5", "4/5")
    path.write_text('[[0, 1], [-1, "0"]]')
    assert parse_set_spec(f"matrix:{path}", 2) == StructuralSet.signed_permutation(2, [2, -1])
    path.write_text('[[" 1 "]]')
    assert parse_set_spec(f"matrix:{path}", 1) == StructuralSet.standard(1)


GOLDEN_STDOUT_SHA256 = {
    ("verify", "--m", "2,3", "--trials", "2", "--seed", "0", "--format", "json"):
        "9f1ec594a18858c4658b851d8892245b491580cf8eb3f57646520eee7d139e31",
    # the benchmark's verify shape: the longest set products, random rational sets at m = 4, 5
    ("verify", "--m", "2,3,4,5", "--degree", "3", "--trials", "3", "--seed", "12345", "--format", "json"):
        "2473f5617aebda23502b13291883b02c471a1926557045950bf6727500c76a0d",
    # m = 1, where the even aggregate is level 0 alone, and m = 6, with 64 Psi index sets
    ("verify", "--m", "1,6", "--trials", "2", "--seed", "3", "--format", "json"):
        "dadff01804bdf2cf6f2c2fa56ffbd81895736deb350073a149f43159366c50eb",
    # degree 1: every class matrix has zero rows
    ("solve", "--m", "3", "--degree", "1"):
        "fe989ad2f4aefcd676595f07d4c6d15954760d11efb437fd301c907dcb7f7802",
    # region none: the witness pool is the whole space
    ("solve", "--m", "3", "--degree", "2", "--region", "none"):
        "d3c922c9ef2796f1de327931a20ea17495d219c8d2ca919eb90a5587d3daaa0b",
    ("solve", "--m", "3", "--degree", "2", "--phi", "standard", "--psi", "reversed",
     "--region", "H,Hpp,I", "--format", "json"):
        "94039cd3cb306376d230da4a0cd8c164c7aabc9aae6cd53566e07a496f71113e",
    # m = 4, where the dimensions are walked in the eigenbasis of left multiplication by the pseudoscalar
    ("solve", "--m", "4", "--degree", "3", "--phi", "standard", "--psi", "reversed"):
        "1eed77cd9f844b1ccf3902a5af066716ac3e343b943371ce4acfcc511dd9ef25",
    ("solve", "--m", "4", "--degree", "3", "--phi", "standard", "--psi", "reversed", "--format", "json"):
        "da75253e5193238e6efd4fa53b2727befface7256d1688c72e7494ac46a7b750",
    ("solve", "--m", "4", "--degree", "3", "--phi", "standard", "--psi", "signedperm:2,-1,4,-3", "--format", "json"):
        "597922cd44195314efc2285b7ba5d9358830cc18a121a5c7c92afc795bbd6e8f",
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
    # m = 1, where every vector product is a scalar or e1, and m = 6 with 3-blade coefficients at degree 4
    ("classify", "--m", "1", "--expr", "x1^3*e[1] - 2*x1"):
        "061ccc715f770b269e4ab1573b1a863e8de01f647e346d4ee8e7a16548373d1f",
    ("classify", "--m", "6", "--phi", "signedperm:2,-1,4,-3,6,-5", "--psi", "reversed",
     "--expr", "(x1^2 - x2^2)*(x3^2 - x4^2)*e[1,2,3] + x1*x2*x5*x6*e[2,4,6]"):
        "404436a6e36e0d5b0c6dfde9658055418d74807a9743c78e30bc81c6eb376f4c",
    # exhausted witness searches: phi = psi makes Hpp = H, so no H,I field escapes Hpp
    ("solve", "--m", "3", "--degree", "2", "--phi", "standard", "--psi", "standard", "--region", "H,I"):
        "d1901ad5d080568a18209568279541527bab0f209e599877225464ecbbfa0670",
    ("solve", "--m", "2", "--degree", "6", "--region", "H,I"):
        "d94eeb5f317f6c7a35f7e290b3a9784163d3aae5bc827722871e66070859e620",
    ("solve", "--m", "3", "--degree", "3", "--phi", "standard", "--psi", "signedperm:2,-3,1",
     "--region", "Hpp", "--format", "json"):
        "78c7f00228bf8e18ac5eee0909f54db0ce3004542bda5edeac7a7ce0855c4054",
    # rational sets: multi-term structural vectors, whose symbol terms partly cancel
    ("solve", "--m", "2", "--degree", "4", "--phi", "rot2:1/2", "--psi", "refl2:2/3",
     "--region", "H,I", "--format", "json"):
        "508e47b8438d557be0217a144c5cfa2439f1cf8c801ae19ba6eae31e6be5a46c",
    ("solve", "--m", "2", "--degree", "5", "--phi", "rot2:3/4", "--psi", "rot2:1/3"):
        "adf1c80470dc8f90f61f16d1cfd6988a680ab505fbd108f6e7f9820e8ce5b2a3",
    # degree 4: the derivative factors alpha!/(alpha-gamma)! reach 12
    ("solve", "--m", "3", "--degree", "4", "--phi", "standard", "--psi", "reversed", "--region", "H,Hpp,I"):
        "6e9a66ea2669817b85c8f6640d52dc4653e474865ad0963d783ab689963675ea",
    # every stack splits into 8 connected blocks at m = 4
    ("solve", "--m", "4", "--degree", "5", "--phi", "standard", "--psi", "reversed", "--format", "json"):
        "c9f4fec141f3b683b2e7a3e30c972de3b2f1b13b8a84b2c50a54937e3ba77bbf",
    # a block-split kernel basis feeds the witness pool
    ("solve", "--m", "4", "--degree", "3", "--phi", "standard", "--psi", "reversed", "--region", "H,I"):
        "c471dfa68dbd7ca0840a2fccf9e533f050117618aa871091209d2f6591bc8378",
    # m = 5: 32 blades per monomial, the widest blade maps
    ("solve", "--m", "5", "--degree", "2", "--phi", "standard", "--psi", "reversed", "--format", "json"):
        "43441d4ec7ee07201338ccce6f6d44162e75c056e23c8a24d5c635d2e1e7568b",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT_SHA256), ids=" ".join)
def test_golden_stdout(capsys, argv):
    # Twice in a row: the second call reuses the process's parser.
    for _ in range(2):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


# Two orthogonal matrices with rational entries, each two plane rotations and a signed row permutation
MATRIX_PHI_3 = [["4/5", "-3/13", "-36/65"], ["3/5", "4/13", "48/65"], ["0", "-12/13", "5/13"]]
MATRIX_PSI_3 = [["60/169", "-5/13", "-144/169"], ["-25/169", "-12/13", "60/169"], ["12/13", "0", "5/13"]]


def test_golden_stdout_of_a_rational_matrix_pair(tmp_path, capsys):
    # The JSON output shows the set entries, not the file paths, so the digest holds for any tmp_path.
    specs = []
    for name, rows in (("phi", MATRIX_PHI_3), ("psi", MATRIX_PSI_3)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(rows))
        specs.append(f"matrix:{path}")
    code, out, _ = run_cli(capsys, "solve", "--m", "3", "--degree", "4", "--phi", specs[0], "--psi", specs[1],
                           "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "f633bc037a3c877bc8b9b676bea2fc34eba360958b54903bc0d970b1062b72e8"


def _outcome(capsys, argv, run=main):
    """(exit code, stdout, stderr) of one `main` call, or one `run` call, argparse exits included."""
    try:
        code = run(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kept_parser_answers_like_a_fresh_one(capsys, monkeypatch):
    calls = [
        ("classify", "--m", "two", "--expr", "x1"),
        ("classify", "--m", "2", "--phi", "rot2:1/2", "--psi", "reversed", "--expr", "x1*x2*e[1] + x2*e[1,2]"),
        ("solve", "--help"),
    ]
    kept = [_outcome(capsys, argv) for argv in calls]
    assert build_parser() is build_parser()
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    fresh = [_outcome(capsys, argv) for argv in calls]
    assert kept == fresh
    assert [code for code, _, _ in kept] == [2, 0, 0]
    assert "invalid int value: 'two'" in kept[0][2]
    assert kept[2][1].startswith("usage: cliffkit solve")


ARGV_CORPUS = [
    ("verify", "--m", "2", "--trials", "2", "--degree", "2"),
    ("classify", "--m", "2", "--phi", "rot2:1/2", "--psi", "rot2:1/2", "--expr", "x1*x2*e[1]"),
    ("solve", "--m", "2", "--degree", "2", "--region", "H,I", "--format", "json"),
    ("demo",),
    ("-h",), ("verify", "-h"), ("classify", "-h"), ("solve", "-h"), ("demo", "-h"),
    (),
    ("frobnicate", "--m", "2"),
    ("classify", "--m", "2"),
    ("classify", "--m", "2", "--expr", "x1", "extra"),
    ("classify", "--m", "2", "--expr", "x1", "--bogus", "1"),
    ("solve", "--m", "2", "--deg", "1"),
    ("classify", "--m", "2", "--ex", "x1", "--fo", "json"),
    ("classify", "--m", "2", "--expr=-x1"),
    ("--", "classify", "--m", "2", "--expr", "x1"),
    ("classify", "--m", "2", "--expr", "x1", "-h"),
]


def _dispatch(args) -> int:
    try:
        return args.fn(args)
    except (cli.UsageError, cli.ParseError, StructuralSetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _top_level_main(argv) -> int:
    """The reference: every argv parsed by a fresh top-level parser, which hands the rest to the subparser."""
    return _dispatch(build_parser.__wrapped__().parse_args(argv))


def _subparser_reports_extras(argv) -> int:
    """A wrong one-pass parse: the command's subparser refuses leftover strings in its own name."""
    parser = build_parser.__wrapped__()
    command = parser.commands.get(argv[0]) if argv else None
    return _dispatch(command.parse_args(argv[1:]) if command else parser.parse_args(argv))


def _outcomes(capsys, run):
    return [(argv, *_outcome(capsys, argv, run)) for argv in ARGV_CORPUS]


def test_one_pass_parse_answers_like_the_top_level_parser(capsys):
    expected = _outcomes(capsys, _top_level_main)
    assert _outcomes(capsys, main) == expected
    assert {code for _, code, _, _ in expected} == {0, 2}
    # Negative control: leftover strings reported by the subparser give a different stderr.
    assert _outcomes(capsys, _subparser_reports_extras) != expected


@pytest.mark.parametrize("argv", [
    ("classify", "--m", "0", "--expr", "x1"),
    ("classify", "--m", "0", "--phi", "signedperm:1", "--expr", "x1"),
    ("solve", "--m", "0", "--degree", "1"),
    ("solve", "--m", "-1", "--degree", "1", "--psi", "reversed"),
], ids=" ".join)
def test_nonpositive_dimension_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    m = argv[argv.index("--m") + 1]
    assert code == 2
    assert out == ""
    assert err == f"error: algebra dimension must be an integer in 1..12, got {m}\n"


def test_non_orthogonal_matrix_spec_message(tmp_path, capsys):
    path = tmp_path / "shear.json"
    path.write_text(json.dumps([["1", "1"], ["0", "1"]]))
    code, out, err = run_cli(capsys, "classify", "--m", "2", "--expr", "x1", "--phi", f"matrix:{path}")
    assert code == 2
    assert out == ""
    assert err == "error: matrix is not orthogonal: row dot (1,1) = 2\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("rows, digits", [
    ([["1e-4300", "0"], ["0", "1"]], (1, 8601)),      # dot 10^-8600
    ([["1e-4299", "0"], ["0", "1"]], (1, 8599)),      # dot 10^-8598
    ([["1", "1e-4299"], ["0", "1"]], (8599, 8599)),   # dot 1 + 10^-8598
])
def test_non_orthogonal_message_with_an_unprintable_dot(tmp_path, capsys, rows, digits, fmt):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(rows))
    code, out, err = run_cli(capsys, "solve", "--m", "2", "--degree", "1", "--phi", f"matrix:{path}", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == (f"error: matrix is not orthogonal: row dot (1,1) = a {digits[0]}-digit numerator "
                   f"over a {digits[1]}-digit denominator\n")
    assert "Traceback" not in err and "Exceeds the limit" not in err


def test_unprintable_dot_digit_counts_match_printed_lengths():
    assert _number_text(Fraction(-7, 9)) == "-7/9"
    den = 2 ** 14300  # 4305 digits: beyond the bound, so only the counts are given
    for n in (1, 9, 11, 99, 101, 10 ** 50 - 1, 10 ** 50 + 1, 10 ** 4299 + 1, -(10 ** 4299 + 1)):
        assert _number_text(Fraction(n, den)) == f"a {len(str(abs(n)))}-digit numerator over a 4305-digit denominator"


@pytest.mark.parametrize("spec", ["", ",", " "])
def test_region_spec_naming_no_class_is_a_usage_error(capsys, spec):
    code, out, err = run_cli(capsys, "solve", "--m", "2", "--degree", "1", "--region", spec)
    assert (code, out) == (2, "")
    assert err == f"error: region spec {spec!r} names no class; use 'none' for the region outside all three\n"
    assert "Traceback" not in err


def _no_search(*args, **kwargs):
    raise AssertionError("find_region_witness was called")


def _no_back_substitution(*args, **kwargs):
    raise AssertionError("a pool vector was back-substituted")


@pytest.mark.parametrize("m, d", [(5, 3), (2, 6), (3, 2)])
def test_empty_region_is_answered_without_a_search(capsys, monkeypatch, m, d):
    # With phi = psi, left-left is minus the Laplacian, so H and I without Hpp is empty.
    monkeypatch.setattr(RationalMatrix, "_kernel_vector", _no_back_substitution)
    argv = ["solve", "--m", str(m), "--degree", str(d), "--phi", "standard", "--psi", "standard", "--region", "H,I"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == "no witness found for region H∩I at this degree (bounded search)"
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["witnesses"] == []


def test_nonempty_region_is_still_searched(monkeypatch):
    monkeypatch.setattr(cli, "find_region_witness", _no_search)
    with pytest.raises(AssertionError, match="was called"):
        main(["solve", "--m", "3", "--degree", "2", "--phi", "standard", "--psi", "reversed", "--region", "H,I"])


def test_solve_region_runs_no_second_elimination(capsys, monkeypatch):
    # The witness search back-substitutes on the echelons the dimensions kept, so it grows none of its own.
    calls, searching = [], []
    grown, search = RowEchelon.grown, cli.find_region_witness

    def counted(self, rows):
        calls.append(bool(searching))
        return grown(self, rows)

    def watched(*args, **kwargs):
        searching.append(None)
        try:
            return search(*args, **kwargs)
        finally:
            searching.pop()

    monkeypatch.setattr(RowEchelon, "grown", counted)
    monkeypatch.setattr(cli, "find_region_witness", watched)
    code, out, _ = run_cli(capsys, "solve", "--m", "3", "--degree", "4", "--phi", "standard", "--psi", "reversed",
                           "--region", "H,Hpp,I")
    assert code == 0
    assert out.splitlines()[-1].startswith("witness in region ")
    assert calls and not any(calls)


def test_solve_without_region_assembles_and_eliminates_only_what_the_dimensions_read(capsys, monkeypatch):
    # At odd m the rows of odd output blades are left zero, and Hpp's rows grow no echelon from an empty one;
    # --region Hpp keeps that chain, so there they do.
    phi, psi = StructuralSet.standard(3), StructuralSet.reversed_standard(3)
    full = solver.class_matrices(phi, psi, solver.CoefficientSpace(3, 4))
    rows_of = {name: {row for row, _ in mat._int_rows} for name, mat in full.items()}
    hpp_only = rows_of[TWO_SET_HARMONIC] - rows_of[HARMONIC] - rows_of[INFRAMONOGENIC]
    assert len(hpp_only) == full[TWO_SET_HARMONIC].nrows
    odd = [mask.bit_count() % 2 for mask in blade_order(3)]
    built, starts = [], []
    operator_matrix, grown = solver.operator_matrix, RowEchelon.grown

    def recording(op, space, **kwargs):
        result = operator_matrix(op, space, **kwargs)
        built.append((op.name, result.matrix._int_rows))
        return result

    def watched(self, rows):
        rows = list(rows)
        if not self and rows and set(rows) <= hpp_only:
            starts.append(len(rows))
        return grown(self, rows)

    monkeypatch.setattr(solver, "operator_matrix", recording)
    monkeypatch.setattr(RowEchelon, "grown", watched)
    argv = ["solve", "--m", "3", "--degree", "4", "--phi", "standard", "--psi", "reversed"]
    assert run_cli(capsys, *argv)[0] == 0
    names = {"laplacian": HARMONIC, "left-left": TWO_SET_HARMONIC, "sandwich": INFRAMONOGENIC}
    assert sorted(name for name, _ in built) == sorted(names) and not starts
    for name, rows in built:
        whole = full[names[name]]._int_rows
        assert rows == [((), 1) if odd[i % 8] else row for i, row in enumerate(whole)], name
    built.clear()
    assert run_cli(capsys, *argv, "--region", "Hpp")[0] == 0
    assert [rows for _, rows in built] == [mat._int_rows for mat in full.values()] and starts


def test_solve_builds_one_coefficient_space(capsys, monkeypatch):
    built, init = [], solver.CoefficientSpace.__init__

    def counted(self, m, degree):
        built.append((m, degree))
        init(self, m, degree)

    monkeypatch.setattr(solver.CoefficientSpace, "__init__", counted)
    for region in ([], ["--region", "H,Hpp,I"]):
        built.clear()
        code, out, _ = run_cli(capsys, "solve", "--m", "3", "--degree", "3", *region)
        assert code == 0 and built == [(3, 3)], region
    assert out.splitlines()[-1].startswith("witness in region ")


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


@pytest.mark.parametrize("entry", ["1e1000000", "1e1000000000"])
def test_matrix_entry_with_a_huge_exponent_is_refused_at_once(tmp_path, capsys, entry):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[entry]]))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classify", "--m", "1", "--expr", "x1", "--phi", f"matrix:{path}")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"error: matrix file {str(path)!r}: entry at row 1, column 1 has decimal exponent "
                   f"{entry[2:]}, beyond the {cli.MAX_NUMBER_TEXT} allowed in magnitude\n")
    assert "Traceback" not in err


def test_matrix_entry_with_too_many_characters_names_its_position(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([["1", "0"], ["0", "1" * 5000]]))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classify", "--m", "2", "--expr", "x1", "--phi", f"matrix:{path}")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (f"error: matrix file {str(path)!r}: entry at row 2, column 2 has 5000 characters, "
                   f"more than the {cli.MAX_NUMBER_TEXT} allowed\n")


def test_matrix_json_integer_with_too_many_digits_names_its_position(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text("[[" + "9" * 4400 + "]]")
    code, out, err = run_cli(capsys, "classify", "--m", "1", "--expr", "x1", "--phi", f"matrix:{path}")
    assert (code, out) == (2, "")
    assert err == (f"error: matrix file {str(path)!r}: entry at row 1, column 1 has 4400 characters, "
                   f"more than the {cli.MAX_NUMBER_TEXT} allowed\n")


@pytest.mark.parametrize("spec, message", [
    ("rot2:1e1000000000", "rot2 parameter has decimal exponent 1000000000, beyond the 4300 allowed in magnitude"),
    ("refl2:1e-1000000", "refl2 parameter has decimal exponent -1000000, beyond the 4300 allowed in magnitude"),
    ("rot2:" + "7" * 4301, "rot2 parameter has 4301 characters, more than the 4300 allowed"),
], ids=["rot2 exponent 1e9", "refl2 exponent -1e6", "rot2 4301 characters"])
def test_rotation_parameter_out_of_bounds_is_a_usage_error(capsys, spec, message):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "classify", "--m", "2", "--expr", "x1", "--phi", spec)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_ordinary_exact_numbers_are_still_accepted(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([["3/5", "-0.8"], ["8e-1", "6E-1"]]))
    assert parse_set_spec(f"matrix:{path}", 2) == StructuralSet.rotation_2d("3/5", "4/5")
    path.write_text(json.dumps([["1e-1", "0"], ["0", "1"]]))
    with pytest.raises(StructuralSetError, match="not orthogonal"):
        parse_set_spec(f"matrix:{path}", 2)
    assert parse_set_spec("rot2:1e-1", 2) == parse_set_spec("rot2:1/10", 2)
    assert parse_set_spec("refl2:-0.5", 2) == parse_set_spec("refl2:-1/2", 2)


def test_number_bound_is_inclusive():
    cli._check_number_text("1e4300", "entry")
    cli._check_number_text("1e-4300", "entry")
    cli._check_number_text("1" * 4300, "entry")
    cli._check_number_text("1e", "entry")  # bad syntax is left to Fraction
    with pytest.raises(cli.UsageError):
        cli._check_number_text("1e4301", "entry")
    with pytest.raises(cli.UsageError):
        cli._check_number_text("1" * 4301, "entry")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("spec", ["rot2:1e-4300", "rot2:1e-2200", "refl2:1e-2200"])
def test_rotation_parameter_with_too_many_digits_in_its_set_is_a_usage_error(capsys, spec, fmt):
    code, out, err = run_cli(capsys, "solve", "--m", "2", "--degree", "1", "--phi", spec, "--format", fmt)
    kind, body = spec.split(":")
    assert (code, out) == (2, "")
    assert err == (f"error: {kind} parameter {body!r} gives a cosine or sine with more than "
                   f"{cli.MAX_NUMBER_TEXT} digits\n")
    assert "Traceback" not in err and "Exceeds the limit" not in err


def test_rotation_set_digit_bound_is_inclusive(capsys):
    # tan(theta/2) = 10^-2149 gives cos = (10^4298 - 1) / (10^4298 + 1): 4299 digits, printable.
    code, out, _ = run_cli(capsys, "solve", "--m", "2", "--degree", "1", "--phi", "rot2:1e-2149", "--format", "json")
    assert code == 0
    assert json.loads(out)["sets"]["phi"][0][0] == f"{10 ** 4298 - 1}/{10 ** 4298 + 1}"
    with pytest.raises(cli.UsageError, match="more than 4300 digits"):
        parse_set_spec("rot2:1e-2150", 2)
    assert parse_set_spec("rot2:1/2", 2) == StructuralSet.rotation_2d("3/5", "4/5")
    code, out, err = run_cli(capsys, "solve", "--m", "2", "--degree", "1", "--phi", "rot2:1/2")
    assert (code, err) == (0, "")
