"""Command-line front end.

    cliffkit verify    run the seeded identity suite (exit 1 on any failure)
    cliffkit classify  membership report for a field expression
    cliffkit solve     kernel dimensions and optional region witnesses
    cliffkit demo      replay the bundled worked examples

Structural sets are named specs: `standard`, `reversed`,
`signedperm:3,-1,2` (signed permutation of the standard vectors),
`rot2:p/q` and `refl2:p/q` (2D rotation/reflection with cosine and sine
from the tangent half-angle p/q), or `matrix:FILE` where FILE holds a
JSON array of arrays of rational strings.  Each number given as text is
bounded by `MAX_NUMBER_TEXT` before it is converted.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .classify import RegionLabel, classify
from .demo import run_demo
from .parser import ParseError, format_field, parse_field
from .solver import class_dimensions, find_region_witness
from .structural import _NUMBER_BOUND, MAX_NUMBER_TEXT, StructuralSet, StructuralSetError, _printable
from .verify import VerifyConfig, check_names, run_suite


class UsageError(ValueError):
    pass


def _check_number_text(text: str, where: str) -> None:
    """Raise `UsageError` naming `where` when `text` is out of the bound; the syntax is left to `Fraction`."""
    if len(text) > MAX_NUMBER_TEXT:
        raise UsageError(f"{where} has {len(text)} characters, more than the {MAX_NUMBER_TEXT} allowed")
    _, e, exponent = text.lower().partition("e")
    try:
        value = int(exponent) if e else 0
    except ValueError:
        return
    if abs(value) > MAX_NUMBER_TEXT:
        raise UsageError(f"{where} has decimal exponent {value}, beyond the {MAX_NUMBER_TEXT} allowed in magnitude")


def parse_set_spec(spec: str, m: int) -> StructuralSet:
    if spec == "standard":
        return StructuralSet.standard(m)
    if spec == "reversed":
        return StructuralSet.reversed_standard(m)
    if spec.startswith("signedperm:"):
        body = spec.split(":", 1)[1]
        try:
            signed = [int(x) for x in body.split(",")]
        except ValueError:
            raise UsageError(f"bad signed permutation {body!r}: expected comma-separated signed integers")
        return StructuralSet.signed_permutation(m, signed)
    if spec.startswith(("rot2:", "refl2:")):
        kind, body = spec.split(":", 1)
        if m != 2:
            raise UsageError(f"{kind} sets require --m 2")
        _check_number_text(body, f"{kind} parameter")
        try:
            t = Fraction(body)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad rational parameter {body!r}")
        out = StructuralSet._half_angle(t.numerator, t.denominator, reflection=kind == "refl2")
        # The set's entries are printed in full, so their digits share the text bound.  No entry exceeds 1 in size,
        # so none of them can pass it while the common denominator stays below it.
        if out._den >= _NUMBER_BOUND and not all(_printable(x) for row in out.coordinates() for x in row):
            raise UsageError(f"{kind} parameter {body!r} gives a cosine or sine with more than {MAX_NUMBER_TEXT} digits")
        return out
    if spec.startswith("matrix:"):
        path = spec.split(":", 1)[1]
        try:
            with open(path) as fh:
                # Integers stay digit strings, so the bound below covers them too.
                raw = json.load(fh, parse_int=str)
        except OSError as exc:
            raise UsageError(f"cannot read matrix file {path!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"matrix file {path!r} is not valid JSON: {exc}")
        shape = f"matrix file {path!r} must hold an array of arrays of rational strings"
        # Exact entries only: a JSON float is binary, and 1e400 is infinite.
        if not isinstance(raw, list) or not all(
            isinstance(row, list) and all(isinstance(x, str) for x in row) for row in raw
        ):
            raise UsageError(shape)
        for i, row in enumerate(raw, 1):
            for j, x in enumerate(row, 1):
                _check_number_text(x, f"matrix file {path!r}: entry at row {i}, column {j}")
        try:
            rows = [[Fraction(x) for x in row] for row in raw]
        except (ValueError, ZeroDivisionError):
            raise UsageError(shape)
        if len(rows) != m:
            raise UsageError(f"matrix in {path!r} is {len(rows)}x?, expected {m}x{m}")
        return StructuralSet.from_matrix(rows)
    raise UsageError(
        f"unknown set spec {spec!r}; use standard, reversed, signedperm:..., rot2:p/q, refl2:p/q or matrix:FILE"
    )


def parse_region_spec(spec: str) -> RegionLabel:
    if spec.strip().lower() == "none":
        return RegionLabel.from_classes(())
    names = [part.strip() for part in spec.split(",") if part.strip()]
    if not names:
        raise UsageError(f"region spec {spec!r} names no class; use 'none' for the region outside all three")
    try:
        return RegionLabel.from_classes(names)
    except ValueError as exc:
        raise UsageError(str(exc))


def _parse_m_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"bad dimension list {text!r}: expected comma-separated integers")
    if not values or any(v < 1 for v in values):
        raise UsageError(f"dimensions must be positive, got {values}")
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise UsageError(f"dimension {repeated[0]} is given more than once in {text!r}")
    return values


def _emit(payload, fmt: str, text_renderer) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(text_renderer())


def _set_pair(args) -> tuple[StructuralSet, StructuralSet]:
    """phi and psi from their specs; sets are immutable values, so one spec given twice is parsed once."""
    phi = parse_set_spec(args.phi, args.m)
    return phi, phi if args.psi == args.phi else parse_set_spec(args.psi, args.m)


def cmd_verify(args) -> int:
    cfg = VerifyConfig(
        m_values=_parse_m_list(args.m),
        trials=args.trials,
        seed=args.seed,
        degree=args.degree,
        corrupt=args.corrupt,
    )
    if cfg.trials < 1:
        raise UsageError("--trials must be at least 1")
    if cfg.degree < 1:
        raise UsageError("--degree must be at least 1")
    if cfg.corrupt is not None and cfg.corrupt not in check_names():
        raise UsageError(f"unknown check {cfg.corrupt!r}; known: {', '.join(check_names())}")
    report = run_suite(cfg)
    _emit(report.to_json(), args.format, report.to_text)
    return 0 if report.all_passed else 1


def cmd_classify(args) -> int:
    m = args.m
    phi, psi = _set_pair(args)
    f = parse_field(args.expr, m)
    membership = classify(phi, psi, f)

    def text() -> str:
        lines = [f"field: {format_field(f)}"]
        for key, value in membership.to_json().items():
            lines.append(f"{key}: {value}")
        return "\n".join(lines)

    _emit(membership.to_json(), args.format, text)
    return 0


def cmd_solve(args) -> int:
    m = args.m
    d = args.degree
    phi, psi = _set_pair(args)
    target = None if args.region is None else parse_region_spec(args.region)
    dims = class_dimensions(phi, psi, d, target)
    witnesses: list[str] = []
    if target is not None:
        witness = find_region_witness(dims)
        if witness is not None:
            witnesses.append(format_field(witness))
    payload = {
        "m": m,
        "d": d,
        "sets": {"phi": phi.to_json(), "psi": psi.to_json()},
        "dims": dims.to_json(),
        "witnesses": witnesses,
    }

    def text() -> str:
        lines = [f"homogeneous degree {d} in dimension {m} (full space size {dims.full})"]
        for key, value in dims.to_json().items():
            lines.append(f"dim {key} = {value}")
        if target is not None:
            if witnesses:
                lines.append(f"witness in region {target}: {witnesses[0]}")
            else:
                lines.append(f"no witness found for region {target} at this degree (bounded search)")
        return "\n".join(lines)

    _emit(payload, args.format, text)
    return 0


def cmd_demo(args) -> int:
    items = run_demo()
    ok = all(item.ok for item in items)

    def text() -> str:
        lines = []
        for item in items:
            mark = "ok  " if item.ok else "FAIL"
            lines.append(f"{mark} {item.name}")
            if not item.ok:
                lines.append(f"     expected: {item.expected}")
                lines.append(f"     actual:   {item.actual}")
        lines.append(f"{sum(i.ok for i in items)}/{len(items)} examples match")
        return "\n".join(lines)

    _emit({"allPass": ok, "items": [i.to_json() for i in items]}, args.format, text)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree; built on first call and kept for the process."""
    parser = argparse.ArgumentParser(prog="cliffkit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command name -> its subparser, which `main` parses with directly

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text", help="output format")

    p_verify = sub.add_parser("verify", help="run the seeded identity suite")
    p_verify.add_argument("--m", default="2,3,4,5", help="comma-separated dimensions (default 2,3,4,5)")
    p_verify.add_argument("--trials", type=int, default=50, help="random trials per check and dimension")
    p_verify.add_argument("--seed", type=int, default=0, help="seed for the random streams")
    p_verify.add_argument("--degree", type=int, default=3, help="max degree of random polynomial fields")
    p_verify.add_argument("--corrupt", default=None, help=argparse.SUPPRESS)
    add_common(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_classify = sub.add_parser("classify", help="classify a field expression")
    p_classify.add_argument("--m", type=int, required=True, help="ambient dimension")
    p_classify.add_argument("--expr", required=True, help="field expression, e.g. 'x1*x3*e[1] + x2*e[2]'")
    p_classify.add_argument("--phi", default="standard", help="first structural set spec")
    p_classify.add_argument("--psi", default="standard", help="second structural set spec")
    add_common(p_classify)
    p_classify.set_defaults(fn=cmd_classify)

    p_solve = sub.add_parser("solve", help="kernel dimensions and region witnesses")
    p_solve.add_argument("--m", type=int, required=True, help="ambient dimension")
    p_solve.add_argument("--degree", type=int, required=True, help="homogeneity degree")
    p_solve.add_argument("--phi", default="standard", help="first structural set spec")
    p_solve.add_argument("--psi", default="standard", help="second structural set spec")
    p_solve.add_argument("--region", default=None,
                         help="membership region to search, e.g. 'H,Hpp,I', 'H,I' or 'none'")
    add_common(p_solve)
    p_solve.set_defaults(fn=cmd_solve)

    p_demo = sub.add_parser("demo", help="replay the bundled worked examples")
    add_common(p_demo)
    p_demo.set_defaults(fn=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns its exit code.

    The parser is built once per process, by the first call, and reused:
    argparse keeps no state of a parse in the parser, so each call sees
    the same parser a fresh `build_parser.__wrapped__()` would give.

    One parse per call: when the first string names a command, that
    command's subparser parses the rest and the top-level parser refuses
    any leftover strings, in argparse's own words.  The top-level parser
    parses every other argv (empty, help, unknown command, `--`) itself.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
    try:
        return args.fn(args)
    except (UsageError, ParseError, StructuralSetError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
