"""The four benchmark workloads: generated CLI invocations plus their gates.

A workload builds, from the benchmark seed, a list of blocks; a block is
one round of fixed work, a list of `Op`s (one `cliffkit` command line
each).  Every op carries a gate that checks the command's output against
a reference answer from `oracle`, which shares no code with cliffkit.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import oracle

Rows = list[list[Fraction]]


@dataclass
class Op:
    """One CLI invocation.  `check(code, stdout)` returns a problem or None;
    `first_check()` runs once, outside the timed phase, for the op's first
    passing execution."""

    argv: list[str]
    check: Callable[[int, str], str | None]
    first_check: Callable[[], str | None] | None = None
    label: str = ""
    checked_once: bool = field(default=False, repr=False)


def _exit_problem(code: int, argv: list[str]) -> str:
    return f"exit code {code} for {' '.join(argv)}"


# -- verify-suite -------------------------------------------------------------


@dataclass
class VerifySuite:
    """`verify` over the paper's identity suite; the case count does not depend
    on the seed, so it is a fixed oracle for a given (m list, trials)."""

    name: str = "verify-suite"
    latency_per_call = True
    m_values: str = "2,3,4,5"
    trials: int = 3
    expected_cases: int = 1600
    blocks: int = 3
    corrupt: str | None = None

    def build(self, seed: int, work_dir: Path, program) -> list[list[Op]]:
        rng = random.Random(f"{self.name}|{seed}")
        out = []
        for _ in range(self.blocks):
            argv = ["verify", "--m", self.m_values, "--degree", "3", "--trials", str(self.trials),
                    "--seed", str(rng.randrange(2 ** 31)), "--format", "json"]
            if self.corrupt:
                argv += ["--corrupt", self.corrupt]
            out.append([Op(argv, self._gate(argv))])
        return out

    def _gate(self, argv):
        def check(code: int, out: str) -> str | None:
            if code not in (0, 1):
                return _exit_problem(code, argv)
            report = json.loads(out)
            failed = [r["identity"] for r in report["results"] if not r["holds"]]
            if code != 0 or not report["allPass"] or failed:
                return f"verify reports failures {failed} for seed {argv[argv.index('--seed') + 1]}"
            cases = sum(r["cases"] for r in report["results"])
            if cases != self.expected_cases:
                return f"verify ran {cases} cases, expected {self.expected_cases}"
            return None

        return check

    def describe(self, blocks) -> list[str]:
        seeds = [op.argv[op.argv.index("--seed") + 1] for block in blocks for op in block]
        return [f"verify --m {self.m_values} --degree 3 --trials {self.trials}, "
                f"{self.expected_cases} cases per call, program seeds {', '.join(seeds)}"]


# -- solve-dims and solve-witness -----------------------------------------------


@dataclass
class SolvePoint:
    m: int
    d: int
    phi: str
    psi: str
    phi_rows: Rows
    psi_rows: Rows
    region: str | None = None
    expect_witness: bool = False
    expected_h: int = 0

    def argv(self) -> list[str]:
        out = ["solve", "--m", str(self.m), "--degree", str(self.d), "--phi", self.phi, "--psi", self.psi]
        if self.region is not None:
            out += ["--region", self.region]
        return out + ["--format", "json"]

    def op(self) -> Op:
        cols = oracle.space_size(self.m, self.d)
        rows = oracle.space_size(self.m, self.d - 2)
        label = f"solve ({self.m},{self.d}) {self.phi.split(':')[0]}/{self.psi.split(':')[0]}"
        label += f" region {self.region}" if self.region is not None else ""
        return Op(self.argv(), self.gate(), label=f"{label}: 3 operator matrices {rows}x{cols}")

    def gate(self) -> Callable[[int, str], str | None]:
        argv = self.argv()

        def check(code: int, out: str) -> str | None:
            if code != 0:
                return _exit_problem(code, argv)
            payload = json.loads(out)
            dims = payload["dims"]
            where = " ".join(argv)
            if (payload["m"], payload["d"]) != (self.m, self.d):
                return f"{where}: reported (m, d) = ({payload['m']}, {payload['d']})"
            if dims["H"] != self.expected_h:
                return f"{where}: dim H = {dims['H']}, closed form gives {self.expected_h}"
            if self.phi == self.psi and dims["Hpp"] != dims["H"]:
                return f"{where}: same sets but dim Hpp = {dims['Hpp']} != dim H = {dims['H']}"
            for inter, parts in (("H∩Hpp", ("H", "Hpp")), ("H∩I", ("H", "I")), ("Hpp∩I", ("Hpp", "I")),
                                 ("triple", ("H∩Hpp", "H∩I", "Hpp∩I"))):
                if not 0 <= dims[inter] <= min(dims[p] for p in parts):
                    return f"{where}: dim {inter} = {dims[inter]} exceeds one of {parts}"
            if self.region is None:
                return None
            return self._witness_problem(payload["witnesses"], where)

        return check

    def _witness_problem(self, witnesses: list[str], where: str) -> str | None:
        if not self.expect_witness:
            return None if witnesses == [] else f"{where}: impossible region yet witness {witnesses}"
        if len(witnesses) != 1:
            return f"{where}: expected one witness, got {witnesses}"
        try:
            f = oracle.parse_canonical(witnesses[0], self.m)
        except (ValueError, IndexError) as exc:
            return f"{where}: witness does not re-parse: {exc}"
        if not f or oracle.degrees(f) != {self.d}:
            return f"{where}: witness {witnesses[0]!r} is not a nonzero degree-{self.d} field"
        wanted = set() if self.region == "none" else set(self.region.split(","))
        want = oracle.region_name(tuple(name in wanted for name in oracle.CLASS_NAMES))
        got = oracle.membership(self.phi_rows, self.psi_rows, f)["region"]
        return None if got == want else f"{where}: witness classifies as {got}, wanted {want}"


def _named_point(m, d, phi, psi, region=None, expect_witness=False) -> SolvePoint:
    return SolvePoint(m, d, phi, psi, oracle.set_rows(phi, m), oracle.set_rows(psi, m),
                      region, expect_witness, oracle.harmonic_dim(m, d))


def _rational_rows(rng: random.Random, m: int) -> Rows:
    """An orthogonal matrix with small rational entries: two plane rotations
    by tangent half-angles, then a signed row permutation."""
    rows = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for _ in range(2):
        i, j = rng.sample(range(m), 2)
        t = Fraction(rng.randint(1, 3), rng.randint(2, 4))
        rows = oracle.mat_mul(oracle.givens(m, i, j, t), rows)
    rng.shuffle(rows)
    return [row if rng.random() < 0.5 else [-x for x in row] for row in rows]


class _SolveGrid:
    """A round is one `solve` call per point."""

    # A user waits on the whole grid, so one query is one round.
    latency_per_call = False

    def points(self, seed: int, work_dir: Path) -> list[SolvePoint]:
        raise NotImplementedError

    def build(self, seed: int, work_dir: Path, program) -> list[list[Op]]:
        return [[p.op() for p in self.points(seed, work_dir)]]

    def describe(self, blocks) -> list[str]:
        return [op.label for op in blocks[0]]


@dataclass
class SolveDims(_SolveGrid):
    """`solve` without a region: operator-matrix assembly and Bareiss rank on
    stacked matrices.  Standard/reversed on a fixed grid, plus one seed-drawn
    rational pair passed as matrix files at the cheaper grid points."""

    name: str = "solve-dims"
    grid: tuple[tuple[int, int], ...] = ((3, 4), (3, 5), (4, 2), (4, 3), (5, 2))
    rational_grid: tuple[tuple[int, int], ...] = ((3, 4), (4, 2))

    def points(self, seed: int, work_dir: Path) -> list[SolvePoint]:
        rng = random.Random(f"{self.name}|{seed}")
        points = [_named_point(m, d, "standard", "reversed") for m, d in self.grid]
        for m in sorted({m for m, _ in self.rational_grid}):
            phi_rows, psi_rows = _rational_rows(rng, m), _rational_rows(rng, m)
            specs = []
            for label, rows in (("phi", phi_rows), ("psi", psi_rows)):
                path = work_dir / f"{self.name}-{seed}-{label}{m}.json"
                path.write_text(json.dumps([[str(x) for x in row] for row in rows]))
                specs.append(f"matrix:{path}")
            for pm, d in self.rational_grid:
                if pm == m:
                    points.append(SolvePoint(m, d, specs[0], specs[1], phi_rows, psi_rows,
                                             expected_h=oracle.harmonic_dim(m, d)))
        return points


@dataclass
class SolveWitness(_SolveGrid):
    """`solve --region`: nullspace, back-substitution, dense verification and
    the witness search.  Fixed points: the first five have a witness, the
    last two ask for H-and-I-but-not-Hpp with phi = psi, which is impossible
    because left-left equals minus the Laplacian, so the search runs out."""

    name: str = "solve-witness"

    def points(self, seed: int, work_dir: Path) -> list[SolvePoint]:
        return [
            _named_point(3, 3, "standard", "reversed", "H,Hpp,I", True),
            _named_point(3, 4, "standard", "reversed", "H,Hpp,I", True),
            _named_point(3, 3, "standard", "signedperm:2,-3,1", "Hpp", True),
            _named_point(3, 2, "standard", "reversed", "none", True),
            _named_point(2, 5, "standard", "reversed", "H,Hpp,I", True),
            _named_point(2, 6, "standard", "standard", "H,I", False),
            _named_point(3, 2, "standard", "standard", "H,I", False),
        ]


# -- classify-stream ----------------------------------------------------------------

_HALF_ANGLES = ("1/2", "1/3", "2/3", "3/4", "2/5")


def _set_spec(rng: random.Random, m: int) -> str:
    kinds = ["standard", "reversed", "signedperm"] + (["rot2", "refl2"] if m == 2 else [])
    kind = rng.choice(kinds)
    if kind == "signedperm":
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        return "signedperm:" + ",".join(str(p if rng.random() < 0.5 else -p) for p in perm)
    if kind in ("rot2", "refl2"):
        return f"{kind}:{rng.choice(_HALF_ANGLES)}"
    return kind


def _blade_text(rng: random.Random, blade: tuple[int, ...]) -> list[str]:
    if blade:
        return ["e[" + ",".join(map(str, blade)) + "]"]
    return ["e[]"] if rng.random() < 0.1 else []


def _random_term(rng: random.Random, m: int) -> tuple[str, dict]:
    """One summand as (unsigned text, reference field), degree at most 4."""
    blade = tuple(sorted(rng.sample(range(1, m + 1), rng.randint(0, min(m, 3)))))
    coef = Fraction(rng.randint(1, 9), rng.choice((1, 1, 2, 3)))
    coef_text = [] if coef == 1 else [str(coef)]
    if rng.random() < 0.25:
        # harmonic factor (x_i^2 - x_j^2) or x_i*x_j, exercising parentheses
        i, j = rng.sample(range(m), 2)
        sq = lambda k: tuple(2 if t == k else 0 for t in range(m))
        if rng.random() < 0.5:
            poly_text = f"(x{i + 1}^2 - x{j + 1}^2)"
            field = {(sq(i), blade): coef, (sq(j), blade): -coef}
        else:
            poly_text = f"(x{i + 1}*x{j + 1})"
            field = {(tuple(int(t in (i, j)) for t in range(m)), blade): coef}
        return "*".join(coef_text + [poly_text] + _blade_text(rng, blade)), field
    alpha = [0] * m
    for _ in range(rng.randint(0, 4)):
        alpha[rng.randrange(m)] += 1
    var_text = []
    for k, e in enumerate(alpha, start=1):
        if e == 1 or (e > 1 and rng.random() < 0.3):
            var_text += [f"x{k}"] * e
        elif e > 1:
            var_text.append(f"x{k}^{e}")
    factors = coef_text + var_text + _blade_text(rng, blade)
    return "*".join(factors) if factors else "1", {(tuple(alpha), blade): coef}


def random_query(rng: random.Random, m: int, terms: int) -> tuple[int, str, str, str, dict]:
    """(m, phi spec, psi spec, expression text, reference field) with `terms` summands."""
    pieces = []
    field: dict = {}
    for n in range(terms):
        text, term = _random_term(rng, m)
        negative = rng.random() < 0.4
        if negative:
            term = {key: -c for key, c in term.items()}
        field = oracle.add_fields(field, term)
        sep = ("-" if negative else "+") if n else ("-" if negative else "")
        pieces.append((" " if n and rng.random() < 0.7 else "") + sep + (" " if n and rng.random() < 0.7 else "") + text)
    return m, _set_spec(rng, m), _set_spec(rng, m), "".join(pieces), field


CLASSIFY_QUERIES_PER_BLOCK = 1000
CLASSIFY_BLOCKS = 3


class ClassifyStream:
    """Closed loop, one client: `classify --format json --expr=TEXT` queries
    over seeded fields; each block holds distinct queries."""

    name = "classify-stream"
    latency_per_call = True

    def build(self, seed: int, work_dir: Path, program) -> list[list[Op]]:
        # Every block has the same count of each (m, summand count) pair, so
        # the latency tail differs between seeds only through the terms drawn.
        rng = random.Random(f"{self.name}|{seed}")
        blocks = []
        for _ in range(CLASSIFY_BLOCKS):
            shapes = [(2 + i % 4, 1 + i // 4 % 5) for i in range(CLASSIFY_QUERIES_PER_BLOCK)]
            rng.shuffle(shapes)
            blocks.append([self._op(program, *random_query(rng, m, terms)) for m, terms in shapes])
        return blocks

    @staticmethod
    def _op(program, m: int, phi: str, psi: str, text: str, field: dict) -> Op:
        # `--expr=TEXT`: argparse takes a separate value starting with '-' for an option.
        argv = ["classify", "--m", str(m), "--phi", phi, "--psi", psi, "--format", "json", f"--expr={text}"]
        expected = oracle.membership(oracle.set_rows(phi, m), oracle.set_rows(psi, m), field)

        def check(code: int, out: str) -> str | None:
            if code != 0:
                return _exit_problem(code, argv)
            got = json.loads(out)
            return None if got == expected else f"classify {text!r} ({phi}/{psi}): got {got}, want {expected}"

        def roundtrip() -> str | None:
            f = program.parser.parse_field(text, m)
            canonical = program.parser.format_field(f)
            if program.parser.parse_field(canonical, m) != f:
                return f"parse(format(f)) != f for {text!r}"
            if oracle.parse_canonical(canonical, m) != field:
                return f"parsed {text!r} as {canonical!r}, reference field differs"
            return None

        return Op(argv, check, roundtrip)

    def describe(self, blocks) -> list[str]:
        per_m: dict[str, int] = {}
        for block in blocks:
            for op in block:
                per_m[op.argv[2]] = per_m.get(op.argv[2], 0) + 1
        mix = ", ".join(f"m={m}: {n}" for m, n in sorted(per_m.items()))
        return [f"{len(blocks)} blocks x {CLASSIFY_QUERIES_PER_BLOCK} distinct classify queries ({mix})"]


WORKLOADS = {w.name: w for w in (VerifySuite(), SolveDims(), SolveWitness(), ClassifyStream())}
