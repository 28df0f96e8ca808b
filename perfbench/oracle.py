"""Independent reference answers for the benchmark's correctness gates.

Nothing here imports cliffkit.  Fields are plain dicts mapping
(exponent tuple, blade index tuple) to a Fraction; blade products use
list sorting with a swap count instead of the program's bitmask
arithmetic, so an agreement between the two is evidence, not an echo.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache
from math import comb, lcm

CLASS_NAMES = ("H", "Hpp", "I")


def harmonic_dim(m: int, d: int) -> int:
    """dim of degree-d harmonic R_{0,m}-valued polynomials (Fischer decomposition)."""

    def c(n: int, k: int) -> int:
        return comb(n, k) if n >= 0 else 0

    return 2 ** m * (c(d + m - 1, m - 1) - c(d + m - 3, m - 1))


def space_size(m: int, d: int) -> int:
    """Number of (monomial, blade) basis pairs of degree-d fields."""
    return 2 ** m * comb(d + m - 1, m - 1) if d >= 0 else 0


# -- structural sets as coordinate rows ------------------------------------------


def rotation_pair(t: Fraction) -> tuple[Fraction, Fraction]:
    denom = 1 + t * t
    return (1 - t * t) / denom, 2 * t / denom


def set_rows(spec: str, m: int) -> list[list[Fraction]]:
    """Coordinate rows of the set named by a CLI spec (no matrix: specs)."""
    eye = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    if spec == "standard":
        return eye
    if spec == "reversed":
        return eye[::-1]
    kind, _, body = spec.partition(":")
    if kind == "signedperm":
        rows = []
        for p in (int(x) for x in body.split(",")):
            row = [Fraction(0)] * m
            row[abs(p) - 1] = Fraction(1 if p > 0 else -1)
            rows.append(row)
        return rows
    if kind in ("rot2", "refl2"):
        c, s = rotation_pair(Fraction(body))
        return [[c, -s], [s, c]] if kind == "rot2" else [[c, s], [s, -c]]
    raise ValueError(f"no reference rows for set spec {spec!r}")


def mat_mul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]


def givens(m: int, i: int, j: int, t: Fraction) -> list[list[Fraction]]:
    c, s = rotation_pair(t)
    rows = [[Fraction(int(a == b)) for b in range(m)] for a in range(m)]
    rows[i][i], rows[i][j], rows[j][i], rows[j][j] = c, -s, s, c
    return rows


# -- fields ---------------------------------------------------------------------------

@cache
def blade_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """e_a * e_b in R_{0,m}: bubble-sort the concatenation, then cancel e_i e_i = -1."""
    seq = list(a) + list(b)
    sign = 1
    for end in range(len(seq) - 1, 0, -1):
        for i in range(end):
            if seq[i] > seq[i + 1]:
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                sign = -sign
    out: list[int] = []
    for x in seq:
        if out and out[-1] == x:
            out.pop()
            sign = -sign
        else:
            out.append(x)
    return sign, tuple(out)


def _add(acc: dict, key, value: Fraction) -> None:
    total = acc.get(key, 0) + value
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def add_fields(*fields: dict) -> dict:
    out: dict = {}
    for f in fields:
        for key, c in f.items():
            _add(out, key, c)
    return out


def partial(f: dict, i: int) -> dict:
    out: dict = {}
    for (alpha, blade), c in f.items():
        e = alpha[i]
        if e:
            _add(out, (alpha[:i] + (e - 1,) + alpha[i + 1:], blade), c * e)
    return out


def _vector_times(row: list[Fraction], f: dict, left: bool) -> dict:
    out: dict = {}
    for (alpha, blade), c in f.items():
        for k, ck in enumerate(row, start=1):
            if ck:
                sign, prod = blade_mul((k,), blade) if left else blade_mul(blade, (k,))
                _add(out, (alpha, prod), sign * ck * c)
    return out


def dirac_left(rows: list[list[Fraction]], f: dict) -> dict:
    return add_fields(*(_vector_times(row, partial(f, j), True) for j, row in enumerate(rows)))


def dirac_right(f: dict, rows: list[list[Fraction]]) -> dict:
    return add_fields(*(_vector_times(row, partial(f, j), False) for j, row in enumerate(rows)))


def laplacian(f: dict, m: int) -> dict:
    return add_fields(*(partial(partial(f, i), i) for i in range(m)))


def region_name(flags: tuple[bool, bool, bool]) -> str:
    names = [name for name, flag in zip(CLASS_NAMES, flags) if flag]
    return "∩".join(names) if names else "none"


def _clear_denominators(values: list[Fraction]) -> list[int]:
    """The values times one positive integer that makes them all integers."""
    scale = lcm(*(Fraction(x).denominator for x in values))
    return [int(x * scale) for x in values]


def membership(phi: list[list[Fraction]], psi: list[list[Fraction]], f: dict) -> dict:
    """The JSON object `classify --format json` must print for f.

    Every flag is a zero test of a map linear in f and in each set, so f
    and each set are first scaled to integers, which keeps Fractions out
    of the inner loops.
    """
    m = len(phi)
    f = dict(zip(f, _clear_denominators(list(f.values()))))
    phi, psi = ([flat[i * m:(i + 1) * m] for i in range(m)]
                for flat in (_clear_denominators([x for row in rows for x in row]) for rows in (phi, psi)))
    flags = (
        not laplacian(f, m),
        not dirac_left(phi, dirac_left(psi, f)),
        not dirac_right(dirac_left(phi, f), psi),
    )
    return {
        "harmonic": flags[0],
        "phiPsiHarmonic": flags[1],
        "inframonogenic": flags[2],
        "hypLeft": not dirac_left(psi, f),
        "hypRight": not dirac_right(f, psi),
        "region": region_name(flags),
    }


def degrees(f: dict) -> set[int]:
    return {sum(alpha) for alpha, _ in f}


# -- text ----------------------------------------------------------------------------

_TERM_SPLIT = re.compile(r" ([+-]) ")
_RATIONAL = re.compile(r"\d+(?:/\d+)?")
_VAR = re.compile(r"x(\d+)(?:\^(\d+))?")
_BLADE = re.compile(r"e\[([\d,]*)\]")


def parse_canonical(text: str, m: int) -> dict:
    """Read the canonical form the program prints: terms `coef*x1^2*x3*e[1,2]`
    joined by ' + ' / ' - '; raises ValueError on anything else."""
    if text == "0":
        return {}
    pieces = _TERM_SPLIT.split(text)
    signed = [(1, pieces[0])] + [(1 if op == "+" else -1, body) for op, body in zip(pieces[1::2], pieces[2::2])]
    out: dict = {}
    for sign, body in signed:
        if body.startswith("-"):
            sign, body = -sign, body[1:]
        coef = Fraction(sign)
        alpha = [0] * m
        blade: tuple[int, ...] = ()
        for factor in body.split("*"):
            if _RATIONAL.fullmatch(factor):
                coef *= Fraction(factor)
            elif match := _VAR.fullmatch(factor):
                alpha[int(match[1]) - 1] += int(match[2] or 1)
            elif match := _BLADE.fullmatch(factor):
                blade = tuple(int(x) for x in match[1].split(",") if x)
            else:
                raise ValueError(f"unexpected factor {factor!r} in {text!r}")
        _add(out, (tuple(alpha), blade), coef)
    return out
