"""Text grammar for polynomial fields and multivectors.

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-') factor | power
    power  := atom ('^' INT)?
    atom   := INT | VAR | BLADE | '(' expr ')'

    INT    := digits
    VAR    := 'x' digits            (x1 .. xm)
    BLADE  := 'e[' indices ']'      (strictly increasing, e.g. e[1,3]; e[] is the scalar blade)

Whitespace is ignored everywhere.  '/' requires a nonzero constant
rational divisor, which makes literals like 3/5 work and nothing more
exotic.  `parse(format(f)) == f` holds for every field f.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Multivector, blade_indices, format_blade_term, indices_to_mask, join_terms
from .fields import PolyField


class ParseError(ValueError):
    """Syntax or range error, with the 0-based offset where it happened."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    def __init__(self, text: str, m: int):
        self.text = text
        self.m = m
        self.pos = 0

    # -- lexing helpers ----------------------------------------------

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _take(self, ch: str) -> bool:
        if self._peek() == ch:
            self.pos += 1
            return True
        return False

    def _expect(self, ch: str) -> None:
        if not self._take(ch):
            raise ParseError(f"expected {ch!r}", self.pos)

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    # -- grammar ------------------------------------------------------

    def parse(self) -> PolyField:
        value = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return value

    def expr(self) -> PolyField:
        value = self.term()
        while True:
            if self._take("+"):
                value = value + self.term()
            elif self._take("-"):
                value = value - self.term()
            else:
                return value

    def term(self) -> PolyField:
        value = self.factor()
        while True:
            if self._take("*"):
                value = value * self.factor()
            elif self._take("/"):
                at = self.pos
                divisor = self.factor()
                q = _as_nonzero_rational(divisor)
                if q is None:
                    raise ParseError("divisor must be a nonzero rational constant", at)
                value = value / q
            else:
                return value

    def factor(self) -> PolyField:
        if self._take("-"):
            return -self.factor()
        if self._take("+"):
            return self.factor()
        return self.power()

    def power(self) -> PolyField:
        base = self.atom()
        if self._take("^"):
            at = self.pos
            exponent = self._integer()
            try:
                return base ** exponent
            except ValueError as exc:
                raise ParseError(str(exc), at) from None
        return base

    def atom(self) -> PolyField:
        ch = self._peek()
        at = self.pos
        if ch == "(":
            self.pos += 1
            value = self.expr()
            self._expect(")")
            return value
        if ch.isdigit():
            return PolyField.scalar_constant(self.m, self._integer())
        if ch == "x":
            self.pos += 1
            idx = self._integer()
            if not 1 <= idx <= self.m:
                raise ParseError(f"unknown variable x{idx}, dimension is {self.m}", at)
            return PolyField.variable(self.m, idx)
        if ch == "e":
            self.pos += 1
            self._expect("[")
            indices: list[int] = []
            if not self._take("]"):
                while True:
                    indices.append(self._integer())
                    if self._take("]"):
                        break
                    self._expect(",")
            try:
                mask = indices_to_mask(indices, self.m)
            except ValueError as exc:
                raise ParseError(str(exc), at) from None
            return PolyField.constant(Multivector(self.m, {mask: Fraction(1)}))
        if ch == "":
            raise ParseError("unexpected end of input", at)
        raise ParseError(f"unexpected {ch!r}", at)


def _as_nonzero_rational(f: PolyField) -> Fraction | None:
    if f.degree() > 0:
        return None
    mv = f.coefficient((0,) * f.m)
    if mv.grades() not in (set(), {0}):
        return None
    q = mv.scalar_part()
    return q if q else None


def parse_field(text: str, m: int) -> PolyField:
    """Parse a field expression in dimension m."""
    parser = _Parser(text, m)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nests too deeply", parser.pos) from None


def parse_multivector(text: str, m: int) -> Multivector:
    """Parse a constant expression; rejects anything with variables."""
    f = parse_field(text, m)
    if f.degree() > 0:
        raise ParseError("expected a constant multivector expression", 0)
    return f.coefficient((0,) * m)


def format_field(f: PolyField) -> str:
    """Canonical text form; `parse_field` reads it back verbatim."""
    terms = []
    for alpha, mv in f.terms():
        var_factors = []
        for i, e in enumerate(alpha, start=1):
            if e == 1:
                var_factors.append(f"x{i}")
            elif e > 1:
                var_factors.append(f"x{i}^{e}")
        for mask, coef in mv.terms():
            factors = list(var_factors)
            if mask:
                factors.append("e[" + ",".join(map(str, blade_indices(mask))) + "]")
            terms.append(format_blade_term(coef, factors))
    return join_terms(terms)
