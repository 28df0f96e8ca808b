"""Text grammar for polynomial fields and multivectors.

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-') factor | power
    power  := atom ('^' INT)?
    atom   := INT | VAR | BLADE | '(' expr ')'

    INT    := digits                (at most MAX_NUMBER_TEXT of them)
    VAR    := 'x' digits            (x1 .. xm)
    BLADE  := 'e[' indices ']'      (strictly increasing, e.g. e[1,3]; e[] is the scalar blade)

Whitespace is ignored everywhere.  '/' requires a nonzero constant
rational divisor, which makes literals like 3/5 work and nothing more
exotic.  Parentheses and unary signs nest at most `MAX_NESTING` deep
together; the opening of level MAX_NESTING + 1 is a parse error at its
own offset, so the limit does not move with the caller's stack depth.
`parse(format(f)) == f` holds for every field f.

`parse_field` checks the dimension once, on entry; numbers and variables
come from the named builders, `e[...]` atoms from the trusted `_of`.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import Multivector, blade_indices, check_dimension, format_blade_term, indices_to_mask, join_terms
from .fields import PolyField
from .structural import MAX_NUMBER_TEXT

# Each level costs at most five parser frames, so this stays well below
# Python's default recursion limit of 1000.
MAX_NESTING = 100


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
        self.depth = 0

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

    def _enter(self) -> None:
        """Open one nesting level at the current offset."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("expression nests too deeply", self.pos)

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        if self.pos - start > MAX_NUMBER_TEXT:
            raise ParseError(f"integer has {self.pos - start} digits, more than the {MAX_NUMBER_TEXT} allowed", start)
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
        sign = self._peek()
        if sign not in ("-", "+"):
            return self.power()
        self._enter()
        self.pos += 1
        value = self.factor()
        self.depth -= 1
        return -value if sign == "-" else value

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
            self._enter()
            self.pos += 1
            value = self.expr()
            self._expect(")")
            self.depth -= 1
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
            return PolyField.constant(Multivector._of(self.m, {mask: 1}))
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
    check_dimension(m)
    return _Parser(text, m).parse()


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
