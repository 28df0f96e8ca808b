"""Text grammar for polynomial fields and multivectors.

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('+' | '-')* atom ('^' INT)?
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

`parse_field` checks the dimension once, on entry.  While it reads, every
value is a field's own representation, integer terms {(alpha, mask):
numerator} over one positive denominator with no zero numerators, reduced
only where a power takes its base: '+' and '-' are the flat sum
`fields._merge`, '*' and '^' the flat product `fields._times`, and '/'
scales by the divisor's denominator and numerator.  The field is reduced
to lowest terms once, at the end, by `fields._field`; no `PolyField`
arithmetic runs.
"""

from __future__ import annotations

from .algebra import Multivector, _lowest, _odd_masks, blade_indices, check_dimension, format_blade_term
from .algebra import indices_to_mask, join_terms
from .fields import PolyField, Value, _field, _merge, _times
from .structural import MAX_NUMBER_TEXT

# A parenthesis level costs three parser frames (expr, term, factor) and a
# unary sign none, so this stays well below Python's default recursion limit of 1000.
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
        self.origin = (0,) * m
        self.odd = _odd_masks(m)

    # -- lexing helpers ----------------------------------------------

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        ch = self.text[self.pos:self.pos + 1]
        if ch.isspace():
            self._skip_ws()
            ch = self.text[self.pos:self.pos + 1]
        return ch

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
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        if self.pos - start > MAX_NUMBER_TEXT:
            raise ParseError(f"integer has {self.pos - start} digits, more than the {MAX_NUMBER_TEXT} allowed", start)
        return int(self.text[start:self.pos])

    # -- grammar ------------------------------------------------------

    def parse(self) -> PolyField:
        terms, den = self.expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected {self.text[self.pos]!r}", self.pos)
        return _field(self.m, terms, den)

    def expr(self) -> Value:
        value = self.term()
        while True:
            ch = self._peek()
            if ch not in ("+", "-"):
                return value
            self.pos += 1
            value = _merge(value, self.term(), 1 if ch == "+" else -1)

    def term(self) -> Value:
        value = self.factor()
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                value = _times(value, self.factor(), self.odd)
            elif ch == "/":
                self.pos += 1
                at = self.pos
                terms, den = self.factor()
                q = terms.get((self.origin, 0)) if len(terms) == 1 else None
                if q is None:
                    raise ParseError("divisor must be a nonzero rational constant", at)
                if q < 0:
                    den, q = -den, -q
                value = {key: c * den for key, c in value[0].items()}, value[1] * q
            else:
                return value

    def factor(self) -> Value:
        """Unary signs, one nesting level each at its own offset, then an atom and its optional power."""
        depth, negate = self.depth, False
        ch = self._peek()
        while ch in ("-", "+"):
            self._enter()
            self.pos += 1
            negate ^= ch == "-"
            ch = self._peek()
        at = self.pos
        if ch == "(":
            self._enter()
            self.pos += 1
            value = self.expr()
            self._expect(")")
        elif ch.isdecimal():
            n = self._integer()
            value = ({(self.origin, 0): n} if n else {}), 1
        elif ch == "x":
            self.pos += 1
            idx = self._integer()
            if not 1 <= idx <= self.m:
                raise ParseError(f"unknown variable x{idx}, dimension is {self.m}", at)
            value = {(self.origin[:idx - 1] + (1,) + self.origin[idx:], 0): 1}, 1
        elif ch == "e":
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
            value = {(self.origin, mask): 1}, 1
        elif ch == "":
            raise ParseError("unexpected end of input", at)
        else:
            raise ParseError(f"unexpected {ch!r}", at)
        self.depth = depth
        if self._take("^"):
            n = self._integer()
            # Lowest terms first, so a monomial's power stays as cheap as its exponent's bit length.
            base = _lowest(*value)
            # Square and multiply; powers of one value commute.
            value = {(self.origin, 0): 1}, 1
            while n:
                if n & 1:
                    value = _times(value, base, self.odd)
                n >>= 1
                if n:
                    base = _times(base, base, self.odd)
        if negate:
            return {key: -c for key, c in value[0].items()}, value[1]
        return value


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
