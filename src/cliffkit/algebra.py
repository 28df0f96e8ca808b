"""Exact arithmetic in the real Clifford algebra R_{0,m}.

Basis blades are encoded as bitmasks over the generators e_1..e_m (bit
i-1 stands for e_i).  Every generator squares to -1 and distinct
generators anticommute, so the product of two blades is a signed blade;
a multivector is a sparse map from blade masks to rational coefficients,
kept as integer numerators over one positive denominator in lowest terms.

All values are immutable after construction and every operation returns
a new object, so they can be shared freely between threads or tasks.

Input is validated once, where it enters: `Multivector(m, terms)` checks
the dimension, every mask and every coefficient, and the named builders
check their own arguments.  Everything built from valid parts goes through
the trusted `Multivector._of`, which takes numerators and denominator
already in lowest terms and only puts the blades in canonical order, by a
per-m blade-rank table; a caller holding Fractions converts them with
`_as_integers` first.  `PolyField._of` and `StructuralSet._of` are the same
for fields and structural sets.  A field keeps this representation one
level up, numerators of (monomial, blade) terms over one denominator, and
reduces with the same `_lowest`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Union

MAX_DIMENSION = 12

Scalar = Union[Fraction, int]


class DimensionMismatch(ValueError):
    """Raised when operands live in algebras of different dimension."""


def check_dimension(m: int) -> None:
    if not isinstance(m, int) or not 1 <= m <= MAX_DIMENSION:
        raise ValueError(f"algebra dimension must be an integer in 1..{MAX_DIMENSION}, got {m!r}")


def blade_indices(mask: int) -> tuple[int, ...]:
    """1-based generator indices of a blade mask, in increasing order."""
    if mask < 0:
        raise ValueError(f"blade mask {mask} is negative")
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def indices_to_mask(indices: Iterable[int], m: int) -> int:
    """Mask of a blade given by strictly increasing 1-based indices."""
    mask = 0
    last = 0
    for i in indices:
        if not isinstance(i, int) or not 1 <= i <= m:
            raise ValueError(f"blade index {i!r} out of range 1..{m}")
        if i <= last:
            raise ValueError(f"blade indices must be strictly increasing, got index {i} after {last}")
        mask |= 1 << (i - 1)
        last = i
    return mask


def blade_sort_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Canonical blade order: by grade, then lexicographically by indices."""
    return (mask.bit_count(), blade_indices(mask))


_BLADE_ORDER: dict[int, tuple[int, ...]] = {}
_BLADE_RANK: dict[int, list[int]] = {}


def blade_order(m: int) -> tuple[int, ...]:
    """All 2^m blade masks in canonical order; sorted on first use for each m and shared, so a tuple."""
    order = _BLADE_ORDER.get(m)
    if order is None:
        check_dimension(m)
        order = _BLADE_ORDER[m] = tuple(sorted(range(1 << m), key=blade_sort_key))
    return order


def _blade_rank(m: int) -> list[int]:
    """Position of each mask in `blade_order(m)`; built on first use for each m."""
    rank = _BLADE_RANK.get(m)
    if rank is None:
        rank = [0] * (1 << m)
        for position, mask in enumerate(blade_order(m)):
            rank[mask] = position
        _BLADE_RANK[m] = rank
    return rank


def blade_product(a: int, b: int) -> tuple[int, int]:
    """Product of two blade masks in R_{0,m}: returns (sign, result mask).

    The sign counts the transpositions needed to interleave the two
    increasing index sequences, with an extra -1 for every shared
    generator since e_i * e_i = -1.
    """
    if a < 0 or b < 0:
        raise ValueError(f"blade mask {min(a, b)} is negative")
    swaps = 0
    bb = b
    while bb:
        low = bb & -bb
        swaps += (a & ~(low | (low - 1))).bit_count()
        bb ^= low
    sign = -1 if swaps & 1 else 1
    if (a & b).bit_count() & 1:
        sign = -sign
    return sign, a ^ b


_ODD_MASKS: dict[int, list[int]] = {}


def _odd_masks(m: int) -> list[int]:
    """For each mask a < 2^m, the mask w_a with blade_product(a, b) negative exactly
    when b & w_a has an odd number of bits; built on first use for each m.

    Bit i of w_a is the parity of the bits of a at positions >= i: the
    generators of a that e_i passes (those above it) plus e_i * e_i = -1
    when a holds e_i itself.
    """
    table = _ODD_MASKS.get(m)
    if table is None:
        table = []
        for a in range(1 << m):
            w, i = 0, 0
            while a >> i:
                if (a >> i).bit_count() & 1:
                    w |= 1 << i
                i += 1
            table.append(w)
        _ODD_MASKS[m] = table
    return table


def _reverse_sign(k: int) -> int:
    return -1 if (k * (k - 1) // 2) & 1 else 1


def _conjugate_sign(k: int) -> int:
    return -1 if (k * (k + 1) // 2) & 1 else 1


def _lowest(num: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """Nonzero numerators over den > 0, divided by gcd(den, *numerators); no numerators give 1 as denominator."""
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            return {mask: c // g for mask, c in num.items()}, den // g
    return num, den


def _as_integers(terms: Mapping[int, Scalar]) -> tuple[dict[int, int], int]:
    """Nonzero rational coefficients as integer numerators over the lcm of their denominators.

    That pair is already in lowest terms: for each prime p of the lcm, some
    denominator holds the lcm's whole power of p, so that coefficient's
    numerator, prime to its denominator, is scaled by a factor without p.
    """
    den = lcm(*(c.denominator for c in terms.values()))
    return {mask: c.numerator * (den // c.denominator) for mask, c in terms.items()}, den


class Multivector:
    """An element of R_{0,m} with exact rational coefficients.

    The coefficients are kept as integer numerators over one positive
    denominator, in lowest terms: gcd(den, *numerators) == 1, zero
    numerators are dropped and zero itself has denominator 1.  So
    structural equality agrees with mathematical equality, and products
    and sums run on integers, reducing once per result.  The public
    accessors still hand out Fractions.
    """

    __slots__ = ("m", "_num", "_den")

    def __init__(self, m: int, terms: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        check_dimension(m)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, Fraction] = {}
        top = 1 << m
        for mask, coef in items:
            if not 0 <= mask < top:
                raise ValueError(f"blade mask {mask} out of range for dimension {m}")
            c = acc.get(mask, Fraction(0)) + Fraction(coef)
            if c:
                acc[mask] = c
            else:
                acc.pop(mask, None)
        num, den = _as_integers(acc)
        rank = _blade_rank(m)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_num", {k: num[k] for k in sorted(num, key=rank.__getitem__)})
        object.__setattr__(self, "_den", den)

    @classmethod
    def _of(cls, m: int, num: dict[int, int], den: int = 1) -> "Multivector":
        """Trusted constructor for results of operations on valid multivectors.

        `num` must map masks in range for m to nonzero integers, in lowest
        terms over `den` (see `_lowest`); it is only put into canonical
        order, and the new value takes it over.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "m", m)
        if len(num) > 1:
            rank = _blade_rank(m)
            num = {k: num[k] for k in sorted(num, key=rank.__getitem__)}
        object.__setattr__(out, "_num", num)
        object.__setattr__(out, "_den", den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "Multivector":
        return cls.scalar(m, 0)

    @classmethod
    def scalar(cls, m: int, value: Scalar) -> "Multivector":
        return cls._term(m, 0, Fraction(value))

    @classmethod
    def basis_vector(cls, m: int, i: int) -> "Multivector":
        """The generator e_i."""
        if not 1 <= i <= m:
            raise ValueError(f"generator index {i} out of range 1..{m}")
        return cls._term(m, 1 << (i - 1), Fraction(1))

    @classmethod
    def blade(cls, m: int, indices: Iterable[int], coef: Scalar = 1) -> "Multivector":
        return cls._term(m, indices_to_mask(indices, m), Fraction(coef))

    @classmethod
    def _term(cls, m: int, mask: int, coef: Fraction) -> "Multivector":
        """coef * e_mask for a mask in range; the dimension is checked last, as `__init__` did."""
        check_dimension(m)
        return cls._of(m, {mask: coef.numerator}, coef.denominator) if coef else cls._of(m, {})

    # -- inspection ---------------------------------------------------

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        den = self._den
        return ((mask, Fraction(c, den)) for mask, c in self._num.items())

    def coefficient(self, mask_or_indices) -> Fraction:
        mask = mask_or_indices if isinstance(mask_or_indices, int) else indices_to_mask(mask_or_indices, self.m)
        return Fraction(self._num.get(mask, 0), self._den)

    def scalar_part(self) -> Fraction:
        return Fraction(self._num.get(0, 0), self._den)

    def coefficients(self, order: Iterable[int] | None = None) -> list[Fraction]:
        masks = blade_order(self.m) if order is None else order
        num, den = self._num, self._den
        return [Fraction(num.get(mask, 0), den) for mask in masks]

    def grades(self) -> set[int]:
        return {mask.bit_count() for mask in self._num}

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __len__(self) -> int:
        return len(self._num)

    # -- ring structure -----------------------------------------------

    def _require_same_dimension(self, other: "Multivector") -> None:
        if self.m != other.m:
            raise DimensionMismatch(f"cannot combine dimensions {self.m} and {other.m}")

    def _scaled(self, p: int, q: int) -> "Multivector":
        """self * p/q for integers p and q > 0."""
        if not p:
            return Multivector._of(self.m, {})
        return Multivector._of(self.m, *_lowest({mask: c * p for mask, c in self._num.items()}, self._den * q))

    def __add__(self, other):
        if isinstance(other, Multivector):
            self._require_same_dimension(other)
            den = lcm(self._den, other._den)
            fa, fb = den // self._den, den // other._den
            acc = {mask: c * fa for mask, c in self._num.items()} if fa != 1 else dict(self._num)
            for mask, c in other._num.items():
                c *= fb
                if mask in acc:
                    c += acc[mask]
                    if not c:
                        del acc[mask]
                        continue
                acc[mask] = c
            return Multivector._of(self.m, *_lowest(acc, den))
        if isinstance(other, (int, Fraction)):
            return self + Multivector.scalar(self.m, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Multivector._of(self.m, {mask: -c for mask, c in self._num.items()}, self._den)

    def __sub__(self, other):
        if isinstance(other, (Multivector, int, Fraction)):
            return self + (-other if isinstance(other, Multivector) else Multivector.scalar(self.m, -Fraction(other)))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return Multivector.scalar(self.m, other) - self
        return NotImplemented

    def __mul__(self, other):
        """Geometric product, or scaling by a rational."""
        if isinstance(other, Multivector):
            self._require_same_dimension(other)
            acc: dict[int, int] = {}
            odd = _odd_masks(self.m)
            right = other._num.items()
            for ma, ca in self._num.items():
                w = odd[ma]
                for mb, cb in right:
                    mr = ma ^ mb
                    if (mb & w).bit_count() & 1:
                        acc[mr] = acc.get(mr, 0) - ca * cb
                    else:
                        acc[mr] = acc.get(mr, 0) + ca * cb
            return Multivector._of(self.m, *_lowest({mask: c for mask, c in acc.items() if c}, self._den * other._den))
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("multivector division by zero")
            p, q = other.denominator, other.numerator
            return self._scaled(-p, -q) if q < 0 else self._scaled(p, q)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Multivector):
            return self.m == other.m and self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return self == Multivector.scalar(self.m, other)
        return NotImplemented

    __hash__ = None

    # -- grade structure ----------------------------------------------

    def _select(self, keep) -> "Multivector":
        """The terms whose grade satisfies `keep`, in lowest terms."""
        num = {mask: c for mask, c in self._num.items() if keep(mask.bit_count())}
        return Multivector._of(self.m, *_lowest(num, self._den))

    def grade_project(self, k: int) -> "Multivector":
        """The grade-k component [a]_k."""
        if not 0 <= k <= self.m:
            raise ValueError(f"grade {k} out of range 0..{self.m}")
        return self._select(k.__eq__)

    def even_part(self) -> "Multivector":
        return self._select(lambda g: not g & 1)

    def odd_part(self) -> "Multivector":
        return self._select(lambda g: g & 1)

    # -- involutions ---------------------------------------------------

    def _signed(self, sign_of_grade) -> "Multivector":
        """Each term times the sign its grade gets; the denominator stays."""
        num = {mask: c if sign_of_grade(mask.bit_count()) > 0 else -c for mask, c in self._num.items()}
        return Multivector._of(self.m, num, self._den)

    def conjugate(self) -> "Multivector":
        """Anti-automorphism sending each generator e_i to -e_i."""
        return self._signed(_conjugate_sign)

    def reverse(self) -> "Multivector":
        """Anti-automorphism fixing each generator e_i."""
        return self._signed(_reverse_sign)

    # -- display --------------------------------------------------------

    def __str__(self) -> str:
        return format_multivector(self)

    def __repr__(self) -> str:
        return f"Multivector({self.m}, {format_multivector(self)!r})"


def format_blade_term(coef: Fraction, factors: list[str]) -> str:
    """Render one term of the text serialization; the parser reads it back."""
    if not factors:
        return str(coef)
    body = "*".join(factors)
    if coef == 1:
        return body
    if coef == -1:
        return "-" + body
    return f"{coef}*{body}"


def join_terms(term_strings: list[str]) -> str:
    if not term_strings:
        return "0"
    out = [term_strings[0]]
    for t in term_strings[1:]:
        if t.startswith("-"):
            out.append(" - " + t[1:])
        else:
            out.append(" + " + t)
    return "".join(out)


def format_multivector(a: Multivector) -> str:
    terms = []
    for mask, c in a.terms():
        factors = [] if mask == 0 else ["e[" + ",".join(map(str, blade_indices(mask))) + "]"]
        terms.append(format_blade_term(c, factors))
    return join_terms(terms)
