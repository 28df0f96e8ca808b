"""Exact arithmetic in the real Clifford algebra R_{0,m}.

Basis blades are encoded as bitmasks over the generators e_1..e_m (bit
i-1 stands for e_i).  Every generator squares to -1 and distinct
generators anticommute, so the product of two blades is a signed blade;
a multivector is a sparse map from blade masks to rational coefficients.

All values are immutable after construction and every operation returns
a new object, so they can be shared freely between threads or tasks.
"""

from __future__ import annotations

from fractions import Fraction
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


def blade_order(m: int) -> list[int]:
    """All 2^m blade masks in canonical order."""
    check_dimension(m)
    return sorted(range(1 << m), key=blade_sort_key)


def blade_product(a: int, b: int) -> tuple[int, int]:
    """Product of two blade masks in R_{0,m}: returns (sign, result mask).

    The sign counts the transpositions needed to interleave the two
    increasing index sequences, with an extra -1 for every shared
    generator since e_i * e_i = -1.
    """
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


def _reverse_sign(k: int) -> int:
    return -1 if (k * (k - 1) // 2) & 1 else 1


def _conjugate_sign(k: int) -> int:
    return -1 if (k * (k + 1) // 2) & 1 else 1


class Multivector:
    """An element of R_{0,m} with exact rational coefficients.

    Zero coefficients are dropped eagerly, so structural equality agrees
    with mathematical equality.
    """

    __slots__ = ("m", "_terms")

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
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_terms", {k: acc[k] for k in sorted(acc, key=blade_sort_key)})

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "Multivector":
        return cls(m)

    @classmethod
    def scalar(cls, m: int, value: Scalar) -> "Multivector":
        return cls(m, {0: Fraction(value)})

    @classmethod
    def basis_vector(cls, m: int, i: int) -> "Multivector":
        """The generator e_i."""
        if not 1 <= i <= m:
            raise ValueError(f"generator index {i} out of range 1..{m}")
        return cls(m, {1 << (i - 1): Fraction(1)})

    @classmethod
    def blade(cls, m: int, indices: Iterable[int], coef: Scalar = 1) -> "Multivector":
        return cls(m, {indices_to_mask(indices, m): Fraction(coef)})

    @classmethod
    def from_coefficients(cls, m: int, coeffs: Iterable[Scalar], order: list[int] | None = None) -> "Multivector":
        """Rebuild a multivector from a coefficient vector in blade order."""
        masks = blade_order(m) if order is None else order
        return cls(m, zip(masks, coeffs))

    # -- inspection ---------------------------------------------------

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        return iter(self._terms.items())

    def coefficient(self, mask_or_indices) -> Fraction:
        mask = mask_or_indices if isinstance(mask_or_indices, int) else indices_to_mask(mask_or_indices, self.m)
        return self._terms.get(mask, Fraction(0))

    def scalar_part(self) -> Fraction:
        return self._terms.get(0, Fraction(0))

    def coefficients(self, order: list[int] | None = None) -> list[Fraction]:
        masks = blade_order(self.m) if order is None else order
        return [self._terms.get(mask, Fraction(0)) for mask in masks]

    def grades(self) -> set[int]:
        return {mask.bit_count() for mask in self._terms}

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring structure -----------------------------------------------

    def _require_same_dimension(self, other: "Multivector") -> None:
        if self.m != other.m:
            raise DimensionMismatch(f"cannot combine dimensions {self.m} and {other.m}")

    def __add__(self, other):
        if isinstance(other, Multivector):
            self._require_same_dimension(other)
            acc = dict(self._terms)
            for mask, c in other._terms.items():
                acc[mask] = acc.get(mask, Fraction(0)) + c
            return Multivector(self.m, acc)
        if isinstance(other, (int, Fraction)):
            return self + Multivector.scalar(self.m, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Multivector(self.m, {mask: -c for mask, c in self._terms.items()})

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
            acc: dict[int, Fraction] = {}
            for ma, ca in self._terms.items():
                for mb, cb in other._terms.items():
                    sign, mr = blade_product(ma, mb)
                    c = acc.get(mr, Fraction(0)) + (ca * cb if sign > 0 else -ca * cb)
                    if c:
                        acc[mr] = c
                    else:
                        acc.pop(mr, None)
            return Multivector(self.m, acc)
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Multivector(self.m, {mask: c * q for mask, c in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, Multivector):
            return self.m == other.m and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Multivector.scalar(self.m, other)
        return NotImplemented

    __hash__ = None

    # -- grade structure ----------------------------------------------

    def grade_project(self, k: int) -> "Multivector":
        """The grade-k component [a]_k."""
        if not 0 <= k <= self.m:
            raise ValueError(f"grade {k} out of range 0..{self.m}")
        return Multivector(self.m, {mask: c for mask, c in self._terms.items() if mask.bit_count() == k})

    def even_part(self) -> "Multivector":
        return Multivector(self.m, {mask: c for mask, c in self._terms.items() if not mask.bit_count() & 1})

    def odd_part(self) -> "Multivector":
        return Multivector(self.m, {mask: c for mask, c in self._terms.items() if mask.bit_count() & 1})

    # -- involutions ---------------------------------------------------

    def conjugate(self) -> "Multivector":
        """Anti-automorphism sending each generator e_i to -e_i."""
        return Multivector(self.m, {mask: c * _conjugate_sign(mask.bit_count()) for mask, c in self._terms.items()})

    def reverse(self) -> "Multivector":
        """Anti-automorphism fixing each generator e_i."""
        return Multivector(self.m, {mask: c * _reverse_sign(mask.bit_count()) for mask, c in self._terms.items()})

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
