"""Multivector-valued polynomial fields on R^m and their differential operators.

A field is a sparse map from exponent tuples (one exponent per variable)
to multivector coefficients.  Polynomials are global on R^m: every
identity checked here is pointwise-algebraic in derivatives, so there is
no separate domain notion.  Differentiation, the twisted Dirac
operators, the Laplacian and the two-sided (sandwich) operator all stay
in exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .algebra import DimensionMismatch, Multivector, Scalar, check_dimension
from .structural import StructuralSet

MultiIndex = tuple[int, ...]


def _check_multi_index(alpha: MultiIndex, m: int) -> MultiIndex:
    alpha = tuple(alpha)
    if len(alpha) != m:
        raise ValueError(f"multi-index {alpha} has length {len(alpha)}, expected {m}")
    if any(not isinstance(e, int) or e < 0 for e in alpha):
        raise ValueError(f"multi-index {alpha} must consist of non-negative integers")
    return alpha


def _index_key(alpha: MultiIndex) -> tuple[int, MultiIndex]:
    return (sum(alpha), alpha)


class PolyField:
    """Polynomial function R^m -> R_{0,m} with exact coefficients."""

    __slots__ = ("m", "_terms")

    def __init__(self, m: int, terms: Mapping[MultiIndex, Multivector] | Iterable[tuple[MultiIndex, Multivector]] = ()):
        check_dimension(m)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[MultiIndex, Multivector] = {}
        for alpha, mv in items:
            alpha = _check_multi_index(alpha, m)
            if mv.m != m:
                raise DimensionMismatch(f"coefficient dimension {mv.m} does not match field dimension {m}")
            cur = acc.get(alpha)
            total = mv if cur is None else cur + mv
            if total.is_zero():
                acc.pop(alpha, None)
            else:
                acc[alpha] = total
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_terms", {k: acc[k] for k in sorted(acc, key=_index_key)})

    def __setattr__(self, name, value):
        raise AttributeError("PolyField is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "PolyField":
        return cls(m)

    @classmethod
    def constant(cls, value: Multivector) -> "PolyField":
        return cls(value.m, {(0,) * value.m: value})

    @classmethod
    def scalar_constant(cls, m: int, value: Scalar) -> "PolyField":
        return cls(m, {(0,) * m: Multivector.scalar(m, value)})

    @classmethod
    def variable(cls, m: int, i: int) -> "PolyField":
        """The coordinate function x_i as a scalar-valued field."""
        if not 1 <= i <= m:
            raise ValueError(f"variable index {i} out of range 1..{m}")
        alpha = tuple(1 if j == i - 1 else 0 for j in range(m))
        return cls(m, {alpha: Multivector.scalar(m, 1)})

    @classmethod
    def monomial(cls, m: int, alpha: MultiIndex, coef: Multivector) -> "PolyField":
        return cls(m, {tuple(alpha): coef})

    # -- inspection -------------------------------------------------------

    def terms(self) -> Iterator[tuple[MultiIndex, Multivector]]:
        return iter(self._terms.items())

    def coefficient(self, alpha: MultiIndex) -> Multivector:
        return self._terms.get(tuple(alpha), Multivector.zero(self.m))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero field."""
        return max((sum(a) for a in self._terms), default=-1)

    def homogeneous_component(self, d: int) -> "PolyField":
        return PolyField(self.m, {a: mv for a, mv in self._terms.items() if sum(a) == d})

    def is_homogeneous(self, d: int) -> bool:
        return all(sum(a) == d for a in self._terms)

    # -- pointwise value maps ---------------------------------------------

    def map_coefficients(self, fn) -> "PolyField":
        """Apply a linear multivector map to every coefficient."""
        return PolyField(self.m, {a: fn(mv) for a, mv in self._terms.items()})

    def even_part(self) -> "PolyField":
        return self.map_coefficients(lambda mv: mv.even_part())

    def odd_part(self) -> "PolyField":
        return self.map_coefficients(lambda mv: mv.odd_part())

    def grade_project(self, k: int) -> "PolyField":
        return self.map_coefficients(lambda mv: mv.grade_project(k))

    # -- ring structure -----------------------------------------------------

    def _require_same_dimension(self, other) -> None:
        if self.m != other.m:
            raise DimensionMismatch(f"cannot combine dimensions {self.m} and {other.m}")

    def __add__(self, other):
        if isinstance(other, PolyField):
            self._require_same_dimension(other)
            acc = dict(self._terms)
            for a, mv in other._terms.items():
                cur = acc.get(a)
                acc[a] = mv if cur is None else cur + mv
            return PolyField(self.m, acc)
        if isinstance(other, Multivector):
            return self + PolyField.constant(other)
        if isinstance(other, (int, Fraction)):
            return self + PolyField.scalar_constant(self.m, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return PolyField(self.m, {a: -mv for a, mv in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (PolyField, Multivector)):
            return self + (-other)
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (Multivector, int, Fraction)):
            return -(self - other)
        return NotImplemented

    def __mul__(self, other):
        """Product of fields; multivector factors multiply on the matching side."""
        if isinstance(other, PolyField):
            self._require_same_dimension(other)
            acc: dict[MultiIndex, Multivector] = {}
            for a, mva in self._terms.items():
                for b, mvb in other._terms.items():
                    c = tuple(x + y for x, y in zip(a, b))
                    prod = mva * mvb
                    cur = acc.get(c)
                    total = prod if cur is None else cur + prod
                    if total.is_zero():
                        acc.pop(c, None)
                    else:
                        acc[c] = total
            return PolyField(self.m, acc)
        if isinstance(other, Multivector):
            return PolyField(self.m, {a: mv * other for a, mv in self._terms.items()})
        if isinstance(other, (int, Fraction)):
            return PolyField(self.m, {a: mv * Fraction(other) for a, mv in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Multivector):
            return PolyField(self.m, {a: other * mv for a, mv in self._terms.items()})
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"field exponent must be a non-negative integer, got {n!r}")
        # Square and multiply; powers of one field commute, so this is f*f*...*f.
        out = PolyField.scalar_constant(self.m, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, PolyField):
            return self.m == other.m and self._terms == other._terms
        if isinstance(other, (Multivector, int, Fraction)):
            other_field = PolyField.constant(other) if isinstance(other, Multivector) else PolyField.scalar_constant(self.m, other)
            return self == other_field
        return NotImplemented

    __hash__ = None

    # -- calculus -----------------------------------------------------------

    def partial(self, i: int) -> "PolyField":
        """Partial derivative along x_i (1-based axis)."""
        if not 1 <= i <= self.m:
            raise ValueError(f"axis {i} out of range 1..{self.m}")
        k = i - 1
        acc: dict[MultiIndex, Multivector] = {}
        for a, mv in self._terms.items():
            e = a[k]
            if e == 0:
                continue
            b = a[:k] + (e - 1,) + a[k + 1:]
            scaled = mv * e
            cur = acc.get(b)
            acc[b] = scaled if cur is None else cur + scaled
        return PolyField(self.m, acc)

    def evaluate(self, point: Sequence[Scalar]) -> Multivector:
        """Exact evaluation at a rational point."""
        if len(point) != self.m:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.m}")
        coords = [Fraction(x) for x in point]
        total = Multivector.zero(self.m)
        for a, mv in self._terms.items():
            factor = Fraction(1)
            for x, e in zip(coords, a):
                factor *= x ** e
            total = total + mv * factor
        return total

    def __str__(self) -> str:
        from .parser import format_field

        return format_field(self)

    def __repr__(self) -> str:
        return f"PolyField({self.m}, {str(self)!r})"

    def to_json_terms(self) -> list[dict]:
        """Canonical JSON term list: one entry per (monomial, blade) pair."""
        from .algebra import blade_indices

        out = []
        for alpha, mv in self._terms.items():
            for mask, coef in mv.terms():
                out.append({"alpha": list(alpha), "blade": list(blade_indices(mask)), "coef": str(coef)})
        return out


def _require_field_set(sset: StructuralSet, f: PolyField) -> None:
    if sset.m != f.m:
        raise DimensionMismatch(f"structural set dimension {sset.m} does not match field dimension {f.m}")


def dirac_left(sset: StructuralSet, f: PolyField) -> PolyField:
    """Left twisted Dirac operator: sum_j v_j * (d f / d x_j)."""
    _require_field_set(sset, f)
    out = PolyField.zero(f.m)
    for j in range(1, f.m + 1):
        out = out + sset[j] * f.partial(j)
    return out


def dirac_right(f: PolyField, sset: StructuralSet) -> PolyField:
    """Right twisted Dirac operator: sum_j (d f / d x_j) * v_j."""
    _require_field_set(sset, f)
    out = PolyField.zero(f.m)
    for j in range(1, f.m + 1):
        out = out + f.partial(j) * sset[j]
    return out


def laplacian(f: PolyField) -> PolyField:
    out = PolyField.zero(f.m)
    for i in range(1, f.m + 1):
        out = out + f.partial(i).partial(i)
    return out


def sandwich(phi: StructuralSet, f: PolyField, psi: StructuralSet) -> PolyField:
    """Two-sided operator sum_{i,j} phi_i (d^2 f / dx_i dx_j) psi_j.

    Computed as right-after-left; the left-after-right order agrees
    because the one-sided operators act on opposite sides.
    """
    _require_field_set(phi, f)
    _require_field_set(psi, f)
    return dirac_right(dirac_left(phi, f), psi)
