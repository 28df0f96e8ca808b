"""Multivector-valued polynomial fields on R^m and their differential operators.

A field is a sparse map from exponent tuples (one exponent per variable)
to multivector coefficients.  Polynomials are global on R^m: every
identity checked here is pointwise-algebraic in derivatives, so there is
no separate domain notion.  Differentiation, the twisted Dirac
operators, the Laplacian and the two-sided (sandwich) operator all stay
in exact rational arithmetic.

The differential operators share one integer kernel: a field is flattened to
{(alpha, mask): numerator} over the lcm of its coefficients' denominators, a
structural set gives the integer rows it keeps (`StructuralSet._rows`, over
the lcm `_den` of its vectors' denominators), and a first partial is
alpha_j * c at alpha - e_j.  Each operator rebuilds one field at the end,
reducing each coefficient over the product of the scales.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .algebra import DimensionMismatch, Multivector, Scalar, _lowest, _odd_masks, check_dimension
from .structural import StructuralSet

MultiIndex = tuple[int, ...]


def _check_term(alpha: MultiIndex, mv: Multivector, m: int) -> tuple[MultiIndex, Multivector]:
    alpha = tuple(alpha)
    if len(alpha) != m:
        raise ValueError(f"multi-index {alpha} has length {len(alpha)}, expected {m}")
    if any(not isinstance(e, int) or e < 0 for e in alpha):
        raise ValueError(f"multi-index {alpha} must consist of non-negative integers")
    if mv.m != m:
        raise DimensionMismatch(f"coefficient dimension {mv.m} does not match field dimension {m}")
    return alpha, mv


def _index_key(alpha: MultiIndex) -> tuple[int, MultiIndex]:
    return (sum(alpha), alpha)


def _sum_terms(pairs: Iterable[tuple[MultiIndex, Multivector]]) -> dict[MultiIndex, Multivector]:
    """Sum (monomial, multivector) pairs by monomial into one dict, leaving out the sums that vanish."""
    acc: dict[MultiIndex, Multivector] = {}
    for alpha, mv in pairs:
        cur = acc.get(alpha)
        acc[alpha] = mv if cur is None else cur + mv
    return {alpha: mv for alpha, mv in acc.items() if mv}


class PolyField:
    """Polynomial function R^m -> R_{0,m} with exact coefficients; `PolyField(m, terms)` validates, `_of` trusts."""

    __slots__ = ("m", "_terms")

    def __init__(self, m: int, terms: Mapping[MultiIndex, Multivector] | Iterable[tuple[MultiIndex, Multivector]] = ()):
        check_dimension(m)
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc = _sum_terms(_check_term(alpha, mv, m) for alpha, mv in items)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_terms", {k: acc[k] for k in sorted(acc, key=_index_key)})

    @classmethod
    def _of(cls, m: int, terms: dict[MultiIndex, Multivector]) -> "PolyField":
        """Trusted constructor for results of operations on valid fields.

        `terms` must map multi-indices of length m to nonzero multivectors
        of dimension m; it is only put into canonical order, and the new
        value takes it over.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "m", m)
        if len(terms) > 1:
            terms = {k: terms[k] for k in sorted(terms, key=_index_key)}
        object.__setattr__(out, "_terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("PolyField is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "PolyField":
        check_dimension(m)
        return cls._of(m, {})

    @classmethod
    def constant(cls, value: Multivector) -> "PolyField":
        check_dimension(value.m)
        return cls._of(value.m, {(0,) * value.m: value} if value else {})

    @classmethod
    def scalar_constant(cls, m: int, value: Scalar) -> "PolyField":
        alpha, mv = (0,) * m, Multivector.scalar(m, value)
        return cls._of(m, {alpha: mv} if mv else {})

    @classmethod
    def variable(cls, m: int, i: int) -> "PolyField":
        """The coordinate function x_i as a scalar-valued field."""
        if not 1 <= i <= m:
            raise ValueError(f"variable index {i} out of range 1..{m}")
        alpha = tuple(1 if j == i - 1 else 0 for j in range(m))
        return cls._of(m, {alpha: Multivector.scalar(m, 1)})

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
        return PolyField._of(self.m, {a: mv for a, mv in self._terms.items() if sum(a) == d})

    def is_homogeneous(self, d: int) -> bool:
        return all(sum(a) == d for a in self._terms)

    # -- pointwise value maps ---------------------------------------------

    def map_coefficients(self, fn) -> "PolyField":
        """Apply a linear multivector map R_{0,m} -> R_{0,m} to every coefficient."""
        out = {}
        for a, mv in self._terms.items():
            image = fn(mv)
            if image:
                out[a] = image
        return PolyField._of(self.m, out)

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
            return PolyField._of(self.m, _sum_terms(chain(self._terms.items(), other._terms.items())))
        if isinstance(other, Multivector):
            return self + PolyField.constant(other)
        if isinstance(other, (int, Fraction)):
            return self + PolyField.scalar_constant(self.m, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return PolyField._of(self.m, {a: -mv for a, mv in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (PolyField, Multivector, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (Multivector, int, Fraction)):
            return -(self - other)
        return NotImplemented

    def __mul__(self, other):
        """Product of fields; multivector factors multiply on the matching side."""
        if isinstance(other, PolyField):
            self._require_same_dimension(other)
            pairs = ((tuple(map(add, a, b)), mva * mvb) for a, mva in self._terms.items() for b, mvb in other._terms.items())
            return PolyField._of(self.m, _sum_terms(pairs))
        if isinstance(other, Multivector):
            return self.map_coefficients(lambda mv: mv * other)
        if isinstance(other, (int, Fraction)):
            if not other:
                return PolyField._of(self.m, {})
            q = Fraction(other)
            return PolyField._of(self.m, {a: mv * q for a, mv in self._terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Multivector):
            return self.map_coefficients(lambda mv: other * mv)
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

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
        """Partial derivative along x_i (1-based axis), on the coefficients; the tests' reference for the kernel."""
        if not 1 <= i <= self.m:
            raise ValueError(f"axis {i} out of range 1..{self.m}")
        # Distinct monomials have distinct derivatives, so nothing accumulates.
        k = i - 1
        out: dict[MultiIndex, Multivector] = {}
        for a, mv in self._terms.items():
            e = a[k]
            if e:
                out[a[:k] + (e - 1,) + a[k + 1:]] = mv * e
        return PolyField._of(self.m, out)

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


# -- the derivative kernel (see the module docstring) ---------------------------

Flat = dict[tuple[MultiIndex, int], int]
# A structural set's `_rows`: each vector as (generator mask, numerator) pairs over the set's `_den`.
Rows = tuple[tuple[tuple[int, int], ...], ...]


def _flat(f: PolyField) -> tuple[Flat, int]:
    """f's terms as integer numerators over the lcm of its coefficients' denominators."""
    scale = lcm(*(mv._den for mv in f._terms.values()))
    return {(a, mask): c * (scale // mv._den) for a, mv in f._terms.items() for mask, c in mv._num.items()}, scale


def _partial(flat: Flat, k: int) -> Flat:
    """d flat / d x_{k+1}; distinct terms have distinct derivatives, so nothing accumulates."""
    return {(a[:k] + (a[k] - 1,) + a[k + 1:], mask): a[k] * c for (a, mask), c in flat.items() if a[k]}


def _partials(flat: Flat, m: int) -> list[Flat]:
    return [_partial(flat, k) for k in range(m)]


def _dirac(partials: list[Flat], rows: Rows, m: int, left: bool) -> Flat:
    """sum_j v_j * partials[j] (left) or sum_j partials[j] * v_j, with row j as v_j; sums that cancel stay as 0.

    Signs as in `Multivector.__mul__`: e_i e_B < 0 when B & odd[e_i] has odd parity, e_B e_i < 0 when e_i & odd[B] != 0.
    """
    odd = _odd_masks(m)
    acc: Flat = {}
    get = acc.get
    for part, row in zip(partials, rows):
        for (a, mask), c in part.items():
            w = odd[mask]
            for bit, n in row:
                key = a, mask ^ bit
                if (mask & odd[bit]).bit_count() & 1 if left else bit & w:
                    acc[key] = get(key, 0) - n * c
                else:
                    acc[key] = get(key, 0) + n * c
    return acc


def _laplacian(partials: list[Flat]) -> Flat:
    """sum_k d partials[k] / d x_{k+1}; sums that cancel stay as 0."""
    acc: Flat = {}
    for k, part in enumerate(partials):
        for key, c in _partial(part, k).items():
            acc[key] = acc.get(key, 0) + c
    return acc


def _field(m: int, flat: Flat, scale: int) -> PolyField:
    """The field of flat terms over scale > 0, each coefficient in lowest terms."""
    grouped: dict[MultiIndex, dict[int, int]] = {}
    for (a, mask), c in flat.items():
        if c:
            grouped.setdefault(a, {})[mask] = c
    return PolyField._of(m, {a: Multivector._of(m, *_lowest(num, scale)) for a, num in grouped.items()})


def _require_field_set(sset: StructuralSet, f: PolyField) -> None:
    if sset.m != f.m:
        raise DimensionMismatch(f"structural set dimension {sset.m} does not match field dimension {f.m}")


def _one_sided(sset: StructuralSet, f: PolyField, left: bool) -> PolyField:
    _require_field_set(sset, f)
    flat, scale = _flat(f)
    return _field(f.m, _dirac(_partials(flat, f.m), sset._rows, f.m, left), scale * sset._den)


def dirac_left(sset: StructuralSet, f: PolyField) -> PolyField:
    """Left twisted Dirac operator: sum_j v_j * (d f / d x_j)."""
    return _one_sided(sset, f, True)


def dirac_right(f: PolyField, sset: StructuralSet) -> PolyField:
    """Right twisted Dirac operator: sum_j (d f / d x_j) * v_j."""
    return _one_sided(sset, f, False)


def laplacian(f: PolyField) -> PolyField:
    flat, scale = _flat(f)
    return _field(f.m, _laplacian(_partials(flat, f.m)), scale)


def sandwich(phi: StructuralSet, f: PolyField, psi: StructuralSet) -> PolyField:
    """Two-sided operator sum_{i,j} phi_i (d^2 f / dx_i dx_j) psi_j.

    Computed as right-after-left, with D_phi f kept flat; the left-after-right
    order agrees because the one-sided operators act on opposite sides.
    """
    _require_field_set(phi, f)
    _require_field_set(psi, f)
    m = f.m
    flat, scale = _flat(f)
    left = _dirac(_partials(flat, m), phi._rows, m, True)
    return _field(m, _dirac(_partials(left, m), psi._rows, m, False), scale * phi._den * psi._den)
