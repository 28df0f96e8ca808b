"""Multivector-valued polynomial fields on R^m and their differential operators.

A field is a sparse map from terms (alpha, mask), an exponent tuple (one
exponent per variable) and a blade mask, to rational coefficients, kept
as integer numerators over one positive denominator in lowest terms: the
`Multivector` representation one level up.  Polynomials are global on
R^m: every identity checked here is pointwise-algebraic in derivatives,
so there is no separate domain notion.  Differentiation, the twisted
Dirac operators, the Laplacian and the two-sided (sandwich) operator all
stay in exact rational arithmetic.

Everything runs on the integer terms.  `_merge` and `_times` are the one
flat sum and product, shared by the field operators and the parser.  A
field's first partials are one list, `_derivatives`, of (k, alpha - e_k,
mask, alpha_k * c) axis by axis, read by the Dirac operators, the Laplacian
and `partial`.  A structural set gives the integer rows it keeps
(`StructuralSet._rows`, over the lcm `_den` of its vectors' denominators).
Each operator reduces its result once, over the product of the scales;
`Multivector` coefficients are built only when `terms` or `coefficient` asks.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .algebra import DimensionMismatch, Multivector, Scalar, _as_integers, _lowest, _odd_masks, check_dimension
from .structural import StructuralSet

MultiIndex = tuple[int, ...]
# Integer numerators of the terms (alpha, mask); with a denominator, a field.
Flat = dict[tuple[MultiIndex, int], int]
# Flat terms over a positive denominator.
Value = tuple[Flat, int]


def _check_index(alpha: MultiIndex, m: int) -> MultiIndex:
    alpha = tuple(alpha)
    if len(alpha) != m:
        raise ValueError(f"multi-index {alpha} has length {len(alpha)}, expected {m}")
    if any(not isinstance(e, int) or e < 0 for e in alpha):
        raise ValueError(f"multi-index {alpha} must consist of non-negative integers")
    return alpha


def _check_term(alpha: MultiIndex, mv: Multivector, m: int) -> tuple[MultiIndex, Multivector]:
    alpha = _check_index(alpha, m)
    if mv.m != m:
        raise DimensionMismatch(f"coefficient dimension {mv.m} does not match field dimension {m}")
    return alpha, mv


def _index_key(alpha: MultiIndex) -> tuple[int, MultiIndex]:
    return (sum(alpha), alpha)


class PolyField:
    """Polynomial function R^m -> R_{0,m} with exact coefficients; `PolyField(m, terms)` validates, `_of` trusts."""

    __slots__ = ("m", "_num", "_den")

    def __init__(self, m: int, terms: Mapping[MultiIndex, Multivector] | Iterable[tuple[MultiIndex, Multivector]] = ()):
        check_dimension(m)
        items = terms.items() if isinstance(terms, Mapping) else terms
        out = PolyField._sum(m, (_check_term(alpha, mv, m) for alpha, mv in items))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_num", out._num)
        object.__setattr__(self, "_den", out._den)

    @classmethod
    def _of(cls, m: int, num: Flat, den: int = 1) -> "PolyField":
        """Trusted constructor for results of operations on valid fields.

        `num` must map terms (alpha, mask), alpha of length m and mask in
        range for m, to nonzero integers, in lowest terms over `den` (see
        `_lowest`); the new value takes it over.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "m", m)
        object.__setattr__(out, "_num", num)
        object.__setattr__(out, "_den", den)
        return out

    @classmethod
    def _sum(cls, m: int, pairs: Iterable[tuple[MultiIndex, Multivector]]) -> "PolyField":
        """The trusted field sum of valid (monomial, coefficient) pairs."""
        acc: Value = {}, 1
        for alpha, mv in pairs:
            acc = _merge(acc, ({(alpha, mask): c for mask, c in mv._num.items()}, mv._den), 1)
        return cls._of(m, *_lowest(*acc))

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
        origin = (0,) * value.m
        return cls._of(value.m, {(origin, mask): c for mask, c in value._num.items()}, value._den)

    @classmethod
    def scalar_constant(cls, m: int, value: Scalar) -> "PolyField":
        return cls.constant(Multivector.scalar(m, value))

    @classmethod
    def variable(cls, m: int, i: int) -> "PolyField":
        """The coordinate function x_i as a scalar-valued field."""
        if not 1 <= i <= m:
            raise ValueError(f"variable index {i} out of range 1..{m}")
        check_dimension(m)
        return cls._of(m, {(tuple(1 if j == i - 1 else 0 for j in range(m)), 0): 1})

    @classmethod
    def monomial(cls, m: int, alpha: MultiIndex, coef: Multivector) -> "PolyField":
        return cls(m, {tuple(alpha): coef})

    # -- inspection -------------------------------------------------------

    def _by_monomial(self) -> dict[MultiIndex, dict[int, int]]:
        """Each monomial's coefficient as {mask: numerator} over `_den`."""
        grouped: dict[MultiIndex, dict[int, int]] = {}
        for (a, mask), c in self._num.items():
            grouped.setdefault(a, {})[mask] = c
        return grouped

    def terms(self) -> Iterator[tuple[MultiIndex, Multivector]]:
        """(monomial, coefficient) pairs by degree, then monomial, each coefficient in lowest terms."""
        grouped = self._by_monomial()
        m, den = self.m, self._den
        return ((a, Multivector._of(m, *_lowest(grouped[a], den))) for a in sorted(grouped, key=_index_key))

    def coefficient(self, alpha: MultiIndex) -> Multivector:
        alpha = _check_index(alpha, self.m)
        return Multivector._of(self.m, *_lowest(self._by_monomial().get(alpha, {}), self._den))

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def degree(self) -> int:
        """Total degree; -1 for the zero field."""
        return max((sum(a) for a, _ in self._num), default=-1)

    def _select(self, keep) -> "PolyField":
        """The terms (alpha, mask) that satisfy `keep`, in lowest terms."""
        return PolyField._of(self.m, *_lowest({key: c for key, c in self._num.items() if keep(*key)}, self._den))

    def homogeneous_component(self, d: int) -> "PolyField":
        return self._select(lambda a, mask: sum(a) == d)

    def is_homogeneous(self, d: int) -> bool:
        return all(sum(a) == d for a, _ in self._num)

    # -- pointwise value maps ---------------------------------------------

    def map_coefficients(self, fn) -> "PolyField":
        """Apply a linear multivector map R_{0,m} -> R_{0,m} to every coefficient."""
        return PolyField._sum(self.m, ((a, fn(mv)) for a, mv in self.terms()))

    def even_part(self) -> "PolyField":
        return self._select(lambda a, mask: not mask.bit_count() & 1)

    def odd_part(self) -> "PolyField":
        return self._select(lambda a, mask: mask.bit_count() & 1)

    def grade_project(self, k: int) -> "PolyField":
        if not 0 <= k <= self.m:
            raise ValueError(f"grade {k} out of range 0..{self.m}")
        return self._select(lambda a, mask: mask.bit_count() == k)

    # -- ring structure -----------------------------------------------------

    def _require_same_dimension(self, other) -> None:
        if self.m != other.m:
            raise DimensionMismatch(f"cannot combine dimensions {self.m} and {other.m}")

    def __add__(self, other):
        if isinstance(other, PolyField):
            self._require_same_dimension(other)
            return PolyField._of(self.m, *_lowest(*_merge((dict(self._num), self._den), (other._num, other._den), 1)))
        if isinstance(other, Multivector):
            return self + PolyField.constant(other)
        if isinstance(other, (int, Fraction)):
            return self + PolyField.scalar_constant(self.m, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return PolyField._of(self.m, {key: -c for key, c in self._num.items()}, self._den)

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
            product = _times((self._num, self._den), (other._num, other._den), _odd_masks(self.m))
            return PolyField._of(self.m, *_lowest(*product))
        if isinstance(other, Multivector):
            return self * PolyField.constant(other)
        if isinstance(other, (int, Fraction)):
            if not other:
                return PolyField._of(self.m, {})
            num = {key: c * other.numerator for key, c in self._num.items()}
            return PolyField._of(self.m, *_lowest(num, self._den * other.denominator))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, Multivector):
            return PolyField.constant(other) * self
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, PolyField):
            return self.m == other.m and self._den == other._den and self._num == other._num
        if isinstance(other, (Multivector, int, Fraction)):
            other_field = PolyField.constant(other) if isinstance(other, Multivector) else PolyField.scalar_constant(self.m, other)
            return self == other_field
        return NotImplemented

    __hash__ = None

    # -- calculus -----------------------------------------------------------

    def partial(self, i: int) -> "PolyField":
        """Partial derivative along x_i (1-based axis); distinct terms have distinct derivatives, so nothing accumulates."""
        if not 1 <= i <= self.m:
            raise ValueError(f"axis {i} out of range 1..{self.m}")
        num = {(a, mask): c for k, a, mask, c in _derivatives(self._num, self.m) if k == i - 1}
        return PolyField._of(self.m, *_lowest(num, self._den))

    def evaluate(self, point: Sequence[Scalar]) -> Multivector:
        """Exact evaluation at a rational point."""
        if len(point) != self.m:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.m}")
        coords = [Fraction(x) for x in point]
        acc: dict[int, Fraction] = {}
        for (a, mask), c in self._num.items():
            acc[mask] = acc.get(mask, 0) + Fraction(c, self._den) * prod(x ** e for x, e in zip(coords, a))
        return Multivector._of(self.m, *_as_integers({mask: q for mask, q in acc.items() if q}))

    def __str__(self) -> str:
        from .parser import format_field

        return format_field(self)

    def __repr__(self) -> str:
        return f"PolyField({self.m}, {str(self)!r})"


# -- the flat sum and product, and the derivative list (see the module docstring) ---------

# A structural set's `_rows`: each vector as (generator mask, numerator) pairs over the set's `_den`.
Rows = tuple[tuple[tuple[int, int], ...], ...]
# A field's first partials as one list of (axis k, alpha - e_k, mask, alpha_k * numerator), over the field's denominator.
Derivatives = list[tuple[int, MultiIndex, int, int]]


def _merge(x: Value, y: Value, sign: int) -> Value:
    """x + sign * y over the lcm of the denominators, with no zero numerators; x's terms are taken over."""
    (acc, x_den), (terms, y_den) = x, y
    den = lcm(x_den, y_den)
    if den != x_den:
        factor = den // x_den
        acc = {key: c * factor for key, c in acc.items()}
    factor = sign * (den // y_den)
    for key, c in terms.items():
        c = acc.get(key, 0) + c * factor
        if c:
            acc[key] = c
        else:
            del acc[key]
    return acc, den


def _times(x: Value, y: Value, odd: list[int]) -> Value:
    """x * y term by term, with no zero numerators: exponents add, e_a e_b < 0 when b & odd[a] has odd parity."""
    if len(x[0]) == 1 == len(y[0]):
        (((a, ma), ca),), (((b, mb), cb),) = x[0].items(), y[0].items()
        return {(tuple(map(add, a, b)), ma ^ mb): -ca * cb if (mb & odd[ma]).bit_count() & 1 else ca * cb}, x[1] * y[1]
    acc: Flat = {}
    get = acc.get
    right = y[0].items()
    for (a, ma), ca in x[0].items():
        w = odd[ma]
        for (b, mb), cb in right:
            key = tuple(map(add, a, b)), ma ^ mb
            if (mb & w).bit_count() & 1:
                acc[key] = get(key, 0) - ca * cb
            else:
                acc[key] = get(key, 0) + ca * cb
    return {key: c for key, c in acc.items() if c}, x[1] * y[1]


def _derivatives(flat: Flat, m: int) -> Derivatives:
    """Every first partial of the terms, axis by axis: (k, alpha - e_k, mask, alpha_k * c) where alpha_k > 0."""
    items = flat.items()
    return [(k, a[:k] + (a[k] - 1,) + a[k + 1:], mask, a[k] * c) for k in range(m) for (a, mask), c in items if a[k]]


def _dirac(derivatives: Derivatives, rows: Rows, m: int, left: bool) -> Flat:
    """sum_k v_k * (d flat / d x_{k+1}) (left) or the same with v_k on the right, row k as v_k; sums that cancel stay as 0.

    Signs as in `Multivector.__mul__`: e_i e_B < 0 when B & odd[e_i] has odd parity, e_B e_i < 0 when e_i & odd[B] != 0.
    """
    odd = _odd_masks(m)
    acc: Flat = {}
    get = acc.get
    for k, a, mask, c in derivatives:
        w = odd[mask]
        for bit, n in rows[k]:
            key = a, mask ^ bit
            if (mask & odd[bit]).bit_count() & 1 if left else bit & w:
                acc[key] = get(key, 0) - n * c
            else:
                acc[key] = get(key, 0) + n * c
    return acc


def _laplacian(derivatives: Derivatives) -> Flat:
    """sum_k d^2 flat / d x_{k+1}^2; sums that cancel stay as 0."""
    acc: Flat = {}
    get = acc.get
    for k, a, mask, c in derivatives:
        e = a[k]
        if e:
            key = a[:k] + (e - 1,) + a[k + 1:], mask
            acc[key] = get(key, 0) + e * c
    return acc


def _field(m: int, flat: Flat, scale: int) -> PolyField:
    """The field of flat terms over scale > 0, zero numerators dropped, in lowest terms."""
    return PolyField._of(m, *_lowest({key: c for key, c in flat.items() if c}, scale))


def _require_field_set(sset: StructuralSet, f: PolyField) -> None:
    if sset.m != f.m:
        raise DimensionMismatch(f"structural set dimension {sset.m} does not match field dimension {f.m}")


def _one_sided(sset: StructuralSet, f: PolyField, left: bool) -> PolyField:
    _require_field_set(sset, f)
    return _field(f.m, _dirac(_derivatives(f._num, f.m), sset._rows, f.m, left), f._den * sset._den)


def dirac_left(sset: StructuralSet, f: PolyField) -> PolyField:
    """Left twisted Dirac operator: sum_j v_j * (d f / d x_j)."""
    return _one_sided(sset, f, True)


def dirac_right(f: PolyField, sset: StructuralSet) -> PolyField:
    """Right twisted Dirac operator: sum_j (d f / d x_j) * v_j."""
    return _one_sided(sset, f, False)


def laplacian(f: PolyField) -> PolyField:
    return _field(f.m, _laplacian(_derivatives(f._num, f.m)), f._den)


def sandwich(phi: StructuralSet, f: PolyField, psi: StructuralSet) -> PolyField:
    """Two-sided operator sum_{i,j} phi_i (d^2 f / dx_i dx_j) psi_j.

    Computed as right-after-left, with D_phi f kept flat; the left-after-right
    order agrees because the one-sided operators act on opposite sides.
    """
    _require_field_set(phi, f)
    _require_field_set(psi, f)
    m = f.m
    left = _dirac(_derivatives(f._num, m), phi._rows, m, True)
    return _field(m, _dirac(_derivatives(left, m), psi._rows, m, False), f._den * phi._den * psi._den)
