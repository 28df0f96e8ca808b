"""Structural sets: orthonormal m-tuples of grade-1 elements of R_{0,m}.

A tuple (v_1, ..., v_m) of grade-1 multivectors qualifies when
v_i v_j + v_j v_i = -2 delta_ij; for vectors the left side is the scalar
-2 <v_i, v_j>, so this is one Gram-matrix test on the vectors, decided
exactly on their integer numerators.  Irrational structural sets are out
of scope; rational rotations (Pythagorean parametrizations such as 3/5,
4/5) supply the non-permutation examples.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import lcm
from typing import Sequence

from .algebra import Multivector, Scalar, _as_integers, _lowest, _odd_masks, check_dimension

# Python's limit on the digits of an integer it prints.  The CLI bounds each number given as text by it: its
# characters, and the magnitude of its decimal exponent, which `Fraction` would expand into that many digits.
MAX_NUMBER_TEXT = 4300
_NUMBER_BOUND = 10 ** MAX_NUMBER_TEXT  # the least integer with more than MAX_NUMBER_TEXT digits


def _printable(x: Fraction) -> bool:
    return abs(x.numerator) < _NUMBER_BOUND and x.denominator < _NUMBER_BOUND


def _number_text(x: Fraction) -> str:
    """str(x), or else the digit counts of its parts, found against powers of ten without printing them."""
    if _printable(x):
        return str(x)
    # n has k digits for the least k with 10**k > n; the search starts below k, as 3/10 < log10(2).
    digits = [next(k for k in count(n.bit_length() * 3 // 10) if 10 ** k > n) for n in (abs(x.numerator), x.denominator)]
    return "a {}-digit numerator over a {}-digit denominator".format(*digits)


class StructuralSetError(ValueError):
    """A candidate tuple fails the structural-set requirements.

    `relation` carries the first violated pair (i, j), 1-based, when the
    failure is an anticommutation relation.
    """

    def __init__(self, message: str, relation: tuple[int, int] | None = None):
        super().__init__(message)
        self.relation = relation


def _dot(u: Multivector, v: Multivector) -> int:
    """n_u . n_v: the dot product of two vectors' integer numerators."""
    num = v._num
    return sum(c * num.get(mask, 0) for mask, c in u._num.items())


def _gram_violation(vectors: Sequence[Multivector]) -> tuple[int, int, Fraction] | None:
    """The first (i, j, <v_i, v_j>), 1-based, i <= j in row-major order, with <v_i, v_j> != delta_ij, or None.

    Vector i is n_i / d_i, so <v_i, v_j> = delta_ij exactly when n_i . n_j == delta_ij d_i d_j.
    """
    for i, u in enumerate(vectors):
        for j in range(i, len(vectors)):
            v = vectors[j]
            dot = _dot(u, v)
            if dot != (u._den * v._den if i == j else 0):
                return i + 1, j + 1, Fraction(dot, u._den * v._den)
    return None


def _row_vectors(rows: Sequence[Sequence[Fraction]]) -> tuple[Multivector, ...]:
    """Row i of an m x m matrix as the vector sum_j rows[i][j] e_j."""
    return tuple(Multivector._of(len(rows), *_as_integers({1 << j: x for j, x in enumerate(row) if x})) for row in rows)


class StructuralSet:
    """Validated structural set; its vectors are its only representation.

    The builders check their own arguments and build through the trusted
    `_of`, which takes orthonormal grade-1 vectors.  The set is immutable,
    so it keeps one integer form beside its vectors: `_rows`, each vector
    as (generator mask, numerator) pairs over `_den`, the lcm of the
    vectors' denominators, and `_products`, each product v_A it is asked
    for as numerators over `_den` ** |A|.  Equality ignores that form.
    """

    __slots__ = ("m", "vectors", "_rows", "_den", "_products")

    def __init__(self, vectors: Sequence[Multivector]):
        vectors = tuple(vectors)
        if not vectors:
            raise StructuralSetError("a structural set needs at least one vector")
        m = vectors[0].m
        check_dimension(m)
        if len(vectors) != m:
            raise StructuralSetError(f"expected {m} vectors for dimension {m}, got {len(vectors)}")
        for idx, v in enumerate(vectors, start=1):
            if v.m != m:
                raise StructuralSetError(f"vector {idx} has dimension {v.m}, expected {m}")
            if v.is_zero() or v.grades() != {1}:
                raise StructuralSetError(f"vector {idx} is not pure grade 1: {v}")
        violation = _gram_violation(vectors)
        if violation is not None:
            # For vectors, v_i v_j + v_j v_i is the scalar -2 <v_i, v_j>.
            i, j, dot = violation
            raise StructuralSetError(f"anticommutation relation ({i},{j}) violated: "
                                     f"v{i}*v{j} + v{j}*v{i} = {_number_text(-2 * dot)}", relation=(i, j))
        self._set(vectors)

    @classmethod
    def _of(cls, vectors: Sequence[Multivector]) -> "StructuralSet":
        """Trusted constructor from m orthonormal grade-1 vectors of dimension m."""
        out = object.__new__(cls)
        out._set(tuple(vectors))
        return out

    def _set(self, vectors: tuple[Multivector, ...]) -> None:
        """Set the vectors and the integer form built from them."""
        den = lcm(*[v._den for v in vectors])
        object.__setattr__(self, "m", len(vectors))
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_rows", tuple([tuple(v._num.items()) if v._den == den else
                                                 tuple([(bit, c * (den // v._den)) for bit, c in v._num.items()])
                                                 for v in vectors]))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_products", {(): {0: 1}})

    def __setattr__(self, name, value):
        raise AttributeError("StructuralSet is immutable")

    # -- builders -------------------------------------------------------

    @classmethod
    def standard(cls, m: int) -> "StructuralSet":
        check_dimension(m)
        return cls.signed_permutation(m, range(1, m + 1))

    @classmethod
    def reversed_standard(cls, m: int) -> "StructuralSet":
        check_dimension(m)
        return cls.signed_permutation(m, range(m, 0, -1))

    @classmethod
    def signed_permutation(cls, m: int, signed_indices: Sequence[int]) -> "StructuralSet":
        """Vectors +-e_{|p_k|}; `signed_indices` must be a signed permutation of 1..m."""
        check_dimension(m)
        signed = list(signed_indices)
        if sorted(map(abs, signed)) != list(range(1, m + 1)):
            raise StructuralSetError(f"{signed_indices!r} is not a signed permutation of 1..{m}")
        return cls._of([Multivector._of(m, {1 << (abs(p) - 1): -1 if p < 0 else 1}) for p in signed])

    @classmethod
    def rotation_2d(cls, c1: Scalar, c2: Scalar) -> "StructuralSet":
        """Plane rotation family: rows (c1, -c2) and (c2, c1), c1^2 + c2^2 = 1."""
        c1, c2 = Fraction(c1), Fraction(c2)
        return cls.from_matrix([[c1, -c2], [c2, c1]])

    @classmethod
    def reflection_2d(cls, c1: Scalar, c2: Scalar) -> "StructuralSet":
        """Plane reflection family: rows (c1, c2) and (c2, -c1), c1^2 + c2^2 = 1."""
        c1, c2 = Fraction(c1), Fraction(c2)
        return cls.from_matrix([[c1, c2], [c2, -c1]])

    @classmethod
    def _half_angle(cls, p: int, q: int, reflection: bool = False) -> "StructuralSet":
        """Trusted plane set from the tangent half-angle p/q, q != 0: the rotation rows (c, -s) and (s, c), or the
        reflection rows (c, s) and (s, -c), over n, with (c, s, n) = (q^2 - p^2, 2pq, q^2 + p^2) and c^2 + s^2 = n^2."""
        c, s, n = q * q - p * p, 2 * p * q, q * q + p * p
        rows = ((c, s), (s, -c)) if reflection else ((c, -s), (s, c))
        return cls._of([Multivector._of(2, *_lowest({k: x for k, x in zip((1, 2), row) if x}, n)) for row in rows])

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[Scalar]]) -> "StructuralSet":
        """Build the set whose i-th vector is sum_j C_ij e_j; C must be orthogonal."""
        m = len(rows)
        check_dimension(m)
        entries = [[Fraction(x) for x in row] for row in rows]
        if any(len(row) != m for row in entries):
            raise StructuralSetError("matrix must be square")
        vectors = _row_vectors(entries)
        violation = _gram_violation(vectors)
        if violation is not None:
            i, j, dot = violation
            raise StructuralSetError(f"matrix is not orthogonal: row dot ({i},{j}) = {_number_text(dot)}")
        return cls._of(vectors)

    # -- views ------------------------------------------------------------

    def coordinates(self) -> list[list[Fraction]]:
        """Rows of coordinates in the standard basis."""
        return [[v.coefficient(1 << j) for j in range(self.m)] for v in self.vectors]

    def to_json(self) -> list[list[str]]:
        """Matrix form with rational strings; `from_matrix` reads it back."""
        return [[str(x) for x in row] for row in self.coordinates()]

    def __getitem__(self, i: int) -> Multivector:
        """1-based access to the i-th vector."""
        if not 1 <= i <= self.m:
            raise IndexError(f"vector index {i} out of range 1..{self.m}")
        return self.vectors[i - 1]

    def __iter__(self):
        return iter(self.vectors)

    # -- products over index sets ------------------------------------------

    def _product(self, indices: tuple[int, ...]) -> dict[int, int]:
        """v_A for A = `indices` as nonzero numerators over _den ** len(A), kept in `_products`; callers must not change it.

        Grown as the product of A's longest proper prefix and the row of A's last index, with no reduction.
        """
        num = self._products.get(indices)
        if num is None:
            i = indices[-1]
            if not 1 <= i <= self.m:
                raise IndexError(f"vector index {i} out of range 1..{self.m}")
            odd = _odd_masks(self.m)
            acc: dict[int, int] = {}
            get = acc.get
            for mask, c in self._product(indices[:-1]).items():
                # e_mask * e_bit is negative when e_bit passes an odd number of e_mask's generators or is one of them
                w = odd[mask]
                for bit, n in self._rows[i - 1]:
                    acc[mask ^ bit] = get(mask ^ bit, 0) - c * n if bit & w else get(mask ^ bit, 0) + c * n
            num = self._products[indices] = {mask: c for mask, c in acc.items() if c}
        return num

    def product(self, indices: Sequence[int]) -> Multivector:
        """v_A = v_{i_1} * ... * v_{i_k} for A = (i_1, ..., i_k), 1-based, in the given order."""
        indices = tuple(indices)
        return Multivector._of(self.m, *_lowest(dict(self._product(indices)), self._den ** len(indices)))

    def __eq__(self, other):
        if isinstance(other, StructuralSet):
            return self.m == other.m and self.vectors == other.vectors
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "StructuralSet([" + ", ".join(str(v) for v in self.vectors) + "])"


class TransitionMatrix:
    """Orthogonal change-of-basis matrix between two structural sets; m x m with m in 1..MAX_DIMENSION, as sets are."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[Scalar]]):
        rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
        check_dimension(len(rows))
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("transition matrix must be square")
        object.__setattr__(self, "entries", rows)

    def __setattr__(self, name, value):
        raise AttributeError("TransitionMatrix is immutable")

    @property
    def m(self) -> int:
        return len(self.entries)

    def is_orthogonal(self) -> bool:
        return _gram_violation(_row_vectors(self.entries)) is None

    def form_2d(self) -> str:
        """Classify a 2x2 orthogonal matrix: 'rotation' (det +1) or 'reflection' (det -1)."""
        if self.m != 2:
            raise ValueError("form classification applies to 2x2 matrices only")
        (c11, c12), (c21, c22) = self.entries
        d = c11 * c22 - c12 * c21
        if d == 1:
            return "rotation"
        if d == -1:
            return "reflection"
        raise ValueError(f"matrix is not orthogonal, det = {d}")

    def __eq__(self, other):
        if isinstance(other, TransitionMatrix):
            return self.entries == other.entries
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"TransitionMatrix({[list(map(str, row)) for row in self.entries]})"


def transition(phi: StructuralSet, psi: StructuralSet) -> TransitionMatrix:
    """Matrix C with psi_i = sum_j C_ij phi_j.

    phi is orthonormal, so C_ij = <psi_i, phi_j> = n_i . n_j / (d_i d_j)
    over the vectors' numerators (for vectors this is -[psi_i phi_j]_0).
    """
    if phi.m != psi.m:
        raise ValueError(f"sets have different dimensions {phi.m} and {psi.m}")
    return TransitionMatrix([[Fraction(_dot(u, v), u._den * v._den) for v in phi] for u in psi])
