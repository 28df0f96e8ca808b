"""Structural sets: orthonormal m-tuples of grade-1 elements of R_{0,m}.

A tuple (v_1, ..., v_m) of grade-1 multivectors qualifies when
v_i v_j + v_j v_i = -2 delta_ij; for vectors the left side is the scalar
-2 <v_i, v_j>, so this is one Gram-matrix test on the coordinate rows,
exactly decidable because all coordinates are rational.  Irrational
structural sets are out of scope; rational rotations (Pythagorean
parametrizations such as 3/5, 4/5) supply the non-permutation examples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .algebra import Multivector, Scalar, check_dimension
from .linalg import det


class StructuralSetError(ValueError):
    """A candidate tuple fails the structural-set requirements.

    `relation` carries the first violated pair (i, j), 1-based, when the
    failure is an anticommutation relation.
    """

    def __init__(self, message: str, relation: tuple[int, int] | None = None):
        super().__init__(message)
        self.relation = relation


def _gram_violation(rows: Sequence[Sequence[Fraction]]) -> tuple[int, int, Fraction] | None:
    """The orthonormality test; None when the rows are orthonormal.

    Otherwise the first (i, j, dot), 1-based with i <= j in row-major
    order, whose row dot product is not delta_ij.
    """
    for i, row in enumerate(rows):
        for j in range(i, len(rows)):
            dot = sum(a * b for a, b in zip(row, rows[j]))
            if dot != (1 if i == j else 0):
                return i + 1, j + 1, dot
    return None


class StructuralSet:
    """Validated structural set; construction is the validation and keeps the coordinate rows."""

    __slots__ = ("m", "vectors", "_rows")

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
        rows = tuple(tuple(v.coefficient(1 << j) for j in range(m)) for v in vectors)
        violation = _gram_violation(rows)
        if violation is not None:
            # For vectors, v_i v_j + v_j v_i is the scalar -2 <v_i, v_j>.
            i, j, dot = violation
            raise StructuralSetError(
                f"anticommutation relation ({i},{j}) violated: "
                f"v{i}*v{j} + v{j}*v{i} = {Multivector.scalar(m, -2 * dot)}",
                relation=(i, j),
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("StructuralSet is immutable")

    # -- builders -------------------------------------------------------

    @classmethod
    def standard(cls, m: int) -> "StructuralSet":
        return cls([Multivector.basis_vector(m, i) for i in range(1, m + 1)])

    @classmethod
    def reversed_standard(cls, m: int) -> "StructuralSet":
        return cls([Multivector.basis_vector(m, i) for i in range(m, 0, -1)])

    @classmethod
    def signed_permutation(cls, m: int, signed_indices: Sequence[int]) -> "StructuralSet":
        """Vectors +-e_{|p_k|}; `signed_indices` must be a signed permutation of 1..m."""
        if sorted(abs(p) for p in signed_indices) != list(range(1, m + 1)):
            raise StructuralSetError(f"{signed_indices!r} is not a signed permutation of 1..{m}")
        vecs = []
        for p in signed_indices:
            v = Multivector.basis_vector(m, abs(p))
            vecs.append(-v if p < 0 else v)
        return cls(vecs)

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
    def from_matrix(cls, rows: Sequence[Sequence[Scalar]]) -> "StructuralSet":
        """Build the set whose i-th vector is sum_j C_ij e_j; C must be orthogonal."""
        m = len(rows)
        check_dimension(m)
        entries = [[Fraction(x) for x in row] for row in rows]
        if any(len(row) != m for row in entries):
            raise StructuralSetError("matrix must be square")
        violation = _gram_violation(entries)
        if violation is not None:
            i, j, dot = violation
            raise StructuralSetError(f"matrix is not orthogonal: row dot ({i},{j}) = {dot}")
        vecs = [
            Multivector(m, {1 << j: entries[i][j] for j in range(m) if entries[i][j]})
            for i in range(m)
        ]
        return cls(vecs)

    # -- views ------------------------------------------------------------

    def coordinates(self) -> list[list[Fraction]]:
        """Rows of coordinates in the standard basis."""
        return [list(row) for row in self._rows]

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

    def __eq__(self, other):
        if isinstance(other, StructuralSet):
            return self.m == other.m and self.vectors == other.vectors
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "StructuralSet([" + ", ".join(str(v) for v in self.vectors) + "])"


class TransitionMatrix:
    """Orthogonal change-of-basis matrix between two structural sets."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[Scalar]]):
        rows = [[Fraction(x) for x in row] for row in entries]
        m = len(rows)
        if any(len(row) != m for row in rows):
            raise ValueError("transition matrix must be square")
        object.__setattr__(self, "entries", tuple(tuple(row) for row in rows))

    def __setattr__(self, name, value):
        raise AttributeError("TransitionMatrix is immutable")

    @property
    def m(self) -> int:
        return len(self.entries)

    def determinant(self) -> Fraction:
        return det(self.entries)

    def is_orthogonal(self) -> bool:
        return _gram_violation(self.entries) is None

    def form_2d(self) -> str:
        """Classify a 2x2 orthogonal matrix: 'rotation' (det +1) or 'reflection' (det -1)."""
        if self.m != 2:
            raise ValueError("form classification applies to 2x2 matrices only")
        d = self.determinant()
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

    phi is orthonormal, so C_ij = <psi_i, phi_j>, the dot product of the
    coordinate rows (for vectors this is -[psi_i phi_j]_0).
    """
    if phi.m != psi.m:
        raise ValueError(f"sets have different dimensions {phi.m} and {psi.m}")
    return TransitionMatrix(
        [[sum(a * b for a, b in zip(u, v)) for v in phi._rows] for u in psi._rows]
    )
