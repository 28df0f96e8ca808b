"""Exact kernel computations on homogeneous polynomial coefficient spaces.

The differential operators drop homogeneity degree by one (one-sided
Dirac) or two (Laplacian, compositions), so membership questions
decompose degree by degree and each degree gives a finite exact linear
problem.  Matrices are built column by column by running the actual
field operators on basis monomials; kernels come from fraction-free
elimination in `linalg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Callable, Sequence

from .algebra import Multivector, blade_order, check_dimension
from .classify import _CLASS_ORDER, INFRAMONOGENIC, TWO_SET_HARMONIC, HARMONIC, ClassMembership, RegionLabel, classify
from .fields import MultiIndex, PolyField, dirac_left, dirac_right, laplacian, sandwich
from .linalg import RationalMatrix, Vector
from .psi import apply_psi_plus
from .structural import StructuralSet


def monomials_of_degree(m: int, d: int) -> list[MultiIndex]:
    """All exponent tuples of total degree d, in lexicographic order."""
    if d < 0:
        return []
    if m == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        for rest in monomials_of_degree(m - 1, d - first):
            out.append((first,) + rest)
    return out


class CoefficientSpace:
    """Basis of the degree-d homogeneous multivector-valued polynomials."""

    __slots__ = ("m", "degree", "basis", "_index")

    def __init__(self, m: int, degree: int):
        check_dimension(m)
        if degree < 0:
            raise ValueError("degree must be non-negative")
        alphas = monomials_of_degree(m, degree)
        masks = blade_order(m)
        basis = [(alpha, mask) for alpha in alphas for mask in masks]
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_index", {pair: i for i, pair in enumerate(basis)})

    def __setattr__(self, name, value):
        raise AttributeError("CoefficientSpace is immutable")

    @property
    def size(self) -> int:
        return len(self.basis)

    def basis_field(self, i: int) -> PolyField:
        alpha, mask = self.basis[i]
        return PolyField(self.m, {alpha: Multivector(self.m, {mask: Fraction(1)})})

    def field_to_vector(self, f: PolyField) -> Vector:
        if f.m != self.m:
            raise ValueError(f"field dimension {f.m} does not match space dimension {self.m}")
        if not f.is_homogeneous(self.degree):
            raise ValueError(f"field is not homogeneous of degree {self.degree}: {f}")
        vec = [Fraction(0)] * self.size
        for alpha, mv in f.terms():
            for mask, coef in mv.terms():
                vec[self._index[(alpha, mask)]] = coef
        return vec

    def vector_to_field(self, vec: Sequence[Fraction]) -> PolyField:
        if len(vec) != self.size:
            raise ValueError(f"vector length {len(vec)} does not match space size {self.size}")
        acc: dict[MultiIndex, dict[int, Fraction]] = {}
        for (alpha, mask), coef in zip(self.basis, vec):
            if coef:
                acc.setdefault(alpha, {})[mask] = Fraction(coef)
        return PolyField(self.m, {alpha: Multivector(self.m, masks) for alpha, masks in acc.items()})

    def __repr__(self):
        return f"CoefficientSpace(m={self.m}, degree={self.degree}, size={self.size})"


@dataclass(frozen=True)
class FieldOperator:
    """A named linear differential operator together with its order."""

    name: str
    order: int
    fn: Callable[[PolyField], PolyField]

    def apply(self, f: PolyField) -> PolyField:
        return self.fn(f)

    @classmethod
    def laplacian(cls) -> "FieldOperator":
        return cls("laplacian", 2, laplacian)

    @classmethod
    def left_left(cls, phi: StructuralSet, psi: StructuralSet) -> "FieldOperator":
        return cls("left-left", 2, lambda f: dirac_left(phi, dirac_left(psi, f)))

    @classmethod
    def sandwich(cls, phi: StructuralSet, psi: StructuralSet) -> "FieldOperator":
        return cls("sandwich", 2, lambda f: sandwich(phi, f, psi))

    @classmethod
    def dirac_left(cls, psi: StructuralSet) -> "FieldOperator":
        return cls("dirac-left", 1, lambda f: dirac_left(psi, f))

    @classmethod
    def dirac_right(cls, psi: StructuralSet) -> "FieldOperator":
        return cls("dirac-right", 1, lambda f: dirac_right(f, psi))


@dataclass(frozen=True)
class OperatorMatrix:
    """Exact matrix of an operator from a degree-d space to a lower-degree space.

    `degenerate` marks the case where the operator order exceeds the
    degree, so the target space is empty and the map is zero.
    """

    matrix: RationalMatrix
    source: CoefficientSpace
    target: CoefficientSpace | None
    degenerate: bool

    def mat_vec(self, v: Sequence[Fraction]) -> Vector:
        return self.matrix.mat_vec(v)


def operator_matrix(op: FieldOperator, space: CoefficientSpace) -> OperatorMatrix:
    target_degree = space.degree - op.order
    if target_degree < 0:
        return OperatorMatrix(RationalMatrix.zero(0, space.size), space, None, True)
    target = CoefficientSpace(space.m, target_degree)
    columns = [target.field_to_vector(op.apply(space.basis_field(i))) for i in range(space.size)]
    return OperatorMatrix(RationalMatrix.from_columns(columns, target.size), space, target, False)


@dataclass(frozen=True)
class NullspaceBasis:
    space: CoefficientSpace
    vectors: list[Vector]

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def fields(self) -> list[PolyField]:
        return [self.space.vector_to_field(v) for v in self.vectors]


def nullspace(opmat: OperatorMatrix) -> NullspaceBasis:
    return NullspaceBasis(opmat.source, opmat.matrix.nullspace())


def _class_matrices(
    phi: StructuralSet, psi: StructuralSet, space: CoefficientSpace, names: Sequence[str]
) -> dict[str, RationalMatrix]:
    """Matrices of the named class operators on `space`, keyed by class name in `names` order."""
    ops = {
        HARMONIC: FieldOperator.laplacian(),
        TWO_SET_HARMONIC: FieldOperator.left_left(phi, psi),
        INFRAMONOGENIC: FieldOperator.sandwich(phi, psi),
    }
    return {name: operator_matrix(ops[name], space).matrix for name in names}


@dataclass(frozen=True)
class ClassDimensions:
    m: int
    degree: int
    full: int
    harmonic: int
    two_set_harmonic: int
    inframonogenic: int
    harmonic_and_two_set: int
    harmonic_and_inframonogenic: int
    two_set_and_inframonogenic: int
    triple: int

    def to_json(self) -> dict:
        return {
            "H": self.harmonic,
            "Hpp": self.two_set_harmonic,
            "I": self.inframonogenic,
            "H∩Hpp": self.harmonic_and_two_set,
            "H∩I": self.harmonic_and_inframonogenic,
            "Hpp∩I": self.two_set_and_inframonogenic,
            "triple": self.triple,
        }


def class_dimensions(phi: StructuralSet, psi: StructuralSet, m: int, d: int) -> ClassDimensions:
    """Kernel dimensions of the three class operators and all intersections
    on the degree-d homogeneous space."""
    if phi.m != m or psi.m != m:
        raise ValueError("structural sets do not match the requested dimension")
    space = CoefficientSpace(m, d)
    mats = _class_matrices(phi, psi, space, _CLASS_ORDER)

    def dim_of(names: tuple[str, ...]) -> int:
        return space.size - RationalMatrix.stack([mats[n] for n in names], space.size).rank()

    return ClassDimensions(
        m=m,
        degree=d,
        full=space.size,
        harmonic=dim_of((HARMONIC,)),
        two_set_harmonic=dim_of((TWO_SET_HARMONIC,)),
        inframonogenic=dim_of((INFRAMONOGENIC,)),
        harmonic_and_two_set=dim_of((HARMONIC, TWO_SET_HARMONIC)),
        harmonic_and_inframonogenic=dim_of((HARMONIC, INFRAMONOGENIC)),
        two_set_and_inframonogenic=dim_of((TWO_SET_HARMONIC, INFRAMONOGENIC)),
        triple=dim_of((HARMONIC, TWO_SET_HARMONIC, INFRAMONOGENIC)),
    )


def class_nullspace(phi: StructuralSet, psi: StructuralSet, d: int, names: Sequence[str]) -> NullspaceBasis:
    """Joint kernel basis of the named class operators at homogeneity degree d."""
    space = CoefficientSpace(phi.m, d)
    mats = _class_matrices(phi, psi, space, names)
    return NullspaceBasis(space, RationalMatrix.stack(list(mats.values()), space.size).nullspace())


_SMALL_RATIONALS = [
    Fraction(p, q)
    for q in (1, 2, 3)
    for p in range(-3, 4)
    if p != 0 and gcd(abs(p), q) == 1
]


def find_region_witness(
    phi: StructuralSet, psi: StructuralSet, m: int, d: int, target: RegionLabel
) -> PolyField | None:
    """Search for a homogeneous degree-d field lying in exactly the target region.

    Candidates are drawn from the joint kernel of the required classes
    (or the whole space when none is required): single basis vectors
    first, then pairwise combinations v_i + t*v_j with small rational t.
    None means the bounded search was exhausted, not that no witness exists.
    """
    if phi.m != m or psi.m != m:
        raise ValueError("structural sets do not match the requested dimension")
    space = CoefficientSpace(m, d)
    mats = _class_matrices(phi, psi, space, _CLASS_ORDER)
    wanted = [mats[name] for name in sorted(target.classes)]
    excluded = [mat for name, mat in mats.items() if name not in target.classes]
    pool = RationalMatrix.stack(wanted, space.size).nullspace()

    def candidates():
        yield from pool
        for vi, vj in combinations(pool, 2):
            for t in _SMALL_RATIONALS:
                yield [a + t * b for a, b in zip(vi, vj)]

    for vec in candidates():
        if all(any(mat.mat_vec(vec)) for mat in excluded):
            f = space.vector_to_field(vec)
            if classify(phi, psi, f).region == target:
                return f
    return None


def converse_counterexample(phi: StructuralSet) -> PolyField:
    """A same-set example showing the aggregate maps are not invertible on classes.

    Returns f that is neither harmonic nor inframonogenic for (phi, phi),
    while its scalar and top-grade parts (and therefore the image of f
    under the even aggregate) are both.  Needs m >= 2 so that a middle
    grade exists to spoil f itself.
    """
    m = phi.m
    if m < 2:
        raise ValueError("need dimension at least 2, no middle grade exists below that")
    x1 = PolyField.variable(m, 1)
    x2 = PolyField.variable(m, 2)
    scalar_part = x1 * x2
    top_part = (x1 * x1 - x2 * x2) * Multivector.blade(m, range(1, m + 1))
    spoiler = x1 * x1 * phi[1]
    f = scalar_part + top_part + spoiler
    membership = classify(phi, phi, f)
    if membership.harmonic or membership.inframonogenic:
        raise ArithmeticError("construction failed to leave both classes")
    return f


def _counterexample_check(phi: StructuralSet) -> tuple[PolyField, ClassMembership, ClassMembership, bool]:
    """The aggregate statement on f = `converse_counterexample(phi)`.

    Returns f, the (phi, phi) memberships of f and of its even-aggregate
    image, and whether f is outside both kernels and the image inside both.
    """
    f = converse_counterexample(phi)
    mem_f = classify(phi, phi, f)
    mem_image = classify(phi, phi, apply_psi_plus(phi, phi, f))
    holds = (
        not mem_f.harmonic and not mem_f.inframonogenic
        and mem_image.harmonic and mem_image.inframonogenic
    )
    return f, mem_f, mem_image, holds
