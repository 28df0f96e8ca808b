"""Exact kernel computations on homogeneous polynomial coefficient spaces.

The differential operators drop homogeneity degree by one (one-sided
Dirac) or two (Laplacian, compositions), so membership questions
decompose degree by degree and each degree gives a finite exact linear
problem.  Every operator has constant coefficients, so its matrix is
filled straight from its symbol: a derivative of a monomial is a scaled
monomial, and the multivector coefficients act on each basis blade by a
fixed blade map.  Every symbol, the Psi operators' too, is one table
from `_blade_pairs`.  Each row is built once, already in column order, from
the transposed blade maps.  Kernels come from fraction-free elimination
in `linalg`; at odd m the class dimensions assemble and eliminate the
even-blade half alone, which the central pseudoscalar maps onto the odd
half, at m = 0 mod 4 they assemble in the pseudoscalar's eigenbasis, and
every class matrix has full row rank.  `find_region_witness` answers the
region of one `class_dimensions` point: the rank rule on its dimensions
proves it empty, or a complete search over one candidate formula, sums
of joint-kernel vectors, finds a field in it that `classify` confirms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from math import gcd, lcm, perm, prod
from operator import add
from typing import Callable, Iterable, Iterator, Sequence

from .algebra import DimensionMismatch, Multivector, _blade_rank, _odd_masks
from .algebra import blade_order, check_dimension
from .classify import _CLASS_ORDER, INFRAMONOGENIC, TWO_SET_HARMONIC, HARMONIC, ClassMembership, RegionLabel, classify
from .fields import MultiIndex, PolyField, _field
from .linalg import RationalMatrix, RowEchelon, _Lazy, _reduced_row
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

    __slots__ = ("m", "degree", "basis")

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

    def __setattr__(self, name, value):
        raise AttributeError("CoefficientSpace is immutable")

    @property
    def size(self) -> int:
        return len(self.basis)

    def _field(self, y: dict[int, int], den: int) -> PolyField:
        """The field of the vector y / den, y its nonzero {coordinate: int} entries."""
        return _field(self.m, {self.basis[j]: a for j, a in y.items()}, den)

    def __repr__(self):
        return f"CoefficientSpace(m={self.m}, degree={self.degree}, size={self.size})"


# The summed blade pairs (ma, mb, c) of one gamma of a symbol: c * e_ma * (.) * e_mb, c an integer over one scale.
BladePairs = list[tuple[int, int, int]]
# A symbol: the blade pairs of each gamma, gamma ascending, and their one scale.
Symbol = tuple[dict[MultiIndex, BladePairs], int]


def _blade_pairs(terms: list[tuple[MultiIndex, dict[int, int], dict[int, int], int]]) -> Symbol:
    """The symbol of the terms (gamma, a, b, den), each a * d^gamma(f) * b / den, a and b numerators {mask: int}.

    The scale is the lcm of the dens; each gamma's pairs sum its terms' products of coefficients, in term order,
    and pairs that cancel are dropped.
    """
    scale = lcm(*(den for *_, den in terms))
    acc: dict[MultiIndex, dict[tuple[int, int], int]] = {gamma: {} for gamma in sorted({t[0] for t in terms})}
    for gamma, a, b, den in terms:
        blades, factor, right = acc[gamma], scale // den, b.items()
        for ma, ca in a.items():
            ca *= factor
            for mb, cb in right:
                blades[ma, mb] = blades.get((ma, mb), 0) + ca * cb
    return {gamma: [(ma, mb, c) for (ma, mb), c in blades.items() if c] for gamma, blades in acc.items()}, scale


@dataclass(frozen=True)
class FieldOperator:
    """A constant-coefficient homogeneous operator P f = sum_gamma a_gamma * d^gamma(f) * b_gamma.

    Every |gamma| equals `order`, and a_gamma, b_gamma are multivectors
    built from `sets`.  `terms(axes, one)` lists the operator in dimension
    m = len(axes) as (axes of gamma, a, b) triples, with `one` the unit
    multivector:

    - laplacian: ((i, i), 1, 1);
    - left-left: ((i, j), phi_i psi_j, 1);
    - sandwich: ((i, j), phi_i, psi_j);
    - dirac-left: ((j,), psi_j, 1);
    - dirac-right: ((j,), 1, psi_j).
    """

    name: str
    order: int
    sets: tuple[StructuralSet, ...]
    terms: Callable[[range, Multivector], list[tuple[tuple[int, ...], Multivector, Multivector]]]

    def symbol(self, m: int) -> Symbol:
        """The symbol in dimension m (`_blade_pairs`); sets of another dimension raise `DimensionMismatch`."""
        for sset in self.sets:
            if sset.m != m:
                raise DimensionMismatch(f"structural set dimension {sset.m} does not match field dimension {m}")
        axes = range(1, m + 1)
        return _blade_pairs([(tuple(map(term_axes.count, axes)), a._num, b._num, a._den * b._den)
                             for term_axes, a, b in self.terms(axes, Multivector.scalar(m, 1))])

    @classmethod
    def laplacian(cls) -> "FieldOperator":
        return cls("laplacian", 2, (), lambda axes, one: [((i, i), one, one) for i in axes])

    @classmethod
    def left_left(cls, phi: StructuralSet, psi: StructuralSet) -> "FieldOperator":
        return cls("left-left", 2, (phi, psi),
                   lambda axes, one: [((i, j), phi[i] * psi[j], one) for i in axes for j in axes])

    @classmethod
    def sandwich(cls, phi: StructuralSet, psi: StructuralSet) -> "FieldOperator":
        return cls("sandwich", 2, (phi, psi), lambda axes, one: [((i, j), phi[i], psi[j]) for i in axes for j in axes])

    @classmethod
    def dirac_left(cls, psi: StructuralSet) -> "FieldOperator":
        return cls("dirac-left", 1, (psi,), lambda axes, one: [((j,), psi[j], one) for j in axes])

    @classmethod
    def dirac_right(cls, psi: StructuralSet) -> "FieldOperator":
        return cls("dirac-right", 1, (psi,), lambda axes, one: [((j,), one, psi[j]) for j in axes])


# The transposed S_gamma for each gamma of a symbol, in lexicographic order of gamma: S_gamma[B] lists
# the (A, c), A ascending, with c != 0 the coefficient of e_B in sum c' * e_ma * e_A * e_mb over gamma's
# pairs.  A and B are blade ranks, the places of the blades in `blade_order`.
BladeMaps = dict[MultiIndex, list[list[tuple[int, int]]]]


@cache
def _basis(m: int, even: bool, omega: bool) -> tuple[tuple[tuple[int, int, int], ...], tuple | None]:
    """The sources (A, mask, partner) `_blade_images` maps, and with `omega` the halves (L, p, q) that place the images.

    Without `omega` the sources are the blades, the even ones alone with
    `even`, at their ranks A.  With it they are the blades A without the
    top bit e_m, in the eigenbasis of left multiplication by omega =
    e_1...e_m at m = 0 mod 4: omega e_A = sigma_A e_A' (A' the complement)
    and u_A^+- = e_A +- sigma_A e_A' sit at A's rank and at the partner's,
    the rank of A + e_m.  halves[B] = (L, p, q), L the low one of B and B',
    gives (1 + omega) e_B = p u_L^+ and (1 - omega) e_B = q u_L^-.
    """
    odd, order, rank, top, full = _odd_masks(m), blade_order(m), _blade_rank(m), 1 << (m - 1), (1 << m) - 1
    if not omega:
        return tuple((A, mask, A) for A, mask in enumerate(order) if not (even and mask.bit_count() & 1)), None
    halves = tuple((B ^ full, s, -s) if B & top else (B, 1, 1)
                   for B in range(1 << m) for s in [(-1) ** (B & odd[full]).bit_count()])
    return tuple((A, mask, rank[mask | top]) for A, mask in enumerate(order) if not mask & top), halves


def _blade_images(pairs: dict[MultiIndex, BladePairs], m: int, *, walk: bool = False) -> BladeMaps:
    """The transposed blade maps of a symbol's blade pairs, over the symbol's scale, in the basis of `_basis`.

    S_gamma[B] is row B of the blade map of gamma, so a matrix row reads
    its entries from one list.  Each distinct table of pairs is mapped
    once: gammas with the same pairs (the Laplacian's m identities) share
    one map.  `walk` gives the rows the dimension walk reads, for an
    operator that keeps blade parity and whose left blades share a parity
    s (every class operator): the even sources alone at odd m, so the rows
    of odd B are empty, and the omega eigenbasis at m = 0 mod 4.  There
    S(u_A^+-) = (1 +- s omega) S(e_A), so (1 + omega) S(e_A) fills the rows
    of u^+ and (1 - omega) S(e_A) those of u^-, in the columns of u_A^+ and
    u_A^- (swapped when s = -1).
    """
    odd, rank, top = _odd_masks(m), _blade_rank(m), 1 << (m - 1)
    sources, halves = _basis(m, walk and m % 2 == 1, walk and m % 4 == 0)
    made: dict[tuple, list[list[tuple[int, int]]]] = {}
    for blades in dict.fromkeys(map(tuple, pairs.values())):
        transposed = made[blades] = [[] for _ in rank]
        flip = bool(blades) and blades[0][0].bit_count() & 1  # s = -1
        for A, mask, partner in sources:  # A ascending, so each transposed row comes out sorted
            image: dict[int, int] = {}
            for ma, mb, c in blades:
                # e_ma * e_mask * e_mb, whose sign has two factors
                left = ma ^ mask
                out = left ^ mb
                image[out] = image.get(out, 0) + (-c if ((mask & odd[ma]) ^ (mb & odd[left])).bit_count() & 1 else c)
            if halves is None:
                for out, c in image.items():
                    if c:
                        transposed[rank[out]].append((A, c))
                continue
            folded: dict[int, int] = {}  # (1 + omega) S(e_A) in the rows of u^+, (1 - omega) S(e_A) in those of u^-
            for out, c in image.items():
                low, p, q = halves[out]
                folded[low] = folded.get(low, 0) + p * c
                folded[low | top] = folded.get(low | top, 0) + q * c
            for out, c in folded.items():
                if c:  # a row of u^+ (low) holds S(u_A^+), column A, when s = +1; at s = -1 the columns swap
                    transposed[rank[out]].append(((A, partner)[(out >= top) ^ flip], c))
    return {gamma: made[tuple(blades)] for gamma, blades in pairs.items()}


@dataclass(frozen=True)
class OperatorMatrix:
    """Exact matrix of an operator on the degree-d space `source`.

    Row (beta, e_B) gives the coefficient of x^beta e_B in the image, for
    beta of degree d - order and B in `blade_order`, monomial-major as in
    `CoefficientSpace`; an operator of order above d gives no rows.
    """

    matrix: RationalMatrix
    source: CoefficientSpace


def operator_matrix(op: FieldOperator, space: CoefficientSpace, *, walk: bool = False) -> OperatorMatrix:
    """The matrix of `op` (a `FieldOperator`, or a `psi.PsiOperator` of order 0) on `space`, filled from its symbol.

    Since d^gamma x^(beta+gamma) = (beta+gamma)!/beta! * x^beta, row
    (beta, e_B) holds, for each gamma, (beta+gamma)!/beta! times S_gamma[B]
    (`_blade_images`) in the columns of monomial beta+gamma.  The lift and
    the column offset of beta+gamma depend on the monomial alone, so they
    are found once per (beta, gamma) for all its blades; the lift runs over
    the nonzero axes of gamma.  For a fixed beta the lexicographic order of
    gamma is the column order of beta+gamma, so each row is built once,
    already sorted.  The blade maps are integers over one scale, so every
    entry is an integer over that scale until each row is reduced once.

    With `walk`, the rows the dimension walk reads (`_blade_images`): at
    odd m those of odd output blades are zero, and at m = 0 mod 4 rows and
    columns are in the omega eigenbasis of `_basis`.
    """
    pairs, scale = op.symbol(space.m)
    maps = _blade_images(pairs, space.m, walk=walk) if space.degree >= op.order else {}
    width = 1 << space.m  # rows and columns are monomial-major, 2^m blades per monomial
    offset = {space.basis[col][0]: col for col in range(0, space.size, width)}
    terms = [(gamma, [(i, g) for i, g in enumerate(gamma) if g], images) for gamma, images in maps.items()]
    rows = []
    for beta in monomials_of_degree(space.m, space.degree - op.order):
        lifted = [(offset[tuple(map(add, beta, gamma))], prod([perm(beta[i] + g, g) for i, g in axes]), images)
                  for gamma, axes, images in terms]
        rows += [_reduced_row([(col + A, lift * c) for col, lift, images in lifted for A, c in images[B]], scale)
                 for B in range(width)]
    return OperatorMatrix(RationalMatrix._of(rows, space.size), space)


def class_matrices(
    phi: StructuralSet, psi: StructuralSet, space: CoefficientSpace, names: Sequence[str] = _CLASS_ORDER,
    *, walk: bool = False,
) -> dict[str, RationalMatrix]:
    """Matrices of the named class operators on `space`, keyed by class name in `names` order.

    `walk` fills the rows the dimension walk reads (`operator_matrix`).
    Sets of two dimensions and unknown class names raise `ValueError`.
    """
    if psi.m != phi.m:
        raise ValueError(f"structural sets of two dimensions, {phi.m} and {psi.m}")
    RegionLabel.from_classes(names)
    ops = {
        HARMONIC: FieldOperator.laplacian(),
        TWO_SET_HARMONIC: FieldOperator.left_left(phi, psi),
        INFRAMONOGENIC: FieldOperator.sandwich(phi, psi),
    }
    return {name: operator_matrix(ops[name], space, walk=walk).matrix for name in names}


# The joint kernels `ClassDimensions` reports: their classes, JSON labels and fields, in report order.
_JOINTS = {
    frozenset({HARMONIC}): ("H", "harmonic"),
    frozenset({TWO_SET_HARMONIC}): ("Hpp", "two_set_harmonic"),
    frozenset({INFRAMONOGENIC}): ("I", "inframonogenic"),
    frozenset({HARMONIC, TWO_SET_HARMONIC}): ("H∩Hpp", "harmonic_and_two_set"),
    frozenset({HARMONIC, INFRAMONOGENIC}): ("H∩I", "harmonic_and_inframonogenic"),
    frozenset({TWO_SET_HARMONIC, INFRAMONOGENIC}): ("Hpp∩I", "two_set_and_inframonogenic"),
    frozenset(_CLASS_ORDER): ("triple", "triple"),
}


@dataclass(frozen=True)
class ClassDimensions:
    """The seven joint-kernel dimensions of (`phi`, `psi`) at degree d (`_JOINTS`), and with a `region` (else None)
    the point's `space`, its three whole class `matrices` and the region's chain `echelons`, one per block.
    """

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
    phi: StructuralSet = field(compare=False, repr=False)
    psi: StructuralSet = field(compare=False, repr=False)
    region: RegionLabel | None = field(default=None, compare=False, repr=False)
    space: CoefficientSpace | None = field(default=None, compare=False, repr=False)
    matrices: dict[str, RationalMatrix] | None = field(default=None, compare=False, repr=False)
    echelons: tuple[RowEchelon, ...] | None = field(default=None, compare=False, repr=False)

    def to_json(self) -> dict:
        return {label: getattr(self, name) for label, name in _JOINTS.values()}

    def joint(self, names: frozenset) -> int:
        """Dimension of the joint kernel of the named classes; no names give the full space."""
        names = frozenset(names)
        return getattr(self, _JOINTS[names][1]) if names else self.full

    def region_is_empty(self, target: RegionLabel) -> bool:
        """Whether no field of this degree lies in exactly `target`, decided by the dimensions alone.

        With W the classes of the target, the region is the joint kernel
        of W minus its intersections with each other class E.  A vector
        space over Q is not a finite union of proper subspaces, so the
        region is empty exactly when dim of W is 0 or some E leaves it
        whole: dim(W and E) = dim W.
        """
        within = target.classes
        base = self.joint(within)
        return base == 0 or any(self.joint(within | {name}) == base for name in _CLASS_ORDER if name not in within)


# The joint kernels `class_dimensions` reads, each grown from the one before its
# last class by that class's rows: chains H, H+I, H+I+Hpp; H+Hpp; I, I+Hpp; Hpp,
# the last only for its region.  Laplacian rows keep the pivots small, so H goes first.
_CHAINS = (
    (HARMONIC,),
    (HARMONIC, INFRAMONOGENIC),
    (HARMONIC, INFRAMONOGENIC, TWO_SET_HARMONIC),
    (HARMONIC, TWO_SET_HARMONIC),
    (INFRAMONOGENIC,),
    (INFRAMONOGENIC, TWO_SET_HARMONIC),
    (TWO_SET_HARMONIC,),
)


def class_dimensions(phi: StructuralSet, psi: StructuralSet, d: int,
                     region: RegionLabel | None = None) -> ClassDimensions:
    """Kernel dimensions of the three class operators and all intersections
    on the degree-d homogeneous space of dimension m = phi.m.

    Sets of two dimensions raise `ValueError`.  The point's one
    `CoefficientSpace` is built here.  With a `region`, the three whole
    `class_matrices` are assembled and returned with the space and the
    echelons of the region's classes, for `find_region_witness` to read.

    Every class matrix has full row rank: with S the sandwich, the
    compositions Delta Delta, (D_phi D_psi)(D_psi D_phi) and S S all equal
    Delta^2 (a structural set's Dirac operator squares to -Delta), and
    Delta maps degree d onto degree d - 2 (Fischer duality).  So each
    single-class dimension is the column count less the row count, and
    only the intersections need elimination.  The stack of the three
    matrices is split into connected blocks once.  In each block every
    joint kernel of `_CHAINS` is a `RowEchelon` grown from the one before
    its last class, so the rows of H are inserted once, of I twice and of
    Hpp three times; the chain of Hpp alone is a prefix of no other, so it
    is grown only for the region of Hpp alone.

    The operators keep blade parity, so each block holds one parity, and
    without a region the pseudoscalar omega = e_1...e_m splits them further
    (`class_matrices(..., walk=True)`).  At odd m omega is central and odd:
    multiplying by it maps every joint kernel on the even blades onto the
    one on the odd blades, so only the even rows are assembled and walked
    and each rank counts twice.  At m = 0 mod 4, omega^2 = +1 and f -> omega f
    commutes with Delta and D_phi D_psi and anticommutes with the sandwich,
    so in its eigenbasis each parity block splits in two.  The echelon of
    the region's classes outlives its block; at odd m an odd block grows
    that one chain alone, so the witness pool stays in blade coordinates.
    """
    m = phi.m
    space = CoefficientSpace(m, d)
    matrices = class_matrices(phi, psi, space, walk=region is None)
    stack = RationalMatrix.stack([matrices[name] for name in _CLASS_ORDER], space.size)
    class_of = [name for name in _CLASS_ORDER for _ in range(matrices[name].nrows)]
    # Row i has output blade B = i mod 2^m; mirrored[B] when m and B are odd, so the row's block mirrors an even one.
    width, mirrored = 1 << m, [m % 2 and mask.bit_count() % 2 for mask in blade_order(m)]
    target = () if region is None else next((chain for chain in _CHAINS if frozenset(chain) == region.classes), ())
    walk = [chain for chain in _CHAINS if chain != (TWO_SET_HARMONIC,) or chain == target]
    kept_walk = [chain for chain in _CHAINS if chain == target[:len(chain)]]
    eliminated = [i for i in range(stack.nrows) if not mirrored[i % width] or class_of[i] in target]
    ranks = dict.fromkeys(map(frozenset, walk), 0)
    kept = []
    for block in RationalMatrix._of([stack._int_rows[i] for i in eliminated], space.size)._blocks():
        block = [eliminated[k] for k in block]
        rows = {name: [] for name in _CLASS_ORDER}
        for i in block:
            rows[class_of[i]].append(stack._int_rows[i][0])
        mirror = mirrored[block[0] % width]
        echelons = {frozenset(): RowEchelon()}
        for chain in kept_walk if mirror else walk:
            names = frozenset(chain)
            echelons[names] = echelons[frozenset(chain[:-1])].grown(rows[chain[-1]])
            ranks[names] += 0 if mirror else len(echelons[names])
        if target:
            kept.append(echelons[frozenset(target)])
    dims = {names: space.size - (1 + m % 2) * rank for names, rank in ranks.items()}
    dims.update({frozenset({name}): space.size - matrices[name].nrows for name in _CLASS_ORDER})
    point = {} if region is None else {"space": space, "matrices": matrices, "echelons": tuple(kept)}
    return ClassDimensions(m, d, space.size, *map(dims.get, _JOINTS), phi, psi, region, **point)


def class_nullspace(phi: StructuralSet, psi: StructuralSet, d: int, names: Sequence[str]) -> Sequence[PolyField]:
    """Joint kernel basis of the named class operators at homogeneity degree d, as fields.

    The fields of `RationalMatrix.nullspace`, in its order; field k is
    back-substituted and built on first access.  Sets of two dimensions and
    unknown class names raise `ValueError` (`class_matrices`).
    """
    space = CoefficientSpace(phi.m, d)
    basis = RationalMatrix.stack(list(class_matrices(phi, psi, space, names).values()), space.size).nullspace()
    return _Lazy(len(basis), lambda k: space._field(*basis[k]))


_SMALL_RATIONALS = [
    Fraction(p, q)
    for q in (1, 2, 3)
    for p in range(-3, 4)
    if p != 0 and gcd(abs(p), q) == 1
]


# Nonzero {coordinate: int} entries; pool vectors and candidates are pairs (y, den), the vector y / den.
SparseVector = dict[int, int]


def _combination(terms: Iterable[tuple[int, SparseVector]]) -> SparseVector:
    """sum c * v over the (c, v) of `terms`, zeros left out."""
    out: SparseVector = {}
    for c, v in terms:
        for j, x in v.items():
            out[j] = out.get(j, 0) + c * x
    return {j: x for j, x in out.items() if x}


def _region_candidates(pool: Sequence[tuple[SparseVector, int]],
                       images: Sequence[list[SparseVector]]) -> Iterator[tuple[SparseVector, int]]:
    """Every combination of `pool` the search tries whose image under each excluded matrix is nonzero, in order.

    `images[k]` holds the integer images (`mat_vec`) of `pool[k]` under
    the excluded matrices.  Both are read in order and only as far as the
    search gets, so they may be computed on access (`linalg._Lazy`).
    Single vectors come first.  Each later candidate is
    sum_n t^n * v_(k_n) over an index tuple k, for each t of
    `_SMALL_RATIONALS`: the pairs k = (i, j), i < j, then, if three, the
    picks, in pool order the first vectors that escape each excluded
    matrix.  Its image is the same sum of the pool images.  The search is
    complete: one pick is a single candidate, and under each excluded
    matrix two picks i < j give v_i + t * v_j a nonzero image of degree
    at most 1 in t, so the pair (i, j) escapes.  With three, the picks'
    sum has a nonzero image of degree at most 2, which rules out at most
    6 of the 14 values of t.  If an excluded matrix sends every pool
    vector to zero, nothing follows the single vectors.
    """
    for v, image in zip(pool, images):
        if all(image):
            yield v
    excluded = range(len(images[0]) if images else 0)
    if not all(any(image[e] for image in images) for e in excluded):
        return
    picks = sorted({next(k for k, image in enumerate(images) if image[e]) for e in excluded})
    for ks in chain(combinations(range(len(pool)), 2), [picks] if len(picks) == 3 else []):
        den, top = lcm(*(pool[k][1] for k in ks)), len(ks) - 1
        for t in _SMALL_RATIONALS:
            p, q = t.numerator, t.denominator
            coefs = [p ** n * q ** (top - n) * (den // pool[k][1]) for n, k in enumerate(ks)]
            if all(_combination(zip(coefs, (images[k][e] for k in ks))) for e in excluded):
                yield _combination(zip(coefs, (pool[k][0] for k in ks))), q ** top * den


def find_region_witness(dims: ClassDimensions) -> PolyField | None:
    """A field of the point `dims` lying in exactly its region, or None when the region is empty.

    The rank rule (`ClassDimensions.region_is_empty`) decides emptiness
    first; a nonempty region of a point built with no region raises
    `ValueError`.  The pool is `RationalMatrix.nullspace` of the region's
    classes (the whole space when it has none) on the point's echelons,
    and `ArithmeticError` is raised unless it has
    `dims.joint(region.classes)` vectors.  Pool vector k is
    back-substituted, guarded and multiplied through each excluded matrix
    (`mat_vec`) when `_region_candidates` first reaches it; a candidate
    that escapes is made a field, and `classify` confirms it.  The search
    is complete, so running out of candidates in a nonempty region raises
    `ArithmeticError`.
    """
    target = dims.region
    if target is not None and dims.region_is_empty(target):
        return None
    if target is None or dims.echelons is None:
        raise ValueError("the point was built with no region to search; pass one to class_dimensions")
    wanted = [dims.matrices[name] for name in sorted(target.classes)]
    excluded = [mat for name, mat in dims.matrices.items() if name not in target.classes]
    pool = RationalMatrix.stack(wanted, dims.full).nullspace(dims.echelons)
    if len(pool) != (size := dims.joint(target.classes)):
        raise ArithmeticError(f"the echelons give {len(pool)} kernel vectors for {target}, the dimensions {size}")
    # Image rows come times their row scales, which changes no zero test.
    images = _Lazy(len(pool), lambda k: [mat.mat_vec(pool[k][0]) for mat in excluded])
    for y, den in _region_candidates(pool, images):
        f = dims.space._field(y, den)
        if classify(dims.phi, dims.psi, f).region == target:
            return f
    raise ArithmeticError(f"the search found no field in the nonempty region {target}")


def converse_counterexample(phi: StructuralSet) -> PolyField:
    """A same-set example showing the aggregate maps are not invertible on classes.

    Returns f that is neither harmonic nor inframonogenic for (phi, phi),
    while its scalar and top-grade parts (and therefore the image of f
    under the even aggregate) are both.  Needs m >= 2 so that a middle
    grade exists to spoil f itself.
    """
    return _classified_counterexample(phi)[0]


def _classified_counterexample(phi: StructuralSet) -> tuple[PolyField, ClassMembership]:
    """`converse_counterexample(phi)` and its (phi, phi) membership, which guards the construction."""
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
    return f, membership

