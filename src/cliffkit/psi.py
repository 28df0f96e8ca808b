"""The two-set Psi operators on R_{0,m} and their identities.

For structural sets phi, psi and a family of index sets, `PsiOperator` maps

    a  |->  sum over A in the family of  phi_A * a * reverse(psi_A)

where phi_A multiplies the set's vectors in increasing index order.  The
families: the sets of size k for level k (level 0, the empty set alone,
is the identity), of even or odd size for `plus` and `minus`, and the
singletons {j}, j in J, for the level-1 subset operator.  Operators act
on polynomial fields coefficient-wise, as constant-coefficient linear maps.

An operator is its order-0 symbol: one integer table (`_pairs`), built
once by `solver._blade_pairs`, of phi_A (x) reverse(psi_A) summed over the
family as blade pairs c * e_ma * a * e_mb over one scale.  `apply` loops
over the pairs and an operand's terms (or each coefficient of a field),
reduced once; `psi_matrix` hands the operator to `solver.operator_matrix`,
which maps the same table.  Callers that apply one family several times
keep the operator, so its table is built once.

The same-set case (phi == psi) collapses on pure-grade elements to a
scalar: `scalar_action` computes it by a finite binomial sum and
`scalar_action_hypergeometric` by terminating Gauss 2F1 series; both
must always agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations
from math import comb
from typing import Iterable, Sequence, Union

from .algebra import DimensionMismatch, Multivector, _lowest, _odd_masks, _reverse_sign
from .classify import ClassMembership, classify
from .fields import PolyField, dirac_left, dirac_right, laplacian, sandwich
from .linalg import RationalMatrix
from .solver import BladePairs, CoefficientSpace, Symbol, _blade_pairs, _classified_counterexample, operator_matrix
from .structural import StructuralSet, transition
from .verdict import Verdict, compare, merge

Element = Union[Multivector, PolyField]


def _index_sets(m: int, sizes: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    return tuple(A for k in sizes for A in combinations(range(1, m + 1), k))


@dataclass(frozen=True)
class PsiOperator:
    """The Psi operator of one family of index sets, built by `level`, `plus`, `minus` or `subset_level1`."""

    phi: StructuralSet
    psi: StructuralSet
    index_sets: tuple[tuple[int, ...], ...]
    name = "psi"
    order = 0

    def __post_init__(self):
        m = self.phi.m
        if m != self.psi.m:
            raise ValueError("structural sets must share a dimension")
        for A in self.index_sets:
            if not all(isinstance(i, int) and 1 <= i <= m for i in A):
                raise ValueError(f"index set {A} is not a set of integers in 1..{m}")
            if len(set(A)) != len(A):
                raise ValueError("an index set repeats an index")

    @classmethod
    def level(cls, phi: StructuralSet, psi: StructuralSet, k: int) -> "PsiOperator":
        if not 0 <= k <= phi.m:
            raise ValueError(f"level {k} out of range 0..{phi.m}")
        return cls(phi, psi, _index_sets(phi.m, (k,)))

    @classmethod
    def plus(cls, phi: StructuralSet, psi: StructuralSet) -> "PsiOperator":
        return cls(phi, psi, _index_sets(phi.m, range(0, phi.m + 1, 2)))

    @classmethod
    def minus(cls, phi: StructuralSet, psi: StructuralSet) -> "PsiOperator":
        return cls(phi, psi, _index_sets(phi.m, range(1, phi.m + 1, 2)))

    @classmethod
    def subset_level1(cls, phi: StructuralSet, psi: StructuralSet, subset: Iterable[int]) -> "PsiOperator":
        J = sorted(set(subset))
        if not J:
            raise ValueError("subset must be non-empty")
        if J[0] < 1 or J[-1] > phi.m:
            raise ValueError(f"subset {J} not contained in 1..{phi.m}")
        return cls(phi, psi, tuple((j,) for j in J))

    def apply(self, a: Element) -> Element:
        """The image of a multivector, or of a field coefficient by coefficient."""
        if self.phi.m != a.m:
            raise DimensionMismatch(f"dimension mismatch: sets {self.phi.m}/{self.psi.m}, operand {a.m}")
        pairs, scale = self._pairs
        if isinstance(a, PolyField):
            images = ((alpha, _image(pairs, num, a.m)) for alpha, num in a._by_monomial().items())
            flat = {(alpha, mask): c for alpha, image in images for mask, c in image.items()}
            return PolyField._of(a.m, *_lowest(flat, a._den * scale))
        return Multivector._of(a.m, *_lowest(_image(pairs, a._num, a.m), a._den * scale))

    def symbol(self, m: int) -> Symbol:
        """The prepared table at gamma = 0, over its scale; another dimension raises `DimensionMismatch`."""
        if m != self.phi.m:
            raise DimensionMismatch(f"structural set dimension {self.phi.m} does not match field dimension {m}")
        pairs, scale = self._pairs
        return {(0,) * m: pairs}, scale

    @cached_property
    def _pairs(self) -> tuple[BladePairs, int]:
        """The sum of phi_A (x) rev(psi_A) over the family as nonzero blade pairs over one scale, prepared on first use.

        phi_A and psi_A come from the sets' integer product memos, over (D_phi D_psi)^|A|, so the scale is
        (D_phi D_psi)^top, top the largest |A|.  The vectors are orthonormal, so rev(psi_A) is psi_A times the grade
        sign (-1)^(k(k-1)/2), k = |A|, which goes into psi_A's numerators.
        """
        phi, psi = self.phi, self.psi
        den, zero = phi._den * psi._den, (0,) * phi.m
        terms = []
        for A in self.index_sets:
            right = psi._product(A)
            if _reverse_sign(len(A)) < 0:
                right = {mb: -cb for mb, cb in right.items()}
            terms.append((zero, phi._product(A), right, den ** len(A)))
        pairs, scale = _blade_pairs(terms)
        return pairs.get(zero, []), scale


def _image(pairs: BladePairs, num: dict[int, int], m: int) -> dict[int, int]:
    """The nonzero numerators of the sum of c * e_ma * v * e_mb over the `pairs`, v the numerators `num`.

    The sign of e_ma * e_mv * e_mb has two factors, as in `solver._blade_images`, which maps blades for `psi_matrix`.
    """
    odd = _odd_masks(m)
    right = num.items()
    acc: dict[int, int] = {}
    get = acc.get
    for ma, mb, c in pairs:
        w = odd[ma]
        for mv, cv in right:
            left = ma ^ mv
            out = left ^ mb
            acc[out] = get(out, 0) - c * cv if ((mv & w) ^ (mb & odd[left])).bit_count() & 1 else get(out, 0) + c * cv
    return {mask: c for mask, c in acc.items() if c}


def apply_psi_k(phi: StructuralSet, psi: StructuralSet, k: int, a: Element) -> Element:
    """Level-k operator; k = 0 is the identity."""
    return PsiOperator.level(phi, psi, k).apply(a)


def apply_psi_subset1(phi: StructuralSet, psi: StructuralSet, subset: Iterable[int], a: Element) -> Element:
    """Level-1 operator restricted to a subset of indices: sum over j in J of phi_j a psi_j."""
    return PsiOperator.subset_level1(phi, psi, subset).apply(a)


def apply_psi_plus(phi: StructuralSet, psi: StructuralSet, a: Element) -> Element:
    """Sum of all even-level operators (including level 0)."""
    return PsiOperator.plus(phi, psi).apply(a)


def apply_psi_minus(phi: StructuralSet, psi: StructuralSet, a: Element) -> Element:
    """Sum of all odd-level operators."""
    return PsiOperator.minus(phi, psi).apply(a)


def _two_dimensional_aggregates(phi: StructuralSet, psi: StructuralSet, comps: Sequence[PolyField]):
    """((Psi^+ f, its closed form), (Psi^- f, its closed form)) for m = 2.

    f = f0 + f1 psi_1 + f2 psi_2 + f12 psi_1 psi_2 with scalar fields
    `comps` = (f0, f1, f2, f12); (c1, c2) is the first column of the
    transition matrix, a rotation or a reflection.
    """
    t = transition(phi, psi)
    c1, c2 = t.entries[0][0], t.entries[1][0]
    f0, f1, f2, f12 = comps
    p1, p2 = psi[1], psi[2]
    f = f0 + f1 * p1 + f2 * p2 + f12 * (p1 * p2)
    if t.form_2d() == "rotation":
        want_plus = f0 * 2 + f12 * (p1 * p2) * 2
        want_minus = (c1 * f0 + c2 * f12) * (-2) + (c1 * f12 - c2 * f0) * (p1 * p2) * 2
    else:
        want_plus = f1 * p1 * 2 + f2 * p2 * 2
        want_minus = (c1 * f1 + c2 * f2) * p1 * (-2) + (c1 * f2 - c2 * f1) * p2 * 2
    return (apply_psi_plus(phi, psi, f), want_plus), (apply_psi_minus(phi, psi, f), want_minus)


def _counterexample_check(phi: StructuralSet) -> tuple[PolyField, ClassMembership, ClassMembership, bool]:
    """The aggregate statement on f = `converse_counterexample(phi)`.

    Returns f, the (phi, phi) memberships of f and of its even-aggregate
    image, and whether f is outside both kernels and the image inside both.
    """
    f, mem_f = _classified_counterexample(phi)
    mem_image = classify(phi, phi, apply_psi_plus(phi, phi, f))
    holds = (
        not mem_f.harmonic and not mem_f.inframonogenic
        and mem_image.harmonic and mem_image.inframonogenic
    )
    return f, mem_f, mem_image, holds


# -- same-set scalar action -------------------------------------------------


@cache
def scalar_action(m: int, j: int, k: int) -> Fraction:
    """Scalar by which the same-set level-j operator multiplies grade-k elements.

    Finite alternating binomial sum; exact for all 0 <= j, k <= m; each value is computed once.
    """
    if not (0 <= j <= m and 0 <= k <= m):
        raise ValueError(f"levels ({j},{k}) out of range 0..{m}")
    total = 0
    for i in range(max(0, j + k - m), min(j, k) + 1):
        term = comb(m - k, j - i) * comb(k, i)
        total += -term if i & 1 else term
    if (j * (k + 1)) & 1:
        total = -total
    return Fraction(total)


def hyp2f1_terminating(a: int, b: int, c: int, z: Fraction) -> Fraction:
    """Gauss 2F1 as a terminating series; `a` or `b` must be a non-positive integer."""
    if a > 0 and b > 0:
        raise ValueError("series does not terminate: need a <= 0 or b <= 0")
    n_max = min(-a if a <= 0 else 10 ** 9, -b if b <= 0 else 10 ** 9)
    z = Fraction(z)
    total = Fraction(0)
    term = Fraction(1)
    for n in range(n_max + 1):
        total += term
        denom = (c + n) * (n + 1)
        if denom == 0:
            raise ZeroDivisionError(f"2F1 parameter c={c} hits a pole before termination")
        term = term * (a + n) * (b + n) * z / denom
    return total


def scalar_action_hypergeometric(m: int, j: int, k: int) -> Fraction:
    """Hypergeometric rewrite of `scalar_action`; the two must agree everywhere."""
    if not (0 <= j <= m and 0 <= k <= m):
        raise ValueError(f"levels ({j},{k}) out of range 0..{m}")
    if j + k - m <= 0:
        sign = -1 if (j * (k + 1)) & 1 else 1
        return sign * comb(m - k, j) * hyp2f1_terminating(-j, -k, 1 - j - k + m, Fraction(-1))
    sign = -1 if (k * (j + 1) + m) & 1 else 1
    return sign * comb(k, m - j) * hyp2f1_terminating(j - m, k - m, 1 + j + k - m, Fraction(-1))


# -- matrix form --------------------------------------------------------------


def psi_matrix(op: PsiOperator) -> RationalMatrix:
    """Matrix of the operator on the 2^m blade basis (canonical blade order), filled from its order-0 symbol."""
    return operator_matrix(op, CoefficientSpace(op.phi.m, 0)).matrix


# -- identity checks -----------------------------------------------------------


def check_recursion(phi: StructuralSet, psi: StructuralSet, k: int, a: Element) -> Verdict:
    """Adjacent-level recursion:
    (m-k+1)*level_{k-1}(a) + (k+1)*level_{k+1}(a) = level_1(level_k(a)).
    """
    m = phi.m
    if not 1 <= k <= m - 1:
        raise ValueError(f"recursion level {k} out of range 1..{m - 1}")
    level = {j: PsiOperator.level(phi, psi, j) for j in {1, k - 1, k, k + 1}}
    lhs = level[k - 1].apply(a) * (m - k + 1) + level[k + 1].apply(a) * (k + 1)
    rhs = level[1].apply(level[k].apply(a))
    return compare(f"psi-recursion[k={k}]", lhs, rhs)


def check_index_reflection(images: Sequence[Multivector], j: int, k: int | None = None) -> Verdict:
    """Same-set symmetry between levels j and m-j, read from the images of one operand under levels 0..m.

    `images[i]` is the image under `PsiOperator.level(phi, phi, i)`.

    Odd m: images of a, and level_j(a) = -level_{m-j}(a) for every a.
    Even m: images of a's grade-k part (k in 0..m required), and there
    level_j = level_{m-j} for even k and level_j = -level_{m-j} for odd k.
    """
    m = len(images) - 1
    if not 0 <= j <= m:
        raise ValueError(f"reflection index {j} out of range 0..{m}")
    if k is not None and not 0 <= k <= m:
        raise ValueError(f"grade {k} out of range 0..{m}")
    if m & 1:
        return compare(f"psi-index-reflection[m odd,j={j}]", images[j], -images[m - j])
    if k is None:
        raise ValueError("even dimension needs a grade k")
    rhs = -images[m - j] if k & 1 else images[m - j]
    return compare(f"psi-index-reflection[m even,j={j},k={k}]", images[j], rhs)


def check_plus_minus_closed_form(phi: StructuralSet, a: Multivector) -> Verdict:
    """Same-set aggregates against 2^(m-1) times the scalar+pseudoscalar parts."""
    m = phi.m
    plus = apply_psi_plus(phi, phi, a)
    minus = apply_psi_minus(phi, phi, a)
    ends = (a.grade_project(0) + a.grade_project(m)) * Fraction(2) ** (m - 1)
    checks = [compare("psi-plus-closed-form", plus, ends)]
    if m & 1:
        checks.append(compare("psi-minus-closed-form[m odd]", minus, -ends))
    else:
        diff = (a.grade_project(m) - a.grade_project(0)) * Fraction(2) ** (m - 1)
        checks.append(compare("psi-minus-closed-form[m even]", minus, diff))
    return merge("psi-plus-minus-closed-form", checks)


def check_plus_minus_conjugation(phi: StructuralSet, a: Multivector) -> Verdict:
    """Sandwiching the even aggregate by any one set vector yields the odd aggregate."""
    plus = apply_psi_plus(phi, phi, a)
    minus = apply_psi_minus(phi, phi, a)
    checks = []
    for j in range(1, phi.m + 1):
        checks.append(compare(f"psi-plus-conjugation[j={j}]", phi[j] * plus * phi[j], minus))
    return merge("psi-plus-conjugation", checks)


def check_dirac_psi1_identities(phi: StructuralSet, psi: StructuralSet, f: PolyField, which: str) -> Verdict:
    """First-order interplay between level 1 and the twisted Dirac operators.

    which = "gradient":    left and right first-order exchange rules;
    which = "sandwich":    two-sided and Laplacian commutation;
    which = "composition": level 1 of the left-left composition.
    """
    psi1 = PsiOperator.level(phi, psi, 1).apply
    if which == "gradient":
        image, left_f, right_f = psi1(f), dirac_left(phi, f), dirac_right(f, psi)
        left = compare("dirac-psi1-gradient-left", dirac_left(phi, image), right_f * (-2) - psi1(left_f))
        right = compare("dirac-psi1-gradient-right", dirac_right(image, psi), left_f * (-2) - psi1(right_f))
        return merge("dirac-psi1-gradient", [left, right])
    if which == "sandwich":
        image = psi1(f)
        two_sided = compare("dirac-psi1-sandwich", sandwich(phi, image, psi), psi1(sandwich(phi, f, psi)))
        lap = compare("laplacian-psi1-commutation", laplacian(image), psi1(laplacian(f)))
        return merge("dirac-psi1-sandwich", [two_sided, lap])
    if which == "composition":
        left_f = dirac_left(psi, f)
        lhs = psi1(dirac_left(phi, left_f))
        rhs = sandwich(psi, f, psi) * (-2) - dirac_left(phi, psi1(left_f))
        return compare("dirac-psi1-composition", lhs, rhs)
    raise ValueError(f"unknown identity selector {which!r}")


def check_parts_sandwich(phi: StructuralSet, psi: StructuralSet, f: PolyField) -> Verdict:
    """Two-sided derivative of the aggregates swaps parity onto the Laplacian:
    sandwich(plus(f)) = minus(laplacian f) and sandwich(minus(f)) = plus(laplacian f).
    """
    lap = laplacian(f)
    plus, minus = PsiOperator.plus(phi, psi).apply, PsiOperator.minus(phi, psi).apply
    first = compare("parts-sandwich-even", sandwich(phi, plus(f), psi), minus(lap))
    second = compare("parts-sandwich-odd", sandwich(phi, minus(f), psi), plus(lap))
    return merge("parts-sandwich", [first, second])


def check_inframonogenic_psi1_equivalence(psi1: PsiOperator, f: PolyField) -> Verdict:
    """Odd m only: the two-sided kernel of (phi, psi) is stable under their level-1 operator `psi1`, both ways."""
    phi, psi = psi1.phi, psi1.psi
    if not phi.m & 1:
        raise ValueError("the equivalence is asserted for odd dimension only")
    f_in = sandwich(phi, f, psi).is_zero()
    psi1_in = sandwich(phi, psi1.apply(f), psi).is_zero()
    if f_in == psi1_in:
        return Verdict("inframonogenic-psi1-equivalence", True)
    return Verdict(
        "inframonogenic-psi1-equivalence",
        False,
        lhs=f"field in kernel: {f_in}",
        rhs=f"level-1 image in kernel: {psi1_in}",
    )


def check_second_order_criterion(psi1: PsiOperator, f: PolyField) -> Verdict:
    """Odd m only: for `psi1` = `PsiOperator.level(phi, psi, 1)`, left-left kernel membership is equivalent to

        psi-sandwich(f) = -(1/2) dirac_left(phi, level_1(dirac_left(psi, f))).

    The sign follows from the composition identity; with it the claim is
    an exact consequence of level-1 bijectivity in odd dimension.
    """
    phi, psi = psi1.phi, psi1.psi
    if not phi.m & 1:
        raise ValueError("the criterion is asserted for odd dimension only")
    left_f = dirac_left(psi, f)
    member = dirac_left(phi, left_f).is_zero()
    lhs = sandwich(psi, f, psi)
    rhs = dirac_left(phi, psi1.apply(left_f)) * Fraction(-1, 2)
    criterion = lhs == rhs
    if member == criterion:
        return Verdict("second-order-criterion", True)
    return Verdict(
        "second-order-criterion",
        False,
        lhs=f"kernel member: {member}, psi-sandwich = {lhs}",
        rhs=f"criterion met: {criterion}, half-composition = {rhs}",
    )
