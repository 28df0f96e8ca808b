"""The two-set Psi operators on R_{0,m} and their identities.

For structural sets phi, psi and 0 <= k <= m, the level-k operator maps

    a  |->  sum over index sets A of size k of  phi_A * a * reverse(psi_A)

where phi_A multiplies the set's vectors in increasing index order.
Level 0 is the identity.  The even-level and odd-level aggregates are
written `plus` and `minus`.  Operators act on polynomial fields
coefficient-wise: they are constant-coefficient linear maps, so they
commute with taking polynomial coefficients.

The same-set case (phi == psi) collapses on pure-grade elements to a
scalar: `scalar_action` computes it by a finite binomial sum and
`scalar_action_hypergeometric` by terminating Gauss 2F1 series; both
must always agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Sequence, Union

from .algebra import Multivector, blade_order
from .fields import PolyField, dirac_left, dirac_right, laplacian, sandwich
from .linalg import RationalMatrix
from .structural import StructuralSet, transition
from .verdict import Verdict, compare, merge

Element = Union[Multivector, PolyField]


def _set_product(sset: StructuralSet, indices: Sequence[int]) -> Multivector:
    """Product of the set's vectors over `indices`, in the given order."""
    out = Multivector.scalar(sset.m, 1)
    for j in indices:
        out = out * sset[j]
    return out


def _apply_terms(phi: StructuralSet, psi: StructuralSet, index_sets: Iterable[Sequence[int]], a: Element) -> Element:
    zero = PolyField.zero(a.m) if isinstance(a, PolyField) else Multivector.zero(a.m)
    total = zero
    for A in index_sets:
        left = _set_product(phi, A)
        right = _set_product(psi, A).reverse()
        total = total + left * a * right
    return total


def _check_pair(phi: StructuralSet, psi: StructuralSet, a: Element) -> None:
    if phi.m != psi.m or phi.m != a.m:
        raise ValueError(f"dimension mismatch: sets {phi.m}/{psi.m}, operand {a.m}")


def apply_psi_k(phi: StructuralSet, psi: StructuralSet, k: int, a: Element) -> Element:
    """Level-k operator; k = 0 is the identity."""
    _check_pair(phi, psi, a)
    m = phi.m
    if not 0 <= k <= m:
        raise ValueError(f"level {k} out of range 0..{m}")
    if k == 0:
        return a
    return _apply_terms(phi, psi, combinations(range(1, m + 1), k), a)


def apply_psi_subset1(phi: StructuralSet, psi: StructuralSet, subset: Iterable[int], a: Element) -> Element:
    """Level-1 operator restricted to a subset of indices: sum over j in J of phi_j a psi_j."""
    _check_pair(phi, psi, a)
    J = sorted(set(subset))
    if not J:
        raise ValueError("subset must be non-empty")
    if J[0] < 1 or J[-1] > phi.m:
        raise ValueError(f"subset {J} not contained in 1..{phi.m}")
    return _apply_terms(phi, psi, [(j,) for j in J], a)


def apply_psi_plus(phi: StructuralSet, psi: StructuralSet, a: Element) -> Element:
    """Sum of all even-level operators (including level 0)."""
    _check_pair(phi, psi, a)
    total = a
    for k in range(2, phi.m + 1, 2):
        total = total + apply_psi_k(phi, psi, k, a)
    return total


def apply_psi_minus(phi: StructuralSet, psi: StructuralSet, a: Element) -> Element:
    """Sum of all odd-level operators."""
    _check_pair(phi, psi, a)
    zero = PolyField.zero(a.m) if isinstance(a, PolyField) else Multivector.zero(a.m)
    total = zero
    for k in range(1, phi.m + 1, 2):
        total = total + apply_psi_k(phi, psi, k, a)
    return total


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


# -- same-set scalar action -------------------------------------------------


def scalar_action(m: int, j: int, k: int) -> Fraction:
    """Scalar by which the same-set level-j operator multiplies grade-k elements.

    Finite alternating binomial sum; exact for all 0 <= j, k <= m.
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


@dataclass(frozen=True)
class PsiOperator:
    """One of the Psi family: a fixed level, an even/odd aggregate, or a level-1 subset."""

    phi: StructuralSet
    psi: StructuralSet
    kind: str  # "level" | "plus" | "minus" | "subset"
    k: int | None = None
    subset: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.phi.m != self.psi.m:
            raise ValueError("structural sets must share a dimension")
        if self.kind == "level":
            if self.k is None or not 0 <= self.k <= self.phi.m:
                raise ValueError(f"level {self.k} out of range 0..{self.phi.m}")
        elif self.kind == "subset":
            if not self.subset:
                raise ValueError("subset kind needs a non-empty index set")
        elif self.kind not in ("plus", "minus"):
            raise ValueError(f"unknown kind {self.kind!r}")

    @classmethod
    def level(cls, phi, psi, k):
        return cls(phi, psi, "level", k=k)

    @classmethod
    def plus(cls, phi, psi):
        return cls(phi, psi, "plus")

    @classmethod
    def minus(cls, phi, psi):
        return cls(phi, psi, "minus")

    @classmethod
    def subset_level1(cls, phi, psi, subset):
        return cls(phi, psi, "subset", subset=tuple(sorted(set(subset))))

    def apply(self, a: Element) -> Element:
        if self.kind == "level":
            return apply_psi_k(self.phi, self.psi, self.k, a)
        if self.kind == "plus":
            return apply_psi_plus(self.phi, self.psi, a)
        if self.kind == "minus":
            return apply_psi_minus(self.phi, self.psi, a)
        return apply_psi_subset1(self.phi, self.psi, self.subset, a)


def psi_matrix(op: PsiOperator) -> RationalMatrix:
    """Matrix of the operator on the 2^m blade basis (canonical blade order)."""
    m = op.phi.m
    order = blade_order(m)
    columns = [op.apply(Multivector(m, {mask: Fraction(1)})).coefficients(order) for mask in order]
    return RationalMatrix.from_columns(columns, len(order))


def is_bijective(op: PsiOperator) -> bool:
    """Decided by exact rank of the blade-basis matrix."""
    mat = psi_matrix(op)
    return mat.rank() == mat.ncols


# -- identity checks -----------------------------------------------------------


def check_recursion(phi: StructuralSet, psi: StructuralSet, k: int, a: Element) -> Verdict:
    """Adjacent-level recursion:
    (m-k+1)*level_{k-1}(a) + (k+1)*level_{k+1}(a) = level_1(level_k(a)).
    """
    m = phi.m
    if not 1 <= k <= m - 1:
        raise ValueError(f"recursion level {k} out of range 1..{m - 1}")
    lhs = apply_psi_k(phi, psi, k - 1, a) * (m - k + 1) + apply_psi_k(phi, psi, k + 1, a) * (k + 1)
    rhs = apply_psi_k(phi, psi, 1, apply_psi_k(phi, psi, k, a))
    return compare(f"psi-recursion[k={k}]", lhs, rhs)


def check_index_reflection(phi: StructuralSet, a: Multivector, j: int, k: int | None = None) -> Verdict:
    """Same-set symmetry between levels j and m-j.

    Odd m: level_j(a) = -level_{m-j}(a) for every a.
    Even m: on grade-k parts, level_j = level_{m-j} for even k and
    level_j = -level_{m-j} for odd k (k required in that case).
    """
    m = phi.m
    if m & 1:
        lhs = apply_psi_k(phi, phi, j, a)
        rhs = -apply_psi_k(phi, phi, m - j, a)
        return compare(f"psi-index-reflection[m odd,j={j}]", lhs, rhs)
    if k is None:
        raise ValueError("even dimension needs a grade k")
    part = a.grade_project(k)
    lhs = apply_psi_k(phi, phi, j, part)
    rhs = apply_psi_k(phi, phi, m - j, part)
    if k & 1:
        rhs = -rhs
    return compare(f"psi-index-reflection[m even,j={j},k={k}]", lhs, rhs)


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
    psi1 = lambda g: apply_psi_k(phi, psi, 1, g)
    if which == "gradient":
        left = compare(
            "dirac-psi1-gradient-left",
            dirac_left(phi, psi1(f)),
            dirac_right(f, psi) * (-2) - psi1(dirac_left(phi, f)),
        )
        right = compare(
            "dirac-psi1-gradient-right",
            dirac_right(psi1(f), psi),
            dirac_left(phi, f) * (-2) - psi1(dirac_right(f, psi)),
        )
        return merge("dirac-psi1-gradient", [left, right])
    if which == "sandwich":
        two_sided = compare(
            "dirac-psi1-sandwich",
            sandwich(phi, psi1(f), psi),
            psi1(sandwich(phi, f, psi)),
        )
        lap = compare("laplacian-psi1-commutation", laplacian(psi1(f)), psi1(laplacian(f)))
        return merge("dirac-psi1-sandwich", [two_sided, lap])
    if which == "composition":
        lhs = psi1(dirac_left(phi, dirac_left(psi, f)))
        rhs = sandwich(psi, f, psi) * (-2) - dirac_left(phi, psi1(dirac_left(psi, f)))
        return compare("dirac-psi1-composition", lhs, rhs)
    raise ValueError(f"unknown identity selector {which!r}")


def check_parts_sandwich(phi: StructuralSet, psi: StructuralSet, f: PolyField) -> Verdict:
    """Two-sided derivative of the aggregates swaps parity onto the Laplacian:
    sandwich(plus(f)) = minus(laplacian f) and sandwich(minus(f)) = plus(laplacian f).
    """
    lap = laplacian(f)
    first = compare(
        "parts-sandwich-even",
        sandwich(phi, apply_psi_plus(phi, psi, f), psi),
        apply_psi_minus(phi, psi, lap),
    )
    second = compare(
        "parts-sandwich-odd",
        sandwich(phi, apply_psi_minus(phi, psi, f), psi),
        apply_psi_plus(phi, psi, lap),
    )
    return merge("parts-sandwich", [first, second])


def check_inframonogenic_psi1_equivalence(phi: StructuralSet, psi: StructuralSet, f: PolyField) -> Verdict:
    """Odd m only: the two-sided kernel is stable under level 1, in both directions."""
    if not phi.m & 1:
        raise ValueError("the equivalence is asserted for odd dimension only")
    f_in = sandwich(phi, f, psi).is_zero()
    psi1_in = sandwich(phi, apply_psi_k(phi, psi, 1, f), psi).is_zero()
    if f_in == psi1_in:
        return Verdict("inframonogenic-psi1-equivalence", True)
    return Verdict(
        "inframonogenic-psi1-equivalence",
        False,
        lhs=f"field in kernel: {f_in}",
        rhs=f"level-1 image in kernel: {psi1_in}",
    )


def check_second_order_criterion(phi: StructuralSet, psi: StructuralSet, f: PolyField) -> Verdict:
    """Odd m only: left-left kernel membership is equivalent to

        psi-sandwich(f) = -(1/2) dirac_left(phi, level_1(dirac_left(psi, f))).

    The sign follows from the composition identity; with it the claim is
    an exact consequence of level-1 bijectivity in odd dimension.
    """
    if not phi.m & 1:
        raise ValueError("the criterion is asserted for odd dimension only")
    member = dirac_left(phi, dirac_left(psi, f)).is_zero()
    lhs = sandwich(psi, f, psi)
    rhs = dirac_left(phi, apply_psi_k(phi, psi, 1, dirac_left(psi, f))) * Fraction(-1, 2)
    criterion = lhs == rhs
    if member == criterion:
        return Verdict("second-order-criterion", True)
    return Verdict(
        "second-order-criterion",
        False,
        lhs=f"kernel member: {member}, psi-sandwich = {lhs}",
        rhs=f"criterion met: {criterion}, half-composition = {rhs}",
    )
