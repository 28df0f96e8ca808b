"""Membership classification and region labels."""

import random
import re
from fractions import Fraction
from itertools import islice

import pytest

from cliffkit.classify import (
    HARMONIC,
    INFRAMONOGENIC,
    TWO_SET_HARMONIC,
    ClassMembership,
    RegionLabel,
    check_even_odd_split_membership,
    classify,
    region,
)
from cliffkit.fields import PolyField, dirac_left, dirac_right, laplacian, sandwich
from cliffkit.parser import parse_field
from cliffkit.sampling import (
    HALF_ANGLE_POOL,
    rand_multi_index,
    rand_multivector,
    rand_polyfield,
    rand_rational_structural_set,
    rand_signed_permutation,
    rand_structural_pair,
)
from cliffkit.solver import CoefficientSpace, FieldOperator, class_nullspace, operator_matrix
from cliffkit.structural import StructuralSet
from kernel_reference import kernel_fields, partial, sum_terms
from plane_reference import rotation_pair

PHI = StructuralSet.standard(3)
PSI = StructuralSet.reversed_standard(3)

REFERENCE = [
    ("(x2^2 - x1^2)*e[2] - 2*x1*x2*e[3] - x1*e[1,2] + x3*e[2,3]", (True, True, True), (True, True)),
    ("2*x1*x3*e[1] - x2*e[2] - (x1^2 - x3^2)*e[3]", (True, True, True), (False, False)),
    ("2*x2*x3*e[1] - (x1^2 + x2^2)*e[2]", (False, True, True), (False, False)),
    ("x1*x3*e[1] + x2*e[2]", (True, False, True), (False, False)),
    ("(x1*x2 + x2*x3)*e[2]", (True, True, False), (False, False)),
]


@pytest.mark.parametrize("expr,classes,hyp", REFERENCE)
def test_reference_fields_classify_exactly(expr, classes, hyp):
    mem = classify(PHI, PSI, parse_field(expr, 3))
    assert (mem.harmonic, mem.two_set_harmonic, mem.inframonogenic) == classes
    assert (mem.hyperholomorphic_left, mem.hyperholomorphic_right) == hyp


def test_zero_field_is_in_every_class():
    mem = classify(PHI, PSI, PolyField.zero(3))
    assert all(
        (mem.harmonic, mem.two_set_harmonic, mem.inframonogenic,
         mem.hyperholomorphic_left, mem.hyperholomorphic_right)
    )
    assert str(mem.region) == "H∩Hpp∩I"


def test_degree_one_fields_satisfy_second_order_operators():
    mem = classify(PHI, PSI, parse_field("x1*e[1]", 3))
    assert mem.harmonic and mem.two_set_harmonic and mem.inframonogenic
    assert not mem.hyperholomorphic_left


def test_region_labels():
    assert str(region(PHI, PSI, parse_field("x1*x3*e[1] + x2*e[2]", 3))) == "H∩I"
    assert str(region(PHI, PSI, parse_field("(x1*x2 + x2*x3)*e[2]", 3))) == "H∩Hpp"
    assert str(region(PHI, PSI, parse_field("x1^2*e[1]", 3))) == "none"
    assert len(RegionLabel.all_regions()) == 8
    assert RegionLabel.from_classes(["H", "I"]).classes == frozenset({"H", "I"})
    with pytest.raises(ValueError):
        RegionLabel.from_classes(["X"])
    # A lone string is one class name, not a sequence of letters.
    assert RegionLabel.from_classes("Hpp") == RegionLabel(False, True, False)
    with pytest.raises(ValueError, match=re.escape("unknown class names ['HI']")):
        RegionLabel.from_classes("HI")


def test_left_hyperholomorphic_implies_harmonic_and_left_left_kernel():
    # draw actual one-sided kernel members from the solver
    for d in (1, 2, 3):
        opmat = operator_matrix(FieldOperator.dirac_left(PSI), CoefficientSpace(3, d))
        for f in kernel_fields(opmat)[:6]:
            assert dirac_left(PSI, f).is_zero()
            assert laplacian(f).is_zero()
            assert dirac_left(PHI, dirac_left(PSI, f)).is_zero()


def test_members_are_biharmonic():
    rng = random.Random(1)
    for names in ((HARMONIC,), (TWO_SET_HARMONIC,), (INFRAMONOGENIC,)):
        for d in (2, 3):
            for f in islice(class_nullspace(PHI, PSI, d, names), 5):
                assert laplacian(laplacian(f)).is_zero()


def test_classes_are_rational_subspaces():
    rng = random.Random(2)
    for names, op in (
        ((HARMONIC,), laplacian),
        ((INFRAMONOGENIC,), lambda g: sandwich(PHI, g, PSI)),
        ((TWO_SET_HARMONIC,), lambda g: dirac_left(PHI, dirac_left(PSI, g))),
    ):
        basis = class_nullspace(PHI, PSI, 3, names)
        f, g = basis[0], basis[1]
        combo = f * Fraction(3, 7) + g * Fraction(-2, 5)
        assert op(combo).is_zero()


def test_even_odd_split_membership_on_reference_and_random():
    for expr, _, _ in REFERENCE:
        assert check_even_odd_split_membership(PHI, PSI, parse_field(expr, 3)).holds
    rng = random.Random(3)
    for m in (2, 3):
        for _ in range(10):
            phi, psi = rand_structural_pair(rng, m)
            f = rand_polyfield(rng, m, max_degree=3)
            assert check_even_odd_split_membership(phi, psi, f).holds
    # scalar-valued fields have zero odd part, the equivalence is trivial
    assert check_even_odd_split_membership(PHI, PSI, parse_field("x1^2 - x2^2", 3)).holds


def test_split_members_inherit_membership():
    for f in islice(class_nullspace(PHI, PSI, 2, (INFRAMONOGENIC,)), 8):
        assert sandwich(PHI, f.even_part(), PSI).is_zero()
        assert sandwich(PHI, f.odd_part(), PSI).is_zero()


def test_grade_components_same_set_versus_two_sets():
    # same set: every grade component of a two-sided kernel member stays in the kernel
    rng = random.Random(4)
    phi = rand_rational_structural_set(rng, 3)
    for f in islice(class_nullspace(phi, phi, 2, (INFRAMONOGENIC,)), 8):
        for k in range(4):
            assert sandwich(phi, f.grade_project(k), phi).is_zero()
    # two different sets: the solver finds a kernel member with a component outside
    found = None
    for f in class_nullspace(PHI, PSI, 2, (INFRAMONOGENIC,)):
        if any(not sandwich(PHI, f.grade_project(k), PSI).is_zero() for k in range(4)):
            found = f
            break
    assert found is not None


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        classify(PHI, PSI, PolyField.zero(2))


# The operators composed from the reference derivative and `Multivector` products,
# so the reference does not share the integer kernel behind the public operators.

def _ref_dirac_left(sset, f):
    return sum_terms(f.m, ((a, v * mv) for j, v in enumerate(sset.vectors, 1) for a, mv in partial(f, j).terms()))


def _ref_dirac_right(f, sset):
    return sum_terms(f.m, ((a, mv * v) for j, v in enumerate(sset.vectors, 1) for a, mv in partial(f, j).terms()))


def _ref_laplacian(f):
    return sum_terms(f.m, (pair for i in range(1, f.m + 1) for pair in partial(partial(f, i), i).terms()))


def _ref_sandwich(phi, f, psi):
    return _ref_dirac_right(_ref_dirac_left(phi, f), psi)


def _five_operator_membership(phi, psi, f):
    """Reference: each class test applies its own operators to f, D_psi f twice."""
    return ClassMembership(
        harmonic=_ref_laplacian(f).is_zero(),
        two_set_harmonic=_ref_dirac_left(phi, _ref_dirac_left(psi, f)).is_zero(),
        inframonogenic=_ref_sandwich(phi, f, psi).is_zero(),
        hyperholomorphic_left=_ref_dirac_left(psi, f).is_zero(),
        hyperholomorphic_right=_ref_dirac_right(f, psi).is_zero(),
    )


def _same_field(got, want):
    """Equal, with the terms and every coefficient's blades in the same order."""
    return got == want and [(a, list(mv.terms())) for a, mv in got.terms()] == [(a, list(mv.terms())) for a, mv in want.terms()]


def _rand_set(rng, m):
    kinds = ["standard", "reversed", "signedperm", "rational"] + (["rot2", "refl2"] if m == 2 else [])
    kind = rng.choice(kinds)
    if kind == "standard":
        return StructuralSet.standard(m)
    if kind == "reversed":
        return StructuralSet.reversed_standard(m)
    if kind == "signedperm":
        return rand_signed_permutation(rng, m)
    if kind == "rational":
        return rand_rational_structural_set(rng, m)
    c, s = rotation_pair(rng.choice(HALF_ANGLE_POOL))
    return StructuralSet.rotation_2d(c, s) if kind == "rot2" else StructuralSet.reflection_2d(c, s)


def test_classify_matches_five_operator_formula():
    rng = random.Random(909)
    seen = {flag: set() for flag in ClassMembership.__dataclass_fields__}
    for m in range(1, 7):
        pairs = [(_rand_set(rng, m), _rand_set(rng, m)) for _ in range(3)]
        if m == 2:
            pairs.append((StructuralSet.rotation_2d(*rotation_pair(Fraction(1, 2))),
                          StructuralSet.reflection_2d(*rotation_pair(Fraction(2, 3)))))
        for phi, psi in pairs:
            # the zero field, a constant and a degree-1 field: below the order of every second-order operator
            fields = [PolyField.zero(m), PolyField.constant(rand_multivector(rng, m, nonzero=True)),
                      PolyField.monomial(m, rand_multi_index(rng, m, 1), rand_multivector(rng, m, max_terms=3))]
            for _ in range(6):
                f = PolyField.zero(m)
                for _ in range(rng.randint(1, 5)):
                    alpha = rand_multi_index(rng, m, rng.choice((1, 1, 2, 3)))
                    f = f + PolyField.monomial(m, alpha, rand_multivector(rng, m, max_terms=2))
                fields.append(f)
            if m <= 3:
                # kernel members, where the classes part ways
                for names in ((HARMONIC,), (TWO_SET_HARMONIC,), (INFRAMONOGENIC,)):
                    fields.extend(islice(class_nullspace(phi, psi, 2, names), 2))
                for op in (FieldOperator.dirac_left(psi), FieldOperator.dirac_right(psi)):
                    fields.extend(kernel_fields(operator_matrix(op, CoefficientSpace(m, rng.choice((1, 2)))))[:2])
            for f in fields:
                got = classify(phi, psi, f)
                assert got == _five_operator_membership(phi, psi, f), (m, phi, psi, f)
                for flag in seen:
                    seen[flag].add(getattr(got, flag))
                # the public operators give the reference's fields, term for term
                assert _same_field(dirac_left(psi, f), _ref_dirac_left(psi, f))
                assert _same_field(dirac_right(f, phi), _ref_dirac_right(f, phi))
                assert _same_field(laplacian(f), _ref_laplacian(f))
                assert _same_field(sandwich(phi, f, psi), _ref_sandwich(phi, f, psi))
    assert all(values == {False, True} for values in seen.values()), seen
