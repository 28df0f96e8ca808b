"""Psi operator family: defining sums, closed forms, matrices, identity checks."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from cliffkit.algebra import Multivector, blade_order
from cliffkit.fields import PolyField, dirac_left, dirac_right, laplacian, sandwich
from cliffkit.parser import parse_field
from cliffkit.psi import (
    PsiOperator,
    _two_dimensional_aggregates,
    apply_psi_k,
    apply_psi_minus,
    apply_psi_plus,
    apply_psi_subset1,
    check_dirac_psi1_identities,
    check_index_reflection,
    check_inframonogenic_psi1_equivalence,
    check_parts_sandwich,
    check_plus_minus_closed_form,
    check_plus_minus_conjugation,
    check_recursion,
    check_second_order_criterion,
    hyp2f1_terminating,
    is_bijective,
    psi_matrix,
    scalar_action,
    scalar_action_hypergeometric,
)
from cliffkit.sampling import (
    rand_multivector,
    rand_polyfield,
    rand_rational_structural_set,
    rand_scalar_polyfield,
    rand_signed_permutation,
    rand_structural_pair,
)
from cliffkit.structural import StructuralSet, transition


def brute_psi_k(phi, psi, k, a):
    """Defining sum written out independently of the library implementation."""
    m = phi.m
    if k == 0:
        return a
    total = Multivector.zero(m)
    for A in combinations(range(1, m + 1), k):
        left = Multivector.scalar(m, 1)
        for j in A:
            left = left * phi[j]
        right = Multivector.scalar(m, 1)
        for j in reversed(A):
            right = right * psi[j]
        total = total + left * a * right
    return total


def test_level_zero_is_identity():
    rng = random.Random(0)
    s = StructuralSet.standard(3)
    for _ in range(5):
        a = rand_multivector(rng, 3)
        assert apply_psi_k(s, s, 0, a) == a


def test_level_one_frozen_values():
    s = StructuralSet.standard(3)
    e1 = Multivector.basis_vector(3, 1)
    # brute sum e_j e_1 e_j over j gives e1 back (scalar action 1)
    assert brute_psi_k(s, s, 1, e1) == e1
    assert apply_psi_k(s, s, 1, e1) == e1
    one = Multivector.scalar(3, 1)
    assert apply_psi_k(s, s, 1, one) == Multivector.scalar(3, -3)


def test_level_k_matches_brute_force():
    rng = random.Random(1)
    for m in (2, 3, 4):
        phi, psi = rand_structural_pair(rng, m)
        a = rand_multivector(rng, m)
        for k in range(m + 1):
            assert apply_psi_k(phi, psi, k, a) == brute_psi_k(phi, psi, k, a)


def test_level_k_range_check():
    s = StructuralSet.standard(3)
    with pytest.raises(ValueError):
        apply_psi_k(s, s, 4, Multivector.scalar(3, 1))
    with pytest.raises(ValueError):
        apply_psi_k(s, s, -1, Multivector.scalar(3, 1))


def test_subset_level1_frozen_value():
    s = StructuralSet.standard(3)
    e2 = Multivector.basis_vector(3, 2)
    # e1 e2 e1 = e2: reversal across a distinct generator costs two swaps and one square
    assert s[1] * e2 * s[1] == e2
    assert apply_psi_subset1(s, s, [1], e2) == e2


def test_subset_of_everything_is_level_one():
    rng = random.Random(2)
    for m in (2, 3, 4):
        phi, psi = rand_structural_pair(rng, m)
        a = rand_multivector(rng, m)
        assert apply_psi_subset1(phi, psi, range(1, m + 1), a) == apply_psi_k(phi, psi, 1, a)


def test_subset_validation():
    s = StructuralSet.standard(3)
    a = Multivector.scalar(3, 1)
    with pytest.raises(ValueError):
        apply_psi_subset1(s, s, [], a)
    with pytest.raises(ValueError):
        apply_psi_subset1(s, s, [4], a)


def test_odd_subsets_act_injectively_on_samples():
    rng = random.Random(3)
    for m in (2, 3, 4):
        phi, psi = rand_structural_pair(rng, m)
        for size in range(1, m + 1, 2):
            subset = tuple(sorted(rng.sample(range(1, m + 1), size)))
            a = rand_multivector(rng, m, nonzero=True)
            assert not apply_psi_subset1(phi, psi, subset, a).is_zero()


# -- scalar action -------------------------------------------------------------


def test_scalar_action_frozen_values():
    assert scalar_action(3, 1, 1) == 1
    assert scalar_action(3, 2, 0) == 3
    assert scalar_action(2, 1, 1) == 0
    for m in (2, 3, 4, 5):
        for k in range(m + 1):
            assert scalar_action(m, 0, k) == 1
            # level 1: sign (-1)^(k+1) times (m - 2k)
            want = (m - 2 * k) * (-1 if (k + 1) & 1 else 1)
            assert scalar_action(m, 1, k) == want


def test_scalar_action_matches_operator_exhaustively():
    rng = random.Random(4)
    for m in range(1, 7):
        sets = [StructuralSet.standard(m), rand_signed_permutation(rng, m)]
        for s in sets:
            for mask in blade_order(m):
                blade = Multivector(m, {mask: Fraction(1)})
                k = mask.bit_count()
                for j in range(m + 1):
                    assert apply_psi_k(s, s, j, blade) == blade * scalar_action(m, j, k), (m, j, k)


def test_hypergeometric_form_agrees_everywhere():
    for m in range(1, 9):
        for j in range(m + 1):
            for k in range(m + 1):
                assert scalar_action_hypergeometric(m, j, k) == scalar_action(m, j, k), (m, j, k)


def test_hypergeometric_frozen_example():
    # terminating series: 2F1(-1,-1;2;-1) = 1 - 1/2
    assert hyp2f1_terminating(-1, -1, 2, Fraction(-1)) == Fraction(1, 2)
    assert scalar_action_hypergeometric(3, 1, 1) == 1
    # the branch with j + k > m
    assert scalar_action_hypergeometric(2, 2, 2) == scalar_action(2, 2, 2)


def test_hypergeometric_requires_terminating_parameters():
    with pytest.raises(ValueError):
        hyp2f1_terminating(1, 2, 3, Fraction(-1))


# -- aggregates -----------------------------------------------------------------


def test_plus_minus_frozen_values():
    s = StructuralSet.standard(3)
    one = Multivector.scalar(3, 1)
    assert apply_psi_k(s, s, 2, one) == Multivector.scalar(3, 3)
    assert apply_psi_plus(s, s, one) == Multivector.scalar(3, 4)
    assert apply_psi_minus(s, s, one) == Multivector.scalar(3, -4)


def test_plus_minus_closed_forms_random():
    rng = random.Random(5)
    for m in range(2, 7):
        for _ in range(20):
            phi = rand_rational_structural_set(rng, m)
            a = rand_multivector(rng, m)
            assert check_plus_minus_closed_form(phi, a).holds
            assert check_plus_minus_conjugation(phi, a).holds


def test_index_reflection_cases():
    rng = random.Random(6)
    phi3 = rand_rational_structural_set(rng, 3)
    a = rand_multivector(rng, 3)
    assert check_index_reflection(phi3, a, 1).holds
    assert apply_psi_k(phi3, phi3, 1, a) == -apply_psi_k(phi3, phi3, 2, a)

    phi4 = rand_rational_structural_set(rng, 4)
    b = rand_multivector(rng, 4)
    assert check_index_reflection(phi4, b, 1, 2).holds
    part = b.grade_project(2)
    assert apply_psi_k(phi4, phi4, 1, part) == apply_psi_k(phi4, phi4, 3, part)
    assert check_index_reflection(phi4, b, 1, 3).holds
    with pytest.raises(ValueError):
        check_index_reflection(phi4, b, 1)  # even m needs a grade

    zero = Multivector.zero(3)
    assert check_index_reflection(phi3, zero, 0).holds


# -- matrices --------------------------------------------------------------------


def test_level_zero_matrix_is_identity():
    s = StructuralSet.standard(3)
    mat = psi_matrix(PsiOperator.level(s, s, 0))
    assert mat.rows == [[Fraction(1 if i == j else 0) for j in range(8)] for i in range(8)]


def test_level_one_matrix_full_rank_for_odd_m():
    rng = random.Random(7)
    phi, psi = rand_structural_pair(rng, 3)
    op = PsiOperator.level(phi, psi, 1)
    assert psi_matrix(op).rank() == 8
    assert is_bijective(op)


def test_same_set_level_one_singular_in_two_dimensions():
    s = StructuralSet.standard(2)
    op = PsiOperator.level(s, s, 1)
    mat = psi_matrix(op)
    assert scalar_action(2, 1, 1) == 0
    assert mat.rank() < 4
    assert not is_bijective(op)
    # kernel contains the grade-1 blades
    assert apply_psi_k(s, s, 1, Multivector.basis_vector(2, 1)).is_zero()


def test_matrix_agrees_with_operator_on_random_values():
    rng = random.Random(8)
    phi, psi = rand_structural_pair(rng, 3)
    op = PsiOperator.plus(phi, psi)
    mat = psi_matrix(op)
    for _ in range(5):
        a = rand_multivector(rng, 3)
        image = op.apply(a)
        assert mat.mat_vec(a.coefficients()) == image.coefficients()


# -- identities -------------------------------------------------------------------


def test_recursion_frozen_instance():
    s = StructuralSet.standard(3)
    one = Multivector.scalar(3, 1)
    lhs = apply_psi_k(s, s, 0, one) * 3 + apply_psi_k(s, s, 2, one) * 2
    rhs = apply_psi_k(s, s, 1, apply_psi_k(s, s, 1, one))
    assert lhs == Multivector.scalar(3, 9) == rhs
    assert check_recursion(s, s, 1, one).holds


def test_recursion_random_and_zero():
    rng = random.Random(9)
    for m in (2, 3, 4, 5):
        for _ in range(10):
            phi, psi = rand_structural_pair(rng, m)
            a = rand_multivector(rng, m)
            for k in range(1, m):
                assert check_recursion(phi, psi, k, a).holds
    s = StructuralSet.standard(3)
    assert check_recursion(s, s, 1, Multivector.zero(3)).holds
    with pytest.raises(ValueError):
        check_recursion(s, s, 3, Multivector.zero(3))


def test_recursion_reports_both_sides_on_failure():
    # feed a deliberately broken comparison through the verdict machinery
    s = StructuralSet.standard(2)
    v = check_recursion(s, s, 1, Multivector.scalar(2, 1))
    assert v.holds and v.lhs is None and v.rhs is None


def test_dirac_psi1_identities_on_fields():
    rng = random.Random(10)
    for m in (2, 3):
        for _ in range(8):
            phi, psi = rand_structural_pair(rng, m)
            f = rand_polyfield(rng, m, max_degree=3)
            for which in ("gradient", "sandwich", "composition"):
                assert check_dirac_psi1_identities(phi, psi, f, which).holds
    constant = PolyField.constant(Multivector.blade(3, [1, 2], Fraction(5, 2)))
    phi, psi = StructuralSet.standard(3), StructuralSet.reversed_standard(3)
    for which in ("gradient", "sandwich", "composition"):
        assert check_dirac_psi1_identities(phi, psi, constant, which).holds
    with pytest.raises(ValueError):
        check_dirac_psi1_identities(phi, psi, constant, "nope")


def test_gradient_identity_on_annihilated_field():
    # For the one-sided kernel member both sides of the left exchange rule vanish.
    phi = StructuralSet.standard(3)
    psi = StructuralSet.reversed_standard(3)
    f = parse_field("(x2^2 - x1^2)*e[2] - 2*x1*x2*e[3] - x1*e[1,2] + x3*e[2,3]", 3)
    lhs = dirac_left(phi, apply_psi_k(phi, psi, 1, f))
    rhs = dirac_right(f, psi) * (-2) - apply_psi_k(phi, psi, 1, dirac_left(phi, f))
    assert lhs == rhs
    assert check_dirac_psi1_identities(phi, psi, f, "gradient").holds


def test_parts_sandwich_identities():
    rng = random.Random(11)
    for m in (2, 3):
        for _ in range(8):
            phi, psi = rand_structural_pair(rng, m)
            f = rand_polyfield(rng, m, max_degree=3)
            assert check_parts_sandwich(phi, psi, f).holds
    # harmonic input: both sides vanish
    phi, psi = StructuralSet.standard(3), StructuralSet.reversed_standard(3)
    harmonic = parse_field("x1*x3*e[1] + x2*e[2]", 3)
    assert sandwich(phi, apply_psi_plus(phi, psi, harmonic), psi).is_zero()
    assert sandwich(phi, apply_psi_minus(phi, psi, harmonic), psi).is_zero()
    # frozen right-hand sides for a non-harmonic field
    f = parse_field("x1^2*e[1]", 3)
    lap = laplacian(f)
    assert lap == parse_field("2*e[1]", 3)
    assert sandwich(phi, apply_psi_plus(phi, psi, f), psi) == apply_psi_minus(phi, psi, lap)
    assert sandwich(phi, apply_psi_minus(phi, psi, f), psi) == apply_psi_plus(phi, psi, lap)
    constant = PolyField.scalar_constant(3, 4)
    assert check_parts_sandwich(phi, psi, constant).holds


def test_psi_acts_pointwise_on_fields():
    rng = random.Random(12)
    phi, psi = rand_structural_pair(rng, 3)
    f = rand_polyfield(rng, 3, max_degree=3)
    image = apply_psi_k(phi, psi, 1, f)
    for alpha, mv in f.terms():
        assert image.coefficient(alpha) == apply_psi_k(phi, psi, 1, mv)


def test_equivalences_odd_dimension():
    rng = random.Random(13)
    phi, psi = StructuralSet.standard(3), StructuralSet.reversed_standard(3)
    members = [
        parse_field("x1*x3*e[1] + x2*e[2]", 3),
        parse_field("2*x1*x3*e[1] - x2*e[2] - (x1^2 - x3^2)*e[3]", 3),
        parse_field("2*x2*x3*e[1] - (x1^2 + x2^2)*e[2]", 3),
    ]
    for f in members:
        assert check_inframonogenic_psi1_equivalence(phi, psi, f).holds
        assert check_second_order_criterion(phi, psi, f).holds
    for _ in range(10):
        g = rand_polyfield(rng, 3, max_degree=3)
        assert check_inframonogenic_psi1_equivalence(phi, psi, g).holds
        assert check_second_order_criterion(phi, psi, g).holds
    with pytest.raises(ValueError):
        check_second_order_criterion(StructuralSet.standard(2), StructuralSet.standard(2), PolyField.zero(2))


def test_two_dimensional_aggregate_closed_forms_for_random_pairs():
    rng = random.Random(29)
    forms = set()
    for _ in range(20):
        phi, psi = rand_rational_structural_set(rng, 2), rand_rational_structural_set(rng, 2)
        forms.add(transition(phi, psi).form_2d())
        comps = [rand_scalar_polyfield(rng, 2) for _ in range(4)]
        (plus, want_plus), (minus, want_minus) = _two_dimensional_aggregates(phi, psi, comps)
        assert plus == want_plus
        assert minus == want_minus
    assert forms == {"rotation", "reflection"}
