"""Psi operator family: defining sums, closed forms, matrices, identity checks."""

import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from cliffkit.algebra import Multivector, _as_integers, blade_order
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
from kernel_reference import dense_mat_vec


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
    levels3 = [PsiOperator.level(phi3, phi3, j) for j in range(4)]
    images3 = [level.apply(a) for level in levels3]
    assert check_index_reflection(images3, 1).holds
    assert apply_psi_k(phi3, phi3, 1, a) == -apply_psi_k(phi3, phi3, 2, a)
    for j in (-1, 4, -4):
        with pytest.raises(ValueError, match=re.escape("out of range 0..3")):
            check_index_reflection(images3, j)
    for k in (-1, 4):  # odd m reads no grade, but refuses one out of range
        with pytest.raises(ValueError, match=re.escape(f"grade {k} out of range 0..3")):
            check_index_reflection(images3, 1, k)

    phi4 = rand_rational_structural_set(rng, 4)
    b = rand_multivector(rng, 4)
    levels4 = [PsiOperator.level(phi4, phi4, j) for j in range(5)]
    part = b.grade_project(2)
    assert check_index_reflection([level.apply(part) for level in levels4], 1, 2).holds
    assert apply_psi_k(phi4, phi4, 1, part) == apply_psi_k(phi4, phi4, 3, part)
    images4 = [level.apply(b.grade_project(3)) for level in levels4]
    assert check_index_reflection(images4, 1, 3).holds
    with pytest.raises(ValueError):
        check_index_reflection(images4, 1)  # even m needs a grade
    for k in (-1, 5):
        with pytest.raises(ValueError, match=re.escape("out of range 0..4")):
            check_index_reflection(images4, 1, k)

    zero = Multivector.zero(3)
    assert check_index_reflection([level.apply(zero) for level in levels3], 0).holds


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


def test_same_set_level_one_singular_in_two_dimensions():
    s = StructuralSet.standard(2)
    op = PsiOperator.level(s, s, 1)
    mat = psi_matrix(op)
    assert scalar_action(2, 1, 1) == 0
    assert mat.rank() < 4
    # kernel contains the grade-1 blades
    assert apply_psi_k(s, s, 1, Multivector.basis_vector(2, 1)).is_zero()


def _blade_image_int_rows(op):
    """The integer rows of `op` built from the images of the blades: Psi applied to each basis blade,
    its coordinates read back as column j, and each row turned into integers over its own lcm."""
    order = blade_order(op.phi.m)
    columns = [op.apply(Multivector._of(op.phi.m, {mask: 1})).coefficients(order) for mask in order]
    rows = [_as_integers({j: col[r] for j, col in enumerate(columns) if col[r]}) for r in range(len(order))]
    return [(tuple(num.items()), scale) for num, scale in rows]


def _psi_matrix_cases():
    rng = random.Random(12)
    for m in range(1, 7):
        rational = rand_rational_structural_set(rng, m)
        pairs = [
            (StructuralSet.standard(m), StructuralSet.reversed_standard(m)),
            (rand_signed_permutation(rng, m), rand_signed_permutation(rng, m)),
            (rational, rand_rational_structural_set(rng, m)),
            (rational, rational),
        ]
        subset = sorted(rng.sample(range(1, m + 1), rng.randint(1, m)))
        for phi, psi in pairs:
            yield from (PsiOperator.level(phi, psi, k) for k in range(m + 1))
            yield PsiOperator.plus(phi, psi)
            yield PsiOperator.minus(phi, psi)
            yield PsiOperator.subset_level1(phi, psi, subset)


def test_psi_matrix_equals_the_blade_image_construction():
    seen = 0
    for op in _psi_matrix_cases():
        assert psi_matrix(op)._int_rows == _blade_image_int_rows(op), (op.phi.m, op.index_sets)
        seen += 1
    assert seen == sum(4 * (m + 4) for m in range(1, 7))


def _apply_matrix_cases():
    """Levels 0..m, plus, minus and one subset on a random rational pair and on (standard, reversed), m = 1..6."""
    rng = random.Random(8)
    for m in range(1, 7):
        subset = sorted(rng.sample(range(1, m + 1), rng.randint(1, m)))
        for phi, psi in (rand_structural_pair(rng, m), (StructuralSet.standard(m), StructuralSet.reversed_standard(m))):
            yield from (PsiOperator.level(phi, psi, k) for k in range(m + 1))
            yield PsiOperator.plus(phi, psi)
            yield PsiOperator.minus(phi, psi)
            yield PsiOperator.subset_level1(phi, psi, subset)


def test_prepared_pairs_are_the_family_sum_of_blade_pairs():
    # Brute reference: coefficient(phi_A, ma) * coefficient(rev psi_A, mb), summed over the family in Fractions.
    seen = 0
    for op in _psi_matrix_cases():
        brute = {}
        for A in op.index_sets:
            right = list(op.psi.product(A).reverse().terms())
            for ma, ca in op.phi.product(A).terms():
                for mb, cb in right:
                    brute[ma, mb] = brute.get((ma, mb), 0) + ca * cb
        pairs, scale = op._pairs
        table = {(ma, mb): Fraction(c, scale) for ma, mb, c in pairs}
        assert len(table) == len(pairs) and all(c for _, _, c in pairs), (op.phi.m, op.index_sets)
        assert table == {key: c for key, c in brute.items() if c}, (op.phi.m, op.index_sets)
        seen += 1
    assert seen == sum(4 * (m + 4) for m in range(1, 7))


def test_a_flipped_pair_makes_apply_disagree_with_the_brute_sum():
    # Negative control for the table test: e_ma (.) e_mb is invertible, so flipping one pair's sign moves every image.
    rng = random.Random(34)
    for op in _rational_families(rng):
        a = rand_multivector(rng, op.phi.m, nonzero=True)
        assert op.apply(a) == _brute_family(op, a)
        (ma, mb, c), *rest = op._pairs[0]
        vars(op)["_pairs"] = ([(ma, mb, -c), *rest], op._pairs[1])
        assert op.apply(a) != _brute_family(op, a), (op.phi.m, op.index_sets)


def test_matrix_agrees_with_operator_on_random_values():
    # `psi_matrix` and `apply` both read the operator's one `_pairs` table; only their sign loops differ
    # (`_blade_images` per basis blade, `_image` per operand).  The table itself is guarded against the
    # brute Fraction sum by `test_prepared_pairs_are_the_family_sum_of_blade_pairs`.
    rng = random.Random(9)
    seen = 0
    for op in _apply_matrix_cases():
        m = op.phi.m
        mat = psi_matrix(op)
        columns = list(zip(*mat.rows))
        for col, mask in enumerate(blade_order(m)):
            image = op.apply(Multivector._of(m, {mask: 1}))
            assert image.coefficients() == list(columns[col]), (m, op.index_sets, mask)
        for _ in range(3):
            a = rand_multivector(rng, m)
            assert op.apply(a).coefficients() == dense_mat_vec(mat, a.coefficients()), (m, op.index_sets)
        # a field whose coefficients have denominators 3, 4, 7 and 12
        f = PolyField(m, {
            (0,) * m: Multivector(m, {0: Fraction(3, 4), (1 << m) - 1: Fraction(-5, 3)}),
            (1,) + (0,) * (m - 1): Multivector(m, {1: Fraction(2, 7)}),
            (0,) * (m - 1) + (2,): Multivector(m, {mask: Fraction(mask + 1, 12) for mask in range(1 << m)}),
        })
        want = {alpha: Multivector(m, dict(zip(blade_order(m), dense_mat_vec(mat, mv.coefficients())))) for alpha, mv in f.terms()}
        assert op.apply(f) == PolyField(m, want), (m, op.index_sets)
        seen += 1
    assert seen == sum(2 * (m + 4) for m in range(1, 7))


# -- index-set families -------------------------------------------------------------


def _all_subsets(m):
    return [tuple(i + 1 for i in range(m) if mask >> i & 1) for mask in range(1 << m)]


def test_constructors_build_the_expected_index_set_families():
    for m in range(1, 7):
        s = StructuralSet.standard(m)
        subsets = _all_subsets(m)
        assert PsiOperator.level(s, s, 0).index_sets == ((),)
        for k in range(m + 1):
            family = PsiOperator.level(s, s, k).index_sets
            assert len(family) == len(set(family))
            assert set(family) == {A for A in subsets if len(A) == k}
        plus = PsiOperator.plus(s, s).index_sets
        minus = PsiOperator.minus(s, s).index_sets
        assert all(len(A) % 2 == 0 for A in plus) and all(len(A) % 2 == 1 for A in minus)
        assert len(plus) + len(minus) == 2 ** m
        assert set(plus) | set(minus) == set(subsets)
        assert PsiOperator.subset_level1(s, s, [m, 1, m]).index_sets == tuple((j,) for j in sorted({1, m}))
        assert PsiOperator.subset_level1(s, s, range(1, m + 1)).index_sets == tuple((j,) for j in range(1, m + 1))


def _brute_levels(phi, psi, levels, a):
    return sum((brute_psi_k(phi, psi, k, a) for k in levels), Multivector.zero(phi.m))


def _brute_subset1(phi, psi, subset, a):
    total = Multivector.zero(phi.m)
    for j in sorted(set(subset)):
        total = total + phi[j] * a * psi[j]
    return total


def test_apply_matches_brute_sums_on_multivectors_and_fields():
    rng = random.Random(30)
    for m in range(1, 6):
        phi, psi = rand_structural_pair(rng, m)
        subset = rng.sample(range(1, m + 1), rng.randint(1, m))
        cases = [
            (PsiOperator.plus(phi, psi), lambda a: _brute_levels(phi, psi, range(0, m + 1, 2), a)),
            (PsiOperator.minus(phi, psi), lambda a: _brute_levels(phi, psi, range(1, m + 1, 2), a)),
            (PsiOperator.subset_level1(phi, psi, subset), lambda a: _brute_subset1(phi, psi, subset, a)),
        ]
        a = rand_multivector(rng, m)
        f = rand_polyfield(rng, m, max_degree=2)
        for op, brute in cases:
            assert op.apply(a) == brute(a), (m, op.index_sets)
            assert op.apply(f) == PolyField(m, {alpha: brute(mv) for alpha, mv in f.terms()}), (m, op.index_sets)


def test_constructors_reject_bad_families_before_any_apply():
    for m in (1, 3):
        s = StructuralSet.standard(m)
        with pytest.raises(ValueError, match=f"level {m + 1} out of range 0..{m}"):
            PsiOperator.level(s, s, m + 1)
        with pytest.raises(ValueError, match="subset must be non-empty"):
            PsiOperator.subset_level1(s, s, [])
        for bad in ([0], [m + 1]):
            with pytest.raises(ValueError, match="not contained in"):
                PsiOperator.subset_level1(s, s, bad)
    with pytest.raises(ValueError, match="structural sets must share a dimension"):
        PsiOperator.plus(StructuralSet.standard(2), StructuralSet.standard(3))
    s = StructuralSet.standard(3)
    with pytest.raises(ValueError, match="an index set repeats an index"):
        PsiOperator(s, s, ((1, 2), (3, 1, 3)))
    for bad in ((1, 5), (0,), (-1,), (2, 1.0), ("1",)):
        with pytest.raises(ValueError, match=re.escape(f"index set {bad} is not a set of integers in 1..3")):
            PsiOperator(s, s, ((1,), bad))


def _rational_families(rng):
    """Levels 0..m, plus, minus and one subset on a random rational pair, m = 1..6."""
    for m in range(1, 7):
        phi, psi = rand_structural_pair(rng, m)
        subset = rng.sample(range(1, m + 1), rng.randint(1, m))
        yield from (PsiOperator.level(phi, psi, k) for k in range(m + 1))
        yield from (PsiOperator.plus(phi, psi), PsiOperator.minus(phi, psi), PsiOperator.subset_level1(phi, psi, subset))


def _brute_family(op, a):
    """The sum over A of op's family of phi_A * a * psi_{i_k} * ... * psi_{i_1}, by plain products."""
    total = Multivector.zero(a.m)
    for A in op.index_sets:
        left = right = Multivector.scalar(a.m, 1)
        for j in A:
            left, right = left * op.phi[j], op.psi[j] * right
        total = total + left * a * right
    return total


def test_psi_application_and_matrices_take_no_reverse(monkeypatch):
    # rev(psi_A) is psi_A times its grade sign, so neither path reverses a multivector.
    def fail(self):
        raise AssertionError("Multivector.reverse called")

    rng = random.Random(31)
    ops = list(_rational_families(rng))
    operands = [(rand_multivector(rng, op.phi.m), rand_polyfield(rng, op.phi.m, max_degree=2)) for op in ops]
    monkeypatch.setattr(Multivector, "reverse", fail)
    for op, (a, f) in zip(ops, operands):
        image = op.apply(a)
        assert image == _brute_family(op, a), (op.phi.m, op.index_sets)
        assert op.apply(f) == PolyField(f.m, {alpha: _brute_family(op, mv) for alpha, mv in f.terms()})
        assert dense_mat_vec(psi_matrix(op), a.coefficients()) == image.coefficients(), (op.phi.m, op.index_sets)


def test_a_prepared_operator_gives_a_fresh_operators_images():
    rng = random.Random(32)
    for m in range(1, 7):
        phi, psi = rand_structural_pair(rng, m)
        twins = StructuralSet.from_matrix(phi.coordinates()), StructuralSet.from_matrix(psi.coordinates())
        assert twins == (phi, psi) and twins[0] is not phi and twins[1] is not psi
        for op in (PsiOperator.level(phi, psi, rng.randint(0, m)), PsiOperator.plus(phi, psi), PsiOperator.minus(phi, psi)):
            twin = PsiOperator(*twins, op.index_sets)
            for _ in range(50):
                for x in (rand_multivector(rng, m), rand_polyfield(rng, m, max_degree=2)):
                    image = op.apply(x)
                    assert image == PsiOperator(phi, psi, op.index_sets).apply(x), (m, op.index_sets, x)
                    assert image == twin.apply(x), (m, op.index_sets, x)


def test_operand_of_another_dimension_raises():
    s = StructuralSet.standard(3)
    for op in (PsiOperator.level(s, s, 0), PsiOperator.plus(s, s), PsiOperator.subset_level1(s, s, [2])):
        with pytest.raises(ValueError, match=r"dimension mismatch: sets 3/3, operand 2"):
            op.apply(Multivector.scalar(2, 1))
        with pytest.raises(ValueError, match=r"dimension mismatch: sets 3/3, operand 4"):
            op.apply(PolyField.variable(4, 1))


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
    psi1 = PsiOperator.level(StructuralSet.standard(3), StructuralSet.reversed_standard(3), 1)
    members = [
        parse_field("x1*x3*e[1] + x2*e[2]", 3),
        parse_field("2*x1*x3*e[1] - x2*e[2] - (x1^2 - x3^2)*e[3]", 3),
        parse_field("2*x2*x3*e[1] - (x1^2 + x2^2)*e[2]", 3),
    ]
    for f in members:
        assert check_inframonogenic_psi1_equivalence(psi1, f).holds
        assert check_second_order_criterion(psi1, f).holds
    for _ in range(10):
        g = rand_polyfield(rng, 3, max_degree=3)
        assert check_inframonogenic_psi1_equivalence(psi1, g).holds
        assert check_second_order_criterion(psi1, g).holds
    s2 = StructuralSet.standard(2)
    for check in (check_inframonogenic_psi1_equivalence, check_second_order_criterion):
        with pytest.raises(ValueError, match="odd dimension only"):
            check(PsiOperator.level(s2, s2, 1), PolyField.zero(2))


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
