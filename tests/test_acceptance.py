"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Every criterion prints a single PASS/FAIL line (visible with `pytest -s`)
and enforces its runtime bound.  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, islice

from cliffkit.algebra import Multivector, blade_order
from cliffkit.classify import HARMONIC, INFRAMONOGENIC, RegionLabel, classify
from cliffkit.fields import laplacian
from cliffkit.parser import parse_field
from cliffkit.psi import (
    PsiOperator,
    apply_psi_k,
    apply_psi_minus,
    apply_psi_plus,
    check_dirac_psi1_identities,
    check_index_reflection,
    check_inframonogenic_psi1_equivalence,
    check_parts_sandwich,
    check_plus_minus_closed_form,
    check_plus_minus_conjugation,
    check_recursion,
    check_second_order_criterion,
    psi_matrix,
    scalar_action,
    scalar_action_hypergeometric,
)
from cliffkit.classify import check_even_odd_split_membership
from cliffkit.sampling import (
    rand_multivector,
    rand_polyfield,
    rand_rational_structural_set,
    rand_scalar_polyfield,
    rand_signed_permutation,
)
from cliffkit.solver import (
    CoefficientSpace,
    FieldOperator,
    class_nullspace,
    converse_counterexample,
    monomials_of_degree,
    operator_matrix,
)
from cliffkit.structural import StructuralSet
from kernel_reference import dense_mat_vec, dense_nullspace
from rank_reference import mirrored_rank

PHI3 = StructuralSet.standard(3)
PSI3 = StructuralSet.reversed_standard(3)

REFERENCE_FIELDS = [
    ("(x2^2 - x1^2)*e[2] - 2*x1*x2*e[3] - x1*e[1,2] + x3*e[2,3]", ("H", "Hpp", "I"), True),
    ("2*x1*x3*e[1] - x2*e[2] - (x1^2 - x3^2)*e[3]", ("H", "Hpp", "I"), False),
    ("2*x2*x3*e[1] - (x1^2 + x2^2)*e[2]", ("Hpp", "I"), False),
    ("x1*x3*e[1] + x2*e[2]", ("H", "I"), False),
    ("(x1*x2 + x2*x3)*e[2]", ("H", "Hpp"), False),
]


@contextmanager
def criterion(name: str, bound_seconds: float):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        within = elapsed < bound_seconds
        status = "PASS" if (ok and within) else "FAIL"
        print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s, bound {bound_seconds:.0f}s)")
    assert elapsed < bound_seconds, f"{name} exceeded its runtime bound"


def test_criterion_01_reference_field_regions():
    with criterion("01 reference-field-regions", 1.0):
        for expr, classes, hyper in REFERENCE_FIELDS:
            mem = classify(PHI3, PSI3, parse_field(expr, 3))
            assert mem.region == RegionLabel.from_classes(classes), expr
            assert mem.hyperholomorphic_left == hyper, expr
            assert mem.hyperholomorphic_right == hyper, expr


def test_criterion_02_scalar_action_oracle_equivalence():
    with criterion("02 scalar-action-oracle", 30.0):
        rng = random.Random(202)
        for m in range(1, 7):
            sets = [StructuralSet.standard(m)] + [rand_signed_permutation(rng, m) for _ in range(5)]
            for s in sets:
                for mask in blade_order(m):
                    blade = Multivector(m, {mask: Fraction(1)})
                    k = mask.bit_count()
                    for j in range(m + 1):
                        assert apply_psi_k(s, s, j, blade) == blade * scalar_action(m, j, k), (m, j, k)


def test_criterion_03_hypergeometric_rewrite():
    with criterion("03 hypergeometric-rewrite", 5.0):
        both_branches = {False: 0, True: 0}
        for m in range(1, 9):
            for j in range(m + 1):
                for k in range(m + 1):
                    both_branches[j + k > m] += 1
                    assert scalar_action_hypergeometric(m, j, k) == scalar_action(m, j, k), (m, j, k)
        assert both_branches[False] and both_branches[True]


def test_criterion_04_subset_level1_bijectivity():
    with criterion("04 subset-level1-bijectivity", 60.0):
        rng = random.Random(204)
        pair_budget = {1: 2, 2: 12, 3: 12, 4: 12, 5: 12}  # 50 random rational pairs
        for m, pairs in pair_budget.items():
            size = 1 << m
            odd_sizes = [s for s in range(1, m + 1) if s & 1]
            for _ in range(pairs):
                phi = rand_rational_structural_set(rng, m)
                psi = rand_rational_structural_set(rng, m)
                if m <= 4:
                    subsets = [J for s in odd_sizes for J in combinations(range(1, m + 1), s)]
                else:
                    subsets = [tuple(sorted(rng.sample(range(1, m + 1), rng.choice(odd_sizes)))) for _ in range(4)]
                for J in subsets:
                    mat = psi_matrix(PsiOperator.subset_level1(phi, psi, J))
                    assert mat.rank() == size, (m, J)
        # negative control: same-set level 1 in two dimensions kills grade 1
        assert scalar_action(2, 1, 1) == 0
        s2 = StructuralSet.standard(2)
        assert psi_matrix(PsiOperator.level(s2, s2, 1)).rank() < 4


def test_criterion_05_parity_and_aggregate_closed_forms():
    with criterion("05 parity-and-aggregates", 10.0):
        rng = random.Random(205)
        for m in range(2, 7):
            for trial in range(100):
                # dense rational sets are exercised at the cheap dimensions
                use_rational = trial % 10 == 0 and m <= 4
                phi = rand_rational_structural_set(rng, m) if use_rational else rand_signed_permutation(rng, m)
                a = rand_multivector(rng, m)
                levels = [PsiOperator.level(phi, phi, j) for j in range(m + 1)]
                if m & 1:
                    images = [level.apply(a) for level in levels]
                    for j in range(m + 1):
                        assert check_index_reflection(images, j).holds
                else:
                    j = rng.randint(0, m)
                    k = rng.randint(0, m)
                    part = a.grade_project(k)
                    assert check_index_reflection([level.apply(part) for level in levels], j, k).holds
                assert check_plus_minus_closed_form(phi, a).holds
                assert check_plus_minus_conjugation(phi, a).holds


def test_criterion_06_field_identities():
    with criterion("06 field-identities", 60.0):
        rng = random.Random(206)
        reference = [parse_field(expr, 3) for expr, _, _ in REFERENCE_FIELDS]

        def checks(phi, psi, f):
            assert check_even_odd_split_membership(phi, psi, f).holds
            for which in ("gradient", "sandwich", "composition"):
                assert check_dirac_psi1_identities(phi, psi, f, which).holds
            assert check_parts_sandwich(phi, psi, f).holds
            m = phi.m
            for k in range(1, m):
                assert check_recursion(phi, psi, k, f).holds
            if m & 1:
                psi1 = PsiOperator.level(phi, psi, 1)
                assert check_inframonogenic_psi1_equivalence(psi1, f).holds
                assert check_second_order_criterion(psi1, f).holds

        for m in (2, 3, 5):
            for trial in range(50):
                if m <= 3 or trial % 10 == 0:
                    phi = rand_rational_structural_set(rng, m)
                    psi = rand_rational_structural_set(rng, m)
                else:
                    phi = rand_signed_permutation(rng, m)
                    psi = rand_signed_permutation(rng, m)
                f = rand_polyfield(rng, m, max_degree=4)
                checks(phi, psi, f)
        for f in reference:
            checks(PHI3, PSI3, f)


def test_criterion_07_aggregates_land_in_intersection():
    with criterion("07 aggregates-into-intersection", 120.0):
        for d in (2, 3, 4):
            for names in ((HARMONIC,), (INFRAMONOGENIC,)):
                basis = class_nullspace(PHI3, PSI3, d, names)
                assert len(basis) > 0
                for f in basis:
                    for aggregate in (apply_psi_plus, apply_psi_minus):
                        image = aggregate(PHI3, PSI3, f)
                        mem = classify(PHI3, PSI3, image)
                        assert mem.harmonic and mem.inframonogenic, (d, names)


def test_criterion_08_two_dimensional_transition_forms():
    with criterion("08 two-dimensional-forms", 10.0):
        rng = random.Random(208)
        c1, c2 = Fraction(3, 5), Fraction(4, 5)
        phi = StructuralSet.standard(2)
        for form in ("rotation", "reflection"):
            psi = StructuralSet.rotation_2d(c1, c2) if form == "rotation" else StructuralSet.reflection_2d(c1, c2)
            p1, p2 = psi[1], psi[2]
            for _ in range(100):
                f0, f1, f2, f12 = [rand_scalar_polyfield(rng, 2) for _ in range(4)]
                f = f0 + f1 * p1 + f2 * p2 + f12 * (p1 * p2)
                plus = apply_psi_plus(phi, psi, f)
                minus = apply_psi_minus(phi, psi, f)
                if form == "rotation":
                    assert plus == f0 * 2 + f12 * (p1 * p2) * 2
                    assert minus == (c1 * f0 + c2 * f12) * (-2) + (c1 * f12 - c2 * f0) * (p1 * p2) * 2
                else:
                    assert plus == f1 * p1 * 2 + f2 * p2 * 2
                    assert minus == (c1 * f1 + c2 * f2) * p1 * (-2) + (c1 * f2 - c2 * f1) * p2 * 2
            for names in ((HARMONIC,), (INFRAMONOGENIC,)):
                for d in (2, 3):
                    for f in islice(class_nullspace(phi, psi, d, names), 4):
                        part = f.even_part() if form == "rotation" else f.odd_part()
                        mem = classify(phi, psi, part)
                        assert mem.harmonic and mem.inframonogenic, (form, names, d)


def test_criterion_09_converse_counterexample():
    with criterion("09 converse-counterexample", 5.0):
        for m in (2, 3):
            phi = StructuralSet.standard(m)
            f = converse_counterexample(phi)
            mem_f = classify(phi, phi, f)
            assert not mem_f.harmonic and not mem_f.inframonogenic
            image = apply_psi_plus(phi, phi, f)
            mem_image = classify(phi, phi, image)
            assert mem_image.harmonic and mem_image.inframonogenic
            # the even aggregate reduces to the scalar and top-grade parts, scaled
            ends = f.map_coefficients(lambda mv: mv.grade_project(0) + mv.grade_project(m))
            assert image == ends * (Fraction(2) ** (m - 1))


def test_criterion_10_solver_soundness():
    with criterion("10 solver-soundness", 30.0):
        rng = random.Random(210)
        kinds = ["laplacian", "left-left", "sandwich", "dirac-left", "dirac-right"]
        for _ in range(20):
            phi = rand_rational_structural_set(rng, 3)
            psi = rand_rational_structural_set(rng, 3)
            kind = rng.choice(kinds)
            op = {
                "laplacian": FieldOperator.laplacian,
                "left-left": lambda: FieldOperator.left_left(phi, psi),
                "sandwich": lambda: FieldOperator.sandwich(phi, psi),
                "dirac-left": lambda: FieldOperator.dirac_left(psi),
                "dirac-right": lambda: FieldOperator.dirac_right(psi),
            }[kind]()
            space = CoefficientSpace(3, rng.randint(1, 3))
            opmat = operator_matrix(op, space)
            basis = dense_nullspace(opmat.matrix)
            for v in basis:
                assert not any(dense_mat_vec(opmat.matrix, v))
            assert opmat.matrix.rank() + len(basis) == space.size
            assert mirrored_rank(opmat.matrix) + len(basis) == space.size
        # harmonic scalar polynomials of degree 2 in three variables: dimension 5
        monos = monomials_of_degree(3, 2)
        from cliffkit.fields import PolyField
        from cliffkit.linalg import RationalMatrix

        rows = []
        for target in monomials_of_degree(3, 0):
            rows.append([
                laplacian(PolyField.monomial(3, alpha, Multivector.scalar(3, 1))).coefficient(target).scalar_part()
                for alpha in monos
            ])
        assert len(dense_nullspace(RationalMatrix(rows))) == 5
        full = dense_nullspace(operator_matrix(FieldOperator.laplacian(), CoefficientSpace(3, 2)).matrix)
        assert len(full) == 5 * 8
