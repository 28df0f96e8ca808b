"""Polynomial fields and differential operators, with sympy as the derivative oracle."""

import random
from fractions import Fraction

import pytest
import sympy

from cliffkit.algebra import DimensionMismatch, Multivector
from cliffkit.fields import PolyField, dirac_left, dirac_right, laplacian, sandwich
from cliffkit.parser import parse_field
from cliffkit.sampling import rand_polyfield, rand_rational_structural_set, rand_structural_pair
from cliffkit.structural import StructuralSet


def to_sympy_components(f):
    """Blade mask -> sympy polynomial in x1..xm."""
    xs = sympy.symbols(f"x1:{f.m + 1}")
    comps = {}
    for alpha, mv in f.terms():
        mono = sympy.Integer(1)
        for x, e in zip(xs, alpha):
            mono *= x ** e
        for mask, coef in mv.terms():
            comps[mask] = comps.get(mask, sympy.Integer(0)) + sympy.Rational(coef.numerator, coef.denominator) * mono
    return xs, comps


def assert_equal_via_sympy(f, g):
    xs, fc = to_sympy_components(f)
    _, gc = to_sympy_components(g)
    for mask in set(fc) | set(gc):
        assert sympy.expand(fc.get(mask, 0) - gc.get(mask, 0)) == 0


def test_partial_derivative_examples():
    f = parse_field("x1^2*e[2]", 3)
    assert f.partial(1) == parse_field("2*x1*e[2]", 3)
    assert parse_field("x1*e[1]", 3).partial(2).is_zero()


def test_partial_derivative_matches_sympy():
    rng = random.Random(0)
    for m in (2, 3):
        for _ in range(10):
            f = rand_polyfield(rng, m, max_degree=4)
            for i in range(1, m + 1):
                xs, comps = to_sympy_components(f)
                _, got = to_sympy_components(f.partial(i))
                for mask, poly in comps.items():
                    want = sympy.expand(sympy.diff(poly, xs[i - 1]))
                    assert sympy.expand(got.get(mask, 0) - want) == 0


def test_mixed_partials_commute():
    rng = random.Random(1)
    for _ in range(10):
        f = rand_polyfield(rng, 3, max_degree=4)
        assert f.partial(1).partial(2) == f.partial(2).partial(1)


def test_partial_axis_range():
    f = PolyField.variable(2, 1)
    with pytest.raises(ValueError):
        f.partial(0)
    with pytest.raises(ValueError):
        f.partial(3)


def test_dirac_left_degree_one_example():
    psi = StructuralSet.standard(3)
    f = parse_field("x1*e[1]", 3)
    assert dirac_left(psi, f) == PolyField.scalar_constant(3, -1)
    assert dirac_right(f, psi) == PolyField.scalar_constant(3, -1)


def test_dirac_annihilates_reference_field():
    psi = StructuralSet.reversed_standard(3)
    f = parse_field("(x2^2 - x1^2)*e[2] - 2*x1*x2*e[3] - x1*e[1,2] + x3*e[2,3]", 3)
    assert dirac_left(psi, f).is_zero()
    assert dirac_right(f, psi).is_zero()


def test_dirac_squares_to_minus_laplacian():
    rng = random.Random(2)
    for m in (2, 3, 4):
        for _ in range(10):
            psi = rand_rational_structural_set(rng, m)
            f = rand_polyfield(rng, m, max_degree=4)
            minus_lap = -laplacian(f)
            assert dirac_left(psi, dirac_left(psi, f)) == minus_lap
            assert dirac_right(dirac_right(f, psi), psi) == minus_lap


def test_laplacian_examples():
    assert laplacian(parse_field("x1^2 - x2^2", 3)).is_zero()
    f = parse_field("2*x2*x3*e[1] - (x1^2 + x2^2)*e[2]", 3)
    assert laplacian(f) == PolyField.constant(Multivector.blade(3, [2], -4))
    assert laplacian(parse_field("x1*x3*e[1] + x2*e[2]", 3)).is_zero()


def test_laplacian_matches_sympy():
    rng = random.Random(3)
    xs3 = sympy.symbols("x1:4")
    for _ in range(8):
        f = rand_polyfield(rng, 3, max_degree=4)
        _, comps = to_sympy_components(f)
        _, got = to_sympy_components(laplacian(f))
        for mask, poly in comps.items():
            want = sympy.expand(sum(sympy.diff(poly, x, 2) for x in xs3))
            assert sympy.expand(got.get(mask, 0) - want) == 0


def test_sandwich_kills_degree_one():
    s = StructuralSet.standard(3)
    assert sandwich(s, parse_field("x1*e[1]", 3), s).is_zero()


def test_sandwich_reference_memberships():
    phi = StructuralSet.standard(3)
    psi = StructuralSet.reversed_standard(3)
    assert sandwich(phi, parse_field("x1*x3*e[1] + x2*e[2]", 3), psi).is_zero()
    assert not sandwich(phi, parse_field("(x1*x2 + x2*x3)*e[2]", 3), psi).is_zero()


def test_sandwich_order_agreement():
    rng = random.Random(4)
    for m in (2, 3):
        for _ in range(10):
            phi, psi = rand_structural_pair(rng, m)
            f = rand_polyfield(rng, m, max_degree=3)
            assert dirac_right(dirac_left(phi, f), psi) == dirac_left(phi, dirac_right(f, psi))
            assert sandwich(phi, f, psi) == dirac_left(phi, dirac_right(f, psi))


def test_operators_are_linear():
    rng = random.Random(5)
    phi, psi = rand_structural_pair(rng, 3)
    f = rand_polyfield(rng, 3, max_degree=3)
    g = rand_polyfield(rng, 3, max_degree=3)
    a, b = Fraction(2, 3), Fraction(-5, 2)
    combo = f * a + g * b
    for op in (
        lambda h: dirac_left(psi, h),
        lambda h: dirac_right(h, psi),
        laplacian,
        lambda h: sandwich(phi, h, psi),
    ):
        assert op(combo) == op(f) * a + op(g) * b


def test_parity_split_commutes_with_operators():
    rng = random.Random(6)
    for _ in range(10):
        phi, psi = rand_structural_pair(rng, 3)
        f = rand_polyfield(rng, 3, max_degree=3)
        sw = sandwich(phi, f, psi)
        assert sw.even_part() == sandwich(phi, f.even_part(), psi)
        assert sw.odd_part() == sandwich(phi, f.odd_part(), psi)
        ll = dirac_left(phi, dirac_left(psi, f))
        assert ll.even_part() == dirac_left(phi, dirac_left(psi, f.even_part()))
        assert ll.odd_part() == dirac_left(phi, dirac_left(psi, f.odd_part()))


def test_exact_evaluation():
    f = parse_field("x1^2*e[1] + 3/2*x2", 2)
    value = f.evaluate([Fraction(1, 3), Fraction(2)])
    assert value == Multivector.basis_vector(2, 1) * Fraction(1, 9) + Multivector.scalar(2, 3)


def test_dimension_checks():
    f = PolyField.variable(2, 1)
    s3 = StructuralSet.standard(3)
    with pytest.raises(DimensionMismatch):
        dirac_left(s3, f)
    with pytest.raises(DimensionMismatch):
        dirac_right(f, s3)


def test_homogeneous_components():
    f = parse_field("x1^2*e[1] + x2*e[2] + 5", 2)
    assert f.homogeneous_component(2) == parse_field("x1^2*e[1]", 2)
    assert f.homogeneous_component(1) == parse_field("x2*e[2]", 2)
    assert f.homogeneous_component(0) == parse_field("5", 2)
    assert f.degree() == 2
    assert not f.is_homogeneous(2)
    assert PolyField.zero(2).degree() == -1


def test_json_terms_are_canonical():
    f = parse_field("x2*e[2] + x1^2*e[1,2] + 1/2", 2)
    assert f.to_json_terms() == [
        {"alpha": [0, 0], "blade": [], "coef": "1/2"},
        {"alpha": [0, 1], "blade": [2], "coef": "1"},
        {"alpha": [2, 0], "blade": [1, 2], "coef": "1"},
    ]


def test_power_equals_repeated_product():
    rng = random.Random(17)
    for m in (1, 2, 3):
        for _ in range(4):
            f = rand_polyfield(rng, m, max_degree=2)
            product = PolyField.scalar_constant(m, 1)
            for n in range(7):
                assert f ** n == product
                product = product * f
