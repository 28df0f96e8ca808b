"""Core algebra: blade products against a brute-force oracle, grading, involutions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffkit.algebra import (
    DimensionMismatch,
    Multivector,
    blade_indices,
    blade_order,
    blade_product,
    blade_sort_key,
    indices_to_mask,
)
from cliffkit.fields import PolyField
from cliffkit.sampling import rand_multivector


def slow_blade_mul(a_indices, b_indices):
    """Sort the concatenated index sequence by adjacent swaps, cancelling
    equal neighbours with a -1 factor each (e_i * e_i = -1)."""
    seq = list(a_indices) + list(b_indices)
    sign = 1
    i = 0
    while i < len(seq) - 1:
        if seq[i] == seq[i + 1]:
            del seq[i:i + 2]
            sign = -sign
            i = max(i - 1, 0)
        elif seq[i] > seq[i + 1]:
            seq[i], seq[i + 1] = seq[i + 1], seq[i]
            sign = -sign
            i = max(i - 1, 0)
        else:
            i += 1
    return sign, tuple(seq)


def test_blade_product_matches_brute_force_exhaustively():
    for m in range(1, 6):
        for a in range(1 << m):
            for b in range(1 << m):
                sign, mask = blade_product(a, b)
                slow_sign, slow_indices = slow_blade_mul(blade_indices(a), blade_indices(b))
                assert (sign, blade_indices(mask)) == (slow_sign, slow_indices), (m, a, b)


@pytest.mark.parametrize("masks", [(1, -1), (-1, 1), (-3, -2)])
def test_blade_product_refuses_a_negative_mask(masks):
    # A negative int never runs out of bits, so the sign loop would not end.
    with pytest.raises(ValueError, match=f"blade mask {min(masks)} is negative"):
        blade_product(*masks)


def test_blade_indices_refuses_a_negative_mask():
    with pytest.raises(ValueError, match="blade mask -1 is negative"):
        blade_indices(-1)


def test_generator_squares_to_minus_one():
    e1 = Multivector.basis_vector(3, 1)
    assert e1 * e1 == Multivector.scalar(3, -1)


def test_generators_anticommute_exhaustively():
    for m in range(2, 7):
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                ei = Multivector.basis_vector(m, i)
                ej = Multivector.basis_vector(m, j)
                expected = Multivector.scalar(m, -2) if i == j else Multivector.zero(m)
                assert ei * ej + ej * ei == expected


def test_bivector_product_frozen_value():
    # Value computed with slow_blade_mul: (e1 e2)(e2 e3) = -e1 e3.
    assert slow_blade_mul((1, 2), (2, 3)) == (-1, (1, 3))
    lhs = Multivector.blade(3, [1, 2]) * Multivector.blade(3, [2, 3])
    assert lhs == Multivector.blade(3, [1, 3], -1)


# -- random value strategies -------------------------------------------------

def multivectors(m):
    coefs = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    term = st.tuples(st.integers(min_value=0, max_value=(1 << m) - 1), coefs)
    return st.lists(term, max_size=4).map(lambda terms: Multivector(m, terms))


@settings(deadline=None, max_examples=60)
@given(st.data(), st.integers(min_value=2, max_value=6))
def test_product_is_associative(data, m):
    a = data.draw(multivectors(m))
    b = data.draw(multivectors(m))
    c = data.draw(multivectors(m))
    assert (a * b) * c == a * (b * c)


@settings(deadline=None, max_examples=60)
@given(st.data(), st.integers(min_value=2, max_value=5))
def test_product_distributes(data, m):
    a = data.draw(multivectors(m))
    b = data.draw(multivectors(m))
    c = data.draw(multivectors(m))
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings(deadline=None, max_examples=60)
@given(st.data(), st.integers(min_value=2, max_value=5))
def test_grade_projection_is_complete_and_idempotent(data, m):
    a = data.draw(multivectors(m))
    total = Multivector.zero(m)
    for k in range(m + 1):
        part = a.grade_project(k)
        assert part.grade_project(k) == part
        assert part.grades() <= {k}
        total = total + part
    assert total == a


def test_grade_projection_rejects_out_of_range():
    # A field's projection checks the grade first, so the zero field, with no coefficient, refuses it too.
    for a in (Multivector.scalar(3, 1), PolyField.variable(3, 1) * Multivector.basis_vector(3, 2), PolyField.zero(3)):
        with pytest.raises(ValueError, match="grade 4 out of range 0..3"):
            a.grade_project(4)
        with pytest.raises(ValueError, match="grade -1 out of range 0..3"):
            a.grade_project(-1)


def test_grade_projection_examples():
    a = Multivector.scalar(3, 1) + Multivector.basis_vector(3, 1) + Multivector.blade(3, [1, 2])
    assert a.grade_project(1) == Multivector.basis_vector(3, 1)
    assert Multivector.blade(3, [1, 2, 3]).grade_project(3) == Multivector.blade(3, [1, 2, 3])


def test_even_odd_split_examples():
    a = Multivector.scalar(2, 1) + Multivector.basis_vector(2, 1)
    assert a.even_part() == Multivector.scalar(2, 1)
    assert Multivector.blade(2, [1, 2]).odd_part() == Multivector.zero(2)


@settings(deadline=None, max_examples=60)
@given(st.data(), st.integers(min_value=2, max_value=5))
def test_even_part_products_stay_even(data, m):
    a = data.draw(multivectors(m))
    b = data.draw(multivectors(m))
    product = a.even_part() * b.even_part()
    assert all(k % 2 == 0 for k in product.grades())


@settings(deadline=None, max_examples=60)
@given(st.data(), st.integers(min_value=2, max_value=5))
def test_split_is_unique_decomposition(data, m):
    a = data.draw(multivectors(m))
    assert a.even_part() + a.odd_part() == a
    assert a.even_part().odd_part().is_zero()


def test_blade_grade_bounds_on_products():
    # Product of grade-j and grade-k blades only hits grades |j-k| .. j+k in steps of 2.
    for m in range(2, 6):
        for a in range(1 << m):
            for b in range(1 << m):
                j, k = a.bit_count(), b.bit_count()
                _, mask = blade_product(a, b)
                g = mask.bit_count()
                assert abs(j - k) <= g <= j + k
                assert (g - abs(j - k)) % 2 == 0


def test_conjugate_examples():
    e1 = Multivector.basis_vector(3, 1)
    assert e1.conjugate() == -e1
    e12 = Multivector.blade(3, [1, 2])
    assert e12.conjugate() == -e12
    assert Multivector.scalar(3, 1).conjugate() == Multivector.scalar(3, 1)


def test_reverse_examples():
    e1 = Multivector.basis_vector(3, 1)
    assert e1.reverse() == e1
    e12 = Multivector.blade(3, [1, 2])
    assert e12.reverse() == -e12


@settings(deadline=None, max_examples=60)
@given(st.data(), st.integers(min_value=2, max_value=5))
def test_involutions_are_anti_automorphisms(data, m):
    a = data.draw(multivectors(m))
    b = data.draw(multivectors(m))
    assert (a * b).conjugate() == b.conjugate() * a.conjugate()
    assert (a * b).reverse() == b.reverse() * a.reverse()
    assert a.reverse().reverse() == a
    assert a.conjugate().conjugate() == a
    assert a.reverse().conjugate() == a.conjugate().reverse()


def test_zero_terms_are_dropped():
    a = Multivector(2, [(0, Fraction(1)), (0, Fraction(-1)), (1, Fraction(0))])
    assert a.is_zero()
    assert len(a) == 0


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        Multivector.scalar(2, 1) * Multivector.scalar(3, 1)
    with pytest.raises(DimensionMismatch):
        Multivector.scalar(2, 1) + Multivector.scalar(3, 1)


def test_blade_order_is_graded():
    order = blade_order(3)
    assert order[0] == 0
    grades = [mask.bit_count() for mask in order]
    assert grades == sorted(grades)
    assert len(order) == 8


def test_blade_order_is_sorted_once_and_shared_read_only():
    order = blade_order(4)
    assert blade_order(4) == order == tuple(sorted(range(16), key=blade_sort_key))
    with pytest.raises(TypeError):
        order[0] = order[1]  # no caller can change the shared order
    assert blade_order(4) == tuple(sorted(range(16), key=blade_sort_key))


def test_indices_to_mask_validation():
    assert indices_to_mask([1, 3], 3) == 0b101
    with pytest.raises(ValueError):
        indices_to_mask([3, 1], 3)
    with pytest.raises(ValueError):
        indices_to_mask([1, 1], 3)
    with pytest.raises(ValueError):
        indices_to_mask([4], 3)


# -- trusted results against the validating constructor ------------------------

# Copies of the operations as they were before the trusted constructor: each
# result goes through `Multivector.__init__`, which validates and re-sorts.

def validating_add(a, b):
    acc = dict(a.terms())
    for mask, c in b.terms():
        acc[mask] = acc.get(mask, Fraction(0)) + c
    return Multivector(a.m, acc)


def validating_mul(a, b):
    acc = {}
    for ma, ca in a.terms():
        for mb, cb in b.terms():
            sign, mr = blade_product(ma, mb)
            c = acc.get(mr, Fraction(0)) + (ca * cb if sign > 0 else -ca * cb)
            if c:
                acc[mr] = c
            else:
                acc.pop(mr, None)
    return Multivector(a.m, acc)


def validating_scale(a, q):
    return Multivector(a.m, {mask: c * Fraction(q) for mask, c in a.terms()})


def assert_same_terms(got, want):
    assert got.m == want.m
    assert list(got.terms()) == list(want.terms())
    keys = [mask for mask, _ in got.terms()]
    assert keys == sorted(keys, key=blade_sort_key)
    assert all(c and isinstance(c, Fraction) for _, c in got.terms())


def test_trusted_operations_match_the_validating_constructor():
    rng = random.Random(2024)
    for m in range(1, 7):
        for _ in range(40):
            a = rand_multivector(rng, m, max_terms=6)
            b = rand_multivector(rng, m, max_terms=6)
            q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            assert_same_terms(a + b, validating_add(a, b))
            assert_same_terms(a - b, validating_add(a, validating_scale(b, -1)))
            assert_same_terms(a + -a, Multivector(m))
            assert_same_terms(a * b, validating_mul(a, b))
            assert_same_terms(a * a.reverse(), validating_mul(a, a.reverse()))
            assert_same_terms(a * q, validating_scale(a, q))
            assert_same_terms(a * Fraction(0), Multivector(m))
            assert_same_terms(-a, validating_scale(a, -1))
            for k in range(m + 1):
                assert_same_terms(a.grade_project(k), Multivector(m, {x: c for x, c in a.terms() if x.bit_count() == k}))
            assert_same_terms(a.even_part() + a.odd_part(), a)
            assert_same_terms(a.reverse().reverse(), a)
            assert_same_terms(a.conjugate().conjugate(), a)


def test_products_whose_terms_cancel():
    e = [Multivector.basis_vector(3, i) for i in (1, 2, 3)]
    pseudo = e[0] * e[1] * e[2]
    one = Multivector.scalar(3, 1)
    # The pseudoscalar of R_{0,3} squares to +1, so 1 +- e123 are zero divisors.
    assert_same_terms((one + pseudo) * (one - pseudo), Multivector(3))
    # Anticommuting cross terms cancel: (e1 + e2)^2 = -2.
    assert_same_terms((e[0] + e[1]) * (e[0] + e[1]), Multivector.scalar(3, -2))


def test_division_by_zero_raises_zero_division_error():
    a = Multivector.scalar(2, 1)
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            a / zero
    assert a / 2 == Multivector.scalar(2, Fraction(1, 2))
