"""Integer numerators over one denominator: the representation against a Fraction reference.

Every operation is compared with a test-local implementation on
{mask: Fraction} dicts, and every result is checked for the invariant:
den > 0, gcd(den, *numerators) == 1, no zero numerators, zero has
den == 1, and the blades in canonical order.  A field keeps the same
invariant on its terms {(alpha, mask): numerator}.  A guard test counts
Fraction constructions on the hot paths.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from cliffkit.algebra import Multivector, _odd_masks, blade_product, blade_sort_key
from cliffkit.psi import PsiOperator, psi_matrix
from cliffkit.fields import PolyField, _index_key, dirac_left, dirac_right, laplacian, sandwich
from cliffkit.parser import format_field, parse_field
from cliffkit.sampling import rand_multivector, rand_polyfield, rand_rational_structural_set, rand_structural_pair
from cliffkit.solver import CoefficientSpace, FieldOperator, operator_matrix
from cliffkit.structural import StructuralSet


# -- the Fraction reference ------------------------------------------------------


def ref(a):
    return dict(a.terms())


def ref_add(x, y):
    out = dict(x)
    for mask, c in y.items():
        out[mask] = out.get(mask, Fraction(0)) + c
    return {mask: c for mask, c in out.items() if c}


def ref_scale(x, q):
    return {mask: c * q for mask, c in x.items() if c * q}


def ref_mul(x, y):
    out = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            sign, mr = blade_product(ma, mb)
            out[mr] = out.get(mr, Fraction(0)) + sign * ca * cb
    return {mask: c for mask, c in out.items() if c}


def ref_select(x, keep):
    return {mask: c for mask, c in x.items() if keep(mask.bit_count())}


def ref_signed(x, negative):
    return {mask: -c if negative(mask.bit_count()) else c for mask, c in x.items()}


def ref_reverse(x):
    return ref_signed(x, lambda k: (k * (k - 1) // 2) & 1)


def ref_conjugate(x):
    return ref_signed(x, lambda k: (k * (k + 1) // 2) & 1)


def ref_product(vectors):
    out = {0: Fraction(1)}
    for v in vectors:
        out = ref_mul(out, v)
    return out


def assert_lowest(a):
    """The representation invariant."""
    num, den = a._num, a._den
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in num.values())
    assert gcd(den, *num.values()) == 1
    if not num:
        assert den == 1
    keys = list(num)
    assert keys == sorted(keys, key=blade_sort_key)


def assert_matches(got, want):
    assert_lowest(got)
    assert ref(got) == want
    assert got == Multivector(got.m, want)


# -- operands ----------------------------------------------------------------------


def operands(rng, m):
    """Set vectors and their products (denominators 5, 13, 25, 65, ...), random multivectors and scalings."""
    phi, psi = rand_rational_structural_set(rng, m), rand_rational_structural_set(rng, m)
    out = list(phi.vectors) + list(psi.vectors)
    for k in range(2, m + 1):
        A = tuple(sorted(rng.sample(range(1, m + 1), k)))
        out += [phi.product(A), psi.product(A[::-1])]
    out += [rand_multivector(rng, m, max_terms=6) * Fraction(1, 65) for _ in range(3)]
    out += [rand_multivector(rng, m, max_terms=4) for _ in range(3)]
    return phi, psi, out


DENOMINATORS = (5, 13, 25, 65)


def test_operands_cover_the_denominators():
    seen = set()
    rng = random.Random(11)
    for m in range(1, 7):
        for a in operands(rng, m)[2]:
            seen.update(c.denominator for _, c in a.terms())
    assert set(DENOMINATORS) <= seen


@pytest.mark.parametrize("m", range(1, 7))
def test_arithmetic_matches_the_fraction_reference(m):
    rng = random.Random(1000 + m)
    for _ in range(4):
        _, _, values = operands(rng, m)
        for a in values:
            assert_matches(a, ref(a))
        for a, b in zip(values, values[1:] + values[:1]):
            x, y = ref(a), ref(b)
            assert_matches(a + b, ref_add(x, y))
            assert_matches(a - b, ref_add(x, ref_scale(y, -1)))
            assert_matches(a * b, ref_mul(x, y))
            assert_matches(-a, ref_scale(x, -1))
            for q in (Fraction(5, 13), Fraction(-65, 4), Fraction(0), 3, -25):
                assert_matches(a * q, ref_scale(x, Fraction(q)))
                assert_matches(q * a, ref_scale(x, Fraction(q)))
            for q in (Fraction(-5, 13), Fraction(25, 2), 7, -65):
                assert_matches(a / q, ref_scale(x, 1 / Fraction(q)))
            for k in range(m + 1):
                assert_matches(a.grade_project(k), ref_select(x, k.__eq__))
            assert_matches(a.even_part(), ref_select(x, lambda g: not g & 1))
            assert_matches(a.odd_part(), ref_select(x, lambda g: g & 1))
            assert_matches(a.reverse(), ref_reverse(x))
            assert_matches(a.conjugate(), ref_conjugate(x))
            assert a.coefficients() == [x.get(mask, Fraction(0)) for mask in sorted(range(1 << m), key=blade_sort_key)]
            assert a.scalar_part() == x.get(0, Fraction(0))


@pytest.mark.parametrize("m", range(1, 7))
def test_sums_and_products_that_cancel_to_zero(m):
    rng = random.Random(2000 + m)
    phi, _, values = operands(rng, m)
    zero = Multivector(m)
    assert_lowest(zero)
    for a in values:
        for z in (a - a, a + -a, a * 0, a.reverse() - a.reverse(), a - a.conjugate().conjugate()):
            assert_matches(z, {})
            assert z == zero
    for v in phi.vectors:
        # a unit vector squares to -1
        assert_matches(v * v + 1, {})
    if m >= 3:
        e = [Multivector.basis_vector(m, i) for i in (1, 2, 3)]
        pseudo = e[0] * e[1] * e[2]
        # The pseudoscalar of e1, e2, e3 squares to +1, so (1 + e123)(1 - e123) = 0.
        third = Multivector.scalar(m, Fraction(1, 3))
        assert_matches((third + third * pseudo) * (third - third * pseudo), {})
    # Partial cancellation: the denominator drops back to what is left.
    half = Multivector(m, {0: Fraction(1, 2), 1: Fraction(1, 65)})
    assert_matches(half - Multivector(m, {1: Fraction(1, 65)}), {0: Fraction(1, 2)})
    assert (half - Multivector(m, {1: Fraction(1, 65)}))._den == 2
    assert_matches(half * 2 - Multivector(m, {1: Fraction(2, 65)}), {0: Fraction(1)})


def test_the_odd_mask_table_gives_the_blade_product_signs():
    for m in range(1, 8):
        odd = _odd_masks(m)
        for a in range(1 << m):
            for b in range(1 << m):
                sign, _ = blade_product(a, b)
                assert (sign < 0) == bool((b & odd[a]).bit_count() & 1), (m, a, b)


# -- Psi ------------------------------------------------------------------------------


def fraction_apply(op, a):
    """The Fraction accumulation loop: sum over A of phi_A a rev(psi_A), all in Fractions."""
    acc = {}
    for A in op.index_sets:
        phi_A = ref_product(ref(op.phi[i]) for i in A)
        rev_psi_A = ref_product(ref(op.psi[i]) for i in reversed(A))
        for mask, c in ref_mul(ref_mul(phi_A, ref(a)), rev_psi_A).items():
            acc[mask] = acc.get(mask, 0) + c
    return {mask: c for mask, c in acc.items() if c}


@pytest.mark.parametrize("m", range(1, 6))
def test_psi_apply_matches_the_fraction_accumulation(m):
    rng = random.Random(3000 + m)
    for _ in range(3):
        phi, psi, values = operands(rng, m)
        subset = sorted(rng.sample(range(1, m + 1), rng.randint(1, m)))
        ops = [PsiOperator.level(phi, psi, k) for k in range(m + 1)]
        ops += [PsiOperator.plus(phi, psi), PsiOperator.minus(phi, psi), PsiOperator.subset_level1(phi, psi, subset)]
        ops += [PsiOperator.plus(phi, phi), PsiOperator.minus(psi, psi)]
        for a in values[-4:]:
            for op in ops:
                assert_matches(op.apply(a), fraction_apply(op, a))


def test_same_set_aggregates_cancel_to_zero():
    # For odd m the same-set aggregates are opposite, so their sum vanishes.
    rng = random.Random(4)
    phi = rand_rational_structural_set(rng, 3)
    a = Multivector(3, {0b011: Fraction(2, 65), 0b101: Fraction(-1, 25)})
    total = PsiOperator.plus(phi, phi).apply(a) + PsiOperator.minus(phi, phi).apply(a)
    assert_matches(total, {})


def test_psi_images_and_drawn_sets_keep_the_trusted_constructor_contract():
    # `Multivector._of` checks nothing, so its callers' results are checked here.
    rng = random.Random(8)
    for seed in range(5):
        draw = random.Random(seed)
        for m in range(1, 7):
            for sset in (rand_rational_structural_set(draw, m), *rand_structural_pair(draw, m)):
                for v in sset.vectors:
                    assert_lowest(v)
                    assert v.grades() == {1}
    for m in range(1, 7):
        phi, psi = rand_rational_structural_set(rng, m), rand_rational_structural_set(rng, m)
        ops = [PsiOperator.level(phi, psi, k) for k in range(m + 1)]
        ops += [PsiOperator.plus(phi, psi), PsiOperator.minus(phi, phi), PsiOperator.subset_level1(phi, psi, [m])]
        values = [Multivector(m), Multivector(m, {mask: Fraction(mask - 2, 65) for mask in range(1 << m)})]
        values += [rand_multivector(rng, m, max_terms=6) * Fraction(1, 13) for _ in range(3)]
        field = PolyField(m, {(k,) * m: a for k, a in enumerate(values[1:])})
        for op in ops:
            for a in values:
                assert_lowest(op.apply(a))
            assert op.apply(Multivector(m)) == Multivector(m)
            for _, image in op.apply(field).terms():
                assert image
                assert_lowest(image)
            assert op.apply(PolyField.zero(m)).is_zero()


# -- the hot paths construct no Fraction ---------------------------------------------------


@pytest.fixture
def fractions_made(monkeypatch):
    """A counter of Fraction constructions, live while the test runs."""
    count = [0]
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    return count


def test_the_counter_sees_fraction_arithmetic(fractions_made):
    Fraction(1, 3) + Fraction(1, 6)
    assert fractions_made[0] >= 3


def test_products_sums_scaling_and_psi_make_no_fraction(fractions_made):
    rng = random.Random(5)
    phi, psi = rand_rational_structural_set(rng, 4), rand_rational_structural_set(rng, 4)
    a = phi.product((1, 2)) + psi[3] * Fraction(5, 13)
    b = psi.product((4, 3, 2)) * Fraction(-7, 25)
    q = Fraction(13, 65 * 3)
    op = PsiOperator.plus(phi, psi)
    fractions_made[0] = 0
    a * b
    a + b
    a - b
    a * q
    b * 3
    op.apply(a)
    assert fractions_made[0] == 0


def test_operator_assembly_makes_no_fraction_per_column(fractions_made):
    rng = random.Random(6)
    phi, psi = rand_rational_structural_set(rng, 4), rand_rational_structural_set(rng, 4)
    spaces = {d: CoefficientSpace(4, d) for d in (2, 4)}
    for op in (FieldOperator.laplacian(), FieldOperator.left_left(phi, psi), FieldOperator.sandwich(phi, psi),
               FieldOperator.dirac_left(StructuralSet.reversed_standard(4))):
        counts = {}
        for d, space in spaces.items():
            fractions_made[0] = 0
            operator_matrix(op, space)
            counts[d] = fractions_made[0]
        assert counts[2] == counts[4], (op.name, counts)


def test_psi_matrix_makes_no_fraction_per_blade(fractions_made):
    rng = random.Random(7)
    counts = {}
    for m in (3, 5):
        op = PsiOperator.plus(rand_rational_structural_set(rng, m), rand_rational_structural_set(rng, m))
        fractions_made[0] = 0
        psi_matrix(op)
        counts[m] = fractions_made[0]
    assert counts[3] == counts[5], counts


# -- the parser ----------------------------------------------------------------------

# Division, powers and nested signs, sums that cancel, and denominators that reduce.
PARSED = [
    "3/5*e[1,2] - -(-x1/4)^3*e[3]", "(x1/2 + x2/3)^2*e[1] - x1^2/4*e[1]", "2/4*x1*e[1,2]*e[2] + 7/21",
    "(e[1] + e[2])^3/6 - -(+(-x3))/-9", "(x1/6 + x1/3)^4/(2/3)", "x1/(e[1]*e[1])", "(x1 + e[1,2])*(x1 - e[1,2])/10",
    # zero
    "0", "x2 - x2", "x1*0/3", "(x1 - x1)^5", "-(-(e[] - 1))",
]
ZERO_TEXTS = PARSED[-5:]


def _no_field_arithmetic(*args):
    raise AssertionError("the parser called PolyField arithmetic")


def test_parsing_makes_no_fraction(fractions_made):
    fractions_made[0] = 0
    for text in PARSED:
        parse_field(text, 3)
    assert fractions_made[0] == 0


def assert_lowest_field(f):
    """The representation invariant one level up: terms (alpha, mask) with alpha of length m, and
    `terms()` gives the monomials in canonical order, each coefficient in lowest terms."""
    num, den = f._num, f._den
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in num.values())
    assert gcd(den, *num.values()) == 1
    if not num:
        assert den == 1
    for alpha, mask in num:
        assert type(alpha) is tuple and len(alpha) == f.m and all(type(e) is int and e >= 0 for e in alpha)
        assert type(mask) is int and 0 <= mask < 1 << f.m
    alphas = [alpha for alpha, _ in f.terms()]
    assert alphas == sorted(alphas, key=_index_key)
    for _, mv in f.terms():
        assert mv
        assert_lowest(mv)


def test_parsed_fields_keep_the_trusted_constructor_contract(monkeypatch):
    rng = random.Random(18)
    texts = PARSED + [format_field(f) for f in (rand_polyfield(rng, 3, max_degree=3) for _ in range(20))]
    with monkeypatch.context() as patch:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__"):
            patch.setattr(PolyField, name, _no_field_arithmetic)
        fields = [parse_field(text, 3) for text in texts]
        zeros = [parse_field(text, 3) for text in ZERO_TEXTS]
    for f in fields:
        assert_lowest_field(f)
    for f in zeros:
        assert f._num == {} and f._den == 1
    # Every other way a field is built: arithmetic, projections, derivatives, operators and kernel vectors.
    phi, psi = rand_structural_pair(rng, 3)
    c = rand_multivector(rng, 3, max_terms=4) * Fraction(1, 65)
    results = []
    for f, g in zip(fields, fields[1:] + fields[:1]):
        results += [f + g, f - g, f * g, -f, f * c, c * f, f + c, c - f, f - 3, Fraction(2, 5) + f]
        results += [f * Fraction(5, 13), Fraction(-65, 4) * f, f * 6, f * 0]
        results += [f.grade_project(k) for k in range(4)] + [f.homogeneous_component(d) for d in range(4)]
        results += [f.even_part(), f.odd_part()] + [f.partial(i) for i in (1, 2, 3)]
        results += [dirac_left(phi, f), dirac_right(f, psi), laplacian(f), sandwich(phi, f, psi)]
        results += [PsiOperator.plus(phi, psi).apply(f), PsiOperator.level(phi, psi, 2).apply(f)]
    space = CoefficientSpace(3, 2)
    results += [space._field({j: 6 * (j - 7) for j in range(0, space.size, 5)}, 12), space._field({}, 9)]
    results += [space._field(y, den) for y, den in operator_matrix(FieldOperator.sandwich(phi, psi), space).matrix.nullspace()]
    for f in results:
        assert_lowest_field(f)
