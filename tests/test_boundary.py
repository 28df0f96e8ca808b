"""Validation at the boundary: builders keep their messages, trusted builds equal validated ones.

Input is checked where it enters the package (the validating constructors,
the named builders, `parse_field`); everything built from valid parts goes
through the trusted `_of` constructors.  These tests pin the boundary
messages, compare every trusted build with its validated counterpart, and
count validating constructions on the CLI query paths, which must be zero.
"""

import itertools
import json
import random
from fractions import Fraction

import pytest

from cliffkit import cli
from cliffkit.algebra import Multivector
from cliffkit.fields import PolyField, dirac_left, dirac_right, laplacian
from cliffkit.parser import parse_field, parse_multivector
from cliffkit.sampling import rand_polyfield, rand_rational_structural_set, rand_signed_permutation
from cliffkit.structural import StructuralSet, StructuralSetError, _gram_violation
from kernel_reference import partial


def _dimension_error(m):
    return f"algebra dimension must be an integer in 1..12, got {m}"


# -- boundary messages ----------------------------------------------------------


@pytest.mark.parametrize("m", [0, 13])
def test_builders_reject_bad_dimension(m):
    calls = [
        lambda: Multivector.zero(m),
        lambda: Multivector.scalar(m, 3),
        lambda: Multivector.blade(m, []),
        lambda: PolyField.zero(m),
        lambda: PolyField.scalar_constant(m, 2),
        lambda: StructuralSet.standard(m),
        lambda: StructuralSet.reversed_standard(m),
        lambda: StructuralSet.signed_permutation(m, [1, -2]),
        lambda: StructuralSet.from_matrix([[Fraction(int(i == j)) for j in range(m)] for i in range(m)]),
    ]
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert type(exc.value) is ValueError
        assert str(exc.value) == _dimension_error(m)


@pytest.mark.parametrize("text", ["e[]", "2", "x1", "e[1]", "x1^2*e[1] - 3/5", "(", ""])
@pytest.mark.parametrize("m", [0, 13])
def test_parse_field_checks_the_dimension_on_entry(text, m):
    for parse in (parse_field, parse_multivector):
        with pytest.raises(ValueError) as exc:
            parse(text, m)
        assert type(exc.value) is ValueError
        assert str(exc.value) == _dimension_error(m)


def test_index_checks_come_before_the_dimension_check():
    cases = [
        (lambda: Multivector.basis_vector(0, 1), "generator index 1 out of range 1..0"),
        (lambda: Multivector.basis_vector(13, 0), "generator index 0 out of range 1..13"),
        (lambda: Multivector.basis_vector(3, 4), "generator index 4 out of range 1..3"),
        (lambda: Multivector.basis_vector(13, 1), _dimension_error(13)),
        (lambda: PolyField.variable(0, 1), "variable index 1 out of range 1..0"),
        (lambda: PolyField.variable(3, 4), "variable index 4 out of range 1..3"),
        (lambda: PolyField.variable(13, 1), _dimension_error(13)),
        (lambda: Multivector.blade(0, [1, 2]), "blade index 1 out of range 1..0"),
        (lambda: Multivector.blade(13, [2, 1]), "blade indices must be strictly increasing, got index 1 after 2"),
        (lambda: Multivector.blade(13, [1, 2]), _dimension_error(13)),
        (lambda: Multivector.scalar(0, "q"), "Invalid literal for Fraction: 'q'"),
        (lambda: PolyField.scalar_constant(13, "q"), "Invalid literal for Fraction: 'q'"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError) as exc:
            call()
        assert type(exc.value) is ValueError
        assert str(exc.value) == message


def test_set_builder_argument_errors():
    for signed in ([1, 2], [0, 1, 2], [1, -1, 3], [1, 2, 3, 4]):
        with pytest.raises(StructuralSetError) as exc:
            StructuralSet.signed_permutation(3, signed)
        assert str(exc.value) == f"{signed!r} is not a signed permutation of 1..3"
    with pytest.raises(StructuralSetError, match="^matrix must be square$"):
        StructuralSet.from_matrix([[1, 0]])
    with pytest.raises(StructuralSetError, match=r"^matrix is not orthogonal: row dot \(2,2\) = 4$"):
        StructuralSet.from_matrix([[1, 0], [0, 2]])


def test_named_builders_drop_zero_coefficients():
    assert Multivector.scalar(3, 0).is_zero() and Multivector.blade(3, [1], 0).is_zero()
    assert PolyField.scalar_constant(3, 0).is_zero() and PolyField.constant(Multivector.zero(3)).is_zero()
    assert PolyField.constant(Multivector.blade(2, [1, 2], 3)) == PolyField(2, {(0, 0): Multivector(2, {3: 3})})


# -- trusted results equal validated ones -------------------------------------------


def _assert_same_set(s):
    rebuilt = StructuralSet(list(s.vectors))
    assert s == rebuilt
    assert s.m == rebuilt.m and s.coordinates() == rebuilt.coordinates() and repr(s) == repr(rebuilt)
    assert [list(v.terms()) for v in s.vectors] == [list(v.terms()) for v in rebuilt.vectors]
    assert _gram_violation(s.vectors) is None


def _signed_permutations(m):
    for perm in itertools.permutations(range(1, m + 1)):
        for signs in itertools.product((1, -1), repeat=m):
            yield [p * s for p, s in zip(perm, signs)]


@pytest.mark.parametrize("m", range(1, 7))
def test_trusted_sets_equal_validated_sets(m):
    rng = random.Random(7000 + m)
    sets = [StructuralSet.standard(m), StructuralSet.reversed_standard(m)]
    drawn = [rand_rational_structural_set(rng, m) for _ in range(3)]
    sets += drawn + [StructuralSet.from_matrix(s.coordinates()) for s in drawn]
    sets += [rand_signed_permutation(rng, m) for _ in range(5)]
    if m <= 3:
        sets += [StructuralSet.signed_permutation(m, signed) for signed in _signed_permutations(m)]
    for s in sets:
        _assert_same_set(s)


def test_builders_give_the_expected_vectors():
    assert StructuralSet.standard(3).vectors == tuple(Multivector.basis_vector(3, i) for i in (1, 2, 3))
    assert StructuralSet.reversed_standard(3).vectors == tuple(Multivector.basis_vector(3, i) for i in (3, 2, 1))
    e = [Multivector.basis_vector(3, i) for i in (1, 2, 3)]
    assert StructuralSet.signed_permutation(3, [3, -1, 2]).vectors == (e[2], -e[0], e[1])
    # The indices are read once, so a one-shot iterator gives the same set.
    assert StructuralSet.signed_permutation(3, iter([3, -1, 2])) == StructuralSet.signed_permutation(3, (3, -1, 2))


# Test-local copies of the running-sum loops these operators used before the
# one collector: every step adds the next term to the sum so far, on `Multivector`
# coefficients and the reference derivative `kernel_reference.partial`.


def _running_add(f, g):
    acc = dict(f.terms())
    for a, mv in g.terms():
        if a in acc:
            mv = acc[a] + mv
            if not mv:
                del acc[a]
                continue
        acc[a] = mv
    return PolyField(f.m, acc)


def _running_sum(m, fields):
    out = PolyField.zero(m)
    for g in fields:
        out = _running_add(out, g)
    return out


def _running_dirac_left(sset, f):
    return _running_sum(f.m, (sset[j] * partial(f, j) for j in range(1, f.m + 1)))


def _running_dirac_right(f, sset):
    return _running_sum(f.m, (partial(f, j) * sset[j] for j in range(1, f.m + 1)))


def _running_laplacian(f):
    return _running_sum(f.m, (partial(partial(f, i), i) for i in range(1, f.m + 1)))


def _running_product(f, g):
    acc = {}
    for a, mva in f.terms():
        for b, mvb in g.terms():
            c = tuple(x + y for x, y in zip(a, b))
            prod = mva * mvb
            acc[c] = acc[c] + prod if c in acc else prod
    return PolyField(f.m, {c: mv for c, mv in acc.items() if mv})


def _assert_same_field(got, want):
    assert got == want
    assert [(a, list(mv.terms())) for a, mv in got.terms()] == [(a, list(mv.terms())) for a, mv in want.terms()]


def _cancelling_fields(m):
    """Fields whose Laplacian, Dirac images or products cancel to zero, fully or in part."""
    x = [parse_field(f"x{i}", m) for i in range(1, m + 1)]
    fields = [x[0] * x[0] - x[-1] * x[-1], x[0] * 0, (x[0] + x[-1]) * (x[0] - x[-1])]
    if m >= 2:
        fields.append(parse_field("x1 - x2*e[1,2]", m))
    if m >= 3:
        fields.append(parse_field("(x2^2 - x1^2)*e[2] - 2*x1*x2*e[3] - x1*e[1,2] + x3*e[2,3]", m))
    return fields


@pytest.mark.parametrize("m", range(1, 6))
def test_field_sums_equal_running_sums(m):
    rng = random.Random(9100 + m)
    sets = [StructuralSet.standard(m), StructuralSet.reversed_standard(m),
            rand_signed_permutation(rng, m), rand_rational_structural_set(rng, m)]
    fields = _cancelling_fields(m) + [rand_polyfield(rng, m) for _ in range(6)]
    if m >= 2:
        # x1^2 - xm^2 and x1 - x2 e12 are kernel members: their images are sums that cancel.
        assert laplacian(fields[0]).is_zero() and not fields[0].is_zero()
        assert dirac_left(sets[0], fields[3]).is_zero()
    for f in fields:
        _assert_same_field(laplacian(f), _running_laplacian(f))
        for s in sets:
            _assert_same_field(dirac_left(s, f), _running_dirac_left(s, f))
            _assert_same_field(dirac_right(f, s), _running_dirac_right(f, s))
        for g in fields:
            _assert_same_field(f * g, _running_product(f, g))
            _assert_same_field(f + g, _running_add(f, g))


def test_field_product_cancels_to_zero():
    f, g = parse_field("x1 + x1*e[1,2,3]", 3), parse_field("x2 - x2*e[1,2,3]", 3)
    assert (f * g).is_zero() and _running_product(f, g).is_zero()
    assert dirac_left(StructuralSet.standard(2), parse_field("x1 - x2*e[1,2]", 2)).is_zero()


# -- guard: no validating construction on the query paths ------------------------------


def test_query_paths_build_no_validated_values(tmp_path, monkeypatch, capsys):
    """classify, solve --region and demo build every value from valid parts, so no validating constructor runs."""
    matrix = tmp_path / "rot.json"
    matrix.write_text(json.dumps([["3/5", "-4/5"], ["4/5", "3/5"]]))
    expr = "(x1 - 2*x2)^2*e[1,2] + 3/5*x1*e[] - e[2] + 4"
    argvs = [
        ["classify", "--m", "2", "--expr", expr, "--phi", "standard", "--psi", "reversed"],
        ["classify", "--m", "2", "--expr", expr, "--phi", "signedperm:2,-1", "--psi", "rot2:1/2"],
        ["classify", "--m", "2", "--expr", expr, "--phi", f"matrix:{matrix}", "--psi", "refl2:1/3", "--format", "json"],
        ["classify", "--m", "3", "--expr", "x1*x3*e[1] + x2*e[2] - 2*e[]", "--phi", "reversed", "--psi", "signedperm:3,-1,2"],
        ["solve", "--m", "3", "--degree", "2", "--phi", "standard", "--psi", "reversed", "--region", "H,I"],
        ["demo"],
    ]
    counts = {}
    for cls in (Multivector, PolyField, StructuralSet):
        original = cls.__init__

        def counting(self, *args, _original=original, _name=cls.__name__, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    for argv in argvs:
        assert cli.main(argv) == 0, argv
        assert counts == {}, (argv, counts)
    capsys.readouterr()
    # The wrappers do count: a validating construction shows up.
    Multivector(2, {1: 1})
    StructuralSet([Multivector.basis_vector(1, 1)])
    assert counts == {"Multivector": 1, "StructuralSet": 1}
