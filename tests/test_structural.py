"""Structural set validation, builders, and transition matrices."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm

import pytest

from cliffkit.algebra import Multivector
from cliffkit.sampling import HALF_ANGLE_POOL, rand_rational_structural_set
from cliffkit.structural import StructuralSet, StructuralSetError, TransitionMatrix, _gram_violation, transition
from plane_reference import rotation_pair


def test_standard_basis_is_valid():
    for m in range(1, 6):
        s = StructuralSet.standard(m)
        assert s.m == m
        assert [v.grades() for v in s] == [{1}] * m


def test_reversed_basis_is_valid():
    s = StructuralSet.reversed_standard(3)
    assert s[1] == Multivector.basis_vector(3, 3)
    assert s[3] == Multivector.basis_vector(3, 1)


def test_repeated_vector_reports_first_relation():
    e1 = Multivector.basis_vector(2, 1)
    with pytest.raises(StructuralSetError) as exc:
        StructuralSet([e1, e1])
    assert exc.value.relation == (1, 2)


def test_non_grade_one_entry_rejected():
    e1 = Multivector.basis_vector(2, 1)
    bad = Multivector.blade(2, [1, 2])
    with pytest.raises(StructuralSetError):
        StructuralSet([e1, bad])
    with pytest.raises(StructuralSetError):
        StructuralSet([e1, e1 + Multivector.scalar(2, 1)])


def test_wrong_length_rejected():
    e1 = Multivector.basis_vector(3, 1)
    with pytest.raises(StructuralSetError):
        StructuralSet([e1, e1])


def test_signed_permutations_validate_exhaustively():
    for m in range(1, 5):
        for perm in permutations(range(1, m + 1)):
            for signs in product((1, -1), repeat=m):
                signed = [s * p for s, p in zip(signs, perm)]
                s = StructuralSet.signed_permutation(m, signed)
                assert s.m == m


def test_signed_permutation_rejects_non_permutation():
    with pytest.raises(StructuralSetError):
        StructuralSet.signed_permutation(3, [1, 1, 2])


def test_rational_rotation_families():
    rot = StructuralSet.rotation_2d(Fraction(3, 5), Fraction(4, 5))
    ref = StructuralSet.reflection_2d(Fraction(3, 5), Fraction(4, 5))
    assert rot.m == ref.m == 2
    with pytest.raises(StructuralSetError):
        StructuralSet.rotation_2d(Fraction(1, 2), Fraction(1, 2))


def _same_set(built: StructuralSet, validated: StructuralSet) -> None:
    assert built.vectors == validated.vectors
    assert built._rows == validated._rows
    assert built._den == validated._den


def test_half_angle_builder_equals_validating_construction():
    rng = random.Random(31)
    params = [(t.numerator, t.denominator) for t in HALF_ANGLE_POOL] + [(0, 1), (1, 1), (-1, 1)]
    params += [(rng.randint(-10 ** 6, 10 ** 6), rng.choice((-1, 1)) * rng.randint(1, 10 ** 6)) for _ in range(200)]
    params += [(rng.randint(-9, 9), rng.choice((-1, 1)) * rng.randint(1, 9)) for _ in range(200)]
    for p, q in params:
        c, s = rotation_pair(Fraction(p, q))
        _same_set(StructuralSet._half_angle(p, q), StructuralSet.rotation_2d(c, s))
        _same_set(StructuralSet._half_angle(p, q, reflection=True), StructuralSet.reflection_2d(c, s))


def _validated_signed_permutation(m, signed):
    return StructuralSet([Multivector.basis_vector(m, p) if p > 0 else -Multivector.basis_vector(m, -p) for p in signed])


def test_signed_permutation_builder_equals_validating_construction():
    for m in range(1, 4):
        for perm in permutations(range(1, m + 1)):
            for signs in product((1, -1), repeat=m):
                signed = [s * p for s, p in zip(signs, perm)]
                _same_set(StructuralSet.signed_permutation(m, signed), _validated_signed_permutation(m, signed))
    rng = random.Random(12)
    for m in range(4, 13):
        for _ in range(20):
            signed = [p * rng.choice((1, -1)) for p in rng.sample(range(1, m + 1), m)]
            _same_set(StructuralSet.signed_permutation(m, signed), _validated_signed_permutation(m, signed))


def test_from_matrix_identity_gives_standard():
    assert StructuralSet.from_matrix([[1, 0], [0, 1]]) == StructuralSet.standard(2)


def test_from_matrix_rejects_non_orthogonal():
    with pytest.raises(StructuralSetError):
        StructuralSet.from_matrix([[1, 1], [0, 1]])


def test_transition_of_set_with_itself_is_identity():
    for m in (2, 3, 4):
        s = StructuralSet.standard(m)
        t = transition(s, s)
        assert t.entries == TransitionMatrix([[1 if i == j else 0 for j in range(m)] for i in range(m)]).entries
        assert t.is_orthogonal()


def test_transition_rotation_form():
    phi = StructuralSet.standard(2)
    psi = StructuralSet.from_matrix([[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]])
    t = transition(phi, psi)
    assert t.form_2d() == "rotation"
    assert t.entries[0] == (Fraction(3, 5), Fraction(4, 5))


def test_form_2d_reads_the_sign_of_the_determinant():
    reflection = TransitionMatrix([[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]])
    assert reflection.form_2d() == "reflection"
    with pytest.raises(ValueError, match=r"^matrix is not orthogonal, det = -2$"):
        TransitionMatrix([[1, 2], [3, 4]]).form_2d()
    with pytest.raises(ValueError, match="2x2 matrices only"):
        TransitionMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).form_2d()


def test_transition_of_reversed_set_is_permutation_with_negative_det():
    phi = StructuralSet.standard(3)
    psi = StructuralSet.reversed_standard(3)
    t = transition(phi, psi)
    assert t.entries == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_from_matrix_round_trips_coordinates():
    rng = random.Random(11)
    for m in (2, 3, 4):
        for _ in range(5):
            s = rand_rational_structural_set(rng, m)
            rebuilt = StructuralSet.from_matrix(s.coordinates())
            assert rebuilt == s
            # coordinates equal the transition from the standard set
            assert [list(row) for row in transition(StructuralSet.standard(m), s).entries] == s.coordinates()


def test_rotation_pair_is_exactly_on_unit_circle():
    for t in (Fraction(1, 2), Fraction(2, 3), Fraction(7, 9)):
        c, s = rotation_pair(t)
        assert c * c + s * s == 1


def test_random_rational_sets_validate():
    rng = random.Random(3)
    for m in (2, 3, 5):
        for _ in range(10):
            s = rand_rational_structural_set(rng, m)
            assert StructuralSet(list(s.vectors)) == s


def test_json_matrix_round_trip():
    rng = random.Random(7)
    s = rand_rational_structural_set(rng, 3)
    payload = s.to_json()
    assert all(isinstance(x, str) for row in payload for x in row)
    assert StructuralSet.from_matrix([[Fraction(x) for x in row] for row in payload]) == s


def _anticommutator_violation(vectors):
    """Reference oracle: first pair (i, j), 1-based, i <= j, whose geometric-product
    anticommutator is not -2 delta_ij, with that anticommutator; None if all hold."""
    m = len(vectors)
    for i in range(m):
        for j in range(i, m):
            anti = vectors[i] * vectors[j] + vectors[j] * vectors[i]
            if anti != Multivector.scalar(m, -2 if i == j else 0):
                return i + 1, j + 1, anti
    return None


def _candidate_rows(rng, m):
    """Valid rational sets, the same with one entry perturbed, and random rows."""
    pool = [Fraction(x) for x in ("0", "0", "1", "-1", "1/2", "3/5", "-4/5", "4/5", "12/13", "-5/13")]
    for _ in range(40):
        rows = rand_rational_structural_set(rng, m).coordinates()
        yield [list(row) for row in rows]
        i, j = rng.randrange(m), rng.randrange(m)
        rows[i][j] += Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 5))
        yield rows
        yield [[rng.choice(pool) for _ in range(m)] for _ in range(m)]


def test_gram_validation_agrees_with_anticommutator_oracle():
    rng = random.Random(2024)
    seen = {"accepted": 0, "diagonal": 0, "off-diagonal": 0, "zero-row": 0}
    for m in range(1, 6):
        for rows in _candidate_rows(rng, m):
            vectors = [Multivector(m, {1 << j: x for j, x in enumerate(row) if x}) for row in rows]
            violation = _anticommutator_violation(vectors)
            if violation is None:
                seen["accepted"] += 1
                s = StructuralSet(vectors)
                assert StructuralSet.from_matrix(rows) == s
                assert s.coordinates() == rows
                continue
            i, j, anti = violation
            seen["diagonal" if i == j else "off-diagonal"] += 1
            # The anticommutator of two vectors is the scalar -2 <v_i, v_j>.
            assert anti == Multivector.scalar(m, anti.scalar_part())
            with pytest.raises(StructuralSetError) as exc:
                StructuralSet.from_matrix(rows)
            assert str(exc.value) == f"matrix is not orthogonal: row dot ({i},{j}) = {-anti.scalar_part() / 2}"
            assert exc.value.relation is None
            with pytest.raises(StructuralSetError) as exc:
                StructuralSet(vectors)
            zero_rows = [idx for idx, v in enumerate(vectors, start=1) if v.is_zero()]
            if zero_rows:
                seen["zero-row"] += 1
                assert str(exc.value) == f"vector {zero_rows[0]} is not pure grade 1: {vectors[zero_rows[0] - 1]}"
                assert exc.value.relation is None
            else:
                assert str(exc.value) == f"anticommutation relation ({i},{j}) violated: v{i}*v{j} + v{j}*v{i} = {anti}"
                assert exc.value.relation == (i, j)
    assert min(seen.values()) >= 10, seen


def _fraction_gram_violation(rows):
    """Reference: the Gram test summed in Fractions, first (i, j, dot) with dot != delta_ij."""
    for i, row in enumerate(rows):
        for j in range(i, len(rows)):
            dot = sum(a * b for a, b in zip(row, rows[j]))
            if dot != (1 if i == j else 0):
                return i + 1, j + 1, dot
    return None


def _givens_rows(rng, m):
    """Rational orthogonal rows: rotations from random tangent half-angles, signs, shuffled rows."""
    rows = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for _ in range(rng.randint(0, 2 * m) if m >= 2 else 0):
        i, j = rng.sample(range(m), 2)
        c, s = rotation_pair(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        rows[i], rows[j] = ([c * a - s * b for a, b in zip(rows[i], rows[j])],
                            [s * a + c * b for a, b in zip(rows[i], rows[j])])
    rng.shuffle(rows)
    return [row if rng.random() < 0.5 else [-x for x in row] for row in rows]


def test_integer_gram_test_matches_fraction_reference():
    rng = random.Random(99)
    seen = {"accepted": 0, "diagonal": 0, "off-diagonal": 0}
    for m in range(1, 7):
        for _ in range(60):
            rows = _givens_rows(rng, m)
            perturbed = [list(row) for row in rows]
            i, j = rng.randrange(m), rng.randrange(m)
            perturbed[i][j] += Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 30))
            for candidate in (rows, perturbed):
                want = _fraction_gram_violation(candidate)
                got = _gram_violation([Multivector(m, {1 << j: x for j, x in enumerate(row)}) for row in candidate])
                assert got == want, (candidate, got, want)
                if got is None:
                    seen["accepted"] += 1
                else:
                    assert type(got[2]) is Fraction
                    seen["diagonal" if got[0] == got[1] else "off-diagonal"] += 1
    assert min(seen.values()) >= 50, seen


def _fraction_row_draw(rng, m):
    """Reference: a random rational set composed on Fraction rows, with the sampler's rng calls in its order."""
    rows = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    if m >= 2:
        for _ in range(2):
            i, j = rng.sample(range(m), 2)
            c, s = rotation_pair(rng.choice(HALF_ANGLE_POOL))
            rows[i], rows[j] = ([c * a - s * b for a, b in zip(rows[i], rows[j])],
                                [s * a + c * b for a, b in zip(rows[i], rows[j])])
    rng.shuffle(rows)
    return [row if rng.random() < 0.5 else [-x for x in row] for row in rows]


@pytest.mark.parametrize("m", range(1, 7))
def test_sampler_matches_fraction_row_composition(m):
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        phi, psi = rand_rational_structural_set(rng, m), rand_rational_structural_set(rng, m)
        phi_rows, psi_rows = _fraction_row_draw(ref, m), _fraction_row_draw(ref, m)
        assert rng.getstate() == ref.getstate()
        for s, rows in ((phi, phi_rows), (psi, psi_rows)):
            assert s.coordinates() == rows
            assert s.to_json() == [[str(x) for x in row] for row in rows]
            assert s == StructuralSet(list(s.vectors))
        assert transition(phi, psi).entries == tuple(
            tuple(sum(a * b for a, b in zip(u, v)) for v in phi_rows) for u in psi_rows
        )


def test_invalid_set_messages():
    with pytest.raises(StructuralSetError) as exc:
        StructuralSet.from_matrix([["1", "1"], ["0", "1"]])
    assert str(exc.value) == "matrix is not orthogonal: row dot (1,1) = 2"
    u = Multivector(2, {1: Fraction(3, 5), 2: Fraction(4, 5)})
    v = Multivector(2, {1: Fraction(4, 5), 2: Fraction(3, 5)})
    with pytest.raises(StructuralSetError) as exc:
        StructuralSet([u, v])
    assert str(exc.value) == "anticommutation relation (1,2) violated: v1*v2 + v2*v1 = -48/25"
    assert exc.value.relation == (1, 2)


def test_transition_entries_match_geometric_products():
    rng = random.Random(5)
    for m in range(1, 6):
        for _ in range(6):
            phi, psi = rand_rational_structural_set(rng, m), rand_rational_structural_set(rng, m)
            t = transition(phi, psi)
            assert t.entries == tuple(
                tuple(-(psi[i] * phi[j]).scalar_part() for j in range(1, m + 1)) for i in range(1, m + 1)
            )
            assert t.is_orthogonal()


def test_is_orthogonal_rejects_each_failing_pair():
    assert not TransitionMatrix([[1, 0], [0, 2]]).is_orthogonal()
    assert not TransitionMatrix([[1, 0], [1, 1]]).is_orthogonal()
    assert not TransitionMatrix([[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(3, 5)]]).is_orthogonal()
    assert TransitionMatrix([[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]]).is_orthogonal()


def test_anticommutation_scalar_too_long_to_print_is_given_by_its_digit_counts():
    tiny = Multivector(2, {1: Fraction(1, 10 ** 2200)})
    with pytest.raises(StructuralSetError) as exc:
        StructuralSet([tiny, Multivector.basis_vector(2, 2)])
    assert exc.value.relation == (1, 1)
    # -2 <v1, v1> = -1 / (5 * 10**4399)
    assert str(exc.value) == ("anticommutation relation (1,1) violated: "
                              "v1*v1 + v1*v1 = a 1-digit numerator over a 4400-digit denominator")
    with pytest.raises(StructuralSetError, match=r"\(2,2\) violated: v2\*v2 \+ v2\*v2 = -1/2$"):
        StructuralSet([Multivector.basis_vector(2, 1), Multivector(2, {2: Fraction(1, 2)})])


def _plane_rotation(n):
    """The n x n rotation by (3/5, 4/5) in the plane of the first two coordinates."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rows[0][:2] = [Fraction(3, 5), Fraction(-4, 5)]
    rows[1][:2] = [Fraction(4, 5), Fraction(3, 5)]
    return rows


def test_transition_matrices_are_bounded_like_structural_sets():
    with pytest.raises(ValueError, match=r"1\.\.12, got 13"):
        TransitionMatrix(_plane_rotation(13))
    with pytest.raises(ValueError, match=r"1\.\.12, got 0"):
        TransitionMatrix([])
    assert TransitionMatrix(_plane_rotation(12)).is_orthogonal()
    skewed = _plane_rotation(12)
    skewed[11][10] = Fraction(1, 3)
    assert not TransitionMatrix(skewed).is_orthogonal()


# -- products over index sets ------------------------------------------------

def plain_product(vectors):
    out = Multivector.scalar(vectors[0].m, 1)
    for v in vectors:
        out = out * v
    return out


def test_memoized_set_products_match_plain_products():
    rng = random.Random(606)
    for m in range(1, 6):
        for _ in range(2):
            s = rand_rational_structural_set(rng, m)
            for k in range(1, m + 1):
                for A in combinations(range(1, m + 1), k):
                    vectors = [s[i] for i in A]
                    assert s.product(A) == plain_product(vectors)
                    assert s.product(A[::-1]) == plain_product(vectors[::-1])
                    assert s.product(A[::-1]) == s.product(A).reverse()
            # A second pass reads the memo and still agrees.
            full = tuple(range(1, m + 1))
            assert s.product(full) == plain_product(list(s))


def test_distinct_sets_keep_their_own_products():
    rng = random.Random(607)
    for m in range(2, 6):
        phi, psi = rand_rational_structural_set(rng, m), rand_rational_structural_set(rng, m)
        while phi == psi:
            psi = rand_rational_structural_set(rng, m)
        differing = 0
        for k in range(1, m + 1):
            for A in combinations(range(1, m + 1), k):
                want_phi, want_psi = plain_product([phi[i] for i in A]), plain_product([psi[i] for i in A])
                assert phi.product(A) == want_phi
                assert psi.product(A) == want_psi
                assert psi.product(A[::-1]) == want_psi.reverse()
                assert phi.product(A[::-1]) == want_phi.reverse()
                differing += want_phi != want_psi
        assert differing


def _plain(s, A):
    """v_A of the set s by plain products, 1 for the empty A."""
    return plain_product([s[i] for i in A]) if A else Multivector.scalar(s.m, 1)


def _index_orders(rng, m):
    """Every index set of 1..m in increasing order, in decreasing order and in one shuffled order."""
    for k in range(m + 1):
        for A in combinations(range(1, m + 1), k):
            shuffled = list(A)
            rng.shuffle(shuffled)
            yield from (A, A[::-1], tuple(shuffled))


def test_the_integer_product_memo_holds_plain_products():
    rng = random.Random(609)
    for m in range(1, 7):
        for _ in range(2):
            s = rand_rational_structural_set(rng, m)
            orders = list(_index_orders(rng, m)) + ([(2, 1)] if m >= 2 else [])
            for A in orders:
                num, den = s._product(A), s._den ** len(A)
                assert Multivector(m, {mask: Fraction(c, den) for mask, c in num.items()}) == _plain(s, A), (m, A)
                assert all(num.values()), (m, A)
            assert s._den == lcm(*(v._den for v in s))


def _reverse_sign(k):
    return -1 if k * (k - 1) // 2 % 2 else 1


def test_a_reverse_is_the_product_times_its_grade_sign():
    rng = random.Random(610)
    for m in range(1, 7):
        s = rand_rational_structural_set(rng, m)
        for A in _index_orders(rng, m):
            want = _plain(s, A[::-1])
            assert want == s.product(A) * _reverse_sign(len(A)) == s.product(A[::-1]), (m, A)
            assert s.product(A).grades() == {len(A)}, (m, A)
    # Negative control: with a repeated index v_A is no blade of grade |A|, and the rule fails.
    s = rand_rational_structural_set(rng, 3)
    repeated = _plain(s, (1, 1))
    assert repeated == Multivector.scalar(3, -1)
    assert s.product((1, 1)) == repeated != s.product((1, 1)) * _reverse_sign(2)


def test_memo_does_not_affect_equality():
    rng = random.Random(608)
    rows = rand_rational_structural_set(rng, 4).coordinates()
    s, t = StructuralSet.from_matrix(rows), StructuralSet.from_matrix(rows)
    for A in combinations(range(1, 5), 2):
        s.product(A)
    assert s == t and t == s
    assert t.product((1, 2, 3)) == s.product((1, 2, 3))
    with pytest.raises(AttributeError):
        s.vectors = ()


def test_set_product_index_validation():
    s = StructuralSet.standard(3)
    assert s.product(()) == Multivector.scalar(3, 1)
    assert s.product((2, 1)) == -s.product((1, 2))
    for bad in ((0,), (4,), (1, 4)):
        with pytest.raises(IndexError):
            s.product(bad)
