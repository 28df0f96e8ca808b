"""Structural set validation, builders, and transition matrices."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from cliffkit.algebra import Multivector
from cliffkit.sampling import rand_rational_structural_set, rotation_pair
from cliffkit.structural import StructuralSet, StructuralSetError, TransitionMatrix, transition


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
    assert t.determinant() == 1
    assert t.form_2d() == "rotation"
    assert t.entries[0] == (Fraction(3, 5), Fraction(4, 5))


def test_transition_of_reversed_set_is_permutation_with_negative_det():
    phi = StructuralSet.standard(3)
    psi = StructuralSet.reversed_standard(3)
    t = transition(phi, psi)
    assert t.entries == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert t.determinant() == -1


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
