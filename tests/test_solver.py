"""Exact linear algebra: elimination, operator matrices, dimensions, witnesses."""

import dataclasses
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from math import comb, gcd, lcm, perm, prod

import pytest

from itertools import combinations

from cliffkit import solver
from cliffkit.algebra import DimensionMismatch, Multivector, _as_integers, blade_order, blade_product
from cliffkit.classify import (
    _CLASS_ORDER, HARMONIC, INFRAMONOGENIC, TWO_SET_HARMONIC, ClassMembership, RegionLabel, classify,
)
from cliffkit.cli import parse_region_spec, parse_set_spec
from cliffkit.fields import PolyField, dirac_left, dirac_right, laplacian, sandwich
from cliffkit.linalg import RationalMatrix, RowEchelon, _Lazy
from cliffkit.parser import format_field, parse_field
from cliffkit.psi import PsiOperator
from cliffkit.sampling import rand_polyfield, rand_rational_structural_set, rand_structural_pair
from cliffkit.solver import (
    _CHAINS,
    CoefficientSpace,
    FieldOperator,
    class_dimensions,
    _SMALL_RATIONALS,
    _region_candidates,
    class_matrices,
    class_nullspace,
    converse_counterexample,
    find_region_witness,
    monomials_of_degree,
    operator_matrix,
)
from cliffkit.structural import StructuralSet, transition
from kernel_reference import dense_mat_vec, dense_nullspace, densify, field_of, half_ranks, unsplit_dimensions
from rank_reference import mirrored_rank

PHI = StructuralSet.standard(3)
PSI = StructuralSet.reversed_standard(3)


# -- linalg ---------------------------------------------------------------------


def test_identity_matrix_has_empty_nullspace():
    assert dense_nullspace(RationalMatrix([[Fraction(int(i == j)) for j in range(5)] for i in range(5)])) == []


def test_zero_matrix_nullspace_is_everything():
    mat = RationalMatrix([[Fraction(0)] * 4] * 3)
    basis = dense_nullspace(mat)
    assert len(basis) == 4
    assert basis[0][0] == 1


def test_rank_and_nullspace_on_random_matrices():
    rng = random.Random(0)
    for _ in range(20):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)] for _ in range(nr)]
        mat = RationalMatrix(rows)
        basis = dense_nullspace(mat)
        assert mat.rank() + len(basis) == nc
        assert mat.rank() == mirrored_rank(mat)
        for v in basis:
            assert not any(dense_mat_vec(mat, v))
        # basis vectors are linearly independent: stack them as rows
        if basis:
            assert RationalMatrix(basis).rank() == len(basis)


def test_stack_of_nothing_is_zero_rows_with_identity_kernel():
    mat = RationalMatrix.stack([], 3)
    assert (mat.nrows, mat.ncols) == (0, 3)
    assert mat.rank() == 0
    assert dense_nullspace(mat) == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


def test_lazy_sequence_computes_each_item_once_and_refuses_slices():
    calls = []

    def f(k):
        calls.append(k)
        return k * 10

    items = _Lazy(3, f)
    assert (len(items), items[1], items[1], items[-1], calls) == (3, 10, 10, 20, [1, 2])
    with pytest.raises(TypeError):
        items[0:2]  # a slice would hand out the cache, None for item 0
    assert list(items) == [0, 10, 20] and calls == [1, 2, 0]
    with pytest.raises(IndexError):
        items[3]


def test_nullspace_back_substitutes_only_the_vectors_read(monkeypatch):
    original, solved = RationalMatrix._kernel_vector, []

    def counted(self, f, sorted_echelon):
        solved.append(f)
        return original(self, f, sorted_echelon)

    monkeypatch.setattr(RationalMatrix, "_kernel_vector", counted)
    basis = class_nullspace(PHI, PSI, 3, (HARMONIC, INFRAMONOGENIC))
    assert solved == [] and len(basis) == class_dimensions(PHI, PSI, 3).harmonic_and_inframonogenic > 1
    first = basis[0]
    assert len(solved) == 1 and basis[0] is first  # one vector back-substituted, its field kept
    assert laplacian(first).is_zero() and sandwich(PHI, first, PSI).is_zero()
    assert list(basis)[1:] and len(solved) == len(basis)


def test_stack_of_one_matrix_is_that_matrix():
    mat = RationalMatrix([[Fraction(1), Fraction(2)]])
    assert RationalMatrix.stack([mat], 2) is mat
    with pytest.raises(ValueError):
        RationalMatrix.stack([mat], 3)


def _dense_mat_vec(rows, v):
    return [sum((a * x for a, x in zip(row, v) if a), Fraction(0)) for row in rows]


def _sparse_product(mat, v):
    """`mat.mat_vec` of the dense vector v over one den, written out densely: entry i over row scale i and den."""
    y, den = _as_integers({j: x for j, x in enumerate(v) if x})
    image = mat.mat_vec(y)
    assert all(image.values())  # only nonzero entries are kept
    return [Fraction(image.get(i, 0), mat._int_rows[i][1] * den) for i in range(mat.nrows)]


def _dense_kernel(rows, ncols):
    """Reduced row echelon form over Fractions; one kernel vector per free column."""
    rows = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, pc in zip(rows, pivots):
            x[pc] = -row[f]
        basis.append(x)
    return basis


def _random_sparse_rows(rng, nr, nc):
    zero_share = rng.choice([0.2, 0.6, 0.9])
    rows = [[Fraction(0) if rng.random() < zero_share else Fraction(rng.randint(-9, 9), rng.randint(1, 7))
             for _ in range(nc)] for _ in range(nr)]
    if nr and rng.random() < 0.3:
        rows[rng.randrange(nr)] = [Fraction(0)] * nc
    if nc and rng.random() < 0.3:
        j = rng.randrange(nc)
        for row in rows:
            row[j] = Fraction(0)
    if nr > 1 and rng.random() < 0.3:
        rows[-1] = [Fraction(rng.randint(-3, 3), rng.randint(1, 7)) * x for x in rows[0]]
    return rows


def test_sparse_rows_agree_with_dense_reference():
    rng = random.Random(7)
    seen = {"0xn": 0, "nx0": 0, "zero row": 0, "zero column": 0, "deficient": 0}
    for _ in range(400):
        nr, nc = rng.randint(0, 10), rng.randint(0, 10)
        rows = _random_sparse_rows(rng, nr, nc)
        mat = RationalMatrix(rows, ncols=nc)
        assert mat.rows == rows
        v = [Fraction(0) if rng.random() < 0.3 else Fraction(rng.randint(-9, 9), rng.randint(1, 7))
             for _ in range(nc)]
        assert _sparse_product(mat, v) == _dense_mat_vec(rows, v)
        kernel = _dense_kernel(rows, nc)
        assert dense_nullspace(mat) == kernel
        assert mat.rank() == mirrored_rank(mat) == nc - len(kernel)
        seen["0xn"] += nr == 0
        seen["nx0"] += nc == 0 and nr > 0
        seen["zero row"] += any(not any(row) for row in rows)
        seen["zero column"] += nr > 0 and any(not any(row[j] for row in rows) for j in range(nc))
        seen["deficient"] += len(kernel) > max(nc - nr, 0)
    assert min(seen.values()) >= 10, seen


def test_nullspace_guard_rejects_a_corrupted_echelon(monkeypatch):
    original = RowEchelon.grown

    def corrupted(self, rows):
        echelon = original(self, rows)
        (j, a), *rest = echelon._tails[0]
        echelon._tails = (((j, a + 1), *rest), *echelon._tails[1:])
        return echelon

    monkeypatch.setattr(RowEchelon, "grown", corrupted)
    mat = RationalMatrix([[Fraction(1), Fraction(2), Fraction(3)]])
    with pytest.raises(ArithmeticError, match="failed verification"):
        dense_nullspace(mat)


def test_nullspace_guard_rejects_a_split_block(monkeypatch):
    # Eliminating one connected block as two gives vectors that miss the other half's rows.
    mat = RationalMatrix([[Fraction(1), Fraction(1), Fraction(0)], [Fraction(0), Fraction(1), Fraction(1)]])
    assert mat._blocks() == [[0, 1]]
    monkeypatch.setattr(RationalMatrix, "_blocks", lambda self: [[0], [1]])
    with pytest.raises(ArithmeticError, match="failed verification"):
        dense_nullspace(mat)


def test_nullspace_never_returns_a_wrong_vector_from_a_split_block(monkeypatch):
    rng = random.Random(12)
    original = RationalMatrix._blocks

    def split(self):
        blocks = original(self)
        big = max(blocks, key=len)
        cut = rng.randint(1, len(big) - 1)
        return [b for b in blocks if b is not big] + [big[:cut], big[cut:]]

    seen = {"raised": 0, "true kernel": 0}
    for _ in range(200):
        rows, nc = _block_sum_rows(rng)
        mat = RationalMatrix(rows, ncols=nc)
        if max(map(len, mat._blocks()), default=0) < 2:
            continue
        kernel = _dense_kernel(rows, nc)
        with monkeypatch.context() as patch:
            patch.setattr(RationalMatrix, "_blocks", split)
            try:
                got = dense_nullspace(mat)
            except ArithmeticError as exc:
                assert "failed verification" in str(exc)
                seen["raised"] += 1
                continue
        assert got == kernel
        seen["true kernel"] += 1
    assert min(seen.values()) >= 10, seen


def test_mat_vec_matches_the_dense_product():
    rng = random.Random(13)
    for _ in range(200):
        rows, nc = _block_sum_rows(rng)
        mat = RationalMatrix(rows, ncols=nc)
        for density in (0.2, 1.0):
            v = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) if rng.random() < density else Fraction(0)
                 for _ in range(nc)]
            assert _sparse_product(mat, v) == _dense_mat_vec(rows, v)
    for column in (3, -1):  # a negative column would read the column table from its end
        with pytest.raises(IndexError):
            RationalMatrix([[Fraction(0)] * 3] * 2).mat_vec({column: 1})


def test_blocks_of_a_hand_made_matrix():
    # row 5 joins the blocks of rows 2 and 4; row 1 is zero; no row touches column 2
    support = [(0, 3), (), (1,), (3, 4), (5,), (1, 5), (6,)]
    rows = [[Fraction(j + 1) if j in cols else Fraction(0) for j in range(7)] for cols in support]
    mat = RationalMatrix(rows)
    assert mat._blocks() == [[0, 3], [2, 4, 5], [6]]
    assert RationalMatrix([[Fraction(0)] * 3] * 2)._blocks() == []
    assert mat.rank() == mirrored_rank(mat) == 5  # row 5 is row 2 plus row 4
    assert dense_nullspace(mat) == [
        [Fraction(int(j == 2)) for j in range(7)],
        [Fraction(x) for x in (5, 0, 0, Fraction(-5, 4), 1, 0, 0)],
    ]


def _block_sum_rows(rng):
    """A direct sum of 1-4 random blocks, rows and columns shuffled so that the blocks interleave.

    Zero rows and columns no row touches are added; a block may repeat a
    multiple of its first row.
    """
    shapes = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
    nr = sum(r for r, _ in shapes) + rng.randint(0, 2)
    nc = sum(c for _, c in shapes) + rng.randint(0, 2)
    rows = [[Fraction(0)] * nc for _ in range(nr)]
    r0 = c0 = 0
    for br, bc in shapes:
        for i in range(r0, r0 + br):
            for j in range(c0, c0 + bc):
                if rng.random() < 0.7:
                    rows[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if br > 1 and rng.random() < 0.4:
            t = Fraction(rng.randint(-3, 3), rng.randint(1, 7))
            rows[r0 + br - 1] = [t * x for x in rows[r0]]
        r0, c0 = r0 + br, c0 + bc
    row_order, col_order = rng.sample(range(nr), nr), rng.sample(range(nc), nc)
    return [[rows[i][j] for j in col_order] for i in row_order], nc


def test_block_split_elimination_matches_whole_matrix():
    rng = random.Random(11)
    seen = {"blocks": 0, "zero row": 0, "zero column": 0, "dependent": 0, "negative": 0}
    for _ in range(300):
        rows, nc = _block_sum_rows(rng)
        mat = RationalMatrix(rows, ncols=nc)
        kernel = _dense_kernel(rows, nc)
        assert dense_nullspace(mat) == kernel
        assert mat.rank() == mirrored_rank(mat) == nc - len(kernel)
        pivot_cols = sorted(RowEchelon().grown(pairs for pairs, _ in mat._int_rows)._cols)
        # free column f is the last nonzero entry of its reduced-echelon kernel vector
        free = {max(j for j, x in enumerate(v) if x) for v in kernel}
        assert pivot_cols == [c for c in range(nc) if c not in free]
        seen["blocks"] += len(mat._blocks()) > 1
        seen["zero row"] += any(not any(row) for row in rows)
        seen["zero column"] += any(not any(row[j] for row in rows) for j in range(nc))
        seen["dependent"] += len(kernel) > max(nc - len(rows), 0)
        seen["negative"] += any(x < 0 for row in rows for x in row)
    assert min(seen.values()) >= 30, seen


def _det(rows):
    """Determinant of a square matrix by elimination over Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        piv = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            t = rows[i][c] / rows[c][c]
            rows[i] = [x - t * y for x, y in zip(rows[i], rows[c])]
    return det


def _sparse(rows):
    return [[(j, a) for j, a in enumerate(row) if a] for row in rows]


def _assert_primitive_rows(echelon, rows):
    """Stored row s is primitive, has no entry left of its pivot, and is
    +- the minors det(kept[:s + 1] on cols[:s] + [j]) over their gcd, kept
    the independent rows in insertion order."""
    kept = []
    for row in ([Fraction(x) for x in row] for row in rows):
        if len(_dense_kernel([*kept, row], len(row))) < len(row) - len(kept):
            kept.append(row)
    assert len(echelon) == len(kept)
    cols, ncols = echelon._cols, len(rows[0])
    for s, (c, p, tail) in enumerate(zip(cols, echelon._pivots, echelon._tails)):
        stored = [0] * ncols
        stored[c] = p
        for j, a in tail:
            assert j > c and a, s
            stored[j] = a
        assert gcd(*stored) == 1, s
        minors = [_det([[row[k] for k in (*cols[:s], j)] for row in kept[:s + 1]]) for j in range(ncols)]
        assert all(x.denominator == 1 for x in minors)
        g = gcd(*(int(x) for x in minors))
        primitive = [int(x) // g for x in minors]
        assert stored in (primitive, [-x for x in primitive]), s


def test_row_echelon_row_dependent_only_on_two_earlier_groups():
    g1 = [[2, 3, 0, 1], [0, 5, 0, 7]]
    g2 = [[0, 0, 4, 3]]
    g3 = [[2, 3, 4, 4], [1, 1, 1, 1]]  # the first is the sum of g1[0] and g2[0]
    e1 = RowEchelon().grown(_sparse(g1))
    e12 = e1.grown(_sparse(g2))
    e123 = e12.grown(_sparse(g3))
    assert (len(e1), len(e12), len(e123)) == (2, 3, 4)
    # g3[0] is independent of g1 alone and of g2 alone, dependent on both
    assert len(e1.grown(_sparse(g3[:1]))) == 3
    assert len(RowEchelon().grown(_sparse(g2 + g3[:1]))) == 2
    assert len(e12.grown(_sparse(g3[:1]))) == 3
    assert len(e12) == 3  # growing leaves the echelon grown from as it was
    _assert_primitive_rows(e123, g1 + g2 + g3)
    mat = RationalMatrix([[Fraction(x) for x in row] for row in g1 + g2 + g3])
    assert mat.rank() == mirrored_rank(mat) == 4


def test_row_echelon_row_joining_two_earlier_sub_blocks():
    # Rows 0-1 live on columns 0-1 and rows 2-3 on columns 2-3; row 4 meets
    # step 0, where gcd(2, 2) halves both multipliers and clears its
    # column-1 entry, skips steps 1 and 2 and meets step 3.  Bareiss rows
    # would carry the minors, pivots 2, -1, -3, -3, -3; primitive rows do not.
    rows = [
        [2, 3, 0, 0, 0],
        [5, 7, 0, 0, 0],
        [0, 0, 3, 4, 0],
        [0, 0, 6, 9, 0],
        [2, 3, 0, 5, 1],
    ]
    echelon = RowEchelon().grown(_sparse(rows))
    assert echelon._cols == (0, 1, 2, 3, 4)
    assert echelon._pivots == (2, -1, 3, 1, 1)
    assert echelon._tails == (((1, 3),), (), ((3, 4),), (), ())
    _assert_primitive_rows(echelon, rows)
    mat = RationalMatrix([[Fraction(x) for x in row] for row in rows])
    assert mat._blocks() == [[0, 1, 2, 3, 4]]
    assert mat.rank() == mirrored_rank(mat) == 5
    # without column 4, row 4 less row 0 is (0, 0, 0, 5), in the span of rows 2 and 3: it falls to zero at step 3
    dependent = [row[:4] for row in rows]
    assert len(RowEchelon().grown(_sparse(dependent))) == 4
    mat = RationalMatrix([[Fraction(x) for x in row] for row in dependent])
    assert mat.rank() == mirrored_rank(mat) == 4


def test_row_echelon_matches_dense_rank_on_random_chains():
    rng = random.Random(16)
    for _ in range(200):
        rows, nc = _block_sum_rows(rng)
        mat = RationalMatrix(rows, ncols=nc)
        pairs = [pairs for pairs, _ in mat._int_rows]
        cut = sorted(rng.randint(0, len(pairs)) for _ in range(2))
        echelon = RowEchelon()
        for lo, hi in zip([0, *cut], [*cut, len(pairs)]):
            echelon = echelon.grown(pairs[lo:hi])
        assert len(echelon) == nc - len(_dense_kernel(rows, nc)) == mat.rank() == mirrored_rank(mat)
        if rows and nc <= 8:
            _assert_primitive_rows(echelon, [[x * scale for x in row] for row, (_, scale) in zip(rows, mat._int_rows)])


# -- coefficient spaces ------------------------------------------------------------


def test_monomial_enumeration():
    assert monomials_of_degree(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert monomials_of_degree(3, 0) == [(0, 0, 0)]
    assert monomials_of_degree(1, 4) == [(4,)]


def _coordinates(space, fields):
    """The coordinate vectors on `space.basis` of fields homogeneous of degree `space.degree`."""
    index = {pair: i for i, pair in enumerate(space.basis)}
    vectors = []
    for f in fields:
        vec = [Fraction(0)] * space.size
        for alpha, mv in f.terms():
            for mask, coef in mv.terms():
                vec[index[(alpha, mask)]] = coef
        vectors.append(vec)
    return vectors


def test_coefficient_space_size_and_round_trip():
    space = CoefficientSpace(3, 2)
    assert space.size == 6 * 8
    rng = random.Random(1)
    vec = [Fraction(rng.randint(-3, 3)) for _ in range(space.size)]
    f = field_of(space, vec)
    assert _coordinates(space, [f]) == [vec]


# -- operator matrices ---------------------------------------------------------------


def test_laplacian_matrix_on_degree_one_is_degenerate_zero_map():
    space = CoefficientSpace(3, 1)
    opmat = operator_matrix(FieldOperator.laplacian(), space)
    assert opmat.matrix.nrows == 0
    assert len(dense_nullspace(opmat.matrix)) == space.size


def test_sandwich_matrix_annihilates_reference_member():
    space = CoefficientSpace(3, 2)
    opmat = operator_matrix(FieldOperator.sandwich(PHI, PSI), space)
    member = parse_field("2*x2*x3*e[1] - (x1^2 + x2^2)*e[2]", 3)
    assert not any(dense_mat_vec(opmat.matrix, _coordinates(space, [member])[0]))


def test_dirac_matrix_annihilates_reference_degree_two_part():
    space = CoefficientSpace(3, 2)
    opmat = operator_matrix(FieldOperator.dirac_left(PSI), space)
    f = parse_field("(x2^2 - x1^2)*e[2] - 2*x1*x2*e[3]", 3)
    assert not any(dense_mat_vec(opmat.matrix, _coordinates(space, [f])[0]))


def test_matrix_agrees_with_operator_on_random_vectors():
    rng = random.Random(2)
    for name, make in _OPERATORS.items():
        space = CoefficientSpace(3, 2)
        opmat = operator_matrix(make(PHI, PSI), space)
        apply, order = _field_function(name, PHI, PSI)
        target = CoefficientSpace(3, 2 - order)
        for _ in range(3):
            vec = [Fraction(rng.randint(-3, 3)) for _ in range(space.size)]
            assert [_sparse_product(opmat.matrix, vec)] == _coordinates(target, [apply(field_of(space, vec))])


def test_harmonic_dimension_matches_classical_count():
    # scalar harmonics of degree 2 in three variables: dimension 5
    space = CoefficientSpace(3, 2)
    opmat = operator_matrix(FieldOperator.laplacian(), space)
    assert len(dense_nullspace(opmat.matrix)) == 5 * 8
    # restricted to the scalar blade component the count is 5
    monos = monomials_of_degree(3, 2)
    scalar_matrix = []
    for target_alpha in monomials_of_degree(3, 0):
        row = []
        for alpha in monos:
            f = PolyField.monomial(3, alpha, Multivector.scalar(3, 1))
            row.append(laplacian(f).coefficient(target_alpha).scalar_part())
        scalar_matrix.append(row)
    assert len(dense_nullspace(RationalMatrix(scalar_matrix))) == 5


def test_random_operator_matrices_soundness():
    rng = random.Random(3)
    ops = []
    for _ in range(20):
        phi, psi = rand_structural_pair(rng, 3)
        kind = rng.choice(["laplacian", "left-left", "sandwich", "dirac-left", "dirac-right"])
        if kind == "laplacian":
            op = FieldOperator.laplacian()
        elif kind == "left-left":
            op = FieldOperator.left_left(phi, psi)
        elif kind == "sandwich":
            op = FieldOperator.sandwich(phi, psi)
        elif kind == "dirac-left":
            op = FieldOperator.dirac_left(psi)
        else:
            op = FieldOperator.dirac_right(psi)
        d = rng.randint(1, 3)
        opmat = operator_matrix(op, CoefficientSpace(3, d))
        basis = dense_nullspace(opmat.matrix)
        for v in basis:
            assert not any(dense_mat_vec(opmat.matrix, v))
        assert opmat.matrix.rank() + len(basis) == opmat.matrix.ncols
        assert mirrored_rank(opmat.matrix) + len(basis) == opmat.matrix.ncols


_OPERATORS = {
    "laplacian": lambda phi, psi: FieldOperator.laplacian(),
    "left-left": FieldOperator.left_left,
    "sandwich": FieldOperator.sandwich,
    "dirac-left": lambda phi, psi: FieldOperator.dirac_left(psi),
    "dirac-right": lambda phi, psi: FieldOperator.dirac_right(psi),
    "psi": PsiOperator.plus,
}


def _field_function(name, phi, psi):
    """(apply, order) of operator `name`, with apply composed from the `fields` functions."""
    return {
        "laplacian": (laplacian, 2),
        "left-left": (lambda f: dirac_left(phi, dirac_left(psi, f)), 2),
        "sandwich": (lambda f: sandwich(phi, f, psi), 2),
        "dirac-left": (lambda f: dirac_left(psi, f), 1),
        "dirac-right": (lambda f: dirac_right(f, psi), 1),
        "psi": (PsiOperator.plus(phi, psi).apply, 0),
    }[name]


def _field_operator_matrix(name, phi, psi, space):
    """The matrix of operator `name`, column by column from the field operators on each basis monomial."""
    apply, order = _field_function(name, phi, psi)
    if space.degree < order:
        return RationalMatrix([], ncols=space.size)
    target = CoefficientSpace(space.m, space.degree - order)
    images = [apply(PolyField.monomial(space.m, alpha, Multivector._of(space.m, {mask: 1}))) for alpha, mask in space.basis]
    return RationalMatrix(zip(*_coordinates(target, images)), ncols=space.size)


def _symbol_cases():
    rng = random.Random(5)
    for m in range(1, 5):
        for d in range(5):
            yield m, d, rand_rational_structural_set(rng, m), rand_rational_structural_set(rng, m)
    yield 5, 2, StructuralSet.standard(5), StructuralSet.reversed_standard(5)


@pytest.mark.parametrize("name", list(_OPERATORS))
def test_symbol_matrix_equals_field_operator_matrix(name):
    for m, d, phi, psi in _symbol_cases():
        space = CoefficientSpace(m, d)
        opmat = operator_matrix(_OPERATORS[name](phi, psi), space)
        assert opmat.matrix == _field_operator_matrix(name, phi, psi, space), (m, d)


def _reference_terms(op, m):
    """The (gamma, a, b) `Multivector` terms of `op` in dimension m, written out here, not read from `op`'s symbol."""
    axes, one = range(1, m + 1), Multivector.scalar(m, 1)
    if op.name == "psi":
        return [((0,) * m, op.phi.product(A), op.psi.product(A).reverse()) for A in op.index_sets]
    phi, psi = op.sets[0] if op.sets else None, op.sets[-1] if op.sets else None
    terms = {
        "laplacian": lambda: [((i, i), one, one) for i in axes],
        "left-left": lambda: [((i, j), phi[i] * psi[j], one) for i in axes for j in axes],
        "sandwich": lambda: [((i, j), phi[i], psi[j]) for i in axes for j in axes],
        "dirac-left": lambda: [((j,), psi[j], one) for j in axes],
        "dirac-right": lambda: [((j,), one, psi[j]) for j in axes],
    }[op.name]()
    return [(tuple(map(term_axes.count, axes)), a, b) for term_axes, a, b in terms]


def _transposition_blade_maps(symbol, m):
    """S_gamma[A] as the nonzero (B, c) with sum a * e_A * b = sum c * e_B over the terms (gamma, a, b).

    The signs come from `blade_product`, which counts transpositions, and
    the coefficients are Fractions read from the terms of a and b.
    """
    acc = {}
    for gamma, a, b in symbol:
        images = acc.setdefault(gamma, [{} for _ in range(1 << m)])
        for mask, image in enumerate(images):
            for ma, ca in a.terms():
                sign_a, left = blade_product(ma, mask)
                for mb, cb in b.terms():
                    sign_b, out = blade_product(left, mb)
                    image[out] = image.get(out, 0) + sign_a * sign_b * ca * cb
    return {gamma: [[(out, c) for out, c in image.items() if c] for image in images] for gamma, images in acc.items()}


def _per_column_int_rows(op, space):
    """The integer rows of `op` on `space`, each (monomial, blade) column finding its own derivative factors."""
    symbol = _reference_terms(op, space.m)
    if space.degree < op.order:
        return []
    target = CoefficientSpace(space.m, space.degree - op.order)
    index = {pair: i for i, pair in enumerate(target.basis)}
    maps = _transposition_blade_maps(symbol, space.m)
    entries = [[] for _ in range(target.size)]
    for col, (alpha, mask) in enumerate(space.basis):
        for gamma, blade_map in maps.items():
            lift = prod(perm(a, g) for a, g in zip(alpha, gamma))
            if not lift:
                continue
            beta = tuple(a - g for a, g in zip(alpha, gamma))
            for out, c in blade_map[mask]:
                entries[index[(beta, out)]].append((col, lift * c))
    return [(tuple(num.items()), scale) for num, scale in (_as_integers(dict(row)) for row in entries)]


def _assembly_cases():
    """(op, space) for every operator kind: the order-1 and order-2 operators at degrees 0..4, and the
    Psi level, plus, minus and subset families, of order 0, on the degree-0 space."""
    rng = random.Random(9)
    for m in range(1, 6):
        pairs = [(StructuralSet.standard(m), StructuralSet.reversed_standard(m)),
                 (rand_rational_structural_set(rng, m), rand_rational_structural_set(rng, m))]
        for phi, psi in pairs:
            families = [PsiOperator.level(phi, psi, k) for k in range(m + 1)]
            families += [PsiOperator.plus(phi, psi), PsiOperator.minus(phi, psi), PsiOperator.subset_level1(phi, psi, {1, m})]
            for family in families:
                yield family, CoefficientSpace(m, 0)
            for d in range(5):
                space = CoefficientSpace(m, d)
                for op in (FieldOperator.laplacian(), FieldOperator.left_left(phi, psi), FieldOperator.sandwich(phi, psi),
                           FieldOperator.dirac_left(psi), FieldOperator.dirac_right(psi)):
                    yield op, space


def test_assembly_matches_the_per_column_loop():
    for op, space in _assembly_cases():
        rows = operator_matrix(op, space).matrix._int_rows
        assert rows == _per_column_int_rows(op, space), (space.m, space.degree, op.name)
        for pairs, _ in rows:
            assert all(j < k for (j, _), (k, _) in zip(pairs, pairs[1:])), (space.m, space.degree, op.name)


def test_blade_pairs_sum_terms_over_the_lcm_of_their_denominators():
    # (1, 0) cancels: 2 * 1 * (6/2) - 1 * 3 * (6/3) = 0.  Gammas come out ascending.
    terms = [((1,), {0: 1, 1: 2}, {0: 1}, 2), ((1,), {1: -1}, {0: 3}, 3), ((0,), {2: 1}, {2: 1}, 1)]
    assert solver._blade_pairs(terms) == ({(0,): [(2, 2, 6)], (1,): [(0, 0, 3)]}, 6)
    assert list(solver._blade_pairs(terms)[0]) == [(0,), (1,)]
    assert solver._blade_pairs([]) == ({}, 1)


def test_field_operator_symbols_are_the_sums_of_their_terms_blade_pairs():
    # Brute reference: coefficient(a, ma) * coefficient(b, mb) over the test's own terms, summed in Fractions.
    rng = random.Random(35)
    seen = set()
    for m in range(1, 6):
        phi, psi = rand_rational_structural_set(rng, m), rand_rational_structural_set(rng, m)
        for op in (FieldOperator.laplacian(), FieldOperator.left_left(phi, psi), FieldOperator.sandwich(phi, psi),
                   FieldOperator.dirac_left(psi), FieldOperator.dirac_right(psi)):
            terms = _reference_terms(op, m)
            brute, dens = {}, []
            for gamma, a, b in terms:
                table = brute.setdefault(gamma, {})
                for ma, ca in a.terms():
                    for mb, cb in b.terms():
                        table[ma, mb] = table.get((ma, mb), 0) + ca * cb
                dens.append(lcm(*(c.denominator for _, c in a.terms())) * lcm(*(c.denominator for _, c in b.terms())))
            pairs, scale = op.symbol(m)
            assert scale == lcm(*dens), (m, op.name)
            assert list(pairs) == sorted(brute), (m, op.name)
            for gamma, blades in pairs.items():
                table = {(ma, mb): Fraction(c, scale) for ma, mb, c in blades}
                assert len(table) == len(blades) and all(c for _, _, c in blades), (m, op.name, gamma)
                assert table == {key: c for key, c in brute[gamma].items() if c}, (m, op.name, gamma)
            seen.add(op.name)
    assert seen == {"laplacian", "left-left", "sandwich", "dirac-left", "dirac-right"}


def test_assembly_oracle_sees_one_blade_coefficient_off_by_one(monkeypatch):
    blade_images = solver._blade_images

    def off_by_one(pairs, m, **kwargs):
        maps = blade_images(pairs, m, **kwargs)
        image = next(image for images in maps.values() for image in images if image)
        image[0] = (image[0][0], image[0][1] + 1)
        return maps

    monkeypatch.setattr(solver, "_blade_images", off_by_one)
    phi, psi = StructuralSet.standard(3), StructuralSet.reversed_standard(3)
    space = CoefficientSpace(3, 2)
    for name, make in _OPERATORS.items():
        assert operator_matrix(make(phi, psi), space).matrix != _field_operator_matrix(name, phi, psi, space), name


@pytest.mark.parametrize("name", [name for name in _OPERATORS if name != "laplacian"])
def test_set_of_another_dimension_raises(name):
    phi, psi = StructuralSet.standard(2), StructuralSet.reversed_standard(2)
    with pytest.raises(DimensionMismatch):
        operator_matrix(_OPERATORS[name](phi, psi), CoefficientSpace(3, 2))
    apply, _ = _field_function(name, phi, psi)
    with pytest.raises(DimensionMismatch):
        apply(PolyField.variable(3, 1))


def test_harmonic_dimension_closed_form_at_m5_d3():
    # 2^m * (C(d+m-1, m-1) - C(d+m-3, m-1))
    mat = operator_matrix(FieldOperator.laplacian(), CoefficientSpace(5, 3)).matrix
    assert mat.ncols - mat.rank() == 960 == 2 ** 5 * (comb(7, 4) - comb(5, 4))


@pytest.mark.parametrize("m, d", [(4, 3), (5, 2)])
def test_dirac_kernel_dimension_closed_form(m, d):
    psi = rand_rational_structural_set(random.Random(m * 10 + d), m)
    for op in (FieldOperator.dirac_left(psi), FieldOperator.dirac_right(psi)):
        mat = operator_matrix(op, CoefficientSpace(m, d)).matrix
        assert mat.ncols - mat.rank() == 2 ** m * comb(d + m - 2, m - 2)


def test_same_set_left_left_is_negated_laplacian():
    phi = rand_rational_structural_set(random.Random(11), 4)
    space = CoefficientSpace(4, 3)
    left_left = operator_matrix(FieldOperator.left_left(phi, phi), space).matrix
    lap = operator_matrix(FieldOperator.laplacian(), space).matrix
    assert left_left.rows == [[-x for x in row] for row in lap.rows]


# -- dimensions and witnesses -----------------------------------------------------------


def test_class_dimensions_low_degree_is_trivially_full():
    dims = class_dimensions(PHI, PSI, 1)
    assert dims.full == 3 * 8
    assert dims.harmonic == dims.two_set_harmonic == dims.inframonogenic == dims.full
    assert dims.triple == dims.full


def test_class_dimensions_reference_configuration():
    dims = class_dimensions(PHI, PSI, 2)
    assert dims.full == 48
    assert dims.harmonic == 40
    assert dims.triple >= 1
    # intersections can only shrink
    pairs = {
        dims.harmonic_and_two_set: (dims.harmonic, dims.two_set_harmonic),
        dims.harmonic_and_inframonogenic: (dims.harmonic, dims.inframonogenic),
        dims.two_set_and_inframonogenic: (dims.two_set_harmonic, dims.inframonogenic),
    }
    for pair, singles in pairs.items():
        assert dims.triple <= pair
        assert all(pair <= single for single in singles)


@pytest.mark.parametrize("m, d, pairs", [
    (6, 3, (2880, 2942, 2818, 2622)),
    (4, 5, (416, 478, 354, 318)),
])
def test_class_dimensions_standard_reversed_at_larger_points(m, d, pairs):
    dims = class_dimensions(StructuralSet.standard(m), StructuralSet.reversed_standard(m), d)
    closed_form = 2 ** m * (comb(d + m - 1, m - 1) - comb(d + m - 3, m - 1))
    assert dims.harmonic == dims.two_set_harmonic == dims.inframonogenic == closed_form
    assert (dims.harmonic_and_two_set, dims.harmonic_and_inframonogenic,
            dims.two_set_and_inframonogenic, dims.triple) == pairs


def test_single_class_dimensions_have_the_closed_form_on_a_seeded_grid():
    """dim H = dim Hpp = dim I = 2^m (C(d+m-1, m-1) - C(d+m-3, m-1)) for every pair of structural sets.

    Each class operator P is sigma(d/dx) for a symbol sigma(xi), a 2^m x 2^m
    matrix of quadratic forms in xi acting on the coefficients: |xi|^2 for
    H, left multiplication by phi(xi)psi(xi) for Hpp and a -> phi(xi) a psi(xi)
    for I, where phi(xi) = sum xi_j phi_j.  For real xi != 0 the vectors
    phi(xi) and psi(xi) are nonzero, so they square to -|xi|^2 and are
    invertible; so sigma(xi) is invertible and det sigma is a nonzero
    polynomial.  Under the Fischer inner product <p, q> = sum_alpha alpha!
    <p_alpha, q_alpha> on vector-valued polynomials, d/dx_j is adjoint to
    multiplication by x_j, so P: degree d -> degree d-2 is adjoint to
    multiplication by sigma(x)^T: degree d-2 -> degree d.  That map is
    injective, because sigma(x)^T q = 0 gives det sigma(x) q = adj(sigma(x)^T)
    sigma(x)^T q = 0 in a polynomial ring.  So P is onto, and its kernel
    has the dimension of degree d less that of degree d-2.
    The counts come from eliminating each class matrix alone, a path apart
    from `class_dimensions`, which takes them as columns less rows and must
    agree where m + d <= 7 (beyond that the random pairs take seconds).
    """
    rng = random.Random(22)
    for m in range(1, 5):
        signed = [p * rng.choice((-1, 1)) for p in rng.sample(range(1, m + 1), m)]
        pairs = [(StructuralSet.standard(m), StructuralSet.reversed_standard(m)),
                 (StructuralSet.standard(m), StructuralSet.signed_permutation(m, signed)),
                 rand_structural_pair(rng, m), rand_structural_pair(rng, m)]
        for phi, psi in pairs:
            for d in range(6):
                # R_{0,m}-valued polynomials of degree d less those of degree d-2.
                expected = 2 ** m * (comb(d + m - 1, m - 1) - (comb(d + m - 3, m - 1) if d >= 2 else 0))
                if m + d <= 7:
                    dims = class_dimensions(phi, psi, d, parse_region_spec("none"))  # whole matrices
                    assert dims.harmonic == dims.two_set_harmonic == dims.inframonogenic == expected
                    space, mats = dims.space, dims.matrices
                else:
                    space = CoefficientSpace(m, d)
                    mats = class_matrices(phi, psi, space)
                assert [space.size - mats[name].rank() for name in _CLASS_ORDER] == [expected] * 3, (m, d, phi, psi)


def _named_signed_and_random_pairs(rng, m):
    signed = [p * rng.choice((-1, 1)) for p in rng.sample(range(1, m + 1), m)]
    yield "standard/reversed", StructuralSet.standard(m), StructuralSet.reversed_standard(m)
    yield "standard/standard", StructuralSet.standard(m), StructuralSet.standard(m)
    yield "signedperm", StructuralSet.standard(m), parse_set_spec("signedperm:" + ",".join(map(str, signed)), m)
    yield "random", *rand_structural_pair(rng, m)


def test_every_class_matrix_has_full_row_rank():
    """rank == nrows for H, Hpp and I, the fact `class_dimensions` counts single-class kernels by.

    With S the sandwich, Delta Delta, (D_phi D_psi)(D_psi D_phi) and S S all
    equal Delta^2, and Delta maps degree d onto degree d - 2, so each class
    operator is onto.  Each matrix is eliminated alone here.
    """
    rng = random.Random(33)
    for m in range(1, 6):
        for name, phi, psi in _named_signed_and_random_pairs(rng, m):
            for d in range(5 if m < 4 else 3):
                mats = class_matrices(phi, psi, CoefficientSpace(m, d))
                assert [mat.rank() - mat.nrows for mat in mats.values()] == [0, 0, 0], (name, m, d)


def test_a_zero_divisor_coefficient_loses_row_rank():
    # Negative control: 1 + e_1e_2e_3 is a zero divisor at m = 3, (1 + w)(1 - w) = 1 - w^2 = 0, so (1 + w) Delta is not onto.
    w = Multivector.blade(3, (1, 2, 3))
    op = FieldOperator("zero-divisor-laplacian", 2, (), lambda axes, one: [((i, i), one + w, one) for i in axes])
    mat = operator_matrix(op, CoefficientSpace(3, 2)).matrix
    assert (mat.nrows, mat.rank()) == (8, 4)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_half_assembly_gives_the_dimensions_of_the_full_matrices(m, tmp_path):
    # Without a region, odd m assembles the even output blades alone and grows no chain of Hpp alone.
    rng = random.Random(330 + m)
    pairs = list(_named_signed_and_random_pairs(rng, m))
    specs = []
    for label, sset in zip(("phi", "psi"), rand_structural_pair(rng, m)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps([[str(x) for x in row] for row in sset.coordinates()]))
        specs.append(parse_set_spec(f"matrix:{path}", m))
    pairs.append(("matrix files", *specs))
    for name, phi, psi in pairs:
        for d in range({1: 7, 2: 6, 3: 5, 4: 4, 5: 3}[m]):
            half = class_dimensions(phi, psi, d)
            assert half == class_dimensions(phi, psi, d, parse_region_spec("none"))  # a region assembles whole matrices
            assert {names: half.joint(names) for names in map(frozenset, _CHAINS)} == \
                unsplit_dimensions(phi, psi, m, d), (name, m, d)


def test_triple_stack_rank_is_independent_of_column_order():
    space = CoefficientSpace(4, 5)
    mats = class_matrices(StructuralSet.standard(4), StructuralSet.reversed_standard(4), space)
    stack = RationalMatrix.stack(list(mats.values()), space.size)
    assert stack.rank() == mirrored_rank(stack) == space.size - 318


def _joint_dims_by_nullspace(phi, psi, m, d):
    """The seven dimensions in `to_json` order, each the size of the kernel of its stack.

    Each kernel size is checked against the rank with mirrored columns,
    an elimination order the chained echelons of `class_dimensions` do
    not use.
    """
    space = CoefficientSpace(m, d)
    mats = class_matrices(phi, psi, space)
    joints = [(HARMONIC,), (TWO_SET_HARMONIC,), (INFRAMONOGENIC,), (HARMONIC, TWO_SET_HARMONIC),
              (HARMONIC, INFRAMONOGENIC), (TWO_SET_HARMONIC, INFRAMONOGENIC), _CLASS_ORDER]
    dims = []
    for names in joints:
        stack = RationalMatrix.stack([mats[n] for n in names], space.size)
        dims.append(len(dense_nullspace(stack)))
        assert dims[-1] == space.size - mirrored_rank(stack), names
    return tuple(dims)


def test_class_dimensions_match_the_kernels_of_the_seven_stacks():
    rng = random.Random(17)
    cases = [(m, d, phi, psi) for m, phi, psi in _grid_pairs() for d in range(4)]
    cases.append((3, 4, rand_rational_structural_set(rng, 3), rand_rational_structural_set(rng, 3)))
    cases.append((3, 4, StructuralSet.standard(3), StructuralSet.reversed_standard(3)))
    for m, d, phi, psi in cases:
        dims = class_dimensions(phi, psi, d)
        assert tuple(dims.to_json().values()) == _joint_dims_by_nullspace(phi, psi, m, d), (m, d, phi, psi)


def _named_and_random_pairs(m):
    yield "standard/reversed", StructuralSet.standard(m), StructuralSet.reversed_standard(m)
    yield "standard/standard", StructuralSet.standard(m), StructuralSet.standard(m)
    yield "seed-7 random", *rand_structural_pair(random.Random(7), m)


@pytest.mark.parametrize("m", [1, 3, 5])
def test_class_dimensions_at_odd_m_match_the_walk_over_both_halves(m):
    # At odd m `class_dimensions` eliminates the even-blade half only; the reference eliminates both.
    for name, phi, psi in _named_and_random_pairs(m):
        for d in range(4 if m == 5 and name == "seed-7 random" else 5):  # random (5,4) alone takes seconds
            dims = class_dimensions(phi, psi, d)
            assert {names: dims.joint(names) for names in map(frozenset, _CHAINS)} == \
                unsplit_dimensions(phi, psi, m, d), (name, m, d)


@pytest.mark.parametrize("d", [2, 3])
def test_the_pseudoscalar_keeps_each_joint_kernel_at_m3(d):
    omega = Multivector.blade(3, (1, 2, 3))
    for name, phi, psi in _named_and_random_pairs(3):
        for chain in _CHAINS:
            members = class_nullspace(phi, psi, d, chain)
            assert len(members) > 0, (name, chain)
            for f in members:
                region = classify(phi, psi, f).region
                assert set(chain) <= region.classes
                assert classify(phi, psi, omega * f).region == region, (name, chain, format_field(f))


@pytest.mark.parametrize("m, d", [(1, 4), (3, 3), (5, 2), (2, 3), (2, 4), (4, 2), (4, 3), (6, 2)])
def test_the_halves_agree_exactly_at_odd_m(m, d):
    # At even m the pseudoscalar anticommutes with vectors, and doubling one half would be wrong (negative control).
    for psi in (StructuralSet.reversed_standard(m), StructuralSet.standard(m)):
        even, odd = half_ranks(StructuralSet.standard(m), psi, m, d)
        assert (even == odd) == (m % 2 == 1), (m, d, psi)


def test_class_dimensions_of_a_random_rational_pair_at_m4_d4():
    # Bareiss rows reach 2377-bit entries on this pair; primitive rows stay at 178 bits.
    phi, psi = rand_structural_pair(random.Random(7), 4)
    dims = class_dimensions(phi, psi, 4)
    assert tuple(dims.to_json().values()) == (400, 400, 400, 304, 338, 270, 242)


@pytest.mark.parametrize("m, square", [(2, -1), (4, 1), (6, -1), (8, 1)])
def test_the_pseudoscalar_squares_to_plus_one_at_m_divisible_by_four(m, square):
    omega = Multivector.blade(m, range(1, m + 1))
    assert omega * omega == Multivector.scalar(m, square)


@pytest.mark.parametrize("m", [4, 8])
def test_left_pseudoscalar_commutes_with_delta_and_left_left_and_anticommutes_with_the_sandwich(m):
    # omega anticommutes with vectors at even m, so it passes phi_i psi_j unchanged and phi_i with a sign.
    rng = random.Random(360 + m)
    omega = Multivector.blade(m, range(1, m + 1))
    moved = 0
    for phi, psi in [(StructuralSet.standard(m), StructuralSet.reversed_standard(m)), rand_structural_pair(rng, m)]:
        for _ in range(4):
            f = rand_polyfield(rng, m, max_degree=4)
            assert laplacian(omega * f) == omega * laplacian(f)
            assert dirac_left(phi, dirac_left(psi, omega * f)) == omega * dirac_left(phi, dirac_left(psi, f))
            assert sandwich(phi, omega * f, psi) == -(omega * sandwich(phi, f, psi))
            moved += bool(sandwich(phi, f, psi))
    assert moved > 0


@pytest.mark.parametrize("m, degrees", [(4, range(5)), (8, range(3))])
def test_omega_split_dimensions_equal_the_unsplit_walk(m, degrees):
    # At m = 0 mod 4 `class_dimensions` walks the matrices in the eigenbasis of left multiplication by omega.
    signed = ",".join(f"{2 * k},{1 - 2 * k}" for k in range(1, m // 2 + 1))  # signedperm:2,-1,4,-3,...
    for name, psi in (("reversed", StructuralSet.reversed_standard(m)),
                      ("signedperm", parse_set_spec(f"signedperm:{signed}", m))):
        phi = StructuralSet.standard(m)
        for d in degrees:
            dims = class_dimensions(phi, psi, d)
            assert {names: dims.joint(names) for names in map(frozenset, _CHAINS)} == \
                unsplit_dimensions(phi, psi, m, d), (name, m, d)


def test_the_omega_split_gives_the_random_m4_walk_four_blocks(monkeypatch):
    # Blade parity alone splits the seed-7 random stack in two; a region's (blade-coordinate) walk still sees two.
    blocks, original = [], RationalMatrix._blocks
    monkeypatch.setattr(RationalMatrix, "_blocks", lambda self: blocks.append(original(self)) or blocks[-1])
    phi, psi = rand_structural_pair(random.Random(7), 4)
    split = class_dimensions(phi, psi, 3)
    assert split == class_dimensions(phi, psi, 3, parse_region_spec("none"))
    assert [len(found) for found in blocks] == [4, 2]


@pytest.mark.parametrize("m, d", [(2, 3), (6, 2)])
def test_the_omega_fold_at_m_2_mod_4_gives_a_wrong_dimension(monkeypatch, m, d):
    # Negative control: omega^2 = -1 there, so e_A +- sigma_A e_A' are no eigenvectors and the fold drops entries.
    # The reference is built first; then every basis is the omega one, and without a region every map is a walk map.
    phi, psi = StructuralSet.standard(m), StructuralSet.reversed_standard(m)
    unsplit, basis = unsplit_dimensions(phi, psi, m, d), solver._basis
    monkeypatch.setattr(solver, "_basis", lambda m, even, omega: basis(m, even, True))
    dims = class_dimensions(phi, psi, d)
    assert {names: dims.joint(names) for names in map(frozenset, _CHAINS)} != unsplit


def _omega_eigenvectors(m, swap=False):
    """{place: u} for the omega eigenbasis at m = 0 mod 4, u as {blade rank: +-1}, sigma_A read off `blade_product`.

    For each blade A without e_m, u_A^+ = e_A + sigma_A e_A' sits at A's
    rank and u_A^- = e_A - sigma_A e_A' at the rank of A + e_m; `swap`
    exchanges the two places.
    """
    order, top, full = blade_order(m), 1 << (m - 1), (1 << m) - 1
    rank = {mask: r for r, mask in enumerate(order)}
    vectors = {}
    for mask in order:
        if not mask & top:
            sigma, complement = blade_product(full, mask)
            for sign, place in ((1, mask), (-1, mask | top)):
                vectors[rank[place ^ top if swap else place]] = {rank[mask]: 1, rank[complement]: sign * sigma}
    return vectors


def _omega_map_mismatches(m, pairs, swap=False):
    """The (gamma, column c) whose walk-map column is not S(u_c) in the basis of `_omega_eigenvectors`.

    S(u_c) is read off the unsplit blade maps, and the walk maps must give
    it as sum_r entry(r, c) * u_r.
    """
    unsplit, walk = solver._blade_images(pairs, m), solver._blade_images(pairs, m, walk=True)
    basis = _omega_eigenvectors(m, swap)
    mismatches = []
    for gamma in pairs:
        images, walked = {}, {}  # column -> {row: entry} of the unsplit and of the walk map
        for maps, columns in ((unsplit, images), (walk, walked)):
            for row, entries in enumerate(maps[gamma]):
                for col, c in entries:
                    columns.setdefault(col, {})[row] = c
        for col, u in basis.items():
            want, got = Counter(), Counter()
            for A, a in u.items():
                for B, c in images.get(A, {}).items():
                    want[B] += a * c
            for row, c in walked.get(col, {}).items():
                for B, b in basis[row].items():
                    got[B] += c * b
            if want != got:  # missing entries count as zero
                mismatches.append((gamma, col))
    return mismatches


_CLASS_OPERATORS = (lambda phi, psi: FieldOperator.laplacian(), FieldOperator.left_left, FieldOperator.sandwich)


@pytest.mark.parametrize("m, name", [(4, "standard/reversed"), (4, "seed-7 random"), (8, "standard/reversed")])
def test_the_omega_walk_maps_are_the_class_operators_in_the_eigenbasis(m, name):
    phi, psi = next((phi, psi) for label, phi, psi in _named_and_random_pairs(m) if label == name)
    for make in _CLASS_OPERATORS:
        op = make(phi, psi)
        pairs = op.symbol(m)[0]
        assert any(entries for maps in solver._blade_images(pairs, m, walk=True).values() for entries in maps)
        assert _omega_map_mismatches(m, pairs) == [], op.name


def test_the_omega_map_oracle_sees_the_two_places_swapped():
    # A swap of u^+ and u^- in rows and columns alike changes no rank, so the dimension tests cannot see it.
    # The Laplacian's identity map is the same on both eigenspaces, so it cannot see it either.
    phi, psi = rand_structural_pair(random.Random(7), 4)
    seen = {make(phi, psi).name: bool(_omega_map_mismatches(4, make(phi, psi).symbol(4)[0], swap=True))
            for make in _CLASS_OPERATORS}
    assert seen == {"laplacian": False, "left-left": True, "sandwich": True}


def test_operator_matrix_maps_no_blades_below_its_order(monkeypatch):
    mapped, blade_images = [], solver._blade_images
    monkeypatch.setattr(solver, "_blade_images", lambda pairs, m, **kwargs: mapped.append(m) or
                        blade_images(pairs, m, **kwargs))
    for m in (3, 4, 8):
        phi, psi = rand_structural_pair(random.Random(7), m)
        for d in (0, 1):
            dims = class_dimensions(phi, psi, d)
            assert set(dims.to_json().values()) == {dims.full} == {CoefficientSpace(m, d).size}, (m, d)
    assert mapped == []
    class_dimensions(StructuralSet.standard(3), StructuralSet.reversed_standard(3), 2)
    assert mapped == [3, 3, 3]
    with pytest.raises(DimensionMismatch):
        operator_matrix(FieldOperator.sandwich(StructuralSet.standard(2), StructuralSet.standard(2)),
                        CoefficientSpace(3, 1))


@pytest.mark.parametrize("m, d", [(2, 3), (3, 2), (3, 3)])
def test_class_dimensions_depend_only_on_the_transition_orbit(m, d):
    rng = random.Random(m * 10 + d)
    standard = StructuralSet.standard(m)
    for _ in range(6):
        phi, psi = rand_rational_structural_set(rng, m), rand_rational_structural_set(rng, m)
        dims = class_dimensions(phi, psi, d).to_json()
        canonical = StructuralSet.from_matrix(transition(phi, psi).entries)
        assert class_dimensions(standard, canonical, d).to_json() == dims
        assert class_dimensions(psi, phi, d).to_json() == dims


@pytest.mark.parametrize("psi, want", [
    ("standard", (256, 256, 256, 256, 222, 222, 222)),
    ("signedperm:-1,-2,-3,-4", (256, 256, 256, 256, 222, 222, 222)),
    ("reversed", (256, 256, 256, 208, 222, 194, 174)),
    ("signedperm:2,-1,4,-3", (256, 256, 256, 232, 222, 222, 205)),
])
def test_class_dimensions_strata_at_m4_d3(psi, want):
    dims = class_dimensions(StructuralSet.standard(4), parse_set_spec(psi, 4), 3)
    assert tuple(dims.to_json().values()) == want


def test_class_dimensions_2d_standard():
    s = StructuralSet.standard(2)
    dims = class_dimensions(s, s, 2)
    # 2D harmonic polynomials of degree 2: two per blade component
    assert dims.harmonic == 2 * 4


def test_json_report_keys():
    dims = class_dimensions(PHI, PSI, 2)
    payload = dims.to_json()
    assert set(payload) == {"H", "Hpp", "I", "H∩Hpp", "H∩I", "Hpp∩I", "triple"}


def test_find_region_witness_in_every_named_region():
    targets = [
        ("H", "Hpp", "I"),
        ("Hpp", "I"),
        ("H", "I"),
        ("H", "Hpp"),
        (),
    ]
    for classes in targets:
        target = RegionLabel.from_classes(classes)
        witness = find_region_witness(class_dimensions(PHI, PSI, 2, target))
        assert witness is not None, classes
        assert classify(PHI, PSI, witness).region == target


def test_find_region_witness_degree_one_everything_in_triple():
    target = RegionLabel.from_classes(("H", "Hpp", "I"))
    witness = find_region_witness(class_dimensions(PHI, PSI, 1, target))
    assert witness is not None
    assert witness.degree() == 1


def test_find_region_witness_not_found_when_region_empty():
    # at degree 1 the second-order operators annihilate everything, so
    # a field outside all three classes cannot exist there
    target = RegionLabel.from_classes(())
    assert find_region_witness(class_dimensions(PHI, PSI, 1, target)) is None


def test_witness_search_that_runs_out_in_a_nonempty_region_raises(monkeypatch):
    # The search is complete, so a nonempty region whose every candidate is turned down is an error, not "empty".
    # With phi = psi, left-left is minus the Laplacian, so four of the regions are empty and four are not.
    phi = psi = StructuralSet.standard(2)
    dims = class_dimensions(phi, psi, 2)
    assert sum(map(dims.region_is_empty, RegionLabel.all_regions())) == 4
    tried = []

    def reject(phi, psi, f):
        tried.append(f)
        return ClassMembership(False, False, False, False, False) if target.classes else \
            ClassMembership(True, True, True, True, True)

    monkeypatch.setattr(solver, "classify", reject)
    for target in RegionLabel.all_regions():
        tried.clear()
        if dims.region_is_empty(target):
            assert find_region_witness(class_dimensions(phi, psi, 2, target)) is None and not tried, target
        else:
            with pytest.raises(ArithmeticError, match=f"no field in the nonempty region {target}$"):
                find_region_witness(class_dimensions(phi, psi, 2, target))
            assert tried, target


def test_witness_single_class_regions():
    # single-membership regions exist at degree 2 for the reference sets
    for classes in (("H",), ("Hpp",), ("I",)):
        target = RegionLabel.from_classes(classes)
        witness = find_region_witness(class_dimensions(PHI, PSI, 2, target))
        if witness is not None:
            assert classify(PHI, PSI, witness).region == target


def _dense_candidates(pool, excluded):
    """The candidates of the witness search written out densely, in order, kept when every excluded image is nonzero.

    Each candidate is built and multiplied through the dense rows: single
    pool vectors, pairs v_i + t*v_j, then sum_n t^n * u_n over the first
    pool vectors that escape each excluded matrix, when those are three.
    """
    def candidates():
        yield from pool
        for vi, vj in combinations(pool, 2):
            for t in _SMALL_RATIONALS:
                yield [a + t * b for a, b in zip(vi, vj)]
        picks = [next((k for k, v in enumerate(pool) if any(_dense_mat_vec(rows, v))), None) for rows in excluded]
        if None not in picks and len(set(picks)) == 3:
            picks = sorted(set(picks))
            for t in _SMALL_RATIONALS:
                yield [sum(t ** n * pool[k][j] for n, k in enumerate(picks)) for j in range(len(pool[0]))]

    for vec in candidates():
        if all(any(_dense_mat_vec(rows, vec)) for rows in excluded):
            yield vec


def _dense_candidate_witness(phi, psi, m, d, target):
    """The witness search written out densely: build every candidate, multiply it through."""
    space = CoefficientSpace(m, d)
    mats = {name: mat.rows for name, mat in class_matrices(phi, psi, space).items()}
    wanted = [row for name in sorted(target.classes) for row in mats[name]]
    excluded = [rows for name, rows in mats.items() if name not in target.classes]
    for vec in _dense_candidates(_dense_kernel(wanted, space.size), excluded):
        f = field_of(space, vec)
        if classify(phi, psi, f).region == target:
            return f
    return None


def _over_one_den(vectors):
    """Dense `Fraction` vectors as their nonzero {coordinate: int} entries over the lcm of every denominator."""
    den = lcm(*(x.denominator for v in vectors for x in v))
    return [{j: x.numerator * (den // x.denominator) for j, x in enumerate(v) if x} for v in vectors], den


def _killed_unit_vectors(rng):
    """n and the dense rows of three excluded matrices on Q^n that catch every unit vector and every pair.

    Unit vector k is of kind S_k, one of the pairs of matrices
    {0, 1}, {0, 2}, {1, 2} (each pair at least once) or, now and then,
    all three.  Matrix e has random rational rows on the columns of the
    unit vectors whose kind leaves e out, so its kernel holds exactly the
    unit vectors whose kind contains e.  Every unit vector then lies in
    some kernel, and every two share one.
    """
    kinds = [{0, 1}, {0, 2}, {1, 2}]
    kinds += [rng.choice(kinds + [{0, 1, 2}]) for _ in range(rng.randint(0, 3))]
    rng.shuffle(kinds)
    n = len(kinds)
    excluded = []
    for e in range(3):
        free = [k for k, kind in enumerate(kinds) if e not in kind]
        rows = []
        for _ in range(rng.randint(1, 3)):
            row = [Fraction(0)] * n
            for k in free:
                row[k] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
            rows.append(row)
        excluded.append(rows)
    return n, excluded


def test_region_candidates_reach_the_fallback_past_every_pair():
    e1, e2, e3 = ([Fraction(int(i == j)) for j in range(3)] for i in range(3))
    # ker E1 = <e1, e3>, ker E2 = <e1, e2>, ker E3 = <e2, e3>: every single and every pair is caught
    excluded = [RationalMatrix([e2]), RationalMatrix([e3]), RationalMatrix([e1])]
    pool = [({k: 1}, 1) for k in range(3)]
    images = [[mat.mat_vec({k: 1}) for mat in excluded] for k in range(3)]
    first = next(_region_candidates(pool, images))
    assert densify(3, *first) == [1, -3, 9]  # e1 + t e2 + t^2 e3 at the first t of _SMALL_RATIONALS

    # v1 lies in ker E2 but not ker E1 and v2 the other way round: no single vector escapes, every v1 + t v2 does
    pool = [[Fraction(0), Fraction(1, 2)], [Fraction(2, 3), Fraction(0)]]
    dense_excluded = [[[Fraction(0), Fraction(5)]], [[Fraction(-3, 2), Fraction(0)]]]
    mats = [RationalMatrix(rows) for rows in dense_excluded]
    sparse_pool = [(ys[0], den) for ys, den in (_over_one_den([v]) for v in pool)]
    images = [[mat.mat_vec(y) for mat in mats] for y, _ in sparse_pool]
    got = [densify(2, *c) for c in _region_candidates(sparse_pool, images)]
    assert got == list(_dense_candidates(pool, dense_excluded))
    assert got == [[t * Fraction(2, 3), Fraction(1, 2)] for t in _SMALL_RATIONALS]  # once: two picks are the pair

    rng = random.Random(14)
    scales = random.Random(16)  # rescales the pool, so that its vectors have different denominators
    for _ in range(40):
        n, dense_excluded = _killed_unit_vectors(rng)
        mats = [RationalMatrix(rows) for rows in dense_excluded]
        pool = [[scales.choice(_SMALL_RATIONALS) * x for x in v] for v in _dense_kernel([], n)]
        sparse_pool = [(ys[0], den) for ys, den in (_over_one_den([v]) for v in pool)]
        images = [[mat.mat_vec(y) for mat in mats] for y, _ in sparse_pool]
        got = [densify(n, *c) for c in _region_candidates(sparse_pool, images)]
        want = list(_dense_candidates(pool, dense_excluded))
        assert got == want and got
        assert sum(1 for x in got[0] if x) >= 3  # no single vector or pair escaped


def test_region_candidates_yield_nothing_when_an_excluded_matrix_kills_the_pool():
    pool = [({0: 1}, 1), ({1: 1}, 1)]
    assert list(_region_candidates(pool, [[{}, {0: 1}], [{}, {}]])) == []  # the first excluded matrix kills both
    assert list(_region_candidates([], [])) == []


@pytest.mark.parametrize("m, d, phi, psi, region", [
    (2, 6, "standard", "standard", "H,I"),
    (3, 2, "standard", "standard", "H,I"),
    (3, 3, "standard", "reversed", "H,Hpp,I"),
    (3, 3, "standard", "signedperm:2,-3,1", "Hpp"),
    (3, 2, "standard", "reversed", "none"),
    (2, 5, "standard", "reversed", "H,Hpp,I"),
    (2, 4, "rot2:1/2", "refl2:2/3", "Hpp,I"),
    (3, 2, "reversed", "signedperm:-1,3,2", "I"),
])
def test_find_region_witness_matches_dense_candidate_loop(m, d, phi, psi, region):
    phi, psi = parse_set_spec(phi, m), parse_set_spec(psi, m)
    target = parse_region_spec(region)
    witness = find_region_witness(class_dimensions(phi, psi, d, target))
    assert witness == _dense_candidate_witness(phi, psi, m, d, target)


def _grid_pairs():
    """(m, phi, psi) for m = 1..4: standard/reversed, a seeded signed permutation and a seeded random rational pair."""
    rng = random.Random(15)
    for m in range(1, 5):
        signed = [p * rng.choice((-1, 1)) for p in rng.sample(range(1, m + 1), m)]
        yield m, StructuralSet.standard(m), StructuralSet.reversed_standard(m)
        yield m, StructuralSet.standard(m), StructuralSet.signed_permutation(m, signed)
        yield m, rand_rational_structural_set(rng, m), rand_rational_structural_set(rng, m)


# sha256 of one line per case of the grid below, in order: the witness's `format_field` text, or None.
# It pins the first escaping candidate of every search, not just its region.
GRID_WITNESS_SHA256 = "6a27f39baa3458d7fcdc5781fbb26e161cdc864d1021138d1828ae818e5a5451"


def _as_fractions(kernel):
    return [{j: Fraction(a, den) for j, a in y.items()} for y, den in kernel]


def test_rank_rule_and_witness_search_agree_on_a_seeded_grid():
    seen = {"empty": 0, "found": 0, "wanted classes without rows": 0}
    lines = []
    for m, phi, psi in _grid_pairs():
        for d in range(4):
            for target in RegionLabel.all_regions():  # the classes of the targets run over every chain of _CHAINS
                # As `solve --region` runs it: the search back-substitutes on the echelons the dimensions kept.
                dims = class_dimensions(phi, psi, d, target)
                wanted = RationalMatrix.stack([dims.matrices[name] for name in sorted(target.classes)], dims.full)
                assert _as_fractions(wanted.nullspace(dims.echelons)) == _as_fractions(wanted.nullspace())
                seen["wanted classes without rows"] += bool(target.classes) and wanted.nrows == 0
                witness = find_region_witness(dims)
                assert (witness is None) == dims.region_is_empty(target), (m, d, phi, psi, target)
                if witness is not None:
                    assert witness and witness.is_homogeneous(d)
                    assert classify(phi, psi, witness).region == target
                seen["empty" if witness is None else "found"] += 1
                lines.append("None" if witness is None else format_field(witness))
    assert min(seen.values()) >= 50, seen
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GRID_WITNESS_SHA256


def test_kernel_guard_rejects_the_echelons_of_a_smaller_chain():
    dims = class_dimensions(PHI, PSI, 2)
    assert dims.harmonic > dims.harmonic_and_inframonogenic
    smaller = class_dimensions(PHI, PSI, 2, parse_region_spec("H"))
    wanted = RationalMatrix.stack([smaller.matrices[HARMONIC], smaller.matrices[INFRAMONOGENIC]], smaller.space.size)
    with pytest.raises(ArithmeticError, match="failed verification"):
        list(wanted.nullspace(smaller.echelons))
    assert dims.echelons is None  # a point built with no region keeps none


def test_witness_guard_rejects_a_corrupted_kept_echelon():
    target = parse_region_spec("H,Hpp,I")
    dims = class_dimensions(PHI, PSI, 3, target)
    first_free = min(set(range(dims.full)).difference(c for echelon in dims.echelons for c in echelon._cols))
    k, echelon = next((k, echelon) for k, echelon in enumerate(dims.echelons)
                      if any(first_free in dict(tail) for tail in echelon._tails))
    # Back-substituting the first pool vector reads its free column first in the last pivot row left of it that holds it.
    s = max((s for s, tail in enumerate(echelon._tails) if echelon._cols[s] < first_free and first_free in dict(tail)),
            key=lambda s: echelon._cols[s])
    corrupted = RowEchelon.__new__(RowEchelon)
    corrupted._cols, corrupted._pivots = echelon._cols, echelon._pivots
    corrupted._tails = tuple(tuple((j, a + 1 if j == first_free else a) for j, a in tail) if r == s else tail
                             for r, tail in enumerate(echelon._tails))
    bad = dataclasses.replace(dims, echelons=dims.echelons[:k] + (corrupted,) + dims.echelons[k + 1:])
    assert bad == dims  # the dimensions are untouched; only one kept echelon's tails differ
    with pytest.raises(ArithmeticError, match="failed verification"):
        find_region_witness(bad)


@pytest.mark.parametrize("m, d, region, pool_size", [(5, 3, "H,Hpp,I", 734), (3, 2, "none", 48)])
def test_witness_search_back_substitutes_only_the_vectors_it_tries(monkeypatch, m, d, region, pool_size):
    original, solved = RationalMatrix._kernel_vector, []

    def counted(self, f, sorted_echelon):
        solved.append(f)
        return original(self, f, sorted_echelon)

    monkeypatch.setattr(RationalMatrix, "_kernel_vector", counted)
    phi, psi = StructuralSet.standard(m), StructuralSet.reversed_standard(m)
    target = parse_region_spec(region)
    dims = class_dimensions(phi, psi, d, target)
    space, mats = dims.space, dims.matrices
    assert dims.joint(target.classes) == pool_size
    witness = find_region_witness(dims)
    assert classify(phi, psi, witness).region == target
    assert len(solved) == 1  # pool vector 0 escapes and is confirmed
    if not target.classes:
        assert witness == field_of(space, [Fraction(int(j == 0)) for j in range(space.size)])
    solved.clear()
    wanted = RationalMatrix.stack([mats[name] for name in sorted(target.classes)], space.size)
    assert len(list(wanted.nullspace())) == len(solved) == pool_size


def test_rank_rule_reads_the_dimensions():
    dims = class_dimensions(StructuralSet.standard(5), StructuralSet.standard(5), 3)
    names = {HARMONIC: dims.harmonic, TWO_SET_HARMONIC: dims.two_set_harmonic, INFRAMONOGENIC: dims.inframonogenic}
    assert dims.joint(frozenset()) == dims.full
    for name, value in names.items():
        assert dims.joint(frozenset({name})) == value
    assert dims.joint(frozenset(_CLASS_ORDER)) == dims.triple
    assert dims.harmonic_and_inframonogenic == dims.triple  # so H and I without Hpp is empty
    assert dims.region_is_empty(RegionLabel.from_classes((HARMONIC, INFRAMONOGENIC)))
    assert not dims.region_is_empty(RegionLabel.from_classes(_CLASS_ORDER))
    degree_one = class_dimensions(PHI, PSI, 1)
    assert [r for r in RegionLabel.all_regions() if not degree_one.region_is_empty(r)] == [
        RegionLabel.from_classes(_CLASS_ORDER)]


@pytest.mark.parametrize("m, d", [(2, 3), (3, 2)], ids=["even m", "odd m"])
def test_kept_dimensions_carry_the_whole_class_matrices(m, d):
    phi, psi = StructuralSet.standard(m), StructuralSet.reversed_standard(m)
    whole = class_matrices(phi, psi, CoefficientSpace(m, d))
    for region in (parse_region_spec("none"), parse_region_spec("H,I")):
        dims = class_dimensions(phi, psi, d, region)
        assert (dims.space.m, dims.space.degree, dims.space.size) == (m, d, dims.full)
        assert list(dims.matrices) == list(_CLASS_ORDER)
        assert {name: mat._int_rows for name, mat in dims.matrices.items()} == \
            {name: mat._int_rows for name, mat in whole.items()}, region
        assert (dims.phi, dims.psi, dims.region) == (phi, psi, region)


@pytest.mark.parametrize("m", [2, 3])
def test_unkept_dimensions_carry_no_space_matrices_or_echelons(m):
    dims = class_dimensions(StructuralSet.standard(m), StructuralSet.reversed_standard(m), 2)
    assert (dims.region, dims.space, dims.matrices, dims.echelons) == (None, None, None, None)


def test_class_dimensions_refuses_sets_of_two_dimensions():
    two, three = StructuralSet.standard(2), StructuralSet.reversed_standard(3)
    for phi, psi in ((two, three), (three, two)):
        with pytest.raises(ValueError, match="structural sets of two dimensions"):
            class_dimensions(phi, psi, 2)


def test_class_nullspace_refuses_sets_of_two_dimensions_even_for_the_laplacian_alone():
    two, three = StructuralSet.standard(2), StructuralSet.standard(3)
    for phi, psi in ((three, two), (two, three)):
        for names in ((HARMONIC,), _CLASS_ORDER):
            with pytest.raises(ValueError, match="structural sets of two dimensions"):
                class_nullspace(phi, psi, 2, names)
    assert len(class_nullspace(three, three, 2, (HARMONIC,))) == 40


def test_class_nullspace_names_an_unknown_class():
    for names in (("X",), (HARMONIC, "X")):
        with pytest.raises(ValueError, match=r"unknown class names \['X'\]"):
            class_nullspace(PHI, PSI, 2, names)


def test_witness_pool_guard_rejects_the_echelons_of_a_smaller_chain():
    # The echelons of {H, I} pass the kernel guard for H, since their kernel lies in ker H, but they are too few.
    target = parse_region_spec("H")
    dims = class_dimensions(PHI, PSI, 2, target)
    smaller = class_dimensions(PHI, PSI, 2, parse_region_spec("H,I"))
    wanted = dims.matrices[HARMONIC]
    assert len(wanted.nullspace(smaller.echelons)) == 34
    assert len(wanted.nullspace(dims.echelons)) == dims.harmonic == 40
    with pytest.raises(ArithmeticError, match="the echelons give 34 kernel vectors for H, the dimensions 40$"):
        find_region_witness(dataclasses.replace(dims, echelons=smaller.echelons))
    assert classify(PHI, PSI, find_region_witness(dims)).region == target


def test_find_region_witness_on_a_point_built_with_no_region(monkeypatch):
    # The rank rule answers an empty region from the dimensions alone; a nonempty one needs a point built for it.
    solved, built = [], []
    original_vector, original_matrix = RationalMatrix._kernel_vector, solver.operator_matrix
    monkeypatch.setattr(RationalMatrix, "_kernel_vector",
                        lambda self, *args: solved.append(args) or original_vector(self, *args))
    monkeypatch.setattr(solver, "operator_matrix", lambda *args, **kwargs: built.append(args) or
                        original_matrix(*args, **kwargs))
    phi = StructuralSet.standard(3)
    unbuilt = class_dimensions(phi, phi, 2)
    built.clear()
    empty = []
    for target in RegionLabel.all_regions():
        point = dataclasses.replace(unbuilt, region=target)
        if unbuilt.region_is_empty(target):
            empty.append(find_region_witness(point))
        else:
            with pytest.raises(ValueError, match="built with no region"):
                find_region_witness(point)
    with pytest.raises(ValueError, match="built with no region"):
        find_region_witness(unbuilt)
    assert (empty, solved, built) == ([None] * 4, [], [])


def test_converse_counterexample():
    rng = random.Random(4)
    for m in (2, 3):
        for phi in (StructuralSet.standard(m), rand_rational_structural_set(rng, m)):
            f = converse_counterexample(phi)
            mem = classify(phi, phi, f)
            assert not mem.harmonic and not mem.inframonogenic
            scalar = PolyField(m, {a: mv.grade_project(0) for a, mv in f.terms()})
            top = PolyField(m, {a: mv.grade_project(m) for a, mv in f.terms()})
            for part in (scalar, top):
                part_mem = classify(phi, phi, part)
                assert part_mem.harmonic and part_mem.inframonogenic
    with pytest.raises(ValueError):
        converse_counterexample(StructuralSet.standard(1))
