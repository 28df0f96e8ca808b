"""The row echelons `RowEchelon.grown` stores: pinned to per-step primitive rows, and ranks against sympy."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffkit.classify import _CLASS_ORDER
from cliffkit.linalg import RationalMatrix, RowEchelon
from cliffkit.sampling import rand_structural_pair
from cliffkit.solver import _CHAINS, CoefficientSpace, class_matrices
from cliffkit.structural import StructuralSet
from rank_reference import mirrored_rank


def _reference_grown(echelon: RowEchelon, rows) -> RowEchelon:
    """`grown` as it was with every row divided by its content on entry and after every pivot step."""
    cols, tails, pivots = list(echelon._cols), list(echelon._tails), list(echelon._pivots)
    for pairs in rows:
        row = dict(pairs)
        g = gcd(*row.values())
        if g > 1:
            row = {j: a // g for j, a in row.items()}
        for s, c in enumerate(cols):
            rc = row.pop(c, 0)
            if not rc:
                continue
            pc = pivots[s]
            g = gcd(pc, rc)
            if pc < 0:
                g = -g
            if g != 1:
                pc, rc = pc // g, rc // g
            if pc != 1:
                row = {j: pc * a for j, a in row.items()}
            for j, a in tails[s]:
                a = row.get(j, 0) - rc * a
                if a:
                    row[j] = a
                else:
                    del row[j]
            g = gcd(*row.values())
            if g > 1:
                row = {j: a // g for j, a in row.items()}
        if row:
            c = min(row)
            pivots.append(row.pop(c))
            cols.append(c)
            tails.append(tuple(row.items()))
    out = RowEchelon.__new__(RowEchelon)
    out._cols, out._tails, out._pivots = tuple(cols), tuple(tails), tuple(pivots)
    return out


def _stored(echelon: RowEchelon):
    return echelon._cols, echelon._tails, echelon._pivots


def _random_rows(rng: random.Random, nrows: int, ncols: int) -> list[list[tuple[int, int]]]:
    """Sparse integer rows, some scaled by a content above 1, some negated, some combinations of earlier rows."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.25:
            a, b = rng.choice(rows), rng.choice(rows)
            row = dict(a)
            for j, x in b:
                row[j] = row.get(j, 0) + rng.choice((-2, -1, 1, 3)) * x
        else:
            row = {j: rng.randint(-9, 9) for j in rng.sample(range(ncols), rng.randint(1, ncols))}
        k = rng.choice((1, 1, -1, 2, -6, 15))
        rows.append([(j, k * x) for j, x in sorted(row.items()) if x])
    return rows


def test_grown_stores_the_echelons_of_per_step_primitive_rows():
    rng = random.Random(22)
    seen = {"content above 1": 0, "negative pivot": 0, "dependent row": 0}
    for _ in range(2000):
        ncols = rng.randint(1, 8)
        first, second = _random_rows(rng, rng.randint(0, 6), ncols), _random_rows(rng, rng.randint(0, 6), ncols)
        ours, ref = RowEchelon().grown(first), _reference_grown(RowEchelon(), first)
        assert _stored(ours) == _stored(ref)
        grown_twice, ref_twice = ours.grown(second), _reference_grown(ref, second)
        assert _stored(grown_twice) == _stored(ref_twice), (first, second)
        rows = first + second
        seen["content above 1"] += any(len(r) and gcd(*(x for _, x in r)) > 1 for r in rows)
        seen["negative pivot"] += any(p < 0 for p in grown_twice._pivots)
        seen["dependent row"] += len(grown_twice) < sum(1 for r in rows if r)
    assert min(seen.values()) >= 50, seen


def _chain_echelons(phi, psi, m, d, grow):
    """The stored rows of every chain of `_CHAINS` in every block of the whole class stack.

    `class_dimensions` walks the same chains in the same order (the chain of Hpp alone only for its region), over
    every block at even m and over the even-blade blocks at odd m.
    """
    space = CoefficientSpace(m, d)
    mats = class_matrices(phi, psi, space)
    stack = RationalMatrix.stack([mats[name] for name in _CLASS_ORDER], space.size)
    class_of = [name for name in _CLASS_ORDER for _ in range(mats[name].nrows)]
    out = []
    for block in stack._blocks():
        rows = {name: [] for name in _CLASS_ORDER}
        for i in block:
            rows[class_of[i]].append(stack._int_rows[i][0])
        echelons = {(): RowEchelon()}
        for chain in _CHAINS:
            echelons[chain] = grow(echelons[chain[:-1]], rows[chain[-1]])
            out.append(_stored(echelons[chain]))
    return out


def _benchmark_grid_points():
    """(m, d, phi, psi) at the solve-dims and solve-witness points, a seeded rational pair in place of the drawn one."""
    for m, d in ((3, 4), (3, 5), (4, 2), (4, 3), (5, 2), (3, 3), (3, 2), (2, 5)):
        yield m, d, StructuralSet.standard(m), StructuralSet.reversed_standard(m)
    for m, d in ((3, 4), (4, 2)):
        yield (m, d, *rand_structural_pair(random.Random(1), m))
    yield 3, 3, StructuralSet.standard(3), StructuralSet.signed_permutation(3, [2, -3, 1])
    yield 2, 6, StructuralSet.standard(2), StructuralSet.standard(2)
    yield 3, 2, StructuralSet.standard(3), StructuralSet.standard(3)


@pytest.mark.parametrize("m, d, phi, psi", list(_benchmark_grid_points()))
def test_chain_echelons_match_per_step_primitive_rows_on_the_benchmark_grid(m, d, phi, psi):
    assert _chain_echelons(phi, psi, m, d, RowEchelon.grown) == _chain_echelons(phi, psi, m, d, _reference_grown)


@settings(deadline=None, max_examples=80)
@given(st.data(), st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
def test_rank_agrees_with_sympy(data, nrows, ncols):
    sympy = pytest.importorskip("sympy")
    entry = st.integers(min_value=-6, max_value=6)
    rows = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    # A combination of two rows, times a content, makes some rows dependent.
    if data.draw(st.booleans()):
        i, j = data.draw(st.integers(0, nrows - 1)), data.draw(st.integers(0, nrows - 1))
        a, b, k = data.draw(entry), data.draw(entry), data.draw(st.sampled_from((2, -3, 10)))
        rows.append([k * (a * x + b * y) for x, y in zip(rows[i], rows[j])])
    mat = RationalMatrix(rows)
    expected = sympy.Matrix(rows).rank()
    assert mat.rank() == mirrored_rank(mat) == expected
