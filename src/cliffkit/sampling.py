"""Seeded random inputs for the identity suites.

Structural sets stay rational: random sets compose signed permutations
with Givens rotations whose cosine/sine pairs come from the tangent
half-angle map t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)), so orthonormality is
exact.  All generators take an explicit `random.Random` so that a fixed
seed reproduces every suite byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Multivector
from .fields import PolyField
from .structural import StructuralSet

HALF_ANGLE_POOL = [
    Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4),
    Fraction(3, 4), Fraction(1, 5), Fraction(2, 5), Fraction(3, 5),
]


def rotation_pair(t: Fraction) -> tuple[Fraction, Fraction]:
    """Exact (cos, sin) with cos^2 + sin^2 = 1 from one rational parameter."""
    denom = 1 + t * t
    return (1 - t * t) / denom, 2 * t / denom


def rand_fraction(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        q = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if q or not nonzero:
            return q


def rand_multivector(rng: random.Random, m: int, max_terms: int = 4, nonzero: bool = False) -> Multivector:
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            terms[rng.randrange(1 << m)] = rand_fraction(rng)
        mv = Multivector(m, terms)
        if mv or not nonzero:
            return mv


def rand_multi_index(rng: random.Random, m: int, max_degree: int) -> tuple[int, ...]:
    degree = rng.randint(0, max_degree)
    alpha = [0] * m
    for _ in range(degree):
        alpha[rng.randrange(m)] += 1
    return tuple(alpha)


def rand_polyfield(rng: random.Random, m: int, max_degree: int = 3) -> PolyField:
    f = PolyField.zero(m)
    for _ in range(rng.randint(1, 4)):
        alpha = rand_multi_index(rng, m, max_degree)
        f = f + PolyField.monomial(m, alpha, rand_multivector(rng, m, max_terms=2))
    return f


def rand_scalar_polyfield(rng: random.Random, m: int) -> PolyField:
    f = PolyField.zero(m)
    for _ in range(rng.randint(1, 3)):
        alpha = rand_multi_index(rng, m, 3)
        f = f + PolyField.monomial(m, alpha, Multivector.scalar(m, rand_fraction(rng, nonzero=True)))
    return f


def rand_signed_permutation(rng: random.Random, m: int) -> StructuralSet:
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    signed = [p if rng.random() < 0.5 else -p for p in perm]
    return StructuralSet.signed_permutation(m, signed)


def rand_rational_structural_set(rng: random.Random, m: int) -> StructuralSet:
    """Signed permutation composed with two exact rational plane rotations."""
    rows = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    if m >= 2:
        for _ in range(2):
            i, j = rng.sample(range(m), 2)
            c, s = rotation_pair(rng.choice(HALF_ANGLE_POOL))
            row_i = [c * a - s * b for a, b in zip(rows[i], rows[j])]
            row_j = [s * a + c * b for a, b in zip(rows[i], rows[j])]
            rows[i], rows[j] = row_i, row_j
    rng.shuffle(rows)
    rows = [row if rng.random() < 0.5 else [-x for x in row] for row in rows]
    return StructuralSet.from_matrix(rows)


def rand_structural_pair(rng: random.Random, m: int) -> tuple[StructuralSet, StructuralSet]:
    return rand_rational_structural_set(rng, m), rand_rational_structural_set(rng, m)
