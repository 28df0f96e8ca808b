"""Seeded random inputs for the identity suites.

Structural sets stay rational: random sets compose signed permutations
with Givens rotations whose cosine/sine pairs come from the tangent
half-angle map t -> ((1-t^2)/(1+t^2), 2t/(1+t^2)).  Orthonormality is thus
exact: the sets are composed on integer rows over one denominator, each
vector is reduced once, and the set is built through `StructuralSet._of`.
Random multivectors are built the same way, from their integer form
(`_as_integers`) through `Multivector._of`; a random field is the flat
sum of its monomials, `PolyField._sum`, which builds through `PolyField._of`.
All generators take an explicit `random.Random` so that a fixed seed
reproduces every suite byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Multivector, _as_integers, _lowest
from .fields import PolyField
from .structural import StructuralSet

HALF_ANGLE_POOL = [
    Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4),
    Fraction(3, 4), Fraction(1, 5), Fraction(2, 5), Fraction(3, 5),
]


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
        mv = Multivector._of(m, *_as_integers({mask: c for mask, c in terms.items() if c}))
        if mv or not nonzero:
            return mv


def rand_multi_index(rng: random.Random, m: int, max_degree: int) -> tuple[int, ...]:
    degree = rng.randint(0, max_degree)
    alpha = [0] * m
    for _ in range(degree):
        alpha[rng.randrange(m)] += 1
    return tuple(alpha)


def rand_polyfield(rng: random.Random, m: int, max_degree: int = 3) -> PolyField:
    """The sum of 1 to 4 monomials, each a random multi-index drawn before its random coefficient."""
    terms = [(rand_multi_index(rng, m, max_degree), rand_multivector(rng, m, max_terms=2))
             for _ in range(rng.randint(1, 4))]
    return PolyField._sum(m, terms)


def rand_scalar_polyfield(rng: random.Random, m: int) -> PolyField:
    terms = [(rand_multi_index(rng, m, 3), Multivector._of(m, *_as_integers({0: rand_fraction(rng, nonzero=True)})))
             for _ in range(rng.randint(1, 3))]
    return PolyField._sum(m, terms)


def rand_signed_permutation(rng: random.Random, m: int) -> StructuralSet:
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    signed = [p if rng.random() < 0.5 else -p for p in perm]
    return StructuralSet.signed_permutation(m, signed)


def rand_rational_structural_set(rng: random.Random, m: int) -> StructuralSet:
    """Signed permutation composed with two exact rational plane rotations.

    The rows are integers over one denominator.  The rotation by t = p/q is
    (c, s) = (q^2 - p^2, 2pq) over n = q^2 + p^2: rows i and j become
    c r_i - s r_j and s r_i + c r_j, and every other row and the denominator
    are multiplied by n.
    """
    rows = [[int(i == k) for k in range(m)] for i in range(m)]
    den = 1
    if m >= 2:
        for _ in range(2):
            i, j = rng.sample(range(m), 2)
            t = rng.choice(HALF_ANGLE_POOL)
            p, q = t.numerator, t.denominator
            c, s, n = q * q - p * p, 2 * p * q, q * q + p * p
            r_i, r_j = rows[i], rows[j]
            rows = [[x * n for x in row] for row in rows]
            rows[i] = [c * x - s * y for x, y in zip(r_i, r_j)]
            rows[j] = [s * x + c * y for x, y in zip(r_i, r_j)]
            den *= n
    rng.shuffle(rows)
    vectors = []
    for row in rows:
        sign = 1 if rng.random() < 0.5 else -1
        vectors.append(Multivector._of(m, *_lowest({1 << k: sign * x for k, x in enumerate(row) if x}, den)))
    return StructuralSet._of(vectors)


def rand_structural_pair(rng: random.Random, m: int) -> tuple[StructuralSet, StructuralSet]:
    return rand_rational_structural_set(rng, m), rand_rational_structural_set(rng, m)
