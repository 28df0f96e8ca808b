"""Seeded random inputs: a fixed seed draws the same structural sets."""

import hashlib
import json
import random

import pytest

from cliffkit.sampling import rand_rational_structural_set, rand_structural_pair

SEEDS = range(5)
DIMENSIONS = range(1, 7)


def _draws(draw):
    """`draw(rng, m)` as matrices, for each seed in SEEDS and m in DIMENSIONS, one rng per seed."""
    out = []
    for seed in SEEDS:
        rng = random.Random(seed)
        for m in DIMENSIONS:
            sets = draw(rng, m)
            out.append([s.to_json() for s in (sets if isinstance(sets, tuple) else (sets,))])
    return out


# sha256 of the JSON text of `_draws`; a change means a fixed seed no longer reproduces its suite.
DRAW_SHA256 = {
    "rand_rational_structural_set": "5ff17781ddcedb0519928d26c25f4506336c60e4c24b813374ecdc1b2412c44d",
    "rand_structural_pair": "9fc464fdfc1de31b4c52726ff9ca10acbd30b9049db33115c2a151de0673b0a5",
}
DRAWS = {"rand_rational_structural_set": rand_rational_structural_set, "rand_structural_pair": rand_structural_pair}


@pytest.mark.parametrize("name", list(DRAW_SHA256))
def test_the_draw_is_pinned(name):
    text = json.dumps(_draws(DRAWS[name]), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DRAW_SHA256[name]
