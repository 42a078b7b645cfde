"""``rings.draw``, the library's one integer draw, against ``Random.randint``.

Every sampler draws its integers through ``draw`` (and the fused fraction
pair ``_draw_ratio``) instead of ``randint``. Both must give ``randint``'s
values from the same stream position and leave the generator in the same
state, so fixed-seed output cannot move. CI runs these on every supported
Python, so a change to CPython's ``randint`` fails here first.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewlab.rings import (
    CayleyDickson,
    Matrix,
    _draw_ratio,
    _sample_fraction,
    _vec_from_ratios,
    draw,
)

SEEDS = range(20)
DRAWS = 200

# Every (lo, hi) the library passes to ``draw``.
RANGES = sorted({
    (-9, 9), (1, 9),  # fractions and the Q[Y, Z] coefficients
    (0, 4), (0, 3),  # Poly1 and Poly2 exponents, Ore exponents
    (-3, 3), (-2, 2),  # Laurent and iterated Laurent exponents
    (0, 6), (-3, 4),  # the division-roundtrip and series-precision bounds
    *((least, most) for most in (3, 4) for least in (0, 1, most)),  # term counts
    *((0, p - 1) for p in (1, 8, 4096)),  # series exponents below the precision
    *((low, bound) for low in (0, 1) for bound in range(1, 6)),  # Q[Y, Z] exponents
})


def same_stream(new, ref, seed, count=DRAWS):
    a, b = Random(seed), Random(seed)
    assert [new(a) for _ in range(count)] == [ref(b) for _ in range(count)], seed
    assert a.getstate() == b.getstate(), seed


@pytest.mark.parametrize("lo,hi", RANGES)
def test_draw_is_randint_on_every_library_range(lo, hi):
    for seed in SEEDS:
        same_stream(lambda r: draw(r, lo, hi), lambda r: r.randint(lo, hi), seed)


def test_fused_ratio_pair_is_two_randints():
    for seed in SEEDS:
        same_stream(_draw_ratio, lambda r: (r.randint(-9, 9), r.randint(1, 9)), seed)
        same_stream(
            _sample_fraction,
            lambda r: Fraction(r.randint(-9, 9), r.randint(1, 9)),
            seed,
        )


@pytest.mark.parametrize(
    "ring",
    [CayleyDickson(4), Matrix(3)],
    ids=["sedenions", "matrix3"],
)
def test_coordinate_samples_keep_their_randint_draws(ring):
    def ref(r):
        return _vec_from_ratios(
            [(r.randint(-9, 9), r.randint(1, 9)) for _ in range(ring.dim)]
        )

    for seed in SEEDS:
        same_stream(ring.sample_value, ref, seed, count=20)


@given(
    seed=st.integers(0, 2**64),
    lo=st.integers(-(2**80), 2**80),
    width=st.one_of(st.integers(1, 2**16), st.integers(2**64, 2**100)),
)
def test_draw_is_randint_for_any_range(seed, lo, width):
    hi = lo + width - 1
    a, b = Random(seed), Random(seed)
    assert draw(a, lo, hi) == b.randint(lo, hi)
    assert a.random() == b.random()


class _CountingRandom(Random):
    calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def test_empty_range_is_refused_before_any_draw():
    rng = _CountingRandom(3)
    state = rng.getstate()
    with pytest.raises(ValueError, match="empty range"):
        draw(rng, 1, 0)
    with pytest.raises(ValueError):
        Random(3).randint(1, 0)
    assert rng.calls == 0
    assert rng.getstate() == state
