"""The one reduction engine against the two procedures it replaced.

``skewpoly.reduce_step`` cancels the lead term of a polynomial (its highest)
or of a series window (its lowest). The references below are the right
division loop and the series reduction step that came before it, each with
its own generator pick and multiplier. For every seed the engine must take
the same steps and leave the same remainder, so ``divide`` output and the
benchmark's reduction digests cannot move.
"""

from pathlib import Path
from random import Random

import pytest

from skewlab.config import load_session
from skewlab.maps import ConjugationMap, IdentityMap, ZeroMap, power_apply
from skewlab.rings import QUATERNIONS_Q, RATIONALS, random_element
from skewlab.series import (
    TruncatedSeries,
    agree_below,
    random_series,
    replay_reduction,
    series_reduce_chain,
    shift_scale,
)
from skewlab.skewpoly import (
    LaurentContext,
    OreContext,
    OrePoly,
    random_poly,
    right_divide,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SEEDS = range(50)


# --- reference procedures ------------------------------------------------------

def ref_right_divide(p, generators):
    ctx = p.context
    min_deg = min(g.degree() for g in generators)
    steps = []
    work = p
    while work.terms and work.degree() >= min_deg:
        n = work.degree()
        r = work.leading_coefficient()
        idx = next(i for i, g in enumerate(generators) if g.degree() <= n)
        g = generators[idx]
        d = g.degree()
        c = g.leading_coefficient()
        s = power_apply(ctx.sigma, -d, c.inverse() * r)
        work = work - g * OrePoly.monomial(ctx, s, n - d)
        steps.append((idx, n - d, s))
    return steps, work


def ref_series_reduce_step(q, generators):
    ctx = q.context
    oq = q.order()
    pick = None
    for idx, g in enumerate(generators):
        og = g.order()
        if og is not None and og <= oq:
            pick = idx
            break
    if pick is None:
        raise ValueError("no generator of order <= order of the input")
    g = generators[pick]
    d = g.order()
    c = g.leading_coefficient()
    r = q.leading_coefficient()
    k = power_apply(ctx.sigma, -d, c.inverse() * r)
    shift = oq - d
    return q - shift_scale(g, k, shift), (pick, shift, k)


def ref_series_reduce_chain(q, generators):
    steps = []
    work = q
    while work.order() is not None:
        work, step = ref_series_reduce_step(work, generators)
        steps.append(step)
    return steps, work


def as_tuples(steps):
    return [(s.generator_index, s.shift, s.multiplier) for s in steps]


# --- right division --------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_right_divide_matches_the_reference_loop(seed):
    ctx = load_session(CONFIGS / "quaternion_conjugation_ore.json").target.context
    rng = Random(seed)
    gens = []
    while not gens:
        gens = [g for g in (random_poly(ctx, rng, (0, 3)) for _ in range(3)) if g]
    p = random_poly(ctx, rng, (0, 8), 5)
    trace = right_divide(p, gens)
    steps, remainder = ref_right_divide(p, gens)
    assert as_tuples(trace.steps) == steps
    assert trace.remainder == remainder
    assert trace.replay(gens) == p


# --- series reduction ------------------------------------------------------------

def quaternion_power_ctx():
    q = QUATERNIONS_Q
    return OreContext(q, ConjugationMap(q), ZeroMap(q))


def quaternion_laurent_ctx():
    return LaurentContext(QUATERNIONS_Q, ConjugationMap(QUATERNIONS_Q))


def rational_power_ctx():
    return OreContext(RATIONALS, IdentityMap(RATIONALS), ZeroMap(RATIONALS))


SERIES_CONTEXTS = {
    "rational-power": (rational_power_ctx, 0),
    "quaternion-power": (quaternion_power_ctx, 0),
    "quaternion-laurent": (quaternion_laurent_ctx, -3),
}


def drawn_generators(ctx, rng, low, precision):
    """One to three windows, the first of order ``low``, so that no chain
    from a window of order ``low`` or above gets stuck."""
    gens = []
    for i in range(rng.randint(1, 3)):
        lead = random_element(ctx.ring, rng)
        while lead.is_zero():
            lead = random_element(ctx.ring, rng)
        d = low if i == 0 else rng.randint(low, 2)
        extra = [
            (rng.randint(d + 1, precision + 1), random_element(ctx.ring, rng))
            for _ in range(rng.randint(0, 2))
        ]
        gens.append(TruncatedSeries.from_terms(ctx, [(d, lead)] + extra, precision))
    return gens


@pytest.mark.parametrize("name", sorted(SERIES_CONTEXTS))
@pytest.mark.parametrize("seed", SEEDS)
def test_series_reduce_chain_matches_the_reference_step(name, seed):
    make_ctx, low = SERIES_CONTEXTS[name]
    ctx = make_ctx()
    rng = Random(seed)
    precision = rng.randint(4, 10)
    gens = drawn_generators(ctx, rng, low, precision)
    q = random_series(ctx, rng, precision)
    if low < 0:
        q = q + TruncatedSeries.from_terms(
            ctx, [(low, random_element(ctx.ring, rng))], precision
        )
    steps, remainder = series_reduce_chain(q, gens)
    ref_steps, ref_remainder = ref_series_reduce_chain(q, gens)
    assert as_tuples(steps) == ref_steps
    assert remainder == ref_remainder
    rebuilt = replay_reduction(gens, steps, remainder)
    assert agree_below(rebuilt, q, min(rebuilt.precision, q.precision))
