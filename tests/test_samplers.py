"""The term samplers against the loops they replaced.

Every sampler of the library draws a count and then that many pairs through
``rings.random_terms``. The references below are the per-sampler loops that
came before it. Each sampler must give equal values to its reference for
every seed and leave the generator in the same state, so fixed-seed output
(``tests/golden/cli.json``, the check suites' witnesses) cannot move.
"""

from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from skewlab import noetherian
from skewlab.config import load_session
from skewlab.maps import IdentityMap, SigmaQComplex
from skewlab.noetherian import CounterexampleConfig, counterexample_context
from skewlab.rings import (
    COMPLEX_Q,
    Poly1,
    Poly2,
    _sample_fraction,
    element,
    monomial_element,
    random_element,
)
from skewlab.series import TruncatedSeries, random_series
from skewlab.skewpoly import (
    IteratedLaurentContext,
    LaurentContext,
    LaurentPoly,
    MultiLaurentPoly,
    OreContext,
    OrePoly,
    random_poly,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SEEDS = range(50)


# --- reference loops -----------------------------------------------------------

def ref_ore_poly(ctx, rng, max_degree=4, max_terms=3):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        terms.append((rng.randint(0, max_degree), random_element(ctx.ring, rng)))
    return OrePoly.from_terms(ctx, terms)


def ref_laurent_poly(ctx, rng, min_exp=-3, max_exp=3, max_terms=3):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        terms.append((rng.randint(min_exp, max_exp), random_element(ctx.ring, rng)))
    return LaurentPoly.from_terms(ctx, terms)


def ref_multi_poly(ctx, rng, max_abs_exp=2, max_terms=3):
    width = len(ctx.sigmas)
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(-max_abs_exp, max_abs_exp) for _ in range(width))
        terms.append((exps, random_element(ctx.ring, rng)))
    return MultiLaurentPoly.from_terms(ctx, terms)


def ref_series(ctx, rng, precision, min_exp=0, max_terms=3):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        terms.append(
            (rng.randint(min_exp, precision - 1), random_element(ctx.ring, rng))
        )
    return TruncatedSeries.from_terms(ctx, terms, precision)


def ref_poly_ring_sample(ring, rng):
    # The right-hand side is drawn first: coefficient, then exponent.
    terms = {}
    for _ in range(rng.randint(0, 3)):
        terms[ring._sample_exponent(rng)] = _sample_fraction(rng)
    return ring.canon(terms)


def ref_coefficient(rng, bound, low=0):
    terms = []
    for _ in range(rng.randint(low, 3)):
        terms.append(
            (
                (rng.randint(low, bound), rng.randint(0, bound)),
                Fraction(rng.randint(-9, 9)),
            )
        )
    return element(noetherian.POLY2, terms)


def ref_ideal_generator(ctx, rng, cfg):
    while True:
        terms = []
        for e in range(cfg.max_generator_degree + 1):
            if rng.random() < 0.6:
                c = ref_coefficient(rng, cfg.coefficient_degree_bound, 1)
                terms.append((e, c))
        p = OrePoly.from_terms(ctx, terms)
        if not p.is_zero():
            return p


def ref_multiplier(ctx, rng, cfg):
    terms = []
    for e in range(cfg.multiplier_degree_bound + 1):
        if rng.random() < 0.6:
            c = ref_coefficient(rng, cfg.coefficient_degree_bound)
            if not c.is_zero():
                terms.append((e, c))
    if not terms:
        terms = [(0, monomial_element(noetherian.POLY2, (0, 0), 1))]
    return OrePoly.from_terms(ctx, terms)


# --- the pins ------------------------------------------------------------------

def same_draws(new, ref):
    """``new`` and ``ref`` give equal values and consume equal draws."""
    for seed in SEEDS:
        a, b = Random(seed), Random(seed)
        assert new(a) == ref(b), seed
        assert a.getstate() == b.getstate(), seed


def _context(name):
    return load_session(CONFIGS / f"{name}.json").target.context


SHIPPED = sorted(p.stem for p in CONFIGS.glob("*.json"))
ITERATED = IteratedLaurentContext(
    COMPLEX_Q, (SigmaQComplex(2), SigmaQComplex(3), IdentityMap(COMPLEX_Q))
)


def _cases(ctx):
    """(new, reference) sampler pairs for ``ctx``, at the default bounds and
    at every bound the check suites use."""
    if isinstance(ctx, OreContext):
        return [
            (lambda r: random_poly(ctx, r), lambda r: ref_ore_poly(ctx, r)),
            (
                lambda r: random_poly(ctx, r, (0, 3)),
                lambda r: ref_ore_poly(ctx, r, max_degree=3),
            ),
            (
                lambda r: random_poly(ctx, r, (0, 6), 4),
                lambda r: ref_ore_poly(ctx, r, max_degree=6, max_terms=4),
            ),
        ]
    if isinstance(ctx, LaurentContext):
        return [
            (lambda r: random_poly(ctx, r), lambda r: ref_laurent_poly(ctx, r)),
            *(
                (
                    lambda r, lo=lo: random_poly(ctx, r, (lo, 4)),
                    lambda r, lo=lo: ref_laurent_poly(ctx, r, lo, 4),
                )
                for lo in (0, -3)
            ),
            *(
                (
                    lambda r, n=n: random_series(ctx, r, n),
                    lambda r, n=n: ref_series(ctx, r, n),
                )
                for n in (1, 5, 16)
            ),
        ]
    return [(lambda r: random_poly(ctx, r), lambda r: ref_multi_poly(ctx, r))]


@pytest.mark.parametrize("name", SHIPPED + ["iterated"])
def test_polynomial_and_series_samplers_keep_their_draws(name):
    ctx = ITERATED if name == "iterated" else _context(name)
    for new, ref in _cases(ctx):
        same_draws(new, ref)


@pytest.mark.parametrize("ring", [Poly1(), Poly2()], ids=["poly1", "poly2"])
def test_poly_ring_samples_keep_their_draws(ring):
    same_draws(ring.sample_value, lambda r: ref_poly_ring_sample(ring, r))


@pytest.mark.parametrize(
    "cfg",
    [
        CounterexampleConfig(2, 1, 4, 4),
        CounterexampleConfig(1, 1, 1, 1),
        CounterexampleConfig(4, 1, 3, 5),
    ],
)
def test_counterexample_samplers_keep_their_draws(cfg):
    ctx = counterexample_context()
    for low in (0, 1):
        same_draws(
            lambda r: noetherian._random_coefficient(r, cfg.coefficient_degree_bound, low),
            lambda r: ref_coefficient(r, cfg.coefficient_degree_bound, low),
        )
    same_draws(
        lambda r: noetherian._random_ideal_generator(ctx, r, cfg),
        lambda r: ref_ideal_generator(ctx, r, cfg),
    )
    same_draws(
        lambda r: noetherian._random_multiplier(ctx, r, cfg),
        lambda r: ref_multiplier(ctx, r, cfg),
    )
