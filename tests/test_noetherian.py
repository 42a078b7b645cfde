"""Harness tests: leading-coefficient extraction and the left-ideal experiment."""

from random import Random

import pytest

from skewlab import noetherian
from skewlab.maps import CounterexampleSigma, IdentityMap, ZeroMap
from skewlab.noetherian import (
    POLY2,
    CounterexampleConfig,
    counterexample_context,
    counterexample_witness,
    leading_coeff_ideal,
    sigma_ideal_image_check,
)
from skewlab.rings import (
    monomial_element,
    monomial_ideal_member,
    one,
    scalar,
)
from skewlab.skewpoly import OreContext, OrePoly, right_divide


def mono2(a, b, c=1):
    return monomial_element(POLY2, (a, b), c)


def plain_ctx():
    return OreContext(POLY2, IdentityMap(POLY2), ZeroMap(POLY2))


def test_leading_coeff_ideal_examples():
    ctx = plain_ctx()
    y, z = mono2(1, 0), mono2(0, 1)
    g1 = OrePoly.from_terms(ctx, [(2, y), (0, one(POLY2))])  # Y X^2 + 1
    g2 = OrePoly.monomial(ctx, z, 2)  # Z X^2
    assert leading_coeff_ideal([g1, g2]) == [y, z]
    assert leading_coeff_ideal([OrePoly.x(ctx, 3)]) == [one(POLY2)]
    p = OrePoly.from_terms(ctx, [(3, y)])
    p_lower = p + OrePoly.constant(ctx, z)
    assert leading_coeff_ideal([p, p_lower]) == [y]
    with pytest.raises(ValueError):
        leading_coeff_ideal([p, OrePoly.zero(ctx)])
    with pytest.raises(ValueError):
        leading_coeff_ideal([])


def test_leading_coeff_ideal_feeds_right_division():
    from skewlab.maps import ConjugationMap
    from skewlab.rings import QUATERNIONS_Q, basis_element
    from skewlab.skewpoly import random_poly

    ctx = OreContext(
        QUATERNIONS_Q, ConjugationMap(QUATERNIONS_Q), ZeroMap(QUATERNIONS_Q)
    )
    rng = Random(40)
    gens = [
        OrePoly.monomial(ctx, basis_element(QUATERNIONS_Q, 2), 1),
        OrePoly.from_terms(ctx, [(2, basis_element(QUATERNIONS_Q, 1)),
                                 (0, one(QUATERNIONS_Q))]),
    ]
    leads = leading_coeff_ideal(gens)
    assert len(leads) == 2
    for _ in range(50):
        p = random_poly(ctx, rng, (0, 5))
        trace = right_divide(p, gens)
        if p.degree() >= min(g.degree() for g in gens):
            assert len(trace.steps) >= 1
        assert trace.replay(gens) == p


def test_sigma_image_of_single_product():
    ctx = counterexample_context()
    x = OrePoly.x(ctx)
    yp = OrePoly.constant(ctx, mono2(1, 0))
    prod = x * yp  # = sigma(Y) X = Y^2 X
    assert prod == OrePoly.monomial(ctx, mono2(2, 0), 1)
    assert monomial_ideal_member(prod.leading_coefficient(), [mono2(2, 0)])


def test_sigma_ideal_image_check_exhaustive():
    report = sigma_ideal_image_check(samples=50, bound=12)
    assert report.passed
    assert report.trials >= 12 * 13 + 50


def test_sigma_ideal_image_monomial_case():
    sigma = CounterexampleSigma(POLY2)
    assert sigma.apply(mono2(1, 4)) == mono2(2, 4)
    assert monomial_ideal_member(mono2(2, 4), [mono2(2, 0)])


def test_counterexample_witness_corroborates():
    cfg = CounterexampleConfig(
        max_generator_degree=1,
        trials=500,
        multiplier_degree_bound=3,
        coefficient_degree_bound=3,
        seed=42,
    )
    report = counterexample_witness(cfg)
    assert report.y_outside_y_squared
    assert report.violations == []
    assert not report.vacuous
    assert report.corroborated
    assert "corroborated" in report.conclusion()


def test_counterexample_witness_is_reproducible():
    cfg = CounterexampleConfig(1, 50, 2, 2, seed=7)
    a = counterexample_witness(cfg).to_dict()
    b = counterexample_witness(cfg).to_dict()
    assert a == b


def test_counterexample_witness_vacuous_flag():
    # seed chosen so no sampled product reaches the critical degree m + 1
    cfg = CounterexampleConfig(
        max_generator_degree=9,
        trials=5,
        multiplier_degree_bound=1,
        coefficient_degree_bound=1,
        seed=15,
    )
    report = counterexample_witness(cfg)
    assert report.vacuous
    assert report.corroborated
    assert "vacuous" in report.conclusion()


def test_violations_write_the_combination_that_produced_them(monkeypatch):
    # Descriptions are rendered only for violations; each must still read as
    # the sampled left combination, written the way the harness always has.
    sampled = []

    def recording(name):
        make = getattr(noetherian, name)

        def wrapped(*args):
            sampled.append(make(*args))
            return sampled[-1]

        monkeypatch.setattr(noetherian, name, wrapped)

    class RecordingRandom(Random):
        def choice(self, seq):
            sampled.append(super().choice(seq))
            return sampled[-1]

    recording("_random_ideal_generator")
    recording("_random_multiplier")
    monkeypatch.setattr(noetherian, "Random", RecordingRandom)
    # Every critical term is now a violation, and Y lies outside (Y^2).
    monkeypatch.setattr(noetherian, "monomial_ideal_member", lambda c, gens: False)
    report = counterexample_witness(CounterexampleConfig(2, 40, 2, 2, seed=7))
    expected, rest = set(), sampled
    while rest:
        p, shape, *rest = rest
        if shape == "s*p":
            s, *rest = rest
            expected.add(f"({s})*({p})")
        elif shape == "t1*(t2*p)":
            t1, t2, *rest = rest
            expected.add(f"({t1})*(({t2})*({p}))")
        else:
            t1, t2, *rest = rest
            expected.add(f"(({t1})*({t2}))*({p})")
    described = {v.description for v in report.violations}
    assert described <= expected
    assert len(described) > 20
    assert report.violations == sorted(
        report.violations, key=lambda v: (v.term_degree, v.coefficient, v.description)
    )


def test_config_validation():
    with pytest.raises(ValueError):
        CounterexampleConfig(0, 10, 1, 1)
    with pytest.raises(ValueError):
        CounterexampleConfig(1, 0, 1, 1)
    with pytest.raises(ValueError, match="coefficient_degree_bound must be an integer"):
        CounterexampleConfig(1, 10, 1, 2.5)
