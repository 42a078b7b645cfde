"""Contexts run their sampled spot checks once per equal ``(ring, maps)`` key.

``LaurentContext`` checks the inverse round trip and ``IteratedLaurentContext``
checks that its sigmas commute, each on a ``Random(0)`` sample. Both results
are cached on the ring and the maps, so these tests pin what the cache may
skip (a repeat of a passed check on an equal key) and what it may not (any
failing check, any map of another class, even one with the same kind, and
any map whose stored parameters differ). ``IteratedLaurentContext`` also
checks each sigma's inverse round trip on the ring's basis values, which
draws nothing.
"""

from fractions import Fraction

import pytest

from skewlab import skewpoly
from skewlab.maps import (
    CompositionMap,
    ConjugationMap,
    CounterexampleSigma,
    IdentityMap,
    PowerMap,
    SigmaQComplex,
    TwistMap,
)
from skewlab.rings import COMPLEX_Q, SEDENIONS_Q, Poly2, random_element
from skewlab.skewpoly import (
    ContextMismatch,
    IteratedLaurentContext,
    LaurentContext,
    LaurentPoly,
)

P2 = Poly2()


@pytest.fixture(autouse=True)
def empty_caches():
    skewpoly._check_round_trip.cache_clear()
    skewpoly._check_commuting.cache_clear()


class BrokenInverse(ConjugationMap):
    """Conjugation that bundles the identity as its inverse."""

    def inverse_value(self, v):
        return v


class SwapVariables(IdentityMap):
    """Claims what the identity claims, but swaps the two variables."""

    def value(self, v):
        terms = self.domain.flat_terms(v)
        return self.domain.canon([((b, y), c) for (y, b), c in terms])

    inverse_value = value


class Tagged(TwistMap):
    """Forwards to ``base`` under its kind; stores ``base`` as its parameter
    and leaves equality to the base class."""

    def __init__(self, base: TwistMap):
        self.base = base
        self.kind = base.kind
        super().__init__(base.domain, base.claims, base.has_inverse)

    def value(self, v):
        return self.base.value(v)

    def inverse_value(self, v):
        return self.base.inverse_value(v)


@pytest.fixture
def draws(monkeypatch):
    """The rings of the elements the spot checks sample, in order."""
    seen = []

    def counting(ring, rng):
        seen.append(ring)
        return random_element(ring, rng)

    monkeypatch.setattr(skewpoly, "random_element", counting)
    return seen


def test_equal_contexts_sample_once(draws):
    first = LaurentContext(SEDENIONS_Q, ConjugationMap(SEDENIONS_Q))
    second = LaurentContext(SEDENIONS_Q, ConjugationMap(SEDENIONS_Q))
    assert first == second
    assert len(draws) == 200


def test_subclass_with_broken_inverse_is_checked_after_its_base():
    LaurentContext(COMPLEX_Q, ConjugationMap(COMPLEX_Q))
    assert BrokenInverse(COMPLEX_Q) != ConjugationMap(COMPLEX_Q)
    with pytest.raises(ValueError, match="round trip failed"):
        LaurentContext(COMPLEX_Q, BrokenInverse(COMPLEX_Q))


def test_failing_contexts_raise_on_every_construction():
    for _ in range(3):
        with pytest.raises(ValueError, match="round trip failed"):
            LaurentContext(COMPLEX_Q, BrokenInverse(COMPLEX_Q))
        with pytest.raises(ValueError, match="fail to commute"):
            IteratedLaurentContext(P2, (CounterexampleSigma(P2), SwapVariables(P2)))


def test_non_commuting_sigmas_are_checked_after_commuting_ones():
    IteratedLaurentContext(P2, (CounterexampleSigma(P2), IdentityMap(P2)))
    assert SwapVariables(P2) != IdentityMap(P2)
    with pytest.raises(ValueError, match="sigmas 0 and 1 fail to commute"):
        IteratedLaurentContext(P2, (CounterexampleSigma(P2), SwapVariables(P2)))


def test_composite_maps_compare_their_parts_class_exactly():
    base, sub = ConjugationMap(COMPLEX_Q), BrokenInverse(COMPLEX_Q)
    ident = IdentityMap(COMPLEX_Q)
    assert PowerMap(base, 1) == PowerMap(ConjugationMap(COMPLEX_Q), 1)
    assert hash(PowerMap(base, 1)) == hash(PowerMap(ConjugationMap(COMPLEX_Q), 1))
    assert PowerMap(base, 1) != PowerMap(sub, 1)
    assert CompositionMap([base, ident]) == CompositionMap([ConjugationMap(COMPLEX_Q), ident])
    assert CompositionMap([base, ident]) != CompositionMap([sub, ident])
    LaurentContext(COMPLEX_Q, PowerMap(base, 1))
    LaurentContext(COMPLEX_Q, CompositionMap([base, ident]))
    with pytest.raises(ValueError, match="round trip failed"):
        LaurentContext(COMPLEX_Q, PowerMap(sub, 1))
    with pytest.raises(ValueError, match="round trip failed"):
        LaurentContext(COMPLEX_Q, CompositionMap([sub, ident]))


def test_maps_compare_by_their_stored_parameters(draws):
    two, three = Tagged(SigmaQComplex(2)), Tagged(SigmaQComplex(3))
    assert two != three
    assert two == Tagged(SigmaQComplex(2))
    first = LaurentContext(COMPLEX_Q, two)
    assert len(draws) == 200
    LaurentContext(COMPLEX_Q, Tagged(SigmaQComplex(2)))
    assert len(draws) == 200
    second = LaurentContext(COMPLEX_Q, three)
    assert len(draws) == 400
    with pytest.raises(ContextMismatch):
        LaurentPoly.x(first) + LaurentPoly.x(second)


class FiveInverse(SigmaQComplex):
    """sigma_q with an inverse that scales the imaginary part by 5."""

    def inverse_value(self, v):
        return self.domain.scale_imaginary_value(v, Fraction(5))


def test_iterated_contexts_check_each_inverse_round_trip_on_a_basis(draws):
    with pytest.raises(ValueError, match="round trip failed"):
        LaurentContext(COMPLEX_Q, FiveInverse(2))
    sampled = len(draws)
    for sigmas in ((FiveInverse(2),), (SigmaQComplex(3), FiveInverse(2))):
        index = len(sigmas) - 1
        with pytest.raises(
            ValueError, match=f"^sigma {index} inverse round trip failed at i$"
        ):
            IteratedLaurentContext(COMPLEX_Q, sigmas)
    # The basis pass draws nothing: the span of the basis holds every sample.
    assert len(draws) == sampled
    IteratedLaurentContext(COMPLEX_Q, (SigmaQComplex(2), SigmaQComplex(3)))
    assert len(draws) == sampled + 100  # the commuting check alone
