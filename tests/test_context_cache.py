"""Contexts run their entry check once per equal ``(ring, maps)`` key.

``LaurentContext`` and ``IteratedLaurentContext`` both run
``skewpoly._check_sigmas``: each sigma's inverse round trip, both ways, and
the commutation of every two sigmas, on the ring's basis values. The check
draws nothing, and a pass is cached on the ring and the maps, so these tests
pin what the cache may skip (a repeat of a passed check on an equal key) and
what it may not (any failing check, any map of another class, even one with
the same kind, and any map whose stored parameters differ). They read the
cache's own counts: a miss is a check that ran, a hit one that was skipped.
"""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from test_rings import ZERO_TEST_RINGS

from skewlab import skewpoly
from skewlab.config import load_session
from skewlab.maps import (
    CompositionMap,
    ConjugationMap,
    CounterexampleSigma,
    IdentityMap,
    PowerMap,
    SigmaQComplex,
    TwistMap,
)
from skewlab.rings import COMPLEX_Q, SEDENIONS_Q, Poly2, RingElement
from skewlab.skewpoly import (
    ContextMismatch,
    IteratedLaurentContext,
    LaurentContext,
    LaurentPoly,
)

P2 = Poly2()
CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.fixture(autouse=True)
def empty_cache():
    skewpoly._check_sigmas.cache_clear()


def checks():
    """``(misses, hits)`` of the entry check's cache since it was emptied."""
    info = skewpoly._check_sigmas.cache_info()
    return info.misses, info.hits


@pytest.fixture
def no_draws(monkeypatch):
    """Make every random draw, and ``random_element`` in ``skewpoly``, raise."""

    def refuse(*args):
        raise AssertionError("an entry check drew a random value")

    monkeypatch.setattr(skewpoly, "random_element", refuse)
    monkeypatch.setattr(random.Random, "getrandbits", refuse)
    monkeypatch.setattr(random.Random, "random", refuse)


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


def test_equal_contexts_check_once(no_draws):
    first = LaurentContext(SEDENIONS_Q, ConjugationMap(SEDENIONS_Q))
    second = LaurentContext(SEDENIONS_Q, ConjugationMap(SEDENIONS_Q))
    assert first == second
    assert checks() == (1, 1)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_shipped_configs_build_their_contexts_without_drawing(path, no_draws):
    load_session(path)
    load_session(path)
    misses, hits = checks()
    assert misses == hits


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


def test_maps_compare_by_their_stored_parameters():
    two, three = Tagged(SigmaQComplex(2)), Tagged(SigmaQComplex(3))
    assert two != three
    assert two == Tagged(SigmaQComplex(2))
    first = LaurentContext(COMPLEX_Q, two)
    assert checks() == (1, 0)
    LaurentContext(COMPLEX_Q, Tagged(SigmaQComplex(2)))
    assert checks() == (1, 1)
    second = LaurentContext(COMPLEX_Q, three)
    assert checks() == (2, 1)
    with pytest.raises(ContextMismatch):
        LaurentPoly.x(first) + LaurentPoly.x(second)


class FiveInverse(SigmaQComplex):
    """sigma_q with an inverse that scales the imaginary part by 5."""

    def inverse_value(self, v):
        return self.domain.scale_imaginary_value(v, Fraction(5))


def test_both_context_kinds_check_each_inverse_round_trip_on_a_basis(no_draws):
    for sigmas in ((FiveInverse(2),), (SigmaQComplex(3), FiveInverse(2))):
        index = len(sigmas) - 1
        with pytest.raises(
            ValueError, match=f"^sigma {index} inverse round trip failed at i$"
        ):
            IteratedLaurentContext(COMPLEX_Q, sigmas)
    with pytest.raises(ValueError, match="^sigma 0 inverse round trip failed at i$"):
        LaurentContext(COMPLEX_Q, FiveInverse(2))
    assert checks() == (3, 0)
    for _ in range(2):
        IteratedLaurentContext(COMPLEX_Q, (SigmaQComplex(2), SigmaQComplex(3)))
    assert checks() == (4, 1)


class Bump(IdentityMap):
    """The identity, except that it scales the raw values ``b`` and ``b/q``
    by ``q``, and its inverse the raw values ``b`` and ``q*b`` by ``1/q``. It
    fixes 1 when ``b`` is not 1 and undoes itself on every basis value."""

    def __init__(self, domain, b, q):
        super().__init__(domain)
        self.b, self.q = b, Fraction(q)

    def value(self, v):
        scale = self.domain.scale_value
        return scale(v, self.q) if v in (self.b, scale(self.b, 1 / self.q)) else v

    def inverse_value(self, v):
        scale = self.domain.scale_value
        return scale(v, 1 / self.q) if v in (self.b, scale(self.b, self.q)) else v


class WrongInverse(Bump):
    """The identity, bundled with a ``Bump``'s inverse: ``sigma^-1(sigma(b))``
    is ``b/q``, and every other basis value round-trips."""

    def value(self, v):
        return v


class OneWayInverse(Bump):
    """A ``Bump`` whose inverse leaves ``b`` alone: ``sigma^-1(sigma(b))`` is
    ``b``, but ``sigma(sigma^-1(b))`` is ``q*b``."""

    def inverse_value(self, v):
        return v if v == self.b else super().inverse_value(v)


@pytest.mark.parametrize("name", sorted(ZERO_TEST_RINGS))
def test_checks_fail_at_the_one_basis_value_where_the_maps_break(name, no_draws):
    d = ZERO_TEST_RINGS[name]
    b = d.basis_values()[-1]
    wrong = WrongInverse(d, b, 2)
    if b == d.one_value():  # the only basis value, where the unit check fails
        with pytest.raises(ValueError, match=r"^sigma\^-1\(1\) != 1$"):
            LaurentContext(d, wrong)
        with pytest.raises(ValueError, match=r"^sigma\^-1\(1\) != 1$"):
            IteratedLaurentContext(d, (IdentityMap(d), wrong))
        return  # and sigmas that fix 1 commute on 1
    at = re.escape(f"inverse round trip failed at {RingElement(d, b)}")
    for broken in (wrong, OneWayInverse(d, b, 2)):
        with pytest.raises(ValueError, match=f"^sigma 0 {at}$"):
            LaurentContext(d, broken)
        with pytest.raises(ValueError, match=f"^sigma 1 {at}$"):
            IteratedLaurentContext(d, (IdentityMap(d), broken))
    pair = (Bump(d, b, 2), Bump(d, b, 3))
    for s in pair:
        LaurentContext(d, s)
    at = re.escape(f"sigmas 0 and 1 fail to commute at {RingElement(d, b)}")
    with pytest.raises(ValueError, match=f"^{at}$"):
        IteratedLaurentContext(d, pair)
