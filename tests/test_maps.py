"""Twist-map tests: frozen monomial rules, claims, inverses, falsifiers."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.maps import (
    CoefficientDoubler,
    CompositionMap,
    ConjugationMap,
    CounterexampleSigma,
    FormalDerivative,
    IdentityMap,
    NoInverse,
    PowerMap,
    QuantumTorusSigma,
    SigmaQComplex,
    TransposeMap,
    TwistMap,
    ZeroMap,
    power_apply,
    power_table,
    verify_additive,
    verify_claims,
    verify_multiplicative,
    verify_sigma_derivation,
    verify_unit_behavior,
)
from skewlab.rings import (
    COMPLEX_Q,
    OCTONIONS_Q,
    QUATERNIONS_Q,
    RATIONALS,
    CayleyDickson,
    Matrix,
    Poly1,
    Poly2,
    RingElement,
    element,
    monomial_element,
    monomial_ideal_member,
    one,
    random_element,
    scalar,
    zero,
)

P1 = Poly1()
P2 = Poly2()


def mono2(a, b, c=1):
    return monomial_element(P2, (a, b), c)


def test_sigma_q_complex_values():
    s2 = SigmaQComplex(2)
    assert s2.apply(element(COMPLEX_Q, (3, 4))) == element(COMPLEX_Q, (3, 8))
    assert s2.apply_inverse(element(COMPLEX_Q, (3, 8))) == element(COMPLEX_Q, (3, 4))
    assert s2.apply(one(COMPLEX_Q)) == one(COMPLEX_Q)


def test_coefficient_doubler_frozen_example():
    s = CoefficientDoubler(P1)
    p = element(P1, [(0, 2), (1, -1), (2, 3)])  # 2 - Y + 3Y^2
    assert s.apply(p) == element(P1, [(0, 2), (1, -2), (2, 3)])
    assert s.apply_inverse(s.apply(p)) == p


def test_formal_derivative():
    d = FormalDerivative(P1)
    assert d.apply(one(P1)) == zero(P1)
    p = element(P1, [(0, 2), (1, -1), (3, 4)])
    assert d.apply(p) == element(P1, [(0, -1), (2, 12)])
    with pytest.raises(NoInverse):
        d.apply_inverse(p)


def test_counterexample_sigma_frozen_cases():
    s = CounterexampleSigma(P2)
    assert s.apply(mono2(1, 3)) == mono2(2, 3)  # Y Z^3 -> Y^2 Z^3
    assert s.apply(mono2(0, 1)) == mono2(0, 1)  # Z -> Z^((1+1)/2) = Z
    assert s.apply(mono2(0, 2)) == mono2(1, 0)  # Z^2 -> Y
    assert s.apply(one(P2)) == one(P2)
    # linear extension over a mixed polynomial
    p = mono2(1, 3, 5) + mono2(0, 2, -1)
    assert s.apply(p) == mono2(2, 3, 5) + mono2(1, 0, -1)


def test_counterexample_sigma_bijective_on_grid():
    s = CounterexampleSigma(P2)
    seen = set()
    for a in range(13):
        for b in range(13):
            img = s.image_exponents(a, b)
            assert img not in seen
            seen.add(img)
            assert s.preimage_exponents(*img) == (a, b)
            m = mono2(a, b)
            assert s.apply_inverse(s.apply(m)) == m


def test_counterexample_sigma_inverse_cases():
    s = CounterexampleSigma(P2)
    # pure-Z targets come from odd Z-powers
    assert s.preimage_exponents(0, 4) == (0, 7)
    assert s.image_exponents(0, 7) == (0, 4)
    # even positive Y-exponent halves
    assert s.preimage_exponents(6, 2) == (3, 2)
    # odd Y-exponent targets come from even Z-powers
    a, b = s.preimage_exponents(3, 0)
    assert a == 0 and b % 2 == 0
    assert s.image_exponents(a, b) == (3, 0)


def test_counterexample_sigma_maps_y_multiples_into_y_squared():
    s = CounterexampleSigma(P2)
    rng = Random(11)
    y = mono2(1, 0)
    y2 = mono2(2, 0)
    for _ in range(200):
        h = random_element(P2, rng)
        assert monomial_ideal_member(s.apply(y * h), [y2])


def test_transpose_and_conjugation():
    t = TransposeMap(Matrix(2))
    m = element(Matrix(2), [1, 2, 3, 4])
    assert t.apply(m) == element(Matrix(2), [1, 3, 2, 4])
    assert verify_unit_behavior(t).passed
    c = ConjugationMap(QUATERNIONS_Q)
    a = random_element(QUATERNIONS_Q, Random(0))
    assert c.apply_inverse(c.apply(a)) == a


def test_power_map_matches_iterated_composition():
    s = SigmaQComplex(3)
    rng = Random(12)
    for e in range(6):
        p = PowerMap(s, e)
        for _ in range(20):
            a = random_element(COMPLEX_Q, rng)
            expected = a
            for _ in range(e):
                expected = s.apply(expected)
            assert p.apply(a) == expected
    inv = PowerMap(s, -1)
    for _ in range(20):
        a = random_element(COMPLEX_Q, rng)
        assert inv.apply(a) == s.apply_inverse(a)
    with pytest.raises(NoInverse):
        PowerMap(FormalDerivative(P1), -1)


def test_composition_applies_rightmost_first():
    dbl = CoefficientDoubler(P1)
    der = FormalDerivative(P1)
    comp = CompositionMap([dbl, der])  # dbl after der
    p = element(P1, [(2, 1)])  # Y^2
    assert comp.apply(p) == element(P1, [(1, 4)])  # der: 2Y, dbl: 4Y
    other = CompositionMap([der, dbl])
    assert other.apply(p) == element(P1, [(1, 2)])


def test_all_shipped_kinds_pass_their_claims():
    shipped = [
        IdentityMap(QUATERNIONS_Q),
        ZeroMap(P1),
        SigmaQComplex(2),
        SigmaQComplex(-1),
        ConjugationMap(COMPLEX_Q),
        ConjugationMap(OCTONIONS_Q),
        QuantumTorusSigma(2, P1),
        FormalDerivative(P1),
        CoefficientDoubler(P1),
        CounterexampleSigma(P2),
        TransposeMap(Matrix(2)),
        PowerMap(SigmaQComplex(2), 3),
        CompositionMap([CoefficientDoubler(P1), CoefficientDoubler(P1)]),
    ]
    for m in shipped:
        for report in verify_claims(m, trials=200, seed=0):
            assert report.passed, f"{m.kind}: {report.name}: {report.message}"


def test_verify_additive_finds_squaring_counterexample():
    class Squaring(TwistMap):
        kind = "squaring"

        def __init__(self):
            super().__init__(RATIONALS, set(), False)

        def value(self, v):
            return v * v

    report = verify_additive(Squaring(), 100, seed=0)
    assert not report.passed
    assert report.witness is not None


def test_verify_multiplicative_dichotomy_for_sigma_q():
    bad = verify_multiplicative(SigmaQComplex(2), 100, seed=0)
    assert not bad.passed
    good = verify_multiplicative(SigmaQComplex(-1), 200, seed=0)
    assert good.passed
    assert "no violation" in good.message
    transposed = verify_multiplicative(TransposeMap(Matrix(2)), 100, seed=0)
    assert not transposed.passed


def test_unit_behavior_reports():
    assert verify_unit_behavior(SigmaQComplex(5)).passed
    assert verify_unit_behavior(FormalDerivative(P1)).passed
    # deriving claims through composition: d after d still kills the unit
    assert verify_unit_behavior(
        CompositionMap([FormalDerivative(P1), FormalDerivative(P1)])
    ).passed

    class NoClaims(TwistMap):
        kind = "no_claims"

        def __init__(self):
            super().__init__(RATIONALS, set(), False)

        def value(self, v):
            return v

    with pytest.raises(ValueError):
        verify_unit_behavior(NoClaims())


def test_sigma_derivation_identity():
    ok = verify_sigma_derivation(IdentityMap(P1), FormalDerivative(P1), 200, seed=0)
    assert ok.passed
    bad = verify_sigma_derivation(
        CoefficientDoubler(P1), FormalDerivative(P1), 200, seed=0
    )
    assert not bad.passed


def test_power_apply_helper():
    s = SigmaQComplex(2)
    a = element(COMPLEX_Q, (1, 1))
    assert power_apply(s, 3, a) == element(COMPLEX_Q, (1, 8))
    assert power_apply(s, -2, a) == element(COMPLEX_Q, (1, Fraction(1, 4)))
    assert power_apply(s, 0, a) == a


# --- value hooks ---------------------------------------------------------------

_SHIPPED_MAPS = [
    IdentityMap(P1),
    IdentityMap(Matrix(2)),
    ZeroMap(QUATERNIONS_Q),
    ZeroMap(P2),
    SigmaQComplex(2),
    SigmaQComplex(Fraction(-3, 5)),
    ConjugationMap(COMPLEX_Q),
    ConjugationMap(OCTONIONS_Q),
    ConjugationMap(CayleyDickson(2, P1)),
    QuantumTorusSigma(3),
    QuantumTorusSigma(Fraction(-1, 2)),
    FormalDerivative(P1),
    CoefficientDoubler(P1),
    CounterexampleSigma(P2),
    TransposeMap(Matrix(1)),
    TransposeMap(Matrix(3)),
    TransposeMap(Matrix(2, COMPLEX_Q)),
]
_VALUE_HOOK_MAPS = _SHIPPED_MAPS + [
    PowerMap(SigmaQComplex(2), 3),
    PowerMap(SigmaQComplex(2), -2),
    PowerMap(FormalDerivative(P1), 2),
    PowerMap(CounterexampleSigma(P2), -3),
    PowerMap(IdentityMap(P1), -4),
    PowerMap(ZeroMap(P1), 0),
    CompositionMap([ConjugationMap(COMPLEX_Q), SigmaQComplex(3)]),
    CompositionMap([CoefficientDoubler(P1), QuantumTorusSigma(2)]),
    CompositionMap([QuantumTorusSigma(2), FormalDerivative(P1)]),
    CompositionMap([PowerMap(CounterexampleSigma(P2), 2), IdentityMap(P2)]),
]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(m=st.sampled_from(_VALUE_HOOK_MAPS), seed=st.integers(0, 2**32))
def test_value_hooks_match_apply_and_return_canonical_values(m, seed):
    d = m.domain
    v = d.sample_value(Random(seed))
    image = m.value(v)
    assert image == m.apply(RingElement(d, v)).value
    assert d.canon(image) == image
    if m.has_inverse:
        preimage = m.inverse_value(v)
        assert preimage == m.apply_inverse(RingElement(d, v)).value
        assert d.canon(preimage) == preimage
        assert m.inverse_value(image) == v


def test_every_shipped_map_defines_its_value_hooks():
    # The products call value and inverse_value; a shipped map that left
    # them to the default would wrap every application in a RingElement.
    for m in _SHIPPED_MAPS:
        assert "value" in vars(type(m)), type(m).__name__
        if m.has_inverse:
            assert "inverse_value" in vars(type(m)), type(m).__name__


def test_power_tables_walk_values_and_repeat_the_identity():
    w = element(COMPLEX_Q, (1, Fraction(3, 4)))
    s = SigmaQComplex(2)
    assert power_table(s, w.value, -2, 3) == {
        e: power_apply(s, e, w).value for e in range(-2, 4)
    }
    v = element(P1, [(0, 1), (2, 3)]).value
    assert power_table(IdentityMap(P1), v, -3, 2) == {e: v for e in range(-3, 3)}
    assert power_table(IdentityMap(P1), v, 4, 5) == {e: v for e in range(6)}


def test_a_map_without_hooks_or_apply_refuses_cleanly():
    # A map that defines no value hooks must raise, not return a wrong value.
    class Bare(TwistMap):
        kind = "bare"

    bare = Bare(P1, set(), True)
    with pytest.raises(NotImplementedError, match="bare defines no value"):
        bare.apply(one(P1))
    with pytest.raises(NotImplementedError):
        bare.value(one(P1).value)
    with pytest.raises(NoInverse, match="bare carries no inverse"):
        bare.apply_inverse(one(P1))
