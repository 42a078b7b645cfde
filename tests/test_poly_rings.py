"""``Poly1`` and ``Poly2`` against the per-ring dict loops they replaced.

Both rings run one shared implementation (``rings._PolyRing``) whose values
are integer numerators over one denominator. The references below are the
earlier per-ring loops over ``(exponent, Fraction)`` terms: accumulate into a
dict, drop zero coefficients, sort. They share no code with the library, and
the library's values are compared with them through ``flat_terms``.
"""

from fractions import Fraction as F
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.maps import (
    CoefficientDoubler,
    CounterexampleSigma,
    FormalDerivative,
    QuantumTorusSigma,
)
from skewlab.rings import Poly1, Poly2, RingElement, _poly, element

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def reference_canon(items, exponent):
    acc = {}
    for e, c in items:
        e = exponent(e)
        acc[e] = acc.get(e, F(0)) + F(c)
    return tuple(sorted((e, c) for e, c in acc.items() if c != 0))


def reference_add(a, b):
    acc = dict(a)
    for e, c in b:
        acc[e] = acc.get(e, F(0)) + c
    return tuple(sorted((e, c) for e, c in acc.items() if c != 0))


def reference_mul(a, b, add_exponents):
    acc = {}
    for e1, c1 in a:
        for e2, c2 in b:
            e = add_exponents(e1, e2)
            acc[e] = acc.get(e, F(0)) + c1 * c2
    return tuple(sorted((e, c) for e, c in acc.items() if c != 0))


RINGS = {
    "poly1": (
        Poly1(),
        st.integers(0, 5),
        lambda e: e,
        lambda x, y: x + y,
    ),
    "poly2": (
        Poly2(),
        st.tuples(st.integers(0, 3), st.integers(0, 3)) | st.lists(
            st.integers(0, 3), min_size=2, max_size=2
        ),
        tuple,
        lambda x, y: (x[0] + y[0], x[1] + y[1]),
    ),
}

# Few exponents and small coefficients, so terms collide and cancel often.
COEFFICIENTS = st.builds(F, st.integers(-3, 3), st.integers(1, 3)) | st.integers(-2, 2)


def raw_terms(exponents):
    return st.lists(st.tuples(exponents, COEFFICIENTS), max_size=8)


@pytest.mark.parametrize("name", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_canon_add_and_mul_match_the_dict_loops(name, data):
    ring, exponents, exponent, add_exponents = RINGS[name]
    raw_a = data.draw(raw_terms(exponents))
    raw_b = data.draw(raw_terms(exponents))
    a, b = ring.canon(raw_a), ring.canon(raw_b)
    terms = ring.flat_terms
    assert terms(a) == reference_canon(raw_a, exponent)
    assert terms(b) == reference_canon(raw_b, exponent)
    as_dict = {exponent(e): c for e, c in raw_a}
    assert terms(ring.canon(as_dict)) == reference_canon(as_dict.items(), exponent)
    assert terms(ring.add_values(a, b)) == reference_add(terms(a), terms(b))
    assert terms(ring.mul_values(a, b)) == reference_mul(terms(a), terms(b), add_exponents)


@pytest.mark.parametrize(
    "ring, raw, message",
    [
        (Poly1(), [(-1, 1)], "exponent must be a natural number, got -1"),
        (Poly1(), [(1.0, 1)], "exponent must be a natural number, got 1.0"),
        (Poly2(), [((0, -1), 1)], r"exponents must be natural numbers, got \(0, -1\)"),
    ],
)
def test_canon_rejects_bad_exponents(ring, raw, message):
    with pytest.raises(ValueError, match=message):
        ring.canon(raw)


@pytest.mark.parametrize(
    "raw", [((0, 1), (1,), 2), ((0,), (1,), 0), ((0,), (F(1, 2),), 2)]
)
def test_canon_refuses_a_malformed_value(raw):
    # Exponents and numerators must pair up, and the denominator be positive.
    with pytest.raises(ValueError, match="malformed value of Poly1"):
        Poly1().canon(raw)


def test_sampling_order_is_pinned():
    rng, ring = Random(1), Poly1()
    assert [ring.flat_terms(ring.sample_value(rng)) for _ in range(6)] == [
        ((2, F(9, 2)),),
        (),
        ((3, F(-9, 7)),),
        (),
        ((0, F(-1)), (4, F(-9))),
        (),
    ]
    rng, ring = Random(1), Poly2()
    assert [ring.flat_terms(ring.sample_value(rng)) for _ in range(4)] == [
        (((2, 0), F(9, 2)),),
        (((0, 3), F(-3, 4)), ((3, 1), F(5, 8)), ((3, 2), F(4))),
        (((2, 0), F(9, 2)),),
        (),
    ]


# --- the value layout ----------------------------------------------------------

def assert_canonical(ring, v):
    """Ascending exponents next to nonzero integer numerators over one positive
    denominator, with no common factor."""
    exps, nums, den = v
    assert type(den) is int and den > 0
    assert len(exps) == len(nums)
    assert all(type(n) is int and n != 0 for n in nums)
    assert gcd(*nums, den) == 1
    assert list(exps) == sorted(set(exps))
    assert ring.canon(v) == v


def respellings(data, raw):
    """``raw`` written another way: terms shuffled, each coefficient split in
    two terms with the same exponent, written as int, Fraction or string."""
    out = []
    for e, c in raw:
        c = F(c)
        k = data.draw(COEFFICIENTS)
        for part in (c - k, F(k)):
            out.append((e, data.draw(st.sampled_from(spellings(part)))))
    return data.draw(st.permutations(out))


def spellings(q):
    forms = [q, str(q)]
    return forms + [int(q)] if q.denominator == 1 else forms


@pytest.mark.parametrize("name", sorted(RINGS))
@SETTINGS
@given(data=st.data(), seed=st.integers(0, 2**32))
def test_values_are_canonical_and_equal_spellings_agree(name, data, seed):
    ring, exponents, exponent, _ = RINGS[name]
    raw_a = data.draw(raw_terms(exponents))
    raw_b = data.draw(raw_terms(exponents))
    a, b = ring.canon(raw_a), ring.canon(raw_b)
    q = data.draw(COEFFICIENTS)
    s = ring.sample_value(Random(seed))
    for v in (
        a, b, s, ring.zero_value(), ring.one_value(),
        ring.add_values(a, b), ring.add_values(a, ring.neg_value(a)),
        ring.neg_value(b), ring.mul_values(a, b), ring.mul_values(s, a),
        ring.dot_values([(a, b), (b, s), (s, s)]), ring.dot_values([]),
        ring.scale_value(a, F(q)), ring.scale_value(s, 2),
    ):
        assert_canonical(ring, v)
    other = respellings(data, [(exponent(e), c) for e, c in raw_a])
    assert ring.canon(other) == a
    assert ring.canon(dict(ring.flat_terms(a))) == a
    assert hash(ring.canon(other)) == hash(a)
    assert hash(element(ring, other)) == hash(RingElement(ring, a))


def test_arithmetic_and_maps_build_no_fractions(monkeypatch):
    # Integer numerators over one denominator: no sum, product, scaling,
    # sample or map application on Q[Y] or Q[Y, Z] builds a Fraction.
    p1, p2, rng = Poly1(), Poly2(), Random(3)
    x, y = p1.canon({0: F(1, 2), 1: F(-3, 4), 2: 5}), p1.canon({1: 2, 3: F(1, 3)})
    u, w = p2.canon({(0, 2): F(2, 3), (1, 1): -1}), p2.canon({(2, 0): F(5, 6)})
    q = F(-3, 4)
    maps = [QuantumTorusSigma(F(-2, 3), p1), FormalDerivative(p1),
            CoefficientDoubler(p1), CounterexampleSigma(p2)]
    built = []
    new = F.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    if hasattr(F, "_from_coprime_ints"):  # 3.12+ builds arithmetic results here
        monkeypatch.setattr(F, "_from_coprime_ints", classmethod(counted))
    samples = [[ring.sample_value(rng) for _ in range(20)] for ring in (p1, p2)]
    over_y = [
        p1.mul_values(x, y), p1.dot_values([(x, y), (y, x)]), p1.add_values(x, y),
        p1.neg_value(x), p1.scale_value(x, q),
        maps[0].value(x), maps[0].inverse_value(x), maps[1].value(x),
        maps[2].value(x), maps[2].inverse_value(x),
    ]
    over_yz = [
        p2.mul_values(u, w), p2.dot_values([(u, w), (w, u)]), p2.add_values(u, w),
        p2.neg_value(u), p2.scale_value(u, q),
        maps[3].value(u), maps[3].inverse_value(u),
        p2.canon([((1, 2), 3), ((0, 0), -5)]),
    ]
    assert built == []
    assert not all(map(p1.is_zero_value, samples[0]))
    assert not all(map(p2.is_zero_value, samples[1]))
    assert not any(map(p1.is_zero_value, over_y))
    assert not any(map(p2.is_zero_value, over_yz))


# --- the maps on polynomial rings, against the earlier Fraction formulas --------
#
# Each reference is the map's formula over ``(exponent, Fraction)`` terms as it
# was written before the maps went through ``_PolyRing.map_terms``.


def ref_quantum_torus(q):
    return lambda v: tuple([(e, c * q**e) for e, c in v])


def ref_derivative(v):
    return tuple([(e - 1, c * e) for e, c in v if e])


def ref_doubler(v):
    return tuple([(e, c * 2 if e == 1 else c) for e, c in v])


def ref_halver(v):
    return tuple([(e, c / 2 if e == 1 else c) for e, c in v])


def ref_exponent_map(exponents):
    return lambda v: reference_canon([(exponents(*e), c) for e, c in v], tuple)


SIGMA = CounterexampleSigma(Poly2())
POLY_MAPS = {
    **{
        f"quantum_torus_{q}": (
            QuantumTorusSigma(q), ref_quantum_torus(q), ref_quantum_torus(1 / q)
        )
        for q in (F(2), F(-2, 3), F(1, 3))
    },
    "formal_derivative": (FormalDerivative(), ref_derivative, None),
    "coefficient_doubler": (CoefficientDoubler(), ref_doubler, ref_halver),
    "counterexample_sigma": (
        SIGMA,
        ref_exponent_map(SIGMA.image_exponents),
        ref_exponent_map(SIGMA.preimage_exponents),
    ),
}


@pytest.mark.parametrize("name", sorted(POLY_MAPS))
@SETTINGS
@given(data=st.data(), seed=st.integers(0, 2**32))
def test_poly_maps_match_the_fraction_formulas(name, data, seed):
    m, forward, backward = POLY_MAPS[name]
    ring = m.domain
    exponents = RINGS["poly1" if isinstance(ring, Poly1) else "poly2"][1]
    raw = data.draw(st.lists(st.tuples(exponents, COEFFICIENTS), max_size=8))
    terms = ring.flat_terms
    for v in (ring.canon(raw), ring.sample_value(Random(seed)), ring.one_value()):
        assert terms(m.value(v)) == forward(terms(v))
        assert_canonical(ring, m.value(v))
        if backward is not None:
            assert terms(m.inverse_value(v)) == backward(terms(v))
            assert_canonical(ring, m.inverse_value(v))


def merged(v, image):
    """``_PolyRing.map_terms``'s merge path for a weight-1 exponent map: the
    numerators summed by image in a dict, then sorted and reduced."""
    acc = {}
    for e, n in zip(*v[:2]):
        e = image(*e)
        acc[e] = acc.get(e, 0) + n
    return _poly(acc, v[2])


def test_counterexample_sigma_permutes_terms_as_the_merge_path_does():
    # The map only permutes monomials, so map_terms sorts the terms by image
    # and keeps the numerators and the denominator; images that meet still
    # merge.
    ring, rng = SIGMA.domain, Random(17)
    reordered = 0
    for _ in range(300):
        v = ring.sample_value(rng)
        for apply, image in (
            (SIGMA.value, SIGMA.image_exponents),
            (SIGMA.inverse_value, SIGMA.preimage_exponents),
        ):
            assert apply(v) == merged(v, image)
            images = [image(*e) for e in v[0]]
            reordered += images != sorted(images)
    assert reordered > 20  # 40 of the 600 applications reorder the terms
    v = ring.canon({(0, 1): 2, (1, 0): F(1, 2), (2, 2): -3})
    assert ring.map_terms(v, lambda e: ((0, 0), 1, 1)) == ring.canon({(0, 0): F(-1, 2)})
