"""``Poly1`` and ``Poly2`` against the per-ring dict loops they replaced.

Both rings now run one shared implementation of the sparse term list
(``rings._PolyRing`` over ``rings.sum_terms``). The references below are the
earlier per-ring loops: accumulate into a dict, drop zero coefficients, sort.
They share no code with the library.
"""

from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.rings import Poly1, Poly2

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
    assert a == reference_canon(raw_a, exponent)
    assert b == reference_canon(raw_b, exponent)
    as_dict = {exponent(e): c for e, c in raw_a}
    assert ring.canon(as_dict) == reference_canon(as_dict.items(), exponent)
    assert ring.add_values(a, b) == reference_add(a, b)
    assert ring.mul_values(a, b) == reference_mul(a, b, add_exponents)


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


def test_sampling_order_is_pinned():
    rng = Random(1)
    assert [Poly1().sample_value(rng) for _ in range(6)] == [
        ((2, F(9, 2)),),
        (),
        ((3, F(-9, 7)),),
        (),
        ((0, F(-1)), (4, F(-9))),
        (),
    ]
    rng = Random(1)
    assert [Poly2().sample_value(rng) for _ in range(4)] == [
        (((2, 0), F(9, 2)),),
        (((0, 3), F(-3, 4)), ((3, 1), F(5, 8)), ((3, 2), F(4))),
        (((2, 0), F(9, 2)),),
        (),
    ]
