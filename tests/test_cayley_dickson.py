"""The flat Cayley-Dickson product against the doubling rule it tabulates.

``CayleyDickson`` stores a value as its ``2**level`` base coordinates (over the
rationals, as integer numerators over one denominator) and multiplies through a
sign table: ``dot_values`` sums the products of several pairs, and the product
is the dot of one pair. The reference here applies the doubling rule
``(a, b)(c, d) = (ac - conj(d)b, da + b conj(c))`` recursively to the two
halves of a tuple of base coordinates, sharing no code with the table; a dot
is checked against the coordinate-wise sum of its reference products. Values
go in through ``canon`` and come out through ``flat_values``. The work-count
tests wrap the base ring's operations in counters; they never look at time.

``Matrix`` shares the layout, its ``n*n`` entries in row-major order: over
the rationals one vector of numerators over one denominator, read back
through ``Matrix.rows``, and over any other base the flat tuple of entries.
The last tests check its product and dot against a row-by-row reference that
shares no code with the product table.
"""

from fractions import Fraction as F
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab import rings
from skewlab.rings import (
    COMPLEX_Q,
    OCTONIONS_Q,
    RATIONALS,
    SEDENIONS_Q,
    CayleyDickson,
    Matrix,
    Poly1,
    Rationals,
    random_element,
)

SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)
BASES = {"rationals": RATIONALS, "poly1": Poly1(), "matrix2": Matrix(2)}


def doubling_mul(base, x, y):
    """The doubling rule on flat coordinate tuples, half by half."""
    if len(x) == 1:
        return (base.mul_values(x[0], y[0]),)

    def add(u, v):
        return tuple(map(base.add_values, u, v))

    def neg(u):
        return tuple(map(base.neg_value, u))

    def conj(u):
        return u[:1] + neg(u[1:])

    h = len(x) // 2
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]
    lo = add(doubling_mul(base, a, c), neg(doubling_mul(base, conj(d), b)))
    hi = add(doubling_mul(base, d, a), doubling_mul(base, b, conj(c)))
    return lo + hi


def coordinates(base, dim):
    if base == RATIONALS:
        coord = st.builds(F, st.integers(-50, 50), st.integers(1, 60))
    else:
        coord = st.integers(0, 2**32).map(lambda k: base.sample_value(Random(k)))
    return st.lists(coord, min_size=dim, max_size=dim).map(tuple)


@pytest.mark.parametrize("level", range(5))
@pytest.mark.parametrize("base_name", sorted(BASES))
@SETTINGS
@given(data=st.data())
def test_flat_product_matches_doubling_rule(base_name, level, data):
    base = BASES[base_name]
    d = CayleyDickson(level, base)
    x = data.draw(coordinates(base, 1 << level))
    y = data.draw(coordinates(base, 1 << level))
    product = d.mul_values(d.canon(x), d.canon(y))
    assert d.flat_values(product) == doubling_mul(base, x, y)


@pytest.mark.parametrize("level", range(5))
@pytest.mark.parametrize("base_name", sorted(BASES))
@SETTINGS
@given(data=st.data())
def test_dot_matches_summed_doubling_rule(base_name, level, data):
    base = BASES[base_name]
    d = CayleyDickson(level, base)
    pair = st.tuples(coordinates(base, 1 << level), coordinates(base, 1 << level))
    pairs = data.draw(st.lists(pair, max_size=4))
    expected = d.flat_values(d.zero_value())
    for x, y in pairs:
        expected = tuple(map(base.add_values, expected, doubling_mul(base, x, y)))
    dot = d.dot_values([(d.canon(x), d.canon(y)) for x, y in pairs])
    assert d.flat_values(dot) == expected


@pytest.mark.parametrize("level", range(5))
@SETTINGS
@given(data=st.data())
def test_values_over_rationals_are_canonical(level, data):
    # (numerators, den) with den > 0 and gcd 1: every spelling of one value
    # is the same data, so equal values hash alike.
    d = CayleyDickson(level)
    x = data.draw(coordinates(RATIONALS, 1 << level))
    k = data.draw(st.integers(2, 30))
    value = d.canon(x)
    nums, den = value
    assert len(nums) == 1 << level and den > 0 and gcd(*nums, den) == 1
    assert d.flat_values(value) == x
    spellings = [
        d.canon(value),
        d.canon(list(x)),
        d.canon(tuple(map(str, x))),
        d.canon((tuple(n * k for n in nums), den * k)),
        d.scale_value(d.scale_value(value, F(k)), F(1, k)),
        d.add_values(value, d.zero_value()),
        d.dot_values([(value, d.one_value()), (d.zero_value(), value)]),
    ]
    for other in spellings:
        assert other == value and hash(other) == hash(value)
    zero = (0,) * (1 << level), 1
    assert d.zero_value() == d.add_values(value, d.neg_value(value)) == zero
    assert d.scale_value(value, F(0)) == d.canon([0] * (1 << level)) == zero


def test_sampling_order_is_pinned():
    value = random_element(OCTONIONS_Q, Random(2024)).value
    expected = (F(2), F(9, 5), F(-3, 7), F(-1, 9), F(-1, 4), F(2, 7), F(7, 4), F(0))
    assert OCTONIONS_Q.flat_values(value) == expected
    assert value == OCTONIONS_Q.canon(expected)


def counting(monkeypatch, cls, name):
    """Replace ``cls.name`` (its own or inherited) with a wrapper that logs
    each call."""
    calls = []
    raw = next(k.__dict__[name] for k in cls.__mro__ if name in k.__dict__)
    static = isinstance(raw, staticmethod)
    inner = raw.__func__ if static else raw

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(cls, name, staticmethod(counted) if static else counted)
    return calls


def test_sedenion_product_over_rationals_makes_no_base_products(monkeypatch):
    rng = Random(3)
    x, y = SEDENIONS_Q.sample_value(rng), SEDENIONS_Q.sample_value(rng)
    flat = SEDENIONS_Q.flat_values
    expected = doubling_mul(RATIONALS, flat(x), flat(y))
    calls = counting(monkeypatch, Rationals, "mul_values")
    assert flat(SEDENIONS_Q.mul_values(x, y)) == expected
    assert calls == []


def test_arithmetic_over_rationals_builds_no_fractions(monkeypatch):
    # Integer numerators over one denominator: no operation on sedenions
    # over Q builds a Fraction, neither per coordinate nor per result.
    d = SEDENIONS_Q
    rng = Random(3)
    x, y = d.sample_value(rng), d.sample_value(rng)
    built = []
    monkeypatch.setattr(rings, "Fraction", lambda *args: built.append(args))
    results = [
        d.mul_values(x, y),
        d.dot_values([(x, y), (y, x)]),
        d.add_values(x, y),
        d.neg_value(x),
        d.conj_value(x),
        d.scale_value(x, F(-3, 4)),
        d.scale_imaginary_value(x, F(2, 5)),
        d.sample_value(rng),
    ]
    assert not any(map(d.is_zero_value, results))
    assert built == []


def test_sedenion_product_over_poly1_makes_one_base_dot_per_coordinate(monkeypatch):
    d = CayleyDickson(4, Poly1())
    rng = Random(4)
    x, y = d.sample_value(rng), d.sample_value(rng)
    expected = doubling_mul(Poly1(), x, y)
    dots = counting(monkeypatch, Poly1, "dot_values")
    muls = counting(monkeypatch, Poly1, "mul_values")
    adds = counting(monkeypatch, Poly1, "add_values")
    assert d.mul_values(x, y) == expected
    assert [len(pairs) for _, pairs in dots] == [16] * 16
    assert muls == adds == []


# --- matrices over the rationals ------------------------------------------------


def matrix_rows(n):
    entry = st.builds(F, st.integers(-50, 50), st.integers(1, 60))
    row = st.lists(entry, min_size=n, max_size=n).map(tuple)
    return st.lists(row, min_size=n, max_size=n).map(tuple)


@pytest.mark.parametrize("n", [1, 2, 3])
@SETTINGS
@given(data=st.data())
def test_matrix_values_over_rationals_are_canonical(n, data):
    # (numerators, den) of the row-major entries with den > 0 and gcd 1:
    # every spelling of one matrix is the same data and hashes alike.
    d = Matrix(n)
    rows = data.draw(matrix_rows(n))
    entries = [x for row in rows for x in row]
    k = data.draw(st.integers(2, 30))
    value = d.canon(entries)
    nums, den = value
    assert len(nums) == n * n and den > 0 and gcd(*nums, den) == 1
    assert d.rows(value) == rows
    spellings = [
        d.canon(value),
        d.canon(tuple(entries)),
        d.canon([str(x) for x in entries]),
        d.canon((tuple(x * k for x in nums), den * k)),
        d.scale_value(d.scale_value(value, F(k)), F(1, k)),
        d.add_values(value, d.zero_value()),
        d.dot_values([(value, d.one_value()), (d.zero_value(), value)]),
        d.transpose_value(d.transpose_value(value)),
    ]
    for other in spellings:
        assert other == value and hash(other) == hash(value)
    zero = (0,) * (n * n), 1
    assert d.zero_value() == d.add_values(value, d.neg_value(value)) == zero
    assert d.scale_value(value, F(0)) == d.canon([0] * (n * n)) == zero


def test_matrix_sampling_order_is_pinned():
    # The draws of one Fraction per entry, row by row.
    value = Matrix(2).sample_value(Random(0))
    assert Matrix(2).rows(value) == ((F(3, 7), F(-8, 5)), (F(7, 8), F(3, 5)))


def test_matrix_arithmetic_over_rationals_builds_no_fractions(monkeypatch):
    d = Matrix(3)
    rng = Random(3)
    x, y = d.sample_value(rng), d.sample_value(rng)
    built = []
    monkeypatch.setattr(rings, "Fraction", lambda *args: built.append(args))
    results = [
        d.mul_values(x, y),
        d.dot_values([(x, y), (y, x)]),
        d.add_values(x, y),
        d.neg_value(x),
        d.transpose_value(x),
        d.scale_value(x, F(-3, 4)),
        d.sample_value(rng),
    ]
    assert not any(map(d.is_zero_value, results))
    assert built == []


# --- matrices over any base -----------------------------------------------------

MATRIX_BASES = {"rationals": RATIONALS, "complex": COMPLEX_Q, "poly1": Poly1()}


def row_by_row(base, n, x, y):
    """The product of two row-major entry tuples, one entry at a time: entry
    ``(r, c)`` folds ``x[r][k] * y[k][c]`` over ``k`` with the base's own
    product and sum."""
    out = []
    for r in range(n):
        for c in range(n):
            acc = base.zero_value()
            for k in range(n):
                acc = base.add_values(acc, base.mul_values(x[r * n + k], y[k * n + c]))
            out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("base_name", sorted(MATRIX_BASES))
@SETTINGS
@given(data=st.data())
def test_matrix_product_and_dot_match_the_row_by_row_product(base_name, n, data):
    base = MATRIX_BASES[base_name]
    d = Matrix(n, base)
    pair = st.tuples(coordinates(base, n * n), coordinates(base, n * n))
    pairs = data.draw(st.lists(pair, min_size=1, max_size=4))
    x, y = pairs[0]
    product = d.mul_values(d.canon(x), d.canon(y))
    assert d.flat_values(product) == row_by_row(base, n, x, y)
    expected = d.flat_values(d.zero_value())
    for x, y in pairs:
        expected = tuple(map(base.add_values, expected, row_by_row(base, n, x, y)))
    dot = d.dot_values([(d.canon(x), d.canon(y)) for x, y in pairs])
    assert d.flat_values(dot) == expected


def test_matrix_value_over_another_base_is_the_flat_row_major_tuple():
    p1 = Poly1()
    y, one, zero = p1.canon({1: 1}), p1.canon({0: 1}), p1.canon({})
    d = Matrix(2, p1)
    value = d.canon([{1: 1}, {0: 1}, {}, {2: 2}])
    assert value == (y, one, zero, p1.canon({2: 2}))
    assert d.rows(value) == ((y, one), (zero, p1.canon({2: 2})))
    assert d.transpose_value(value) == (y, zero, one, p1.canon({2: 2}))
    assert d.one_value() == (one, zero, zero, one)
    rng, draws = Random(0), Random(0)
    expected = tuple(COMPLEX_Q.sample_value(draws) for _ in range(4))
    assert Matrix(2, COMPLEX_Q).sample_value(rng) == expected
