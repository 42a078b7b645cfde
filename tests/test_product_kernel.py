"""The shared twisted-product kernel against pair-by-pair references.

Every product in skewlab goes through ``skewpoly.twisted_product``, which
builds one twist table per right coefficient. The references here rebuild
each product one term pair at a time from definitions that share no code
with the kernel:

* Ore: the dense sigma/delta word enumeration ``pi_by_words``;
* Laurent and iterated Laurent: ``power_apply`` per pair;
* series: a naive windowed double loop over the stored coefficients.

The work-count tests wrap sigma and delta in a counting map and bound the
number of map applications a product may spend; they never look at time.
With sigma exactly ``IdentityMap`` the Ore table is built from Leibniz rows,
checked against the words and against the recurrence that a wrapped
identity takes.
A constant left factor that is not rational takes the general path, whose
``pi_0^0`` row and ``sigma^0`` entry are the identity; its products are
checked against the same references. A unit right factor ``X^n`` (a shift)
and a rational left factor ``q*1`` (a scaling) build no twist table and make
no ring product; they are checked on every kind of coefficient ring, and
``c*X^e`` leaves may make no ``twists``, ``mul_values`` or ``dot_values``
call. The expression walker evaluates the constant of such a leaf in the
coefficient ring and builds the leaf as one term, so a leaf whose constant
is a sum or a product of constants makes no ``twisted_product`` call.
"""

from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab import series, skewpoly
from skewlab.config import load_session
from skewlab.maps import (
    CoefficientDoubler,
    CompositionMap,
    ConjugationMap,
    FormalDerivative,
    IdentityMap,
    PowerMap,
    QuantumTorusSigma,
    SigmaQComplex,
    TransposeMap,
    TwistMap,
    ZeroMap,
    power_apply,
)
from skewlab.rings import (
    COMPLEX_Q,
    QUATERNIONS_Q,
    SEDENIONS_Q,
    CayleyDickson,
    DescriptorMismatch,
    JordanPlus,
    Matrix,
    Poly1,
    Rationals,
    RingDescriptor,
    RingElement,
    _Coordinates,
    _PolyRing,
    basis_element,
    element,
    monomial_element,
    one,
    random_element,
    scalar,
)
from skewlab.series import (
    TruncatedSeries,
    poly_times_series,
    series_mul,
    series_times_poly,
    shift_scale,
)
from skewlab.skewpoly import (
    IteratedLaurentContext,
    LaurentContext,
    LaurentPoly,
    MultiLaurentPoly,
    OreContext,
    OrePoly,
    pi_row,
    pi_table,
    twisted_product,
)
from test_skewpoly import pi_by_words

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
P1 = Poly1()
QUAT = QUATERNIONS_Q
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

WEYL = OreContext(P1, IdentityMap(P1), FormalDerivative(P1))
DOUBLER = OreContext(P1, CoefficientDoubler(P1), FormalDerivative(P1))
QUAT_ORE = OreContext(QUAT, ConjugationMap(QUAT), ZeroMap(QUAT))
SIGMA2 = LaurentContext(COMPLEX_Q, SigmaQComplex(2))
QUAT_LAURENT = LaurentContext(QUAT, ConjugationMap(QUAT))
TORUS = IteratedLaurentContext(P1, (QuantumTorusSigma(2, P1), IdentityMap(P1)))
COMPLEX_PAIR = IteratedLaurentContext(
    COMPLEX_Q, (SigmaQComplex(2), SigmaQComplex(-3))
)


def coefficients(ring):
    return st.integers(0, 2**32).map(lambda k: random_element(ring, Random(k)))


def term_lists(ring, exponents, max_terms=4):
    return st.lists(st.tuples(exponents, coefficients(ring)), max_size=max_terms)


def polys(cls, ctx, lo, hi, max_terms=4):
    return term_lists(ctx.ring, st.integers(lo, hi), max_terms).map(
        lambda pairs: cls.from_terms(ctx, pairs)
    )


def multi_polys(ctx, bound=3):
    vectors = st.tuples(*[st.integers(-bound, bound) for _ in ctx.sigmas])
    return term_lists(ctx.ring, vectors).map(
        lambda pairs: MultiLaurentPoly.from_terms(ctx, pairs)
    )


def windows(ctx, lo, precision):
    terms = term_lists(ctx.ring, st.integers(lo, precision - 1), max_terms=6)
    return terms.map(lambda pairs: TruncatedSeries.from_terms(ctx, pairs, precision))


# --- pair-by-pair references --------------------------------------------------

def ore_reference(p, q):
    ctx = p.context
    pairs = [
        (i + n, r * pi_by_words(ctx, m, i, s))
        for m, r in p.terms
        for n, s in q.terms
        for i in range(m + 1)
    ]
    return OrePoly.from_terms(ctx, pairs)


def laurent_reference(p, q):
    sigma = p.context.sigma
    pairs = [
        (m + n, r * power_apply(sigma, m, s)) for m, r in p.terms for n, s in q.terms
    ]
    return LaurentPoly.from_terms(p.context, pairs)


def multi_reference(p, q):
    pairs = []
    for u, r in p.terms:
        for v, s in q.terms:
            t = s
            for sigma, e in reversed(list(zip(p.context.sigmas, u))):
                t = power_apply(sigma, e, t)
            pairs.append((tuple(a + b for a, b in zip(u, v)), r * t))
    return MultiLaurentPoly.from_terms(p.context, pairs)


def windowed_reference(ctx, left, right, precision):
    """``left`` times ``right`` (``(exponent, coefficient)`` pairs, zeros
    included) kept below ``precision``, one ``power_apply`` per pair."""
    pairs = [
        (m + n, r * power_apply(ctx.sigma, m, s))
        for m, r in left
        for n, s in right
        if m + n < precision
    ]
    return TruncatedSeries.from_terms(ctx, pairs, precision)


def stored(p: TruncatedSeries):
    return [(p.start + i, c) for i, c in enumerate(p.coefficients)]


# --- Ore ---------------------------------------------------------------------

@SETTINGS
@given(st.data())
def test_ore_products_match_word_enumeration(data):
    for ctx in (WEYL, DOUBLER, QUAT_ORE):
        p = data.draw(polys(OrePoly, ctx, 0, 5))
        q = data.draw(polys(OrePoly, ctx, 0, 3))
        assert p * q == ore_reference(p, q)


# --- Laurent -----------------------------------------------------------------

@SETTINGS
@given(st.data())
def test_laurent_products_match_pairwise_powers(data):
    for ctx in (SIGMA2, QUAT_LAURENT):
        p = data.draw(polys(LaurentPoly, ctx, -6, 6))
        q = data.draw(polys(LaurentPoly, ctx, -6, 6))
        assert p * q == laurent_reference(p, q)


@SETTINGS
@given(st.data())
def test_iterated_products_match_pairwise_powers(data):
    for ctx in (TORUS, COMPLEX_PAIR):
        p = data.draw(multi_polys(ctx))
        q = data.draw(multi_polys(ctx))
        assert p * q == multi_reference(p, q)


# --- series ------------------------------------------------------------------

@SETTINGS
@given(st.data())
def test_series_products_match_naive_window(data):
    for ctx, lo in ((QUAT_ORE, 0), (QUAT_LAURENT, -4), (SIGMA2, -4)):
        p = data.draw(windows(ctx, lo, data.draw(st.integers(1, 10))))
        q = data.draw(windows(ctx, lo, data.draw(st.integers(1, 10))))
        precision = min(p.precision + q.start, q.precision + p.start)
        assert series_mul(p, q) == windowed_reference(ctx, stored(p), stored(q), precision)


@SETTINGS
@given(st.data())
def test_exact_factor_series_products_match_naive_window(data):
    for ctx, lo, cls in ((QUAT_ORE, 0, OrePoly), (QUAT_LAURENT, -4, LaurentPoly)):
        s = data.draw(windows(ctx, lo, 8))
        p = data.draw(polys(cls, ctx, lo, 4))
        k = data.draw(coefficients(ctx.ring))
        e = data.draw(st.integers(lo, 4))
        assert shift_scale(s, k, e) == windowed_reference(
            ctx, stored(s), [(e, k)], s.precision + e
        )
        if p.is_zero():
            continue
        precision = s.precision + p.order()
        assert poly_times_series(p, s) == windowed_reference(
            ctx, p.terms, stored(s), precision
        )
        assert series_times_poly(s, p) == windowed_reference(
            ctx, stored(s), p.terms, precision
        )


# --- work counts ---------------------------------------------------------------

class CountingMap(TwistMap):
    """Forwards to ``base`` and counts every application, inverse included."""

    def __init__(self, base: TwistMap):
        self.base = base
        self.kind = base.kind
        self.calls = 0
        super().__init__(base.domain, base.claims, base.has_inverse)

    def value(self, v):
        self.calls += 1
        return self.base.value(v)

    def inverse_value(self, v):
        self.calls += 1
        return self.base.inverse_value(v)


def test_weyl_power_times_variable_is_linear_in_the_degree():
    # Row m of pi(Y) is {m: Y, m-1: m}: two stored entries, each sent once to
    # sigma and once to delta, so at most 4 applications per row. One dense
    # row per term pair cost about (n+1)^2 applications (160k at n = 400).
    sigma, delta = CountingMap(IdentityMap(P1)), CountingMap(FormalDerivative(P1))
    ctx = OreContext(P1, sigma, delta)
    n = 400
    y = monomial_element(P1, 1)
    xn = OrePoly.x(ctx, n)
    sigma.calls = delta.calls = 0
    product = xn * OrePoly.constant(ctx, y)
    assert sigma.calls + delta.calls <= 4 * n
    assert product == OrePoly.from_terms(ctx, [(n, y), (n - 1, scalar(P1, n))])


def test_zero_delta_rows_cost_one_sigma_application():
    sigma, delta = CountingMap(ConjugationMap(QUAT)), CountingMap(ZeroMap(QUAT))
    ctx = OreContext(QUAT, sigma, delta)
    i = basis_element(QUAT, 1)
    xn = OrePoly.x(ctx, 51)
    sigma.calls = delta.calls = 0
    product = xn * OrePoly.constant(ctx, i)
    assert (sigma.calls, delta.calls) == (51, 0)
    assert product == OrePoly.monomial(ctx, -i, 51)


# Deltas for the Leibniz rows; the last two annihilate 1 because the
# derivative acts first in each.
LEIBNIZ_DELTAS = (
    FormalDerivative(P1),
    ZeroMap(P1),
    PowerMap(FormalDerivative(P1), 2),
    CompositionMap([CoefficientDoubler(P1), FormalDerivative(P1)]),
)


def dense_poly1(rng, degree):
    return element(P1, [(e, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                        for e in range(degree + 1)])


def test_leibniz_rows_match_the_words():
    # With sigma exactly the identity, pi_table builds pi_i^m(s) as
    # C(m, i) delta^(m-i)(s); pi_by_words sums the C(m, i) words one by one.
    rng = Random(17)
    for delta in LEIBNIZ_DELTAS:
        ctx = OreContext(P1, IdentityMap(P1), delta)
        for s in (random_element(P1, rng), dense_poly1(rng, 12)):
            for m in range(11):
                words = {i: pi_by_words(ctx, m, i, s) for i in range(m + 1)}
                assert pi_row(ctx, m, s) == {i: w for i, w in words.items() if w}


def test_leibniz_rows_match_the_general_recurrence():
    # A wrapped identity is not IdentityMap, so it takes the pi_rows
    # recurrence: both tables and both products must agree.
    rng = Random(18)
    for delta in LEIBNIZ_DELTAS:
        leibniz = OreContext(P1, IdentityMap(P1), delta)
        general = OreContext(P1, CountingMap(IdentityMap(P1)), delta)
        s = dense_poly1(rng, 45).value
        assert pi_table(leibniz, s, range(41)) == pi_table(general, s, range(41))
        assert pi_table(leibniz, s, [7, 40, 3]) == pi_table(general, s, [3, 7, 40])
        for _ in range(3):
            left = [(rng.randint(0, 40), dense_poly1(rng, rng.randint(0, 8)))
                    for _ in range(3)]
            right = [(rng.randint(0, 5), dense_poly1(rng, 6)) for _ in range(2)]

            def product(ctx):
                p, q = OrePoly.from_terms(ctx, left), OrePoly.from_terms(ctx, right)
                return (p * q).terms

            assert product(leibniz) == product(general)


def test_weyl_high_power_times_variable_makes_at_most_three_delta_applications():
    # delta^k(Y) is Y, 1, 0: the table stops at the first zero, whatever n is.
    delta = CountingMap(FormalDerivative(P1))
    ctx = OreContext(P1, IdentityMap(P1), delta)
    n = 100000
    y = monomial_element(P1, 1)
    delta.calls = 0
    product = OrePoly.x(ctx, n) * OrePoly.constant(ctx, y)
    assert delta.calls <= 3
    assert product == OrePoly.from_terms(ctx, [(n - 1, scalar(P1, n)), (n, y)])
    assert str(product) == "100000*X^99999 + Y*X^100000"


def test_laurent_product_walks_sigma_powers_once_per_right_coefficient():
    # On [-20, 20] the table for one right coefficient is 20 forward and 20
    # inverse steps from sigma^0; per-pair powers cost |m| steps for each of
    # the 41 left terms (420 per right coefficient).
    sigma = CountingMap(SigmaQComplex(2))
    ctx = LaurentContext(COMPLEX_Q, sigma)
    rng = Random(41)

    def full():
        pairs = []
        for e in range(-20, 21):
            c = random_element(COMPLEX_Q, rng)
            while c.is_zero():
                c = random_element(COMPLEX_Q, rng)
            pairs.append((e, c))
        return LaurentPoly.from_terms(ctx, pairs)

    p, q = full(), full()
    assert len(p.terms) == len(q.terms) == 41
    sigma.calls = 0
    product = p * q
    assert sigma.calls <= 40 * len(q.terms)
    assert product == laurent_reference(p, q)


# --- constant left factors ------------------------------------------------------

MATRIX_LAURENT = LaurentContext(Matrix(2), TransposeMap(Matrix(2)))


@SETTINGS
@given(st.data())
def test_constant_left_factors_match_the_references(data):
    # A constant left factor that is not rational builds a twist table whose
    # pi_0^0 row and sigma^0 entry are the identity. Its products must agree
    # with the pairwise loops.
    cases = (
        (WEYL, OrePoly, ore_reference, 0),
        (QUAT_ORE, OrePoly, ore_reference, 0),
        (SIGMA2, LaurentPoly, laurent_reference, -4),
        (MATRIX_LAURENT, LaurentPoly, laurent_reference, -4),
    )
    for ctx, cls, reference, lo in cases:
        p = cls.constant(ctx, data.draw(coefficients(ctx.ring)))
        q = data.draw(polys(cls, ctx, lo, 4))
        assert p * q == reference(p, q)
        limit = data.draw(st.integers(lo, 5))
        assert twisted_product(ctx, p.terms, q.terms, limit) == tuple(
            (e, c) for e, c in reference(p, q).terms if e < limit
        )
    for ctx in (TORUS, COMPLEX_PAIR):
        p = MultiLaurentPoly.constant(ctx, data.draw(coefficients(ctx.ring)))
        q = data.draw(multi_polys(ctx))
        assert p * q == multi_reference(p, q)
    for ctx, lo, cls in ((QUAT_ORE, 0, OrePoly), (QUAT_LAURENT, -4, LaurentPoly)):
        p = cls.constant(ctx, data.draw(coefficients(ctx.ring)))
        s = data.draw(windows(ctx, lo, data.draw(st.integers(1, 8))))
        if not p.is_zero():
            assert poly_times_series(p, s) == windowed_reference(
                ctx, p.terms, stored(s), s.precision
            )


def test_constant_left_factor_drops_zero_divisor_products():
    e11 = element(Matrix(2), [1, 0, 0, 0])
    e22 = element(Matrix(2), [0, 0, 0, 1])
    p = LaurentPoly.constant(MATRIX_LAURENT, e11)
    q = LaurentPoly.from_terms(MATRIX_LAURENT, [(-1, e22), (2, e11 + e22)])
    assert (p * q).terms == ((2, e11),)
    assert (p * LaurentPoly.constant(MATRIX_LAURENT, e22)).is_zero()


@pytest.mark.parametrize(
    "config, leaf, text",
    [
        ("weyl.json", "3/4*X^2", "3/4*X^2"),
        ("weyl.json", "(1 + Y)*X^3", "(1 + Y)*X^3"),
        ("complex_sigma2_laurent.json", "i*X^-2", "i*X^-2"),
        ("quantum_torus.json", "Y^2*X1^3", "Y^2*X1^3"),
        ("quantum_torus.json", "2*X2^-1", "2*X2^-1"),
        ("rational_power_series.json", "3*X^2", "3*X^2 + O(X^16)"),
        ("complex_sigma2_laurent.json", "(2/3 + 5*i)*X^-3", "(2/3 + 5*i)*X^-3"),
        ("complex_sigma2_laurent.json", "5/3*i", "5/3*i"),
        ("quaternion_conjugation_ore.json", "(1/2 - 3*k)*X^4", "(1/2 - 3*k)*X^4"),
        ("quaternion_conjugation_ore.json", "7*j", "7*j"),
        ("weyl.json", "(2 + 3*Y)*X^5", "(2 + 3*Y)*X^5"),
        ("quantum_torus.json", "(2 + 3*Y)*X1^2*X2^-1", "(2 + 3*Y)*X1^2*X2^-1"),
        ("rational_power_series.json", "(3 + 1/4)*X^2", "13/4*X^2 + O(X^16)"),
    ],
)
def test_constant_leaves_build_no_twist_table(monkeypatch, config, leaf, text):
    # A unit right factor X^n is a shift and a rational left factor a
    # scaling, so these leaves make no ring product either.
    session = load_session(CONFIGS / config)
    calls = []
    for cls in (OreContext, LaurentContext, IteratedLaurentContext):

        def counting(self, *args, _twists=cls.twists):
            calls.append(args)
            return _twists(self, *args)

        monkeypatch.setattr(cls, "twists", counting)
    for cls in (RingDescriptor, Rationals, _Coordinates, JordanPlus, _PolyRing):
        for name in ("mul_values", "dot_values"):
            if name in vars(cls):

                def ring_op(self, *args, _f=vars(cls)[name], _cls=cls, _name=name):
                    calls.append(_name)
                    return _f.__get__(self, _cls)(*args)

                monkeypatch.setattr(cls, name, ring_op)
    assert str(session.evaluate(leaf)) == text
    assert calls == []


@pytest.mark.parametrize(
    "config, leaf, text",
    [
        ("weyl.json", "(2 + 3*Y)*X^5", "(2 + 3*Y)*X^5"),
        ("quaternion_conjugation_ore.json", "(1/2 - 3*k)*X^4", "(1/2 - 3*k)*X^4"),
        ("complex_sigma2_laurent.json", "(1/2 + 3*i)*(2 - i)*X^-3", "(4 + 11/2*i)*X^-3"),
        ("complex_sigma2_laurent.json", "2*(3*i)*X", "6*i*X"),
    ],
)
def test_leaves_with_compound_constants_make_no_twisted_product(
    monkeypatch, config, leaf, text
):
    # The constant of a c*X^e leaf, a sum or a product of constants, is
    # evaluated in the coefficient ring, and c*X^e is built as its one term.
    session = load_session(CONFIGS / config)
    calls = []

    def counting(*args, _real=twisted_product):
        calls.append(args)
        return _real(*args)

    for module in (skewpoly, series):
        monkeypatch.setattr(module, "twisted_product", counting)
    assert str(session.evaluate(leaf)) == text
    assert calls == []
    session.evaluate(f"{leaf}*X")
    assert calls  # the patch is live


# --- the kernel's own coefficient work ------------------------------------------

def test_kernel_sums_each_output_exponent_without_element_arithmetic(monkeypatch):
    # twisted_product hands each output exponent's raw value pairs to one
    # ring.dot_values call, so it makes no RingElement product or sum of its
    # own, for a constant left factor too. Twist tables are not kernel work
    # (pi_rows adds entries), so calls made inside ctx.twists are not counted.
    rng = Random(9)

    def full(ctx, cls, exponents):
        pairs = []
        for e in exponents:
            c = random_element(ctx.ring, rng)
            while c.is_zero():
                c = random_element(ctx.ring, rng)
            pairs.append((e, c))
        return cls.from_terms(ctx, pairs)

    cases = [
        (SIGMA2, full(SIGMA2, LaurentPoly, range(-20, 21)),
         full(SIGMA2, LaurentPoly, range(-20, 21))),
        (WEYL, full(WEYL, OrePoly, range(13)), full(WEYL, OrePoly, range(13))),
        (QUAT_ORE, OrePoly.constant(QUAT_ORE, basis_element(QUAT, 1)),
         full(QUAT_ORE, OrePoly, range(13))),
    ]
    expected = [p * q for _, p, q in cases]
    calls, in_twists = [], []
    for cls in (OreContext, LaurentContext):

        def twists(self, *args, _twists=cls.twists):
            in_twists.append(1)
            try:
                return _twists(self, *args)
            finally:
                in_twists.pop()

        monkeypatch.setattr(cls, "twists", twists)
    for name in ("__mul__", "__add__"):

        def counting(self, other, _op=getattr(RingElement, name), _name=name):
            if not in_twists:
                calls.append(_name)
            return _op(self, other)

        monkeypatch.setattr(RingElement, name, counting)
    for (ctx, p, q), product in zip(cases, expected):
        assert twisted_product(ctx, p.terms, q.terms) == product.terms
    assert calls == []


OWN = [(0, basis_element(COMPLEX_Q, 1)), (1, scalar(COMPLEX_Q, 2))]
FOREIGN = [(1, basis_element(QUAT, 2))]


@pytest.mark.parametrize(
    "left, right",
    [
        (FOREIGN, OWN),
        (OWN, FOREIGN),
        (FOREIGN, [(-2, one(COMPLEX_Q))]),
        ([(0, scalar(COMPLEX_Q, 3))], FOREIGN),
        ([(0, basis_element(COMPLEX_Q, 1))], FOREIGN),
    ],
    ids=["left", "right", "unit-right", "scalar-left", "constant-left"],
)
def test_kernel_refuses_coefficients_of_another_ring(left, right):
    # The sums, the shift and the scaling read raw values, so the kernel
    # checks each term's descriptor on every path.
    with pytest.raises(DescriptorMismatch):
        twisted_product(SIGMA2, left, right)


# --- unit right factors and rational left factors ----------------------------

SED = SEDENIONS_Q
M3 = Matrix(3)
JORDAN = JordanPlus(Matrix(2))
CD_POLY = CayleyDickson(2, P1)
ONE_VARIABLE = [
    (OrePoly, ore_reference, 0, ctx)
    for ctx in (
        WEYL,
        DOUBLER,
        OreContext(SED, ConjugationMap(SED), ZeroMap(SED)),
        OreContext(M3, TransposeMap(M3), ZeroMap(M3)),
        OreContext(JORDAN, IdentityMap(JORDAN), ZeroMap(JORDAN)),
        OreContext(CD_POLY, ConjugationMap(CD_POLY), ZeroMap(CD_POLY)),
    )
] + [
    (LaurentPoly, laurent_reference, -4, ctx)
    for ctx in (
        SIGMA2,
        LaurentContext(SED, ConjugationMap(SED)),
        LaurentContext(M3, TransposeMap(M3)),
        LaurentContext(JORDAN, IdentityMap(JORDAN)),
        LaurentContext(CD_POLY, ConjugationMap(CD_POLY)),
    )
]
ITERATED = (
    TORUS,
    COMPLEX_PAIR,
    IteratedLaurentContext(SED, (ConjugationMap(SED), IdentityMap(SED))),
)
SERIES = [(cls, lo, ctx) for cls, _, lo, ctx in ONE_VARIABLE[2:]]  # delta = 0
RATIONAL = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@SETTINGS
@given(st.data())
def test_unit_right_factors_match_the_references(data):
    # p * X^n is p with its exponents shifted: every context fixes 1 exactly.
    for cls, reference, lo, ctx in ONE_VARIABLE:
        p = data.draw(polys(cls, ctx, lo, 5))
        xn = cls.x(ctx, data.draw(st.integers(lo, 4)))
        assert p * xn == reference(p, xn)
    for ctx in ITERATED:
        p = data.draw(multi_polys(ctx))
        u = data.draw(st.tuples(*[st.integers(-3, 3) for _ in ctx.sigmas]))
        xu = MultiLaurentPoly.monomial(ctx, one(ctx.ring), u)
        assert p * xu == multi_reference(p, xu)
    for cls, lo, ctx in SERIES:
        s = data.draw(windows(ctx, lo, data.draw(st.integers(1, 8))))
        e = data.draw(st.integers(lo, 4))
        expected = windowed_reference(
            ctx, stored(s), [(e, one(ctx.ring))], s.precision + e
        )
        assert series_times_poly(s, cls.x(ctx, e)) == expected
        assert shift_scale(s, one(ctx.ring), e) == expected


@SETTINGS
@given(st.data())
def test_rational_left_factors_match_the_references(data):
    # (q*1) * p is p scaled by q: every coefficient ring is a Q-algebra.
    for cls, reference, lo, ctx in ONE_VARIABLE:
        c = cls.constant(ctx, scalar(ctx.ring, data.draw(RATIONAL)))
        p = data.draw(polys(cls, ctx, lo, 4))
        assert c * p == reference(c, p)
        limit = data.draw(st.integers(lo, 5))
        assert twisted_product(ctx, c.terms, p.terms, limit) == tuple(
            (e, t) for e, t in reference(c, p).terms if e < limit
        )
    for ctx in ITERATED:
        c = MultiLaurentPoly.constant(ctx, scalar(ctx.ring, data.draw(RATIONAL)))
        p = data.draw(multi_polys(ctx))
        assert c * p == multi_reference(c, p)
    for cls, lo, ctx in SERIES:
        c = cls.constant(ctx, scalar(ctx.ring, data.draw(RATIONAL)))
        s = data.draw(windows(ctx, lo, data.draw(st.integers(1, 8))))
        if not c.is_zero():
            assert poly_times_series(c, s) == windowed_reference(
                ctx, c.terms, stored(s), s.precision
            )
