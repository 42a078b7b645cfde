"""Truncated series tests: precision bookkeeping, products, reduction steps."""

from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.config import load_session
from skewlab.maps import (
    ConjugationMap,
    FormalDerivative,
    IdentityMap,
    SigmaQComplex,
    ZeroMap,
)
from skewlab.rings import (
    COMPLEX_Q,
    QUATERNIONS_Q,
    RATIONALS,
    Poly1,
    UnsupportedDescriptor,
    basis_element,
    element,
    monomial_element,
    one,
    random_element,
    scalar,
    zero,
)
from skewlab.series import (
    TruncatedSeries,
    agree_below,
    poly_times_series,
    random_series,
    replay_reduction,
    series_mul,
    series_reduce_chain,
    series_reduce_step,
    series_times_poly,
    shift_scale,
)
from skewlab.skewpoly import (
    ContextMismatch,
    LaurentContext,
    LaurentPoly,
    OreContext,
    OrePoly,
    ReductionStep,
    poly_class,
    random_poly,
)

P1 = Poly1()


def q_laurent_ctx():
    return LaurentContext(RATIONALS, IdentityMap(RATIONALS))


def sigma2_ctx():
    return LaurentContext(COMPLEX_Q, SigmaQComplex(2))


def quat_ctx():
    return LaurentContext(QUATERNIONS_Q, ConjugationMap(QUATERNIONS_Q))


def test_series_context_validation():
    OreContext(P1, IdentityMap(P1), ZeroMap(P1))
    with pytest.raises(ValueError):
        TruncatedSeries.from_terms(
            OreContext(P1, IdentityMap(P1), FormalDerivative(P1)),
            [],
            4,
        )


def test_windows_over_unequal_contexts_do_not_combine():
    i = basis_element(COMPLEX_Q, 1)
    a = TruncatedSeries.from_terms(sigma2_ctx(), [(0, i)], 4)
    b = TruncatedSeries.from_terms(
        LaurentContext(COMPLEX_Q, SigmaQComplex(3)), [(0, i)], 4
    )
    for combine in (lambda p, q: p + q, lambda p, q: p * q):
        with pytest.raises(ContextMismatch, match="different contexts"):
            combine(a, b)


def test_power_series_windows_reject_negative_start():
    ctx = OreContext(P1, IdentityMap(P1), ZeroMap(P1))
    with pytest.raises(ValueError):
        TruncatedSeries.from_terms(ctx, [(-1, one(P1))], 4)
    # cancellation below zero is fine once the window is canonical
    s = TruncatedSeries.from_terms(ctx, [(-1, one(P1)), (-1, -one(P1)), (2, one(P1))], 4)
    assert s.start >= 0 and s.order() == 2


def test_geometric_telescoping_product():
    ctx = q_laurent_ctx()
    n = 16
    one_el = one(RATIONALS)
    p = TruncatedSeries.from_terms(ctx, [(0, one_el), (1, -one_el)], n)
    geo = TruncatedSeries.from_terms(ctx, [(k, one_el) for k in range(n)], n)
    prod = p * geo
    assert prod.precision == n
    assert prod == TruncatedSeries.one(ctx, n)


def test_product_precision_rule():
    ctx = q_laurent_ctx()
    a = random_series(ctx, Random(1), precision=7)
    b = random_series(ctx, Random(2), precision=5)
    prod = series_mul(a, b)
    assert prod.precision == min(a.precision + b.start, b.precision + a.start)


def test_complex_one_term_product():
    ctx = sigma2_ctx()
    i_el = basis_element(COMPLEX_Q, 1)
    s = TruncatedSeries.from_terms(ctx, [(1, i_el)], 6)
    prod = s * s
    # (i X)(i X) = (i sigma(i)) X^2 = (i * 2i) X^2 = -2 X^2
    assert prod.coefficient(2) == scalar(COMPLEX_Q, -2)
    assert prod.order() == 2


def test_mul_identity_preserves_precision():
    ctx = sigma2_ctx()
    rng = Random(3)
    p = random_series(ctx, rng, precision=9)
    assert p * TruncatedSeries.one(ctx, 9) == p


def test_order_and_leading_coefficient():
    ctx = q_laurent_ctx()
    one_el = one(RATIONALS)
    s = TruncatedSeries.from_terms(ctx, [(3, one_el), (5, one_el)], 10)
    assert s.order() == 3
    assert s.leading_coefficient() == one_el
    zw = TruncatedSeries.zero(ctx, 10)
    assert zw.order() is None
    with pytest.raises(ValueError):
        zw.leading_coefficient()
    y = monomial_element(P1, 1)
    lctx = LaurentContext(P1, IdentityMap(P1))
    neg = TruncatedSeries.from_terms(lctx, [(-2, y), (1, one(P1))], 4)
    assert neg.order() == -2


def test_precision_soundness_against_polynomial_product():
    ctx = sigma2_ctx()
    rng = Random(4)
    for _ in range(100):
        p = random_poly(ctx, rng)
        q = random_poly(ctx, rng)
        sp = TruncatedSeries.from_poly(p, 8)
        sq = TruncatedSeries.from_poly(q, 8)
        sprod = sp * sq
        exact = TruncatedSeries.from_terms(ctx, (p * q).terms, sprod.precision)
        assert agree_below(sprod, exact, sprod.precision)


def test_order_of_products_adds_over_division_rings():
    ctx = quat_ctx()
    rng = Random(5)
    for _ in range(100):
        a = random_series(ctx, rng, precision=8)
        b = random_series(ctx, rng, precision=8)
        pa, pb = a.order(), b.order()
        prod = a * b
        if pa is None or pb is None:
            assert prod.order() is None
        elif pa + pb < prod.precision:
            assert prod.order() == pa + pb


def test_series_nucleus_of_x_powers():
    ctx = sigma2_ctx()
    rng = Random(6)
    for n in (-2, 0, 1, 3):
        xn = TruncatedSeries.from_terms(ctx, [(n, one(COMPLEX_Q))], 8 + n)
        for _ in range(50):
            p = random_series(ctx, rng, precision=8)
            q = random_series(ctx, rng, precision=8)
            middle = (p * xn) * q - p * (xn * q)
            right = (p * q) * xn - p * (q * xn)
            assert middle.order() is None
            assert right.order() is None


def test_reduce_step_rational_example():
    ctx = q_laurent_ctx()
    one_el = one(RATIONALS)
    q = TruncatedSeries.from_terms(ctx, [(2, one_el), (3, one_el)], 8)
    g = TruncatedSeries.from_terms(ctx, [(2, one_el)], 8)
    q2, step = series_reduce_step(q, [g])
    assert step == ReductionStep(generator_index=0, shift=0, multiplier=one_el)
    assert q2.order() == 3
    assert agree_below(replay_reduction([g], [step], q2), q, q2.precision)


def test_reduce_step_quaternion_example():
    ctx = quat_ctx()
    i_el = basis_element(QUATERNIONS_Q, 1)
    j_el = basis_element(QUATERNIONS_Q, 2)
    q = TruncatedSeries.from_terms(ctx, [(1, j_el)], 6)
    g = TruncatedSeries.from_terms(ctx, [(1, i_el)], 6)
    q2, step = series_reduce_step(q, [g])
    assert step.shift == 0
    k_el = basis_element(QUATERNIONS_Q, 3)
    assert step.multiplier == k_el  # conj(inv(i) * j) = conj(-k) = k
    assert q2.order() is None or q2.order() > 1


def test_reduce_chain_replay_reconstructs():
    rng = Random(7)
    for ctx in (q_laurent_ctx(), quat_ctx()):
        ring = ctx.ring
        for _ in range(50):
            gens = []
            for _ in range(rng.randint(1, 2)):
                lead = random_element(ring, rng)
                while lead.is_zero():
                    lead = random_element(ring, rng)
                d = rng.randint(0, 2)
                extra = [
                    (rng.randint(d + 1, 5), random_element(ring, rng))
                    for _ in range(rng.randint(0, 2))
                ]
                gens.append(
                    TruncatedSeries.from_terms(ctx, [(d, lead)] + extra, 8)
                )
            # build q inside the right ideal so the chain can exhaust it
            q = TruncatedSeries.zero(ctx, 8)
            for g in gens:
                k = random_element(ring, rng)
                q = q + shift_scale(g, k, rng.randint(0, 2)).truncate(8)
            if q.order() is None:
                continue
            steps, residual = series_reduce_chain(q, gens)
            orders = []
            work = q
            for s in steps:
                orders.append(work.order())
                work, _ = series_reduce_step(work, gens)
            assert orders == sorted(orders) and len(set(orders)) == len(orders)
            rebuilt = replay_reduction(gens, steps, residual)
            assert agree_below(rebuilt, q, residual.precision)


def test_reduce_step_errors():
    ctx = q_laurent_ctx()
    one_el = one(RATIONALS)
    q = TruncatedSeries.from_terms(ctx, [(1, one_el)], 6)
    high = TruncatedSeries.from_terms(ctx, [(3, one_el)], 6)
    with pytest.raises(ValueError):
        series_reduce_step(q, [high])
    with pytest.raises(ValueError):
        series_reduce_step(TruncatedSeries.zero(ctx, 6), [high])
    pctx = LaurentContext(P1, IdentityMap(P1))
    pq = TruncatedSeries.from_terms(pctx, [(1, one(P1))], 6)
    with pytest.raises(UnsupportedDescriptor):
        series_reduce_step(pq, [pq])


def test_truncate_and_coefficient_access():
    ctx = q_laurent_ctx()
    one_el = one(RATIONALS)
    s = TruncatedSeries.from_terms(ctx, [(1, one_el), (4, one_el)], 6)
    t = s.truncate(3)
    assert t.precision == 3
    assert t.coefficient(1) == one_el
    assert s.coefficient(0) == zero(RATIONALS)
    with pytest.raises(ValueError):
        s.coefficient(6)
    with pytest.raises(ValueError):
        t.truncate(5)


def test_series_rendering():
    ctx = q_laurent_ctx()
    one_el = one(RATIONALS)
    s = TruncatedSeries.from_terms(ctx, [(0, one_el), (2, -one_el)], 5)
    assert str(s) == "1 - X^2 + O(X^5)"
    assert str(TruncatedSeries.zero(ctx, 5)) == "O(X^5)"


def test_window_constructors_take_a_precision():
    ctx = sigma2_ctx()
    i = basis_element(COMPLEX_Q, 1)
    built = {
        "zero": TruncatedSeries.zero(ctx, 4),
        "one": TruncatedSeries.one(ctx, 4),
        "constant": TruncatedSeries.constant(ctx, i, 4),
        "monomial": TruncatedSeries.monomial(ctx, i, -2, 4),
        "x": TruncatedSeries.x(ctx, 2, 4),
        "x beyond": TruncatedSeries.x(ctx, 5, 4),
        "zero constant": TruncatedSeries.constant(ctx, zero(COMPLEX_Q), 4),
    }
    expected = {
        "zero": [],
        "one": [(0, one(COMPLEX_Q))],
        "constant": [(0, i)],
        "monomial": [(-2, i)],
        "x": [(2, one(COMPLEX_Q))],
        "x beyond": [],
        "zero constant": [],
    }
    for name, window in built.items():
        assert window == TruncatedSeries.from_terms(ctx, expected[name], 4), name
        assert window.precision == 4, name
    assert str(built["monomial"]) == "i*X^-2 + O(X^4)"
    assert str(built["x beyond"]) == "O(X^4)"
    with pytest.raises(ValueError, match="start at exponent 0"):
        TruncatedSeries.x(power_q_ctx(), -1, 4)


# Dense reference for window arithmetic: one coefficient per exponent in
# ``start .. precision - 1``, zeros included, leading zeros stripped. Each
# window is the triple ``(start, coefficients, precision)``.


def dense_strip(start, coeffs, precision):
    coeffs = list(coeffs)
    while coeffs and coeffs[0].is_zero():
        coeffs.pop(0)
        start += 1
    return start, tuple(coeffs), precision


def dense_from_terms(ring, pairs, precision):
    acc = {}
    for e, c in pairs:
        if e < precision:
            acc[e] = acc[e] + c if e in acc else c
    start = min(acc, default=precision)
    coeffs = [acc.get(e, zero(ring)) for e in range(start, precision)]
    return dense_strip(start, coeffs, precision)


def dense_padded(ring, window, e):
    start, coeffs, precision = window
    if start <= e < precision:
        return coeffs[e - start]
    return zero(ring)


def dense_add(ring, a, b):
    precision = min(a[2], b[2])
    start = min(a[0], b[0], precision)
    coeffs = [
        dense_padded(ring, a, e) + dense_padded(ring, b, e)
        for e in range(start, precision)
    ]
    return dense_strip(start, coeffs, precision)


def dense_neg(window):
    start, coeffs, precision = window
    return start, tuple(-c for c in coeffs), precision


def dense_truncate(window, precision):
    start, coeffs, _ = window
    start = min(start, precision)
    return dense_strip(start, coeffs[: max(0, precision - start)], precision)


def as_dense(s):
    return s.start, s.coefficients, s.precision


def power_q_ctx():
    return OreContext(RATIONALS, IdentityMap(RATIONALS), ZeroMap(RATIONALS))


# (context, least exponent, least precision): the power series window starts
# at 0, the Laurent ones may start and end below 0.
WINDOW_CONTEXTS = {
    "power-q": (power_q_ctx, 0, 1),
    "laurent-q": (q_laurent_ctx, -4, -3),
    "laurent-sigma2": (sigma2_ctx, -4, -3),
}


def small_coefficient(ring, a, b):
    if ring == COMPLEX_Q:
        return scalar(ring, a) + scalar(ring, b) * basis_element(ring, 1)
    return scalar(ring, a)


@st.composite
def window_pairs(draw, ring, low, least_precision):
    """Raw terms and a precision; exponents reach past the precision, and
    the small coefficients make repeated exponents cancel often."""
    precision = draw(st.integers(least_precision, 8))
    pairs = draw(st.lists(
        st.tuples(
            st.integers(low, max(low, precision + 2)),
            st.integers(-2, 2),
            st.integers(-1, 1),
        ),
        max_size=8,
    ))
    return [(e, small_coefficient(ring, a, b)) for e, a, b in pairs], precision


@pytest.mark.parametrize("name", sorted(WINDOW_CONTEXTS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_window_arithmetic_matches_dense_reference(name, data):
    make_ctx, low, least_precision = WINDOW_CONTEXTS[name]
    ctx = make_ctx()
    ring = ctx.ring
    pairs_a, prec_a = data.draw(window_pairs(ring, low, least_precision))
    pairs_b, prec_b = data.draw(window_pairs(ring, low, least_precision))
    a = TruncatedSeries.from_terms(ctx, pairs_a, prec_a)
    b = TruncatedSeries.from_terms(ctx, pairs_b, prec_b)
    ref_a = dense_from_terms(ring, pairs_a, prec_a)
    ref_b = dense_from_terms(ring, pairs_b, prec_b)
    assert as_dense(a) == ref_a
    assert as_dense(b) == ref_b
    assert as_dense(a + b) == dense_add(ring, ref_a, ref_b)
    assert as_dense(a - b) == dense_add(ring, ref_a, dense_neg(ref_b))
    assert as_dense(-a) == dense_neg(ref_a)
    exhausted = a - a
    assert as_dense(exhausted) == (prec_a, (), prec_a)
    assert exhausted.order() is None

    for s, ref in ((a, ref_a), (a + b, dense_add(ring, ref_a, ref_b))):
        start, coeffs, precision = ref
        nonzero = [start + i for i, c in enumerate(coeffs) if not c.is_zero()]
        assert s.order() == (nonzero[0] if nonzero else None)
        if nonzero:
            assert s.leading_coefficient() == dense_padded(ring, ref, nonzero[0])
        else:
            with pytest.raises(ValueError):
                s.leading_coefficient()
        for e in range(low, precision):
            assert s.coefficient(e) == dense_padded(ring, ref, e)
        with pytest.raises(ValueError):
            s.coefficient(precision)
        for cut in range(low, precision + 1):
            assert as_dense(s.truncate(cut)) == dense_truncate(ref, cut)
        with pytest.raises(ValueError):
            s.truncate(precision + 1)

    shared = min(prec_a, prec_b)
    for bound in range(min(low, shared), shared + 1):
        expected = all(
            dense_padded(ring, ref_a, e) == dense_padded(ring, ref_b, e)
            for e in range(min(ref_a[0], ref_b[0], bound), bound)
        )
        assert agree_below(a, b, bound) is expected
        assert agree_below(a, a + (b - b), bound)
    with pytest.raises(ValueError):
        agree_below(a, b, shared + 1)


# Every window operation against the canonicalising path: each result must be
# the window ``from_terms`` builds from the raw terms, and canonical.

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
_QUATERNION = {
    "ring": {"cayley_dickson": {"level": 2}},
    "sigma": {"kind": "conjugation"},
    "precision": 8,
}
# The shipped series config, the benchmark's two and the one CI evaluates.
SERIES_CONFIGS = {
    "rational-power": CONFIGS / "rational_power_series.json",
    "quaternion-power": {**_QUATERNION, "structure": "power_series"},
    "quaternion-laurent": {**_QUATERNION, "structure": "laurent_series"},
    "complex-sigma2-laurent": {
        "ring": {"cayley_dickson": {"level": 1}},
        "sigma": {"kind": "sigma_q_complex", "q": "2"},
        "structure": "laurent_series",
        "precision": 4,
    },
}


def assert_canonical(window, power):
    exponents = [e for e, _ in window.terms]
    assert isinstance(window.terms, tuple)
    assert exponents == sorted(set(exponents))
    assert all(not c.is_zero() for _, c in window.terms)
    assert all(e < window.precision for e in exponents)
    if power:
        assert window.start >= 0


@pytest.mark.parametrize("name", sorted(SERIES_CONFIGS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_window_operations_are_canonical_and_match_from_terms(name, data):
    session = load_session(SERIES_CONFIGS[name])
    ctx = session.target.context
    power = session.structure == "power_series"
    low = 0 if power else -4
    cls = poly_class(ctx)
    # a few values and their negatives, so repeated exponents cancel often
    pool = [random_element(ctx.ring, Random(i)) for i in range(3)]
    pool += [-c for c in pool]
    raw = st.lists(st.tuples(st.integers(low, 9), st.sampled_from(pool)), max_size=6)
    precisions = st.integers(1 if power else -3, 8)

    def window(pairs, precision):
        return TruncatedSeries.from_terms(ctx, pairs, precision)

    a = window(data.draw(raw), data.draw(precisions))
    b = window(data.draw(raw), data.draw(precisions))
    p = cls.from_terms(ctx, data.draw(raw))
    precision = data.draw(precisions)
    cut = data.draw(st.integers(low, a.precision))
    k = data.draw(st.sampled_from(pool))
    shift = data.draw(st.integers(0 if power else -3, 3))
    poly_a, poly_b = cls.from_terms(ctx, a.terms), cls.from_terms(ctx, b.terms)
    shared = min(a.precision, b.precision)
    by_p = a.precision + p.order() if p else a.precision
    cases = [
        (TruncatedSeries.from_poly(p, precision), window(p.terms, precision)),
        (a.truncate(cut), window(a.terms, cut)),
        (a + b, window(a.terms + b.terms, shared)),
        (a - b, window(a.terms + tuple((e, -c) for e, c in b.terms), shared)),
        (a * b, window((poly_a * poly_b).terms,
                       min(a.precision + b.start, b.precision + a.start))),
        (series_times_poly(a, p), window((poly_a * p).terms, by_p)),
        (poly_times_series(p, a), window((p * poly_a).terms, by_p)),
        (shift_scale(a, k, shift), window((poly_a * cls.monomial(ctx, k, shift)).terms,
                                          a.precision + shift)),
    ]
    for got, expected in cases:
        assert got == expected
        assert_canonical(got, power)
