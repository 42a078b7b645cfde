"""Truncated series tests: precision bookkeeping, products, reduction steps."""

from random import Random

import pytest

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
    SeriesReduceStep,
    TruncatedSeries,
    agree_below,
    random_series,
    replay_reduction,
    series_mul,
    series_reduce_chain,
    series_reduce_step,
    shift_scale,
)
from skewlab.skewpoly import (
    LaurentContext,
    LaurentPoly,
    OreContext,
    OrePoly,
    random_laurent_poly,
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
    zw = TruncatedSeries.zero_window(ctx, 10)
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
        p = random_laurent_poly(ctx, rng)
        q = random_laurent_poly(ctx, rng)
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
    assert step == SeriesReduceStep(0, one_el, 0)
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
            q = TruncatedSeries.zero_window(ctx, 8)
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
        series_reduce_step(TruncatedSeries.zero_window(ctx, 6), [high])
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
    assert str(TruncatedSeries.zero_window(ctx, 5)) == "O(X^5)"
