"""Acceptance suite: one test per shipped criterion, all exact arithmetic.

Each test prints a PASS line (visible with ``pytest -s`` or on failure); the
test names carry the criterion numbers. Expected values marked as derived
were computed by the independent oracles in this file or frozen from the
oracle-backed unit tests before being asserted here.
"""

import itertools
from fractions import Fraction
from random import Random

from skewlab.expr import EvalTarget, ExprProfile, evaluate, parse, render_ast
from skewlab.maps import (
    CoefficientDoubler,
    ConjugationMap,
    FormalDerivative,
    IdentityMap,
    QuantumTorusSigma,
    SigmaQComplex,
    ZeroMap,
    power_apply,
)
from skewlab.noetherian import (
    CounterexampleConfig,
    counterexample_witness,
    sigma_ideal_image_check,
)
from skewlab.rings import (
    COMPLEX_Q,
    QUATERNIONS_Q,
    RATIONALS,
    JordanPlus,
    Poly1,
    associator,
    basis_element,
    element,
    monomial_element,
    monomial_ideal_member,
    one,
    random_element,
    scalar,
    zero,
)
from skewlab.series import (
    TruncatedSeries,
    agree_below,
    replay_reduction,
    series_reduce_chain,
    series_reduce_step,
    shift_scale,
)
from skewlab.skewpoly import (
    IteratedLaurentContext,
    LaurentContext,
    LaurentPoly,
    MultiLaurentPoly,
    OreContext,
    OrePoly,
    nucleus_check_power,
    pi,
    poly_associator,
    polynomial_part,
    assemble_left_normal,
    left_normal_form,
    random_poly,
    right_divide,
)

P1 = Poly1()


def _pass(number: int, label: str):
    print(f"ACCEPTANCE {number}: PASS - {label}")


def test_c01_quaternion_relations():
    i, j, k = (basis_element(QUATERNIONS_Q, n) for n in (1, 2, 3))
    minus_one = -one(QUATERNIONS_Q)
    assert i * i == minus_one
    assert j * j == minus_one
    assert k * k == minus_one
    assert (i * j) * k == minus_one
    _pass(1, "i^2 = j^2 = k^2 = (ij)k = -1 exactly")


def test_c02_jordan_associator():
    hplus = JordanPlus(QUATERNIONS_Q)
    i = element(hplus, basis_element(QUATERNIONS_Q, 1).value)
    j = element(hplus, basis_element(QUATERNIONS_Q, 2).value)
    assert associator(i, i, j) == -j
    _pass(2, "(i, i, j) = -j in the quaternion Jordan algebra")


def test_c03_pi_operator():
    ctx = OreContext(P1, CoefficientDoubler(P1), FormalDerivative(P1))

    def pi_by_words(m, i, s):
        total = zero(P1)
        for sigma_slots in itertools.combinations(range(m), i):
            v = s
            for pos in reversed(range(m)):
                v = ctx.sigma.apply(v) if pos in sigma_slots else ctx.delta.apply(v)
            total = total + v
        return total

    rng = Random(2024)
    for m in range(7):
        samples = [random_element(P1, rng) for _ in range(20)]
        for i in range(m + 1):
            for s in samples:
                assert pi(ctx, m, i, s) == pi_by_words(m, i, s)
    sig, dlt = ctx.sigma.apply, ctx.delta.apply
    for s in (random_element(P1, rng) for _ in range(20)):
        assert pi(ctx, 3, 1, s) == sig(dlt(dlt(s))) + dlt(sig(dlt(s))) + dlt(dlt(sig(s)))
    _pass(3, "recursive pi equals the exhaustive word sum up to m = 6")


def test_c04_nucleus():
    ore = OreContext(P1, CoefficientDoubler(P1), FormalDerivative(P1))
    for n in range(5):
        report = nucleus_check_power(ore, n, trials=40, seed=100 + n)
        assert report.passed, report.message
    laurent = LaurentContext(COMPLEX_Q, SigmaQComplex(2))
    for n in range(-3, 4):
        report = nucleus_check_power(laurent, n, trials=30, seed=200 + n)
        assert report.passed, report.message
    _pass(4, "X^n stays in the middle and right nuclei (200+ triples per context)")


def _complex_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _hand_term_mul(q, lhs, rhs):
    """Independent oracle: (r X^m)(s X^n) = (r sigma_q^m(s)) X^(m+n) on pairs."""
    (r, m), (s, n) = lhs, rhs
    t = s
    for _ in range(abs(m)):
        t = (t[0], (q if m > 0 else Fraction(1) / q) * t[1])
    return (_complex_mul(r, t), m + n)


def test_c05_associativity_dichotomy():
    rng = Random(5)
    for q in (1, -1):
        ctx = LaurentContext(COMPLEX_Q, SigmaQComplex(q))
        for _ in range(500):
            trip = [random_poly(ctx, rng) for _ in range(3)]
            assert poly_associator(*trip).is_zero()

    # hand expansion first: ((X i) i) - (X (i i)) = -3 X for q = 2
    one_pair, i_pair = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    xi = _hand_term_mul(2, (one_pair, 1), (i_pair, 0))
    lhs = _hand_term_mul(2, xi, (i_pair, 0))
    ii = _hand_term_mul(2, (i_pair, 0), (i_pair, 0))
    rhs = _hand_term_mul(2, (one_pair, 1), ii)
    assert lhs[1] == rhs[1] == 1
    assert (lhs[0][0] - rhs[0][0], lhs[0][1] - rhs[0][1]) == (Fraction(-3), Fraction(0))

    for q in (2, 3):
        ctx = LaurentContext(COMPLEX_Q, SigmaQComplex(q))
        x = LaurentPoly.x(ctx)
        ip = LaurentPoly.constant(ctx, basis_element(COMPLEX_Q, 1))
        witness = poly_associator(x, ip, ip)
        assert not witness.is_zero()
        if q == 2:
            assert witness == LaurentPoly.monomial(ctx, scalar(COMPLEX_Q, -3), 1)
        found = False
        for _ in range(500):
            trip = [random_poly(ctx, rng) for _ in range(3)]
            if not poly_associator(*trip).is_zero():
                found = True
                break
        assert found
    _pass(5, "associators vanish for q = +-1 and witness -3*X appears for q = 2")


def test_c06_weyl_relation():
    ctx = OreContext(P1, IdentityMap(P1), FormalDerivative(P1))
    x = OrePoly.x(ctx)
    y = OrePoly.constant(ctx, monomial_element(P1, 1))
    assert x * y - y * x == OrePoly.one(ctx)
    _pass(6, "X*Y - Y*X = 1 in the twisted ring over Q[Y] with the derivative")


def test_c07_right_division_soundness():
    combos = [
        OreContext(RATIONALS, IdentityMap(RATIONALS), ZeroMap(RATIONALS)),
        OreContext(COMPLEX_Q, IdentityMap(COMPLEX_Q), ZeroMap(COMPLEX_Q)),
        OreContext(COMPLEX_Q, SigmaQComplex(2), ZeroMap(COMPLEX_Q)),
        OreContext(QUATERNIONS_Q, IdentityMap(QUATERNIONS_Q), ZeroMap(QUATERNIONS_Q)),
        OreContext(
            QUATERNIONS_Q, ConjugationMap(QUATERNIONS_Q), ZeroMap(QUATERNIONS_Q)
        ),
    ]
    rng = Random(7)
    for ctx in combos:
        for _ in range(100):
            gens = []
            while not gens:
                gens = [
                    g
                    for g in (
                        random_poly(ctx, rng, (0, 3))
                        for _ in range(rng.randint(1, 3))
                    )
                    if not g.is_zero()
                ]
            p = random_poly(ctx, rng, (0, 6), 4)
            trace = right_divide(p, gens)
            assert trace.remainder.degree() < min(g.degree() for g in gens)
            assert trace.replay(gens) == p
    _pass(7, "100 division instances per coefficient ring replay exactly")


def test_c08_normal_forms():
    ore = OreContext(P1, CoefficientDoubler(P1), FormalDerivative(P1))
    rng = Random(8)
    for _ in range(100):
        p = random_poly(ore, rng)
        assert assemble_left_normal(ore, left_normal_form(p)) == p
    laurent = LaurentContext(COMPLEX_Q, SigmaQComplex(2))
    done = 0
    while done < 100:
        p = random_poly(laurent, rng)
        if p.is_zero():
            continue
        q, m = polynomial_part(p)
        assert q.order() == 0
        assert q * LaurentPoly.x(laurent, m) == p
        done += 1
    _pass(8, "left normal form and polynomial-part factorization round-trip")


def test_c09_series():
    ctx = LaurentContext(RATIONALS, IdentityMap(RATIONALS))
    n = 16
    one_el = one(RATIONALS)
    geometric = TruncatedSeries.from_terms(ctx, [(k, one_el) for k in range(n)], n)
    one_minus_x = TruncatedSeries.from_terms(ctx, [(0, one_el), (1, -one_el)], n)
    assert one_minus_x * geometric == TruncatedSeries.one(ctx, n)

    rng = Random(9)
    contexts = [
        ctx,
        LaurentContext(QUATERNIONS_Q, ConjugationMap(QUATERNIONS_Q)),
    ]
    for sctx in contexts:
        ring = sctx.ring
        done = 0
        while done < 50:
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
                gens.append(TruncatedSeries.from_terms(sctx, [(d, lead)] + extra, 8))
            q = TruncatedSeries.zero(sctx, 8)
            for g in gens:
                q = q + shift_scale(
                    g, random_element(ring, rng), rng.randint(0, 2)
                ).truncate(8)
            if q.order() is None:
                continue
            orders = []
            work = q
            while work.order() is not None:
                orders.append(work.order())
                work, _ = series_reduce_step(work, gens)
            assert orders == sorted(set(orders))
            steps, residual = series_reduce_chain(q, gens)
            rebuilt = replay_reduction(gens, steps, residual)
            assert agree_below(rebuilt, q, residual.precision)
            done += 1
    _pass(9, "geometric telescoping at precision 16; reduction replays exactly")


def test_c10_counterexample_corroboration():
    image = sigma_ideal_image_check(samples=200, bound=12)
    assert image.passed, image.message
    for m in (1, 2, 3):
        cfg = CounterexampleConfig(
            max_generator_degree=m,
            trials=500,
            multiplier_degree_bound=4,
            coefficient_degree_bound=4,
            seed=10 + m,
        )
        report = counterexample_witness(cfg)
        assert report.violations == []
        assert report.y_outside_y_squared
        assert not report.vacuous
        assert report.corroborated
    _pass(10, "sigma image check exhaustive to bound 12; zero violations at m = 1..3")


def test_c11_iterated_laurent():
    ictx = IteratedLaurentContext(P1, (QuantumTorusSigma(2, P1), IdentityMap(P1)))
    x1 = MultiLaurentPoly.variable(ictx, 0)
    x2 = MultiLaurentPoly.variable(ictx, 1)
    assert x1 * x2 == x2 * x1

    lctx = LaurentContext(COMPLEX_Q, SigmaQComplex(2))
    single = IteratedLaurentContext(COMPLEX_Q, (SigmaQComplex(2),))
    rng = Random(11)
    for _ in range(100):
        p = random_poly(lctx, rng)
        q = random_poly(lctx, rng)
        ip = MultiLaurentPoly.from_terms(single, [((e,), c) for e, c in p.terms])
        iq = MultiLaurentPoly.from_terms(single, [((e,), c) for e, c in q.terms])
        assert (ip * iq).terms == tuple(((e,), c) for e, c in (p * q).terms)

    torus = LaurentContext(P1, QuantumTorusSigma(2, P1))
    x = LaurentPoly.x(torus)
    yy = LaurentPoly.constant(torus, monomial_element(P1, 1))
    two = LaurentPoly.constant(torus, scalar(P1, 2))
    assert x * yy == (two * yy) * x
    _pass(11, "variables commute; n = 1 matches the Laurent product; X*Y = 2Y*X")


def test_c12_parser():
    from test_expr import _random_ast

    profiles = [
        ExprProfile("ore", P1),
        ExprProfile("laurent", COMPLEX_Q),
        ExprProfile("laurent", QUATERNIONS_Q),
        ExprProfile("power_series", RATIONALS),
        ExprProfile("iterated_laurent", P1, num_indeterminates=2),
    ]
    rng = Random(12)
    for round_idx in range(500):
        profile = profiles[round_idx % len(profiles)]
        ast = _random_ast(rng, profile, rng.randint(1, 4))
        text = render_ast(ast)
        assert parse(text, profile) == ast
        assert render_ast(parse(text, profile)) == text

    lctx = LaurentContext(COMPLEX_Q, SigmaQComplex(2))
    target = EvalTarget("laurent", COMPLEX_Q, context=lctx)
    profile = ExprProfile("laurent", COMPLEX_Q)
    a = evaluate(parse("(i*X)*i", profile), target)
    b = evaluate(parse("i*(X*i)", profile), target)
    ip = LaurentPoly.constant(lctx, basis_element(COMPLEX_Q, 1))
    assert a - b == poly_associator(ip, LaurentPoly.x(lctx), ip)
    _pass(12, "500 expressions round-trip; association difference is the associator")
