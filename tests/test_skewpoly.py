"""Twisted polynomial tests.

Two independent oracles anchor the hard parts:

* the pi operator recursion is checked against an exhaustive enumeration of
  all sigma/delta words (itertools.combinations picks which slots are sigma);
* the Laurent associativity witness is checked against a hand expansion of
  single-term products using standalone complex arithmetic on pairs.
"""

import itertools
from fractions import Fraction
from random import Random

import pytest

from skewlab.maps import (
    CoefficientDoubler,
    ConjugationMap,
    FormalDerivative,
    IdentityMap,
    NoInverse,
    QuantumTorusSigma,
    SigmaQComplex,
    TransposeMap,
    ZeroMap,
    power_apply,
)
from skewlab.rings import (
    COMPLEX_Q,
    OCTONIONS_Q,
    QUATERNIONS_Q,
    RATIONALS,
    Matrix,
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
from skewlab.skewpoly import (
    NEG_INFINITY,
    POS_INFINITY,
    ContextMismatch,
    IteratedLaurentContext,
    LaurentContext,
    LaurentPoly,
    MultiLaurentPoly,
    OreContext,
    OrePoly,
    ReductionTrace,
    assemble_left_normal,
    left_normal_form,
    nucleus_check_power,
    pi,
    pi_row,
    poly_associator,
    polynomial_part,
    random_poly,
    right_divide,
)

P1 = Poly1()


def doubler_ctx():
    return OreContext(P1, CoefficientDoubler(P1), FormalDerivative(P1))


def weyl_ctx():
    return OreContext(P1, IdentityMap(P1), FormalDerivative(P1))


def sigma2_ctx():
    return LaurentContext(COMPLEX_Q, SigmaQComplex(2))


# --- pi operator -----------------------------------------------------------

def pi_by_words(ctx, m, i, s):
    """Oracle: sum over all C(m, i) explicit sigma/delta words applied to s."""
    if i < 0 or i > m:
        return zero(ctx.ring)
    total = zero(ctx.ring)
    for sigma_slots in itertools.combinations(range(m), i):
        v = s
        for pos in reversed(range(m)):  # rightmost letter acts first
            v = ctx.sigma.apply(v) if pos in sigma_slots else ctx.delta.apply(v)
        total = total + v
    return total


def test_pi_matches_word_enumeration():
    ctx = doubler_ctx()
    rng = Random(20)
    for m in range(7):
        samples = [random_element(P1, rng) for _ in range(20)]
        for i in range(m + 1):
            for s in samples:
                assert pi(ctx, m, i, s) == pi_by_words(ctx, m, i, s)


def test_pi_explicit_three_letter_expansion():
    ctx = doubler_ctx()
    sig, dlt = ctx.sigma.apply, ctx.delta.apply
    rng = Random(21)
    for _ in range(50):
        s = random_element(P1, rng)
        expected = sig(dlt(dlt(s))) + dlt(sig(dlt(s))) + dlt(dlt(sig(s)))
        assert pi(ctx, 3, 1, s) == expected


def test_pi_out_of_range_and_extremes():
    ctx = doubler_ctx()
    rng = Random(22)
    s = random_element(P1, rng)
    assert pi(ctx, 1, 2, s).is_zero()
    for m in range(6):
        assert pi(ctx, m, m, s) == power_apply(ctx.sigma, m, s)
        expected = s
        for _ in range(m):
            expected = ctx.delta.apply(expected)
        assert pi(ctx, m, 0, s) == expected


# --- Ore multiplication ----------------------------------------------------

def test_x_times_constant_is_sigma_x_plus_delta():
    ctx = doubler_ctx()
    rng = Random(23)
    x = OrePoly.x(ctx)
    for _ in range(50):
        s = random_element(P1, rng)
        got = x * OrePoly.constant(ctx, s)
        expected = OrePoly.from_terms(
            ctx, [(1, ctx.sigma.apply(s)), (0, ctx.delta.apply(s))]
        )
        assert got == expected


def test_one_is_two_sided_identity():
    for ctx, sample in (
        (doubler_ctx(), random_poly),
        (weyl_ctx(), random_poly),
    ):
        rng = Random(24)
        for _ in range(50):
            p = sample(ctx, rng)
            assert OrePoly.one(ctx) * p == p
            assert p * OrePoly.one(ctx) == p
    lctx = sigma2_ctx()
    rng = Random(24)
    for _ in range(50):
        p = random_poly(lctx, rng)
        assert LaurentPoly.one(lctx) * p == p
        assert p * LaurentPoly.one(lctx) == p


def test_weyl_relation():
    ctx = weyl_ctx()
    x = OrePoly.x(ctx)
    y = OrePoly.constant(ctx, monomial_element(P1, 1))
    assert x * y - y * x == OrePoly.one(ctx)


def test_biadditivity_sampled():
    ctx = doubler_ctx()
    rng = Random(25)
    for _ in range(200):
        p, p2, q = (random_poly(ctx, rng) for _ in range(3))
        assert (p + p2) * q == p * q + p2 * q
        assert q * (p + p2) == q * p + q * p2
    lctx = sigma2_ctx()
    for _ in range(200):
        p, p2, q = (random_poly(lctx, rng) for _ in range(3))
        assert (p + p2) * q == p * q + p2 * q
        assert q * (p + p2) == q * p + q * p2


# --- Laurent multiplication ------------------------------------------------

def complex_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def sigma_q_pair(q, a):
    return (a[0], q * a[1])


def laurent_term_mul_oracle(q, lhs, rhs):
    """Hand expansion of (r X^m)(s X^n) = (r sigma^m(s)) X^(m+n) on pairs."""
    (r, m), (s, n) = lhs, rhs
    t = s
    step = q if m >= 0 else Fraction(1) / q
    for _ in range(abs(m)):
        t = sigma_q_pair(step, t)
    return (complex_mul(r, t), m + n)


def test_laurent_associativity_witness_matches_hand_expansion():
    q = Fraction(2)
    i_pair = (Fraction(0), Fraction(1))
    # (X * i) * i by hand: X*i = (sigma(i)) X = 2i X; (2i X) * i = (2i sigma(i)) X
    xi, e1 = laurent_term_mul_oracle(q, ((Fraction(1), Fraction(0)), 1), (i_pair, 0))
    lhs, el = laurent_term_mul_oracle(q, (xi, e1), (i_pair, 0))
    # X * (i * i) by hand: i*i = -1; X * (-1) = sigma(-1) X = -X
    ii, _ = laurent_term_mul_oracle(q, (i_pair, 0), (i_pair, 0))
    rhs, er = laurent_term_mul_oracle(q, ((Fraction(1), Fraction(0)), 1), (ii, 0))
    assert el == er == 1
    diff = (lhs[0] - rhs[0], lhs[1] - rhs[1])
    assert diff == (Fraction(-3), Fraction(0))  # the expected -3 X witness

    ctx = sigma2_ctx()
    x = LaurentPoly.x(ctx)
    i_el = basis_element(COMPLEX_Q, 1)
    ip = LaurentPoly.constant(ctx, i_el)
    got = (x * ip) * ip - x * (ip * ip)
    assert got == LaurentPoly.monomial(ctx, scalar(COMPLEX_Q, -3), 1)
    assert poly_associator(x, ip, ip) == got


def test_laurent_shift_round_trip():
    ctx = sigma2_ctx()
    rng = Random(26)
    for b in range(-3, 4):
        xb = LaurentPoly.x(ctx, b)
        xnb = LaurentPoly.x(ctx, -b)
        for _ in range(20):
            p = random_poly(ctx, rng)
            assert xb * (xnb * p) == p


class InverseMovesOne(SigmaQComplex):
    """sigma_2 on the complexes, with a bundled inverse wrong only at 1."""

    def inverse_value(self, v):
        if v == COMPLEX_Q.one_value():
            return scalar(COMPLEX_Q, 2).value
        return super().inverse_value(v)


def test_contexts_refuse_an_inverse_that_moves_one():
    # A unit right factor X^n is a shift of the left terms for negative n
    # too, which needs sigma^-1(1) == 1 exactly.
    sigma = InverseMovesOne(2)
    with pytest.raises(ValueError, match=r"sigma\^-1\(1\) != 1"):
        LaurentContext(COMPLEX_Q, sigma)
    with pytest.raises(ValueError, match=r"sigma\^-1\(1\) != 1"):
        IteratedLaurentContext(COMPLEX_Q, (SigmaQComplex(-3), sigma))


# --- degree / order / leading coefficient ----------------------------------

def test_degree_order_sentinels():
    ctx = weyl_ctx()
    z = OrePoly.zero(ctx)
    assert z.degree() == NEG_INFINITY
    assert z.order() == POS_INFINITY
    assert not isinstance(z.degree(), int)
    with pytest.raises(ValueError):
        z.leading_coefficient()
    y = monomial_element(P1, 1)
    p = OrePoly.from_terms(ctx, [(3, y), (1, one(P1))])
    assert p.degree() == 3
    assert p.leading_coefficient() == y
    lctx = sigma2_ctx()
    lp = LaurentPoly.from_terms(
        lctx, [(-2, one(COMPLEX_Q)), (5, one(COMPLEX_Q))]
    )
    assert lp.order() == -2
    assert lp.degree() == 5


def test_degree_of_products():
    lctx = sigma2_ctx()
    rng = Random(27)
    for _ in range(100):
        p = random_poly(lctx, rng)
        q = random_poly(lctx, rng)
        pq = p * q
        if p.is_zero() or q.is_zero():
            assert pq.is_zero()
            continue
        # over a division coefficient ring with injective sigma the leading
        # term r * sigma^m(s) cannot vanish
        assert pq.degree() == p.degree() + q.degree()
        assert pq.order() == p.order() + q.order()


def test_degree_subadditive_over_matrix_coefficients():
    # zero divisors can kill the leading term, but never raise the degree
    mctx = LaurentContext(Matrix(2), TransposeMap(Matrix(2)))
    rng = Random(127)
    for _ in range(100):
        p = random_poly(mctx, rng)
        q = random_poly(mctx, rng)
        pq = p * q
        assert pq.degree() <= p.degree() + q.degree()


# --- nuclei and the associativity dichotomy --------------------------------

def test_nucleus_of_x_powers():
    ore = doubler_ctx()
    for n in range(5):
        assert nucleus_check_power(ore, n, 40, seed=1).passed
    lctx = sigma2_ctx()
    for n in range(-3, 4):
        assert nucleus_check_power(lctx, n, 40, seed=1).passed
    with pytest.raises(ValueError):
        nucleus_check_power(ore, -1, 10)


def test_left_slot_fails_for_non_multiplicative_sigma():
    ctx = sigma2_ctx()
    x = LaurentPoly.x(ctx)
    ip = LaurentPoly.constant(ctx, basis_element(COMPLEX_Q, 1))
    assert not poly_associator(x, ip, ip).is_zero()


def test_associative_contexts_have_zero_associators():
    rng = Random(28)
    wctx = weyl_ctx()
    for _ in range(500):
        trip = [random_poly(wctx, rng, (0, 3)) for _ in range(3)]
        assert poly_associator(*trip).is_zero()
    conj = LaurentContext(COMPLEX_Q, SigmaQComplex(-1))
    for _ in range(500):
        trip = [random_poly(conj, rng) for _ in range(3)]
        assert poly_associator(*trip).is_zero()


def find_nonzero_associator(ctx, sampler, trials, rng):
    for _ in range(trials):
        trip = [sampler(ctx, rng) for _ in range(3)]
        if not poly_associator(*trip).is_zero():
            return trip
    return None


def test_nonassociative_contexts_yield_witnesses():
    rng = Random(29)
    s2 = sigma2_ctx()
    assert find_nonzero_associator(s2, random_poly, 500, rng)
    mats = LaurentContext(Matrix(2), TransposeMap(Matrix(2)))
    assert find_nonzero_associator(mats, random_poly, 500, rng)
    octs = LaurentContext(OCTONIONS_Q, ConjugationMap(OCTONIONS_Q))
    assert find_nonzero_associator(octs, random_poly, 500, rng)


# --- normal forms ----------------------------------------------------------

def test_left_normal_form_round_trip():
    ctx = doubler_ctx()
    rng = Random(30)
    for _ in range(100):
        p = random_poly(ctx, rng)
        pairs = left_normal_form(p)
        assert assemble_left_normal(ctx, pairs) == p
    r = random_element(P1, rng)
    assert left_normal_form(OrePoly.constant(ctx, r)) == (
        ((0, r),) if not r.is_zero() else ()
    )


def test_left_normal_form_pure_sigma_shift():
    # with delta = 0 the form of r X^n is X^n sigma^(-n)(r)
    ctx = OreContext(P1, CoefficientDoubler(P1), ZeroMap(P1))
    rng = Random(31)
    for n in range(4):
        r = random_element(P1, rng)
        if r.is_zero():
            continue
        p = OrePoly.monomial(ctx, r, n)
        assert left_normal_form(p) == ((n, power_apply(ctx.sigma, -n, r)),)


def test_left_normal_form_needs_inverse():
    ctx = OreContext(P1, IdentityMap(P1), FormalDerivative(P1))
    # identity has an inverse, so build a context whose sigma does not
    class Surjection(CoefficientDoubler):
        def __init__(self, domain):
            super().__init__(domain)
            self.has_inverse = False

    ctx = OreContext(P1, Surjection(P1), ZeroMap(P1))
    with pytest.raises(NoInverse):
        left_normal_form(OrePoly.x(ctx))


def test_polynomial_part():
    ctx = sigma2_ctx()
    rng = Random(32)
    for _ in range(100):
        p = random_poly(ctx, rng)
        if p.is_zero():
            continue
        q, m = polynomial_part(p)
        assert m == p.order()
        assert q.order() == 0
        assert q * LaurentPoly.x(ctx, m) == p
    x5 = LaurentPoly.x(ctx, 5)
    q, m = polynomial_part(x5)
    assert (q, m) == (LaurentPoly.one(ctx), 5)
    flat = LaurentPoly.from_terms(ctx, [(0, one(COMPLEX_Q)), (1, one(COMPLEX_Q))])
    assert polynomial_part(flat) == (flat, 0)
    with pytest.raises(ValueError):
        polynomial_part(LaurentPoly.zero(ctx))


def test_polynomial_part_explicit_instance():
    lctx = LaurentContext(P1, CoefficientDoubler(P1))
    y = monomial_element(P1, 1)
    p = LaurentPoly.from_terms(lctx, [(-2, y), (1, one(P1))])
    q, m = polynomial_part(p)
    assert m == -2
    assert q == LaurentPoly.from_terms(lctx, [(0, y), (3, one(P1))])
    assert q * LaurentPoly.x(lctx, -2) == p


# --- right division --------------------------------------------------------

def quat_conj_ctx():
    return OreContext(QUATERNIONS_Q, ConjugationMap(QUATERNIONS_Q), ZeroMap(QUATERNIONS_Q))


def test_right_divide_quaternion_example():
    ctx = quat_conj_ctx()
    j = basis_element(QUATERNIONS_Q, 2)
    g = OrePoly.monomial(ctx, j, 1)  # j X
    assert g * g == OrePoly.x(ctx, 2)  # (j X)(j X) = (j conj(j)) X^2 = X^2
    trace = right_divide(OrePoly.x(ctx, 2), [g])
    assert trace.remainder.is_zero()
    assert trace.replay([g]) == OrePoly.x(ctx, 2)


def test_right_divide_low_degree_dividend():
    ctx = quat_conj_ctx()
    g = OrePoly.x(ctx, 2)
    p = OrePoly.constant(ctx, basis_element(QUATERNIONS_Q, 1))
    trace = right_divide(p, [g])
    assert trace.steps == ()
    assert trace.remainder == p


def test_right_divide_reconstruction_random():
    rng = Random(33)
    contexts = [
        OreContext(RATIONALS, IdentityMap(RATIONALS), ZeroMap(RATIONALS)),
        OreContext(COMPLEX_Q, SigmaQComplex(2), ZeroMap(COMPLEX_Q)),
        quat_conj_ctx(),
    ]
    for ctx in contexts:
        for _ in range(100):
            gens = []
            for _ in range(rng.randint(1, 3)):
                g = random_poly(ctx, rng, (0, 3))
                if not g.is_zero():
                    gens.append(g)
            if not gens:
                continue
            p = random_poly(ctx, rng, (0, 6), 4)
            trace = right_divide(p, gens)
            min_deg = min(g.degree() for g in gens)
            assert trace.remainder.degree() < min_deg
            assert trace.replay(gens) == p


def test_right_divide_rejects_bad_inputs():
    ctx = doubler_ctx()  # Poly1 coefficients: not a division ring
    with pytest.raises(UnsupportedDescriptor):
        right_divide(OrePoly.x(ctx), [OrePoly.one(ctx)])
    qctx = quat_conj_ctx()
    with pytest.raises(ValueError):
        right_divide(OrePoly.x(qctx), [OrePoly.zero(qctx)])
    with pytest.raises(ValueError):
        right_divide(OrePoly.x(qctx), [])


# --- iterated Laurent ------------------------------------------------------

def torus_ctx():
    return IteratedLaurentContext(
        P1, (QuantumTorusSigma(2, P1), IdentityMap(P1))
    )


def test_variables_commute():
    ctx = torus_ctx()
    x1 = MultiLaurentPoly.variable(ctx, 0)
    x2 = MultiLaurentPoly.variable(ctx, 1)
    assert x1 * x2 == x2 * x1


def test_quantum_torus_relation():
    ctx = torus_ctx()
    x1 = MultiLaurentPoly.variable(ctx, 0)
    y = MultiLaurentPoly.constant(ctx, monomial_element(P1, 1))
    q = MultiLaurentPoly.constant(ctx, scalar(P1, 2))
    assert x1 * y == (q * y) * x1


def test_single_variable_iterated_matches_laurent():
    lctx = sigma2_ctx()
    ictx = IteratedLaurentContext(COMPLEX_Q, (SigmaQComplex(2),))
    rng = Random(34)
    for _ in range(100):
        p = random_poly(lctx, rng)
        q = random_poly(lctx, rng)
        ip = MultiLaurentPoly.from_terms(ictx, [((e,), c) for e, c in p.terms])
        iq = MultiLaurentPoly.from_terms(ictx, [((e,), c) for e, c in q.terms])
        prod = p * q
        iprod = ip * iq
        assert iprod.terms == tuple(((e,), c) for e, c in prod.terms)


def test_iterated_context_requires_commuting_sigmas():
    from skewlab.maps import CounterexampleSigma, TwistMap
    from skewlab.rings import Poly2

    P2 = Poly2()

    class SwapVariables(TwistMap):
        kind = "swap_variables"

        def __init__(self):
            super().__init__(
                P2, {"additive", "respects_one", "injective", "surjective"}, True
            )

        def value(self, v):
            return P2.canon([((b, y), c) for (y, b), c in v])

        inverse_value = value

    with pytest.raises(ValueError):
        IteratedLaurentContext(P2, (CounterexampleSigma(P2), SwapVariables()))


def test_context_mismatch_errors():
    a = doubler_ctx()
    b = weyl_ctx()
    with pytest.raises(ContextMismatch):
        OrePoly.x(a) + OrePoly.x(b)
    with pytest.raises(ContextMismatch):
        OrePoly.x(a) * OrePoly.x(b)


def test_poly_rendering():
    ctx = weyl_ctx()
    y = monomial_element(P1, 1)
    p = OrePoly.from_terms(ctx, [(0, scalar(P1, 2) - y), (2, scalar(P1, 3))])
    assert str(p) == "2 - Y + 3*X^2"
    q = OrePoly.monomial(ctx, scalar(P1, 2) - y + monomial_element(P1, 2, 3), 2)
    assert str(q) == "(2 - Y + 3*Y^2)*X^2"
    lctx = sigma2_ctx()
    r = LaurentPoly.monomial(lctx, scalar(COMPLEX_Q, -3), 1)
    assert str(r) == "-3*X"
    assert str(LaurentPoly.x(lctx, -2)) == "X^-2"
    ictx = torus_ctx()
    m = MultiLaurentPoly.variable(ictx, 0, 2) * MultiLaurentPoly.variable(ictx, 1, -1)
    assert str(m) == "X1^2*X2^-1"
