"""Coefficient-tower tests: exact arithmetic, conjugation, associators.

The Cayley-Dickson checks are anchored to an independent oracle below that
multiplies flat octonion coordinate vectors through a hard-coded quaternion
table plus one explicit doubling step, so the nested-pair implementation is
never checked against itself.
"""

import itertools
from decimal import Decimal
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.rings import (
    COMPLEX_Q,
    OCTONIONS_Q,
    QUATERNIONS_Q,
    RATIONALS,
    SEDENIONS_Q,
    CayleyDickson,
    DescriptorMismatch,
    JordanPlus,
    Matrix,
    NotInvertible,
    Poly1,
    Poly2,
    UnsupportedDescriptor,
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

F = Fraction


# --- independent Cayley-Dickson oracle (flat vectors, hard-coded tables) ---

def quat_mul_flat(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 + a2 * b0 + a3 * b1 - a1 * b3,
        a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
    )


def quat_conj_flat(a):
    return (a[0], -a[1], -a[2], -a[3])


def oct_mul_flat(x, y):
    # one doubling step over the quaternion table:
    # (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c))
    a, b = x[:4], x[4:]
    c, d = y[:4], y[4:]
    lo = tuple(
        p - q for p, q in zip(quat_mul_flat(a, c), quat_mul_flat(quat_conj_flat(d), b))
    )
    hi = tuple(
        p + q for p, q in zip(quat_mul_flat(d, a), quat_mul_flat(b, quat_conj_flat(c)))
    )
    return lo + hi


def oct_from_lib(el):
    return OCTONIONS_Q.flat_values(el.value)


i, j, k = (basis_element(QUATERNIONS_Q, n) for n in (1, 2, 3))
e = [basis_element(OCTONIONS_Q, n) for n in range(8)]


def test_rational_arithmetic():
    a = scalar(RATIONALS, "1/2")
    b = scalar(RATIONALS, "1/3")
    assert a + b == scalar(RATIONALS, "5/6")
    assert (a * b).value == F(1, 6)
    assert scalar(RATIONALS, 2).inverse() == scalar(RATIONALS, "1/2")
    with pytest.raises(NotInvertible):
        zero(RATIONALS).inverse()


def test_scalar_refuses_inexact_values_after_an_equal_exact_one():
    # 0.5 and Decimal("0.5") equal F(1, 2) and hash like it; scalar refuses
    # them however it was called before.
    assert scalar(QUATERNIONS_Q, F(1, 2)) == scalar(QUATERNIONS_Q, "1/2")
    for inexact in (0.5, Decimal("0.5")):
        with pytest.raises(TypeError):
            scalar(QUATERNIONS_Q, inexact)


def test_add_identity_and_cancellation():
    rng = Random(1)
    d = Poly1()
    for _ in range(20):
        p = random_element(d, rng)
        assert p + zero(d) == p
        assert p - p == zero(d)
    assert (i + j) + (i - j) == 2 * i


def test_quaternion_relations_exact():
    minus_one = -one(QUATERNIONS_Q)
    assert i * i == minus_one
    assert j * j == minus_one
    assert k * k == minus_one
    assert (i * j) * k == minus_one
    assert i * j == k
    assert j * i == -k


def test_octonion_table_against_flat_oracle():
    for a in range(8):
        for b in range(8):
            got = oct_from_lib(e[a] * e[b])
            ea = tuple(F(1) if n == a else F(0) for n in range(8))
            eb = tuple(F(1) if n == b else F(0) for n in range(8))
            assert got == oct_mul_flat(ea, eb), f"e{a}*e{b}"


def test_octonion_e1_e2_is_e3():
    assert e[1] * e[2] == e[3]


def test_octonion_associator_nonzero_and_alternative():
    # (e1, e2, e4) = 2*e7 under this doubling convention (oracle-confirmed).
    ea = tuple(F(1) if n == 1 else F(0) for n in range(8))
    eb = tuple(F(1) if n == 2 else F(0) for n in range(8))
    ec = tuple(F(1) if n == 4 else F(0) for n in range(8))
    lhs = oct_mul_flat(oct_mul_flat(ea, eb), ec)
    rhs = oct_mul_flat(ea, oct_mul_flat(eb, ec))
    oracle = tuple(p - q for p, q in zip(lhs, rhs))
    got = associator(e[1], e[2], e[4])
    assert oct_from_lib(got) == oracle
    assert got == 2 * e[7]
    assert got != zero(OCTONIONS_Q)

    rng = Random(2)
    for _ in range(200):
        a = random_element(OCTONIONS_Q, rng)
        b = random_element(OCTONIONS_Q, rng)
        assert associator(a, a, b).is_zero()
        assert associator(b, a, a).is_zero()


def test_quaternions_associative_sampled():
    rng = Random(3)
    for _ in range(200):
        a, b, c = (random_element(QUATERNIONS_Q, rng) for _ in range(3))
        assert associator(a, b, c).is_zero()


def test_sedenions_have_nonzero_associator():
    d = SEDENIONS_Q
    a, b, c = (basis_element(d, n) for n in (1, 2, 4))
    assert not associator(a, b, c).is_zero()


def test_conjugation_is_involutive_additive_antimultiplicative():
    assert element(COMPLEX_Q, (1, 2)).conjugate() == element(COMPLEX_Q, (1, -2))
    assert (i * j).conjugate() == j.conjugate() * i.conjugate()
    assert one(OCTONIONS_Q).conjugate() == one(OCTONIONS_Q)
    rng = Random(4)
    for level in (1, 2, 3):
        d = CayleyDickson(level)
        for _ in range(100):
            a = random_element(d, rng)
            b = random_element(d, rng)
            assert a.conjugate().conjugate() == a
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()
            assert (a * b).conjugate() == b.conjugate() * a.conjugate()


def test_norm_positive_definite_levels_up_to_three():
    rng = Random(5)
    for level in (0, 1, 2, 3):
        d = CayleyDickson(level)
        for _ in range(100):
            a = random_element(d, rng)
            conj_v = d.conj_value(a.value)
            norm_flat = d.flat_values(d.mul_values(a.value, conj_v))
            assert all(c == 0 for c in norm_flat[1:])
            assert norm_flat[0] >= 0
            assert (norm_flat[0] == 0) == a.is_zero()


def test_inverses():
    assert element(COMPLEX_Q, (1, 1)).inverse() == element(
        COMPLEX_Q, (F(1, 2), F(-1, 2))
    )
    assert j.inverse() == -j
    rng = Random(6)
    for level in (1, 2, 3):
        d = CayleyDickson(level)
        for _ in range(50):
            a = random_element(d, rng)
            if a.is_zero():
                continue
            inv = a.inverse()
            assert a * inv == one(d)
            assert inv * a == one(d)
    with pytest.raises(UnsupportedDescriptor):
        basis_element(SEDENIONS_Q, 1).inverse()


def test_descriptor_mismatch_raises():
    with pytest.raises(DescriptorMismatch):
        i + basis_element(COMPLEX_Q, 1)
    with pytest.raises(DescriptorMismatch):
        i * scalar(RATIONALS, 2)


def test_ring_axioms_sampled_per_descriptor():
    descriptors = [
        RATIONALS,
        COMPLEX_Q,
        QUATERNIONS_Q,
        OCTONIONS_Q,
        SEDENIONS_Q,
        JordanPlus(QUATERNIONS_Q),
        Poly1(),
        Poly2(),
        Matrix(2),
    ]
    rng = Random(7)
    for d in descriptors:
        for _ in range(200):
            a = random_element(d, rng)
            b = random_element(d, rng)
            c = random_element(d, rng)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert one(d) * a == a
            assert a * one(d) == a


def test_jordan_product_and_associator():
    hplus = JordanPlus(QUATERNIONS_Q)
    ji = element(hplus, i.value)
    jj = element(hplus, j.value)
    assert ji * jj == zero(hplus)  # (ij + ji) / 2 = 0
    assert associator(ji, ji, jj) == -jj

    rng = Random(8)
    for _ in range(200):
        a = random_element(hplus, rng)
        b = random_element(hplus, rng)
        assert a * b == b * a
        aa = a * a
        assert (a * b) * aa == a * (b * aa)  # Jordan identity


def test_jordan_requires_associative_base():
    with pytest.raises(UnsupportedDescriptor):
        JordanPlus(OCTONIONS_Q)


def test_jordan_over_commutative_base_is_plain_product():
    d = JordanPlus(RATIONALS)
    assert d.is_associative
    a = scalar(d, 3)
    b = scalar(d, "1/3")
    assert a * b == one(d)


def test_matrix_arithmetic():
    d = Matrix(2)
    a = element(d, [1, 2, 3, 4])
    b = element(d, [0, 1, 1, 0])
    assert a * b == element(d, [2, 1, 4, 3])
    assert b * a == element(d, [3, 4, 1, 2])
    assert one(d) == element(d, [1, 0, 0, 1])
    assert d.transpose_value(a.value) == element(d, [1, 3, 2, 4]).value


def test_cayley_dickson_level_cap():
    with pytest.raises(UnsupportedDescriptor):
        CayleyDickson(5)
    with pytest.raises(UnsupportedDescriptor):
        CayleyDickson(-1)


@pytest.mark.parametrize(
    "base",
    [COMPLEX_Q, OCTONIONS_Q, JordanPlus(QUATERNIONS_Q), JordanPlus(JordanPlus(COMPLEX_Q))],
    ids=["complex", "octonion", "jordan-quaternion", "jordan-jordan-complex"],
)
def test_cayley_dickson_over_named_units_is_refused(base):
    # Both rings would name their units i, j, k, eN, so ((0, 1), (0, 0)) and
    # ((0, 0), (1, 0)) would both print as i.
    with pytest.raises(UnsupportedDescriptor, match="basis names would collide"):
        CayleyDickson(1, base)


def test_cayley_dickson_over_unnamed_bases_still_builds():
    assert CayleyDickson(2, CayleyDickson(0)).is_associative
    assert str(basis_element(CayleyDickson(1, Poly1()), 1)) == "i"
    assert CayleyDickson(1, JordanPlus(Matrix(2))).base == JordanPlus(Matrix(2))


Y2 = Poly2()


def mono2(a, b, c=1):
    return monomial_element(Y2, (a, b), c)


def test_monomial_ideal_membership_examples():
    p = mono2(3, 1) + mono2(2, 0)  # Y^3 Z + Y^2
    gen = mono2(2, 0)  # Y^2
    assert monomial_ideal_member(p, [gen])
    assert not monomial_ideal_member(mono2(1, 0), [gen])
    assert monomial_ideal_member(zero(Y2), [gen])
    with pytest.raises(ValueError):
        monomial_ideal_member(p, [gen + mono2(0, 1)])
    with pytest.raises(UnsupportedDescriptor):
        monomial_ideal_member(scalar(RATIONALS, 1), [])


def brute_member_poly1(terms, gen_exps):
    return all(any(e >= g for g in gen_exps) for e in terms)


def test_monomial_ideal_member_matches_brute_force_poly1():
    d = Poly1()
    exps = range(5)
    gen_sets = [(2,), (1, 3), (0,), (4,)]
    for coeffs in itertools.product((-1, 0, 1), repeat=5):
        raw = [(e, c) for e, c in zip(exps, coeffs) if c]
        p = element(d, raw)
        support = [t[0] for t in d.flat_terms(p.value)]
        for gens in gen_sets:
            gen_els = [monomial_element(d, g) for g in gens]
            assert monomial_ideal_member(p, gen_els) == brute_member_poly1(
                support, gens
            )


def test_monomial_ideal_member_matches_brute_force_poly2():
    monos = [(a, b) for a in range(3) for b in range(3) if a + b <= 2]
    gen_sets = [[(2, 0)], [(1, 1)], [(2, 0), (0, 2)]]
    for coeffs in itertools.product((-1, 0, 1), repeat=len(monos)):
        raw = [(m, c) for m, c in zip(monos, coeffs) if c]
        p = element(Y2, raw)
        support = [t[0] for t in Y2.flat_terms(p.value)]
        for gens in gen_sets:
            gen_els = [mono2(*g) for g in gens]
            expected = all(
                any(e[0] >= g[0] and e[1] >= g[1] for g in gens) for e in support
            )
            assert monomial_ideal_member(p, gen_els) == expected


def test_rendering_is_canonical():
    assert str(scalar(RATIONALS, "-5/6")) == "-5/6"
    assert str(i + 2 * j) == "i + 2*j"
    assert str(one(COMPLEX_Q) - basis_element(COMPLEX_Q, 1)) == "1 - i"
    p1 = Poly1()
    p = scalar(p1, 2) - monomial_element(p1, 1) + monomial_element(p1, 2, 3)
    assert str(p) == "2 - Y + 3*Y^2"
    assert str(mono2(3, 1) + mono2(2, 0)) == "Y^2 + Y^3*Z"
    assert str(zero(Poly1())) == "0"
    m = element(Matrix(2), [1, 0, 0, -1])
    assert str(m) == "[[1, 0], [0, -1]]"
    assert str(basis_element(OCTONIONS_Q, 5)) == "e5"


ZERO_TEST_RINGS = {
    "Q": RATIONALS,
    **{f"CD{lv}/Q": CayleyDickson(lv) for lv in range(5)},
    **{f"CD{lv}/Poly1": CayleyDickson(lv, Poly1()) for lv in range(5)},
    "JordanPlus/H": JordanPlus(QUATERNIONS_Q),
    "JordanPlus/Matrix2": JordanPlus(Matrix(2)),
    "Poly1": Poly1(),
    "Poly2": Poly2(),
    "Matrix1": Matrix(1),
    "Matrix2": Matrix(2),
    "Matrix3": Matrix(3),
    "Matrix1/C": Matrix(1, COMPLEX_Q),
    "Matrix1/Poly1": Matrix(1, Poly1()),
}


@pytest.mark.parametrize("name", sorted(ZERO_TEST_RINGS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_is_zero_value_agrees_with_equality_to_zero(name, seed):
    d = ZERO_TEST_RINGS[name]
    a = d.sample_value(Random(seed))
    values = [a, d.zero_value(), d.one_value(), d.add_values(a, d.neg_value(a))]
    if isinstance(d, CayleyDickson):
        values += [basis_element(d, k).value for k in range(1 << d.level)]
    for v in values:
        assert d.is_zero_value(v) == (v == d.zero_value())


@pytest.mark.parametrize("name", sorted(ZERO_TEST_RINGS))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32))
def test_canon_is_idempotent_on_canonical_values(name, seed):
    d = ZERO_TEST_RINGS[name]
    a = d.sample_value(Random(seed))
    for v in (a, d.zero_value(), d.one_value(), d.neg_value(a)):
        assert d.canon(v) == v
        if isinstance(d, (CayleyDickson, Matrix)):
            assert d.canon(d.flat_values(v)) == v


def coordinates(d, v) -> dict:
    """The nonzero rational coordinates of ``v``, keyed by their place."""
    if isinstance(d, JordanPlus):
        return coordinates(d.base, v)
    if d == RATIONALS:
        return {(): v} if v else {}
    if isinstance(d, (Poly1, Poly2)):
        return {(e,): c for e, c in d.flat_terms(v)}
    return {
        (k, *place): c
        for k, x in enumerate(d.flat_values(v))
        for place, c in coordinates(d.base, x).items()
    }


BASIS_SIZES = {
    "Q": 1,
    **{f"CD{lv}/Q": 2**lv for lv in range(5)},
    **{f"CD{lv}/Poly1": 5 * 2**lv for lv in range(5)},
    "JordanPlus/H": 4,
    "JordanPlus/Matrix2": 4,
    "Poly1": 5,
    "Poly2": 16,
    "Matrix1": 1,
    "Matrix2": 4,
    "Matrix3": 9,
    "Matrix1/C": 2,
    "Matrix1/Poly1": 5,
}


@pytest.mark.parametrize("name", sorted(ZERO_TEST_RINGS))
def test_basis_values_are_units_whose_span_holds_every_sample(name):
    d = ZERO_TEST_RINGS[name]
    basis = d.basis_values()
    places = set()
    for b in basis:
        assert d.canon(b) == b
        (place, c), = coordinates(d, b).items()
        assert c == 1 and place not in places
        places.add(place)
    assert len(places) == BASIS_SIZES[name]
    rng = Random(5)
    for _ in range(100):
        assert set(coordinates(d, d.sample_value(rng))) <= places


BIADDITIVE_RINGS = {
    "Q": RATIONALS,
    **{f"CD{lv}/Q": CayleyDickson(lv) for lv in range(5)},
    "CD2/Poly1": CayleyDickson(2, Poly1()),
    "Matrix1": Matrix(1),
    "Matrix2": Matrix(2),
    "Matrix2/C": Matrix(2, COMPLEX_Q),
    "Matrix3": Matrix(3),
    "JordanPlus/H": JordanPlus(QUATERNIONS_Q),
    "Poly1": Poly1(),
    "Poly2": Poly2(),
}


@pytest.mark.parametrize("name", sorted(BIADDITIVE_RINGS))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(seeds=st.lists(st.integers(0, 2**32), min_size=3, max_size=3))
def test_products_are_biadditive(name, seeds):
    d = BIADDITIVE_RINGS[name]
    a, b, c = (random_element(d, Random(seed)) for seed in seeds)
    assert (a + b) * c == a * c + b * c
    assert a * (b + c) == a * b + a * c


def folded_dot(d, pairs):
    acc = d.zero_value()
    for a, b in pairs:
        acc = d.add_values(acc, d.mul_values(a, b))
    return acc


@pytest.mark.parametrize("name", sorted(ZERO_TEST_RINGS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=5),
    scales=st.lists(st.sampled_from([1, 2, 3, 7, 11, 30]), min_size=5, max_size=5),
)
def test_dot_values_matches_the_fold_of_products(name, seeds, scales):
    # dot_values(pairs) is the canonical sum(a*b for a, b in pairs), which
    # rings over Q sum in integers over one denominator. Scaling by 1/k mixes
    # the denominators; (a, b) next to (-a, b) must cancel to the canonical
    # zero, which compares equal to zero_value() and has the same repr.
    d = ZERO_TEST_RINGS[name]
    pairs = []
    for seed, k in zip(seeds, scales):
        rng = Random(seed)
        a, b = d.sample_value(rng), d.sample_value(rng)
        pairs.append((d.scale_value(a, Fraction(1, k)), b))
    a, b = pairs[0]
    cancelling = [(a, b), (d.neg_value(a), b)]
    cases = [
        (pairs, folded_dot(d, pairs)),
        ([(a, b)], d.mul_values(a, b)),
        ([(b, a)], d.mul_values(b, a)),
        (cancelling, d.zero_value()),
        (pairs + cancelling, folded_dot(d, pairs)),
        ([], d.zero_value()),
    ]
    for case, expected in cases:
        got = d.dot_values(case)
        assert got == expected
        assert repr(got) == repr(expected)
        assert d.is_zero_value(got) == (got == d.zero_value())


@pytest.mark.parametrize("name", sorted(ZERO_TEST_RINGS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), q=st.fractions(max_denominator=9))
def test_scalar_of_reads_rational_multiples_of_one(name, seed, q):
    # scalar_of(a) is q exactly when a == q*1, and then a product by a on
    # either side is the scaling by q.
    d = ZERO_TEST_RINGS[name]
    b = d.sample_value(Random(seed))
    assert d.scalar_of(scalar(d, q).value) == q
    for a in (b, scalar(d, q).value, d.add_values(b, d.one_value())):
        p = d.scalar_of(a)
        if p is not None:
            assert a == scalar(d, p).value
            assert d.mul_values(a, b) == d.scale_value(b, p) == d.mul_values(b, a)


def test_scalar_of_refuses_non_scalars():
    cd1, cd2 = CayleyDickson(1, Poly1()), CayleyDickson(2, Poly1())
    jordan = JordanPlus(Matrix(2))
    cases = [
        (COMPLEX_Q, basis_element(COMPLEX_Q, 1)),
        (cd2, one(cd2) + basis_element(cd2, 3)),
        (cd1, element(cd1, [[(1, 1)], []])),
        (Poly1(), monomial_element(Poly1(), 1)),
        (Poly2(), scalar(Poly2(), 2) + monomial_element(Poly2(), (0, 1))),
        (Matrix(2), element(Matrix(2), [1, 0, 0, 2])),
        (Matrix(2), element(Matrix(2), [1, 1, 0, 1])),
        (jordan, element(jordan, [0, 1, 1, 0])),
    ]
    for d, a in cases:
        assert d.scalar_of(a.value) is None, (d, a)
