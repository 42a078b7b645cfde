"""Grammar tests: parsing, canonical rendering, association preservation."""

from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab.config import load_session
from skewlab.expr import (
    MAX_NESTING,
    Bin,
    EvalError,
    EvalTarget,
    ExprError,
    ExprProfile,
    Lit,
    Mat,
    Name,
    Neg,
    OTail,
    constant_table,
    eval_element,
    evaluate,
    parse,
    render_ast,
)
from skewlab.maps import (
    ConjugationMap,
    FormalDerivative,
    IdentityMap,
    SigmaQComplex,
)
from skewlab.rings import (
    COMPLEX_Q,
    QUATERNIONS_Q,
    RATIONALS,
    JordanPlus,
    Matrix,
    Poly1,
    Poly2,
    basis_element,
    element,
    monomial_element,
    one,
    scalar,
)
from skewlab.series import TruncatedSeries
from skewlab.skewpoly import (
    LaurentContext,
    LaurentPoly,
    OreContext,
    OrePoly,
    poly_associator,
)

P1 = Poly1()


def ore_target():
    ctx = OreContext(P1, IdentityMap(P1), FormalDerivative(P1))
    return EvalTarget("ore", P1, context=ctx)


def laurent_target():
    ctx = LaurentContext(COMPLEX_Q, SigmaQComplex(2))
    return EvalTarget("laurent", COMPLEX_Q, context=ctx)


def series_target(precision=16):
    ctx = LaurentContext(RATIONALS, IdentityMap(RATIONALS))
    return EvalTarget(
        "power_series", RATIONALS, context=ctx, precision=precision
    )


def test_parse_coefficient_times_power():
    profile = ExprProfile("ore", P1)
    ast = parse("(2 - Y + 3*Y^2)*X^2", profile)
    assert isinstance(ast, Bin) and ast.op == "*"
    assert ast.right == Name("X", 2)
    value = evaluate(ast, ore_target())
    coeff = scalar(P1, 2) - monomial_element(P1, 1) + monomial_element(P1, 2, 3)
    assert value == OrePoly.monomial(ore_target().context, coeff, 2)


def test_negative_exponent_rejected_in_ore():
    with pytest.raises(ExprError) as err:
        parse("X^-1", ExprProfile("ore", P1))
    assert err.value.position == 0
    parse("X^-1", ExprProfile("laurent", COMPLEX_Q))


def test_association_is_preserved():
    profile = ExprProfile("laurent", COMPLEX_Q)
    left = parse("(i*X)*i", profile)
    right = parse("i*(X*i)", profile)
    assert left != right
    assert left == Bin("*", Bin("*", Name("i"), Name("X")), Name("i"))
    assert right == Bin("*", Name("i"), Bin("*", Name("X"), Name("i")))


def test_nodes_compare_with_their_type():
    assert Lit(1) != OTail(1) and not Lit(1) == OTail(1)
    assert Lit(1) != (1,) and (1,) != Lit(1)
    assert Name("X") == Name("X", 1) and Name("X") != Name("X", 2)
    assert len({Lit(1), OTail(1), Lit(1), Neg(Lit(1))}) == 3


def test_eval_weyl_relation_and_canonical_text():
    target = ore_target()
    profile = ExprProfile("ore", P1)
    value = evaluate(parse("X*Y - Y*X", profile), target)
    assert str(value) == "1"


def test_eval_respects_association_contract():
    target = laurent_target()
    profile = ExprProfile("laurent", COMPLEX_Q)
    chain = evaluate(parse("i*X*i", profile), target)
    explicit = evaluate(parse("(i*X)*i", profile), target)
    other = evaluate(parse("i*(X*i)", profile), target)
    assert chain == explicit
    ctx = target.context
    ip = LaurentPoly.constant(ctx, element(COMPLEX_Q, (0, 1)))
    x = LaurentPoly.x(ctx)
    assert explicit - other == poly_associator(ip, x, ip)


def test_eval_identity_multiplication():
    target = ore_target()
    profile = ExprProfile("ore", P1)
    p = evaluate(parse("1*((2 - Y)*X)", profile), target)
    q = evaluate(parse("(2 - Y)*X", profile), target)
    assert p == q


def test_sigma2_witness_value():
    target = laurent_target()
    profile = ExprProfile("laurent", COMPLEX_Q)
    value = evaluate(parse("(X*i)*i - X*(i*i)", profile), target)
    assert str(value) == "-3*X"


def test_unknown_constant_and_positions():
    with pytest.raises(ExprError) as err:
        parse("2 + w", ExprProfile("ore", P1))
    assert err.value.position == 4
    with pytest.raises(ExprError):
        parse("", ExprProfile("ore", P1))
    with pytest.raises(ExprError) as err2:
        parse("2 +", ExprProfile("ore", P1))
    assert err2.value.position == 3


def test_exponent_restrictions():
    with pytest.raises(ExprError):
        parse("i^2", ExprProfile("laurent", COMPLEX_Q))
    with pytest.raises(ExprError):
        parse("Y^-1", ExprProfile("ore", P1))
    with pytest.raises(ExprError):
        parse("Y^1/2", ExprProfile("ore", P1))


@pytest.mark.parametrize("opener, closer", [("(", ")"), ("-", "")])
def test_nesting_limit(opener, closer):
    profile = ExprProfile("ore", P1)

    def nest(depth):
        return "0 + " + opener * depth + "Y" + closer * depth

    assert isinstance(parse(nest(MAX_NESTING), profile), Bin)
    siblings = " + ".join([nest(MAX_NESTING // 2)] * 3)
    assert isinstance(parse(siblings, profile), Bin)
    for depth in (MAX_NESTING + 1, 3000):
        with pytest.raises(ExprError, match=f"deeper than {MAX_NESTING}") as err:
            parse(nest(depth), profile)
        assert err.value.position == 4 + MAX_NESTING


def test_zero_denominator_literal():
    with pytest.raises(ExprError):
        parse("3/0", ExprProfile("ore", P1))


_LONG_DECIMAL = "1" * 400 + "." + "1" * 4000


@pytest.mark.parametrize(
    "text, value",
    [("12", Fraction(12)), ("0", Fraction(0)), ("3/4", Fraction(3, 4)),
     ("6/4", Fraction(3, 2)), ("0.50", Fraction(1, 2)), ("2/1", Fraction(2)),
     # the digit limit of int() holds for each part of a decimal on its own
     pytest.param(_LONG_DECIMAL, Fraction(_LONG_DECIMAL), id="4400-digit-decimal")],
)
def test_number_literals_are_exact(text, value):
    lit = parse(text, ExprProfile("ore", P1))
    assert lit == Lit(value) and type(lit.value) is Fraction


@pytest.mark.parametrize(
    "text, exponent", [("X^12", 12), ("X^-3", -3), ("X^4/2", 2), ("X^2.0", 2)]
)
def test_integer_exponents(text, exponent):
    name = parse(text, ExprProfile("laurent", COMPLEX_Q))
    assert name == Name("X", exponent) and type(name.exponent) is int


def test_o_tail_rules():
    profile = ExprProfile("power_series", RATIONALS)
    ast = parse("1 + X + O(X^8)", profile)
    value = evaluate(ast, series_target())
    assert value.precision == 8
    assert str(value) == "1 + X + O(X^8)"
    with pytest.raises(ExprError):
        parse("1 + O(X^8)", ExprProfile("ore", P1))
    alone = evaluate(parse("O(X^5)", profile), series_target())
    assert alone == TruncatedSeries.zero(series_target().context, 5)
    negative = parse("1 + O(X^-1)", ExprProfile("laurent_series", RATIONALS))
    assert negative == Bin("+", Lit(Fraction(1)), OTail(-1))


@pytest.mark.parametrize("text", ["X^\u0663", "X\u0663", "\uff11"])
def test_numbers_are_ascii_digits(text):
    with pytest.raises(ExprError, match="unexpected character"):
        parse(text, ExprProfile("laurent", COMPLEX_Q))


def test_series_eval_keeps_polynomials_exact():
    target = series_target(precision=16)
    profile = ExprProfile("power_series", RATIONALS)
    geo = " + ".join(["1"] + [f"X^{k}" for k in range(1, 16)])
    value = evaluate(parse(f"(1 - X)*({geo})", profile), target)
    assert value == TruncatedSeries.one(target.context, 16)
    mixed = evaluate(parse("(1 - X)*(1 + X + X^2 + O(X^3))", profile), target)
    assert mixed.precision == 3
    assert str(mixed) == "1 + O(X^3)"


def test_matrix_literals():
    md = Matrix(2)
    profile = ExprProfile("element", md)
    m = eval_element(parse("[[1, 0], [0, -1]]", profile), md)
    assert m == element(md, [1, 0, 0, -1])
    with pytest.raises(EvalError):
        eval_element(parse("[[1, 0], [0, 1]]", ExprProfile("element", md)), RATIONALS)
    with pytest.raises(EvalError):
        eval_element(parse("[[1], [0]]", profile), md)


def test_constant_tables():
    assert set(constant_table(QUATERNIONS_Q)) == {"i", "j", "k", "e0", "e1", "e2", "e3"}
    assert set(constant_table(P1)) == {"Y"}
    assert set(constant_table(Poly2())) == {"Y", "Z"}
    jp = JordanPlus(QUATERNIONS_Q)
    table = constant_table(jp)
    kind, payload = table["i"]
    assert kind == "unit" and payload.descriptor == jp


def test_constant_table_is_built_once_per_ring(monkeypatch):
    session = load_session(
        {"ring": {"cayley_dickson": {"level": 4}}, "sigma": {"kind": "identity"},
         "structure": "ore"}
    )
    calls = []

    def counted(ring, index):
        calls.append(index)
        return basis_element(ring, index)

    monkeypatch.setattr("skewlab.expr.basis_element", counted)
    counts = []
    for runs in (1, 5):
        constant_table.cache_clear()
        calls.clear()
        for _ in range(runs):
            assert str(session.evaluate("e1*e2 + e3")) == "2*e3"
        counts.append(len(calls))
    assert counts[0] > 0 and counts[0] == counts[1]


# --- canonical round trips ---------------------------------------------------

def _random_ast(rng: Random, profile: ExprProfile, depth: int):
    if depth <= 0:
        choice = rng.random()
        if choice < 0.35:
            return Lit(Fraction(rng.randint(0, 9), rng.randint(1, 9)))
        names = list(constant_table(profile.ring).items())
        indets = profile.indeterminate_names()
        if choice < 0.75 and names:
            name, (kind, _payload) = rng.choice(names)
            if kind == "var":
                return Name(name, rng.randint(0, 3))
            return Name(name)
        if indets:
            low = -3 if profile.structure in ("laurent", "laurent_series") else 0
            return Name(rng.choice(indets), rng.randint(low, 3))
        return Lit(Fraction(rng.randint(0, 9)))
    pick = rng.random()
    if pick < 0.15:
        return Neg(_random_ast(rng, profile, depth - 1))
    if pick < 0.2 and profile.structure in ("power_series", "laurent_series"):
        return Bin(
            "+",
            _random_ast(rng, profile, depth - 1),
            OTail(rng.randint(2, 9)),
        )
    op = rng.choice(("+", "-", "*"))
    return Bin(
        op,
        _random_ast(rng, profile, depth - 1),
        _random_ast(rng, profile, rng.randint(0, depth - 1)),
    )


CONFIG_PATHS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


@pytest.mark.parametrize(
    "profile, seed",
    [
        (ExprProfile("ore", P1), 1),
        (ExprProfile("laurent", COMPLEX_Q), 2),
        (ExprProfile("laurent", QUATERNIONS_Q), 3),
        (ExprProfile("power_series", RATIONALS), 4),
        (ExprProfile("iterated_laurent", P1, num_indeterminates=2), 5),
    ]
    + [
        (load_session(path).target.profile(), 6 + i)
        for i, path in enumerate(CONFIG_PATHS)
    ],
    ids=["ore", "laurent-c", "laurent-h", "series", "iterated"]
    + [path.stem for path in CONFIG_PATHS],
)
def test_parse_render_round_trip(profile, seed):
    rng = Random(seed)
    for _ in range(100):
        ast = _random_ast(rng, profile, rng.randint(1, 4))
        text = render_ast(ast)
        reparsed = parse(text, profile)
        assert reparsed == ast, text
        assert render_ast(reparsed) == text


def _asts(profile: ExprProfile):
    """Trees the parser accepts in ``profile``'s session, as a strategy."""
    negative_x = profile.structure in ("laurent", "laurent_series", "iterated_laurent")
    x_exponents = st.integers(-5 if negative_x else 0, 5)
    leaves = [
        st.builds(Lit, st.fractions(min_value=0, max_denominator=12)),
        st.builds(Name, st.sampled_from(profile.indeterminate_names()), x_exponents),
    ]
    for name, (kind, _payload) in sorted(constant_table(profile.ring).items()):
        if kind == "var":
            leaves.append(st.builds(Name, st.just(name), st.integers(0, 5)))
        else:
            leaves.append(st.just(Name(name)))
    if profile.structure == "laurent_series":
        leaves.append(st.builds(OTail, x_exponents))
    if profile.structure == "power_series":
        leaves.append(st.builds(OTail, st.integers(1, 5)))
    return st.recursive(
        st.one_of(leaves),
        lambda inner: st.one_of(
            st.builds(Neg, inner),
            st.builds(Bin, st.sampled_from("+-*"), inner, inner),
        ),
        max_leaves=12,
    )


@pytest.mark.parametrize("path", CONFIG_PATHS, ids=[path.stem for path in CONFIG_PATHS])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_render_parse_render_is_a_fixed_point(path, data):
    profile = load_session(path).target.profile()
    ast = data.draw(_asts(profile))
    text = render_ast(ast)
    reparsed = parse(text, profile)
    assert reparsed == ast, text
    assert render_ast(reparsed) == text


def test_render_fixed_point_on_raw_text():
    profile = ExprProfile("laurent", COMPLEX_Q)
    for text in ("i * (X*i)", "(i*X)*i", "2*i + (3 - i)*X^-2", "-(i + X)"):
        once = render_ast(parse(text, profile))
        twice = render_ast(parse(once, profile))
        assert once == twice


def test_value_rendering_reparses_to_equal_value():
    target = laurent_target()
    profile = ExprProfile("laurent", COMPLEX_Q)
    rng = Random(99)
    from skewlab.skewpoly import random_poly

    for _ in range(100):
        p = random_poly(target.context, rng)
        q = random_poly(target.context, rng)
        value = p * q
        rendered = str(value)
        assert evaluate(parse(rendered, profile), target) == value

    starget = series_target(precision=9)
    sprofile = ExprProfile("power_series", RATIONALS)
    from skewlab.series import random_series

    for _ in range(60):
        s = random_series(starget.context, rng, 9)
        rendered = str(s)
        assert evaluate(parse(rendered, sprofile), starget) == s


def test_quaternion_value_rendering_round_trip():
    ctx = LaurentContext(QUATERNIONS_Q, ConjugationMap(QUATERNIONS_Q))
    target = EvalTarget("laurent", QUATERNIONS_Q, context=ctx)
    profile = ExprProfile("laurent", QUATERNIONS_Q)
    value = evaluate(parse("(1 + 2*i - k)*X^-1 + j", profile), target)
    assert evaluate(parse(str(value), profile), target) == value


# --- every parser error, with its text and position --------------------------

_ORE = ExprProfile("ore", P1)
_LAURENT = ExprProfile("laurent", COMPLEX_Q)
_SERIES = ExprProfile("power_series", RATIONALS)
_MATRIX = ExprProfile("element", Matrix(2))
_MATRIX_ORE = ExprProfile("ore", Matrix(3))


@pytest.mark.parametrize(
    "profile, text, message, position",
    [
        (_ORE, "2 + $", "unexpected character '$'", 4),
        (_ORE, "1 ) 2 $", "unexpected character '$'", 6),
        (_ORE, "3/0", "literal has a zero denominator", 0),
        (_ORE, "2 + " + "1" * 5000, "literal has too many digits", 4),
        (_LAURENT, "X^" + "1" * 5000, "literal has too many digits", 2),
        (_ORE, "(Y + 1", "expected ')', found 'end'", 6),
        (_ORE, "X^Y", "expected 'number', found 'Y'", 2),
        (_SERIES, "O X^2", "expected '(', found 'X'", 2),
        (_SERIES, "O(2)", "expected 'name', found '2'", 2),
        (_SERIES, "O(X 2)", "expected '^', found '2'", 4),
        (_SERIES, "O(X^2", "expected ')', found 'end'", 5),
        (_MATRIX, "[[1, 0], [0, 1]", "expected ']', found 'end'", 15),
        (_MATRIX, "[1]", "expected '[', found '1'", 1),
        (_MATRIX, "[[1, 0] [0, 1]]", "expected ']', found '['", 8),
        (_MATRIX_ORE, "[[1, 0, 0], [0, X, 0], [0, 0, 1]]*X", "unknown constant 'X'", 16),
        (_ORE, "(" * 101 + "Y" + ")" * 101, "expression nests deeper than 100 levels", 100),
        (_ORE, "1 + " + "-" * 101 + "Y", "expression nests deeper than 100 levels", 104),
        (_ORE, "1 2", "unexpected '2'", 2),
        (_ORE, "(Y))", "unexpected ')'", 3),
        (_ORE, ")", "unexpected ')'", 0),
        (_ORE, "2 +", "unexpected 'end'", 3),
        (_ORE, "X^1/2", "exponent must be an integer", 2),
        (_ORE, "X^-1", "negative exponents on X are not allowed in ore structures", 0),
        (_ORE, "2 + w", "unknown constant 'w'", 4),
        (_LAURENT, "i^2", "exponents attach to polynomial variables and X, not to 'i'", 0),
        (_ORE, "Y^-1", "negative exponent on variable 'Y'", 0),
        (_ORE, "O(X^2)", "the O(X^p) tail marker belongs to series structures", 0),
        (_SERIES, "O(Y^2)", "the tail marker reads O(X^p)", 2),
        (_ORE, "   ", "empty expression", 0),
        (_ORE, "\u0663*X", "unexpected character '\u0663'", 0),
        (_SERIES, "1 + O(X^-1)",
         "negative exponents on X are not allowed in power_series structures", 4),
        (_SERIES, "1 + O(X^0)",
         "the tail precision must be >= 1 in power_series structures", 4),
    ],
    ids=lambda v: v[:24] if isinstance(v, str) else None,
)
def test_parser_error_texts_and_positions(profile, text, message, position):
    with pytest.raises(ExprError) as err:
        parse(text, profile)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position
