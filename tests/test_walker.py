"""The expression walker against a plain left fold and an independent
reference, and its work count.

``expr._walk`` gathers each run of ``+``/``-`` over polynomials into one term
list and canonicalises it once. The first reference is the fold it replaced:
every binary node goes through ``expr._combine`` on its two evaluated
operands, so the runs are summed one pair at a time. Both must give equal
values, or raise the same error, on every expression and every structure.

``_combine`` also folds constants in the coefficient ring and builds
``c*X^e`` as one term, so the left fold shares those rules. The second
reference shares neither: every leaf is lifted to a polynomial (a constant
``c`` to ``cls.constant(ctx, c)``) and every node goes through the carriers'
own ``+ - *``. ``expr.evaluate`` must agree with it too, on the shipped
configs and on an octonion Laurent ring and a 3x3 matrix Ore ring, whose
non-associative and zero-divisor constants must fold in tree order.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab import rings
from skewlab.config import load_session
from skewlab.expr import (
    SERIES_STRUCTURES,
    Bin,
    Neg,
    _combine,
    _poly_leaf,
    _walk,
    evaluate,
    parse,
)
from skewlab.rings import RingElement
from skewlab.series import TruncatedSeries, poly_times_series, series_times_poly
from skewlab.skewpoly import poly_class

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Leaves per shipped config: indeterminates, ring constants, rational
# literals (zero included) and, for series, tail markers of several
# precisions, so tails land anywhere in a run.
ATOMS = {
    "weyl": ["X", "X^2", "X^3", "Y", "Y^2", "2", "1/2", "0"],
    "complex_sigma2_laurent": ["X", "X^-1", "X^2", "i", "2", "3/4", "0"],
    "quantum_torus": ["X1", "X2", "X1^-1", "X2^2", "Y", "2", "0"],
    "rational_power_series": [
        "X", "X^2", "X^5", "3", "1/3", "0", "O(X^1)", "O(X^3)", "O(X^8)", "O(X^20)",
    ],
}

# Inline configs with their leaves: octonion units, which do not associate
# ((e1*e2)*e4 = -e1*(e2*e4)), and 3x3 matrix units, which multiply to zero.
INLINE = {
    "octonion_laurent": (
        {"ring": {"cayley_dickson": {"level": 3}}, "sigma": {"kind": "conjugation"},
         "structure": "laurent"},
        ["e1", "e2", "e4", "e5", "e7", "X", "X^-1", "X^2", "2", "1/2", "0"],
    ),
    "matrix3_transpose_ore": (
        {"ring": {"matrix": {"n": 3}}, "sigma": {"kind": "transpose"}, "structure": "ore"},
        [
            "[[1, 0, 0], [0, 0, 0], [0, 0, 0]]",
            "[[0, 1, 0], [0, 0, 0], [0, 0, 0]]",
            "[[0, 0, 0], [1, 0, 0], [0, 0, 2]]",
            "[[0, 0, 0], [0, 1/2, 0], [0, 0, 1]]",
            "X", "1/3", "0",
        ],
    ),
}
NAMES = sorted(ATOMS) + sorted(INLINE)


def session_and_atoms(name):
    if name in INLINE:
        config, atoms = INLINE[name]
        return load_session(config), atoms
    return load_session(CONFIGS / f"{name}.json"), ATOMS[name]


def left_fold(node, leaf):
    """Every node through ``_combine``: the evaluation before run batching."""
    if isinstance(node, Bin):
        return _combine(node.op, left_fold(node.left, leaf), left_fold(node.right, leaf))
    if isinstance(node, Neg):
        return -left_fold(node.operand, leaf)
    return leaf(node)


def expressions(atoms):
    """Flat chains of ``+ - *``, parenthesised groups and unary minus."""

    def extend(inner):
        chain = st.tuples(
            inner, st.lists(st.tuples(st.sampled_from("+-*"), inner), min_size=1, max_size=6)
        ).map(lambda t: t[0] + "".join(f" {op} {x}" for op, x in t[1]))
        return st.one_of(
            chain,
            inner.map(lambda x: f"({x})"),
            inner.map(lambda x: f"-{x}"),
        )

    return st.recursive(st.sampled_from(atoms), extend, max_leaves=30)


def outcome(evaluate):
    try:
        value = evaluate()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return value, str(value)


def lifted_reference(node, target):
    """``evaluate`` with no constant folding: every leaf a polynomial or a
    window, every node through the carriers' own ``+ - *`` (a polynomial
    that meets a series read as a series), the session precision applied to
    a final polynomial."""
    ctx = target.context
    cls = poly_class(ctx)
    leaf = _poly_leaf(target)

    def walk(node):
        if isinstance(node, Bin):
            return carrier_op(node.op, walk(node.left), walk(node.right))
        if isinstance(node, Neg):
            return -walk(node.operand)
        value = leaf(node)
        return cls.constant(ctx, value) if isinstance(value, RingElement) else value

    value = walk(node)
    if target.structure in SERIES_STRUCTURES and not isinstance(value, TruncatedSeries):
        value = TruncatedSeries.from_poly(value, target.precision)
    return value


def carrier_op(op, a, b):
    a_series, b_series = isinstance(a, TruncatedSeries), isinstance(b, TruncatedSeries)
    if a_series != b_series:
        if op == "*":
            return series_times_poly(a, b) if a_series else poly_times_series(a, b)
        if a_series:
            b = TruncatedSeries.from_poly(b, a.precision)
        else:
            a = TruncatedSeries.from_poly(a, b.precision)
    return a + b if op == "+" else a - b if op == "-" else a * b


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_batched_walk_matches_left_fold(name, data):
    session, atoms = session_and_atoms(name)
    text = data.draw(expressions(atoms))
    node = parse(text, session.target.profile())
    leaf = _poly_leaf(session.target)
    assert outcome(lambda: _walk(node, leaf)) == outcome(lambda: left_fold(node, leaf))


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_evaluate_matches_the_lifted_reference(name, data):
    session, atoms = session_and_atoms(name)
    target = session.target
    node = parse(data.draw(expressions(atoms)), target.profile())
    got = outcome(lambda: evaluate(node, target))
    assert got == outcome(lambda: lifted_reference(node, target))


@pytest.mark.parametrize(
    "name, text, want",
    [
        ("octonion_laurent", "(e1*e2)*e4 - e1*(e2*e4)", "2*e7"),
        ("octonion_laurent", "(e1*e2)*e4*X^-1 + e1*(e2*e4)*X", "e7*X^-1 - e7*X"),
        (
            "matrix3_transpose_ore",
            "[[1, 0, 0], [0, 0, 0], [0, 0, 0]]*[[0, 0, 0], [0, 1, 0], [0, 0, 0]]*X + 1",
            "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]",
        ),
    ],
)
def test_constants_fold_in_tree_order(name, text, want):
    session, _ = session_and_atoms(name)
    target = session.target
    node = parse(text, target.profile())
    assert str(evaluate(node, target)) == want
    assert lifted_reference(node, target) == evaluate(node, target)


def test_flat_sum_passes_each_term_to_the_canonicaliser_a_bounded_number_of_times(
    monkeypatch,
):
    """``X + X^2 + ... + X^400`` and ``1 + X + 2 + X^2 + ... + 400 + X^400``
    on Weyl: the pairs handed to ``sum_terms``, wherever it is called from,
    stay within twice the number of powers. The fold that re-canonicalised
    the partial sum at every ``+`` handed it about 80 000. A constant that
    ended the run, rather than joining it, would make the second sum as
    quadratic."""
    real = rings.sum_terms
    handed = []

    def counting(pairs):
        pairs = list(pairs)
        handed.append(len(pairs))
        return real(pairs)

    patched = []
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name.startswith("skewlab") and getattr(module, "sum_terms", None) is real:
            monkeypatch.setattr(module, "sum_terms", counting)
            patched.append(name)
    assert {"skewlab.rings", "skewlab.skewpoly"} <= set(patched)

    n = 400
    session = load_session(CONFIGS / "weyl.json")
    sums = {
        " + ".join(["X"] + [f"X^{e}" for e in range(2, n + 1)]): range(1, n + 1),
        "1 + X + " + " + ".join(f"{e} + X^{e}" for e in range(2, n + 1)): range(n + 1),
    }
    for text, exponents in sums.items():
        handed.clear()
        value = session.evaluate(text)
        assert [e for e, _ in value.terms] == list(exponents)
        assert sum(handed) <= 2 * n
