"""The expression walker against a plain left fold, and its work count.

``expr._walk`` gathers each run of ``+``/``-`` over polynomials into one term
list and canonicalises it once. The reference below is the fold it replaced:
every binary node goes through ``expr._combine`` on its two evaluated
operands, so the runs are summed one pair at a time. Both must give equal
values, or raise the same error, on every expression and every structure.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab import rings
from skewlab.config import load_session
from skewlab.expr import Bin, Neg, _combine, _poly_leaf, _walk, parse

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


@pytest.mark.parametrize("name", sorted(ATOMS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_batched_walk_matches_left_fold(name, data):
    session = load_session(CONFIGS / f"{name}.json")
    text = data.draw(expressions(ATOMS[name]))
    node = parse(text, session.target.profile())
    leaf = _poly_leaf(session.target)
    assert outcome(lambda: _walk(node, leaf)) == outcome(lambda: left_fold(node, leaf))


def test_flat_sum_passes_each_term_to_the_canonicaliser_a_bounded_number_of_times(
    monkeypatch,
):
    """``X + X^2 + ... + X^400`` on Weyl: the pairs handed to ``sum_terms``,
    wherever it is called from, stay within twice the number of terms. The
    fold that re-canonicalised the partial sum at every ``+`` handed it about
    80 000."""
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
    text = " + ".join(["X"] + [f"X^{e}" for e in range(2, n + 1)])
    value = session.evaluate(text)
    assert [e for e, _ in value.terms] == list(range(1, n + 1))
    assert sum(handed) <= 2 * n
