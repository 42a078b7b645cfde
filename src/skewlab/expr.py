"""Expression grammar: parser, canonical renderer, and evaluator.

Because the target rings are non-associative, ``*`` parses left-associatively
and the parse tree is the mathematical object: ``a*b*c`` means ``(a*b)*c``
and ``a*(b*c)`` stays distinct. The renderer re-inserts parentheses exactly
where a tree is not left-leaning, so rendering then reparsing is the
identity on trees.

Atoms are nonnegative rational literals (``7``, ``3/4``, ``1.5``), named ring
constants (``i j k``, ``e0..e15``, polynomial variables), the indeterminates
``X`` (or ``X1..Xn`` in iterated structures) with integer exponents, matrix
literals ``[[..],[..]]``, and the series tail marker ``O(X^p)``. Exponents
``^`` attach only to named atoms; negative exponents exist only where the
structure supports them. Adding ``O(X^p)`` truncates to precision ``p``.

An :class:`EvalTarget` is what evaluation needs: the structure name, the
coefficient ring, the one context object of a twisted structure
(``OreContext``, ``LaurentContext`` or ``IteratedLaurentContext``, which also
decides the polynomial class) and, for series, the session precision.

One walker evaluates every structure; each structure only lifts the leaves
(literals, named constants, matrix literals, indeterminates, tail markers).
In series structures the evaluator keeps polynomial subexpressions exact and
lets precision enter only through tail markers (or, if none appears, the
session precision applied to the final value). Each run of ``+``/``-`` over
polynomials is canonicalised once, so evaluating a flat sum is linear in its
number of terms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .rings import (
    CayleyDickson,
    JordanPlus,
    Matrix,
    Poly1,
    Poly2,
    Rationals,
    RingDescriptor,
    RingElement,
    basis_element,
    element,
    monomial_element,
    scalar,
    sum_terms,
)
from .series import (
    TruncatedSeries,
    poly_times_series,
    series_times_poly,
)
from .skewpoly import (
    IteratedLaurentContext,
    LaurentContext,
    MultiLaurentPoly,
    OreContext,
    _TermPoly,
    poly_class,
)


class ExprError(ValueError):
    """Syntax or semantic error in an expression, with a source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# --- abstract syntax --------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Fraction  # nonnegative; unary minus wraps in Neg


@dataclass(frozen=True)
class Name:
    name: str
    exponent: int = 1


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Bin:
    op: str  # '+', '-', '*'
    left: object
    right: object


@dataclass(frozen=True)
class Mat:
    rows: tuple


@dataclass(frozen=True)
class OTail:
    precision: int


# --- profiles and constant tables -------------------------------------------

STRUCTURES = (
    "ore",
    "laurent",
    "iterated_laurent",
    "power_series",
    "laurent_series",
    "element",
)
SERIES_STRUCTURES = ("power_series", "laurent_series")
_NEGATIVE_X_OK = {"laurent", "laurent_series", "iterated_laurent"}
# Parentheses, matrix brackets and unary minus signs nested deeper than this
# are refused, so the recursive-descent parser stays far from Python's stack
# limit.
MAX_NESTING = 100


@dataclass(frozen=True)
class ExprProfile:
    structure: str
    ring: RingDescriptor
    num_indeterminates: int = 1

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise ValueError(f"unknown structure {self.structure!r}")

    def indeterminate_names(self) -> tuple[str, ...]:
        if self.structure == "element":
            return ()
        if self.structure == "iterated_laurent":
            return tuple(f"X{i + 1}" for i in range(self.num_indeterminates))
        return ("X",)


@lru_cache(maxsize=None)
def constant_table(ring: RingDescriptor) -> dict:
    """Name -> ("unit", RingElement) or ("var", exponent -> RingElement).

    Built once per ring and shared by the parser and the evaluator; callers
    must not modify it."""
    table: dict = {}
    if isinstance(ring, Rationals):
        return table
    if isinstance(ring, Poly1):
        table[ring.variable] = ("var", lambda e: monomial_element(ring, e))
        return table
    if isinstance(ring, Poly2):
        v1, v2 = ring.variables
        table[v1] = ("var", lambda e: monomial_element(ring, (e, 0)))
        table[v2] = ("var", lambda e: monomial_element(ring, (0, e)))
        return table
    if isinstance(ring, CayleyDickson):
        dim = 1 << ring.level
        for idx in range(dim):
            table[f"e{idx}"] = ("unit", basis_element(ring, idx))
        if ring.level >= 1:
            table["i"] = ("unit", basis_element(ring, 1))
        if ring.level >= 2:
            table["j"] = ("unit", basis_element(ring, 2))
            table["k"] = ("unit", basis_element(ring, 3))
        if not isinstance(ring.base, Rationals):
            rest = [ring.base.zero_value()] * (dim - 1)
            base = _lifted(ring, ring.base, lambda v: ring.canon([v] + rest))
            for name, entry in base.items():
                table.setdefault(name, entry)
        return table
    if isinstance(ring, JordanPlus):
        return _lifted(ring, ring.base, lambda v: v)
    return table  # matrix entries are parsed through matrix literals


def _lifted(ring: RingDescriptor, base: RingDescriptor, lift) -> dict:
    """The constants of ``base`` carried into ``ring`` by ``lift``, a map
    from base values to values of ``ring``."""

    def carry(kind, payload):
        if kind == "unit":
            return kind, RingElement(ring, lift(payload.value))
        return kind, lambda e: RingElement(ring, lift(payload(e).value))

    return {name: carry(*entry) for name, entry in constant_table(base).items()}


# --- lexer -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:\.\d+|/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"|(?P<op>[+\-*^()\[\],]))"
)


class _Token(NamedTuple):
    kind: str  # 'number' | 'name' | one of + - * ^ ( ) [ ] , | 'eof'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            break
        group = m.lastgroup
        tok = m.group(group)
        pos = m.end()
        out.append(_Token(tok if group == "op" else group, tok, pos - len(tok)))
    rest = text[pos:].strip()
    if rest:
        bad = pos + text[pos:].index(rest[0])
        raise ExprError(f"unexpected character {rest[0]!r}", bad)
    out.append(_Token("eof", "", len(text)))
    return out


def _literal(tok: _Token) -> Fraction:
    """The exact value of a number token: an integer, a decimal or an
    integer over an integer, as ``docs/grammar.ebnf`` has it."""
    try:
        return Fraction(tok.text)
    except ZeroDivisionError:
        raise ExprError("literal has a zero denominator", tok.pos) from None
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ExprError("literal has too many digits", tok.pos) from None


# --- parser ------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, profile: ExprProfile):
        self.text = text
        self.profile = profile
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0
        self.table = constant_table(profile.ring)
        self.indets = profile.indeterminate_names()

    def peek(self) -> _Token:
        return self.tokens[self.idx]

    def next(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ExprError(f"expected {kind!r}, found {tok.text or 'end'!r}", tok.pos)
        return tok

    def nested(self, parse, tok: _Token):
        """Run ``parse`` one nesting level below ``tok``."""
        if self.depth == MAX_NESTING:
            raise ExprError(f"expression nests deeper than {MAX_NESTING} levels", tok.pos)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise ExprError(f"unexpected {tok.text!r}", tok.pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next()
            right = self.term()
            node = Bin(op.kind, node, right)
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "*":
            self.next()
            right = self.factor()
            node = Bin("*", node, right)
        return node

    def factor(self):
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            return Neg(self.nested(self.factor, tok))
        return self.primary()

    def primary(self):
        tok = self.next()
        if tok.kind == "number":
            return Lit(_literal(tok))
        if tok.kind == "(":
            node = self.nested(self.expr, tok)
            self.expect(")")
            return node
        if tok.kind == "[":
            return self.nested(self.matrix, tok)
        if tok.kind == "name":
            if tok.text == "O":
                return self.o_tail(tok)
            return self.named(tok)
        raise ExprError(f"unexpected {tok.text or 'end'!r}", tok.pos)

    def exponent(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.next()
            sign = -1
        tok = self.expect("number")
        frac = _literal(tok)
        if frac.denominator != 1:
            raise ExprError("exponent must be an integer", tok.pos)
        return sign * int(frac)

    def named(self, tok: _Token):
        name = tok.text
        exponent = 1
        has_caret = self.peek().kind == "^"
        if has_caret:
            self.next()
            exponent = self.exponent()
        if name in self.indets:
            if exponent < 0 and self.profile.structure not in _NEGATIVE_X_OK:
                raise ExprError(
                    f"negative exponents on {name} are not allowed in "
                    f"{self.profile.structure} structures",
                    tok.pos,
                )
            return Name(name, exponent)
        entry = self.table.get(name)
        if entry is None:
            raise ExprError(f"unknown constant {name!r}", tok.pos)
        kind, _payload = entry
        if kind == "unit" and has_caret:
            raise ExprError(
                f"exponents attach to polynomial variables and {'/'.join(self.indets) or 'X'}, "
                f"not to {name!r}",
                tok.pos,
            )
        if kind == "var" and exponent < 0:
            raise ExprError(f"negative exponent on variable {name!r}", tok.pos)
        return Name(name, exponent)

    def o_tail(self, tok: _Token):
        if self.profile.structure not in SERIES_STRUCTURES:
            raise ExprError(
                "the O(X^p) tail marker belongs to series structures", tok.pos
            )
        self.expect("(")
        xtok = self.expect("name")
        if xtok.text != "X":
            raise ExprError("the tail marker reads O(X^p)", xtok.pos)
        self.expect("^")
        precision = self.exponent()
        self.expect(")")
        return OTail(precision)

    def matrix(self):
        rows = [self.matrix_row()]
        while self.peek().kind == ",":
            self.next()
            rows.append(self.matrix_row())
        self.expect("]")
        return Mat(tuple(rows))

    def matrix_row(self):
        self.expect("[")
        entries = [self.expr()]
        while self.peek().kind == ",":
            self.next()
            entries.append(self.expr())
        self.expect("]")
        return tuple(entries)


def parse(text: str, profile: ExprProfile):
    """Parse ``text`` against the profile; raises :class:`ExprError`."""
    if not text.strip():
        raise ExprError("empty expression", 0)
    return _Parser(text, profile).parse()


# --- canonical renderer ------------------------------------------------------

def render_ast(node) -> str:
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Name):
        if node.exponent == 1:
            return node.name
        return f"{node.name}^{node.exponent}"
    if isinstance(node, Neg):
        inner = render_ast(node.operand)
        if isinstance(node.operand, (Bin, Neg)):
            return f"-({inner})"
        return "-" + inner
    if isinstance(node, Bin):
        left = render_ast(node.left)
        right = render_ast(node.right)
        if node.op == "*":
            if isinstance(node.left, Bin) and node.left.op != "*":
                left = f"({left})"
            if isinstance(node.right, (Bin, Neg)):
                right = f"({right})"
            return f"{left}*{right}"
        if isinstance(node.right, Neg) or (
            isinstance(node.right, Bin) and node.right.op in "+-"
        ):
            right = f"({right})"
        return f"{left} {node.op} {right}"
    if isinstance(node, Mat):
        rows = ", ".join(
            "[" + ", ".join(render_ast(x) for x in row) + "]" for row in node.rows
        )
        return f"[{rows}]"
    if isinstance(node, OTail):
        return f"O(X^{node.precision})"
    raise TypeError(f"not an AST node: {node!r}")


# --- evaluation --------------------------------------------------------------

class EvalError(ValueError):
    """Semantic failure while evaluating a parsed expression."""


@dataclass(frozen=True)
class EvalTarget:
    """Everything the evaluator needs: the structure name, the coefficient
    ring, the one built context of the twisted structures (``None`` for
    ``element``) and, for series, the session precision."""

    structure: str
    ring: RingDescriptor
    context: OreContext | LaurentContext | IteratedLaurentContext | None = None
    precision: int | None = None

    def profile(self) -> ExprProfile:
        sigmas = getattr(self.context, "sigmas", None)
        return ExprProfile(self.structure, self.ring, len(sigmas) if sigmas else 1)


def eval_element(node, ring: RingDescriptor) -> RingElement:
    """Evaluate an expression with no indeterminates to a ring element."""
    return _walk(node, _element_leaf(ring))


def evaluate(node, target: EvalTarget):
    """Evaluate honoring the tree's association exactly."""
    structure = target.structure
    if structure == "element":
        return eval_element(node, target.ring)
    value = _walk(node, _poly_leaf(target))
    if structure in SERIES_STRUCTURES and not isinstance(value, TruncatedSeries):
        value = TruncatedSeries.from_poly(value, target.precision)
    return value


def _walk(node, leaf):
    """Evaluate ``node``, lifting every leaf through ``leaf``.

    The left spine of a ``+ - *`` chain is walked in a loop, so flat sums and
    products of any length stay off Python's stack; only parentheses and unary
    minus recurse, and the parser bounds their depth.

    A run of ``+``/``-`` whose operands are polynomials of one class and
    context is gathered into one term list and canonicalised once, so an
    n-term sum costs one ``sum_terms`` pass over its n terms rather than n
    passes over a growing prefix. A ``*``, a series operand or any other
    mismatch ends the run; that operand then goes through :func:`_combine`,
    which keeps the series precision rules and the context errors.
    """
    spine = []
    while isinstance(node, Bin):
        spine.append(node)
        node = node.left
    value = -_walk(node.operand, leaf) if isinstance(node, Neg) else leaf(node)
    run = None  # the pending terms of ``value`` while a run lasts
    for b in reversed(spine):
        right = _walk(b.right, leaf)
        if b.op != "*" and _same_carrier(value, right):
            if run is None:
                run = list(value.terms)
            if b.op == "+":
                run.extend(right.terms)
            else:
                run.extend((e, -c) for e, c in right.terms)
            continue
        value, run = _close_run(value, run), None
        value = _combine(b.op, value, right)
    return _close_run(value, run)


def _same_carrier(a, b) -> bool:
    """Whether ``a`` and ``b`` are polynomials that add term list to term
    list: the same class over the same context."""
    return isinstance(a, _TermPoly) and type(a) is type(b) and a.context == b.context


def _close_run(value, run):
    """``value`` with the pending terms ``run`` (if any) as its terms."""
    return value if run is None else type(value)(value.context, sum_terms(run))


def _combine(op: str, a, b):
    """``a op b``, reading a polynomial that meets a series as a series."""
    a_series = isinstance(a, TruncatedSeries)
    b_series = isinstance(b, TruncatedSeries)
    if op == "*":
        if a_series and not b_series:
            return series_times_poly(a, b)
        if b_series and not a_series:
            return poly_times_series(a, b)
        return a * b
    if a_series and not b_series:
        b = TruncatedSeries.from_poly(b, a.precision)
    elif b_series and not a_series:
        a = TruncatedSeries.from_poly(a, b.precision)
    return a + b if op == "+" else a - b


def _element_leaf(ring: RingDescriptor):
    """Leaf lifter for plain ring elements."""

    def leaf(node):
        if isinstance(node, Lit):
            return scalar(ring, node.value)
        if isinstance(node, Name):
            entry = constant_table(ring).get(node.name)
            if entry is None:
                raise EvalError(f"unknown constant {node.name!r} in {ring}")
            kind, payload = entry
            if kind == "unit":
                if node.exponent != 1:
                    raise EvalError(f"exponent not allowed on {node.name!r}")
                return payload
            return payload(node.exponent)
        if isinstance(node, Mat):
            if not isinstance(ring, Matrix):
                raise EvalError("matrix literal outside a matrix ring")
            if len(node.rows) != ring.n or any(len(r) != ring.n for r in node.rows):
                raise EvalError(f"matrix literal must be {ring.n}x{ring.n}")
            entry_leaf = _element_leaf(ring.base)
            rows = [[_walk(x, entry_leaf).value for x in row] for row in node.rows]
            return element(ring, rows)
        if isinstance(node, OTail):
            raise EvalError("the O(X^p) marker has no meaning for plain elements")
        raise TypeError(f"not an AST node: {node!r}")

    return leaf


def _poly_leaf(target: EvalTarget):
    """Leaf lifter for the twisted structures: indeterminates become their
    polynomials, ``O(X^p)`` an empty series window, and every other leaf a
    constant polynomial."""
    structure = target.structure
    ctx = target.context
    cls = poly_class(ctx)
    if cls is MultiLaurentPoly:
        indeterminates = {
            f"X{i + 1}": (lambda e, _i=i: MultiLaurentPoly.variable(ctx, _i, e))
            for i in range(len(ctx.sigmas))
        }
    else:
        indeterminates = {"X": lambda e: cls.x(ctx, e)}
    element_leaf = _element_leaf(target.ring)

    def leaf(node):
        if isinstance(node, Name) and node.name in indeterminates:
            return indeterminates[node.name](node.exponent)
        if isinstance(node, OTail):
            if structure not in SERIES_STRUCTURES:
                raise EvalError("the O(X^p) marker belongs to series structures")
            return TruncatedSeries.zero_window(ctx, node.precision)
        return cls.constant(ctx, element_leaf(node))

    return leaf
