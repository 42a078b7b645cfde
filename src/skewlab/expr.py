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

The lexer is one ``re.findall`` that yields plain tuples of digit and name
groups, and literals are built from those integer groups. No token carries a
position: an error recomputes its position by re-scanning the text.

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
from itertools import islice
from operator import itemgetter
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

def _node(cls):
    """Make the named tuple ``cls`` an AST node: it compares and hashes with
    its type, so ``Lit(1) != OTail(1)`` and no node equals a plain tuple.
    Named tuples build in about a third of a frozen dataclass's time."""

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not __eq__(self, other)

    def __hash__(self):
        return hash((type(self), tuple(self)))

    cls.__eq__, cls.__ne__, cls.__hash__ = __eq__, __ne__, __hash__
    return cls


@_node
class Lit(NamedTuple):
    value: Fraction  # nonnegative; unary minus wraps in Neg


@_node
class Name(NamedTuple):
    name: str
    exponent: int = 1


@_node
class Neg(NamedTuple):
    operand: object


@_node
class Bin(NamedTuple):
    op: str  # '+', '-', '*'
    left: object
    right: object


@_node
class Mat(NamedTuple):
    rows: tuple


@_node
class OTail(NamedTuple):
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

# One ``findall`` splits a text into tokens. A token is the tuple of the six
# groups below, of which only one kind is non-empty: a number (its integer
# part, then its decimal digits or its denominator, if any), a name, an
# operator, or any other non-blank character, which is an error. Blanks match
# nothing and are skipped. Tokens carry no positions: an error recomputes its
# position by re-scanning the text (``_Parser.error``).
_TOKEN_RE = re.compile(
    r"([0-9]+)(?:\.([0-9]+)|/([0-9]+))?"
    r"|([A-Za-z][A-Za-z0-9]*)|([-+*^()\[\],])|(\S)"
)
_END = ("",) * 6  # the token after the last one


# --- parser ------------------------------------------------------------------

class _Parser:
    """Recursive descent over the ``_TOKEN_RE`` tokens of a text.

    ``self.i`` is the index of the next token in ``self.toks``; its fifth
    group is its operator, or ``""`` for a number, a name and the end."""

    def __init__(self, text: str, profile: ExprProfile):
        self.text = text
        self.profile = profile
        tokens = _TOKEN_RE.findall(text)
        tokens.append(_END)
        self.toks = tokens
        self.end = len(tokens) - 1
        self.i = 0
        self.depth = 0
        self.ring = profile.ring  # the ring of the values being parsed
        self.table = constant_table(profile.ring)
        self.indets = profile.indeterminate_names()
        if any(map(itemgetter(5), tokens)):
            i = next(i for i, tok in enumerate(tokens) if tok[5])
            raise self.error(f"unexpected character {tokens[i][5]!r}", i)

    def rescan(self, i: int):
        """The match of token ``i``, or ``None`` for the end."""
        return next(islice(_TOKEN_RE.finditer(self.text), i, None), None)

    def error(self, message: str, i: int) -> ExprError:
        """The error at token ``i``, positioned by re-scanning the text."""
        match = self.rescan(i)
        return ExprError(message, match.start() if match else len(self.text))

    def found(self, i: int) -> str:
        """The text of token ``i``, or ``end``."""
        match = self.rescan(i)
        return match.group() if match else "end"

    def expect(self, op: str) -> None:
        """Step over the operator ``op``, which must come next."""
        i = self.i
        if self.toks[i][4] != op:
            raise self.error(f"expected {op!r}, found {self.found(i)!r}", i)
        self.i = i + 1

    def nested(self, parse, i: int):
        """Run ``parse`` one nesting level below token ``i``."""
        if self.depth == MAX_NESTING:
            raise self.error(f"expression nests deeper than {MAX_NESTING} levels", i)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def parse(self):
        node = self.expr()
        if self.i != self.end:
            raise self.error(f"unexpected {self.found(self.i)!r}", self.i)
        return node

    def expr(self):
        node = self.term()
        toks = self.toks
        op = toks[self.i][4]
        while op == "+" or op == "-":
            self.i += 1
            node = Bin(op, node, self.term())
            op = toks[self.i][4]
        return node

    def term(self):
        node = self.factor()
        toks = self.toks
        while toks[self.i][4] == "*":
            self.i += 1
            node = Bin("*", node, self.factor())
        return node

    def factor(self):
        i = self.i
        self.i = i + 1
        n, _, _, name, op, _ = self.toks[i]
        if not op:
            if n:
                return Lit(self.number(i))
            if name == "O":
                return self.o_tail(i)
            if name:
                return self.named(name, i)
        elif op == "-":
            return Neg(self.nested(self.factor, i))
        elif op == "(":
            node = self.nested(self.expr, i)
            self.expect(")")
            return node
        elif op == "[":
            return self.nested(self.matrix, i)
        raise self.error(f"unexpected {self.found(i)!r}", i)

    def number(self, i: int) -> Fraction:
        """The exact value of number token ``i``: an integer, a decimal or
        an integer over an integer, as ``docs/grammar.ebnf`` has it."""
        n, f, d = self.toks[i][:3]
        try:
            if d:
                return Fraction(int(n), int(d))
            if f:
                scale = 10 ** len(f)
                return Fraction(int(n) * scale + int(f), scale)
            return Fraction(int(n))
        except ZeroDivisionError:
            raise self.error("literal has a zero denominator", i) from None
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise self.error("literal has too many digits", i) from None

    def exponent(self) -> int:
        i = self.i
        sign = 1
        if self.toks[i][4] == "-":
            i += 1
            sign = -1
        n, f, d = self.toks[i][:3]
        if not n:
            raise self.error(f"expected 'number', found {self.found(i)!r}", i)
        self.i = i + 1
        if f or d:
            value = self.number(i)
            if value.denominator != 1:
                raise self.error("exponent must be an integer", i)
            return sign * int(value)
        try:
            return sign * int(n)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise self.error("literal has too many digits", i) from None

    def named(self, name: str, i: int):
        exponent = 1
        has_caret = self.toks[self.i][4] == "^"
        if has_caret:
            self.i += 1
            exponent = self.exponent()
        if name in self.indets:
            return Name(name, self.x_exponent(name, exponent, i))
        entry = self.table.get(name)
        if entry is None:
            raise self.error(f"unknown constant {name!r}", i)
        kind, _payload = entry
        if kind == "unit" and has_caret:
            raise self.error(
                f"exponents attach to polynomial variables and {'/'.join(self.indets) or 'X'}, "
                f"not to {name!r}",
                i,
            )
        if kind == "var" and exponent < 0:
            raise self.error(f"negative exponent on variable {name!r}", i)
        return Name(name, exponent)

    def x_exponent(self, name: str, exponent: int, i: int) -> int:
        """``exponent`` on the indeterminate ``name`` of token ``i``, which
        may be negative only in the Laurent structures."""
        if exponent < 0 and self.profile.structure not in _NEGATIVE_X_OK:
            raise self.error(
                f"negative exponents on {name} are not allowed in "
                f"{self.profile.structure} structures",
                i,
            )
        return exponent

    def o_tail(self, i: int):
        if self.profile.structure not in SERIES_STRUCTURES:
            raise self.error("the O(X^p) tail marker belongs to series structures", i)
        self.expect("(")
        x = self.i
        name = self.toks[x][3]
        if not name:
            raise self.error(f"expected 'name', found {self.found(x)!r}", x)
        if name != "X":
            raise self.error("the tail marker reads O(X^p)", x)
        self.i = x + 1
        self.expect("^")
        precision = self.x_exponent("X", self.exponent(), i)
        self.expect(")")
        if precision < 1 and self.profile.structure == "power_series":
            raise self.error(
                "the tail precision must be >= 1 in power_series structures", i
            )
        return OTail(precision)

    def matrix(self):
        # The entries of a matrix literal are values of the base ring: they
        # may name its constants, and no indeterminate.
        ring, table, indets = self.ring, self.table, self.indets
        if isinstance(ring, Matrix):
            self.ring, self.table = ring.base, constant_table(ring.base)
            self.indets = ()
        rows = [self.matrix_row()]
        while self.toks[self.i][4] == ",":
            self.i += 1
            rows.append(self.matrix_row())
        self.expect("]")
        self.ring, self.table, self.indets = ring, table, indets
        return Mat(tuple(rows))

    def matrix_row(self):
        self.expect("[")
        entries = [self.expr()]
        while self.toks[self.i][4] == ",":
            self.i += 1
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
    list: the same class over the same context. Series windows share the
    carrier but not this rule (a sum keeps the least precision), so they
    go through :func:`_combine`."""
    same = isinstance(a, _TermPoly) and type(a) is type(b) is not TruncatedSeries
    return same and a.context == b.context


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
            entries = [_walk(x, entry_leaf).value for row in node.rows for x in row]
            return element(ring, entries)
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
            return TruncatedSeries.zero(ctx, node.precision)
        return cls.constant(ctx, element_leaf(node))

    return leaf
