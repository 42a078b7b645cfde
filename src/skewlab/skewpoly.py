"""Twisted polynomial rings over the coefficient tower.

Two one-variable constructions share the carrier "sorted term list" with
each other and with the series windows of :mod:`skewlab.series`:

* the Ore-style ring, where multiplication is the biadditive extension of
  ``(r X^m)(s X^n) = sum_i (r * pi_i_m(s)) X^(i+n)`` and ``pi_i_m`` is the sum
  of all C(m, i) compositions of i copies of sigma and m - i copies of delta;
* the skew Laurent ring, where ``(r X^m)(s X^n) = (r * sigma^m(s)) X^(m+n)``
  and negative powers of sigma go through the bundled exact inverse.

Multiplication in either ring is generally non-associative; powers of X sit
in the middle and right nuclei, which :func:`nucleus_check_power` samples.
An iterated multi-variable Laurent ring over pairwise-commuting twists uses
the same carrier with exponent vectors, and a series window is the carrier
plus a precision. The carrier is the one of :mod:`skewlab.rings`: terms are
put in canonical form by ``rings.sum_terms`` and rendered through
``rings.labeled_terms``. Right division and series reduction are one
procedure, :func:`right_reduce`: cancel the lead term (a polynomial's
highest, a window's lowest) by a right multiple ``g*(s X^k)`` of a generator.

Every product, here and in :mod:`skewlab.series`, runs through one kernel,
:func:`twisted_product`. It visits the right factor's terms and, for each
right coefficient ``s``, has the context build a twist table of raw values
once, up to the left factor's largest exponent ``d``, through the maps'
value hooks. For an Ore context that is :func:`pi_table`: Leibniz rows when
sigma is exactly the identity, at most ``d + 1`` delta applications in all
(two for ``X^n*Y`` in the Weyl algebra, whatever ``n``), or else one sparse
:func:`pi_rows` pass, two map applications per nonzero ``pi_i^m(s)`` with
``m < d``, or just ``d`` sigma applications when delta is zero. For a
Laurent context it is one walk of sigma powers, one application or inverse
application per step, none for an identity sigma. Each table entry ``t``
for a left term ``r`` adds the pair ``(r, t)`` to its output exponent, and
each output exponent's products are summed by one ``dot_values`` call of
the coefficient ring, so the kernel itself does no per-pair coefficient
arithmetic. Nothing is recomputed per term pair.

Two shapes of product, and only these two, need neither a twist table nor
a ring product:

* a unit right factor ``1 X^n``. Every context checks ``sigma(1) = 1`` and
  ``delta(1) = 0`` exactly when it is built, and a Laurent context also
  ``sigma^-1(1) = 1``. So ``pi_i^m(1)`` is 1 for ``i = m`` and 0 otherwise
  (any sigma/delta word with a delta sends 1 to 0), every power of sigma
  fixes 1, and ``(r X^m)(1 X^n) = r X^(m+n)``: the left terms, shifted.
* a rational left factor ``q*1`` (see ``RingDescriptor.scalar_of``). Every
  coefficient ring is an algebra over the rationals, and ``pi_0^0`` and
  ``sigma^0`` are the identity, so ``(q X^0)(s X^n) = (q s) X^n``: the
  right terms, scaled.

Expression leaves mostly do not reach the kernel. The walker in
:mod:`skewlab.expr` evaluates a constant sub-expression such as ``5/3*i`` or
``(2 + 3*Y)`` in the coefficient ring, which is exact because ``pi_0^0`` and
``sigma^0`` are the identity: ``(r X^0)(s X^0) = (rs) X^0``. It builds
``c*X^e`` as its one term, as ``(r X^0)(1 X^e) = r X^e``. The shortcuts
still serve the rest: ``c*X1^a*X2^b`` (a unit right factor ``X2^b``),
``q*(X + 1)``, ``p*X^n`` and library callers.

Polynomials are immutable; the degree of the zero polynomial is the
``NEG_INFINITY`` sentinel (and its order ``POS_INFINITY``), never an integer.

Every Laurent and iterated context, and every Ore context whose sigma
carries an inverse, runs one entry check, :func:`_check_sigmas`: each sigma
is additive, fixes 1, and has a bundled inverse that fixes 1 and undoes it
both ways on every basis value of the ring (``RingDescriptor.basis_values``),
and every two sigmas commute on every basis value. As the sigmas are additive, that is exact on the span of
the basis, which holds every sample, and it draws nothing. Its outcome
depends only on the ring and the maps, so a passed check is cached on that
key, with maps compared class-exactly, and is not rerun when an equal
context is built again in the same process.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from math import comb
from operator import add
from random import Random

from .maps import (
    ADDITIVE,
    ANNIHILATES_ONE,
    RESPECTS_ONE,
    IdentityMap,
    NoInverse,
    TwistMap,
    power_apply,
    power_table,
)
from .reports import CheckReport, falsify
from .rings import (
    DescriptorMismatch,
    RingDescriptor,
    RingElement,
    UnsupportedDescriptor,
    _join_terms,
    _var_power,
    draw,
    is_associative_division_ring,
    labeled_terms,
    one,
    random_element,
    random_terms,
    sum_terms,
    zero,
)

NEG_INFINITY = float("-inf")
POS_INFINITY = float("inf")


class ContextMismatch(ValueError):
    """Polynomials from different contexts cannot be combined."""


def _require_map(ring: RingDescriptor, m: TwistMap, claims, role: str) -> None:
    """Raise unless ``m`` acts on ``ring`` and claims every one of ``claims``."""
    if m.domain != ring:
        raise ContextMismatch(f"{role} must act on the context ring")
    missing = set(claims) - m.claims
    if missing:
        raise ValueError(f"{role} map must claim {sorted(missing)}")


@dataclass(frozen=True)
class OreContext:
    """Ring plus (sigma, delta); unit behavior is checked exactly on entry,
    and a sigma that carries an inverse gets :func:`_check_sigmas`."""

    ring: RingDescriptor
    sigma: TwistMap
    delta: TwistMap

    def __post_init__(self):
        _require_map(self.ring, self.sigma, {ADDITIVE, RESPECTS_ONE}, "sigma")
        _require_map(self.ring, self.delta, {ADDITIVE, ANNIHILATES_ONE}, "delta")
        if self.sigma.has_inverse:
            _check_sigmas(self.ring, (self.sigma,))
        elif self.sigma.apply(one(self.ring)) != one(self.ring):
            raise ValueError("sigma(1) != 1")
        if not self.delta.apply(one(self.ring)).is_zero():
            raise ValueError("delta(1) != 0")

    def twists(self, s, n: int, exponents) -> dict:
        """``{m: [(i + n, pi_i^m(s)), ...]}`` for each left exponent ``m``,
        raw values of the nonzero entries, from one :func:`pi_table`."""
        rows = pi_table(self, s, exponents)
        return {m: [(i + n, v) for i, v in rows[m].items()] for m in exponents}


# Cached per (ring, sigmas) as the module docstring says. A raising call
# leaves no cache entry, so only passes are remembered.
@lru_cache(maxsize=256)
def _check_sigmas(ring: RingDescriptor, sigmas: tuple) -> None:
    """Raise unless every sigma acts on ``ring``, claims additivity and to
    respect 1, fixes 1, and carries an inverse that fixes 1 and undoes it both
    ways on every basis value, and unless every two sigmas commute on every
    basis value."""
    unit, basis = ring.one_value(), ring.basis_values()
    for index, s in enumerate(sigmas):
        _require_map(ring, s, {ADDITIVE, RESPECTS_ONE}, "sigma")
        if not s.has_inverse:
            raise NoInverse("Laurent contexts need invertible sigmas")
        value, inverse = s.value, s.inverse_value
        if value(unit) != unit:
            raise ValueError("sigma(1) != 1")
        if inverse(unit) != unit:
            raise ValueError("sigma^-1(1) != 1")
        for b in basis:
            if inverse(value(b)) != b or value(inverse(b)) != b:
                raise ValueError(
                    f"sigma {index} inverse round trip failed at {RingElement(ring, b)}"
                )
    for (i, si), (j, sj) in combinations(enumerate(sigmas), 2):
        for b in basis:
            if si.value(sj.value(b)) != sj.value(si.value(b)):
                raise ValueError(
                    f"sigmas {i} and {j} fail to commute at {RingElement(ring, b)}"
                )


@dataclass(frozen=True)
class LaurentContext:
    """Ring plus an invertible sigma, checked on entry by :func:`_check_sigmas`."""

    ring: RingDescriptor
    sigma: TwistMap

    def __post_init__(self):
        _check_sigmas(self.ring, (self.sigma,))

    def twists(self, s, n: int, exponents) -> dict:
        """``{m: [(m + n, sigma^m(s))]}`` on raw values, from one walk of
        sigma powers."""
        powers = power_table(self.sigma, s, min(exponents), max(exponents))
        return {m: [(m + n, powers[m])] for m in exponents}


@dataclass(frozen=True)
class IteratedLaurentContext:
    """Pairwise-commuting invertible twists, one per Laurent variable, checked
    on entry by :func:`_check_sigmas`."""

    ring: RingDescriptor
    sigmas: tuple[TwistMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigmas", tuple(self.sigmas))
        if not self.sigmas:
            raise ValueError("need at least one sigma")
        _check_sigmas(self.ring, self.sigmas)

    def twists(self, s, n: tuple, exponents) -> dict:
        """``{u: [(u + n, sigma_1^(u_1) o ... o sigma_k^(u_k) (s))]}`` on raw
        values, with exponent vectors added entrywise."""
        values = _compose_powers(self.sigmas, s, exponents)
        return {
            u: [(tuple(a + b for a, b in zip(u, n)), values[u])] for u in exponents
        }


def _compose_powers(sigmas, s, vectors) -> dict:
    """``{u: sigma_1^(u_1)(... sigma_k^(u_k)(s))}`` for every vector ``u``, the
    last variable's map acting first. Pairwise commutation makes the order
    immaterial; each variable's powers are walked once per distinct tail."""
    if not sigmas:
        return {(): s}
    last = [u[-1] for u in vectors]
    powers = power_table(sigmas[-1], s, min(last), max(last))
    out = {}
    for k in sorted(set(last)):
        heads = [u[:-1] for u in vectors if u[-1] == k]
        for head, v in _compose_powers(sigmas[:-1], powers[k], heads).items():
            out[head + (k,)] = v
    return out


def pi_rows(ctx: OreContext, s):
    """Yield the sparse rows ``{i: pi_i^m(s)}`` of raw values, m = 0, 1, ...

    Peeling the first letter of each sigma/delta word gives
    ``pi_i^m = sigma . pi_(i-1)^(m-1) + delta . pi_i^(m-1)``, so each row
    follows from the one before at two map applications per stored entry.
    Zero entries are never stored, so they are never sent to sigma or delta.
    When delta is the zero map each row is the single entry ``{m:
    sigma^m(s)}`` and costs one ``sigma`` application.
    """
    sigma, delta = ctx.sigma.value, ctx.delta.value
    has_delta = ctx.delta.kind != "zero"
    add, is_zero = ctx.ring.add_values, ctx.ring.is_zero_value
    row = {} if is_zero(s) else {0: s}
    while True:
        yield row
        nxt = {}
        for i, v in row.items():
            t = sigma(v)
            nxt[i + 1] = add(nxt[i + 1], t) if i + 1 in nxt else t
            if has_delta:
                t = delta(v)
                nxt[i] = add(nxt[i], t) if i in nxt else t
        row = {i: v for i, v in nxt.items() if not is_zero(v)}


def pi_table(ctx: OreContext, s, wanted) -> dict:
    """``{m: {i: pi_i^m(s)}}``, nonzero raw values, for each ``m`` in ``wanted``.

    When sigma is exactly :class:`IdentityMap` (a wrapped one is not), each
    word of ``pi_i^m`` is ``delta^(m-i)``, so ``pi_i^m(s) = C(m, i)
    delta^(m-i)(s)``: the Leibniz rule, which needs only an additive delta,
    not associativity. Each wanted row is built from ``delta^k(s)``, taken
    until it is zero or ``k > max(wanted)``. Other sigmas use :func:`pi_rows`.
    """
    wanted, top = set(wanted), max(wanted)
    if type(ctx.sigma) is not IdentityMap:
        rows = enumerate(islice(pi_rows(ctx, s), top + 1))
        return {m: row for m, row in rows if m in wanted}
    powers, delta, ring = [], ctx.delta.value, ctx.ring
    while len(powers) <= top and not ring.is_zero_value(s):
        powers.append(s)
        s = delta(s)
    scale = ring.scale_value
    return {m: {m - k: scale(v, comb(m, k)) if k else v
                for k, v in enumerate(powers[: m + 1])} for m in wanted}


def pi_row(ctx: OreContext, m: int, s: RingElement) -> dict[int, RingElement]:
    """The nonzero values ``{i: pi_i^m(s)}`` of row ``m``, from
    :func:`pi_table`; products never call it, since they take every row
    they need from a single table per right coefficient."""
    if m < 0:
        raise ValueError("m must be a natural number")
    row = pi_table(ctx, s.value, [m])[m]
    return {i: RingElement(ctx.ring, v) for i, v in row.items()}


def pi(ctx: OreContext, m: int, i: int, s: RingElement) -> RingElement:
    """``pi_i^m(s)``; zero whenever ``i`` falls outside ``0..m``."""
    if i < 0 or i > m:
        return zero(ctx.ring)
    return pi_row(ctx, m, s).get(i, zero(ctx.ring))


def _require_ring(ring: RingDescriptor, terms) -> None:
    for _, c in terms:
        if c.descriptor != ring:
            raise DescriptorMismatch(f"{c.descriptor} vs {ring}")


def twisted_product(ctx, left, right, limit=None) -> tuple:
    """Canonical ``(exponent, coefficient)`` terms of the biadditive product
    of two term lists.

    Each right term ``(n, s)`` asks the context for its twist table once;
    ``ctx.twists(s, n, ms)`` maps each left exponent ``m`` to the pairs
    ``(e, t)`` with ``(r X^m)(s X^n) = sum r t X^e``. With ``limit`` (series
    windows, where ``e = m + n``) pairs with ``m + n >= limit`` are skipped.
    The raw values of ``(r, t)`` are grouped by ``e``, and each group is
    summed by one ``ring.dot_values`` call; zero sums are dropped.

    The sums read raw values, so the coefficients of both term lists are
    checked against ``ctx.ring`` once each, not once per pair. Both term
    lists are canonical: ascending, distinct exponents, no zero coefficient.

    Two shapes skip the table (the module docstring says why each is
    exact), checked in this order:

    * a unit right factor ``((n, 1),)``: the left terms with ``n`` added to
      each exponent (entrywise for exponent vectors), which keeps them
      canonical; no ring arithmetic at all;
    * a constant left factor ``q*1``, ``q`` rational: each right term
      ``s X^n`` becomes ``(q s) X^n`` by ``RingElement.scale``.

    Any other product, a constant left factor too, takes the table path.
    Products that come out zero are dropped (``Matrix`` has zero divisors).
    """
    ring = ctx.ring
    if len(right) == 1 and right[0][1] == one(ring):
        n = right[0][0]
        _require_ring(ring, left)
        if isinstance(n, tuple):
            return tuple((tuple(map(add, m, n)), r) for m, r in left)
        return tuple((m + n, r) for m, r in left if limit is None or m + n < limit)
    if len(left) == 1:
        m, c = left[0]
        constant = not (any(m) if isinstance(m, tuple) else m)
        q = ring.scalar_of(c.value) if constant and c.descriptor == ring else None
        if q is not None:
            kept = [(n, s) for n, s in right if limit is None or n < limit]
            _require_ring(ring, kept)
            scaled = ((n, s.scale(q)) for n, s in kept)
            return tuple((n, t) for n, t in scaled if t)

    _require_ring(ring, left)
    _require_ring(ring, right)
    groups = defaultdict(list)
    for n, s in right:
        live = left if limit is None else [(m, r) for m, r in left if m + n < limit]
        if live:
            table = ctx.twists(s.value, n, [m for m, _ in live])
            for m, r in live:
                for e, t in table[m]:
                    groups[e].append((r.value, t))
    dot = ring.dot_values
    terms = [(e, RingElement(ring, dot(groups[e]))) for e in sorted(groups)]
    return tuple((e, c) for e, c in terms if c)


@dataclass(frozen=True)
class _TermPoly:
    """Shared carrier: ascending (exponent, coefficient) pairs, no zeros."""

    context: object
    terms: tuple[tuple[int, RingElement], ...]

    _allow_negative = False
    _indeterminate = "X"
    _lead = -1  # the index of the term :func:`right_reduce` cancels: the highest

    @classmethod
    def _exponent(cls, context, e):
        if not isinstance(e, int):
            raise ValueError(f"exponent must be an integer, got {e!r}")
        if not cls._allow_negative and e < 0:
            raise ValueError("negative exponents are not allowed here")
        return e

    @classmethod
    def _term(cls, context, e, c) -> tuple:
        """The checked pair ``(e, c)``: a valid exponent and a coefficient of
        the context ring."""
        e = cls._exponent(context, e)
        if not isinstance(c, RingElement):
            raise TypeError("coefficients must be RingElements")
        if c.descriptor != context.ring:
            raise ContextMismatch("coefficient descriptor does not match the ring")
        return e, c

    @classmethod
    def from_terms(cls, context, pairs):
        return cls(context, sum_terms([cls._term(context, e, c) for e, c in pairs]))

    @classmethod
    def zero(cls, context):
        return cls(context, ())

    @classmethod
    def constant(cls, context, coeff: RingElement):
        return cls.monomial(context, coeff, 0)

    @classmethod
    def one(cls, context):
        return cls.constant(context, one(context.ring))

    @classmethod
    def monomial(cls, context, coeff: RingElement, exponent: int):
        """``coeff * X^exponent``, built without a canonicalising pass."""
        term = cls._term(context, exponent, coeff)
        return cls(context, (term,) if coeff else ())

    @classmethod
    def x(cls, context, exponent: int = 1):
        return cls.monomial(context, one(context.ring), exponent)

    def _require_same_context(self, other):
        if self.__class__ is not other.__class__:
            raise ContextMismatch(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self.context != other.context:
            raise ContextMismatch("polynomials come from different contexts")

    def __add__(self, other):
        self._require_same_context(other)
        return self.__class__(self.context, sum_terms(self.terms + other.terms))

    def __neg__(self):
        return self.__class__(
            self.context, tuple((e, -c) for e, c in self.terms)
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._require_same_context(other)
        return self.__class__(
            self.context, twisted_product(self.context, self.terms, other.terms)
        )

    def _times_term(self, s: RingElement, k: int):
        """``self * (s X^k)``, the right multiple a reduction step subtracts."""
        return self * self.monomial(self.context, s, k)

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Largest exponent, or the NEG_INFINITY sentinel for zero."""
        return self.terms[-1][0] if self.terms else NEG_INFINITY

    def order(self):
        """Smallest exponent, or the POS_INFINITY sentinel for zero."""
        return self.terms[0][0] if self.terms else POS_INFINITY

    def leading_coefficient(self) -> RingElement:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.terms[-1][1]

    def coefficient(self, e: int) -> RingElement:
        for exp, c in self.terms:
            if exp == e:
                return c
        return zero(self.context.ring)

    def _power_text(self, e) -> str:
        return _var_power(self._indeterminate, e)

    def __str__(self):
        return render_terms_text(self.context.ring, self.terms, self._power_text)

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"


def render_terms_text(ring: RingDescriptor, terms, x_text) -> str:
    """Canonical text: ascending exponents, explicit ``*``, parentheses around
    compound coefficients; grammar-compatible so output re-parses exactly."""
    return _join_terms(
        [piece for e, c in terms for piece in labeled_terms(ring, c.value, x_text(e))]
    )


class OrePoly(_TermPoly):
    """Element of the twisted polynomial ring; exponents in the naturals."""

    _allow_negative = False


class LaurentPoly(_TermPoly):
    """Element of the skew Laurent ring; exponents range over the integers."""

    _allow_negative = True


class MultiLaurentPoly(_TermPoly):
    """Iterated Laurent element: finitely supported exponent-vector terms.

    The product twists the right coefficient by ``sigma_1^(u_1) o ... o
    sigma_n^(u_n)`` (innermost last variable first); pairwise commutation
    makes the nesting order immaterial.
    """

    @classmethod
    def _exponent(cls, context, e):
        width = len(context.sigmas)
        e = tuple(e)
        if len(e) != width or not all(isinstance(x, int) for x in e):
            raise ValueError(f"exponent vector must have {width} integers")
        return e

    @classmethod
    def constant(cls, context, coeff: RingElement):
        return cls.monomial(context, coeff, (0,) * len(context.sigmas))

    @classmethod
    def variable(cls, context, index: int, exponent: int = 1):
        """The monomial ``X_(index+1) ^ exponent``."""
        exps = [0] * len(context.sigmas)
        exps[index] = exponent
        return cls.monomial(context, one(context.ring), exps)

    def _power_text(self, exps) -> str:
        return "*".join(
            _var_power(f"X{i + 1}", e) for i, e in enumerate(exps) if e != 0
        )


def poly_class(ctx) -> type:
    """The polynomial class over a context: :class:`OrePoly`,
    :class:`LaurentPoly` or :class:`MultiLaurentPoly`."""
    try:
        return _POLY_CLASSES[type(ctx)]
    except KeyError:
        raise TypeError(f"not a polynomial context: {ctx!r}") from None


_POLY_CLASSES = {
    OreContext: OrePoly,
    LaurentContext: LaurentPoly,
    IteratedLaurentContext: MultiLaurentPoly,
}


def poly_associator(p, q, r):
    """``(pq)r - p(qr)`` in whichever twisted ring the operands share."""
    return (p * q) * r - p * (q * r)


_SAMPLE_BOUNDS = {OrePoly: (0, 4), LaurentPoly: (-3, 3), MultiLaurentPoly: (-2, 2)}


def random_poly(ctx, rng: Random, bounds=None, most: int = 3):
    """Up to ``most`` random terms over ``ctx``, each exponent (or exponent-vector
    entry) in ``bounds``, a ``(lo, hi)`` pair that defaults to ``_SAMPLE_BOUNDS``."""
    cls = poly_class(ctx)
    lo, hi = bounds or _SAMPLE_BOUNDS[cls]

    def exponent(r):
        if cls is MultiLaurentPoly:
            return tuple(draw(r, lo, hi) for _ in ctx.sigmas)
        return draw(r, lo, hi)

    terms = random_terms(rng, exponent, lambda r: random_element(ctx.ring, r), most)
    return cls.from_terms(ctx, terms)


def nucleus_check_power(ctx, n: int, trials: int, seed: int = 0) -> CheckReport:
    """Sample ``(p, X^n, q)`` and ``(p, q, X^n)`` associators; both must vanish.

    Works for Ore contexts (n in the naturals) and Laurent contexts (any n).
    """
    if isinstance(ctx, OreContext) and n < 0:
        raise ValueError("Ore contexts have no negative powers of X")
    if not isinstance(ctx, (OreContext, LaurentContext)):
        raise TypeError("expected an Ore or Laurent context")
    xp = poly_class(ctx).x(ctx, n)
    return nucleus_falsify(lambda rng: random_poly(ctx, rng), xp, n, trials, seed)


def nucleus_falsify(sample, xn, n: int, trials: int, seed: int) -> CheckReport:
    """Falsifier for ``X^n`` (given as ``xn``) in the middle and right
    nuclei: ``(p, X^n, q)`` and ``(p, q, X^n)`` associators of operands drawn
    by ``sample(rng)``, polynomials or series windows alike, must vanish."""

    def trial(rng):
        p = sample(rng)
        q = sample(rng)
        middle = poly_associator(p, xn, q)
        right = poly_associator(p, q, xn)
        if not (middle.is_zero() and right.is_zero()):
            slot = "right" if middle.is_zero() else "middle"
            return f"slot={slot}, p={p}, q={q}", f"X^{n} fell out of the {slot} nucleus"

    return falsify(f"nucleus:X^{n}", trials, seed, trial)


def left_normal_form(p: OrePoly) -> tuple[tuple[int, RingElement], ...]:
    """Rewrite ``p = sum_e r_e X^e`` as ``sum_e X^e r'_e`` with exact
    right coefficients ``r'_e = sigma^(-e)``-preimages, peeled top down."""
    ctx = p.context
    if not ctx.sigma.has_inverse:
        raise NoInverse("left normal form needs a sigma preimage chooser")
    pairs = []
    work = p
    while work.terms:
        n = work.degree()
        r = work.leading_coefficient()
        rp = power_apply(ctx.sigma, -n, r)
        pairs.append((n, rp))
        work = work - OrePoly.x(ctx, n) * OrePoly.constant(ctx, rp)
        if work.terms and work.degree() >= n:
            raise AssertionError("left normal form failed to reduce the degree")
    return tuple(sorted(pairs))


def assemble_left_normal(ctx: OreContext, pairs) -> OrePoly:
    """Multiply a left normal form back out: ``sum_e X^e * r'_e``."""
    acc = OrePoly.zero(ctx)
    for e, rp in pairs:
        acc = acc + OrePoly.x(ctx, e) * OrePoly.constant(ctx, rp)
    return acc


def polynomial_part(p: LaurentPoly) -> tuple[LaurentPoly, int]:
    """Factor ``p = (p X^(-m)) X^m`` with ``m = order(p)``; the first factor
    has order zero and multiplying back reproduces ``p`` exactly."""
    if p.is_zero():
        raise ValueError("the zero polynomial has no polynomial part")
    m = p.order()
    q = p * LaurentPoly.x(p.context, -m)
    return q, m


@dataclass(frozen=True)
class ReductionStep:
    """One cancellation: ``generators[generator_index] * (multiplier
    X^shift)`` was subtracted."""

    generator_index: int
    shift: int
    multiplier: RingElement


@dataclass(frozen=True)
class ReductionTrace:
    """Record of right-division steps. Replaying against the same generator
    list reconstructs the dividend exactly."""

    steps: tuple[ReductionStep, ...]
    remainder: OrePoly

    def replay(self, generators) -> OrePoly:
        return replay_reduction(generators, self.steps, self.remainder)


def replay_reduction(generators, steps, remainder):
    """Rebuild ``remainder + sum_i g_(idx_i) * (k_i X^(shift_i))``, for
    polynomials and series windows alike."""
    generators = list(generators)
    for step in steps:
        g = generators[step.generator_index]
        remainder = remainder + g._times_term(step.multiplier, step.shift)
    return remainder


def right_reduce(work, generators, what: str, most=None):
    """``(steps, remainder)``: cancel the lead term ``r X^e`` of ``work`` (a
    polynomial's highest, a window's lowest) until it is zero (exhausted),
    no generator fits, or ``most`` steps are taken. Each step uses the first
    generator ``g`` whose lead term ``c X^d`` has ``d <= e``: ``g * (s
    X^(e-d))`` leads with ``c sigma^d(s) X^e`` (the top Ore entry ``pi_d^d``
    is ``sigma^d``), so ``s = sigma^(-d)(c^(-1) r)`` cancels ``r X^e``. The
    gate comes first; ``what`` names the procedure in its refusals.
    """
    ctx = work.context
    if not is_associative_division_ring(ctx.ring):
        raise UnsupportedDescriptor(
            f"{what} needs an associative division coefficient ring"
        )
    if not ctx.sigma.has_inverse:
        raise NoInverse(f"{what} needs an invertible sigma")
    generators = list(generators)
    for g in generators:
        work._require_same_context(g)
    steps = []
    while work.terms and len(steps) != most:
        e, r = work.terms[work._lead]
        fits = (i for i, g in enumerate(generators) if g and g.terms[g._lead][0] <= e)
        idx = next(fits, None)
        if idx is None:
            break
        g = generators[idx]
        d, c = g.terms[g._lead]
        s = power_apply(ctx.sigma, -d, c.inverse() * r)
        work = work - g._times_term(s, e - d)
        if work.terms and work.terms[work._lead][0] == e:
            raise AssertionError(f"{what} failed to cancel the lead term")
        steps.append(ReductionStep(idx, e - d, s))
    return steps, work


def right_divide(p: OrePoly, generators) -> ReductionTrace:
    """Greedy highest-degree cancellation of ``p`` by right multiples of the
    generators (:func:`right_reduce`). Each step strictly lowers the degree,
    so it ends with a remainder of degree below the least generator degree.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    if not all(generators):
        raise ValueError("generators must be nonzero")
    steps, remainder = right_reduce(p, generators, "right division")
    return ReductionTrace(tuple(steps), remainder)
