"""Truncated twisted power and Laurent series with explicit precision.

A :class:`TruncatedSeries` is a window of exactly known coefficients below
``precision``; everything at or above ``precision`` is unknown, not zero. It
is the polynomial carrier of :mod:`skewlab.skewpoly` plus that precision: it
stores only its nonzero terms, so its cost does not depend on its precision.
Every operation computes the largest output precision it can actually prove
rather than clipping to a global cutoff, so no stored coefficient is ever
silently wrong. In particular the product of windows known below ``P`` and
``Q`` is known below ``min(P + start_other, Q + start_self)``, where
``start`` is the first stored exponent.

An exhausted window (no stored term) has an *unknown* order: truncation can
never certify that a series is zero. Order is therefore ``int | None``.
Reduction runs the engine of right division on the lowest term.

The context is either a :class:`~skewlab.skewpoly.LaurentContext` (negative
exponents allowed) or an :class:`~skewlab.skewpoly.OreContext` whose delta is
the zero map (power series over a not-necessarily-invertible sigma).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from random import Random

from .rings import RingElement, draw, one, random_element, random_terms, sum_terms, zero
from .skewpoly import (  # replay_reduction is re-exported
    LaurentContext,
    OreContext,
    _TermPoly,
    replay_reduction,
    right_reduce,
    twisted_product,
)


def _validate_series_context(ctx):
    if not isinstance(ctx, (LaurentContext, OreContext)):
        raise TypeError("expected a Laurent context or an Ore context with delta = 0")
    if isinstance(ctx, OreContext) and ctx.delta.kind != "zero":
        raise ValueError("series over an Ore context require the zero delta")


@dataclass(frozen=True)
class TruncatedSeries(_TermPoly):
    """Exactly known coefficients below ``precision``.

    ``terms`` is the canonical sparse term list (:func:`rings.sum_terms`),
    every exponent below ``precision``. ``start`` is derived from it: the
    first exponent, or ``precision`` when the window is exhausted. An
    exhausted window is falsy and ``is_zero()``; its order is unknown.
    """

    precision: int

    _allow_negative = True
    _lead = 0  # the lowest term

    @classmethod
    def _window(cls, context, terms, precision: int):
        """The window below ``precision`` of a canonical term list: a prefix,
        cut with no canonicalising pass. A power series window starting
        below exponent 0 is refused."""
        terms = terms[: bisect_left(terms, precision, key=itemgetter(0))]
        window = cls(context, terms, precision)
        if window.start < 0 and isinstance(context, OreContext):
            raise ValueError("power series windows start at exponent 0 or above")
        return window

    @classmethod
    def from_terms(cls, context, pairs, precision: int):
        """Exact finite terms viewed through a window of the given precision."""
        _validate_series_context(context)
        kept = [cls._term(context, e, c) for e, c in pairs if e < precision]
        return cls._window(context, sum_terms(kept), precision)

    @classmethod
    def from_poly(cls, p, precision: int):
        """Truncate a polynomial (Ore or Laurent) to a series window."""
        _validate_series_context(p.context)
        return cls._window(p.context, p.terms, precision)

    # The polynomial constructors, each with the window's precision.
    @classmethod
    def zero(cls, context, precision: int):
        return cls.from_terms(context, (), precision)

    @classmethod
    def constant(cls, context, coeff: RingElement, precision: int):
        return cls.monomial(context, coeff, 0, precision)

    @classmethod
    def one(cls, context, precision: int):
        return cls.constant(context, one(context.ring), precision)

    @classmethod
    def monomial(cls, context, coeff: RingElement, exponent: int, precision: int):
        return cls.from_terms(context, [(exponent, coeff)], precision)

    @classmethod
    def x(cls, context, exponent: int, precision: int):
        return cls.monomial(context, one(context.ring), exponent, precision)

    @property
    def start(self) -> int:
        return self.terms[0][0] if self.terms else self.precision

    @property
    def coefficients(self) -> tuple[RingElement, ...]:
        """Dense view of ``start .. precision - 1``, zeros included. Only the
        benchmark tracer and the product-kernel reference test read it."""
        known = dict(self.terms)
        z = zero(self.context.ring)
        return tuple(known.get(e, z) for e in range(self.start, self.precision))

    def coefficient(self, e: int) -> RingElement:
        if e >= self.precision:
            raise ValueError(f"coefficient of X^{e} is beyond this precision")
        return super().coefficient(e)

    def order(self):
        """Least exponent with a nonzero stored coefficient; ``None`` when the
        window is exhausted (the series may still be nonzero above it)."""
        return self.terms[0][0] if self.terms else None

    def leading_coefficient(self) -> RingElement:
        if not self.terms:
            raise ValueError("order unknown at this precision")
        return self.terms[0][1]

    def truncate(self, precision: int) -> "TruncatedSeries":
        if precision > self.precision:
            raise ValueError("cannot raise precision")
        return self._window(self.context, self.terms, precision)

    def __add__(self, other):
        self._require_same_context(other)
        precision = min(self.precision, other.precision)
        kept = [t for t in self.terms + other.terms if t[0] < precision]
        return self._window(self.context, sum_terms(kept), precision)

    def __neg__(self):
        negated = tuple((e, -c) for e, c in self.terms)
        return TruncatedSeries(self.context, negated, self.precision)

    def __mul__(self, other):
        return series_mul(self, other)

    def _times_term(self, s: RingElement, k: int) -> "TruncatedSeries":
        return shift_scale(self, s, k)

    def __str__(self):
        body = super().__str__()
        tail = f"O(X^{self.precision})"
        return tail if body == "0" else f"{body} + {tail}"


def _exact_below(ctx, left, right, precision: int) -> TruncatedSeries:
    """The product of two term lists, kept below ``precision``; the kernel's
    output is already canonical."""
    terms = twisted_product(ctx, left, right, limit=precision)
    return TruncatedSeries._window(ctx, terms, precision)


def series_mul(p: TruncatedSeries, q: TruncatedSeries) -> TruncatedSeries:
    """Product, exact below ``min(p.precision + q.start, q.precision + p.start)``."""
    p._require_same_context(q)
    precision = min(p.precision + q.start, q.precision + p.start)
    return _exact_below(p.context, p.terms, q.terms, precision)


def shift_scale(g: TruncatedSeries, k: RingElement, e: int) -> TruncatedSeries:
    """``g * (k X^e)`` for an exact single-term right multiplier.

    Because the multiplier is exact, the product stays known below
    ``g.precision + e``: each term maps ``(g_m X^m)(k X^e) = (g_m sigma^m(k))
    X^(m+e)``.
    """
    return _exact_below(g.context, g.terms, [(e, k)], g.precision + e)


def poly_times_series(p, s: TruncatedSeries) -> TruncatedSeries:
    """Exact polynomial (left) times series: known below ``s.precision +
    order(p)`` since every contributing left factor is exact."""
    if p.is_zero():
        return TruncatedSeries.zero(s.context, s.precision)
    return _exact_below(s.context, p.terms, s.terms, s.precision + p.order())


def series_times_poly(s: TruncatedSeries, p) -> TruncatedSeries:
    """Series times exact polynomial (right): known below ``s.precision +
    order(p)``, each right term acting as in :func:`shift_scale`."""
    if p.is_zero():
        return TruncatedSeries.zero(s.context, s.precision)
    return _exact_below(s.context, s.terms, p.terms, s.precision + p.order())


def series_reduce_step(q: TruncatedSeries, generators):
    """``(q2, step)``: one order-raising step of
    :func:`skewlab.skewpoly.right_reduce`, subtracting ``g * (k X^shift)``
    for the first generator ``g`` whose order does not exceed ``order(q)``.
    Raises ``ValueError`` when the window is exhausted or no generator fits.
    """
    steps, q2 = right_reduce(q, generators, "series reduction", most=1)
    if not steps:
        raise ValueError(
            "order of the input is unknown at this precision" if q.is_zero()
            else "no generator of order <= order of the input"
        )
    return q2, steps[0]


def series_reduce_chain(q: TruncatedSeries, generators):
    """``(steps, remainder)``: :func:`series_reduce_step` repeated until the
    window is exhausted."""
    steps, remainder = right_reduce(q, generators, "series reduction")
    if not remainder.is_zero():
        raise ValueError("no generator of order <= order of the input")
    return steps, remainder


def agree_below(a: TruncatedSeries, b: TruncatedSeries, bound: int) -> bool:
    """Exact coefficient agreement for every exponent below ``bound``."""
    if bound > min(a.precision, b.precision):
        raise ValueError("bound exceeds a known precision")
    return a.truncate(bound).terms == b.truncate(bound).terms


def random_series(ctx, rng: Random, precision: int) -> TruncatedSeries:
    terms = random_terms(
        rng,
        lambda r: draw(r, 0, precision - 1),
        lambda r: random_element(ctx.ring, r),
    )
    return TruncatedSeries.from_terms(ctx, terms, precision)
