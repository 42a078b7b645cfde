"""Truncated twisted power and Laurent series with explicit precision.

A :class:`TruncatedSeries` is a window of exactly known coefficients below
``precision``; everything at or above ``precision`` is unknown, not zero. The
window stores only its nonzero terms, so its cost does not depend on its
precision. Every operation computes the largest output precision it can
actually prove rather than clipping to a global cutoff, so no stored
coefficient is ever silently wrong. In particular the product of windows
known below ``P`` and ``Q`` is known below ``min(P + start_other, Q +
start_self)``, where ``start`` is the first stored exponent.

An exhausted window (no stored term) has an *unknown* order: truncation can
never certify that a series is zero. Order is therefore ``int | None``.

The context is either a :class:`~skewlab.skewpoly.LaurentContext` (negative
exponents allowed) or an :class:`~skewlab.skewpoly.OreContext` whose delta is
the zero map (power series over a not-necessarily-invertible sigma).
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .maps import power_apply
from .rings import (
    RingElement,
    UnsupportedDescriptor,
    _var_power,
    is_associative_division_ring,
    one,
    random_element,
    random_terms,
    sum_terms,
    zero,
)
from .skewpoly import (
    ContextMismatch,
    LaurentContext,
    OreContext,
    render_terms_text,
    twisted_product,
)


def _validate_series_context(ctx):
    if isinstance(ctx, LaurentContext):
        return
    if isinstance(ctx, OreContext):
        if ctx.delta.kind != "zero":
            raise ValueError(
                "series over an Ore context require the zero delta"
            )
        return
    raise TypeError("expected a Laurent context or an Ore context with delta = 0")


@dataclass(frozen=True)
class TruncatedSeries:
    """Exactly known coefficients below ``precision``.

    ``terms`` is the canonical sparse term list (:func:`rings.sum_terms`):
    nonzero ``(exponent, coefficient)`` pairs, ascending, every exponent below
    ``precision``. ``start`` is derived from it: the first exponent, or
    ``precision`` when the window is exhausted.
    """

    context: object
    terms: tuple[tuple[int, RingElement], ...]
    precision: int

    @classmethod
    def from_terms(cls, context, pairs, precision: int):
        """Exact finite terms viewed through a window of the given precision."""
        _validate_series_context(context)
        ring = context.ring
        kept = [(e, c) for e, c in pairs if e < precision]
        for _, c in kept:
            if not isinstance(c, RingElement) or c.descriptor != ring:
                raise ValueError("coefficients must be elements of the context ring")
        window = cls(context, sum_terms(kept), precision)
        if window.start < 0 and isinstance(context, OreContext):
            raise ValueError("power series windows start at exponent 0 or above")
        return window

    @classmethod
    def from_poly(cls, p, precision: int):
        """Truncate a polynomial (Ore or Laurent) to a series window."""
        return cls.from_terms(p.context, p.terms, precision)

    @classmethod
    def zero_window(cls, context, precision: int):
        return cls.from_terms(context, (), precision)

    @classmethod
    def one(cls, context, precision: int):
        return cls.from_terms(context, [(0, one(context.ring))], precision)

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
        return dict(self.terms).get(e, zero(self.context.ring))

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
        return TruncatedSeries.from_terms(self.context, self.terms, precision)

    def _require_same_context(self, other):
        if not isinstance(other, TruncatedSeries) or other.context != self.context:
            raise ContextMismatch("series come from different contexts")

    def __add__(self, other):
        self._require_same_context(other)
        precision = min(self.precision, other.precision)
        return TruncatedSeries.from_terms(
            self.context, self.terms + other.terms, precision
        )

    def __neg__(self):
        return TruncatedSeries(
            self.context, tuple((e, -c) for e, c in self.terms), self.precision
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return series_mul(self, other)

    def __str__(self):
        body = render_terms_text(
            self.context.ring, self.terms, lambda e: _var_power("X", e)
        )
        tail = f"O(X^{self.precision})"
        return tail if body == "0" else f"{body} + {tail}"

    def __repr__(self):
        return f"<TruncatedSeries {self}>"


def _exact_below(ctx, left, right, precision: int) -> TruncatedSeries:
    """The product of two term lists, kept below ``precision``."""
    terms = twisted_product(ctx, left, right, limit=precision)
    return TruncatedSeries.from_terms(ctx, terms, precision)


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
        return TruncatedSeries.zero_window(s.context, s.precision)
    return _exact_below(s.context, p.terms, s.terms, s.precision + p.order())


def series_times_poly(s: TruncatedSeries, p) -> TruncatedSeries:
    """Series times exact polynomial (right): known below ``s.precision +
    order(p)``, each right term acting as in :func:`shift_scale`."""
    if p.is_zero():
        return TruncatedSeries.zero_window(s.context, s.precision)
    return _exact_below(s.context, s.terms, p.terms, s.precision + p.order())


@dataclass(frozen=True)
class SeriesReduceStep:
    generator_index: int
    multiplier: RingElement
    shift: int


def series_reduce_step(
    q: TruncatedSeries, generators
) -> tuple[TruncatedSeries, SeriesReduceStep]:
    """One order-raising step: subtract ``g * (k X^shift)`` where the single
    term is solved so the leading coefficients cancel exactly.

    Requires an associative division coefficient ring; the first generator
    whose order does not exceed ``order(q)`` is used.
    """
    ctx = q.context
    if not is_associative_division_ring(ctx.ring):
        raise UnsupportedDescriptor(
            "series reduction needs an associative division coefficient ring"
        )
    if not ctx.sigma.has_inverse:
        raise ValueError("series reduction needs a sigma preimage chooser")
    oq = q.order()
    if oq is None:
        raise ValueError("order of the input is unknown at this precision")
    generators = list(generators)
    pick = None
    for idx, g in enumerate(generators):
        q._require_same_context(g)
        og = g.order()
        if og is not None and og <= oq:
            pick = idx
            break
    if pick is None:
        raise ValueError("no generator of order <= order of the input")
    g = generators[pick]
    d = g.order()
    c = g.leading_coefficient()
    r = q.leading_coefficient()
    k = power_apply(ctx.sigma, -d, c.inverse() * r)
    shift = oq - d
    q2 = q - shift_scale(g, k, shift)
    new_order = q2.order()
    if new_order is not None and new_order <= oq:
        raise AssertionError("reduction step failed to raise the order")
    return q2, SeriesReduceStep(pick, k, shift)


def series_reduce_chain(
    q: TruncatedSeries, generators
) -> tuple[list[SeriesReduceStep], TruncatedSeries]:
    """Iterate :func:`series_reduce_step` until the window is exhausted."""
    steps = []
    work = q
    while work.order() is not None:
        work, step = series_reduce_step(work, generators)
        steps.append(step)
    return steps, work


def replay_reduction(
    generators, steps, remainder: TruncatedSeries
) -> TruncatedSeries:
    """Rebuild ``sum_i g_(idx_i) * (k_i X^(shift_i)) + remainder``."""
    generators = list(generators)
    acc = remainder
    for step in steps:
        acc = acc + shift_scale(
            generators[step.generator_index], step.multiplier, step.shift
        )
    return acc


def agree_below(a: TruncatedSeries, b: TruncatedSeries, bound: int) -> bool:
    """Exact coefficient agreement for every exponent below ``bound``."""
    if bound > min(a.precision, b.precision):
        raise ValueError("bound exceeds a known precision")
    return a.truncate(bound).terms == b.truncate(bound).terms


def random_series(ctx, rng: Random, precision: int) -> TruncatedSeries:
    terms = random_terms(
        rng,
        lambda r: r.randint(0, precision - 1),
        lambda r: random_element(ctx.ring, r),
    )
    return TruncatedSeries.from_terms(ctx, terms, precision)
