"""Exact coefficient rings: the tower built over the rationals.

Every ring in the tower is described by a :class:`RingDescriptor` tree and its
elements are plain immutable Python data, canonicalized at construction so
that structural equality coincides with mathematical equality:

* ``Rationals``      -- ``fractions.Fraction`` (always reduced, denominator > 0)
* ``CayleyDickson``  -- ``2**level`` coordinates (see below)
* ``JordanPlus``     -- the wrapped base value itself (the product changes,
  the carrier does not)
* ``Poly1``          -- ``(exponents, numerators, den)`` (see below)
* ``Poly2``          -- the same with ``(e1, e2)`` exponent pairs
* ``Matrix``         -- ``n*n`` coordinates (see below)

``CayleyDickson`` and ``Matrix`` share one coordinate layout and all the
arithmetic that does not depend on the product (:class:`_Coordinates`); each
adds only its product table and what is its own. A value is ``dim``
coordinates over the base: over the rationals the pair ``(numerators, den)``
of ``dim`` integers over one positive denominator with ``gcd(*numerators,
den) == 1``, the layout of FLINT's ``fmpq_poly``; over any other base the
flat tuple of ``dim`` base values. ``canon`` builds a value from its
coordinates and ``flat_values`` reads them back as base values (``Fraction``
over the rationals). A Cayley-Dickson value lists its coordinates in doubling
order, the ``lo`` half before the ``hi`` half at every level; level 0 is the
base, 1 the complexes, 2 the quaternions, 3 the octonions, 4 the sedenions. A
matrix lists its entries in row-major order, and :meth:`Matrix.rows` reads
them back by rows.

A ``Poly1`` or ``Poly2`` value is the tuple of the ascending exponents of its
nonzero terms next to their coefficients as one such rational vector: the
triple ``(exponents, numerators, den)``, no numerator zero. ``flat_terms``
reads it back as ``(exponent, Fraction)`` terms, ``support`` gives the
exponents, and the maps on these rings rebuild a value term by term through
``map_terms``, so no code outside this module reads the layout.

``Poly1`` and ``Poly2`` are one ``_PolyRing`` implementation; only the
exponent differs. The twisted polynomials of :mod:`skewlab.skewpoly` are
sparse term lists over any ring here: one canonicaliser, :func:`sum_terms`,
gives them their form, and one renderer, :func:`labeled_terms`, writes every
"coefficient times label" term whose coefficient is a ring value, such as a
power of X or a Cayley-Dickson unit over a polynomial base. A rational
coefficient is written by ``_ratio_text`` and labeled by ``_labeled``.

Both products are read from a table of ``e_i * e_j = sign * e_k`` on the
unit coordinates, built once per level or size. The Cayley-Dickson table is
the doubling rule ``(a, b) * (c, d) = (a*c - conj(d)*b, d*a + b*conj(c))``
with conjugation ``conj((a, b)) = (conj(a), -b)`` and identity conjugation at
level 0, so ``e_i * e_j = +-e_(i XOR j)``. The matrix table takes entry
``(r, c)`` of a product as row ``r`` times column ``c``.

A ring defines its product once, as a fused sum of products,
:meth:`RingDescriptor.dot_values`: the canonical value of ``sum(a*b for a, b
in pairs)``. The product ``mul_values`` is the dot of one pair, and twisted
products sum each output coefficient with one dot. Over the rationals the
products are accumulated as integer numerators over one denominator, so a
result costs one gcd (a Cayley-Dickson value, a matrix or a polynomial) or
one ``Fraction`` (``Rationals``), not one per product. Sums, negations,
scalings, samples and renderings of these values over the rationals are
integer operations with at most one gcd per result (and one per printed
coefficient); a transpose permutes the numerators. A ``Fraction`` is built
only where a rational leaves the ring: ``scalar_of`` and the decoding
accessors. A Cayley-Dickson ring or a matrix ring over any other base makes
one base dot per result coordinate.

:meth:`RingDescriptor.scalar_of` reads a value as a rational multiple of the
unit when it is one. Every ring here is an algebra over the rationals, so a
product by ``q * 1``, on either side, is the scaling by ``q``; the twisted
products use this to skip the ring product for a rational left factor.
"""

from __future__ import annotations

import operator
import re
import sys
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from math import gcd, lcm
from random import Random
from typing import Any, NamedTuple


class DescriptorMismatch(ValueError):
    """Operands live in different coefficient rings."""


class UnsupportedDescriptor(ValueError):
    """The requested operation is not defined for this ring."""


class NotInvertible(ArithmeticError):
    """Element has no two-sided multiplicative inverse here."""


def as_rational(x: Any) -> Fraction:
    """Coerce ``x`` (int, Fraction, or exact numeric string) to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _join_terms(terms: tuple[tuple[int, str], ...]) -> str:
    if not terms:
        return "0"
    sign, text = terms[0]
    parts = ["-" + text if sign < 0 else text]
    for sign, text in terms[1:]:
        parts.append((" - " if sign < 0 else " + ") + text)
    return "".join(parts)


def sum_terms(pairs) -> tuple:
    """The canonical sparse term list: coefficients summed per exponent,
    zeros dropped, ascending exponents. Coefficients are
    :class:`RingElement`s, false exactly when zero."""
    acc: dict = {}
    for e, c in pairs:
        acc[e] = acc[e] + c if e in acc else c
    return tuple(sorted((e, c) for e, c in acc.items() if c))


def labeled_terms(ring: RingDescriptor, value, label: str) -> tuple:
    """``value * label`` as (sign, text) pairs, where ``value`` lives in
    ``ring``. An empty label is the unit; a coefficient of several terms is
    parenthesized."""
    terms = ring.render_terms(value)
    if not label:
        return terms
    if len(terms) == 1:
        return (_labeled(*terms[0], label),)
    return ((1, f"({_join_terms(terms)})*{label}"),)


def _labeled(sign: int, text: str, label: str) -> tuple[int, str]:
    """The one-term coefficient ``sign * text`` times a non-empty label."""
    return sign, label if text == "1" else f"{text}*{label}"


class RingDescriptor:
    """Shape of one node in the coefficient-ring tower.

    Subclasses implement the raw-value algebra; user code works with
    :class:`RingElement`, which pairs a descriptor with a canonical value.
    """

    @property
    def is_associative(self) -> bool:
        raise NotImplementedError

    @property
    def is_commutative(self) -> bool:
        raise NotImplementedError

    def canon(self, raw: Any) -> Any:
        raise NotImplementedError

    def zero_value(self) -> Any:
        raise NotImplementedError

    def one_value(self) -> Any:
        raise NotImplementedError

    def add_values(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def neg_value(self, a: Any) -> Any:
        raise NotImplementedError

    def mul_values(self, a: Any, b: Any) -> Any:
        """The product ``a*b``: the dot of one pair."""
        return self.dot_values(((a, b),))

    def dot_values(self, pairs) -> Any:
        """The canonical value of ``sum(a*b for a, b in pairs)``, each product
        taken in the order ``a*b``, from a sequence of value pairs; the zero
        value when ``pairs`` is empty. The one product a ring defines."""
        raise NotImplementedError

    def scale_value(self, a: Any, q: Fraction) -> Any:
        raise NotImplementedError

    def scalar_of(self, a: Any) -> Fraction | None:
        """The rational ``q`` with ``a == q * 1``, or ``None`` when ``a`` is
        not a rational multiple of the unit. A product by such an ``a`` on
        either side is ``scale_value(., q)``. This default always answers
        ``None``, which only gives up that shortcut."""
        return None

    def is_zero_value(self, a: Any) -> bool:
        return a == self.zero_value()

    def sample_value(self, rng: Random) -> Any:
        raise NotImplementedError

    def basis_values(self) -> tuple:
        """Values whose rational span holds every ``sample_value``, so that an
        additive map is checked on all samples by checking it on these."""
        raise NotImplementedError

    def render_terms(self, a: Any) -> tuple[tuple[int, str], ...]:
        """Canonical additive decomposition as (sign, magnitude-text) pairs."""
        raise NotImplementedError

    def render_value(self, a: Any) -> str:
        return _join_terms(self.render_terms(a))


def draw(rng: Random, lo: int, hi: int) -> int:
    """``rng.randint(lo, hi)``: the same value from the same stream position,
    for ``Random`` and subclasses that keep its ``getrandbits``. With ``n =
    hi - lo + 1`` it is ``lo`` plus the first ``rng.getrandbits(n.bit_length())``
    below ``n``, as CPython's ``_randbelow_with_getrandbits`` draws it, minus
    ``randint``'s argument handling. An empty range raises ``ValueError``
    before anything is drawn. The library draws every integer through here."""
    n = hi - lo + 1
    if n <= 0:
        raise ValueError(f"empty range for draw({lo}, {hi})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return lo + r


def _draw_ratio(rng: Random) -> tuple[int, int]:
    """``(draw(rng, -9, 9), draw(rng, 1, 9))`` with the widths written out:
    19 values take 5 bits, 9 values take 4."""
    bits = rng.getrandbits
    n = bits(5)
    while n >= 19:
        n = bits(5)
    d = bits(4)
    while d >= 9:
        d = bits(4)
    return n - 9, d + 1


def _sample_fraction(rng: Random) -> Fraction:
    return Fraction(*_draw_ratio(rng))


def _rational_dot(pairs) -> Fraction:
    """``sum(a*b for a, b in pairs)``: integer numerators over the lcm of the
    denominators, one ``Fraction`` in all."""
    ratios = [(*a.as_integer_ratio(), *b.as_integer_ratio()) for a, b in pairs]
    den = lcm(*[ad * bd for _, ad, _, bd in ratios])
    return Fraction(sum([an * bn * (den // (ad * bd)) for an, ad, bn, bd in ratios]), den)


# --- rational vectors: integer numerators over one denominator ----------------
#
# A vector of rationals is the pair ``(nums, den)``: a tuple of integer
# numerators and one positive denominator with ``gcd(*nums, den) == 1``, so
# that equal vectors are equal data; zero is ``((0,) * n, 1)``. Each helper
# that can leave a common factor ends in one gcd (:func:`_vec`).


def _vec(nums, den: int) -> tuple:
    """The canonical vector ``nums / den`` for ``den > 0``."""
    g = gcd(*nums, den)
    if g == 1:
        return tuple(nums), den
    return tuple([n // g for n in nums]), den // g


def _vec_from_ratios(ratios) -> tuple:
    """The vector of the rationals ``n / d`` given as ``(n, d)``, ``d > 0``."""
    den = lcm(*[d for _, d in ratios])
    return _vec([n * (den // d) for n, d in ratios], den)


def _integer_ratio(x) -> tuple[int, int]:
    """``(n, d)`` with ``x == n / d`` and ``d > 0``, for what
    :func:`as_rational` takes; an int or a ``Fraction`` builds no
    ``Fraction``."""
    if isinstance(x, (int, Fraction)):
        return x.as_integer_ratio()
    return as_rational(x).as_integer_ratio()


def _vec_from_rationals(xs) -> tuple:
    return _vec_from_ratios([_integer_ratio(x) for x in xs])


def _vec_to_rationals(v) -> tuple[Fraction, ...]:
    nums, den = v
    return tuple([Fraction(n, den) for n in nums])


def _vec_add(a, b) -> tuple:
    (an, ad), (bn, bd) = a, b
    if ad == bd:
        return _vec(list(map(operator.add, an, bn)), ad)
    den = lcm(ad, bd)
    sa, sb = den // ad, den // bd
    return _vec([x * sa + y * sb for x, y in zip(an, bn)], den)


def _vec_neg(v) -> tuple:
    nums, den = v
    return tuple([-n for n in nums]), den


def _vec_scale(v, q: Fraction) -> tuple:
    nums, den = v
    qn, qd = q.as_integer_ratio()
    return _vec([n * qn for n in nums], den * qd)


def _vec_bilinear(rows, pairs) -> tuple:
    """``sum(x*y for x, y in pairs)`` for the bilinear product whose
    coordinate ``k`` is ``sum(x_i*y_j for i, j in plus) - sum(x_i*y_j for i, j
    in minus)``, where ``rows[k] == (plus, minus)``. The left factors are
    brought to the lcm of the pairs' denominators, so the result costs one
    gcd."""
    if len(pairs) == 1:
        (xs, xd), (ys, yd) = pairs[0]
        den, scaled = xd * yd, [(xs, ys)]
    else:
        dens = [x[1] * y[1] for x, y in pairs]
        den = lcm(*dens)
        scaled = [
            (xs if d == den else [den // d * a for a in xs], ys)
            for ((xs, _), (ys, _)), d in zip(pairs, dens)
        ]
    return _vec([
        sum([xs[i] * ys[j] for xs, ys in scaled for i, j in plus])
        - (sum([xs[i] * ys[j] for xs, ys in scaled for i, j in minus]) if minus else 0)
        for plus, minus in rows
    ], den)


def _poly_from_ratios(ratios) -> tuple:
    """The polynomial value ``sum(n/d * m)`` over the ``(m, n, d)`` of
    ``ratios``, ``d > 0``: numerators brought to the lcm of the denominators
    and summed per exponent."""
    den = lcm(*[d for _, _, d in ratios])
    acc: dict = {}
    for e, n, d in ratios:
        n *= den // d
        acc[e] = acc[e] + n if e in acc else n
    return _poly(acc, den)


def _poly(acc: dict, den: int) -> tuple:
    """The polynomial value with the coefficients ``acc[e] / den``, ``den >
    0``: zero coefficients dropped, exponents ascending, one gcd."""
    exps = sorted([e for e, n in acc.items() if n])
    return (tuple(exps), *_vec([acc[e] for e in exps], den))


def _vec_terms(v):
    """``(index, sign, text)`` for each nonzero coordinate of ``v``, ``text``
    being its magnitude in lowest terms as ``str`` writes a ``Fraction``."""
    nums, den = v
    for index, n in enumerate(nums):
        if n:
            g = gcd(n, den)
            yield index, 1 if n > 0 else -1, _ratio_text(abs(n) // g, den // g)


def _ratio_text(n: int, d: int) -> str:
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:  # more digits than int-to-str conversion allows
        raise ValueError(
            f"a coefficient has {_digit_count(max(n, d))} digits, more than "
            f"the {sys.get_int_max_str_digits()} that can be printed"
        ) from None


def _digit_count(m: int) -> int:
    """The number of decimal digits of ``m >= 1``, without converting it."""
    k = int((m.bit_length() - 1) * 0.30102999566398120) + 1  # of 2**(bits-1)
    return k + (m >= 10**k)


# Fractions are immutable, so every call may share these.
_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)
_Q_BASIS = (_Q_ONE,)


@dataclass(frozen=True)
class Rationals(RingDescriptor):
    @property
    def is_associative(self) -> bool:
        return True

    @property
    def is_commutative(self) -> bool:
        return True

    def canon(self, raw):
        return as_rational(raw)

    def zero_value(self):
        return _Q_ZERO

    def one_value(self):
        return _Q_ONE

    add_values = staticmethod(operator.add)
    neg_value = staticmethod(operator.neg)
    dot_values = staticmethod(_rational_dot)
    scale_value = staticmethod(operator.mul)
    is_zero_value = staticmethod(operator.not_)

    def scalar_of(self, a):
        return a

    sample_value = staticmethod(_sample_fraction)

    def basis_values(self):
        return _Q_BASIS

    def render_terms(self, a):
        n, d = a.as_integer_ratio()
        if n > 0:
            return ((1, _ratio_text(n, d)),)
        return ((-1, _ratio_text(-n, d)),) if n else ()


RATIONALS = Rationals()


def _basis_label(level: int, index: int) -> str:
    if level <= 2:
        return ("i", "j", "k")[index - 1]
    return f"e{index}"


class _Table(NamedTuple):
    """A product on the unit coordinates ``e_0 .. e_(dim-1)`` of a
    :class:`_Coordinates` ring, built by :func:`_product_table`."""

    terms: tuple  # row k: each (i, j, sign, swap) with e_i * e_j = sign * e_k
    rows: tuple  # row k for _vec_bilinear: the (i, j) of sign +1, then of -1


def _product_table(terms: tuple) -> _Table:
    """The table with these terms. In a term ``(i, j, sign, swap)``,
    ``swap`` says that the base factors multiply as ``y_j*x_i``, which
    matters only over a non-commutative base; over the rationals only the
    signs are kept."""
    rows = tuple(
        tuple(tuple((i, j) for i, j, s, _ in row if s == sign) for sign in (1, -1))
        for row in terms
    )
    return _Table(terms, rows)


@lru_cache(maxsize=None)
def _sign_table(level: int) -> _Table:
    """The doubling product as the table ``e_i * e_j = sign * e_(i ^ j)``,
    built one level at a time from the doubling rule, in which ``conj`` keeps
    coordinate 0 and negates the rest."""
    units = {(0, 0): (1, False)}
    for lv in range(level):
        h = 1 << lv
        doubled = {}
        for (p, q), (s, w) in units.items():
            doubled[p, q] = (s, w)  # a*c
            doubled[q + h, p + h] = (-s if p == 0 else s, not w)  # -conj(d)*b
            doubled[q, p + h] = (s, not w)  # d*a
            doubled[p + h, q] = (s if q == 0 else -s, w)  # b*conj(c)
        units = doubled
    n = 1 << level
    return _product_table(
        tuple(tuple((i, i ^ k, *units[i, i ^ k]) for i in range(n)) for k in range(n))
    )


class _Coordinates(RingDescriptor):
    """A ring whose values are ``dim`` coordinates over ``base``, multiplied
    through a :class:`_Table` on the unit coordinates. Over the rationals a
    value is one rational vector ``(numerators, den)``; over any other base it
    is the flat tuple of base coordinates. A subclass is a frozen dataclass
    with a ``base`` field, the 0/1 coordinates ``_unit`` of its unit, and a
    ``_table`` cached on its ``level`` or ``n``, which only a product
    builds; it adds only what these do not give."""

    @cached_property
    def dim(self) -> int:
        return len(self._unit)

    @cached_property
    def _values(self) -> tuple:
        """The zero and the unit, built from the unit's 0/1 coordinates."""
        unit = self._unit
        if isinstance(self.base, Rationals):
            return ((0,) * len(unit), 1), (unit, 1)
        z, o = self.base.zero_value(), self.base.one_value()
        return (z,) * len(unit), tuple([o if u else z for u in unit])

    def zero_value(self):
        return self._values[0]

    def one_value(self):
        return self._values[1]

    def canon(self, raw):
        """The value with the ``dim`` base coordinates ``raw``; over the
        rationals ``raw`` may also be a value, which is returned canonical."""
        over_q = isinstance(self.base, Rationals)
        if over_q and isinstance(raw, tuple) and len(raw) == 2:
            if isinstance(raw[0], tuple):  # no coordinate is a tuple
                raw = _vec_to_rationals(raw)
        if not isinstance(raw, (tuple, list)) or len(raw) != self.dim:
            raise ValueError(f"a value of {self} has {self.dim} coordinates")
        if over_q:
            return _vec_from_rationals(raw)
        return tuple(map(self.base.canon, raw))

    def flat_values(self, a) -> tuple:
        """The ``dim`` base coordinates of ``a``; ``Fraction``s over the
        rationals."""
        if isinstance(self.base, Rationals):
            return _vec_to_rationals(a)
        return a

    def add_values(self, a, b):
        if isinstance(self.base, Rationals):
            return _vec_add(a, b)
        return tuple(map(self.base.add_values, a, b))

    def neg_value(self, a):
        if isinstance(self.base, Rationals):
            return _vec_neg(a)
        return tuple(map(self.base.neg_value, a))

    def scale_value(self, a, q):
        if isinstance(self.base, Rationals):
            return _vec_scale(a, q)
        return tuple([self.base.scale_value(c, q) for c in a])

    def dot_values(self, pairs):
        base = self.base
        if isinstance(base, Rationals):
            return _vec_bilinear(self._table.rows, pairs)
        # Coordinate k is one base dot over row k of every pair: a negative
        # sign negates the left factor's coordinate, a swapped term reverses
        # the pair.
        neg, out = base.neg_value, []
        for row in self._table.terms:
            dots = []
            for x, y in pairs:
                for i, j, s, w in row:
                    a = x[i] if s > 0 else neg(x[i])
                    dots.append((y[j], a) if w else (a, y[j]))
            out.append(base.dot_values(dots))
        return tuple(out)

    def scalar_of(self, a):
        # q*1 has q on the unit's coordinates and zero elsewhere, and the
        # unit's first coordinate is 1.
        base, unit = self.base, self._unit
        if isinstance(base, Rationals):
            nums, den = a
            q = nums[0]
            if q and nums.count(0) == unit.count(0) and {*compress(nums, unit)} == {q}:
                return Fraction(q, den)
            return None if any(nums) else Fraction(0)
        q, z = a[0], base.zero_value()
        if a != tuple([q if u else z for u in unit]):
            return None
        return base.scalar_of(q)

    def sample_value(self, rng):
        if isinstance(self.base, Rationals):
            return _vec_from_ratios([_draw_ratio(rng) for _ in range(self.dim)])
        return tuple([self.base.sample_value(rng) for _ in range(self.dim)])

    def basis_values(self):
        """The unit coordinates, times each basis value of a base other than
        the rationals."""
        dim = self.dim
        if isinstance(self.base, Rationals):
            return tuple([((0,) * k + (1,) + (0,) * (dim - k - 1), 1) for k in range(dim)])
        z = self.base.zero_value()
        return tuple([
            (z,) * k + (b,) + (z,) * (dim - k - 1)
            for k in range(dim)
            for b in self.base.basis_values()
        ])


@dataclass(frozen=True)
class CayleyDickson(_Coordinates):
    """Doubling algebra over ``base``: ``2**level`` coordinates in doubling
    order, multiplied through the sign table of its level."""

    level: int
    base: RingDescriptor = RATIONALS

    def __post_init__(self):
        inner = self.base
        while isinstance(inner, JordanPlus):
            inner = inner.base
        if isinstance(inner, CayleyDickson) and inner.level >= 1:
            # Both rings would name their units i, j, k, e1, ...: two
            # different elements would print alike, and the base's units
            # could not be written at all.
            raise UnsupportedDescriptor(
                "a cayley_dickson ring over a cayley_dickson base of level "
                ">= 1 is not supported: their basis names would collide"
            )
        if not 0 <= self.level <= 4:
            raise UnsupportedDescriptor(
                f"Cayley-Dickson level must be in 0..4, got {self.level}"
            )
        # A polynomial variable named like a unit would print like it, and in
        # an expression the name reads as the unit. Poly2 names two variables,
        # Poly1 one, and other bases none (these classes come later).
        dim = 1 << self.level
        units = {f"e{n}" for n in range(dim)} | set("ijk"[: dim - 1])
        for name in getattr(inner, "variables", (getattr(inner, "variable", None),)):
            if name in units:
                raise UnsupportedDescriptor(
                    f"a cayley_dickson ring of level {self.level} cannot have a "
                    f"polynomial variable named {name!r}: it names a unit"
                )

    @cached_property
    def _unit(self) -> tuple:
        return (1,) + (0,) * ((1 << self.level) - 1)

    @cached_property
    def _table(self) -> _Table:
        return _sign_table(self.level)

    @property
    def is_associative(self) -> bool:
        return self.level <= 2 and self.base.is_associative and (
            self.level == 0 or self.base.is_commutative
        )

    @property
    def is_commutative(self) -> bool:
        if self.level == 0:
            return self.base.is_commutative
        return self.level == 1 and self.base.is_commutative

    def conj_value(self, a):
        if isinstance(self.base, Rationals):
            nums, den = a
            return (nums[0], *[-n for n in nums[1:]]), den
        return (a[0], *map(self.base.neg_value, a[1:]))

    def scale_imaginary_value(self, a, q: Fraction):
        """``a`` with every coordinate but the real one scaled by ``q``."""
        if isinstance(self.base, Rationals):
            (re, *im), den = a
            qn, qd = q.as_integer_ratio()
            return _vec([re * qd, *[n * qn for n in im]], den * qd)
        return (a[0], *[self.base.scale_value(c, q) for c in a[1:]])

    def render_terms(self, a):
        if isinstance(self.base, Rationals):
            return tuple(
                _labeled(sign, text, _basis_label(self.level, index)) if index
                else (sign, text)
                for index, sign, text in _vec_terms(a)
            )
        terms: list[tuple[int, str]] = []
        for index, comp in enumerate(a):
            if not self.base.is_zero_value(comp):
                label = _basis_label(self.level, index) if index else ""
                terms.extend(labeled_terms(self.base, comp, label))
        return tuple(terms)


@dataclass(frozen=True)
class JordanPlus(RingDescriptor):
    """Same carrier as ``base``, product ``{a, b} = (ab + ba) / 2``.

    Only meaningful over an associative base; construction rejects others.
    """

    base: RingDescriptor

    def __post_init__(self):
        if not self.base.is_associative:
            raise UnsupportedDescriptor(
                "JordanPlus requires an associative base ring"
            )

    @property
    def is_associative(self) -> bool:
        return self.base.is_commutative

    @property
    def is_commutative(self) -> bool:
        return True

    def canon(self, raw):
        return self.base.canon(raw)

    def zero_value(self):
        return self.base.zero_value()

    def one_value(self):
        return self.base.one_value()

    def add_values(self, a, b):
        return self.base.add_values(a, b)

    def neg_value(self, a):
        return self.base.neg_value(a)

    def is_zero_value(self, a):
        return self.base.is_zero_value(a)

    def dot_values(self, pairs):
        both = [*pairs, *((b, a) for a, b in pairs)]
        return self.base.scale_value(self.base.dot_values(both), Fraction(1, 2))

    def scale_value(self, a, q):
        return self.base.scale_value(a, q)

    def scalar_of(self, a):
        return self.base.scalar_of(a)

    def sample_value(self, rng):
        return self.base.sample_value(rng)

    def basis_values(self):
        return self.base.basis_values()

    def render_terms(self, a):
        return self.base.render_terms(a)


COMPLEX_Q = CayleyDickson(1)
QUATERNIONS_Q = CayleyDickson(2)
OCTONIONS_Q = CayleyDickson(3)
SEDENIONS_Q = CayleyDickson(4)


def _variable(name) -> str:
    """``name``, unless it is no name of the expression grammar or would print
    like an indeterminate X, X1, ... or the tail marker O: then refuse it."""
    pattern = r"(?!X[0-9]*$|O$)[A-Za-z][A-Za-z0-9]*"
    if not (isinstance(name, str) and re.fullmatch(pattern, name)):
        raise UnsupportedDescriptor(f"{name!r} cannot name a polynomial variable")
    return name


def _var_power(name: str, e: int) -> str:
    if e == 0:
        return ""
    return name if e == 1 else f"{name}^{e}"


class _PolyRing(RingDescriptor):
    """Commutative polynomials over the rationals. A value is the triple
    ``(exponents, numerators, den)``: the ascending exponents of the nonzero
    terms next to the rational vector ``(numerators, den)`` of their
    coefficients, in the layout of the ``_vec`` helpers, so no numerator is
    zero. A subclass fixes the exponent through four hooks: ``_exponent``
    (validate), ``_add_exponents``, ``_sample_exponent`` and
    ``_exponent_text``; ``_constant`` is the exponent of the constants."""

    @property
    def is_associative(self) -> bool:
        return True

    @property
    def is_commutative(self) -> bool:
        return True

    def canon(self, raw):
        """The value with the terms ``raw``: ``(exponent, coefficient)`` pairs
        or an ``{exponent: coefficient}`` dict, coefficients as for
        :func:`as_rational`. A value, which ends in its denominator where no
        list of pairs ends in an int, is returned canonical."""
        if type(raw) is tuple and len(raw) == 3 and type(raw[2]) is int:
            exps, nums, den = raw
            if den <= 0 or len(exps) != len(nums) or {type(n) for n in nums} - {int}:
                raise ValueError(f"malformed value of {self}: {raw!r}")
            return _poly_from_ratios(
                [(self._exponent(e), n, den) for e, n in zip(exps, nums)]
            )
        items = raw.items() if isinstance(raw, dict) else raw
        return _poly_from_ratios(
            [(self._exponent(e), *_integer_ratio(c)) for e, c in items]
        )

    def zero_value(self):
        return (), (), 1

    def one_value(self):
        return (self._constant,), (1,), 1

    def flat_terms(self, a) -> tuple:
        """The ``(exponent, Fraction)`` terms of ``a``, ascending."""
        exps, nums, den = a
        return tuple(zip(exps, _vec_to_rationals((nums, den))))

    def support(self, a) -> tuple:
        """The exponents of the nonzero terms of ``a``, ascending."""
        return a[0]

    def map_terms(self, a, rule):
        """The value ``sum(w * c * m')`` over the terms ``c*m`` of ``a``, where
        ``rule(m)`` is ``(m', wn, wd)`` for the nonzero rational weight ``w =
        wn / wd``, ``wd > 0``, or ``None`` to drop the term: how the maps on a
        polynomial ring read and rebuild a value."""
        exps, nums, den = a
        images = list(map(rule, exps))
        if None in images:  # dropped terms
            nums = [n for r, n in zip(images, nums) if r is not None]
            images = [r for r in images if r is not None]
        if not images:
            return (), (), 1
        new, wns, wds = zip(*images)
        wden = lcm(*wds)
        nums = [n * wn * (wden // wd) for n, wn, wd in zip(nums, wns, wds)]
        if all(map(operator.lt, new, new[1:])):  # no two images meet
            return (new, *_vec(nums, den * wden))
        acc: dict = {}
        for e, n in zip(new, nums):
            acc[e] = acc.get(e, 0) + n
        return _poly(acc, den * wden)

    def add_values(self, a, b):
        ae, an, ad = a
        be, bn, bd = b
        if not be:
            return a
        if not ae:
            return b
        den = ad if ad == bd else lcm(ad, bd)
        sa, sb = den // ad, den // bd
        acc = dict(zip(ae, an if sa == 1 else [n * sa for n in an]))
        for e, n in zip(be, bn):
            n *= sb
            acc[e] = acc[e] + n if e in acc else n
        return _poly(acc, den)

    def neg_value(self, a):
        exps, nums, den = a
        return exps, tuple([-n for n in nums]), den

    def is_zero_value(self, a):
        return not a[0]

    def dot_values(self, pairs):
        add = self._add_exponents
        dens = [a[2] * b[2] for a, b in pairs]
        den = lcm(*dens)
        acc: dict = defaultdict(int)
        for (a, b), d in zip(pairs, dens):
            s = den // d
            right = list(zip(b[0], b[1]))
            for e1, n1 in zip(a[0], a[1]):
                n1 *= s
                for e2, n2 in right:
                    acc[add(e1, e2)] += n1 * n2
        return _poly(acc, den)

    def scale_value(self, a, q):
        if not q:
            return (), (), 1
        exps, nums, den = a
        qn, qd = q.as_integer_ratio()
        return (exps, *_vec([n * qn for n in nums], den * qd))

    def scalar_of(self, a):
        exps, nums, den = a
        if not exps:
            return Fraction(0)
        return Fraction(nums[0], den) if exps == (self._constant,) else None

    def sample_value(self, rng):
        # Coefficient drawn before exponent; a repeated exponent keeps the last.
        last = {e: r for r, e in random_terms(rng, _draw_ratio, self._sample_exponent)}
        return _poly_from_ratios([(e, *r) for e, r in last.items()])

    def render_terms(self, a):
        exps, text = a[0], self._exponent_text
        return tuple(
            _labeled(sign, t, label) if (label := text(exps[i])) else (sign, t)
            for i, sign, t in _vec_terms(a[1:])
        )

    def basis_values(self) -> tuple:
        return tuple([((e,), (1,), 1) for e in self._basis_exponents])


@dataclass(frozen=True)
class Poly1(_PolyRing):
    """Commutative polynomials in one variable over the rationals."""

    variable: str = "Y"

    _constant = 0
    _add_exponents = staticmethod(operator.add)
    _basis_exponents = tuple(range(5))  # those the sampler draws

    def __post_init__(self):
        _variable(self.variable)

    @staticmethod
    def _exponent(e):
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"exponent must be a natural number, got {e!r}")
        return e

    @staticmethod
    def _sample_exponent(rng):
        return draw(rng, 0, 4)

    def _exponent_text(self, e):
        return _var_power(self.variable, e)


@dataclass(frozen=True)
class Poly2(_PolyRing):
    """Commutative polynomials in two variables over the rationals."""

    variables: tuple[str, str] = ("Y", "Z")

    _constant = (0, 0)
    _basis_exponents = tuple((a, b) for a in range(4) for b in range(4))

    def __post_init__(self):
        names = self.variables
        if type(names) not in (list, tuple) or len(names) != 2 or names[0] == names[1]:
            raise UnsupportedDescriptor("Poly2 needs two distinct variable names")
        object.__setattr__(self, "variables", tuple(map(_variable, names)))

    @staticmethod
    def _exponent(exps):
        a, b = exps
        if not (isinstance(a, int) and isinstance(b, int)) or a < 0 or b < 0:
            raise ValueError(f"exponents must be natural numbers, got {exps!r}")
        return (a, b)

    @staticmethod
    def _add_exponents(x, y):
        return (x[0] + y[0], x[1] + y[1])

    @staticmethod
    def _sample_exponent(rng):
        return (draw(rng, 0, 3), draw(rng, 0, 3))

    def _exponent_text(self, exps):
        pieces = (_var_power(v, e) for v, e in zip(self.variables, exps))
        return "*".join(p for p in pieces if p)


@lru_cache(maxsize=None)
def _matrix_table(n: int) -> _Table:
    """The ``n x n`` matrix product on the row-major entries: entry ``(r, c)``
    sums ``x[r*n+k] * y[k*n+c]``."""
    return _product_table(
        tuple(
            tuple((r * n + k, k * n + c, 1, False) for k in range(n))
            for r in range(n)
            for c in range(n)
        )
    )


@dataclass(frozen=True)
class Matrix(_Coordinates):
    """Square matrices over ``base``: the ``n*n`` entries in row-major
    order."""

    n: int
    base: RingDescriptor = RATIONALS

    def __post_init__(self):
        if self.n < 1:
            raise UnsupportedDescriptor("matrix size must be >= 1")

    @cached_property
    def _unit(self) -> tuple:
        return tuple([int(r == c) for r in range(self.n) for c in range(self.n)])

    @cached_property
    def _table(self) -> _Table:
        return _matrix_table(self.n)

    @property
    def is_associative(self) -> bool:
        return self.base.is_associative

    @property
    def is_commutative(self) -> bool:
        return self.n == 1 and self.base.is_commutative

    def rows(self, a) -> tuple:
        """The rows of ``a`` as tuples of base values (``Fraction``s over
        the rationals)."""
        flat, n = self.flat_values(a), self.n
        return tuple(flat[r : r + n] for r in range(0, len(flat), n))

    def transpose_value(self, a):
        # Row r of the transpose is column r, in either layout.
        n, over_q = self.n, isinstance(self.base, Rationals)
        flat = a[0] if over_q else a
        out = tuple([x for r in range(n) for x in flat[r::n]])
        return (out, a[1]) if over_q else out

    def render_terms(self, a):
        if isinstance(self.base, Rationals):
            texts = ["0"] * self.dim
            for index, sign, text in _vec_terms(a):
                texts[index] = "-" + text if sign < 0 else text
        else:
            texts = [self.base.render_value(x) for x in a]
        n = self.n
        rows = [", ".join(texts[r : r + n]) for r in range(0, len(texts), n)]
        return ((1, "[" + ", ".join(f"[{row}]" for row in rows) + "]"),)


@dataclass(frozen=True)
class RingElement:
    """A canonical value tagged with its descriptor.

    Construct with :func:`element` (or the descriptor-specific helpers), which
    canonicalize; the raw constructor trusts its input.
    """

    descriptor: RingDescriptor
    value: Any

    def _require_same(self, other: "RingElement"):
        if not isinstance(other, RingElement):
            raise TypeError(f"expected RingElement, got {type(other).__name__}")
        if self.descriptor != other.descriptor:
            raise DescriptorMismatch(
                f"{self.descriptor} vs {other.descriptor}"
            )

    def __add__(self, other):
        self._require_same(other)
        return RingElement(
            self.descriptor, self.descriptor.add_values(self.value, other.value)
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RingElement(self.descriptor, self.descriptor.neg_value(self.value))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(as_rational(other))
        self._require_same(other)
        return RingElement(
            self.descriptor, self.descriptor.mul_values(self.value, other.value)
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(as_rational(other))
        return NotImplemented

    def scale(self, q: Fraction) -> "RingElement":
        return RingElement(
            self.descriptor, self.descriptor.scale_value(self.value, as_rational(q))
        )

    def is_zero(self) -> bool:
        return self.descriptor.is_zero_value(self.value)

    def __bool__(self):
        return not self.is_zero()

    def conjugate(self) -> "RingElement":
        if not isinstance(self.descriptor, CayleyDickson):
            raise UnsupportedDescriptor(
                "conjugation is defined on Cayley-Dickson rings only"
            )
        return RingElement(self.descriptor, self.descriptor.conj_value(self.value))

    def inverse(self) -> "RingElement":
        """Two-sided inverse; rationals and Cayley-Dickson levels <= 3 only."""
        d = self.descriptor
        if isinstance(d, Rationals):
            if self.value == 0:
                raise NotInvertible("zero has no inverse")
            return RingElement(d, 1 / self.value)
        if isinstance(d, CayleyDickson) and d.base == RATIONALS and d.level <= 3:
            if self.is_zero():
                raise NotInvertible("zero has no inverse")
            conj = self.conjugate()
            norm = d.scalar_of(d.mul_values(self.value, conj.value))
            if norm is None or norm <= 0:
                raise NotInvertible("norm is not a positive rational")
            inv = conj.scale(Fraction(1) / norm)
            if (self * inv) != one(d) or (inv * self) != one(d):
                raise NotInvertible("inverse verification failed")
            return inv
        raise UnsupportedDescriptor(f"no inverses available in {d}")

    def __str__(self):
        return self.descriptor.render_value(self.value)

    def __repr__(self):
        return f"<{type(self.descriptor).__name__}: {self}>"


def element(descriptor: RingDescriptor, raw: Any) -> RingElement:
    return RingElement(descriptor, descriptor.canon(raw))


def zero(descriptor: RingDescriptor) -> RingElement:
    return RingElement(descriptor, descriptor.zero_value())


def one(descriptor: RingDescriptor) -> RingElement:
    return RingElement(descriptor, descriptor.one_value())


def scalar(descriptor: RingDescriptor, q) -> RingElement:
    """The rational ``q`` embedded as ``q * 1``."""
    return one(descriptor).scale(as_rational(q))


def basis_element(descriptor: CayleyDickson, index: int) -> RingElement:
    """Basis unit ``e_index`` in doubling order (``e0`` is the identity)."""
    if not isinstance(descriptor, CayleyDickson):
        raise UnsupportedDescriptor("basis elements live in Cayley-Dickson rings")
    dim = 1 << descriptor.level
    if not 0 <= index < dim:
        raise ValueError(f"basis index must be in 0..{dim - 1}")
    comps = [descriptor.base.zero_value()] * dim
    comps[index] = descriptor.base.one_value()
    return element(descriptor, comps)


def monomial_element(descriptor: RingDescriptor, exps, coeff=1) -> RingElement:
    """A single monomial of a Poly1 (int exponent) or Poly2 (pair) ring."""
    if isinstance(descriptor, _PolyRing):
        return element(descriptor, [(exps, coeff)])
    raise UnsupportedDescriptor("monomials live in polynomial rings")


def associator(a: RingElement, b: RingElement, c: RingElement) -> RingElement:
    """``(a*b)*c - a*(b*c)``, the failure of associativity at this triple."""
    return (a * b) * c - a * (b * c)


def _exponent_vector(e) -> tuple[int, ...]:
    return (e,) if isinstance(e, int) else e


def monomial_ideal_member(p: RingElement, generators: list[RingElement]) -> bool:
    """Membership of ``p`` in the monomial ideal spanned by ``generators``.

    True iff every monomial of ``p`` is divisible by some generator; the zero
    polynomial belongs to every ideal.
    """
    ring = p.descriptor
    if not isinstance(ring, _PolyRing):
        raise UnsupportedDescriptor("monomial ideals live in polynomial rings")
    gen_exps = []
    for g in generators:
        p._require_same(g)
        support = ring.support(g.value)
        if len(support) != 1:
            raise ValueError(f"generator must be a monomial, got {g}")
        gen_exps.append(_exponent_vector(support[0]))
    return all(
        any(all(x >= y for x, y in zip(_exponent_vector(e), ge)) for ge in gen_exps)
        for e in ring.support(p.value)
    )


def random_element(descriptor: RingDescriptor, rng: Random) -> RingElement:
    return RingElement(descriptor, descriptor.sample_value(rng))


def random_terms(rng: Random, first, second, most: int = 3, least: int = 0):
    """A count drawn from ``least..most``, then that many pairs, each drawn
    ``first(rng)`` before ``second(rng)``: the library's one term loop."""
    return [(first(rng), second(rng)) for _ in range(draw(rng, least, most))]


def is_associative_division_ring(descriptor: RingDescriptor) -> bool:
    """True for the rationals and the complex/quaternion levels over them."""
    if isinstance(descriptor, Rationals):
        return True
    return (
        isinstance(descriptor, CayleyDickson)
        and descriptor.base == RATIONALS
        and descriptor.level <= 2
    )
