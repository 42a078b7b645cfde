"""Exact coefficient rings: the tower built over the rationals.

Every ring in the tower is described by a :class:`RingDescriptor` tree and its
elements are plain immutable Python data, canonicalized at construction so
that structural equality coincides with mathematical equality:

* ``Rationals``      -- ``fractions.Fraction`` (always reduced, denominator > 0)
* ``CayleyDickson``  -- nested ``(lo, hi)`` pairs, one pair per doubling level;
  level 0 is the base, level 1 the complexes, 2 the quaternions, 3 the
  octonions, 4 the sedenions
* ``JordanPlus``     -- the wrapped base value itself (the product changes,
  the carrier does not)
* ``Poly1``          -- sorted tuple of ``(exponent, Fraction)``, no zero terms
* ``Poly2``          -- sorted tuple of ``((e1, e2), Fraction)``, no zero terms
* ``Matrix``         -- tuple of row tuples of base values

The Cayley-Dickson product uses the doubling rule
``(a, b) * (c, d) = (a*c - conj(d)*b, d*a + b*conj(c))`` with conjugation
``conj((a, b)) = (conj(a), -b)`` and identity conjugation at level 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Any, Iterable


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
        raise NotImplementedError

    def scale_value(self, a: Any, q: Fraction) -> Any:
        raise NotImplementedError

    def is_zero_value(self, a: Any) -> bool:
        return a == self.zero_value()

    def sample_value(self, rng: Random) -> Any:
        raise NotImplementedError

    def render_terms(self, a: Any) -> tuple[tuple[int, str], ...]:
        """Canonical additive decomposition as (sign, magnitude-text) pairs."""
        raise NotImplementedError

    def render_value(self, a: Any) -> str:
        return _join_terms(self.render_terms(a))


def _sample_fraction(rng: Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


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
        return Fraction(0)

    def one_value(self):
        return Fraction(1)

    def add_values(self, a, b):
        return a + b

    def neg_value(self, a):
        return -a

    def mul_values(self, a, b):
        return a * b

    def scale_value(self, a, q):
        return a * q

    def sample_value(self, rng):
        return _sample_fraction(rng)

    def render_terms(self, a):
        if a == 0:
            return ()
        return ((1 if a > 0 else -1, str(abs(a))),)


RATIONALS = Rationals()


def _basis_label(level: int, index: int) -> str:
    if level <= 2:
        return ("i", "j", "k")[index - 1]
    return f"e{index}"


@dataclass(frozen=True)
class CayleyDickson(RingDescriptor):
    """Doubling algebra over ``base``; values are nested coordinate pairs."""

    level: int
    base: RingDescriptor = RATIONALS

    def __post_init__(self):
        if not 0 <= self.level <= 4:
            raise UnsupportedDescriptor(
                f"Cayley-Dickson level must be in 0..4, got {self.level}"
            )

    def sub(self) -> RingDescriptor:
        return CayleyDickson(self.level - 1, self.base) if self.level > 0 else self.base

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

    def canon(self, raw):
        if self.level == 0:
            return self.base.canon(raw)
        if not isinstance(raw, (tuple, list)) or len(raw) != 2:
            raise ValueError(f"level-{self.level} value must be a pair")
        s = self.sub()
        return (s.canon(raw[0]), s.canon(raw[1]))

    def zero_value(self):
        if self.level == 0:
            return self.base.zero_value()
        z = self.sub().zero_value()
        return (z, z)

    def one_value(self):
        if self.level == 0:
            return self.base.one_value()
        s = self.sub()
        return (s.one_value(), s.zero_value())

    def add_values(self, a, b):
        if self.level == 0:
            return self.base.add_values(a, b)
        s = self.sub()
        return (s.add_values(a[0], b[0]), s.add_values(a[1], b[1]))

    def neg_value(self, a):
        if self.level == 0:
            return self.base.neg_value(a)
        s = self.sub()
        return (s.neg_value(a[0]), s.neg_value(a[1]))

    def conj_value(self, a):
        if self.level == 0:
            return a
        s = self.sub()
        lo = s.conj_value(a[0]) if isinstance(s, CayleyDickson) else a[0]
        return (lo, s.neg_value(a[1]))

    def mul_values(self, x, y):
        if self.level == 0:
            return self.base.mul_values(x, y)
        s = self.sub()
        conj = s.conj_value if isinstance(s, CayleyDickson) else (lambda v: v)
        a, b = x
        c, d = y
        lo = s.add_values(s.mul_values(a, c), s.neg_value(s.mul_values(conj(d), b)))
        hi = s.add_values(s.mul_values(d, a), s.mul_values(b, conj(c)))
        return (lo, hi)

    def scale_value(self, a, q):
        if self.level == 0:
            return self.base.scale_value(a, q)
        s = self.sub()
        return (s.scale_value(a[0], q), s.scale_value(a[1], q))

    def sample_value(self, rng):
        if self.level == 0:
            return self.base.sample_value(rng)
        s = self.sub()
        return (s.sample_value(rng), s.sample_value(rng))

    def flat_values(self, a) -> tuple:
        """Flatten nested pairs to the 2**level coordinate tuple."""
        if self.level == 0:
            return (a,)
        s = self.sub()
        if isinstance(s, CayleyDickson):
            return s.flat_values(a[0]) + s.flat_values(a[1])
        return (a[0], a[1])

    def from_flat(self, comps: Iterable) -> Any:
        comps = tuple(comps)
        if len(comps) != 1 << self.level:
            raise ValueError(f"expected {1 << self.level} components")
        if self.level == 0:
            return self.base.canon(comps[0])
        s = self.sub()
        half = len(comps) // 2
        if isinstance(s, CayleyDickson):
            return (s.from_flat(comps[:half]), s.from_flat(comps[half:]))
        return (s.canon(comps[0]), s.canon(comps[1]))

    def render_terms(self, a):
        terms: list[tuple[int, str]] = []
        for index, comp in enumerate(self.flat_values(a)):
            if self.base.is_zero_value(comp):
                continue
            cterms = self.base.render_terms(comp)
            if index == 0:
                terms.extend(cterms)
                continue
            label = _basis_label(self.level, index)
            if len(cterms) == 1:
                sign, text = cterms[0]
                terms.append((sign, label if text == "1" else f"{text}*{label}"))
            else:
                terms.append((1, f"({self.base.render_value(comp)})*{label}"))
        return tuple(terms)


COMPLEX_Q = CayleyDickson(1)
QUATERNIONS_Q = CayleyDickson(2)
OCTONIONS_Q = CayleyDickson(3)
SEDENIONS_Q = CayleyDickson(4)


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

    def mul_values(self, a, b):
        sym = self.base.add_values(
            self.base.mul_values(a, b), self.base.mul_values(b, a)
        )
        return self.base.scale_value(sym, Fraction(1, 2))

    def scale_value(self, a, q):
        return self.base.scale_value(a, q)

    def sample_value(self, rng):
        return self.base.sample_value(rng)

    def render_terms(self, a):
        return self.base.render_terms(a)


def _render_monomial(coeff: Fraction, var_text: str) -> tuple[int, str]:
    sign = 1 if coeff > 0 else -1
    mag = abs(coeff)
    if not var_text:
        return (sign, str(mag))
    if mag == 1:
        return (sign, var_text)
    return (sign, f"{mag}*{var_text}")


def _var_power(name: str, e: int) -> str:
    if e == 0:
        return ""
    return name if e == 1 else f"{name}^{e}"


@dataclass(frozen=True)
class Poly1(RingDescriptor):
    """Commutative polynomials in one variable over the rationals."""

    variable: str = "Y"

    @property
    def is_associative(self) -> bool:
        return True

    @property
    def is_commutative(self) -> bool:
        return True

    def canon(self, raw):
        if isinstance(raw, dict):
            items = raw.items()
        else:
            items = raw
        acc: dict[int, Fraction] = {}
        for e, c in items:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponent must be a natural number, got {e!r}")
            c = as_rational(c)
            acc[e] = acc.get(e, Fraction(0)) + c
        return tuple(sorted((e, c) for e, c in acc.items() if c != 0))

    def zero_value(self):
        return ()

    def one_value(self):
        return ((0, Fraction(1)),)

    def add_values(self, a, b):
        acc = dict(a)
        for e, c in b:
            acc[e] = acc.get(e, Fraction(0)) + c
        return tuple(sorted((e, c) for e, c in acc.items() if c != 0))

    def neg_value(self, a):
        return tuple((e, -c) for e, c in a)

    def mul_values(self, a, b):
        acc: dict[int, Fraction] = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = e1 + e2
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return tuple(sorted((e, c) for e, c in acc.items() if c != 0))

    def scale_value(self, a, q):
        if q == 0:
            return ()
        return tuple((e, c * q) for e, c in a)

    def sample_value(self, rng):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            terms[rng.randint(0, 4)] = _sample_fraction(rng)
        return self.canon(terms)

    def render_terms(self, a):
        return tuple(
            _render_monomial(c, _var_power(self.variable, e)) for e, c in a
        )


@dataclass(frozen=True)
class Poly2(RingDescriptor):
    """Commutative polynomials in two variables over the rationals."""

    variables: tuple[str, str] = ("Y", "Z")

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) != 2 or self.variables[0] == self.variables[1]:
            raise UnsupportedDescriptor("Poly2 needs two distinct variable names")

    @property
    def is_associative(self) -> bool:
        return True

    @property
    def is_commutative(self) -> bool:
        return True

    def canon(self, raw):
        if isinstance(raw, dict):
            items = raw.items()
        else:
            items = raw
        acc: dict[tuple[int, int], Fraction] = {}
        for exps, c in items:
            a, b = exps
            if not (isinstance(a, int) and isinstance(b, int)) or a < 0 or b < 0:
                raise ValueError(f"exponents must be natural numbers, got {exps!r}")
            c = as_rational(c)
            acc[(a, b)] = acc.get((a, b), Fraction(0)) + c
        return tuple(sorted((e, c) for e, c in acc.items() if c != 0))

    def zero_value(self):
        return ()

    def one_value(self):
        return (((0, 0), Fraction(1)),)

    def add_values(self, a, b):
        acc = dict(a)
        for e, c in b:
            acc[e] = acc.get(e, Fraction(0)) + c
        return tuple(sorted((e, c) for e, c in acc.items() if c != 0))

    def neg_value(self, a):
        return tuple((e, -c) for e, c in a)

    def mul_values(self, a, b):
        acc: dict[tuple[int, int], Fraction] = {}
        for (a1, b1), c1 in a:
            for (a2, b2), c2 in b:
                e = (a1 + a2, b1 + b2)
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return tuple(sorted((e, c) for e, c in acc.items() if c != 0))

    def scale_value(self, a, q):
        if q == 0:
            return ()
        return tuple((e, c * q) for e, c in a)

    def sample_value(self, rng):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            terms[(rng.randint(0, 3), rng.randint(0, 3))] = _sample_fraction(rng)
        return self.canon(terms)

    def render_terms(self, a):
        out = []
        for (e1, e2), c in a:
            pieces = [p for p in (_var_power(self.variables[0], e1),
                                  _var_power(self.variables[1], e2)) if p]
            out.append(_render_monomial(c, "*".join(pieces)))
        return tuple(out)


@dataclass(frozen=True)
class Matrix(RingDescriptor):
    """Square matrices over ``base``."""

    n: int
    base: RingDescriptor = RATIONALS

    def __post_init__(self):
        if self.n < 1:
            raise UnsupportedDescriptor("matrix size must be >= 1")

    @property
    def is_associative(self) -> bool:
        return self.base.is_associative

    @property
    def is_commutative(self) -> bool:
        return self.n == 1 and self.base.is_commutative

    def canon(self, raw):
        rows = tuple(raw)
        if len(rows) != self.n:
            raise ValueError(f"expected {self.n} rows")
        out = []
        for row in rows:
            row = tuple(row)
            if len(row) != self.n:
                raise ValueError(f"expected {self.n} columns")
            out.append(tuple(self.base.canon(x) for x in row))
        return tuple(out)

    def zero_value(self):
        z = self.base.zero_value()
        return tuple(tuple(z for _ in range(self.n)) for _ in range(self.n))

    def one_value(self):
        z, o = self.base.zero_value(), self.base.one_value()
        return tuple(
            tuple(o if r == c else z for c in range(self.n)) for r in range(self.n)
        )

    def add_values(self, a, b):
        return tuple(
            tuple(self.base.add_values(x, y) for x, y in zip(ra, rb))
            for ra, rb in zip(a, b)
        )

    def neg_value(self, a):
        return tuple(tuple(self.base.neg_value(x) for x in row) for row in a)

    def mul_values(self, a, b):
        out = []
        for r in range(self.n):
            row = []
            for c in range(self.n):
                acc = self.base.zero_value()
                for k in range(self.n):
                    acc = self.base.add_values(
                        acc, self.base.mul_values(a[r][k], b[k][c])
                    )
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def scale_value(self, a, q):
        return tuple(tuple(self.base.scale_value(x, q) for x in row) for row in a)

    def transpose_value(self, a):
        return tuple(tuple(a[c][r] for c in range(self.n)) for r in range(self.n))

    def sample_value(self, rng):
        return tuple(
            tuple(self.base.sample_value(rng) for _ in range(self.n))
            for _ in range(self.n)
        )

    def render_terms(self, a):
        rows = ", ".join(
            "[" + ", ".join(self.base.render_value(x) for x in row) + "]"
            for row in a
        )
        return ((1, f"[{rows}]"),)


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
            norm_flat = d.flat_values(d.mul_values(self.value, conj.value))
            norm = norm_flat[0]
            if any(c != 0 for c in norm_flat[1:]) or norm <= 0:
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
    comps = [Fraction(0)] * dim
    comps[index] = Fraction(1)
    return RingElement(descriptor, descriptor.from_flat(comps))


def monomial_element(descriptor: RingDescriptor, exps, coeff=1) -> RingElement:
    """A single monomial of a Poly1 (int exponent) or Poly2 (pair) ring."""
    if isinstance(descriptor, Poly1):
        return element(descriptor, [(exps, coeff)])
    if isinstance(descriptor, Poly2):
        return element(descriptor, [(tuple(exps), coeff)])
    raise UnsupportedDescriptor("monomials live in polynomial rings")


def associator(a: RingElement, b: RingElement, c: RingElement) -> RingElement:
    """``(a*b)*c - a*(b*c)``, the failure of associativity at this triple."""
    return (a * b) * c - a * (b * c)


def _monomial_exponents(g: RingElement) -> tuple[int, ...]:
    if len(g.value) != 1:
        raise ValueError(f"generator must be a monomial, got {g}")
    e = g.value[0][0]
    return (e,) if isinstance(e, int) else tuple(e)


def monomial_ideal_member(p: RingElement, generators: list[RingElement]) -> bool:
    """Membership of ``p`` in the monomial ideal spanned by ``generators``.

    True iff every monomial of ``p`` is divisible by some generator; the zero
    polynomial belongs to every ideal.
    """
    if not isinstance(p.descriptor, (Poly1, Poly2)):
        raise UnsupportedDescriptor("monomial ideals live in polynomial rings")
    gen_exps = []
    for g in generators:
        p._require_same(g)
        gen_exps.append(_monomial_exponents(g))
    for e, _c in p.value:
        exps = (e,) if isinstance(e, int) else tuple(e)
        if not any(
            all(x >= y for x, y in zip(exps, ge)) for ge in gen_exps
        ):
            return False
    return True


def random_element(descriptor: RingDescriptor, rng: Random) -> RingElement:
    return RingElement(descriptor, descriptor.sample_value(rng))


def is_associative_division_ring(descriptor: RingDescriptor) -> bool:
    """True for the rationals and the complex/quaternion levels over them."""
    if isinstance(descriptor, Rationals):
        return True
    return (
        isinstance(descriptor, CayleyDickson)
        and descriptor.base == RATIONALS
        and descriptor.level <= 2
    )
