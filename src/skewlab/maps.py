"""Additive self-maps of coefficient rings: twist candidates and verifiers.

A :class:`TwistMap` bundles a domain descriptor, the structural properties it
claims (additivity, unit behavior, multiplicativity, injectivity,
surjectivity), and, when available, an exact inverse. Maps on polynomial
domains are stored as monomial-level rules and extended additively, which is
what makes the inverses exact.

The value hooks ``value`` and ``inverse_value``, which the products' twist
tables call, take and return raw values of the domain: no domain check, no
wrapper, and exactly what ``domain.canon`` would return. They are the one way
to define a map: ``apply`` and ``apply_inverse`` check the domain and wrap
what the hooks return.

The ``verify_*`` functions are sampling-based falsifiers: each runs its
sampler through :func:`~skewlab.reports.falsify` and either produces a
concrete counterexample or reports that no violation was found in N trials.
A verifier that needs the bundled inverse reports a map without one as a
zero-trial run. They never prove anything.
"""

from __future__ import annotations

import math

from .reports import CheckReport, falsify
from .rings import (
    COMPLEX_Q,
    CayleyDickson,
    DescriptorMismatch,
    Matrix,
    Poly1,
    Poly2,
    RingDescriptor,
    RingElement,
    as_rational,
    one,
    random_element,
    zero,
)

ADDITIVE = "additive"
RESPECTS_ONE = "respects_one"
ANNIHILATES_ONE = "annihilates_one"
MULTIPLICATIVE = "multiplicative"
INJECTIVE = "injective"
SURJECTIVE = "surjective"


class NoInverse(ValueError):
    """The map does not carry an exact inverse."""


class TwistMap:
    """Base class; instances are immutable and safe to share.

    Two maps are equal when they are of the same class and their instance
    attributes are equal (:meth:`_key`), so a subclass compares by whatever
    parameters it stores, with nothing to override. Every instance attribute
    must therefore be hashable. Contexts rely on this equality: they skip an
    entry check already passed by an equal map on an equal ring.
    """

    kind = "abstract"

    def __init__(self, domain: RingDescriptor, claims, has_inverse: bool):
        self.domain = domain
        self.claims = frozenset(claims)
        self.has_inverse = has_inverse

    def _check_domain(self, a: RingElement):
        if a.descriptor != self.domain:
            raise DescriptorMismatch(
                f"{self.kind} is defined on {self.domain}, got {a.descriptor}"
            )

    def apply(self, a: RingElement) -> RingElement:
        self._check_domain(a)
        return RingElement(self.domain, self.value(a.value))

    def apply_inverse(self, a: RingElement) -> RingElement:
        if not self.has_inverse:
            raise NoInverse(f"{self.kind} carries no inverse")
        self._check_domain(a)
        return RingElement(self.domain, self.inverse_value(a.value))

    def value(self, v):
        raise NotImplementedError(f"{self.kind} defines no value")

    def inverse_value(self, v):
        raise NoInverse(f"{self.kind} carries no inverse")

    def _key(self):
        return tuple(sorted(vars(self).items()))

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"<TwistMap {self.kind} on {type(self.domain).__name__}>"


_BIJECTION_CLAIMS = frozenset(
    {ADDITIVE, RESPECTS_ONE, INJECTIVE, SURJECTIVE}
)


class IdentityMap(TwistMap):
    kind = "identity"

    def __init__(self, domain: RingDescriptor):
        super().__init__(domain, _BIJECTION_CLAIMS | {MULTIPLICATIVE}, True)

    def value(self, v):
        return v

    inverse_value = value


class ZeroMap(TwistMap):
    """Sends everything to zero; the default delta of an Ore context."""

    kind = "zero"

    def __init__(self, domain: RingDescriptor):
        super().__init__(domain, {ADDITIVE, ANNIHILATES_ONE}, False)

    def value(self, v):
        return self.domain.zero_value()


class SigmaQComplex(TwistMap):
    """On the complexes: fix the real part, scale the imaginary part by q.

    An additive bijection respecting 1; multiplicative exactly when q = +-1.
    """

    kind = "sigma_q_complex"

    def __init__(self, q):
        q = as_rational(q)
        if q == 0:
            raise ValueError("q must be a nonzero rational")
        self.q = q
        self.q_inverse = 1 / q
        claims = set(_BIJECTION_CLAIMS)
        if q in (1, -1):
            claims.add(MULTIPLICATIVE)
        super().__init__(COMPLEX_Q, claims, True)

    def value(self, v):
        return self.domain.scale_imaginary_value(v, self.q)

    def inverse_value(self, v):
        return self.domain.scale_imaginary_value(v, self.q_inverse)


class ConjugationMap(TwistMap):
    """Cayley-Dickson conjugation; an involution, multiplicative up to level 1."""

    kind = "conjugation"

    def __init__(self, domain: CayleyDickson):
        if not isinstance(domain, CayleyDickson):
            raise DescriptorMismatch("conjugation lives on Cayley-Dickson rings")
        claims = set(_BIJECTION_CLAIMS)
        if domain.level <= 1:
            claims.add(MULTIPLICATIVE)
        super().__init__(domain, claims, True)

    def value(self, v):
        return self.domain.conj_value(v)

    inverse_value = value


class QuantumTorusSigma(TwistMap):
    """Algebra automorphism of a one-variable polynomial ring scaling the
    variable by a unit q, so the degree-n coefficient picks up q**n."""

    kind = "quantum_torus_sigma"

    def __init__(self, q, domain: Poly1 = Poly1()):
        q = as_rational(q)
        if q == 0:
            raise ValueError("q must be a unit (nonzero rational)")
        if not isinstance(domain, Poly1):
            raise DescriptorMismatch("quantum torus sigma lives on Poly1")
        self.q = q
        self.q_inverse = 1 / q
        super().__init__(domain, _BIJECTION_CLAIMS | {MULTIPLICATIVE}, True)

    def value(self, v):
        return self._scale_powers(v, self.q)

    def inverse_value(self, v):
        return self._scale_powers(v, self.q_inverse)

    def _scale_powers(self, v, q):
        """``v`` with its ``Y^e`` coefficient scaled by ``q**e``."""
        n, d = q.as_integer_ratio()
        return self.domain.map_terms(v, lambda e: (e, n**e, d**e))


class FormalDerivative(TwistMap):
    kind = "formal_derivative"

    def __init__(self, domain: Poly1 = Poly1()):
        if not isinstance(domain, Poly1):
            raise DescriptorMismatch("the formal derivative lives on Poly1")
        super().__init__(domain, {ADDITIVE, ANNIHILATES_ONE}, False)

    def value(self, v):
        return self.domain.map_terms(v, lambda e: (e - 1, e, 1) if e else None)


class CoefficientDoubler(TwistMap):
    """Doubles the degree-1 coefficient of a one-variable polynomial and
    leaves every other coefficient alone; a non-multiplicative bijection."""

    kind = "coefficient_doubler"

    def __init__(self, domain: Poly1 = Poly1()):
        if not isinstance(domain, Poly1):
            raise DescriptorMismatch("the coefficient doubler lives on Poly1")
        super().__init__(domain, _BIJECTION_CLAIMS, True)

    def value(self, v):
        return self.domain.map_terms(v, lambda e: (e, 2, 1) if e == 1 else (e, 1, 1))

    def inverse_value(self, v):
        return self.domain.map_terms(v, lambda e: (e, 1, 2) if e == 1 else (e, 1, 1))


def _cantor_pair(a: int, b: int) -> int:
    return (a + b) * (a + b + 1) // 2 + b


def _cantor_unpair(t: int) -> tuple[int, int]:
    w = (math.isqrt(8 * t + 1) - 1) // 2
    b = t - w * (w + 1) // 2
    return (w - b, b)


class CounterexampleSigma(TwistMap):
    """Additive bijection of a two-variable polynomial ring that squares the
    first-variable exponent and shuffles the pure second-variable monomials.

    On a monomial ``Y^a Z^b`` (variables named per the domain):

    * ``a > 0``            -> ``Y^(2a) Z^b``
    * ``a = 0``, ``b`` odd -> ``Z^((b + 1) / 2)``
    * ``a = 0``, ``b`` even, ``b > 0`` -> ``Y^(2u + 1) Z^v`` where ``(u, v)``
      is the Cantor unpairing of ``b / 2 - 1``
    * the identity monomial is fixed

    The three image families (even positive Y-exponent, pure-Z, odd
    Y-exponent) partition the monomials, so the map is a bijection with a
    closed-form inverse. Every multiple of ``Y`` is sent into the ideal
    generated by ``Y^2``.
    """

    kind = "counterexample_sigma"

    def __init__(self, domain: Poly2 = Poly2()):
        if not isinstance(domain, Poly2):
            raise DescriptorMismatch("counterexample sigma lives on Poly2")
        super().__init__(domain, _BIJECTION_CLAIMS, True)

    @staticmethod
    def image_exponents(a: int, b: int) -> tuple[int, int]:
        if a > 0:
            return (2 * a, b)
        if b == 0:
            return (0, 0)
        if b % 2 == 1:
            return (0, (b + 1) // 2)
        u, v = _cantor_unpair(b // 2 - 1)
        return (2 * u + 1, v)

    @staticmethod
    def preimage_exponents(a: int, b: int) -> tuple[int, int]:
        if a == 0 and b == 0:
            return (0, 0)
        if a == 0:
            return (0, 2 * b - 1)
        if a % 2 == 0:
            return (a // 2, b)
        return (0, 2 * (_cantor_pair((a - 1) // 2, b) + 1))

    def value(self, v):
        image = self.image_exponents
        return self.domain.map_terms(v, lambda e: (image(*e), 1, 1))

    def inverse_value(self, v):
        preimage = self.preimage_exponents
        return self.domain.map_terms(v, lambda e: (preimage(*e), 1, 1))


class TransposeMap(TwistMap):
    kind = "transpose"

    def __init__(self, domain: Matrix):
        if not isinstance(domain, Matrix):
            raise DescriptorMismatch("transpose lives on matrix rings")
        claims = set(_BIJECTION_CLAIMS)
        if domain.n == 1:
            claims.add(MULTIPLICATIVE)
        super().__init__(domain, claims, True)

    def value(self, v):
        return self.domain.transpose_value(v)

    inverse_value = value


class PowerMap(TwistMap):
    """e-fold application of a base map; negative e uses the base inverse."""

    kind = "power"

    def __init__(self, base: TwistMap, exponent: int):
        if exponent < 0 and not base.has_inverse:
            raise NoInverse("negative powers require an invertible base map")
        self.base = base
        self.exponent = exponent
        if exponent == 0:
            claims = IdentityMap(base.domain).claims
        else:
            claims = base.claims
        super().__init__(base.domain, claims, base.has_inverse or exponent == 0)

    def value(self, v):
        e = self.exponent
        return power_table(self.base, v, e, e)[e]

    def inverse_value(self, v):
        e = -self.exponent
        return power_table(self.base, v, e, e)[e]


class CompositionMap(TwistMap):
    """Function composition: ``Composition([f, g])`` applies ``g`` first."""

    kind = "composition"

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("composition needs at least one map")
        domain = parts[0].domain
        for m in parts:
            if m.domain != domain:
                raise DescriptorMismatch("composed maps must share a domain")
        self.parts = parts
        claims = set()
        if all(ADDITIVE in m.claims for m in parts):
            claims.add(ADDITIVE)
            if ANNIHILATES_ONE in parts[-1].claims:
                claims.add(ANNIHILATES_ONE)
        if all(RESPECTS_ONE in m.claims for m in parts):
            claims.add(RESPECTS_ONE)
        for prop in (MULTIPLICATIVE, INJECTIVE, SURJECTIVE):
            if all(prop in m.claims for m in parts):
                claims.add(prop)
        super().__init__(domain, claims, all(m.has_inverse for m in parts))

    def value(self, v):
        for m in reversed(self.parts):
            v = m.value(v)
        return v

    def inverse_value(self, v):
        for m in self.parts:
            v = m.inverse_value(v)
        return v


def power_apply(m: TwistMap, e: int, a: RingElement) -> RingElement:
    """Apply ``m`` (or its inverse, for negative ``e``) ``|e|`` times."""
    if e >= 0:
        for _ in range(e):
            a = m.apply(a)
    else:
        for _ in range(-e):
            a = m.apply_inverse(a)
    return a


def power_table(m: TwistMap, v, lo: int, hi: int) -> dict:
    """``{e: m^e(v)}`` on the raw value ``v`` for every ``e`` between
    ``min(lo, 0)`` and ``max(hi, 0)``, walking out from ``v`` with one
    ``value`` or ``inverse_value`` per step instead of a power from scratch
    for each ``e``. Every power of an :class:`IdentityMap` (class-exactly)
    is ``v`` itself, with no walk."""
    if type(m) is IdentityMap:
        return dict.fromkeys(range(min(lo, 0), max(hi, 0) + 1), v)
    table = {0: v}
    t = v
    for e in range(1, hi + 1):
        t = table[e] = m.value(t)
    t = v
    for e in range(-1, lo - 1, -1):
        t = table[e] = m.inverse_value(t)
    return table


def _falsify_pairs(name, domain, trials, seed, violated, message) -> CheckReport:
    """Sample pairs ``a, b`` of ``domain`` until ``violated(a, b)`` holds."""

    def trial(rng):
        a = random_element(domain, rng)
        b = random_element(domain, rng)
        if violated(a, b):
            return f"a={a}, b={b}", message

    return falsify(name, trials, seed, trial)


def verify_additive(m: TwistMap, trials: int, seed: int = 0) -> CheckReport:
    return _falsify_pairs(
        f"{m.kind}:additive", m.domain, trials, seed,
        lambda a, b: m.apply(a + b) != m.apply(a) + m.apply(b),
        "additivity violated",
    )


def verify_unit_behavior(m: TwistMap) -> CheckReport:
    if RESPECTS_ONE in m.claims:
        expected, label = one(m.domain), "1 -> 1"
    elif ANNIHILATES_ONE in m.claims:
        expected, label = zero(m.domain), "1 -> 0"
    else:
        raise ValueError(f"{m.kind} makes no claim about the unit")
    got = m.apply(one(m.domain))
    okay = got == expected
    return CheckReport(
        name=f"{m.kind}:unit",
        passed=okay,
        trials=1,
        witness=None if okay else f"got {got}",
        message=f"exact check {label}" + ("" if okay else " failed"),
    )


def verify_multiplicative(m: TwistMap, trials: int, seed: int = 0) -> CheckReport:
    return _falsify_pairs(
        f"{m.kind}:multiplicative", m.domain, trials, seed,
        lambda a, b: m.apply(a * b) != m.apply(a) * m.apply(b),
        "multiplicativity violated",
    )


def verify_injective(m: TwistMap, trials: int, seed: int = 0) -> CheckReport:
    return _falsify_pairs(
        f"{m.kind}:injective", m.domain, trials, seed,
        lambda a, b: a != b and m.apply(a) == m.apply(b),
        "distinct inputs with equal images",
    )


def verify_surjective(m: TwistMap, trials: int, seed: int = 0) -> CheckReport:
    """Witness surjectivity through the bundled inverse: targets round-trip."""
    name = f"{m.kind}:surjective"

    def trial(rng):
        b = random_element(m.domain, rng)
        if m.apply(m.apply_inverse(b)) != b:
            return f"b={b}", "inverse fails to produce a preimage"

    if not m.has_inverse:
        return falsify(name, 0, seed, trial, "skipped: no preimage chooser bundled")
    return falsify(name, trials, seed, trial,
                   f"preimages found for {trials} sampled targets")


def verify_inverse_roundtrip(m: TwistMap, trials: int, seed: int = 0) -> CheckReport:
    name = f"{m.kind}:inverse"

    def trial(rng):
        a = random_element(m.domain, rng)
        if m.apply_inverse(m.apply(a)) != a or m.apply(m.apply_inverse(a)) != a:
            return f"a={a}", "round trip through the inverse failed"

    if not m.has_inverse:
        return falsify(name, 0, seed, trial, "skipped: no inverse")
    return falsify(name, trials, seed, trial,
                   f"round trip exact on {trials} samples")


def verify_sigma_derivation(
    sigma: TwistMap, delta: TwistMap, trials: int, seed: int = 0
) -> CheckReport:
    """Falsifier for the twisted Leibniz rule d(ab) = s(a) d(b) + d(a) b."""
    return _falsify_pairs(
        "sigma-derivation", delta.domain, trials, seed,
        lambda a, b: delta.apply(a * b)
        != sigma.apply(a) * delta.apply(b) + delta.apply(a) * b,
        "twisted Leibniz rule violated",
    )


_CLAIM_VERIFIERS = {
    ADDITIVE: verify_additive,
    MULTIPLICATIVE: verify_multiplicative,
    INJECTIVE: verify_injective,
    SURJECTIVE: verify_surjective,
}


def verify_claims(m: TwistMap, trials: int = 200, seed: int = 0) -> list[CheckReport]:
    """Run the verifier for every claim the map declares."""
    out = []
    if RESPECTS_ONE in m.claims or ANNIHILATES_ONE in m.claims:
        out.append(verify_unit_behavior(m))
    for claim, verify in _CLAIM_VERIFIERS.items():
        if claim in m.claims:
            out.append(verify(m, trials, seed))
    if m.has_inverse:
        out.append(verify_inverse_roundtrip(m, trials, seed))
    return out
