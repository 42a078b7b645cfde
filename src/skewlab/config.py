"""Session configuration: JSON records for rings, maps, and structures.

Rationals in config files are strings ("3/4" or "0.25") or integers, never
floats, so exactness survives the trip through JSON. A session names one
structure:

* ``ore``              -- needs ``sigma`` (``delta`` defaults to the zero map)
* ``laurent``          -- needs an invertible ``sigma``
* ``iterated_laurent`` -- needs ``sigmas``, a list of invertible maps
* ``power_series``     -- needs an invertible ``sigma`` and ``precision``
* ``laurent_series``   -- needs an invertible ``sigma`` and ``precision``

Ring records: ``"rationals"``, ``{"cayley_dickson": {"level": 2}}``,
``{"jordan_plus": {"base": ...}}``, ``{"poly1": {"variable": "Y"}}``,
``{"poly2": {"variables": ["Y", "Z"]}}``, ``{"matrix": {"n": 2, "base":
"rationals"}}``. Map records carry a ``kind`` plus parameters, e.g.
``{"kind": "sigma_q_complex", "q": "2"}``.

A loaded :class:`Session` is one built context plus the series precision. The
context (``OreContext``, ``LaurentContext`` or ``IteratedLaurentContext``,
held by the session's :class:`~skewlab.expr.EvalTarget`) is the one source of
truth for the session's maps; the series structures use a Laurent context.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .expr import STRUCTURES as EXPR_STRUCTURES
from .expr import SERIES_STRUCTURES, EvalTarget, evaluate, parse
from .maps import (
    CoefficientDoubler,
    CompositionMap,
    ConjugationMap,
    CounterexampleSigma,
    FormalDerivative,
    IdentityMap,
    PowerMap,
    QuantumTorusSigma,
    SigmaQComplex,
    TransposeMap,
    TwistMap,
    ZeroMap,
)
from .rings import (
    CayleyDickson,
    JordanPlus,
    Matrix,
    Poly1,
    Poly2,
    Rationals,
    RingDescriptor,
    UnsupportedDescriptor,
    as_rational,
)
from .skewpoly import IteratedLaurentContext, LaurentContext, OreContext

STRUCTURES = tuple(s for s in EXPR_STRUCTURES if s != "element")


class ConfigError(ValueError):
    """Malformed or inconsistent session configuration."""


def _integer(record: dict, key: str, kind: str) -> int:
    """The JSON integer ``record[key]``: ``2.7``, ``true`` and ``"1"`` are
    refused, not rounded or converted."""
    value = record[key]
    if type(value) is not int:
        raise ConfigError(f"{kind} needs an integer {key!r}, got {value!r}")
    return value


def parse_descriptor(obj) -> RingDescriptor:
    if obj == "rationals":
        return Rationals()
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ConfigError(f"unrecognized ring record: {obj!r}")
    (kind, params), = obj.items()
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ConfigError(f"ring record {kind!r} needs a JSON object, got {params!r}")
    try:
        if kind == "rationals":
            return Rationals()
        if kind == "cayley_dickson":
            base = parse_descriptor(params.get("base", "rationals"))
            return CayleyDickson(_integer(params, "level", kind), base)
        if kind == "jordan_plus":
            return JordanPlus(parse_descriptor(params["base"]))
        if kind == "poly1":
            return Poly1(params.get("variable", "Y"))
        if kind == "poly2":
            return Poly2(params.get("variables", ("Y", "Z")))
        if kind == "matrix":
            base = params.get("base", "rationals")
            return Matrix(_integer(params, "n", kind), parse_descriptor(base))
    except KeyError as exc:
        raise ConfigError(f"ring record {kind!r} is missing {exc}") from None
    except UnsupportedDescriptor as exc:
        raise ConfigError(str(exc)) from None
    raise ConfigError(f"unknown ring kind {kind!r}")


def parse_map(obj, ring: RingDescriptor) -> TwistMap:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"map record needs a 'kind': {obj!r}")
    kind = obj["kind"]
    try:
        if kind == "identity":
            m = IdentityMap(ring)
        elif kind == "zero":
            m = ZeroMap(ring)
        elif kind == "sigma_q_complex":
            m = SigmaQComplex(as_rational(obj["q"]))
        elif kind == "conjugation":
            m = ConjugationMap(ring)
        elif kind == "quantum_torus_sigma":
            m = QuantumTorusSigma(as_rational(obj["q"]), ring)
        elif kind == "formal_derivative":
            m = FormalDerivative(ring)
        elif kind == "coefficient_doubler":
            m = CoefficientDoubler(ring)
        elif kind == "counterexample_sigma":
            m = CounterexampleSigma(ring)
        elif kind == "transpose":
            m = TransposeMap(ring)
        elif kind == "power":
            m = PowerMap(parse_map(obj["base"], ring), _integer(obj, "e", kind))
        elif kind == "composition":
            m = CompositionMap([parse_map(rec, ring) for rec in obj["maps"]])
        else:
            raise ConfigError(f"unknown map kind {kind!r}")
    except KeyError as exc:
        raise ConfigError(f"map record {kind!r} is missing {exc}") from None
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"map record {kind!r}: {exc}") from None
    if m.domain != ring:
        raise ConfigError(
            f"map {kind!r} acts on {m.domain}, but the session ring is {ring}"
        )
    return m


@dataclass
class Session:
    """A validated configuration: one built context (inside ``target``) and,
    for series, the precision."""

    target: EvalTarget
    precision: int | None = None

    @property
    def structure(self) -> str:
        return self.target.structure

    @property
    def ring(self) -> RingDescriptor:
        return self.target.ring

    def parse(self, text: str):
        return parse(text, self.target.profile())

    def evaluate(self, text: str):
        return evaluate(self.parse(text), self.target)

    def maps(self) -> list[tuple[str, TwistMap]]:
        """The context's maps by label: ``sigma`` and ``delta`` of an Ore
        context, ``sigma`` of a Laurent one, ``sigma1..n`` of an iterated one."""
        ctx = self.target.context
        if isinstance(ctx, IteratedLaurentContext):
            return [(f"sigma{i + 1}", s) for i, s in enumerate(ctx.sigmas)]
        if isinstance(ctx, OreContext):
            return [("sigma", ctx.sigma), ("delta", ctx.delta)]
        return [("sigma", ctx.sigma)]


def load_session(source) -> Session:
    """Build a session from a dict, a JSON string, or a file path."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            raw = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    elif isinstance(source, dict):
        raw = source
    else:
        raise ConfigError(f"unsupported config source: {type(source).__name__}")
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, not {type(raw).__name__}")

    structure = raw.get("structure")
    if structure not in STRUCTURES:
        raise ConfigError(
            f"structure must be one of {', '.join(STRUCTURES)}; got {structure!r}"
        )
    if "ring" not in raw:
        raise ConfigError("config needs a 'ring' record")
    ring = parse_descriptor(raw["ring"])
    precision = raw.get("precision")

    try:
        if structure == "iterated_laurent":
            recs = raw.get("sigmas")
            if type(recs) is not list or not recs:
                raise ConfigError("iterated_laurent needs a non-empty 'sigmas' list")
            context = IteratedLaurentContext(
                ring, tuple(parse_map(rec, ring) for rec in recs)
            )
        else:
            if "sigma" not in raw:
                raise ConfigError(f"{structure} needs a 'sigma' map")
            sigma = parse_map(raw["sigma"], ring)
            if structure == "ore":
                delta = (
                    parse_map(raw["delta"], ring)
                    if "delta" in raw
                    else ZeroMap(ring)
                )
                context = OreContext(ring, sigma, delta)
            elif structure == "laurent":
                if "delta" in raw:
                    raise ConfigError("laurent structures take no delta")
                context = LaurentContext(ring, sigma)
            else:  # series
                if type(precision) is not int or precision < 1:
                    raise ConfigError(
                        "series structures need an integer 'precision' >= 1"
                    )
                context = LaurentContext(ring, sigma)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None

    if structure not in SERIES_STRUCTURES:
        precision = None
    return Session(EvalTarget(structure, ring, context, precision), precision)
