"""Named property suites driven by a session configuration.

Each suite aggregates sampled checks into a :class:`SuiteReport`; the CLI
turns a failed report into a nonzero exit status. Every suite is
deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import replace
from random import Random

from .config import ConfigError, Session
from .expr import SERIES_STRUCTURES
from .maps import verify_claims, verify_multiplicative, verify_sigma_derivation
from .noetherian import (
    CounterexampleConfig,
    counterexample_witness,
    sigma_ideal_image_check,
)
from .reports import CheckReport, SuiteReport, falsify, no_violation_message
from .rings import draw, one, random_element
from .series import TruncatedSeries, agree_below, random_series
from .skewpoly import (
    OreContext,
    nucleus_check_power,
    nucleus_falsify,
    poly_associator,
    random_poly,
    require_reducible,
    right_divide,
)


def run_suite(name: str, session: Session | None, trials: int, seed: int,
              **options) -> SuiteReport:
    try:
        runner = _RUNNERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        ) from None
    if trials < 1:
        raise ConfigError(f"--trials must be at least 1, got {trials}")
    if name != "counterexample" and session is None:
        raise ConfigError(f"suite {name!r} needs a --config session")
    return runner(session, trials, seed, options)


def _ring_axioms(session, trials, seed, options) -> SuiteReport:
    d = session.ring
    rng = Random(seed)
    axioms = {
        "add-commutative": lambda a, b, c: a + b == b + a,
        "add-associative": lambda a, b, c: (a + b) + c == a + (b + c),
        "left-distributive": lambda a, b, c: a * (b + c) == a * b + a * c,
        "right-distributive": lambda a, b, c: (a + b) * c == a * c + b * c,
        "unital": lambda a, b, c: one(d) * a == a and a * one(d) == a,
    }
    failures = {}
    for _ in range(trials):
        a, b, c = (random_element(d, rng) for _ in range(3))
        for name, pred in axioms.items():
            if name not in failures and not pred(a, b, c):
                failures[name] = f"a={a}, b={b}, c={c}"
    report = SuiteReport("ring-axioms", seed, trials)
    for name in axioms:
        if name in failures:
            report.checks.append(
                CheckReport(name, False, trials, seed, failures[name],
                            "axiom violated")
            )
        else:
            report.checks.append(
                CheckReport(name, True, trials, seed,
                            message=no_violation_message(trials))
            )
    return report


def _map_claims(session, trials, seed, options) -> SuiteReport:
    report = SuiteReport("map-claims", seed, trials)
    for label, m in session.maps():
        for check in verify_claims(m, trials, seed):
            report.checks.append(replace(check, name=f"{label}:{check.name}"))
    if not report.checks:
        raise ConfigError("the session declares no maps to verify")
    return report


def _nucleus(session, trials, seed, options) -> SuiteReport:
    n = options.get("n")
    if n is None:
        n = 2
    if session.structure in SERIES_STRUCTURES:
        check = _series_nucleus(session, n, trials, seed)
    elif session.structure in ("ore", "laurent"):
        check = nucleus_check_power(session.target.context, n, trials, seed)
    else:
        raise ConfigError(
            "the nucleus suite runs on ore, laurent, or series structures"
        )
    return SuiteReport("nucleus", seed, trials, [check])


def _series_nucleus(session, n, trials, seed) -> CheckReport:
    ctx = session.target.context
    precision = session.precision
    if n < 0 and session.structure == "power_series":
        raise ConfigError("power series have no negative powers of X")
    xn = TruncatedSeries.from_terms(
        ctx, [(n, one(session.ring))], precision + n
    )
    return nucleus_falsify(
        lambda rng: random_series(ctx, rng, precision), xn, n, trials, seed
    )


def _dichotomy(session, trials, seed, options) -> SuiteReport:
    ctx = session.target.context
    if session.structure in SERIES_STRUCTURES:
        raise ConfigError(
            "the associativity-dichotomy suite runs on polynomial structures"
        )
    report = SuiteReport("associativity-dichotomy", seed, trials)
    reasons = []
    predicted = session.ring.is_associative
    if not predicted:
        reasons.append("coefficient ring is not associative")
    for label, m in session.maps():
        if m.kind == "zero":
            continue
        if label.startswith("sigma"):
            check = verify_multiplicative(m, trials, seed)
            if not check.passed:
                predicted = False
                reasons.append(f"{label} is not multiplicative ({check.witness})")
    if isinstance(ctx, OreContext):
        leibniz = verify_sigma_derivation(ctx.sigma, ctx.delta, trials, seed)
        if not leibniz.passed:
            predicted = False
            reasons.append(f"delta breaks the twisted Leibniz rule ({leibniz.witness})")

    def trial(rng):
        p, q, r = (random_poly(ctx, rng) for _ in range(3))
        a = poly_associator(p, q, r)
        if not a.is_zero():
            return f"({p}, {q}, {r}) -> {a}", "nonzero associator"

    witness = falsify("associator", trials, seed, trial).witness
    prediction_text = (
        "associative" if predicted else f"non-associative: {'; '.join(reasons)}"
    )
    observation = (
        "no nonzero associator found" if witness is None else "nonzero associator found"
    )
    consistent = predicted == (witness is None)
    report.checks.append(
        CheckReport(
            "dichotomy",
            consistent,
            trials,
            seed,
            witness,
            f"predicted {prediction_text}; observed {observation}",
        )
    )
    return report


def _division_roundtrip(session, trials, seed, options) -> SuiteReport:
    if session.structure != "ore":
        raise ConfigError("the division-roundtrip suite needs an ore structure")
    ctx = session.target.context
    try:
        require_reducible(ctx, "right division")
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    def trial(rng):
        gens = []
        while not gens:  # one to three generators, zeros dropped
            drawn = [random_poly(ctx, rng, (0, 3)) for _ in range(draw(rng, 1, 3))]
            gens = [g for g in drawn if not g.is_zero()]
        p = random_poly(ctx, rng, (0, 6), 4)
        trace = right_divide(p, gens)
        min_deg = min(g.degree() for g in gens)
        if not (trace.remainder.degree() < min_deg and trace.replay(gens) == p):
            return (
                f"p={p}, gens={[str(g) for g in gens]}",
                "remainder bound or replay failed",
            )

    return SuiteReport("division-roundtrip", seed, trials, [
        falsify("division-roundtrip", trials, seed, trial,
                f"{trials} traces replayed exactly")
    ])


def _series_precision(session, trials, seed, options) -> SuiteReport:
    if session.structure not in SERIES_STRUCTURES:
        raise ConfigError("the series-precision suite needs a series structure")
    ctx = session.target.context
    precision = session.precision
    min_exp = 0 if session.structure == "power_series" else -3

    def trial(rng):
        p = random_poly(ctx, rng, (min_exp, 4))
        q = random_poly(ctx, rng, (min_exp, 4))
        sp = TruncatedSeries.from_poly(p, precision)
        sq = TruncatedSeries.from_poly(q, precision)
        sprod = sp * sq
        exact = TruncatedSeries.from_poly(p * q, sprod.precision)
        if not agree_below(sprod, exact, sprod.precision):
            return (
                f"p={p}, q={q}",
                "series product disagrees with the polynomial product",
            )

    return SuiteReport("series-precision", seed, trials, [
        falsify("series-precision", trials, seed, trial,
                f"window products exact below the declared precision "
                f"({trials} pairs)")
    ])


def _counterexample(session, trials, seed, options) -> SuiteReport:
    m = options.get("m")
    if m is None:
        m = 2
    cfg = CounterexampleConfig(m, trials, 4, 4, seed)
    report = SuiteReport("counterexample", seed, trials)
    report.checks.append(
        sigma_ideal_image_check(samples=min(trials, 200), bound=12, seed=seed)
    )
    witness = counterexample_witness(cfg)
    report.checks.append(
        CheckReport(
            "left-ideal-witness",
            witness.corroborated,
            trials,
            seed,
            witness=(
                None
                if not witness.violations
                else witness.violations[0].description
            ),
            message=witness.conclusion(),
        )
    )
    return report


_RUNNERS = {
    "ring-axioms": _ring_axioms,
    "map-claims": _map_claims,
    "nucleus": _nucleus,
    "associativity-dichotomy": _dichotomy,
    "division-roundtrip": _division_roundtrip,
    "series-precision": _series_precision,
    "counterexample": _counterexample,
}
SUITE_NAMES = tuple(_RUNNERS)
