"""Desk-scale experiments around leading-coefficient ideals and the failure
of left finite generation.

The harness corroborates, never proves: whether an ideal is finitely
generated is an infinitary question, so reports distinguish "corroborated at
these bounds" from any stronger claim. Runs are reproducible from the
recorded seed, and violations are sorted canonically before emission so
aggregation order never matters.

The fixed test bed is the twisted polynomial ring over two-variable
polynomials whose sigma is :class:`~skewlab.maps.CounterexampleSigma` and
whose delta is zero. There the set of polynomials with every coefficient a
multiple of Y is a left ideal, yet any left combination of members of degree
at most m only ever produces degree >= m+1 coefficients inside the ideal
generated by Y^2 -- and Y is not in that ideal, which is the whole point.

Reports follow the rules of :mod:`skewlab.reports`: the sampled half of
:func:`sigma_ideal_image_check` runs through
:func:`~skewlab.reports.falsify`, the one sampling loop, and ``to_dict`` of a
:class:`Violation` is its fields. :func:`counterexample_witness` keeps its
own loop because it collects every violation instead of stopping at the
first, and :class:`WitnessReport` renames its keys for the command line.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from random import Random

from .maps import CounterexampleSigma, ZeroMap
from .reports import CheckReport, falsify
from .rings import (
    Poly2,
    RingElement,
    draw,
    element,
    monomial_element,
    monomial_ideal_member,
    random_element,
    random_terms,
)
from .skewpoly import OreContext, OrePoly

POLY2 = Poly2()


def counterexample_context() -> OreContext:
    return OreContext(POLY2, CounterexampleSigma(POLY2), ZeroMap(POLY2))


def leading_coeff_ideal(generators) -> list[RingElement]:
    """Leading coefficients of the generators, deduplicated, zeros excluded.

    The finite-input shadow of the leading-coefficient ideal that drives
    right division: any polynomial whose leading coefficient is a right
    combination of these reduces by at least one step.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    out: list[RingElement] = []
    for g in generators:
        if g.is_zero():
            raise ValueError("generators must be nonzero")
        c = g.leading_coefficient()
        if c not in out:
            out.append(c)
    return out


@dataclass(frozen=True)
class CounterexampleConfig:
    max_generator_degree: int
    trials: int
    multiplier_degree_bound: int
    coefficient_degree_bound: int
    seed: int = 0

    def __post_init__(self):
        for name in (
            "max_generator_degree",
            "trials",
            "multiplier_degree_bound",
            "coefficient_degree_bound",
        ):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass(frozen=True)
class Violation:
    description: str
    term_degree: int
    coefficient: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class WitnessReport:
    config: CounterexampleConfig
    trials_run: int
    violations: list[Violation] = field(default_factory=list)
    vacuous: bool = True
    y_outside_y_squared: bool = False

    @property
    def corroborated(self) -> bool:
        return not self.violations and self.y_outside_y_squared

    def conclusion(self) -> str:
        if not self.corroborated:
            return "violated"
        text = f"corroborated at these bounds ({self.trials_run} trials)"
        if self.vacuous:
            text += " [vacuous: no term ever reached the critical degree]"
        return text

    def to_dict(self) -> dict:
        return {
            "m": self.config.max_generator_degree,
            "trials": self.trials_run,
            "multiplier_degree_bound": self.config.multiplier_degree_bound,
            "coefficient_degree_bound": self.config.coefficient_degree_bound,
            "seed": self.config.seed,
            "violations": [v.to_dict() for v in self.violations],
            "vacuous": self.vacuous,
            "y_outside_y_squared": self.y_outside_y_squared,
            "corroborated": self.corroborated,
            "conclusion": self.conclusion(),
        }

    def to_text(self) -> str:
        cfg = self.config
        lines = [
            "left finite-generation counterexample harness",
            f"  m={cfg.max_generator_degree} trials={self.trials_run} "
            f"multiplier_bound={cfg.multiplier_degree_bound} "
            f"coefficient_bound={cfg.coefficient_degree_bound} seed={cfg.seed}",
            f"  Y outside (Y^2): {'yes' if self.y_outside_y_squared else 'NO'}",
            f"  violations: {len(self.violations)}",
        ]
        for v in self.violations[:10]:
            lines.append(
                f"    degree {v.term_degree}: coefficient {v.coefficient} "
                f"from {v.description}"
            )
        lines.append(f"  conclusion: {self.conclusion()}")
        return "\n".join(lines)


def _y_monomial(a: int, b: int, c=1) -> RingElement:
    return monomial_element(POLY2, (a, b), c)


def _random_coefficient(rng: Random, bound: int, low: int = 0) -> RingElement:
    """A random element of Q[Y, Z] within the degree bound; with ``low = 1``,
    one to three terms, each a multiple of Y."""
    terms = random_terms(
        rng,
        lambda r: (draw(r, low, bound), draw(r, 0, bound)),
        lambda r: draw(r, -9, 9),
        3,
        low,
    )
    return element(POLY2, terms)


def _random_ore(ctx, rng: Random, cfg, degree: int, low: int = 0) -> OrePoly:
    """Each degree up to ``degree`` gets a coefficient with chance 0.6."""
    return OrePoly.from_terms(ctx, [
        (e, _random_coefficient(rng, cfg.coefficient_degree_bound, low))
        for e in range(degree + 1)
        if rng.random() < 0.6
    ])


def _random_ideal_generator(ctx, rng: Random, cfg: CounterexampleConfig) -> OrePoly:
    """A nonzero member of the left ideal: every coefficient a multiple of Y,
    degree at most the configured maximum."""
    while True:
        p = _random_ore(ctx, rng, cfg, cfg.max_generator_degree, 1)
        if not p.is_zero():
            return p


def _random_multiplier(ctx, rng: Random, cfg: CounterexampleConfig) -> OrePoly:
    return _random_ore(ctx, rng, cfg, cfg.multiplier_degree_bound) or OrePoly.one(ctx)


# How a violation writes each shape of left combination, factors left to
# right; only violations are rendered.
_SHAPES = {
    "s*p": "({})*({})",
    "t1*(t2*p)": "({})*(({})*({}))",
    "(t1*t2)*p": "(({})*({}))*({})",
}


def counterexample_witness(cfg: CounterexampleConfig) -> WitnessReport:
    """Sample left combinations of ideal members and check that every term of
    degree >= m+1 has its coefficient inside (Y^2); both association orders
    of nested products are exercised since the ring is non-associative."""
    ctx = counterexample_context()
    rng = Random(cfg.seed)
    y = _y_monomial(1, 0)
    y2 = _y_monomial(2, 0)
    report = WitnessReport(config=cfg, trials_run=cfg.trials)
    report.y_outside_y_squared = not monomial_ideal_member(y, [y2])
    critical = cfg.max_generator_degree + 1
    violations = []
    for _ in range(cfg.trials):
        p = _random_ideal_generator(ctx, rng, cfg)
        shape = rng.choice(("s*p", "t1*(t2*p)", "(t1*t2)*p"))
        if shape == "s*p":
            factors = (_random_multiplier(ctx, rng, cfg),)
            product = factors[0] * p
        else:
            t1, t2 = factors = (
                _random_multiplier(ctx, rng, cfg),
                _random_multiplier(ctx, rng, cfg),
            )
            product = t1 * (t2 * p) if shape == "t1*(t2*p)" else (t1 * t2) * p
        for e, c in product.terms:
            if e >= critical:
                report.vacuous = False
                if not monomial_ideal_member(c, [y2]):
                    description = _SHAPES[shape].format(*factors, p)
                    violations.append(Violation(description, e, str(c)))
    report.violations = sorted(
        violations, key=lambda v: (v.term_degree, v.coefficient, v.description)
    )
    return report


def sigma_ideal_image_check(samples: int, bound: int, seed: int = 0) -> CheckReport:
    """Exhaustively check, for every monomial multiple of Y within the bound,
    that its sigma image lands in (Y^2); then spot-check random Y-multiples.

    Monomials outside the Y-ideal make no such claim and are excluded. The
    report counts the monomials checked (up to the first failing one) plus,
    once they all pass, the ``samples`` of the :func:`falsify` run.
    """
    name, escaped = "sigma-ideal-image", "sigma image escaped (Y^2)"
    sigma = CounterexampleSigma(POLY2)
    y2 = _y_monomial(2, 0)
    checked = bound * (bound + 1)
    monomials = (_y_monomial(a, b) for a in range(1, bound + 1) for b in range(bound + 1))
    for i, m in enumerate(monomials, 1):
        if not monomial_ideal_member(sigma.apply(m), [y2]):
            return CheckReport(name, False, i, seed, str(m), escaped)
    y = _y_monomial(1, 0)

    def trial(rng):
        h = random_element(POLY2, rng)
        if not monomial_ideal_member(sigma.apply(y * h), [y2]):
            return f"Y*({h})", escaped

    report = falsify(
        name, samples, seed, trial,
        f"exhaustive over {checked} monomial multiples of Y (bound {bound}) "
        f"plus {samples} sampled multiples",
    )
    return replace(report, trials=checked + samples)
