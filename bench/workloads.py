"""Seeded job streams for the four benchmark workloads.

A workload is a closed loop with one client: an endless, seed-determined
sequence of *rounds*, each a shuffled list of jobs run one after another.
Every round holds the same job kinds in the same proportions and takes its
sizes from :class:`Dial`, so any run of whole rounds has the same mix on
every seed and the seed changes the operands. skewlab sees nothing but the
generated argv and expressions.

Most jobs call ``skewlab.cli.main(argv)``. The two procedures with no
subcommand (``series_reduce_chain`` and ``left_normal_form``) are called
through the library. Every job carries its declared exit status and an
oracle that is checked outside the timed span.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SHIPPED = ROOT / "configs"
OWN = Path(__file__).resolve().parent / "configs"

CONFIGS = {
    "weyl": SHIPPED / "weyl.json",
    "quantum_torus": SHIPPED / "quantum_torus.json",
    "quaternion_ore": SHIPPED / "quaternion_conjugation_ore.json",
    "complex_laurent": SHIPPED / "complex_sigma2_laurent.json",
    "rational_series": SHIPPED / "rational_power_series.json",
    "sedenion_laurent": OWN / "sedenion_conjugation_laurent.json",
    "octonion_laurent": OWN / "octonion_conjugation_laurent.json",
    "matrix3_ore": OWN / "matrix3_transpose_ore.json",
    "jordan_ore": OWN / "jordan_quaternion_ore.json",
    "quaternion_laurent_series": OWN / "quaternion_conjugation_laurent_series.json",
    "doubler_ore": OWN / "doubler_derivative_ore.json",
    "quaternion_series": OWN / "quaternion_conjugation_power_series.json",
}


@dataclass
class Job:
    """One timed call plus what its result must satisfy.

    ``argv`` jobs run ``cli.main(argv)``; ``call`` jobs run a library
    procedure and ``render`` turns its result into the text that is hashed.
    ``oracle(text, result)`` returns a problem description or ``None``.
    """

    label: str
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    render: Callable[[object], str] | None = None
    expect_exit: int = 0
    oracle: Callable[[str, object], str | None] | None = None


# --- operand text --------------------------------------------------------------

def _q(rng: Random) -> str:
    """A small positive rational literal."""
    n = rng.randint(1, 9)
    return f"{n}/{rng.randint(2, 7)}" if rng.random() < 0.3 else str(n)


def _join(rng: Random, parts: list[str]) -> str:
    out = parts[0]
    for p in parts[1:]:
        out += (" - " if rng.random() < 0.3 else " + ") + p
    return out


def _units(rng: Random, names: list[str], count: int) -> str:
    picked = rng.sample(names, count)
    return "(" + _join(rng, [_q(rng)] + [f"{_q(rng)}*{u}" for u in picked]) + ")"


def _coef(kind: str, rng: Random) -> str:
    """A random coefficient in the ring a config names, as grammar text."""
    if kind == "rational":
        return _q(rng)
    if kind == "poly1":
        return f"({_q(rng)}*Y^{rng.randint(1, 3)} + {_q(rng)})"
    if kind == "complex":
        return f"({_q(rng)} + {_q(rng)}*i)"
    if kind == "quaternion":
        return _units(rng, ["i", "j", "k"], 3)
    if kind == "octonion":
        return _units(rng, [f"e{i}" for i in range(1, 8)], 2)
    if kind == "sedenion":
        return _units(rng, [f"e{i}" for i in range(1, 16)], 3)
    if kind == "jordan":
        return _units(rng, ["i", "j", "k"], 2)
    if kind == "matrix3":
        rows = [
            "[" + ", ".join(str(rng.randint(-3, 3)) for _ in range(3)) + "]"
            for _ in range(3)
        ]
        return "[" + ", ".join(rows) + "]"
    raise ValueError(kind)


def _poly(rng: Random, kind: str, exponents) -> str:
    return _join(rng, [f"{_coef(kind, rng)}*X^{e}" for e in exponents])


def _sparse(rng: Random, kind: str, lo: int, hi: int, terms: int) -> str:
    return _poly(rng, kind, sorted(rng.sample(range(lo, hi + 1), terms)))


def _torus(rng: Random, terms: int, span: int = 4) -> str:
    return _join(rng, [
        f"{_q(rng)}*Y^{rng.randint(0, 3)}*X1^{rng.randint(-span, span)}"
        f"*X2^{rng.randint(-span, span)}"
        for _ in range(terms)
    ])


class Dial:
    """Job sizes from a low-discrepancy sequence shared by every seed.

    The ``k``-th size drawn in round ``r`` is ``lo + (hi - lo) * frac(k * a +
    r * g)`` with ``g`` the golden ratio and ``a = sqrt(2) - 1``. Any run of
    consecutive rounds covers every size range evenly, and two runs of equally
    many rounds hold the same sizes whatever the seed, so the timing
    percentiles move with the program, not with the seed; the seed picks the
    operands, suite seeds and job order. Each round must draw the same number
    of sizes in the same order.
    """

    GOLDEN = 0.6180339887498949
    SLOT = 0.41421356237309515

    def __init__(self):
        self.round = -1
        self.slot = 0

    def next_round(self):
        self.round += 1
        self.slot = 0

    def int(self, lo: int, hi: int) -> int:
        u = (self.slot * self.SLOT + self.round * self.GOLDEN) % 1.0
        self.slot += 1
        return lo + int(u * (hi - lo + 1))


# --- oracles -------------------------------------------------------------------

def _suite_oracle(suite: str, trials: int, seed: int):
    head = f"suite {suite} (trials={trials}, seed={seed})"

    def check(text, _result):
        lines = text.splitlines()
        if not lines or lines[0] != head:
            return f"report header is not {head!r}"
        if lines[-1] != "result: all checks passed":
            return "report does not end with 'all checks passed'"
        if not lines[1:-1] or any(not ln.startswith("  ok ") for ln in lines[1:-1]):
            return "a check line is not 'ok'"
        return None

    return check


def _demo_oracle(text, _result):
    lines = text.splitlines()
    if not lines or lines[0] != "left finite-generation counterexample harness":
        return "demo header missing"
    if "  conclusion: corroborated" not in "\n".join(lines):
        return "demo did not corroborate"
    return None


def _reparse_oracle(lab, session_name: str, precision: int | None = None):
    """Rendered output must re-parse to itself: the canonical text is
    grammar-compatible, so render -> parse -> evaluate -> render is fixed."""

    def check(text, _result):
        session = lab.sessions[session_name]
        if precision is not None:
            session = lab.with_precision(session, precision)
        value = text.strip()
        again = str(session.evaluate(value))
        return None if again == value else f"re-parsed output renders as {again[:60]!r}"

    return check


def _equals_oracle(expected: str):
    def check(text, _result):
        got = text.strip()
        return None if got == expected else f"expected {expected!r}, got {got[:60]!r}"

    return check


def _divide_oracle(text, _result):
    lines = text.splitlines()
    return None if lines and lines[-1] == "replay: exact" else "replay is not exact"


# --- workloads -----------------------------------------------------------------

def _cli(label, command, config, *args, expect_exit=0, oracle=None):
    argv = [command]
    if config is not None:
        argv += ["--config", str(CONFIGS[config])]
    return Job(label, argv + [str(a) for a in args], expect_exit=expect_exit,
               oracle=oracle)


def _check(suite, config, trials, rng, *extra):
    seed = rng.randrange(1_000_000)
    return _cli(f"check {suite} {config or '-'}", "check", config, suite,
                "--trials", trials, "--seed", seed, *extra,
                oracle=_suite_oracle(suite, trials, seed))


def falsify_round(rng: Random, dial: Dial, lab) -> list[Job]:
    """The property suites a falsifier runs on the five shipped configs."""
    shipped = ["weyl", "quantum_torus", "quaternion_ore", "complex_laurent",
               "rational_series"]
    jobs = []
    for c in shipped:
        jobs.append(_check("ring-axioms", c, dial.int(20, 60), rng))
        jobs.append(_check("map-claims", c, dial.int(20, 60), rng))
    for c, hi in (("weyl", 40), ("quaternion_ore", 10), ("complex_laurent", 40),
                  ("rational_series", 40)):
        jobs.append(_check("nucleus", c, dial.int(hi // 2, hi), rng,
                           "--n", dial.int(1, 3)))
    # Non-associative sessions stop at the first nonzero associator; the
    # trial counts keep a miss (and so exit 1) vanishingly unlikely.
    for c, lo, hi in (("weyl", 10, 30), ("quantum_torus", 20, 40),
                      ("quaternion_ore", 150, 150), ("complex_laurent", 60, 60)):
        jobs.append(_check("associativity-dichotomy", c, dial.int(lo, hi), rng))
    jobs.append(_check("division-roundtrip", "quaternion_ore", dial.int(5, 15), rng))
    jobs.append(_check("series-precision", "rational_series", dial.int(40, 120), rng))
    jobs.append(_check("counterexample", None, dial.int(15, 40), rng,
                       "--m", dial.int(1, 3)))
    seed = rng.randrange(1_000_000)
    jobs.append(_cli("demo counterexample", "demo", None, "counterexample",
                     "--m", dial.int(1, 3), "--trials", dial.int(30, 90),
                     "--seed", seed, oracle=_demo_oracle))
    return jobs


def high_degree_round(rng: Random, dial: Dial, lab) -> list[Job]:
    """Few large products over cheap coefficients: twists and pi rows work."""
    jobs = []
    for _ in range(3):
        n = dial.int(100, 400)
        jobs.append(_cli("eval weyl X^n*Y", "eval", "weyl", f"X^{n}*Y",
                         oracle=_equals_oracle(f"{n}*X^{n - 1} + Y*X^{n}")))
    thirteen = range(13)
    for config in ("weyl", "doubler_ore"):
        for _ in range(2):
            jobs.append(_cli(f"mul {config} 13x13", "mul", config,
                             _poly(rng, "poly1", thirteen),
                             _poly(rng, "poly1", thirteen),
                             oracle=_reparse_oracle(lab, config)))
    wide = range(-20, 21)
    for _ in range(2):
        jobs.append(_cli("mul complex_laurent 41x41", "mul", "complex_laurent",
                         _poly(rng, "complex", wide), _poly(rng, "complex", wide),
                         oracle=_reparse_oracle(lab, "complex_laurent")))
    for _ in range(2):
        jobs.append(_cli("mul quantum_torus iterated", "mul", "quantum_torus",
                         f"({_torus(rng, 7)})*({_torus(rng, 7)})", _torus(rng, 7),
                         oracle=_reparse_oracle(lab, "quantum_torus")))
    for _ in range(2):
        p = dial.int(16, 48)
        window = range(p)
        text = (f"({_poly(rng, 'quaternion', window)} + O(X^{p}))"
                f"*({_poly(rng, 'quaternion', window)} + O(X^{p}))")
        jobs.append(_cli("series quaternion product", "series", "quaternion_series",
                         "--precision", p, text,
                         oracle=_reparse_oracle(lab, "quaternion_series", p)))
    jobs.append(_cli("divide quaternion 29/3", "divide", "quaternion_ore",
                     _poly(rng, "quaternion", range(dial.int(27, 31))),
                     _poly(rng, "quaternion", range(4)), oracle=_divide_oracle))
    jobs.append(_reduce_chain_job(rng, dial, lab))
    jobs.append(_left_normal_job(rng, dial, lab))
    return jobs


def _reduce_chain_job(rng: Random, dial: Dial, lab) -> Job:
    p = dial.int(12, 24)
    session = lab.sessions["quaternion_series"]
    q = session.evaluate(f"{_poly(rng, 'quaternion', range(p))} + O(X^{p})")
    gens = [
        session.evaluate(f"{_poly(rng, 'quaternion', range(3))} + O(X^{p})"),
        session.evaluate(f"{_poly(rng, 'quaternion', range(1, 4))} + O(X^{p})"),
    ]

    def call():
        return lab.series.series_reduce_chain(q, gens)

    def render(result):
        steps, remainder = result
        body = "; ".join(f"{s.generator_index}:{s.shift}:{s.multiplier}" for s in steps)
        return f"{body}\nremainder: {remainder}\n"

    def oracle(_text, result):
        steps, remainder = result
        back = lab.series.replay_reduction(gens, steps, remainder)
        bound = min(back.precision, q.precision)
        if not lab.series.agree_below(back, q, bound):
            return f"replayed reduction disagrees with the input below {bound}"
        return None

    return Job("series_reduce_chain quaternion", call=call, render=render,
               oracle=oracle)


def _left_normal_job(rng: Random, dial: Dial, lab) -> Job:
    session = lab.sessions["quaternion_ore"]
    p = session.evaluate(_poly(rng, "quaternion", range(dial.int(10, 20))))

    def call():
        return lab.skewpoly.left_normal_form(p)

    def render(pairs):
        return " + ".join(f"X^{e}*({c})" for e, c in pairs) + "\n"

    def oracle(_text, pairs):
        back = lab.skewpoly.assemble_left_normal(p.context, pairs)
        return None if back == p else "assembled left normal form differs"

    return Job("left_normal_form quaternion", call=call, render=render, oracle=oracle)


WIDE_RINGS = {
    "sedenion_laurent": "sedenion",
    "octonion_laurent": "octonion",
    "matrix3_ore": "matrix3",
    "jordan_ore": "jordan",
    "quaternion_laurent_series": "quaternion",
}


def wide_coefficients_round(rng: Random, dial: Dial, lab) -> list[Job]:
    """Low-degree work over expensive coefficients: the rings layer works."""
    # (ring-axioms, map-claims, nucleus) trial ranges, sized per ring cost so
    # that every suite job takes about as long, whatever the ring.
    trials = {
        "sedenion_laurent": ((2, 3), (8, 14), (1, 2)),
        "octonion_laurent": ((6, 10), (15, 25), (2, 4)),
        "matrix3_ore": ((20, 35), (55, 95), (5, 9)),
        "jordan_ore": ((16, 28), (36, 62), (3, 5)),
        "quaternion_laurent_series": ((17, 29), (29, 50), (7, 11)),
    }
    jobs = []
    for c, (axioms, claims, nucleus) in trials.items():
        jobs.append(_check("ring-axioms", c, dial.int(*axioms), rng))
        jobs.append(_check("map-claims", c, dial.int(*claims), rng))
        jobs.append(_check("nucleus", c, dial.int(*nucleus), rng,
                           "--n", dial.int(1, 2)))
        if c != "quaternion_laurent_series":
            # Non-associative: the suite stops at the first nonzero associator.
            jobs.append(_check("associativity-dichotomy", c, 80, rng))
            lo = -2 if c.endswith("laurent") else 0
            ops = [_sparse(rng, WIDE_RINGS[c], lo, 2, dial.int(2, 3))
                   for _ in range(3)]
            jobs.append(_cli(f"associator {c}", "associator", c, *ops,
                             oracle=_reparse_oracle(lab, c)))
    for _ in range(2):
        ops = [f"({_sparse(rng, 'quaternion', -2, 5, 4)} + O(X^8))" for _ in range(3)]
        jobs.append(_cli("series quaternion_laurent_series", "series",
                         "quaternion_laurent_series", "*".join(ops),
                         oracle=_reparse_oracle(lab, "quaternion_laurent_series")))
    return jobs


LONG_CONFIGS = {
    # config: (coefficient kind, lowest exponent of a 401-wide exponent range)
    "weyl": ("poly1", 0),
    "complex_laurent": ("complex", -200),
    "rational_series": ("rational", 0),
}

# Terms per sum, per config: about the same time per job on every config, so
# the median job time depends on most jobs of a run, not on a few.
LONG_TERMS = {
    "weyl": (220, 280),
    "complex_laurent": (100, 140),
    "rational_series": (180, 240),
    "quantum_torus": (160, 220),
}


def _long_sum(rng: Random, config: str, terms: int) -> str:
    if config == "quantum_torus":
        return _torus(rng, terms, span=12)
    kind, lo = LONG_CONFIGS[config]
    # Exponents repeat now and then, so additions also merge coefficients.
    exps = [rng.randint(lo, lo + 400) for _ in range(terms)]
    return _join(rng, [f"{_coef(kind, rng)}*X^{e}" for e in exps])


def _nested(rng: Random, config: str, depth: int, terms: int) -> str:
    chunk = max(1, terms // depth)
    text = _long_sum(rng, config, chunk)
    for _ in range(depth - 1):
        text = f"({text}) + {_long_sum(rng, config, chunk)}"
    return text


def _text_job(lab, config: str, text: str) -> Job:
    if config == "rational_series":
        return _cli("series rational_series long", "series", config,
                    "--precision", 512, f"{text} + O(X^512)",
                    oracle=_reparse_oracle(lab, config, 512))
    return _cli(f"eval {config} long", "eval", config, text,
                oracle=_reparse_oracle(lab, config))


def long_expressions_round(rng: Random, dial: Dial, lab) -> list[Job]:
    """Long sums, a few products of sums and deep nesting: the text path
    (parse, additive canonicalisation, rendering)."""
    jobs = []
    for config, (lo, hi) in LONG_TERMS.items():
        for _ in range(2):
            text = _long_sum(rng, config, dial.int(lo, hi))
            jobs.append(_text_job(lab, config, text))
        depth = dial.int(10, 50)
        jobs.append(_text_job(lab, config, _nested(rng, config, depth,
                                                   dial.int(lo, hi))))
    for config in ("complex_laurent", "rational_series"):
        kind = LONG_CONFIGS[config][0]
        short = _sparse(rng, kind, 0, 3, dial.int(2, 3))
        text = f"({short})*({_long_sum(rng, config, dial.int(*LONG_TERMS[config]))})"
        jobs.append(_text_job(lab, config, text))
    return jobs


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[Random, Dial, object], list[Job]]
    configs: tuple[str, ...]
    trace_rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("falsify", falsify_round,
                 ("weyl", "quantum_torus", "quaternion_ore", "complex_laurent",
                  "rational_series"), 3),
        Workload("high-degree", high_degree_round,
                 ("weyl", "doubler_ore", "complex_laurent", "quantum_torus",
                  "quaternion_series", "quaternion_ore"), 2),
        Workload("wide-coefficients", wide_coefficients_round,
                 tuple(WIDE_RINGS), 2),
        Workload("long-expressions", long_expressions_round,
                 ("weyl", "complex_laurent", "rational_series", "quantum_torus"), 2),
    )
}


def rounds(workload: Workload, seed: int, lab):
    """The endless round sequence for ``seed``; jobs are shuffled per round."""
    rng = Random(f"{workload.name}:{seed}")
    dial = Dial()
    while True:
        dial.next_round()
        jobs = workload.make_round(rng, dial, lab)
        rng.shuffle(jobs)
        yield jobs


# Inputs that must be refused with exit 2 and a one-line ``error:``; they run
# once per benchmark run, outside the timed loop, and are reported apart.
def error_probes() -> list[Job]:
    deep = "(" * 3000 + "X" + ")" * 3000
    return [
        _cli("probe trials -1", "check", "weyl", "nucleus", "--trials", -1,
             expect_exit=2),
        Job("probe list config",
            ["eval", "--config", str(OWN / "error_list_top_level.json"), "1"],
            expect_exit=2),
        Job("probe bool precision",
            ["series", "--config", str(OWN / "error_precision_bool.json"), "1"],
            expect_exit=2),
        _cli("probe 3000 parentheses", "eval", "weyl", deep, expect_exit=2),
    ]
