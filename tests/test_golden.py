"""Byte-for-byte pins of CLI output and of failing falsifier reports.

``golden/cli.json`` holds outputs captured from a known-good build. Its
``cli`` list is the one table of CLI pins: each case is an argument list, a
shipped config name, an inline config object or none, and the exact stdout,
stderr and exit status. It holds

* every check suite on each shipped config at ``--trials 20 --seed 0``, in
  text and JSON, and the counterexample demo at ``--trials 50``;
* ``eval``/``series``/``mul``/``associator`` inputs that reach every branch
  of the expression evaluator (Ore, Laurent with negative powers, iterated
  Laurent, plain elements, matrix literals, ``O(X^p)`` alone, polynomials
  meeting series on either side of ``+``, ``-`` and ``*``);
* the JSON output of ``mul``, ``divide`` and ``series --precision``, and the
  value commands' refusals in their order (``series`` on a non-series
  structure before a ``--precision`` below 1, ``divide`` off Ore);
* the installed-script cases: worked examples over inline configs
  (octonion Laurent, complex series windows, matrix rings, Cayley-Dickson
  over ``Q[Y]``, a torus with negative ``q``), parse and print-size errors,
  refused configs, each with its exact one-line ``error:``, and the check
  suites at their default seed;
* every command in README's "Command line" block.

The tests here run each case through ``cli.main`` in-process, writing an
inline config to a temporary file. CI runs the same cases through the
installed ``skewlab`` script, from outside the checkout.

The file also pins ``evaluate`` on the two targets no session config builds
(a power series over an Ore context and plain elements), the exact report of
a failing run of each sampling verifier, of each half of
``sigma_ideal_image_check``, and of the two verifiers that skip a map without
an inverse (the only passing reports pinned: zero trials, the seed kept).

A change that alters none of the program's answers leaves every case equal.
"""

import json
import re
import shlex
from pathlib import Path
from unittest.mock import patch

import pytest

from skewlab import noetherian
from skewlab.cli import main
from skewlab.expr import EvalTarget, evaluate, parse
from skewlab.maps import (
    CoefficientDoubler,
    CounterexampleSigma,
    FormalDerivative,
    SigmaQComplex,
    TransposeMap,
    TwistMap,
    ZeroMap,
    verify_additive,
    verify_injective,
    verify_inverse_roundtrip,
    verify_multiplicative,
    verify_sigma_derivation,
    verify_surjective,
)
from skewlab.rings import OCTONIONS_Q, RATIONALS, Matrix, Poly1
from skewlab.skewpoly import OreContext

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text())


class Squaring(TwistMap):
    """Not additive: (a + b)^2 != a^2 + b^2."""

    kind = "squaring"

    def __init__(self):
        super().__init__(RATIONALS, set(), False)

    def value(self, v):
        return v * v


class WrongInverse(TwistMap):
    """Doubles, but bundles the identity as its inverse."""

    kind = "wrong_inverse"

    def __init__(self):
        super().__init__(RATIONALS, set(), True)

    def value(self, v):
        return v + v

    def inverse_value(self, v):
        return v


class LeakySigma(CounterexampleSigma):
    """The counterexample sigma, except that ``Y^4`` goes to ``Y``, outside
    ``(Y^2)``."""

    @staticmethod
    def image_exponents(a, b):
        if (a, b) == (4, 0):
            return (1, 0)
        return CounterexampleSigma.image_exponents(a, b)


def leaky_sigma_ideal_image_check(bound):
    """From bound 4 up, the exhaustive half reaches ``Y^4`` after the
    ``3 * (bound + 1)`` monomials ``Y^a Z^b`` with ``a < 4``; below it, only a
    sampled ``Y*h`` whose ``h`` has a ``Y^3`` term does."""
    with patch.object(noetherian, "CounterexampleSigma", LeakySigma):
        return noetherian.sigma_ideal_image_check(samples=200, bound=bound, seed=2)


VERIFY_CASES = {
    "additive": lambda: verify_additive(Squaring(), 100, seed=0),
    "multiplicative": lambda: verify_multiplicative(SigmaQComplex(2), 100, seed=0),
    "multiplicative-transpose": lambda: verify_multiplicative(
        TransposeMap(Matrix(2)), 100, seed=3
    ),
    "injective": lambda: verify_injective(ZeroMap(RATIONALS), 100, seed=0),
    "surjective": lambda: verify_surjective(WrongInverse(), 100, seed=0),
    "inverse": lambda: verify_inverse_roundtrip(WrongInverse(), 100, seed=0),
    "surjective-skipped": lambda: verify_surjective(ZeroMap(RATIONALS), 100, seed=3),
    "inverse-skipped": lambda: verify_inverse_roundtrip(
        ZeroMap(RATIONALS), 100, seed=3
    ),
    "sigma-ideal-image-exhaustive": lambda: leaky_sigma_ideal_image_check(12),
    "sigma-ideal-image-sampled": lambda: leaky_sigma_ideal_image_check(3),
    "sigma-derivation": lambda: verify_sigma_derivation(
        CoefficientDoubler(Poly1()), FormalDerivative(Poly1()), 200, seed=5
    ),
}


EVAL_TARGETS = {
    "ore-power-series": lambda: EvalTarget(
        "power_series",
        Poly1(),
        context=OreContext(Poly1(), CoefficientDoubler(Poly1()), ZeroMap(Poly1())),
        precision=5,
    ),
    "element": lambda: EvalTarget("element", OCTONIONS_Q),
}


def _case_id(case):
    return " ".join(case["argv"])[:80]


@pytest.mark.parametrize("case", GOLDEN["cli"], ids=_case_id)
def test_cli_output_is_pinned(case, tmp_path, capsys):
    config = case["config"]
    if isinstance(config, dict):
        path = tmp_path / "session.json"
        path.write_text(json.dumps(config))
    elif config is not None:
        path = ROOT / "configs" / config
    argv = [str(path) if a == "{config}" else a for a in case["argv"]]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        case["exit"],
        case["stdout"],
        case["stderr"],
    )


@pytest.mark.parametrize("name", sorted(EVAL_TARGETS))
def test_library_evaluation_is_pinned(name):
    target = EVAL_TARGETS[name]()
    got = {
        text: str(evaluate(parse(text, target.profile()), target))
        for text in GOLDEN["evaluate"][name]
    }
    assert got == GOLDEN["evaluate"][name]


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_failing_verifier_report_is_pinned(name):
    report = VERIFY_CASES[name]()
    assert report.passed == name.endswith("-skipped")
    assert report.to_dict() == GOLDEN["verify"][name]


def test_golden_file_covers_every_case():
    assert set(GOLDEN["verify"]) == set(VERIFY_CASES)
    assert set(GOLDEN["evaluate"]) == set(EVAL_TARGETS)


def test_readme_command_line_examples_are_pinned():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    examples = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("skewlab ")]
    pinned = [
        [f"configs/{case['config']}" if a == "{config}" else a for a in case["argv"]]
        for case in GOLDEN["cli"]
        if not isinstance(case["config"], dict)
    ]
    assert examples
    assert [argv for argv in examples if argv not in pinned] == []
