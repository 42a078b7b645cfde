"""Byte-for-byte pins of CLI output and of failing falsifier reports.

``golden/cli.json`` holds outputs captured from a known-good build:

* stdout, stderr and exit status of every check suite on each shipped
  config at ``--trials 20 --seed 0``, in text and JSON;
* the counterexample demo at ``--trials 50``;
* ``eval``/``series``/``mul``/``associator`` inputs that reach every branch
  of the expression evaluator (Ore, Laurent with negative powers, iterated
  Laurent, plain elements, matrix literals, ``O(X^p)`` alone, polynomials
  meeting series on either side of ``+``, ``-`` and ``*``);
* ``evaluate`` on the two targets no session config builds: a power series
  over an Ore context and plain elements;
* the exact report of a failing run of each sampling verifier.

A change that alters none of the program's answers leaves every case equal.
"""

import json
from pathlib import Path

import pytest

from skewlab.cli import main
from skewlab.expr import EvalTarget, evaluate, parse
from skewlab.maps import (
    CoefficientDoubler,
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


VERIFY_CASES = {
    "additive": lambda: verify_additive(Squaring(), 100, seed=0),
    "multiplicative": lambda: verify_multiplicative(SigmaQComplex(2), 100, seed=0),
    "multiplicative-transpose": lambda: verify_multiplicative(
        TransposeMap(Matrix(2)), 100, seed=3
    ),
    "injective": lambda: verify_injective(ZeroMap(RATIONALS), 100, seed=0),
    "surjective": lambda: verify_surjective(WrongInverse(), 100, seed=0),
    "inverse": lambda: verify_inverse_roundtrip(WrongInverse(), 100, seed=0),
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
    assert not report.passed
    assert report.to_dict() == GOLDEN["verify"][name]


def test_golden_file_covers_every_case():
    assert set(GOLDEN["verify"]) == set(VERIFY_CASES)
    assert set(GOLDEN["evaluate"]) == set(EVAL_TARGETS)
