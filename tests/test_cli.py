"""Command-line tests: subcommands, exit codes, deterministic output."""

import argparse
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewlab import config as config_module
from skewlab.cli import build_parser, main
from skewlab.maps import SigmaQComplex

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

WEYL = {
    "ring": {"poly1": {"variable": "Y"}},
    "sigma": {"kind": "identity"},
    "delta": {"kind": "formal_derivative"},
    "structure": "ore",
}
SIGMA2 = {
    "ring": {"cayley_dickson": {"level": 1}},
    "sigma": {"kind": "sigma_q_complex", "q": "2"},
    "structure": "laurent",
}
QUAT_ORE = {
    "ring": {"cayley_dickson": {"level": 2}},
    "sigma": {"kind": "conjugation"},
    "structure": "ore",
}
POWER = {
    "ring": "rationals",
    "sigma": {"kind": "identity"},
    "structure": "power_series",
    "precision": 16,
}


@pytest.fixture
def cfg(tmp_path):
    def write(payload):
        path = tmp_path / f"cfg{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_weyl(capsys, cfg):
    code, out, _ = run(capsys, ["eval", "--config", cfg(WEYL), "X*Y - Y*X"])
    assert code == 0
    assert out.strip() == "1"


def test_eval_json_payload(capsys, cfg):
    code, out, _ = run(
        capsys,
        ["eval", "--config", cfg(SIGMA2), "--format", "json", "(X*i)*i - X*(i*i)"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "-3*X"
    assert payload["structure"] == "laurent"


def test_mul_and_associator(capsys, cfg):
    path = cfg(SIGMA2)
    code, out, _ = run(capsys, ["mul", "--config", path, "X", "i"])
    assert code == 0 and out.strip() == "2*i*X"
    code, out, _ = run(capsys, ["associator", "--config", path, "X", "i", "i"])
    assert code == 0 and out.strip() == "-3*X"


def test_divide_quaternions(capsys, cfg):
    code, out, _ = run(
        capsys,
        ["divide", "--config", cfg(QUAT_ORE), "--format", "json", "X*X", "j*X"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["remainder"] == "0"
    assert payload["replay_exact"] is True
    assert payload["steps"][0]["generator"] == 0


def test_series_command(capsys, cfg):
    path = cfg(POWER)
    code, out, _ = run(capsys, ["series", "--config", path, "1 + X + O(X^4)"])
    assert code == 0 and out.strip() == "1 + X + O(X^4)"
    code, out, _ = run(
        capsys, ["series", "--config", path, "--precision", "5", "1 + X"]
    )
    assert code == 0 and out.strip() == "1 + X + O(X^5)"


@pytest.mark.parametrize(
    "argv, printed",
    [
        (["--precision", "100000000", "1 + X"], "1 + X + O(X^100000000)"),
        (
            ["(1 + X + O(X^100000000))*(1 - X + O(X^100000000))"],
            "1 - X^2 + O(X^100000000)",
        ),
    ],
    ids=["precision-flag", "tail-product"],
)
def test_series_cost_does_not_grow_with_precision(capsys, argv, printed):
    # A window that stored one coefficient per exponent would build a
    # 10^8-entry tuple here and not finish in reasonable time.
    config = str(CONFIGS / "rational_power_series.json")
    code, out, err = run(capsys, ["series", "--config", config] + argv)
    assert (code, out, err) == (0, printed + "\n", "")


def test_check_suites_pass(capsys, cfg):
    path = cfg(WEYL)
    for suite, extra in (
        ("ring-axioms", []),
        ("map-claims", []),
        ("nucleus", ["--n", "3"]),
        ("associativity-dichotomy", []),
    ):
        code, out, _ = run(
            capsys,
            ["check", suite, "--config", path, "--trials", "50"] + extra,
        )
        assert code == 0, f"{suite}: {out}"
        assert "all checks passed" in out


def test_weyl_nucleus_check_at_a_high_power(capsys):
    # With sigma the identity, each Leibniz row costs a few delta
    # applications whatever the power of X, so X^100000 is cheap to check.
    config = str(CONFIGS / "weyl.json")
    argv = ["check", "nucleus", "--config", config, "--n", "100000", "--trials", "20"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert "ok   nucleus:X^100000: no violation found in 20 trials" in out
    assert "all checks passed" in out


def test_check_division_and_series(capsys, cfg):
    code, out, _ = run(
        capsys,
        ["check", "division-roundtrip", "--config", cfg(QUAT_ORE), "--trials", "25"],
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        ["check", "series-precision", "--config", cfg(POWER), "--trials", "25"],
    )
    assert code == 0


def test_check_counterexample_without_config(capsys):
    code, out, _ = run(
        capsys,
        ["check", "counterexample", "--trials", "50", "--seed", "3", "--m", "1"],
    )
    assert code == 0
    assert "corroborated" in out


def test_check_exit_one_on_violation(capsys, cfg):
    # one trial whose sampled triple happens to associate: the predicted
    # non-associativity finds no witness, an honest inconsistency
    code, out, _ = run(
        capsys,
        [
            "check",
            "associativity-dichotomy",
            "--config",
            cfg(SIGMA2),
            "--trials",
            "1",
            "--seed",
            "1",
        ],
    )
    assert code == 1
    assert "VIOLATIONS FOUND" in out


def test_demo_counterexample(capsys):
    argv = [
        "demo",
        "counterexample",
        "--m",
        "2",
        "--trials",
        "100",
        "--seed",
        "42",
        "--format",
        "json",
    ]
    code, out, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["corroborated"] is True
    assert payload["m"] == 2


def test_fixed_seed_output_is_byte_identical(capsys, cfg):
    path = cfg(SIGMA2)
    argv = [
        "check",
        "associativity-dichotomy",
        "--config",
        path,
        "--trials",
        "60",
        "--seed",
        "7",
        "--format",
        "json",
    ]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_usage_and_parse_errors_exit_two(capsys, cfg, tmp_path):
    path = cfg(WEYL)
    code, _, err = run(capsys, ["eval", "--config", path, "X^-1"])
    assert code == 2 and "negative exponents" in err
    code, _, err = run(capsys, ["eval", "--config", path, "2 +"])
    assert code == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    code, _, err = run(capsys, ["eval", "--config", str(broken), "1"])
    assert code == 2
    code, _, err = run(capsys, ["check", "ring-axioms"])
    assert code == 2 and "needs a --config" in err
    with pytest.raises(SystemExit) as exc:
        main(["check", "not-a-suite", "--config", path])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "config, argv, message",
    [
        ([POWER], ["eval", "1"], "error: config must be a JSON object, not list"),
        ({**POWER, "precision": True}, ["series", "1"], "error: series structures"),
        (WEYL, ["eval", "(" * 3000 + "X" + ")" * 3000], "error: expression nests"),
        (WEYL, ["check", "counterexample", "--m", "0"], "error: max_generator_degree"),
        (
            {"ring": {"matrix": {"n": 2.5}}, "sigma": {"kind": "identity"}, "structure": "ore"},
            ["eval", "1"],
            "error: matrix needs an integer 'n', got 2.5",
        ),
        (
            {"ring": {"matrix": [2]}, "sigma": {"kind": "identity"}, "structure": "ore"},
            ["eval", "1"],
            "error: ring record 'matrix' needs a JSON object, got [2]",
        ),
        (
            {**WEYL, "ring": {"poly1": {"variable": "X"}}},
            ["eval", "1"],
            "error: 'X' cannot name a polynomial variable",
        ),
    ],
)
def test_malformed_input_exits_two_with_one_error_line(capsys, cfg, config, argv, message):
    command, *rest = argv
    code, out, err = run(capsys, [command, "--config", cfg(config), *rest])
    assert code == 2
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1


@pytest.mark.parametrize(
    "expression, value",
    [(" + ".join(["X"] * 3000), "3000*X"), ("*".join(["Y"] * 3000), "Y^3000")],
    ids=["sum", "product"],
)
def test_flat_chains_of_thousands_of_terms_evaluate(capsys, cfg, expression, value):
    code, out, err = run(capsys, ["eval", "--config", cfg(WEYL), expression])
    assert (code, out, err) == (0, value + "\n", "")


@pytest.mark.parametrize(
    "suite, trials", [("nucleus", "-1"), ("ring-axioms", "0"), ("counterexample", "0")]
)
def test_check_rejects_trial_counts_below_one(capsys, cfg, suite, trials):
    code, out, err = run(
        capsys, ["check", suite, "--config", cfg(WEYL), "--trials", trials]
    )
    assert code == 2
    assert out == ""
    assert err == f"error: --trials must be at least 1, got {trials}\n"


@pytest.mark.parametrize(
    "config",
    [
        {**POWER, "ring": {"poly1": {}}, "sigma": {"kind": "formal_derivative"}},
        {**POWER, "sigma": {"kind": "zero"}},
    ],
    ids=["formal_derivative", "zero"],
)
def test_power_series_sigma_must_respect_one(capsys, cfg, config):
    code, out, err = run(capsys, ["series", "--config", cfg(config), "1"])
    assert (code, out) == (2, "")
    assert err == "error: invalid configuration: sigma map must claim ['respects_one']\n"


class FiveInverse(SigmaQComplex):
    """sigma_q with an inverse that scales the imaginary part by 5."""

    def inverse_value(self, v):
        return self.domain.scale_imaginary_value(v, Fraction(5))


def test_iterated_laurent_refuses_a_sigma_whose_inverse_fails(capsys, cfg, monkeypatch):
    # Accepted, this sigma would make X2*(X2^-1*i) equal 10*i.
    monkeypatch.setattr(config_module, "SigmaQComplex", FiveInverse)
    config = {
        "ring": {"cayley_dickson": {"level": 1}},
        "sigmas": [{"kind": "identity"}, {"kind": "sigma_q_complex", "q": "2"}],
        "structure": "iterated_laurent",
    }
    code, out, err = run(capsys, ["eval", "--config", cfg(config), "X2*(X2^-1*i)"])
    assert (code, out) == (2, "")
    assert err == "error: invalid configuration: sigma 1 inverse round trip failed at i\n"


def test_cayley_dickson_over_poly1_has_units_and_variables(capsys, cfg):
    config = {
        "ring": {"cayley_dickson": {"level": 1, "base": {"poly1": {}}}},
        "sigma": {"kind": "identity"},
        "structure": "ore",
    }
    argv = ["eval", "--config", cfg(config), "(Y*i + 1)*(Y*i - 1)"]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (0, "-1 - Y^2\n", "")


def test_nested_cayley_dickson_ring_is_refused(capsys, cfg):
    config = {
        "ring": {"cayley_dickson": {"level": 1, "base": {"cayley_dickson": {"level": 1}}}},
        "sigma": {"kind": "identity"},
        "structure": "laurent",
    }
    code, out, err = run(capsys, ["eval", "--config", cfg(config), "i*X + i"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "basis names would collide" in err


@pytest.mark.parametrize(
    ("level", "base", "name"),
    [
        (2, {"poly1": {"variable": "i"}}, "i"),
        (1, {"poly2": {"variables": ["Y", "e1"]}}, "e1"),
        (3, {"jordan_plus": {"base": {"poly1": {"variable": "k"}}}}, "k"),
    ],
    ids=["level2-poly1-i", "level1-poly2-e1", "level3-jordan-poly1-k"],
)
def test_cayley_dickson_refuses_a_variable_named_like_a_unit(capsys, cfg, level,
                                                             base, name):
    config = {
        "ring": {"cayley_dickson": {"level": level, "base": base}},
        "sigma": {"kind": "identity"},
        "structure": "ore",
    }
    code, out, err = run(capsys, ["eval", "--config", cfg(config), "i*j"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"polynomial variable named {name!r}: it names a unit" in err


def test_cayley_dickson_level_one_over_a_variable_j_loads(capsys, cfg):
    config = {
        "ring": {"cayley_dickson": {"level": 1, "base": {"poly1": {"variable": "j"}}}},
        "sigma": {"kind": "conjugation"},
        "structure": "ore",
    }
    code, out, err = run(capsys, ["eval", "--config", cfg(config), "(j + i)*(j - i)"])
    assert (code, out, err) == (0, "1 + j^2\n", "")


def test_divide_requires_ore(capsys, cfg):
    code, _, err = run(capsys, ["divide", "--config", cfg(SIGMA2), "X", "i"])
    assert code == 2 and "ore structure" in err


@pytest.mark.parametrize(
    "expression, error",
    [
        ("1/0", "literal has a zero denominator (at position 0)"),
        ("X^1/0", "literal has a zero denominator (at position 2)"),
        ("X^1.5", "exponent must be an integer (at position 2)"),
        ("X^3/2", "exponent must be an integer (at position 2)"),
        ("1.5/2*X", "unexpected character '/' (at position 3)"),
        ("X^1.5/2", "unexpected character '/' (at position 5)"),
        ("\u0663*X", "unexpected character '\u0663' (at position 0)"),
        pytest.param(
            "2*X + " + "1" * 5000,
            "literal has too many digits (at position 6)",
            id="5000-digit-literal",
        ),
    ],
)
def test_bad_number_tokens_exit_two(capsys, cfg, expression, error):
    code, out, err = run(capsys, ["eval", "--config", cfg(SIGMA2), expression])
    assert (code, out, err) == (2, "", f"error: {error}\n")


def test_power_series_refuses_a_negative_tail_precision(capsys, cfg):
    config = str(CONFIGS / "rational_power_series.json")
    code, out, err = run(capsys, ["series", "--config", config, "1 + O(X^-1)"])
    assert (code, out) == (2, "")
    assert err == (
        "error: negative exponents on X are not allowed in power_series "
        "structures (at position 4)\n"
    )
    laurent = {**POWER, "structure": "laurent_series"}
    code, out, err = run(capsys, ["series", "--config", cfg(laurent), "1 + O(X^-1)"])
    assert (code, out, err) == (0, "O(X^-1)\n", "")



def test_power_series_refuses_a_zero_tail_precision(capsys, cfg):
    # A zero window keeps no coefficient, as --precision 0 would not.
    config = str(CONFIGS / "rational_power_series.json")
    code, out, err = run(capsys, ["series", "--config", config, "1 + O(X^0)"])
    assert (code, out) == (2, "")
    assert err == (
        "error: the tail precision must be >= 1 in power_series structures "
        "(at position 4)\n"
    )
    laurent = {**POWER, "structure": "laurent_series"}
    code, out, err = run(capsys, ["series", "--config", cfg(laurent), "1 + O(X^0)"])
    assert (code, out, err) == (0, "O(X^0)\n", "")


def test_a_coefficient_too_long_to_print_is_a_domain_error(capsys):
    # sigma doubles the imaginary part, so X^15000*i = 2^15000*i*X^15000,
    # whose coefficient has 4516 digits.
    config = str(CONFIGS / "complex_sigma2_laurent.json")
    code, out, err = run(capsys, ["eval", "--config", config, "X^15000*i"])
    limit = sys.get_int_max_str_digits()
    assert (code, out) == (2, "")
    assert err == (
        f"error: a coefficient has 4516 digits, more than the {limit} that can "
        "be printed\n"
    )


def test_a_rational_coefficient_too_long_to_print_is_a_domain_error(capsys):
    # X1*Y = 2*Y*X1 on the quantum torus, so X1^15000*Y = 2^15000*Y*X1^15000,
    # whose rational coefficient has 4516 digits.
    config = str(CONFIGS / "quantum_torus.json")
    code, out, err = run(capsys, ["eval", "--config", config, "X1^15000*Y"])
    limit = sys.get_int_max_str_digits()
    assert (code, out) == (2, "")
    assert err == (
        f"error: a coefficient has 4516 digits, more than the {limit} that can "
        "be printed\n"
    )


def test_matrix_literals_over_complex_entries(capsys, cfg):
    # Matrix.canon receives the entries as canonical complex values, and the
    # entries of a literal may name the base ring's constants; outside a
    # literal those are no constants of the matrix ring.
    matrix = {
        "ring": {"matrix": {"n": 2, "base": {"cayley_dickson": {"level": 1}}}},
        "sigma": {"kind": "identity"},
        "structure": "ore",
    }
    config = cfg(matrix)
    expression = "[[1/2, 1], [0, 2]]*[[1, 3], [1, 0]]*X"
    code, out, err = run(capsys, ["eval", "--config", config, expression])
    assert (code, out, err) == (0, "[[3/2, 3/2], [2, 0]]*X\n", "")
    expression = "[[1/2 + i, 1], [0, 2*i]]*X*[[1, 3], [1/3*i, 0]]"
    code, out, err = run(capsys, ["eval", "--config", config, expression])
    assert (code, out, err) == (0, "[[1/2 + 4/3*i, 3/2 + 3*i], [-2/3, 0]]*X\n", "")
    code, out, err = run(capsys, ["eval", "--config", config, "[[i, 0], [0, i]]*X + i"])
    assert (code, out, err) == (2, "", "error: unknown constant 'i' (at position 21)\n")


def test_matrix_literal_entries_name_no_indeterminate(capsys, cfg):
    # Entries are base-ring values, so X inside a literal is refused at its
    # position, like any other name the base ring does not know.
    config = cfg({"ring": {"matrix": {"n": 3}}, "sigma": {"kind": "transpose"},
                  "structure": "ore"})
    for name in ("X", "Y"):
        expression = f"[[1, 0, 0], [0, {name}, 0], [0, 0, 1]]*X"
        code, out, err = run(capsys, ["eval", "--config", config, expression])
        assert (code, out) == (2, "")
        assert err == f"error: unknown constant '{name}' (at position 16)\n"


# Numbers end in a blank, so no run of digits makes a large exponent and the
# fuzz stays fast.
_FUZZ_TOKENS = [
    "1 ", "2 ", "3/4 ", "0.5 ", "1/0 ", "X", "X1", "X2", "Y", "i", "j", "w", "O",
    "+", "-", "*", "^", "(", ")", "[", "]", ",", ".", "/", " ", "\t", "\n",
    "$", "\u00e9", "\u0663", "\uff11", "\u00a0",
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["eval", "series"]),
    config=st.sampled_from(sorted(CONFIGS.glob("*.json"))),
    expression=st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=14).map("".join),
)
def test_fuzzed_expressions_exit_cleanly(command, config, expression):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main([command, "--config", str(config), "--", expression])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: "))


def _parser_surface(parser, name="skewlab"):
    """``{command path: [(option strings, dest, default, choices, required,
    nargs), ...]}`` for ``parser`` and every subparser below it."""
    rows, subs = [], {}
    for action in parser._actions:
        choices = None if action.choices is None else list(action.choices)
        rows.append((action.option_strings, action.dest, action.default, choices,
                     action.required, action.nargs))
        if isinstance(action, argparse._SubParsersAction):
            for sub_name, sub in action.choices.items():
                subs.update(_parser_surface(sub, f"{name} {sub_name}"))
    return {name: rows, **subs}


_HELP = (["-h", "--help"], "help", argparse.SUPPRESS, None, False, 0)
_FORMAT = (["--format"], "format", "text", ["text", "json"], False, None)
_CONFIG = (["--config"], "config", None, None, True, None)


def _positional(dest, choices=None, nargs=None):
    return ([], dest, None, choices, True, nargs)


# Help text is left out: its layout differs between Python versions.
PARSER_SURFACE = {
    "skewlab": [
        _HELP,
        _positional("command", ["eval", "mul", "associator", "divide", "series",
                                "check", "demo"], argparse.PARSER),
    ],
    "skewlab eval": [_HELP, _CONFIG, _FORMAT, _positional("expression")],
    "skewlab mul": [_HELP, _CONFIG, _FORMAT, _positional("left"),
                    _positional("right")],
    "skewlab associator": [_HELP, _CONFIG, _FORMAT, _positional("a"),
                           _positional("b"), _positional("c")],
    "skewlab divide": [_HELP, _CONFIG, _FORMAT, _positional("dividend"),
                       _positional("generators", nargs="+")],
    "skewlab series": [
        _HELP, _CONFIG, _FORMAT, _positional("expression"),
        (["--precision"], "precision", None, None, False, None),
    ],
    "skewlab check": [
        _HELP,
        (["--config"], "config", None, None, False, None),
        _FORMAT,
        _positional("suite", ["ring-axioms", "map-claims", "nucleus",
                              "associativity-dichotomy", "division-roundtrip",
                              "series-precision", "counterexample"]),
        (["--trials"], "trials", 200, None, False, None),
        (["--seed"], "seed", 0, None, False, None),
        (["--n"], "n", None, None, False, None),
        (["--m"], "m", None, None, False, None),
    ],
    "skewlab demo": [_HELP, _positional("demo", ["counterexample"], argparse.PARSER)],
    "skewlab demo counterexample": [
        _HELP,
        (["--m"], "m", 2, None, False, None),
        (["--trials"], "trials", 500, None, False, None),
        (["--seed"], "seed", 42, None, False, None),
        (["--multiplier-bound"], "multiplier_bound", 4, None, False, None),
        (["--coefficient-bound"], "coefficient_bound", 4, None, False, None),
        _FORMAT,
    ],
}


def test_cli_parser_surface_is_pinned():
    assert _parser_surface(build_parser()) == PARSER_SURFACE
