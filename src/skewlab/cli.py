"""Command line: evaluate expressions, divide, run suites and demos.

The value commands (``eval``, ``mul``, ``associator``, ``series``) are one
table, ``_VALUE_COMMANDS``: each names its expression arguments and how their
values combine, and one function loads the session, evaluates them left to
right, combines them and prints the result. Every command prints through
``_emit``, as text or as JSON.

Exit codes: 0 on success, 1 when a check suite or demo finds a violation,
2 on usage, configuration, parse, or evaluation errors. Output with a fixed
seed is byte-identical between runs; JSON output is sorted and indented.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import lru_cache

from .config import ConfigError, Session, load_session
from .expr import SERIES_STRUCTURES
from .noetherian import CounterexampleConfig, counterexample_witness
from .rings import NotInvertible
from .skewpoly import poly_associator, right_divide
from .suites import SUITE_NAMES, run_suite

_USER_ERRORS = (ValueError, NotInvertible)


# The value commands: help text, the names of the expression arguments, and
# how their values, evaluated left to right, combine into the one printed.
# ``poly_associator`` is looked up per call, so a wrapper installed on this
# module's global (as the benchmark's tracer does) sees the call.
_VALUE_COMMANDS = {
    "eval": ("evaluate one expression", ("expression",), lambda value: value),
    "mul": (
        "multiply two expressions (left times right)", ("left", "right"),
        lambda a, b: a * b,
    ),
    "associator": (
        "compute (a*b)*c - a*(b*c) for three expressions", ("a", "b", "c"),
        lambda a, b, c: poly_associator(a, b, c),
    ),
    "series": (
        "evaluate in a series structure (accepts O(X^p) markers)", ("expression",),
        lambda value: value,
    ),
}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use."""
    parser = argparse.ArgumentParser(
        prog="skewlab",
        description=(
            "Exact computer algebra for twisted polynomial and series rings "
            "whose multiplication need not be associative."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", help="path to a session JSON file",
                       required=config_required)
        p.add_argument("--format", choices=("text", "json"), default="text")

    def add_value_command(name):
        help_text, arg_names, _ = _VALUE_COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        for arg in arg_names:
            p.add_argument(arg)
        return p

    for name in ("eval", "mul", "associator"):
        add_value_command(name)

    p_div = sub.add_parser(
        "divide", help="right-divide a dividend by generators, with a replayed trace"
    )
    add_common(p_div)
    p_div.add_argument("dividend")
    p_div.add_argument("generators", nargs="+")

    add_value_command("series").add_argument(
        "--precision", type=int, default=None, help="override the session precision"
    )

    p_check = sub.add_parser("check", help="run a property suite")
    add_common(p_check, config_required=False)
    p_check.add_argument("suite", choices=SUITE_NAMES)
    p_check.add_argument("--trials", type=int, default=200)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--n", type=int, default=None,
                         help="power of X for the nucleus suite")
    p_check.add_argument("--m", type=int, default=None,
                         help="max generator degree for the counterexample suite")

    p_demo = sub.add_parser("demo", help="run a demonstration")
    demo_sub = p_demo.add_subparsers(dest="demo", required=True)
    p_cx = demo_sub.add_parser(
        "counterexample",
        help="left finite-generation counterexample harness",
    )
    p_cx.add_argument("--m", type=int, default=2)
    p_cx.add_argument("--trials", type=int, default=500)
    p_cx.add_argument("--seed", type=int, default=42)
    p_cx.add_argument("--multiplier-bound", type=int, default=4)
    p_cx.add_argument("--coefficient-bound", type=int, default=4)
    p_cx.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _emit(args, payload: dict, text: str) -> None:
    """Print ``payload`` as sorted, indented JSON under ``--format json``,
    else ``text``."""
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)


def _session(args) -> Session:
    if not args.config:
        raise ConfigError("this command needs --config")
    return load_session(args.config)


def _cmd_value(args) -> int:
    session = _session(args)
    if args.command == "series":
        if session.structure not in SERIES_STRUCTURES:
            raise ConfigError(
                f"series needs a {' or '.join(SERIES_STRUCTURES)} structure"
            )
        if args.precision is not None:
            if args.precision < 1:
                raise ConfigError("precision must be >= 1")
            target = replace(session.target, precision=args.precision)
            session = replace(session, target=target, precision=args.precision)
    _, arg_names, combine = _VALUE_COMMANDS[args.command]
    inputs = [getattr(args, name) for name in arg_names]
    value = str(combine(*[session.evaluate(text) for text in inputs]))
    payload = {
        "command": args.command,
        "structure": session.structure,
        "inputs": inputs,
        "value": value,
    }
    _emit(args, payload, value)
    return 0


def _cmd_divide(args) -> int:
    session = _session(args)
    if session.structure != "ore":
        raise ConfigError("divide needs an ore structure")
    dividend = session.evaluate(args.dividend)
    generators = [session.evaluate(g) for g in args.generators]
    trace = right_divide(dividend, generators)
    replay_exact = trace.replay(generators) == dividend
    remainder = str(trace.remainder)
    steps = [(s.generator_index, s.shift, str(s.multiplier)) for s in trace.steps]
    payload = {
        "command": "divide",
        "structure": session.structure,
        "dividend": args.dividend,
        "generators": list(args.generators),
        "remainder": remainder,
        "steps": [
            {"generator": g, "shift": shift, "multipliers": [multiplier]}
            for g, shift, multiplier in steps
        ],
        "replay_exact": replay_exact,
    }
    lines = [f"remainder: {remainder}"]
    lines += [
        f"step {idx}: generator {g}, shift {shift}, multiplier {multiplier}"
        for idx, (g, shift, multiplier) in enumerate(steps, 1)
    ]
    lines.append(f"replay: {'exact' if replay_exact else 'MISMATCH'}")
    _emit(args, payload, "\n".join(lines))
    return 0 if replay_exact else 1


def _cmd_check(args) -> int:
    session = load_session(args.config) if args.config else None
    report = run_suite(
        args.suite,
        session,
        trials=args.trials,
        seed=args.seed,
        n=args.n,
        m=args.m,
    )
    _emit(args, report.to_dict(), report.to_text())
    return 0 if report.passed else 1


def _cmd_demo(args) -> int:
    cfg = CounterexampleConfig(
        max_generator_degree=args.m,
        trials=args.trials,
        multiplier_degree_bound=args.multiplier_bound,
        coefficient_degree_bound=args.coefficient_bound,
        seed=args.seed,
    )
    report = counterexample_witness(cfg)
    _emit(args, report.to_dict(), report.to_text())
    return 0 if report.corroborated else 1


_COMMANDS = {
    **dict.fromkeys(_VALUE_COMMANDS, _cmd_value),
    "divide": _cmd_divide,
    "check": _cmd_check,
    "demo": _cmd_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
