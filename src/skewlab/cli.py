"""Command line: evaluate expressions, divide, run suites and demos.

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

    p_eval = sub.add_parser("eval", help="evaluate one expression")
    add_common(p_eval)
    p_eval.add_argument("expression")

    p_mul = sub.add_parser("mul", help="multiply two expressions (left times right)")
    add_common(p_mul)
    p_mul.add_argument("left")
    p_mul.add_argument("right")

    p_assoc = sub.add_parser(
        "associator", help="compute (a*b)*c - a*(b*c) for three expressions"
    )
    add_common(p_assoc)
    p_assoc.add_argument("a")
    p_assoc.add_argument("b")
    p_assoc.add_argument("c")

    p_div = sub.add_parser(
        "divide", help="right-divide a dividend by generators, with a replayed trace"
    )
    add_common(p_div)
    p_div.add_argument("dividend")
    p_div.add_argument("generators", nargs="+")

    p_series = sub.add_parser(
        "series", help="evaluate in a series structure (accepts O(X^p) markers)"
    )
    add_common(p_series)
    p_series.add_argument("expression")
    p_series.add_argument("--precision", type=int, default=None,
                          help="override the session precision")

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


def _emit_json(payload: dict):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _session(args) -> Session:
    if not args.config:
        raise ConfigError("this command needs --config")
    return load_session(args.config)


def _value_payload(command: str, session: Session, inputs, value) -> dict:
    return {
        "command": command,
        "structure": session.structure,
        "inputs": list(inputs),
        "value": str(value),
    }


def _cmd_eval(args) -> int:
    session = _session(args)
    value = session.evaluate(args.expression)
    if args.format == "json":
        _emit_json(_value_payload("eval", session, [args.expression], value))
    else:
        print(value)
    return 0


def _cmd_mul(args) -> int:
    session = _session(args)
    value = session.evaluate(args.left) * session.evaluate(args.right)
    if args.format == "json":
        _emit_json(_value_payload("mul", session, [args.left, args.right], value))
    else:
        print(value)
    return 0


def _cmd_associator(args) -> int:
    session = _session(args)
    a = session.evaluate(args.a)
    b = session.evaluate(args.b)
    c = session.evaluate(args.c)
    value = poly_associator(a, b, c)
    if args.format == "json":
        _emit_json(
            _value_payload("associator", session, [args.a, args.b, args.c], value)
        )
    else:
        print(value)
    return 0


def _cmd_divide(args) -> int:
    session = _session(args)
    if session.structure != "ore":
        raise ConfigError("divide needs an ore structure")
    dividend = session.evaluate(args.dividend)
    generators = [session.evaluate(g) for g in args.generators]
    trace = right_divide(dividend, generators)
    replay_exact = trace.replay(generators) == dividend
    if args.format == "json":
        _emit_json(
            {
                "command": "divide",
                "structure": session.structure,
                "dividend": args.dividend,
                "generators": list(args.generators),
                "remainder": str(trace.remainder),
                "steps": [
                    {
                        "generator": s.generator_index,
                        "shift": s.shift,
                        "multipliers": [str(s.multiplier)],
                    }
                    for s in trace.steps
                ],
                "replay_exact": replay_exact,
            }
        )
    else:
        print(f"remainder: {trace.remainder}")
        for idx, s in enumerate(trace.steps, 1):
            print(
                f"step {idx}: generator {s.generator_index}, "
                f"shift {s.shift}, multiplier {s.multiplier}"
            )
        print(f"replay: {'exact' if replay_exact else 'MISMATCH'}")
    return 0 if replay_exact else 1


def _cmd_series(args) -> int:
    session = _session(args)
    if session.structure not in SERIES_STRUCTURES:
        raise ConfigError(f"series needs a {' or '.join(SERIES_STRUCTURES)} structure")
    if args.precision is not None:
        if args.precision < 1:
            raise ConfigError("precision must be >= 1")
        target = replace(session.target, precision=args.precision)
        session = replace(session, target=target, precision=args.precision)
    value = session.evaluate(args.expression)
    if args.format == "json":
        _emit_json(_value_payload("series", session, [args.expression], value))
    else:
        print(value)
    return 0


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
    if args.format == "json":
        _emit_json(report.to_dict())
    else:
        print(report.to_text())
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
    if args.format == "json":
        _emit_json(report.to_dict())
    else:
        print(report.to_text())
    return 0 if report.corroborated else 1


_COMMANDS = {
    "eval": _cmd_eval,
    "mul": _cmd_mul,
    "associator": _cmd_associator,
    "divide": _cmd_divide,
    "series": _cmd_series,
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
