"""Check that the benchmark repeats itself exactly.

    python3 bench/repeat.py [--workloads falsify ...] [--seed 7]

For each workload:

* two traced runs on the same seed must report identical work counts
  (``*.calls``, ``*.cells``, ``*.term_pairs``, ``*.steps``, ``*.spans`` and
  every ``*_frac`` except the tracer's timing overhead) and identical output
  digests;
* untraced runs under ``PYTHONHASHSEED`` 0 and 1 must print the same output
  digest over their first jobs.

Exits 1 when anything differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
sys.path.insert(0, str(RUN.parent))

from workloads import WORKLOADS  # noqa: E402

COUNT_SUFFIXES = (".calls", ".cells", ".term_pairs", ".steps", ".spans", "_frac")
TIMING = {"trace.overhead_frac"}


def run(workload: str, seed: int, trace: int, hash_seed: str) -> tuple[list[str], dict]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True, env=env,
    )
    lines = proc.stdout.strip().splitlines()
    digests = [ln for ln in lines if "output digest" in ln]
    return digests, json.loads(lines[-1])


def counts(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if name.endswith(COUNT_SUFFIXES) and name not in TIMING
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    problems = []
    for workload in args.workloads:
        (d1, r1), (d2, r2) = (run(workload, args.seed, 1, "0") for _ in range(2))
        c1, c2 = counts(r1), counts(r2)
        differing = sorted(k for k in c1 if c1[k] != c2.get(k))
        if differing:
            problems.append(f"{workload}: traced counts differ: {differing}")
        if d1 != d2:
            problems.append(f"{workload}: traced runs print different digests")
        h0, _ = run(workload, args.seed, 0, "0")
        h1, _ = run(workload, args.seed, 0, "1")
        if h0 != h1:
            problems.append(f"{workload}: digest depends on PYTHONHASHSEED")
        print(f"{workload}: {len(c1)} counts compared; traced {d1[-1]}; "
              f"untraced {h0[-1]}")
    for p in problems:
        print("MISMATCH", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
