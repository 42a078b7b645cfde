"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 bench/spread.py --workloads falsify high-degree --seeds 1-10 \
        --seconds 20 [--trace 1] [--out bench/baseline.json]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
quartile distance as a share of the median. With ``--out`` the summary is
also written as JSON. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, s, args.seconds, args.trace) for s in args.seeds]
        metrics = {
            name: dict(summarise([r["metrics"][name]["value"] for r in runs]),
                       unit=runs[0]["metrics"][name]["unit"])
            for name in runs[0]["metrics"]
        }
        summary[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }
        print(f"{workload}: correct={summary[workload]['correct']} "
              f"attempted={summary[workload]['attempted']} "
              f"failed={summary[workload]['failed']}")
        for name, m in metrics.items():
            print(f"  {name:44s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {m['spread']:.3f} {m['unit']}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
