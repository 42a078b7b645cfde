"""Layered skewlab benchmark: seeded job workloads, end-to-end and per layer.

    python3 bench/run.py --workload falsify --seed 1 --seconds 20 --trace 0

Run from a checkout; skewlab is imported from its ``src`` directory. The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` runs whole rounds of the workload, stopping at the round
boundary nearest to ``--seconds`` once at least 100 jobs are done, and
reports the end-to-end metrics:
set-up time (median of eleven fresh imports plus session builds), jobs per
second, median and 90th-percentile job time, peak resident memory and the
share of jobs that succeeded. A job succeeds when no exception escapes, its
exit status is the declared one and its oracle agrees; oracles run outside
the timed span.

``--trace 1`` runs a fixed prefix of the same job stream (the workload's
``trace_rounds``) three times: untraced to warm up, untraced again, then
with spans around every layer boundary, and reports the per-layer metrics
plus the tracer's overhead against the second pass. The
prefix is fixed in jobs, not seconds, so its work counts repeat exactly and
compare across commits. Spans are written to ``bench/out/`` (one file set
per workload, overwritten by the next traced run).

Both modes print the SHA-256 of the first jobs' labels, exit statuses and
output, so two commits can be compared byte for byte on any seed, and run
four error-path probes that must exit 2 with a one-line ``error:``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 11
MIN_JOBS = 100
DIGEST_JOBS = 100
MODULES = ("rings", "maps", "skewpoly", "series", "expr", "config", "noetherian",
           "suites", "reports", "cli")


class Lab:
    """Freshly imported skewlab modules plus the sessions a workload uses."""

    def __init__(self, config_names):
        for name in [m for m in sys.modules if m == "skewlab" or m.startswith("skewlab.")]:
            del sys.modules[name]
        importlib.import_module("skewlab")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"skewlab.{name}"))
        self.modules = [sys.modules["skewlab"]] + [getattr(self, m) for m in MODULES]
        self.sessions = {
            name: self.config.load_session(str(workloads.CONFIGS[name]))
            for name in config_names
        }

    @staticmethod
    def with_precision(session, precision: int):
        target = dataclasses.replace(session.target, precision=precision)
        return dataclasses.replace(session, target=target, precision=precision)


def set_up(workload) -> tuple[float, Lab]:
    """Median time to import skewlab and build the workload's sessions."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lab = Lab(workload.configs)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), lab


@dataclasses.dataclass
class Outcome:
    seconds: float
    code: object
    text: str
    problem: str | None


def execute(job, lab, tracer=None) -> Outcome:
    """Run one job with stdout captured; only the call itself is timed."""
    out, err = io.StringIO(), io.StringIO()
    result, exc, code = None, None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            if job.argv is not None:
                code = lab.cli.main(job.argv)
            else:
                result = job.call()
                code = 0
        except SystemExit as e:  # argparse refusing the argv
            code = e.code
        except Exception as e:  # a failure of the program under test
            exc = e
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
    text = out.getvalue() if job.render is None or result is None else job.render(result)
    return Outcome(seconds, code, text, judge(job, code, exc, text, err.getvalue(), result))


def judge(job, code, exc, text, errtext, result) -> str | None:
    if exc is not None:
        return f"{type(exc).__name__} escaped: {str(exc)[:80]}"
    if code != job.expect_exit:
        return f"exit {code}, expected {job.expect_exit}"
    if job.expect_exit == 2:
        lines = errtext.splitlines()
        if len(lines) != 1 or not lines[0].startswith("error:"):
            return f"stderr is not one 'error:' line: {errtext[:80]!r}"
    if job.oracle is not None:
        try:
            return job.oracle(text, result)
        except Exception as e:  # an output the oracle cannot even read
            return f"oracle raised {type(e).__name__}: {str(e)[:80]}"
    return None


class Tally:
    """Job times, failures and the SHA-256 over (label, exit status, output)
    of the first ``digest_jobs`` jobs of one pass."""

    def __init__(self, digest_jobs: int):
        self.digest_jobs = digest_jobs
        self.times: list[float] = []
        self.failed = 0
        self.sha = hashlib.sha256()

    def add(self, job, outcome: Outcome):
        if len(self.times) < self.digest_jobs:
            self.sha.update(f"{job.label}\0{outcome.code}\0{outcome.text}\0".encode())
        self.times.append(outcome.seconds)
        if outcome.problem is not None:
            self.failed += 1
            print(f"FAILED {job.label}: {outcome.problem}", file=sys.stderr)

    def digest_line(self) -> str:
        jobs = min(len(self.times), self.digest_jobs)
        return f"output digest over the first {jobs} jobs: {self.sha.hexdigest()}"


def timed_run(workload, seed: int, seconds: float, lab) -> tuple[dict, Tally]:
    tally = Tally(DIGEST_JOBS)
    started = time.perf_counter()
    for done, jobs in enumerate(workloads.rounds(workload, seed, lab), 1):
        for job in jobs:
            tally.add(job, execute(job, lab))
        # Stop at the round boundary nearest to ``seconds``.
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / done / 2 >= seconds and len(tally.times) >= MIN_JOBS:
            break
    print(tally.digest_line())
    times = tally.times
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "job_ms.p50": (1000 * statistics.median(times), "ms"),
        "job_ms.p90": (1000 * statistics.quantiles(times, n=10)[8], "ms"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "ok_frac": ((len(times) - tally.failed) / len(times), "ratio"),
    }
    return metrics, tally


def run_prefix(prefix, lab, tracer=None) -> Tally:
    """Run a fixed job list once."""
    tally = Tally(len(prefix))
    for job_id, job in enumerate(prefix):
        if tracer is not None:
            tracer.job_id = job_id
        tally.add(job, execute(job, lab, tracer))
    return tally


def traced_run(workload, seed: int, lab) -> tuple[dict, Tally]:
    stream = workloads.rounds(workload, seed, lab)
    prefix = [job for _ in range(workload.trace_rounds) for job in next(stream)]
    run_prefix(prefix, lab)  # warm-up, so the untraced pass below is not the first
    plain = run_prefix(prefix, lab)
    tracer = tracing.Tracer()
    tracing.install(tracer, lab)
    traced = run_prefix(prefix, lab, tracer)
    print("untraced " + plain.digest_line())
    print("traced " + traced.digest_line())
    if plain.sha.digest() != traced.sha.digest():
        print("tracing changed the output", file=sys.stderr)
        traced.failed = max(traced.failed, 1)
    tracer.write(ROOT / "bench" / "out" / f"spans-{workload.name}")
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (sum(traced.times) / sum(plain.times) - 1, "ratio")
    metrics["trace.spans"] = (len(tracer.start), "count")
    return metrics, traced


def run_probes(lab) -> float:
    probes = workloads.error_probes()
    bad = 0
    for job in probes:
        outcome = execute(job, lab)
        if outcome.problem is not None:
            bad += 1
            print(f"error-path probe '{job.label}' fails: {outcome.problem}")
    print(f"error-path probes: {bad} of {len(probes)} fail")
    return bad / len(probes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "skewlab" / "__init__.py").is_file():
        print(f"no skewlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = workloads.WORKLOADS[args.workload]

    setup_s, lab = set_up(workload)
    if args.trace:
        metrics, tally = traced_run(workload, args.seed, lab)
        metrics["errors.probe_fail_frac"] = (run_probes(lab), "ratio")
    else:
        metrics, tally = timed_run(workload, args.seed, args.seconds, lab)
        metrics["setup_s"] = (setup_s, "s")
        run_probes(lab)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": len(tally.times),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
