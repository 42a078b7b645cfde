"""Report records shared by the verifiers, suites, and the CLI.

Sampling verifiers are falsifiers, not provers: a passing report means "no
violation found in N trials", never a proof. Messages are worded accordingly
and every report carries the seed that reproduces it. Every sampler that
stops at its first violation runs through :func:`falsify`, so all of them
draw from one ``Random(seed)`` in the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    trials: int = 0
    seed: int | None = None
    witness: str | None = None
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "trials": self.trials,
            "seed": self.seed,
            "witness": self.witness,
            "message": self.message,
        }

    def to_text(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        line = f"{status} {self.name}: {self.message}"
        if self.witness is not None:
            line += f" [witness: {self.witness}]"
        return line


@dataclass
class SuiteReport:
    suite: str
    seed: int
    trials: int
    checks: list[CheckReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_text(self) -> str:
        lines = [f"suite {self.suite} (trials={self.trials}, seed={self.seed})"]
        lines.extend("  " + c.to_text() for c in self.checks)
        lines.append(
            f"result: {'all checks passed' if self.passed else 'VIOLATIONS FOUND'}"
        )
        return "\n".join(lines)


def no_violation_message(trials: int) -> str:
    return f"no violation found in {trials} trials"


def falsify(name: str, trials: int, seed: int, trial, passed_message=None) -> CheckReport:
    """Run ``trial(rng)`` up to ``trials`` times on one ``Random(seed)``.

    ``trial`` returns ``None`` when its sample passes, or ``(witness,
    message)`` at a violation, which ends the run with a failing report. A
    run without violations reports ``passed_message``, by default "no
    violation found in N trials".
    """
    rng = Random(seed)
    for _ in range(trials):
        found = trial(rng)
        if found is not None:
            witness, message = found
            return CheckReport(name, False, trials, seed, witness, message)
    return CheckReport(
        name, True, trials, seed,
        message=passed_message or no_violation_message(trials),
    )
