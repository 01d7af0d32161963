"""Round bookkeeping shared by the offline and service workloads."""

from __future__ import annotations

import statistics
from time import perf_counter


class Measurement:
    """Everything one run observed."""

    def __init__(self):
        self.rounds = []        # (seconds, traced)
        self.ops = []           # (label, program, seconds, traced)
        self.items = 0          # completed in untraced rounds
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.layer_rounds = []  # per traced round: metric -> value
        self.by_program = {}    # program -> layer -> seconds (traced)
        self.diagnostics = {}

    def record_failure(self, label: str, problems) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.extend(f"{label}: {p}" for p in problems)

    def untraced_rounds(self):
        return [s for s, traced in self.rounds if not traced]

    def traced_rounds(self):
        return [s for s, traced in self.rounds if traced]


class RoundClock:
    """Decides whether another whole round fits in the timed phase.

    A round starts only if, at the median pace of the rounds so far
    (checks and collection included), it ends before ``seconds`` have
    passed; ``min_rounds`` always run.  Traced runs need at least one
    traced and two untraced rounds.
    """

    def __init__(self, seconds: float, traced: bool):
        self.seconds = seconds
        self.min_rounds = 3 if traced else 2
        self.marks = []

    def another(self) -> bool:
        """Called before each round."""
        self.marks.append(perf_counter())
        done = len(self.marks) - 1
        if done < self.min_rounds:
            return True
        paces = [b - a for a, b in zip(self.marks, self.marks[1:])]
        elapsed = self.marks[-1] - self.marks[0]
        return elapsed + statistics.median(paces) <= self.seconds
