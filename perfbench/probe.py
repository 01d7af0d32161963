"""A host-speed probe: a fixed piece of mixed Python work, timed beside the
program so the benchmark can tell a slow host from a slow program.

The benchmark runs on shared virtual machines whose speed drifts between
levels far apart (see README.md), from one tenth of a second to the next
and, in the share of time spent slow, from one minute to the next.  A run
samples the probe before ops, at most every ``PERIOD_S``, and scales every
time it reports by ``REFERENCE_S`` over the run's mean sample: timings then
read as seconds on a host where one sample takes ``REFERENCE_S``.

The work is fixed and independent of the program under test, so a change to
the program cannot move it.  It spreads over a wide code footprint --
parsing, JSON, regular expressions, sorting, small NumPy arrays and a walk
over an object graph -- because the program's slowdowns on a busy host track
such a mix much more closely than they track a tight loop.  It runs in the
benchmark's own process (a probe in a child process, woken for each sample,
tracked the program less well), allocates little and frees it before it
returns.
"""

from __future__ import annotations

import ast
import gc
import json
import random
import re
import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.005
PERIOD_S = 0.15
_WALK_NODES = 20_000
_WALK_STEPS = 3_000
_WORD = re.compile(r"[A-Za-z_]\w*")


class _Node:
    __slots__ = ("value", "key")

    def __init__(self, value: int, key: str):
        self.value = value
        self.key = key

    def get(self) -> int:
        return self.value


class SpeedProbe:
    """Samples of the probe's time over one run."""

    def __init__(self):
        rng = random.Random(0)
        with open(__file__) as handle:
            self.source = handle.read()
        self.doc = {"ints": list(range(50)),
                    "rows": {f"k{i}": [i, str(i), i * 0.5] for i in range(60)},
                    "text": "x" * 200}
        self.arrays = [np.arange(64, dtype=np.float64) + i for i in range(16)]
        self.nodes = [_Node(i, str(i)) for i in range(_WALK_NODES)]
        self.table = {node.key: node for node in self.nodes}
        self.order = [rng.randrange(_WALK_NODES) for _ in range(_WALK_STEPS)]
        self.samples = []
        self.last = 0.0
        self._work()

    def _work(self) -> float:
        """One sample.  The collector is off while it runs: a collection
        started by the probe's allocations would time the program's heap."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._timed_work()
        finally:
            if enabled:
                gc.enable()

    def _timed_work(self) -> float:
        start = perf_counter()
        tree = ast.parse(self.source)
        count = sum(1 for _ in ast.walk(tree))
        json.loads(json.dumps(self.doc))
        words = _WORD.findall(self.source)
        "{}:{}".format(count, len(sorted(set(words))))
        total = 0.0
        for array in self.arrays:
            total += float((array[1:] * array[:-1]).sum())
        for index in self.order:
            total += self.table[self.nodes[index].key].get()
        return perf_counter() - start

    def sample(self) -> None:
        self.samples.append(self._work())
        self.last = perf_counter()

    def due(self) -> None:
        """Take a sample if ``PERIOD_S`` has passed since the last."""
        if perf_counter() - self.last >= PERIOD_S:
            self.sample()

    def mean_s(self) -> float:
        """Mean sample, leaving out the slowest and the fastest twentieth
        (a sample the host preempted is an outlier, not a speed)."""
        ordered = sorted(self.samples)
        cut = len(ordered) // 20
        return statistics.mean(ordered[cut:len(ordered) - cut])

    def scale(self) -> float:
        """``REFERENCE_S`` over the mean sample: the factor that turns this
        run's seconds into seconds at the reference speed."""
        return REFERENCE_S / self.mean_s()
