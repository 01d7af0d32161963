"""Outside-in layer ledger for traced benchmark runs.

The ledger wraps each layer's public entry point (its *seam*) from the
benchmark's own code; nothing under ``src/`` knows it exists.  Every call
through a seam becomes a span ``(layer, start, end, parent)``.  A layer's
self time is the duration of its spans minus the part their child spans
cover, so the layers' self times plus the root's own remainder (the
*unattributed* time) add up to the wall time of each timed op.

Spans stay in memory (up to ``MAX_SPANS``) and are written out once, when
the run ends.  Counters (launches, lanes, bytes, checks) are taken at the
same seams.  A seam that a later change removed or renamed is reported as
missing and the run goes on without it.

Only calls made inside a timed op (``Ledger.op``) on the thread that
created the ledger are recorded; any other call passes straight through.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

UNATTRIBUTED = "unattributed"
# Spans kept for the trace file; counters and self times stay exact beyond.
MAX_SPANS = 200_000


def _nthreads(spec) -> int:
    n = getattr(spec, "nthreads", None)
    if callable(n):
        n = n()
    if n is None:
        n = len(spec.threads)
    return int(n)


class Seam:
    """One wrapped entry point.

    ``layer`` names the layer its self time is charged to; ``layer_of``
    (optional) picks the layer from the call's result instead.  ``before``
    runs on entry and its value reaches ``after``, which records counters
    once the call returned normally.
    """

    def __init__(self, layer: str, module: str, qualname: str,
                 layer_of: Optional[Callable] = None,
                 before: Optional[Callable] = None,
                 after: Optional[Callable] = None):
        self.layer = layer
        self.module = module
        self.qualname = qualname
        self.layer_of = layer_of
        self.before = before
        self.after = after

    @property
    def label(self) -> str:
        return f"{self.module}.{self.qualname}"


def _count(name: str):
    """An ``after`` hook counting the seam's calls under ``name``."""
    def after(ledger, pre, args, kwargs, result):
        ledger.counts[name] = ledger.counts.get(name, 0) + 1
    return after


def _engine_layer(result) -> str:
    return ("device.vectorized"
            if getattr(result, "backend", None) == "vectorized"
            else "device.interleaved")


def _engine_after(ledger, pre, args, kwargs, result):
    if getattr(result, "backend", None) != "vectorized":
        ledger.counts["device.interleaved_launches"] = \
            ledger.counts.get("device.interleaved_launches", 0) + 1


def _vectorized_after(ledger, pre, args, kwargs, result):
    counts = ledger.counts
    counts["device.vectorized_launches"] = \
        counts.get("device.vectorized_launches", 0) + 1
    counts["device.lanes"] = counts.get("device.lanes", 0) + _nthreads(args[0])


def _bytes_before(args):
    return args[0].total_transferred_bytes()


def _bytes_after(ledger, pre, args, kwargs, result):
    ledger.counts["device.transfer_bytes"] = (
        ledger.counts.get("device.transfer_bytes", 0)
        + args[0].total_transferred_bytes() - pre)


def _rounds_after(ledger, pre, args, kwargs, result):
    ledger.counts["verify.interactive_rounds"] = (
        ledger.counts.get("verify.interactive_rounds", 0)
        + int(getattr(result, "total_iterations", 0)))


_COHERENCE = _count("runtime.coherence_checks")

# Every seam the ledger knows.  ``Class.*`` expands to each public method
# the class defines itself.
SEAMS: List[Seam] = [
    Seam("interp.host", "repro.interp.interp", "Interp.run"),
    Seam("interp.launch_spec", "repro.interp.interp",
         "Interp._build_launch_spec",
         after=_count("interp.launch_spec_calls")),
    Seam("runtime.launch", "repro.runtime.accrt", "AccRuntime.launch"),
    Seam("device.interleaved", "repro.device.engine", "KernelEngine.launch",
         layer_of=_engine_layer, after=_engine_after),
    Seam("device.vectorized", "repro.device.vectorize", "execute",
         after=_vectorized_after),
    Seam("device.transfer", "repro.device.device", "Device.memcpy_h2d",
         before=_bytes_before, after=_bytes_after),
    Seam("device.transfer", "repro.device.device", "Device.memcpy_d2h",
         before=_bytes_before, after=_bytes_after),
    Seam("runtime.coherence", "repro.runtime.coherence",
         "CoherenceTracker.check_read", after=_COHERENCE),
    Seam("runtime.coherence", "repro.runtime.coherence",
         "CoherenceTracker.check_write", after=_COHERENCE),
    Seam("runtime.coherence", "repro.runtime.coherence",
         "CoherenceTracker.on_transfer", after=_COHERENCE),
    Seam("runtime.coherence", "repro.runtime.coherence",
         "CoherenceTracker.reset_status", after=_COHERENCE),
    Seam("sampling", "repro.sampling.sampler", "PhaseSampler.*"),
    Seam("sampling", "repro.sampling.sampler", "LoopController.*"),
    Seam("compiler", "repro.compiler.passes", "PassManager.compile_source"),
    Seam("compiler", "repro.compiler.passes", "PassManager.compile_ast"),
    Seam("compiler", "repro.compiler.passes", "PassManager.rewrite"),
    Seam("verify.kernel", "repro.verify.kernelverify", "KernelVerifier.run"),
    Seam("verify.mem", "repro.verify.memverify", "MemVerifier.run"),
    Seam("verify.interactive", "repro.verify.interactive",
         "InteractiveOptimizer.run", after=_rounds_after),
    Seam("verify.compare", "repro.verify.comparison", "compare_arrays"),
    Seam("verify.compare", "repro.verify.comparison", "compare_scalars"),
]


class Ledger:
    """Span recorder plus per-layer self-time and counter accumulators."""

    def __init__(self):
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        # Per-op-label self time by layer: the per-program split.
        self.by_label: Dict[str, Dict[str, float]] = {}
        self.spans: List[Tuple] = []
        self.dropped = 0
        self.missing: List[str] = []
        self.installed: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._stack: List[list] = []
        self._label = ""
        self._owner = threading.get_ident()

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every seam that exists; remember the ones that do not."""
        self.missing = []
        self.installed = []
        for seam in SEAMS:
            for owner, name, original, label in self._resolve(seam):
                if original is None:
                    self.missing.append(label)
                    continue
                wrapper = self._wrap(seam, original)
                self._patch(owner, name, original, wrapper)
                if inspect.ismodule(owner):
                    # Modules that imported the function by name hold their
                    # own reference to it.
                    for mod in list(sys.modules.values()):
                        if (mod is not owner and inspect.ismodule(mod)
                                and getattr(mod, "__name__", "").startswith("repro")
                                and getattr(mod, name, None) is original):
                            self._patch(mod, name, original, wrapper)
                self.installed.append(label)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    @staticmethod
    def _resolve(seam: Seam):
        try:
            module = importlib.import_module(seam.module)
        except ImportError:
            return [(None, None, None, seam.label)]
        parts = seam.qualname.split(".")
        owner = module
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return [(None, None, None, seam.label)]
        name = parts[-1]
        if name == "*":
            found = [(owner, attr, fn, f"{seam.module}.{parts[0]}.{attr}")
                     for attr, fn in vars(owner).items()
                     if inspect.isfunction(fn) and not attr.startswith("_")]
            return found or [(None, None, None, seam.label)]
        original = (vars(owner).get(name) if inspect.isclass(owner)
                    else getattr(owner, name, None))
        if not inspect.isfunction(original):
            original = None
        return [(owner, name, original, seam.label)]

    # -- spans ----------------------------------------------------------------
    def _wrap(self, seam: Seam, original):
        ledger = self
        layer = seam.layer
        layer_of = seam.layer_of
        before = seam.before
        after = seam.after

        def traced(*args, **kwargs):
            if not ledger._stack or threading.get_ident() != ledger._owner:
                return original(*args, **kwargs)
            pre = before(args) if before is not None else None
            frame = ledger._open()
            result = None
            try:
                result = original(*args, **kwargs)
            finally:
                ledger._close(frame, layer if layer_of is None
                              else layer_of(result))
            if after is not None:
                after(ledger, pre, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", "traced")
        return traced

    def _open(self) -> list:
        index = len(self.spans)
        if index < MAX_SPANS:
            self.spans.append(None)
        else:
            index = -1
        parent = self._stack[-1][2] if self._stack else -1
        frame = [perf_counter(), 0.0, index, parent]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, layer: str) -> None:
        end = perf_counter()
        self._stack.pop()
        duration = end - frame[0]
        own = duration - frame[1]
        self.self_s[layer] = self.self_s.get(layer, 0.0) + own
        split = self.by_label.setdefault(self._label, {})
        split[layer] = split.get(layer, 0.0) + own
        if self._stack:
            self._stack[-1][1] += duration
        if frame[2] >= 0:
            self.spans[frame[2]] = (layer, frame[0], end, frame[3])
        else:
            self.dropped += 1

    def op(self, label: str) -> "_Op":
        """Root span around one timed op; its self time is unattributed."""
        return _Op(self, label)

    # -- reporting ------------------------------------------------------------
    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        return dict(self.self_s), dict(self.counts)

    def write_spans(self, path: str) -> None:
        """One JSON line per span: layer, start/end seconds, parent index."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"installed": self.installed,
                                     "missing": self.missing,
                                     "dropped": self.dropped}) + "\n")
            for span in self.spans:
                if span is None:
                    continue
                layer, start, end, parent = span
                handle.write(f'["{layer}",{start:.9f},{end:.9f},{parent}]\n')


class _Op:
    def __init__(self, ledger: Ledger, label: str):
        self.ledger = ledger
        self.label = label

    def __enter__(self):
        self.ledger._label = self.label
        self.frame = self.ledger._open()
        return self

    def __exit__(self, *exc):
        self.ledger._close(self.frame, UNATTRIBUTED)
        self.ledger._label = ""
        return False
