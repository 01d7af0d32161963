"""Checkpoint/rollback/replay: crash-consistent recovery for iterative runs.

PR 2's hardening masks *transient* faults (retry-with-backoff, the launch
degradation ladder); anything beyond its budget aborted the whole run.  This
module makes long iterative solvers survivable instead: the interpreter
snapshots the complete execution state at counted-loop phase boundaries
(the same boundary PR 6's sampler uses), and when a fault exhausts the
retry budget the loop **rolls back** to the newest snapshot and replays —
deterministically, because every layer's state (host arrays, device memory,
present table, dirty intervals, coherence states, profiler clock/counters,
async queues, chaos rng) is part of the snapshot.

Two storage tiers:

* an in-memory **ring buffer** (rollback within the process, no I/O);
* optional **on-disk** snapshots, written atomically (tmp + ``os.replace``)
  in a versioned, sha256-checksummed envelope, so a killed process
  (crash, SIGALRM) can resume from its last phase boundary.

Determinism contract:

* **Rollback** does NOT rewind the chaos rng: replay continues the draw
  sequence forward (exactly like a retry does), so an injected fault cannot
  recur identically and livelock the loop; the whole execution remains a
  pure function of the seed.  A fault-*budget* circuit breaker
  (:class:`~repro.errors.RecoveryExhaustedError` after ``max_rollbacks``)
  bounds adversarial fault storms.
* **Resume** DOES restore the chaos rng, and suspends chaos for the
  re-executed pre-checkpoint prefix (whose draws the restored rng state
  already reflects), so a resumed run's draw sequence — and therefore its
  outputs, byte counters, and findings — is bit-identical to the
  uninterrupted run.
* The ``recovery.*`` counters are the one deliberate exception to "restore
  everything": they survive rollback (the trail must outlive the rewind
  that writes it) and are excluded from byte-identity comparisons.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import deque
from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.errors import CheckpointError, RecoveryExhaustedError
from repro.runtime.profiler import (
    CTR_CHECKPOINT_SAVED,
    CTR_REPLAYED_ITERATIONS,
    CTR_RESUMED,
    CTR_ROLLBACK,
)

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointConfig",
    "CheckpointManager",
    "InjectedCrash",
    "Snapshot",
    "load_snapshot",
    "write_snapshot",
]

# Snapshot envelope format tag; bump on any incompatible payload change.
CHECKPOINT_FORMAT = "repro.checkpoint/2"


class InjectedCrash(RuntimeError):
    """Deterministic crash hook (``CheckpointConfig.crash_after_saves``):
    raised right after the N-th checkpoint lands, *outside* the ReproError
    hierarchy, so tests and the CI gate can exercise the harness's
    crash/resume path without killing a real process."""


@dataclass(frozen=True)
class CheckpointConfig:
    """Recovery policy for one run (threaded via ``ToolchainContext``)."""

    every: int = 0                      # checkpoint every N iterations; 0 = off
    dir: Optional[str] = None           # also write atomic on-disk snapshots
    tag: str = "run"                    # file stem for on-disk snapshots
    ring: int = 2                       # in-memory ring-buffer depth
    max_rollbacks: int = 5              # fault-budget circuit breaker
    resume_path: Optional[str] = None   # snapshot to resume from
    crash_after_saves: Optional[int] = None  # test hook: InjectedCrash after N saves

    @property
    def enabled(self) -> bool:
        return self.every > 0 or self.resume_path is not None

    def snapshot_path(self) -> Optional[str]:
        if self.dir is None:
            return None
        return os.path.join(self.dir, f"{self.tag}.ckpt")

    def for_resume(self, path: str) -> "CheckpointConfig":
        """The config a crash-recovery attempt runs under: same policy,
        resuming from ``path``, with the crash hook disarmed."""
        return replace(self, resume_path=path, crash_after_saves=None)


@dataclass
class Snapshot:
    """One captured phase boundary.

    ``loop_site`` identifies the checkpointing loop (``"<var>@<line>"``) so a
    restore can never land in a structurally different loop; ``payload``
    holds the per-layer state dicts (every entry is a deep copy — restoring
    the same snapshot twice is safe)."""

    loop_site: str
    iteration: int
    seq: int
    payload: Dict[str, object]
    program: str = ""
    # The interpreter's un-flushed CPU-step tally at capture time.  Carried
    # as a count (not flushed to the profiler first): flushing would split
    # one charge into two and perturb float accumulation, so checkpointing
    # would no longer be bit-transparent on fault-free runs.
    cpu_steps: int = 0


# ---------------------------------------------------------------------------
# On-disk format
# ---------------------------------------------------------------------------

def write_snapshot(snap: Snapshot, path: str) -> str:
    """Atomically persist a snapshot: pickle the payload, wrap it in a
    versioned envelope carrying its sha256, write to a temp file in the
    target directory, fsync, and ``os.replace`` into place — a reader sees
    either the old complete file or the new complete file, never a torn
    write."""
    payload_bytes = pickle.dumps(
        {
            "loop_site": snap.loop_site,
            "iteration": snap.iteration,
            "seq": snap.seq,
            "payload": snap.payload,
            "program": snap.program,
            "cpu_steps": snap.cpu_steps,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    envelope = {
        "format": CHECKPOINT_FORMAT,
        "sha256": hashlib.sha256(payload_bytes).hexdigest(),
        "meta": {
            "loop_site": snap.loop_site,
            "iteration": snap.iteration,
            "seq": snap.seq,
            "program": snap.program,
        },
        "payload": payload_bytes,
    }
    tmp = f"{path}.tmp"
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(tmp, "wb") as handle:
            pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as err:
        raise CheckpointError(f"cannot write checkpoint {path!r}: {err}") from err
    return path


def load_snapshot(path: str) -> Snapshot:
    """Load + validate an on-disk snapshot; every failure mode (missing
    file, unpicklable, wrong format version, checksum mismatch) is a typed
    :class:`~repro.errors.CheckpointError`."""
    try:
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {err}") from err
    except (pickle.UnpicklingError, EOFError, AttributeError, ValueError) as err:
        raise CheckpointError(
            f"checkpoint {path!r} is not a valid snapshot file: {err}") from err
    if not isinstance(envelope, dict) or "format" not in envelope:
        raise CheckpointError(f"checkpoint {path!r} has no format envelope")
    if envelope["format"] != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path!r} has format {envelope['format']!r}; this "
            f"build reads {CHECKPOINT_FORMAT!r}")
    payload_bytes = envelope.get("payload")
    digest = hashlib.sha256(payload_bytes or b"").hexdigest()
    if digest != envelope.get("sha256"):
        raise CheckpointError(
            f"checkpoint {path!r} failed its checksum (truncated or "
            f"corrupted on disk)")
    try:
        data = pickle.loads(payload_bytes)
    except (pickle.UnpicklingError, EOFError, AttributeError, ValueError) as err:
        raise CheckpointError(
            f"checkpoint {path!r} payload is unreadable: {err}") from err
    return Snapshot(
        loop_site=data["loop_site"],
        iteration=data["iteration"],
        seq=data["seq"],
        payload=data["payload"],
        program=data.get("program", ""),
        cpu_steps=data.get("cpu_steps", 0),
    )


# ---------------------------------------------------------------------------
# Manager
# ---------------------------------------------------------------------------

class CheckpointManager:
    """Owns the snapshot ring + disk tier for one execution.

    Created by the interpreter when its context carries an enabled
    :class:`CheckpointConfig`; the outermost counted loop claims it
    (:meth:`acquire`) so nested loops never interleave snapshots."""

    def __init__(self, config: CheckpointConfig, runtime, env,
                 program: str = ""):
        self.config = config
        self.runtime = runtime
        self.env = env
        self.program = program
        self.tracer = runtime.tracer
        self.ring = deque(maxlen=max(1, config.ring))
        self.saves = 0
        self.rollbacks = 0
        self.replayed_iterations = 0
        self.resumed = False
        self.last_disk_path: Optional[str] = None
        self._active_loop = None
        self._pending: Optional[Snapshot] = None
        # The cpu_steps tally of the last restored snapshot; the interpreter
        # reads it back after a rollback/resume to continue counting exactly
        # where the capture left off.
        self.restored_cpu_steps = 0
        runtime.checkpointer = self
        if config.resume_path:
            self._pending = load_snapshot(config.resume_path)
            if runtime.chaos is not None:
                # The pre-checkpoint prefix re-executes without draws; the
                # snapshot's rng state already accounts for them.
                runtime.chaos.suspended = True

    # -- loop ownership -----------------------------------------------------
    def acquire(self, stmt) -> bool:
        """Claim checkpointing for ``stmt`` (a For node).  Only the first
        (outermost) counted loop wins; everything nested runs plain."""
        if self._active_loop is not None:
            return False
        self._active_loop = stmt
        return True

    def release(self, stmt) -> None:
        if self._active_loop is stmt:
            self._active_loop = None

    # -- save ---------------------------------------------------------------
    def should_save(self, iteration: int) -> bool:
        return self.config.every > 0 and iteration % self.config.every == 0

    def save(self, loop_site: str, iteration: int,
             cpu_steps: int = 0) -> Snapshot:
        disk_path = self.config.snapshot_path()
        with self.tracer.span("checkpoint.save", category="runtime.checkpoint",
                              loop=loop_site, iteration=iteration,
                              disk=disk_path is not None):
            snap = Snapshot(
                loop_site=loop_site,
                iteration=iteration,
                seq=self.saves,
                payload={
                    "env": self.env.snapshot_state(),
                    "runtime": self.runtime.snapshot_state(),
                },
                program=self.program,
                cpu_steps=cpu_steps,
            )
            self.ring.append(snap)
            self.saves += 1
            if disk_path is not None:
                self.last_disk_path = write_snapshot(snap, disk_path)
            self.runtime.profiler.count(CTR_CHECKPOINT_SAVED)
        if (self.config.crash_after_saves is not None
                and self.saves >= self.config.crash_after_saves):
            raise InjectedCrash(
                f"injected crash after checkpoint #{self.saves} "
                f"(crash_after_saves={self.config.crash_after_saves})")
        return snap

    # -- rollback -----------------------------------------------------------
    def can_recover(self, loop_site: str) -> bool:
        """A rollback target exists: the newest ring snapshot belongs to the
        *current* loop (a stale snapshot from an earlier loop cannot be
        re-entered)."""
        return bool(self.ring) and self.ring[-1].loop_site == loop_site

    def rollback(self, loop_site: str, at_iteration: int,
                 error: BaseException) -> int:
        """Restore the newest snapshot and return its iteration.  Raises
        :class:`RecoveryExhaustedError` once the fault budget is spent."""
        if self.rollbacks >= self.config.max_rollbacks:
            raise RecoveryExhaustedError(
                f"recovery fault budget exhausted after {self.rollbacks} "
                f"rollback(s) (max_rollbacks={self.config.max_rollbacks}); "
                f"last error: {type(error).__name__}: {error}",
                rollbacks=self.rollbacks, last_error=error,
            ) from error
        snap = self.ring[-1]
        replayed = max(1, at_iteration - snap.iteration + 1)
        with self.tracer.span("checkpoint.rollback",
                              category="runtime.checkpoint",
                              loop=loop_site, to_iteration=snap.iteration,
                              from_iteration=at_iteration,
                              error=type(error).__name__):
            self._restore(snap, restore_chaos=False)
            self.rollbacks += 1
            self.replayed_iterations += replayed
            profiler = self.runtime.profiler
            profiler.count(CTR_ROLLBACK)
            profiler.count(CTR_REPLAYED_ITERATIONS, replayed)
        return snap.iteration

    # -- resume -------------------------------------------------------------
    def resume_into(self, loop_site: str) -> Optional[int]:
        """If the pending on-disk snapshot targets ``loop_site``, restore it
        (including chaos rng), lift the chaos suspension, and return the
        snapshot's iteration; otherwise None (keep executing until the right
        loop is reached)."""
        if self._pending is None or self._pending.loop_site != loop_site:
            return None
        snap, self._pending = self._pending, None
        with self.tracer.span("checkpoint.restore",
                              category="runtime.checkpoint",
                              loop=loop_site, iteration=snap.iteration,
                              path=self.config.resume_path):
            self._restore(snap, restore_chaos=True)
            if self.runtime.chaos is not None:
                self.runtime.chaos.suspended = False
            self.resumed = True
            # Seed the ring: post-resume faults can roll back to here.
            self.ring.append(snap)
            self.runtime.profiler.count(CTR_RESUMED)
        return snap.iteration

    def finish(self) -> None:
        """End-of-run check: a resume snapshot that never matched any loop
        means the program (or its parameters) changed under the checkpoint —
        surface that instead of silently having run from scratch."""
        if self._pending is not None:
            raise CheckpointError(
                f"resume checkpoint targets loop "
                f"{self._pending.loop_site!r} (iteration "
                f"{self._pending.iteration}), which this program never "
                f"reached — wrong program or parameters for this snapshot?")

    # -- internals ----------------------------------------------------------
    def _restore(self, snap: Snapshot, restore_chaos: bool) -> None:
        self.env.restore_state(snap.payload["env"])
        self.runtime.restore_state(snap.payload["runtime"],
                                   restore_chaos=restore_chaos)
        self.restored_cpu_steps = snap.cpu_steps
