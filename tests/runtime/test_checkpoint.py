"""Checkpoint/rollback/replay recovery (PR 7).

Layers covered:

* per-component ``snapshot_state``/``restore_state`` round-trips (host env
  with pointer aliasing, dirty-interval map, metrics keep-prefix behavior);
* the on-disk snapshot format (atomic write, checksum, version gate);
* the CheckpointManager (ring depth, outermost-loop ownership, circuit
  breaker, stale-resume detection);
* end-to-end bit-identity: fault-free runs with checkpointing, rollback
  recovery under chaos, crash + disk resume (with and without chaos), and
  the harness's auto-resume path;
* the conflict matrix (checkpoint x sampling) and the retry/backoff knobs.
"""

import pickle

import numpy as np
import pytest

from repro.bench import suite
from repro.errors import (
    CheckpointConflictError,
    CheckpointError,
    RecoveryExhaustedError,
    error_stage,
)
from repro.experiments.harness import run_variant, run_variant_isolated
from repro.interp.values import HostEnv
from repro.lang.ctypes import DOUBLE, INT
from repro.obs.metrics import MetricsRegistry
from repro.runtime.accrt import AccRuntime
from repro.runtime.chaos import FaultSpec
from repro.runtime.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointConfig,
    CheckpointManager,
    InjectedCrash,
    Snapshot,
    load_snapshot,
    write_snapshot,
)
from repro.runtime.intervals import DirtyMap
from repro.sampling import SamplingConfig
from repro.toolchain import ToolchainContext

# A chaos campaign + seed known to force rollbacks on JACOBI/unoptimized
# (transfers inside the loop; retries disabled so faults escalate).
ROLLBACK_RATES = "transfer=0.25,transfer.corrupt=0.15"
ROLLBACK_SEED = 6


def run_jacobi(variant="unoptimized", ctx=None, chaos=None):
    bench = suite.get("JACOBI")
    return run_variant(bench, variant, size="small", seed=1,
                       chaos=chaos, ctx=ctx or ToolchainContext())


def fingerprint(interp):
    prof = interp.runtime.profiler
    return {
        "outputs": {k: v.copy() for k, v in interp.env.scopes[0].items()
                    if isinstance(v, np.ndarray)},
        "bytes": (interp.runtime.device.bytes_h2d,
                  interp.runtime.device.bytes_d2h),
        "modeled": prof.total(),
        "counters": {k: v for k, v in prof.counters.items()
                     if not k.startswith(("recovery.", "fault."))},
    }


def assert_identical(a, b):
    assert set(a["outputs"]) == set(b["outputs"])
    for name in a["outputs"]:
        np.testing.assert_array_equal(a["outputs"][name], b["outputs"][name])
    assert a["bytes"] == b["bytes"]
    assert a["modeled"] == b["modeled"]
    assert a["counters"] == b["counters"]


# ---------------------------------------------------------------------------
# Component snapshot/restore
# ---------------------------------------------------------------------------

class TestHostEnvSnapshot:
    def test_roundtrip_preserves_aliasing(self):
        env = HostEnv()
        arr = np.arange(6, dtype=np.float64)
        env.scopes[-1]["a"] = arr
        env.scopes[-1]["p"] = arr          # pointer alias of the same array
        env.canonical[id(arr)] = "a"
        state = env.snapshot_state()
        arr[:] = -1.0
        env.restore_state(state)
        restored = env.scopes[-1]["a"]
        np.testing.assert_array_equal(restored, np.arange(6, dtype=np.float64))
        # Aliasing must survive: both names bind ONE object.
        assert env.scopes[-1]["p"] is restored
        assert env.canonical[id(restored)] == "a"

    def test_restore_is_in_place(self):
        """Restoring copies into the live buffer (identity-keyed maps in
        other layers keep working)."""
        env = HostEnv()
        arr = np.ones(4)
        env.scopes[-1]["a"] = arr
        state = env.snapshot_state()
        arr[:] = 7.0
        env.restore_state(state)
        assert env.scopes[-1]["a"] is arr
        np.testing.assert_array_equal(arr, np.ones(4))

    def test_snapshot_restorable_twice(self):
        env = HostEnv()
        env.scopes[-1]["a"] = np.zeros(3)
        state = env.snapshot_state()
        env.scopes[-1]["a"][:] = 1.0
        env.restore_state(state)
        env.scopes[-1]["a"][:] = 2.0
        env.restore_state(state)
        np.testing.assert_array_equal(env.scopes[-1]["a"], np.zeros(3))

    def test_roundtrip_preserves_shadowed_dtypes(self):
        env = HostEnv()
        env.declare("x", INT, 7)
        env.push_scope()
        env.declare("x", DOUBLE, 2.5)
        state = env.snapshot_state()
        env.pop_scope()
        env.push_scope()
        env.restore_state(state)
        env.store("x", 0.5)
        assert env.load("x") == 0.5
        env.pop_scope()
        # Leaving the restored scope brings back the outer int coercion.
        env.store("x", 3.9)
        assert env.load("x") == 3

    def test_scope_depth_mismatch_is_typed(self):
        env = HostEnv()
        state = env.snapshot_state()
        env.push_scope()
        with pytest.raises(CheckpointError):
            env.restore_state(state)


class TestMetricsSnapshot:
    def test_keep_prefix_survives_restore(self):
        reg = MetricsRegistry()
        reg.count("launch.retried", 2)
        reg.count("recovery.rollback", 1)
        state = reg.snapshot_state()
        reg.count("launch.retried", 5)
        reg.count("recovery.rollback", 3)
        reg.restore_state(state, keep_prefixes=("recovery.",))
        snap = reg.snapshot()["counters"]
        assert snap["launch.retried"] == 2          # rewound
        assert snap["recovery.rollback"] == 4       # survived


class TestDirtyMapSnapshot:
    def test_roundtrip(self):
        dmap = DirtyMap()
        dmap.bind("a", size=100, itemsize=8)
        dmap.note_write("a", "cpu", footprint=[(0, 10)])
        state = dmap.snapshot_state()
        dmap.note_write("a", "cpu", footprint=[(50, 60)])
        dmap.restore_state(state)
        assert list(dmap.pending("a", "h2d")) == [(0, 10)]


# ---------------------------------------------------------------------------
# On-disk format
# ---------------------------------------------------------------------------

class TestDiskFormat:
    def make_snap(self):
        return Snapshot(loop_site="t@3", iteration=4, seq=1,
                        payload={"env": {"x": np.arange(3)}}, cpu_steps=7)

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        write_snapshot(self.make_snap(), str(path))
        snap = load_snapshot(str(path))
        assert (snap.loop_site, snap.iteration, snap.seq) == ("t@3", 4, 1)
        assert snap.cpu_steps == 7
        np.testing.assert_array_equal(snap.payload["env"]["x"], np.arange(3))
        # Atomic write: no temp file left behind.
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_snapshot(str(tmp_path / "nope.ckpt"))

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "run.ckpt"
        write_snapshot(self.make_snap(), str(path))
        blob = bytearray(path.read_bytes())
        blob[-20] ^= 0xFF   # damage the pickled payload bytes
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_snapshot(str(path))

    def test_wrong_format_version(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(pickle.dumps(
            {"format": "repro.checkpoint/999", "sha256": "", "payload": b""}))
        with pytest.raises(CheckpointError, match="format"):
            load_snapshot(str(path))

    def test_not_a_snapshot_file(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(b"plain text, not a pickle")
        with pytest.raises(CheckpointError):
            load_snapshot(str(path))

    def test_error_stage_is_checkpoint(self):
        assert error_stage(CheckpointError("x")) == "checkpoint"
        assert error_stage(CheckpointConflictError("x")) == "checkpoint"
        assert error_stage(RecoveryExhaustedError("x")) == "recovery"


# ---------------------------------------------------------------------------
# Manager mechanics
# ---------------------------------------------------------------------------

class TestManager:
    def make_manager(self, **kwargs):
        runtime = AccRuntime()
        env = HostEnv()
        env.scopes[-1]["a"] = np.zeros(4)
        return CheckpointManager(CheckpointConfig(**kwargs), runtime, env), env

    def test_ring_depth(self):
        mgr, _env = self.make_manager(every=1, ring=2)
        for i in range(5):
            mgr.save("t@1", i)
        assert [s.iteration for s in mgr.ring] == [3, 4]

    def test_outermost_loop_wins(self):
        mgr, _env = self.make_manager(every=1)
        outer, inner = object(), object()
        assert mgr.acquire(outer)
        assert not mgr.acquire(inner)
        mgr.release(inner)              # releasing a non-owner is a no-op
        assert not mgr.acquire(inner)
        mgr.release(outer)
        assert mgr.acquire(inner)

    def test_should_save_period(self):
        mgr, _env = self.make_manager(every=3)
        assert [i for i in range(7) if mgr.should_save(i)] == [0, 3, 6]

    def test_rollback_restores_and_counts(self):
        mgr, env = self.make_manager(every=1, max_rollbacks=2)
        mgr.save("t@1", 0, cpu_steps=9)
        env.scopes[-1]["a"][:] = 5.0
        assert mgr.rollback("t@1", 3, ValueError("boom")) == 0
        np.testing.assert_array_equal(env.scopes[-1]["a"], np.zeros(4))
        assert mgr.restored_cpu_steps == 9
        assert mgr.rollbacks == 1
        assert mgr.replayed_iterations == 4   # iterations 0..3 re-run

    def test_circuit_breaker(self):
        mgr, _env = self.make_manager(every=1, max_rollbacks=0)
        mgr.save("t@1", 0)
        cause = ValueError("boom")
        with pytest.raises(RecoveryExhaustedError) as exc:
            mgr.rollback("t@1", 1, cause)
        assert exc.value.rollbacks == 0
        assert exc.value.last_error is cause

    def test_can_recover_requires_matching_loop(self):
        mgr, _env = self.make_manager(every=1)
        assert not mgr.can_recover("t@1")
        mgr.save("t@1", 0)
        assert mgr.can_recover("t@1")
        assert not mgr.can_recover("u@9")


# ---------------------------------------------------------------------------
# End-to-end bit-identity
# ---------------------------------------------------------------------------

class TestEndToEnd:
    def test_fault_free_checkpointing_is_bit_transparent(self):
        base = fingerprint(run_jacobi())
        ctx = ToolchainContext()
        ctx.checkpoint = CheckpointConfig(every=2)
        interp = run_jacobi(ctx=ctx)
        assert interp.ckpt.saves > 0
        assert_identical(base, fingerprint(interp))
        # The only counter delta is the recovery trail itself.
        assert interp.runtime.profiler.counters[
            "recovery.checkpoint_saved"] == interp.ckpt.saves

    def test_rollback_recovers_bit_identically(self):
        base = fingerprint(run_jacobi())
        ctx = ToolchainContext()
        ctx.checkpoint = CheckpointConfig(every=1, max_rollbacks=50)
        ctx.max_retries = 0
        interp = run_jacobi(
            ctx=ctx, chaos=FaultSpec.parse(ROLLBACK_RATES, seed=ROLLBACK_SEED))
        assert interp.ckpt.rollbacks > 0
        assert interp.ckpt.replayed_iterations >= interp.ckpt.rollbacks
        assert_identical(base, fingerprint(interp))
        counters = interp.runtime.profiler.counters
        assert counters["recovery.rollback"] == interp.ckpt.rollbacks

    def test_budget_exhaustion_is_typed(self):
        ctx = ToolchainContext()
        ctx.checkpoint = CheckpointConfig(every=1, max_rollbacks=0)
        ctx.max_retries = 0
        with pytest.raises(RecoveryExhaustedError) as exc:
            run_jacobi(ctx=ctx,
                       chaos=FaultSpec.parse(ROLLBACK_RATES,
                                             seed=ROLLBACK_SEED))
        assert exc.value.last_error is not None

    def test_crash_and_disk_resume(self, tmp_path):
        base = fingerprint(run_jacobi())
        crash_ctx = ToolchainContext()
        crash_ctx.checkpoint = CheckpointConfig(
            every=2, dir=str(tmp_path), crash_after_saves=2)
        with pytest.raises(InjectedCrash):
            run_jacobi(ctx=crash_ctx)
        path = crash_ctx.checkpoint.snapshot_path()
        resume_ctx = ToolchainContext()
        resume_ctx.checkpoint = crash_ctx.checkpoint.for_resume(path)
        interp = run_jacobi(ctx=resume_ctx)
        assert interp.ckpt.resumed
        assert interp.runtime.profiler.counters["recovery.resumed"] == 1
        assert_identical(base, fingerprint(interp))

    def test_crash_and_resume_under_chaos(self, tmp_path):
        """Resume restores the chaos rng and suspends draws over the
        re-executed prefix, so the resumed run is bit-identical to the
        uninterrupted chaos run — same faults, same recoveries."""
        # Seed 3 at this rate: one mid-loop fault -> one rollback, then
        # completes (verified by sweep); crash_after_saves=2 fires earlier.
        chaos = lambda: FaultSpec.parse("transfer=0.05", seed=3)  # noqa: E731
        plain_ctx = ToolchainContext()
        plain_ctx.checkpoint = CheckpointConfig(every=2, max_rollbacks=50)
        plain_ctx.max_retries = 0
        base = fingerprint(run_jacobi(ctx=plain_ctx, chaos=chaos()))
        crash_ctx = ToolchainContext()
        crash_ctx.checkpoint = CheckpointConfig(
            every=2, dir=str(tmp_path), crash_after_saves=2, max_rollbacks=50)
        crash_ctx.max_retries = 0
        with pytest.raises(InjectedCrash):
            run_jacobi(ctx=crash_ctx, chaos=chaos())
        resume_ctx = ToolchainContext()
        resume_ctx.checkpoint = crash_ctx.checkpoint.for_resume(
            crash_ctx.checkpoint.snapshot_path())
        resume_ctx.max_retries = 0
        interp = run_jacobi(ctx=resume_ctx, chaos=chaos())
        assert interp.ckpt.resumed
        assert_identical(base, fingerprint(interp))

    def test_resume_wrong_program_is_typed(self, tmp_path):
        crash_ctx = ToolchainContext()
        crash_ctx.checkpoint = CheckpointConfig(
            every=2, dir=str(tmp_path), crash_after_saves=2)
        with pytest.raises(InjectedCrash):
            run_jacobi(ctx=crash_ctx)
        resume_ctx = ToolchainContext()
        resume_ctx.checkpoint = crash_ctx.checkpoint.for_resume(
            crash_ctx.checkpoint.snapshot_path())
        other = suite.get("NW")  # different program: loop site never matches
        with pytest.raises(CheckpointError, match="never"):
            run_variant(other, "unoptimized", size="tiny", seed=1,
                        ctx=resume_ctx)


# ---------------------------------------------------------------------------
# Harness integration
# ---------------------------------------------------------------------------

class TestHarness:
    def test_auto_resume_after_crash(self, tmp_path):
        base = fingerprint(run_jacobi())
        ctx = ToolchainContext()
        ctx.checkpoint = CheckpointConfig(
            every=2, dir=str(tmp_path), crash_after_saves=2)
        outcome = run_variant_isolated(
            suite.get("JACOBI"), "unoptimized", size="small", seed=1, ctx=ctx)
        assert outcome.ok
        assert outcome.resumed
        assert outcome.checkpoints_saved > 0
        assert_identical(base, fingerprint(outcome.interp))
        # The original config is restored for the next sweep entry.
        assert ctx.checkpoint.resume_path is None
        stripped = outcome.stripped()
        assert stripped.resumed and stripped.interp is None

    def test_typed_errors_do_not_auto_resume(self, tmp_path):
        """A typed toolchain error would just recur — only crashes and
        timeouts retry from the snapshot."""
        ctx = ToolchainContext()
        ctx.checkpoint = CheckpointConfig(every=1, max_rollbacks=0,
                                          dir=str(tmp_path))
        ctx.max_retries = 0
        outcome = run_variant_isolated(
            suite.get("JACOBI"), "unoptimized", size="small", seed=1,
            chaos=FaultSpec.parse(ROLLBACK_RATES, seed=ROLLBACK_SEED), ctx=ctx)
        assert not outcome.ok
        assert not outcome.resumed
        assert outcome.error_type == "RecoveryExhaustedError"
        assert outcome.error_stage == "recovery"

    def test_report_written_on_timeout_path(self, tmp_path):
        """Satellite: the RunReport (with its recovery section) lands on the
        SIGALRM/watchdog path too, not just clean exits."""
        import json

        report_path = tmp_path / "report.json"
        ctx = ToolchainContext()
        outcome = run_variant_isolated(
            suite.get("JACOBI"), "unoptimized", size="small", seed=1,
            timeout_s=1e-4, ctx=ctx, report_path=str(report_path))
        assert not outcome.ok and outcome.error_stage == "timeout"
        report = json.loads(report_path.read_text())
        assert report["error"]["type"] == "TimeoutError"
        assert "recovery" in report
        assert report["outcome"]["error_stage"] == "timeout"

    def test_report_written_on_crash_path(self, tmp_path):
        import json

        report_path = tmp_path / "report.json"
        ctx = ToolchainContext()
        # crash_after_saves without dir: InjectedCrash, nothing to resume.
        ctx.checkpoint = CheckpointConfig(every=2, crash_after_saves=1)
        outcome = run_variant_isolated(
            suite.get("JACOBI"), "unoptimized", size="small", seed=1,
            ctx=ctx, report_path=str(report_path))
        assert not outcome.ok and outcome.error_stage == "internal"
        report = json.loads(report_path.read_text())
        assert report["recovery"]["checkpoints_saved"] == 1
        assert report["outcome"]["checkpoints_saved"] == 1

    def test_report_written_on_success_path(self, tmp_path):
        import json

        report_path = tmp_path / "report.json"
        ctx = ToolchainContext()
        ctx.checkpoint = CheckpointConfig(every=2)
        outcome = run_variant_isolated(
            suite.get("JACOBI"), "unoptimized", size="small", seed=1,
            ctx=ctx, report_path=str(report_path))
        assert outcome.ok
        report = json.loads(report_path.read_text())
        assert report["error"] is None
        assert report["recovery"]["checkpoints_saved"] == outcome.checkpoints_saved > 0


# ---------------------------------------------------------------------------
# Conflicts and knobs
# ---------------------------------------------------------------------------

class TestConflictsAndKnobs:
    def test_checkpoint_conflicts_with_sampling(self):
        ctx = ToolchainContext()
        ctx.sampling = SamplingConfig()
        ctx.checkpoint = CheckpointConfig(every=2)
        with pytest.raises(CheckpointConflictError):
            run_jacobi(variant="optimized", ctx=ctx)

    def test_max_retries_knob_reaches_runtime(self):
        ctx = ToolchainContext()
        ctx.max_retries = 7
        assert AccRuntime(ctx=ctx).max_retries == 7
        assert AccRuntime(ctx=ctx, max_retries=1).max_retries == 1  # explicit wins
        assert AccRuntime().max_retries == AccRuntime.DEFAULT_MAX_RETRIES

    def test_backoff_base_knob(self):
        ctx = ToolchainContext()
        ctx.backoff_base = 0.5
        rt = AccRuntime(ctx=ctx)
        assert rt.backoff_time(0) == 0.5
        assert rt.backoff_time(2) == 2.0
        # Unset: defers to the cost model (bit-identical to the old path).
        default_rt = AccRuntime()
        base = default_rt.device.config.costs.retry_backoff_s
        assert default_rt.backoff_time(1) == base * 2
