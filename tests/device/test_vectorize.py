"""Vectorized backend vs. interleaved stepper equivalence + analysis units.

The load-bearing property: for every benchmark kernel the vectorized fast
path must be *observably identical* to the interleaved stepper — same output
arrays bit for bit, same reductions, same per-launch step accounting (and
therefore the same modeled times).  Race-revealing launches must provably
take the interleaved path.
"""

import numpy as np
import pytest

from repro.bench import suite
from repro.compiler import CompilerOptions, compile_source
from repro.device import vectorize
from repro.device.bytecode import Simple
from repro.device.device import Device, DeviceConfig
from repro.device.engine import IterSpace, KernelEngine, LaunchSpec, Schedule
from repro.interp import run_compiled
from repro.lang.parser import parse_program
from repro.runtime.accrt import AccRuntime
from repro.runtime.profiler import (
    CTR_LAUNCH_INTERLEAVED,
    CTR_LAUNCH_VECTORIZED,
    Profiler,
)


def _run_variant(bench, variant, *, vectorized: bool, schedule=None):
    runtime = AccRuntime(Device(DeviceConfig(vectorize=vectorized)), Profiler())
    compiled = bench.compile(variant)
    return run_compiled(
        compiled, params=bench.params("tiny"), runtime=runtime, schedule=schedule
    )


class TestBackendEquivalence:
    """Both backends must agree on every observable, benchmark by benchmark."""

    @pytest.mark.parametrize("name", suite.all_names())
    @pytest.mark.parametrize("variant", ["optimized", "unoptimized"])
    def test_outputs_and_accounting_match(self, name, variant):
        bench = suite.get(name)
        fast = _run_variant(bench, variant, vectorized=True)
        slow = _run_variant(bench, variant, vectorized=False)

        # Output variables: bit-identical arrays and scalars.
        for out in bench.outputs:
            got = fast.env.load(out)
            ref = slow.env.load(out)
            if isinstance(ref, np.ndarray):
                np.testing.assert_array_equal(got, ref, err_msg=f"{name}:{out}")
            else:
                assert got == ref, f"{name}:{out}: {got!r} != {ref!r}"

        # Per-launch step accounting drives the modeled kernel time; it must
        # match launch by launch, as must the reductions.
        assert len(fast.runtime.launch_log) == len(slow.runtime.launch_log)
        for f, s in zip(fast.runtime.launch_log, slow.runtime.launch_log):
            assert f.name == s.name
            assert f.total_steps == s.total_steps, f.name
            assert f.max_thread_steps == s.max_thread_steps, f.name
            assert f.reductions == s.reductions, f.name

        # Identical modeled host clock.
        assert fast.runtime.profiler.total() == slow.runtime.profiler.total()

    @pytest.mark.parametrize("name", suite.all_names())
    def test_sequential_schedule_matches_too(self, name):
        bench = suite.get(name)
        fast = _run_variant(
            bench, "optimized", vectorized=True, schedule=Schedule.sequential()
        )
        slow = _run_variant(
            bench, "optimized", vectorized=False, schedule=Schedule.sequential()
        )
        for out in bench.outputs:
            got, ref = fast.env.load(out), slow.env.load(out)
            if isinstance(ref, np.ndarray):
                np.testing.assert_array_equal(got, ref, err_msg=f"{name}:{out}")
            else:
                assert got == ref, f"{name}:{out}"
        for f, s in zip(fast.runtime.launch_log, slow.runtime.launch_log):
            assert (f.total_steps, f.max_thread_steps) == (s.total_steps, s.max_thread_steps)

    def test_fast_path_actually_taken(self):
        """The equivalence tests above are vacuous if nothing vectorizes."""
        bench = suite.get("JACOBI")
        interp = _run_variant(bench, "optimized", vectorized=True)
        counters = interp.runtime.profiler.counters
        assert counters.get(CTR_LAUNCH_VECTORIZED, 0) > 0
        assert counters.get(CTR_LAUNCH_INTERLEAVED, 0) == 0


def _spec(source: str, arrays, space, index_vars=("i",), **kw) -> LaunchSpec:
    from repro.device.compile import compile_body

    # Same idiom as test_engine: wrap the body in main()'s partitioned loop.
    prog = parse_program(f"void main() {{ for (int i = 0; i < 1; i++) {source} }}")
    body = prog.func("main").body.body[0].body.body
    instrs = compile_body(
        body, split_vars=kw.pop("split_vars", None), dump_vars=kw.pop("dump_vars", None)
    )
    return LaunchSpec(
        name="k", instrs=instrs, index_vars=index_vars, space=space,
        arrays=arrays, **kw,
    )


class TestAnalysis:
    """Unit coverage of the vectorizability classification."""

    def test_elementwise_kernel_vectorizes(self):
        spec = _spec(
            "{ b[i] = a[i] * 2.0; }",
            {"a": np.arange(4.0), "b": np.zeros(4)},
            IterSpace([range(4)]),
        )
        assert vectorize.plan_for(spec) is not None

    def test_shared_writable_scalar_falls_back(self):
        spec = _spec(
            "{ t = a[i]; }",
            {"a": np.arange(4.0)},
            IterSpace([range(4)]),
            scalars={"t": 0.0},
            shared_writable={"t"},
        )
        assert vectorize.plan_for(spec) is None

    def test_split_rmw_falls_back(self):
        # Unrecognized reduction: split TmpEval/TmpStore is the active-race
        # construct and must stay on the interleaved stepper.
        spec = _spec(
            "{ s = s + a[i]; }",
            {"a": np.arange(4.0)},
            IterSpace([range(4)]),
            scalars={"s": 0.0},
            shared_writable={"s"},
            split_vars=("s",),
        )
        assert vectorize.plan_for(spec) is None

    def test_histogram_scatter_falls_back(self):
        # q[l] with a thread-computed l is not provably one-element-per-lane.
        spec = _spec(
            "{ long l; l = (long) a[i]; q[l] = q[l] + 1.0; }",
            {"a": np.arange(4.0), "q": np.zeros(4)},
            IterSpace([range(4)]),
        )
        assert vectorize.plan_for(spec) is None

    def test_stencil_read_of_written_array_falls_back(self):
        spec = _spec(
            "{ a[i] = a[i - 1] + 1.0; }",
            {"a": np.arange(4.0)},
            IterSpace([range(1, 4)]),
        )
        assert vectorize.plan_for(spec) is None

    def test_recognized_reduction_vectorizes(self):
        spec = _spec(
            "{ s = s + a[i]; }",
            {"a": np.arange(4.0)},
            IterSpace([range(4)]),
            reductions=[("s", "+", np.float64)],
        )
        assert vectorize.plan_for(spec) is not None
        engine = KernelEngine()
        result = engine.launch(spec, Schedule.round_robin())
        assert result.backend == "vectorized"
        ref = KernelEngine(vectorize=False).launch(
            LaunchSpec(
                name="k", instrs=spec.instrs, index_vars=("i",),
                space=spec.space, arrays=spec.arrays,
                reductions=spec.reductions,
            ),
            Schedule.round_robin(),
        )
        assert result.reductions == ref.reductions
        assert result.total_steps == ref.total_steps

    def test_random_schedule_forces_interleaved(self):
        spec = _spec(
            "{ b[i] = a[i] * 2.0; }",
            {"a": np.arange(4.0), "b": np.zeros(4)},
            IterSpace([range(4)]),
        )
        result = KernelEngine().launch(spec, Schedule.random(seed=7))
        assert result.backend == "interleaved"

    def test_vectorize_false_disables_fast_path(self):
        spec = _spec(
            "{ b[i] = a[i] * 2.0; }",
            {"a": np.arange(4.0), "b": np.zeros(4)},
            IterSpace([range(4)]),
        )
        result = KernelEngine(vectorize=False).launch(spec, Schedule.round_robin())
        assert result.backend == "interleaved"


class TestTable2RacePath:
    """Fault-injected kernels must provably run on the interleaved stepper —
    that is where Table II's race detection lives."""

    @pytest.mark.parametrize("name", ["SPMUL", "EP", "CG", "BACKPROP"])
    def test_fault_injected_kernels_interleave(self, name):
        from repro.compiler.faults import drop_private_clauses, drop_reduction_clauses
        from repro.compiler.driver import compile_ast
        from repro.lang.parser import parse_program

        bench = suite.get(name)
        options = CompilerOptions(
            auto_privatize=False, auto_reduction=False, strict_validation=False
        )
        program = parse_program(bench.optimized_source)
        faulty = drop_reduction_clauses(drop_private_clauses(program))
        compiled = compile_ast(faulty, options)

        runtime = AccRuntime(Device(DeviceConfig()), Profiler())
        run_compiled(compiled, params=bench.params("tiny"), runtime=runtime)
        # Every launch that carries race-revealing state must have gone
        # interleaved; the faulty variants of these four all do.
        assert runtime.profiler.counters.get(CTR_LAUNCH_INTERLEAVED, 0) > 0
        for result in runtime.launch_log:
            if result.shared_final:
                assert result.backend == "interleaved"
