"""Kernel engine tests: correctness, races, reductions, schedules."""

import numpy as np
import pytest

from repro.device.compile import compile_body
from repro.device.engine import IterSpace, KernelEngine, LaunchSpec, Schedule
from repro.errors import DeviceError
from repro.lang import parse_program


def body_of(src):
    """Statements of main()'s single top-level for loop body."""
    prog = parse_program(f"void main() {{ {src} }}")
    loop = prog.func("main").body.body[0]
    return loop.body.body


def make_spec(body_src, n=16, split=None, dump=None, **kw):
    stmts = body_of(f"for (int i = 0; i < {n}; i++) {{ {body_src} }}")
    instrs = compile_body(stmts, split_vars=split, dump_vars=dump)
    return LaunchSpec(
        name="k",
        instrs=instrs,
        index_vars=("i",),
        space=IterSpace([range(n)]),
        **kw,
    )


class TestBasicExecution:
    def test_elementwise_copy(self):
        a = np.zeros(16)
        b = np.arange(16, dtype=np.float64)
        spec = make_spec("a[i] = b[i] * 2.0;", arrays={"a": a, "b": b})
        KernelEngine().launch(spec, Schedule.round_robin())
        assert np.allclose(a, b * 2.0)

    def test_scalar_param(self):
        a = np.zeros(8)
        spec = make_spec("a[i] = (double)c;", n=8, arrays={"a": a}, scalars={"c": 7})
        KernelEngine().launch(spec)
        assert np.all(a == 7.0)

    def test_inner_sequential_loop(self):
        a = np.zeros(4)
        spec = make_spec(
            "double s = 0.0; for (int j = 0; j < 5; j++) { s = s + 1.0; } a[i] = s;",
            n=4,
            arrays={"a": a},
        )
        KernelEngine().launch(spec)
        assert np.all(a == 5.0)

    def test_branch_in_body(self):
        a = np.zeros(10)
        spec = make_spec(
            "if (i % 2 == 0) { a[i] = 1.0; } else { a[i] = -1.0; }",
            n=10,
            arrays={"a": a},
        )
        KernelEngine().launch(spec)
        assert np.all(a[::2] == 1.0) and np.all(a[1::2] == -1.0)

    def test_while_and_break(self):
        a = np.zeros(4)
        spec = make_spec(
            "int j = 0; while (1) { j = j + 1; if (j > 3) { break; } } a[i] = (double)j;",
            n=4,
            arrays={"a": a},
        )
        KernelEngine().launch(spec)
        assert np.all(a == 4.0)

    def test_continue(self):
        a = np.zeros(1)
        spec = make_spec(
            "double s = 0.0; for (int j = 0; j < 6; j++) { if (j % 2 == 1) { continue; } s = s + 1.0; } a[i] = s;",
            n=1,
            arrays={"a": a},
        )
        KernelEngine().launch(spec)
        assert a[0] == 3.0

    def test_float32_array_truncates(self):
        a = np.zeros(1, dtype=np.float32)
        spec = make_spec("a[i] = 1.0000000001;", n=1, arrays={"a": a})
        KernelEngine().launch(spec)
        assert a[0] == np.float32(1.0000000001)

    def test_step_budget_enforced(self):
        spec = make_spec("while (1) { int z = 0; }", n=1, arrays={})
        engine = KernelEngine(max_total_steps=1000)
        with pytest.raises(DeviceError):
            engine.launch(spec)

    def test_2d_index_space(self):
        a = np.zeros((4, 4))
        prog = parse_program(
            "void main() { for (int i = 0; i < 4; i++) { for (int j = 0; j < 4; j++) { a[i][j] = (double)(i * 4 + j); } } }"
        )
        inner = prog.func("main").body.body[0].body.body[0]
        instrs = compile_body(inner.body.body)
        spec = LaunchSpec(
            "k2d", instrs, ("i", "j"),
            IterSpace([range(4), range(4)]),
            arrays={"a": a},
        )
        KernelEngine().launch(spec)
        assert np.allclose(a, np.arange(16.0).reshape(4, 4))


class TestReductions:
    def test_recognized_reduction_correct(self):
        b = np.arange(32, dtype=np.float64)
        spec = make_spec(
            "s = s + b[i];", n=32, arrays={"b": b},
            reductions=[("s", "+", np.float64)],
        )
        res = KernelEngine().launch(spec)
        assert res.reductions["s"] == pytest.approx(b.sum())

    def test_max_reduction(self):
        b = np.array([3.0, 9.0, 1.0, 7.0])
        spec = make_spec(
            "if (b[i] > m) { m = b[i]; }", n=4, arrays={"b": b},
            reductions=[("m", "max", np.float64)],
        )
        res = KernelEngine().launch(spec)
        assert res.reductions["m"] == 9.0

    def test_stepper_shard_partials_keep_python_values(self):
        # The multi-device merge concatenates shard partials; the stepper's
        # must arrive unconverted (int64 values above 2**53 would round
        # as floats).
        big = 2 ** 55 + 1
        spec = make_spec("s = s + c;", n=4, arrays={}, scalars={"c": big},
                         reductions=[("s", "+", np.int64)])
        partials = {}
        res = KernelEngine(vectorize=False).launch(spec, partials_out=partials)
        assert partials["s"].tolist() == [big] * 4
        assert res.reductions["s"] == 4 * big

    def test_float32_tree_order_differs_from_sequential(self):
        rng = np.random.default_rng(42)
        vals = (rng.random(4096, dtype=np.float32) * 1000).astype(np.float32)
        from repro.device.reduction import sequential_reduce, tree_reduce

        tree = tree_reduce("+", list(vals), np.float32)
        seq = sequential_reduce("+", list(vals), np.float32)
        assert tree != seq  # rounding order matters in float32
        assert tree == pytest.approx(seq, rel=1e-4)

    def test_missing_reduction_races_under_interleaving(self):
        # Unrecognized reduction: shared scalar + split RMW -> lost updates.
        b = np.ones(64, dtype=np.float64)
        spec = make_spec(
            "s = s + b[i];", n=64, arrays={"b": b},
            scalars={"s": 0.0}, shared_writable={"s"}, split=["s"],
        )
        res = KernelEngine().launch(spec, Schedule.round_robin(quantum=1))
        assert res.shared_final["s"] < 64.0  # updates lost: active error

    def test_missing_reduction_sequential_schedule_hides_race(self):
        b = np.ones(64, dtype=np.float64)
        spec = make_spec(
            "s = s + b[i];", n=64, arrays={"b": b},
            scalars={"s": 0.0}, shared_writable={"s"}, split=["s"],
        )
        res = KernelEngine().launch(spec, Schedule.sequential())
        assert res.shared_final["s"] == 64.0  # no interleaving, no race


class TestPrivatization:
    def test_private_variable_isolated(self):
        a = np.zeros(8)
        spec = make_spec(
            "t = (double)i; a[i] = t * 2.0;", n=8, arrays={"a": a},
            private_decls={"t": np.float64},
        )
        KernelEngine().launch(spec, Schedule.round_robin())
        assert np.allclose(a, np.arange(8.0) * 2.0)

    def test_firstprivate_initial_value(self):
        a = np.zeros(4)
        spec = make_spec(
            "a[i] = t + (double)i;", n=4, arrays={"a": a},
            firstprivate={"t": 10.0},
        )
        KernelEngine().launch(spec)
        assert np.allclose(a, 10.0 + np.arange(4.0))

    def test_cached_var_latent_race(self):
        # Falsely-shared scalar with register caching + dump-back: per-thread
        # results stay correct (latent), but the shared final value is one
        # thread's value.
        a = np.zeros(8)
        spec = make_spec(
            "t = (double)i; a[i] = t * 2.0;", n=8, arrays={"a": a},
            cached_vars={"t": 0.0}, shared_writable={"t"}, dump=["t"],
        )
        res = KernelEngine().launch(spec, Schedule.round_robin())
        assert np.allclose(a, np.arange(8.0) * 2.0)  # outputs unaffected
        assert res.shared_final["t"] in {float(i) for i in range(8)}

    def test_truly_shared_without_caching_races(self):
        # The same code with t genuinely shared (no caching, no privatization)
        # corrupts outputs under interleaving: this is what a compiler bug
        # would do with memory-resident scalars.
        a = np.zeros(8)
        spec = make_spec(
            "t = (double)i; a[i] = t * 2.0;", n=8, arrays={"a": a},
            scalars={"t": 0.0}, shared_writable={"t"},
        )
        KernelEngine().launch(spec, Schedule.round_robin(quantum=1))
        assert not np.allclose(a, np.arange(8.0) * 2.0)


class TestSchedules:
    def test_random_schedule_deterministic_per_seed(self):
        def run(seed):
            a = np.zeros(16)
            spec = make_spec(
                "t = (double)i; a[i] = t;", n=16, arrays={"a": a},
                scalars={"t": 0.0}, shared_writable={"t"},
            )
            KernelEngine().launch(spec, Schedule.random(seed=seed))
            return a.copy()

        assert np.array_equal(run(7), run(7))

    def test_sequential_matches_roundrobin_when_race_free(self):
        def run(schedule):
            a = np.zeros(16)
            b = np.arange(16, dtype=np.float64)
            spec = make_spec("a[i] = b[i] + 1.0;", arrays={"a": a, "b": b})
            KernelEngine().launch(spec, schedule)
            return a

        assert np.array_equal(run(Schedule.sequential()), run(Schedule.round_robin()))

    def test_step_counts_reported(self):
        a = np.zeros(4)
        spec = make_spec("a[i] = 1.0;", n=4, arrays={"a": a})
        res = KernelEngine().launch(spec)
        assert res.total_steps >= 4
        assert res.max_thread_steps >= 1

    def test_bad_schedule_kind_raises(self):
        with pytest.raises(ValueError):
            Schedule("chaotic")
