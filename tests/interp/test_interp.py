"""Host interpreter tests: sequential semantics + OpenACC dispatch."""

import numpy as np
import pytest

from repro.compiler import CompilerOptions, compile_source
from repro.errors import InterpError
from repro.interp import run_compiled, run_sequential


def run(src, params=None, **kw):
    return run_compiled(compile_source(src), params=params, **kw)


class TestSequentialSemantics:
    def test_arithmetic_and_loops(self):
        it = run(
            """
            int n;
            void main() { n = 0; for (int i = 1; i <= 10; i++) { n += i; } }
            """
        )
        assert it.env.load("n") == 55

    def test_inner_declaration_dtype_ends_with_its_scope(self):
        # The inner `double x` must not make later stores to the outer
        # `int x` keep their fraction.
        it = run(
            """
            double out;
            void main() {
                int x;
                x = 7;
                { double x; x = 2.5; }
                x = 3.9;
                out = x;
            }
            """
        )
        assert it.env.load("out") == 3.0

    def test_integer_division_truncates_toward_zero(self):
        it = run("int a, b; void main() { a = -7 / 2; b = 7 % 2; }")
        assert it.env.load("a") == -3 and it.env.load("b") == 1

    def test_float32_array_precision(self):
        it = run(
            "int N; float x[N]; void main() { x[0] = 0.1; }",
            params={"N": 4},
        )
        assert it.env.array("x").dtype == np.float32

    def test_array_param_preload(self):
        preset = np.arange(4.0)
        it = run(
            "int N; double x[N]; double s; void main() { s = x[3]; }",
            params={"N": 4, "x": preset},
        )
        assert it.env.load("s") == 3.0

    def test_while_and_break(self):
        it = run(
            """
            int n;
            void main() { n = 1; while (1) { n = n * 2; if (n > 50) { break; } } }
            """
        )
        assert it.env.load("n") == 64

    def test_continue(self):
        it = run(
            """
            int n;
            void main() { n = 0; for (int i = 0; i < 10; i++) { if (i % 2 == 1) { continue; } n += 1; } }
            """
        )
        assert it.env.load("n") == 5

    def test_block_scoping(self):
        it = run(
            """
            double r;
            void main()
            {
                double x = 1.0;
                { double x = 2.0; }
                r = x;
            }
            """
        )
        assert it.env.load("r") == 1.0

    def test_user_function_call(self):
        it = run(
            """
            double r;
            double square(double v) { return v * v; }
            void main() { r = square(3.0); }
            """
        )
        assert it.env.load("r") == 9.0

    def test_user_function_array_by_reference(self):
        it = run(
            """
            int N;
            double a[N];
            void fill(double v) { for (int i = 0; i < N; i++) { a[i] = v; } }
            void main() { fill(4.0); }
            """,
            params={"N": 3},
        )
        assert np.all(it.env.array("a") == 4.0)

    def test_printf_collected(self):
        it = run('void main() { printf("n=%d\\n", 42); }')
        assert it.env.stdout == ["n=42\n"]

    def test_pointer_binding_and_canonical(self):
        it = run(
            """
            int N;
            double a[N];
            double r;
            void main()
            {
                double *p;
                p = a;
                p[0] = 5.0;
                r = a[0];
            }
            """,
            params={"N": 4},
        )
        assert it.env.load("r") == 5.0

    def test_unbound_name_raises(self):
        with pytest.raises(InterpError):
            run("void main() { int x = zzz; }")

    def test_undeclared_dim_raises(self):
        with pytest.raises(InterpError):
            run("double a[M]; void main() { }")

    def test_unset_declared_dim_defaults_to_zero(self):
        it = run("int N; double a[N]; void main() { }")
        assert it.env.array("a").shape == (0,)


ACC_SRC = """
int N;
double a[N], b[N];
double s;

void main()
{
    for (int i = 0; i < N; i++) { b[i] = (double)i; }
    s = 0.0;
    #pragma acc data copyin(b) copyout(a)
    {
        #pragma acc kernels loop gang worker
        for (int i = 0; i < N; i++) { a[i] = b[i] * 3.0; }
        #pragma acc kernels loop reduction(+:s)
        for (int i = 0; i < N; i++) { s = s + a[i]; }
    }
}
"""


class TestOpenACCExecution:
    def test_matches_sequential(self):
        compiled = compile_source(ACC_SRC)
        acc = run_compiled(compiled, params={"N": 32})
        seq = run_sequential(compiled, params={"N": 32})
        assert np.allclose(acc.env.array("a"), seq.env.array("a"))
        assert acc.env.load("s") == pytest.approx(seq.env.load("s"))

    def test_acc_disabled_runs_sequentially(self):
        compiled = compile_source(ACC_SRC)
        it = run_compiled(compiled, params={"N": 8}, acc_enabled=False)
        assert it.runtime.device.total_transferred_bytes() == 0
        assert np.allclose(it.env.array("a"), np.arange(8.0) * 3.0)

    def test_data_region_lifecycle_frees_buffers(self):
        compiled = compile_source(ACC_SRC)
        it = run_compiled(compiled, params={"N": 8})
        assert it.runtime.device.mem.live_allocations == 0

    def test_update_host_directive(self):
        src = """
        int N;
        double a[N];
        double r;
        void main()
        {
            #pragma acc data create(a)
            {
                #pragma acc kernels loop
                for (int i = 0; i < N; i++) { a[i] = 7.0; }
                #pragma acc update host(a)
                r = a[0];
            }
        }
        """
        it = run(src, params={"N": 4})
        assert it.env.load("r") == 7.0

    def test_without_update_host_sees_stale_data(self):
        src = """
        int N;
        double a[N];
        double r;
        void main()
        {
            #pragma acc data create(a)
            {
                #pragma acc kernels loop
                for (int i = 0; i < N; i++) { a[i] = 7.0; }
                r = a[0];
            }
        }
        """
        it = run(src, params={"N": 4})
        assert it.env.load("r") == 0.0  # classic missing-transfer bug

    def test_async_kernel_with_wait(self):
        src = """
        int N;
        double a[N];
        void main()
        {
            #pragma acc data copyout(a)
            {
                #pragma acc kernels loop async(1)
                for (int i = 0; i < N; i++) { a[i] = 2.0; }
                #pragma acc wait(1)
            }
        }
        """
        it = run(src, params={"N": 8})
        from repro.runtime.profiler import CAT_ASYNC_WAIT

        assert it.runtime.profiler.totals[CAT_ASYNC_WAIT] > 0
        assert np.all(it.env.array("a") == 2.0)

    def test_kernel_through_pointer_alias(self):
        src = """
        int N;
        double a[N];
        double r;
        void main()
        {
            double *p;
            p = a;
            #pragma acc kernels loop copyout(p)
            for (int i = 0; i < N; i++) { p[i] = 9.0; }
            r = a[0];
        }
        """
        it = run(src, params={"N": 4})
        assert it.env.load("r") == 9.0

    def test_profiler_charges_cpu_time(self):
        from repro.runtime.profiler import CAT_CPU

        it = run(ACC_SRC, params={"N": 16})
        assert it.runtime.profiler.totals[CAT_CPU] > 0

    def test_2d_kernel(self):
        src = """
        int N;
        double m[N][N];
        void main()
        {
            #pragma acc kernels loop collapse(2)
            for (int i = 0; i < N; i++)
                for (int j = 0; j < N; j++)
                    m[i][j] = (double)(i + j);
        }
        """
        it = run(src, params={"N": 4})
        expected = np.add.outer(np.arange(4.0), np.arange(4.0))
        assert np.allclose(it.env.array("m"), expected)
