"""Compiled closures live on their AST node: compiled once, never shared
between nodes, never copied or pickled, collected with the program."""

import copy
import gc
import pickle
import weakref

import numpy as np

from repro.compiler import compile_source
from repro.device import vectorize
from repro.interp import run_compiled
from repro.lang import ast, parse_program
from repro.lang import semantics
from repro.lang.parser import parse_expression
from repro.lang.visitor import Transformer


class _Env:
    """Minimal environment: dict-backed load/store."""

    def __init__(self, **vals):
        self.vals = dict(vals)

    def load(self, name):
        return self.vals[name]

    def store(self, name, value):
        self.vals[name] = value


class _RenameY(Transformer):
    """Rewrites every ``y`` to ``z`` (clones each node on the path)."""

    def visit_Name(self, node):
        return ast.Name("z", node.line) if node.id == "y" else node


def _closures(node):
    """Closure slots set on ``node`` or any descendant."""
    return [(type(n).__name__, name) for n in node.walk()
            for name in sorted(ast.CLOSURE_SLOTS) if hasattr(n, name)]


def _assign(source):
    """The first statement of ``main`` in a one-statement program."""
    return parse_program(f"int x, y, z; void main() {{ {source} }}"
                         ).func("main").body.body[0]


def _vector_ctx():
    ctx = vectorize._Ctx(3, {}, {})
    ctx.regs.update(x=np.array([1, 2, 3]), y=np.array([10, 20, 30]),
                    z=np.array([100, 200, 300]))
    return ctx, np.arange(3)


class TestPerNodeKeying:
    def test_same_node_compiles_once(self):
        expr = parse_expression("x + 1")
        before = semantics.expr_cache_stats()["expr_compiled"]
        fn1 = semantics.compile_expr(expr)
        fn2 = semantics.compile_expr(expr)
        assert fn1 is fn2
        # One closure each for the Binary, the Name and the IntLit.
        assert semantics.expr_cache_stats()["expr_compiled"] == before + 3

    def test_structurally_equal_nodes_get_distinct_entries(self):
        # Per-node closures: two parses of the same text are different
        # programs and must never share closures (line numbers, mutation).
        a = parse_expression("x * 2 + y")
        b = parse_expression("x * 2 + y")
        assert a == b
        assert semantics.compile_expr(a) is not semantics.compile_expr(b)

    def test_evaluate_uses_cache(self):
        expr = parse_expression("a[i] + 1.0")
        env = _Env(a=np.arange(4.0), i=2)
        assert semantics.evaluate(expr, env) == 3.0
        after_first = semantics.expr_cache_stats()
        assert semantics.evaluate(expr, env) == 3.0
        # Sub-closures are composed at compile time, so the second evaluation
        # compiles nothing: the stored top-level closure does all the work.
        assert semantics.expr_cache_stats() == after_first


class TestNoLeaksBetweenPrograms:
    def test_entries_die_with_their_ast(self):
        prog = parse_program("void main() { int x; x = 1 + 2; }")
        assign = prog.func("main").body.body[1]
        closures = [weakref.ref(semantics.compile_stmt(assign)),
                    weakref.ref(semantics.compile_expr(assign.value)),
                    weakref.ref(vectorize._vec_expr(assign.value))]
        root = weakref.ref(prog)
        del prog, assign
        gc.collect()
        assert root() is None
        assert all(ref() is None for ref in closures)

    def test_two_programs_do_not_share_closures(self):
        p1 = parse_program("void main() { int x; x = 40 + 2; }")
        p2 = parse_program("void main() { int x; x = 40 + 2; }")
        e1 = p1.func("main").body.body[1].value
        e2 = p2.func("main").body.body[1].value
        assert semantics.compile_expr(e1) is not semantics.compile_expr(e2)


class TestCloneSafety:
    """A clone whose child was replaced must run the new child, never the
    closure compiled for the original."""

    def test_copied_host_expr_evaluates_new_child(self):
        expr = parse_expression("x + y")
        env = _Env(x=1, y=10, z=100)
        assert semantics.evaluate(expr, env) == 11
        clone = copy.copy(expr)
        clone.right = ast.Name("z")
        assert semantics.evaluate(clone, env) == 101
        assert semantics.evaluate(expr, env) == 11

    def test_transformed_host_stmt_runs_new_child(self):
        stmt = _assign("x = y * 2;")
        env = _Env(x=0, y=10, z=100)
        semantics.exec_simple(stmt, env)
        assert env.vals["x"] == 20
        clone = _RenameY().visit(stmt)
        assert clone is not stmt
        semantics.exec_simple(clone, env)
        assert env.vals["x"] == 200

    def test_copied_vector_expr_evaluates_new_child(self):
        expr = parse_expression("x + y")
        ctx, sel = _vector_ctx()
        assert vectorize._vec_expr(expr)(ctx, sel).tolist() == [11, 22, 33]
        clone = copy.copy(expr)
        clone.right = ast.Name("z")
        assert vectorize._vec_expr(clone)(ctx, sel).tolist() == [101, 202, 303]

    def test_transformed_vector_stmt_runs_new_child(self):
        stmt = _assign("x = y * 2;")
        ctx, sel = _vector_ctx()
        vectorize._vec_stmt(stmt)(ctx, sel)
        assert ctx.regs["x"].tolist() == [20, 40, 60]
        clone = _RenameY().visit(stmt)
        vectorize._vec_stmt(clone)(ctx, sel)
        assert ctx.regs["x"].tolist() == [200, 400, 600]


class TestPickleAndDeepcopy:
    SOURCE = """
    int N;
    double a[N];
    double s;
    void main() {
        int i;
        s = 0.0;
        for (i = 0; i < N; i++) { a[i] = i * 0.5; }
        #pragma acc kernels loop copy(a)
        for (i = 0; i < N; i++) { a[i] = a[i] * 2.0 + 1.0; }
        for (i = 0; i < N; i++) { s += a[i]; }
    }
    """

    def test_pickle_is_identical_before_and_after_a_run(self):
        compiled = compile_source(self.SOURCE)
        before = pickle.dumps(compiled.program)
        run_compiled(compiled, params={"N": 16})
        assert _closures(compiled.program), "the run compiled no closures"
        assert pickle.dumps(compiled.program) == before
        assert pickle.loads(before) == compiled.program

    def test_deepcopy_carries_no_closures(self):
        compiled = compile_source(self.SOURCE)
        run_compiled(compiled, params={"N": 16})
        clone = copy.deepcopy(compiled.program)
        assert clone == compiled.program
        assert _closures(clone) == []
