"""Expression evaluation with C semantics.

Shared by the host interpreter and the device VM.  The evaluator is generic
over an *environment* object providing name resolution and stores:

    env.load(name)                 -> value (scalar, or numpy array for
                                      arrays/pointers)
    env.store(name, value)         -> None (scalar assignment / rebinding)
    env.call(func, args)           -> value (builtin dispatch)

Array element access goes through the numpy array returned by ``load`` so
float32 truncation happens naturally on store.  Integer division and modulo
follow C (truncation toward zero), not Python (floor).

Expressions and simple statements are *compiled once* per AST node into
Python closures (:func:`compile_expr` / :func:`compile_stmt`) and the
closure is reused on every subsequent evaluation — the host interpreter and
the device stepper both go through these closures, which removes the
per-visit type dispatch that dominated interpretation cost.  Each closure is
stored in a slot on the node it was compiled from, so it dies with its AST
and never leaks between programs.  Compiler passes clone nodes they rewrite
(they never mutate expression fields in place), and clones do not carry
closures, so a stored closure can never go stale.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence

import numpy as np

from repro.errors import InterpError
from repro.lang import ast
from repro.lang.ctypes import Scalar


def c_div(a, b):
    """C semantics: integer operands truncate toward zero."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        if b == 0:
            raise InterpError("integer division by zero")
        q = abs(int(a)) // abs(int(b))
        return q if (a >= 0) == (b >= 0) else -q
    return a / b

def c_mod(a, b):
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        if b == 0:
            raise InterpError("integer modulo by zero")
        return int(a) - c_div(a, b) * int(b)
    return math.fmod(a, b)


_BINOPS: Dict[str, Callable] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": c_div,
    "%": c_mod,
    "<": lambda a, b: int(a < b),
    ">": lambda a, b: int(a > b),
    "<=": lambda a, b: int(a <= b),
    ">=": lambda a, b: int(a >= b),
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "&": lambda a, b: int(a) & int(b),
    "|": lambda a, b: int(a) | int(b),
    "^": lambda a, b: int(a) ^ int(b),
    "<<": lambda a, b: int(a) << int(b),
    ">>": lambda a, b: int(a) >> int(b),
}


# ---------------------------------------------------------------------------
# Compiled closures
# ---------------------------------------------------------------------------
#
# Each node's closure lives in a slot on the node itself (``_eval``,
# ``_store``, ``_exec``; see :data:`repro.lang.ast.CLOSURE_SLOTS`), unset
# until the first compile.  A lookup is one attribute read, and a closure
# dies with its AST, so nothing has to bound or evict them: a daemon's
# retained ASTs are bounded by its pass cache.  Two threads racing to
# compile one node each store an equivalent closure, and either may win.

_COMPILED = {"expr_compiled": 0, "stmt_compiled": 0}


def expr_cache_stats() -> Dict[str, int]:
    """Expression and statement closures compiled so far (diagnostics)."""
    return dict(_COMPILED)


def compile_expr(expr: ast.Expr) -> Callable:
    """Closure for ``expr``: ``fn(env) -> value``.  Compiled once per node."""
    try:
        return expr._eval
    except AttributeError:
        _COMPILED["expr_compiled"] += 1
        fn = expr._eval = _compile_expr(expr)
        return fn


def compile_store(target: ast.Expr) -> Callable:
    """Closure for an lvalue: ``fn(value, env) -> None``."""
    try:
        return target._store
    except AttributeError:
        fn = target._store = _compile_store(target)
        return fn


def compile_stmt(stmt: ast.Stmt) -> Callable:
    """Closure for a simple statement (Assign / VarDecl / ExprStmt):
    ``fn(env) -> None``."""
    try:
        return stmt._exec
    except AttributeError:
        _COMPILED["stmt_compiled"] += 1
        fn = stmt._exec = _compile_stmt(stmt)
        return fn


def evaluate(expr: ast.Expr, env) -> object:
    """Evaluate an expression against an environment."""
    return compile_expr(expr)(env)


def assign(target: ast.Expr, value, env) -> None:
    """Store ``value`` into an lvalue."""
    compile_store(target)(value, env)


def exec_simple(stmt: ast.Stmt, env) -> None:
    """Execute one simple statement (Assign / VarDecl / ExprStmt)."""
    compile_stmt(stmt)(env)


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------

def _compile_expr(expr: ast.Expr) -> Callable:
    kind = type(expr)
    if kind in (ast.IntLit, ast.FloatLit, ast.StrLit):
        value = expr.value
        return lambda env: value
    if kind is ast.Name:
        name = expr.id
        return lambda env: env.load(name)
    if kind is ast.Subscript:
        return _compile_subscript_load(expr)
    if kind is ast.Call:
        func = expr.func
        arg_fns = [compile_expr(a) for a in expr.args]
        return lambda env: env.call(func, [fn(env) for fn in arg_fns])
    if kind is ast.Unary:
        return _compile_unary(expr)
    if kind is ast.Binary:
        return _compile_binary(expr)
    if kind is ast.Ternary:
        cond = compile_expr(expr.cond)
        then = compile_expr(expr.then)
        other = compile_expr(expr.other)
        return lambda env: then(env) if cond(env) else other(env)
    if kind is ast.Cast:
        operand = compile_expr(expr.operand)
        ctype = expr.ctype
        if isinstance(ctype, Scalar):
            if ctype.is_integer:
                return lambda env: int(operand(env))
            dtype = ctype.dtype
            return lambda env: dtype(operand(env)).item()
        return operand
    raise InterpError(f"cannot evaluate {kind.__name__}")


def _compile_binary(expr: ast.Binary) -> Callable:
    op = expr.op
    left = compile_expr(expr.left)
    right = compile_expr(expr.right)
    if op == "&&":
        return lambda env: int(bool(left(env)) and bool(right(env)))
    if op == "||":
        return lambda env: int(bool(left(env)) or bool(right(env)))
    try:
        fn = _BINOPS[op]
    except KeyError:
        raise InterpError(f"unknown operator {op!r}")
    return lambda env: fn(left(env), right(env))


def _compile_unary(expr: ast.Unary) -> Callable:
    op = expr.op
    if op in ("++", "--", "p++", "p--"):
        operand = compile_expr(expr.operand)
        store = compile_store(expr.operand)
        delta = 1 if "+" in op else -1
        if op in ("++", "--"):
            def pre(env):
                old = operand(env)
                store(old + delta, env)
                return old
            return pre

        def post(env):
            new = operand(env) + delta
            store(new, env)
            return new
        return post
    operand = compile_expr(expr.operand)
    if op == "-":
        return lambda env: -operand(env)
    if op == "!":
        return lambda env: int(not operand(env))
    if op == "~":
        return lambda env: ~int(operand(env))
    if op == "*":
        def deref(env):
            # Deref: pointers are numpy arrays; *p means p[0].
            value = operand(env)
            if isinstance(value, np.ndarray):
                return value.flat[0].item()
            raise InterpError("dereference of non-pointer value")
        return deref
    if op == "&":
        base = ast.base_name(expr.operand)
        if base is not None:
            name = base

            def addr(env):
                # Address-of an array/lvalue yields the backing array.  The
                # operand is still evaluated (so &a[i] bounds-checks a[i]).
                operand(env)
                return env.load(name)
            return addr

        def bad_addr(env):
            operand(env)
            raise InterpError("cannot take address of expression")
        return bad_addr
    raise InterpError(f"unknown unary operator {op!r}")


def _subscript_parts(expr: ast.Subscript):
    """Base-expression closure plus index closures in *evaluation* order
    (outermost subscript first, matching the historical resolver; the
    computed indices are reversed before use)."""
    index_fns = []
    node: ast.Expr = expr
    while isinstance(node, ast.Subscript):
        index_fns.append(compile_expr(node.index))
        node = node.base
    return compile_expr(node), index_fns


def _compile_subscript_load(expr: ast.Subscript) -> Callable:
    base, index_fns = _subscript_parts(expr)
    line = expr.line
    root = ast.base_name(expr)

    if len(index_fns) == 1:
        index = index_fns[0]

        def load1(env):
            i = int(index(env))
            array = base(env)
            if not isinstance(array, np.ndarray):
                raise InterpError(
                    f"subscript of non-array value ({root!r}) on line {line}"
                )
            try:
                value = array[i]
            except (IndexError, TypeError) as exc:
                raise InterpError(f"bad subscript on line {line}: {exc}") from exc
            return value.item() if isinstance(value, np.generic) else value
        return load1

    def load(env):
        indices = [int(fn(env)) for fn in index_fns]
        indices.reverse()
        array = base(env)
        if not isinstance(array, np.ndarray):
            raise InterpError(
                f"subscript of non-array value ({root!r}) on line {line}"
            )
        try:
            value = array[tuple(indices)]
        except (IndexError, TypeError) as exc:
            raise InterpError(f"bad subscript on line {line}: {exc}") from exc
        return value.item() if isinstance(value, np.generic) else value
    return load


def _resolve_subscript(expr: ast.Subscript, env):
    """Return (numpy array, index tuple) for possibly-nested subscripts."""
    base, index_fns = _subscript_parts(expr)
    indices = [int(fn(env)) for fn in index_fns]
    indices.reverse()
    array = base(env)
    if not isinstance(array, np.ndarray):
        raise InterpError(
            f"subscript of non-array value ({ast.base_name(expr)!r}) on line {expr.line}"
        )
    return array, tuple(indices)


# ---------------------------------------------------------------------------
# Store (lvalue) compilation
# ---------------------------------------------------------------------------

def _compile_store(target: ast.Expr) -> Callable:
    if isinstance(target, ast.Name):
        name = target.id
        return lambda value, env: env.store(name, value)
    if isinstance(target, ast.Subscript):
        base, index_fns = _subscript_parts(target)
        line = target.line
        root = ast.base_name(target)

        if len(index_fns) == 1:
            index = index_fns[0]

            def store1(value, env):
                i = int(index(env))
                array = base(env)
                if not isinstance(array, np.ndarray):
                    raise InterpError(
                        f"subscript of non-array value ({root!r}) on line {line}"
                    )
                try:
                    array[i] = value
                except (IndexError, TypeError, ValueError) as exc:
                    raise InterpError(f"bad store on line {line}: {exc}") from exc
            return store1

        def store(value, env):
            indices = [int(fn(env)) for fn in index_fns]
            indices.reverse()
            array = base(env)
            if not isinstance(array, np.ndarray):
                raise InterpError(
                    f"subscript of non-array value ({root!r}) on line {line}"
                )
            try:
                array[tuple(indices)] = value
            except (IndexError, TypeError, ValueError) as exc:
                raise InterpError(f"bad store on line {line}: {exc}") from exc
        return store
    if isinstance(target, ast.Unary) and target.op == "*":
        pointee_fn = compile_expr(target.operand)

        def store_deref(value, env):
            pointee = pointee_fn(env)
            if isinstance(pointee, np.ndarray):
                pointee.flat[0] = value
                return
            raise InterpError("store through non-pointer value")
        return store_deref

    def bad(value, env):
        raise InterpError(f"cannot assign to {type(target).__name__}")
    return bad


# ---------------------------------------------------------------------------
# Simple-statement compilation
# ---------------------------------------------------------------------------

def _compile_stmt(stmt: ast.Stmt) -> Callable:
    if isinstance(stmt, ast.Assign):
        value_fn = compile_expr(stmt.value)
        store = compile_store(stmt.target)
        if stmt.op:
            old_fn = compile_expr(stmt.target)
            op_fn = _BINOPS[stmt.op]

            def aug(env):
                value = value_fn(env)
                store(op_fn(old_fn(env), value), env)
            return aug
        return lambda env: store(value_fn(env), env)
    if isinstance(stmt, ast.VarDecl):
        name = stmt.name
        ctype = stmt.ctype
        if stmt.init is not None:
            init_fn = compile_expr(stmt.init)
            return lambda env: env.declare(name, ctype, init_fn(env))
        return lambda env: env.declare(name, ctype, None)
    if isinstance(stmt, ast.ExprStmt):
        expr_fn = compile_expr(stmt.expr)

        def run(env):
            expr_fn(env)
        return run

    def bad(env):
        raise InterpError(f"not a simple statement: {type(stmt).__name__}")
    return bad


class Builtins:
    """Default math builtins shared by host and device."""

    TABLE: Dict[str, Callable] = {
        "sqrt": math.sqrt,
        "fabs": abs,
        "abs": lambda x: abs(int(x)),
        "exp": math.exp,
        "log": math.log,
        "pow": math.pow,
        "sin": math.sin,
        "cos": math.cos,
        "floor": math.floor,
        "ceil": math.ceil,
        "fmax": max,
        "fmin": min,
        "max": max,
        "min": min,
        "sqrtf": lambda x: np.float32(math.sqrt(np.float32(x))).item(),
        "expf": lambda x: np.float32(math.exp(np.float32(x))).item(),
        "fabsf": lambda x: np.float32(abs(np.float32(x))).item(),
    }

    @classmethod
    def call(cls, name: str, args: Sequence) -> object:
        try:
            fn = cls.TABLE[name]
        except KeyError:
            raise InterpError(f"unknown builtin function {name!r}")
        return fn(*args)
