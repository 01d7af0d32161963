"""Properties of program semantics across execution strategies."""

import functools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_source
from repro.device.engine import Schedule
from repro.device.reduction import sequential_reduce, tree_reduce
from repro.interp import run_compiled, run_sequential

from tests.property.strategies import ARRAY_NAMES, SCALAR_NAMES, kernel_programs


def _params(n=12, seed=0):
    rng = np.random.default_rng(seed)
    params = {"N": n}
    for name in ARRAY_NAMES:
        params[name] = rng.uniform(-2.0, 2.0, size=n)
    return params


@given(kernel_programs(), st.integers(min_value=0, max_value=10))
@settings(max_examples=40, deadline=None)
def test_device_matches_sequential_on_race_free_kernels(source, seed):
    """A kernel whose iterations write only their own element must produce
    bit-identical results under sequential and interleaved execution."""
    compiled = compile_source(source)
    params = _params(seed=seed)
    seq = run_sequential(compiled, params=params)
    acc = run_compiled(compiled, params=params)
    for name in ARRAY_NAMES:
        assert np.array_equal(seq.env.array(name), acc.env.array(name)), name


@given(kernel_programs(), st.integers(min_value=0, max_value=5))
@settings(max_examples=25, deadline=None)
def test_schedule_invariance_for_race_free_kernels(source, seed):
    compiled = compile_source(source)
    results = []
    for schedule in (Schedule.sequential(), Schedule.round_robin(),
                     Schedule.random(seed=seed)):
        run = run_compiled(compiled, params=_params(seed=3), schedule=schedule)
        results.append([run.env.array(n).copy() for n in ARRAY_NAMES])
    for other in results[1:]:
        for a, b in zip(results[0], other):
            assert np.array_equal(a, b)


class TestReductionProperties:
    @given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=64))
    @settings(max_examples=100)
    def test_integer_sum_tree_equals_sequential(self, values):
        assert tree_reduce("+", values) == sequential_reduce("+", values) == sum(values)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=64))
    @settings(max_examples=100)
    def test_max_reduction_order_independent(self, values):
        assert tree_reduce("max", values) == max(values)
        assert sequential_reduce("max", values) == max(values)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e3,
                              allow_nan=False), max_size=64))
    @settings(max_examples=100)
    def test_float64_tree_sum_close_to_exact(self, values):
        tree = tree_reduce("+", values, np.float64)
        exact = float(np.sum(np.asarray(values, dtype=np.float64)))
        assert abs(tree - exact) <= 1e-9 * (1.0 + abs(exact)) * len(values or [1])

    @given(st.lists(st.booleans(), max_size=32))
    @settings(max_examples=50)
    def test_logical_reductions(self, values):
        ints = [int(v) for v in values]
        assert bool(tree_reduce("&&", ints)) == all(values)
        assert bool(tree_reduce("||", ints)) == any(values)


# Values that stress the float combines: signed zeros, infinities, NaN.
_SPECIAL_FLOATS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 1e308,
                   -1e308, 5e-324, 3.4028235e38, 1e-45]


def _float_partials(dtype):
    width = 32 if dtype == np.float32 else 64
    elements = st.one_of(
        st.floats(width=width, allow_nan=True, allow_infinity=True),
        st.sampled_from(_SPECIAL_FLOATS),
    )
    return st.lists(elements, min_size=0, max_size=67)


def _same(op, got, want):
    """Identical bytes — except which NaN a ``+``/``*`` of two NaNs returns.

    IEEE 754 leaves that choice open, and the compiled scalar and vector
    loops make it differently (one keeps the first operand's sign, the
    other the second's), so there only NaN-ness is fixed.  ``max``/``min``
    select an operand on both paths, so their bytes match even for NaN."""
    if op in ("+", "*") and np.isnan(got) and np.isnan(want):
        return True
    return struct.pack("<d", got) == struct.pack("<d", want)


class TestNumpyTreeReduce:
    """``tree_reduce`` on a float array (the NumPy level-by-level tree)
    against the same partials as a Python list (the scalar pairwise loop):
    identical bytes, identical Python result type."""

    @given(st.sampled_from([np.float64, np.float32]),
           st.sampled_from(["+", "*", "max", "min"]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_array_tree_bit_identical_to_scalar_loop(self, dtype, op, data):
        values = data.draw(_float_partials(dtype))
        # Vector registers hold float64; a float32 reduction rounds on entry.
        arr = np.asarray(values, dtype=np.float64)
        for red_dtype in (dtype, None):
            got = tree_reduce(op, arr, red_dtype)
            want = tree_reduce(op, arr.tolist(), red_dtype)
            assert type(got) is type(want)
            assert _same(op, got, want), (op, red_dtype, values)

    @pytest.mark.parametrize("op", ["+", "*", "max", "min"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("values", [
        [2.5], [-0.0], [np.nan], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0, 0.0],
        [np.nan, 1.0], [1.0, np.nan], [1.0, np.nan, -1.0],
        [np.inf, -np.inf], [-np.inf, np.inf, np.nan, 0.0, -0.0],
        [0.1] * 7, [0.1] * 8, [1e308, 1e308, -1e308],
    ])
    def test_edge_cases_bit_identical(self, op, dtype, values):
        arr = np.asarray(values, dtype=np.float64)
        got = tree_reduce(op, arr, dtype)
        want = tree_reduce(op, list(values), dtype)
        assert type(got) is type(want) is float
        assert _same(op, got, want)

    def test_empty_array_gives_identity(self):
        for op in ("+", "*", "max", "min"):
            assert tree_reduce(op, np.zeros(0), np.float64) == \
                tree_reduce(op, [], np.float64)

    def test_int_sum_beyond_int64_stays_exact(self):
        big = np.full(5, 2 ** 62, dtype=np.int64)
        got = tree_reduce("+", big)
        assert got == 5 * 2 ** 62 and type(got) is int

    @given(st.sampled_from(["+", "*", "&", "|", "^", "&&", "||", "max", "min"]),
           st.lists(st.integers(-2 ** 40, 2 ** 40), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_integer_reductions_stay_exact(self, op, values):
        arr = np.asarray(values, dtype=np.int64)
        got = tree_reduce(op, arr)
        assert got == tree_reduce(op, list(values))
        if values and op in ("+", "*", "&", "|", "^"):
            python_op = {"+": int.__add__, "*": int.__mul__, "&": int.__and__,
                         "|": int.__or__, "^": int.__xor__}[op]
            assert got == functools.reduce(python_op, values)
            assert type(got) is int

    def test_object_partials_keep_python_values(self):
        # The interleaved stepper hands shard partials over as object
        # arrays; the scalar loop must see them unconverted.
        values = [2 ** 70, 3, -(2 ** 69)]
        got = tree_reduce("+", np.array(values, dtype=object))
        assert got == sum(values) and type(got) is int
