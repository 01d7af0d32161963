"""Properties of launch lane spaces (:class:`~repro.device.engine.IterSpace`).

A lane space must be indistinguishable from the lane list it replaces:
``itertools.product`` over the loops' ranges, in row-major order.  Ranges
come from ``PartitionedLoop.iteration_values`` itself, so every loop shape
the compiler can emit is covered — empty loops, steps other than 1, and the
negative steps of ``>``/``>=`` loops.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.kernelgen import PartitionedLoop
from repro.device.engine import IterSpace
from repro.runtime.partition import shard_ranges

# Below this many lanes every [lo:hi] slice is checked; above it, a sample.
_EXHAUSTIVE = 24


@st.composite
def loop_ranges(draw):
    cond_op = draw(st.sampled_from(["<", "<=", ">", ">="]))
    magnitude = draw(st.integers(1, 3))
    step = magnitude if cond_op in ("<", "<=") else -magnitude
    start = draw(st.integers(-3, 3))
    bound = start + draw(st.integers(-2, 7)) * (1 if step > 0 else -1)
    loop = PartitionedLoop("i", start, cond_op, bound, step)
    return loop.iteration_values(lambda value: value)


def _check_slice(space, ref, lo, hi):
    sub = space[lo:hi]
    want = ref[lo:hi]
    assert len(sub) == len(want)
    assert list(sub) == want
    regs = sub.registers()
    assert len(regs) == len(space.ranges)
    for k, reg in enumerate(regs):
        assert reg.dtype == np.int64
        assert reg.tolist() == [lane[k] for lane in want]


@given(st.lists(loop_ranges(), min_size=1, max_size=3), st.data())
@settings(max_examples=150, deadline=None)
def test_space_matches_product_of_ranges(ranges, data):
    space = IterSpace(ranges)
    ref = list(itertools.product(*ranges))
    assert len(space) == len(ref)
    assert list(space) == ref
    _check_slice(space, ref, 0, len(ref))
    n = len(ref)
    if n <= _EXHAUSTIVE:
        pairs = [(lo, hi) for lo in range(n + 1) for hi in range(lo, n + 1)]
    else:
        bounds = st.integers(0, n)
        pairs = [tuple(sorted(data.draw(st.tuples(bounds, bounds))))
                 for _ in range(20)]
    for lo, hi in pairs:
        _check_slice(space, ref, lo, hi)


@given(st.lists(loop_ranges(), min_size=1, max_size=3), st.integers(1, 7))
@settings(max_examples=150, deadline=None)
def test_shard_slices_concatenate_to_whole_registers(ranges, ndevices):
    space = IterSpace(ranges)
    whole = space.registers()
    shards = [space[lo:hi].registers()
              for lo, hi in shard_ranges(len(space), ndevices)]
    for k, reg in enumerate(whole):
        joined = np.concatenate([regs[k] for regs in shards])
        assert joined.dtype == reg.dtype
        assert np.array_equal(joined, reg)
