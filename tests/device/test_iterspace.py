"""Launch lane spaces: O(1) size and slicing, and no per-lane walk on the
vectorized or sharded paths.  (Equivalence with ``itertools.product`` is
property-tested in ``tests/property/test_iterspace_props.py``.)"""

import numpy as np
import pytest

from repro.bench import suite
from repro.device.device import DeviceConfig
from repro.device.engine import IterSpace
from repro.interp import run_compiled
from repro.runtime.profiler import CTR_LAUNCH_INTERLEAVED, CTR_LAUNCH_VECTORIZED
from repro.toolchain import ToolchainContext


class TestIterSpace:
    def test_huge_space_sizes_and_slices_without_enumerating(self):
        space = IterSpace([range(10 ** 6), range(10 ** 6)])
        assert len(space) == 10 ** 12
        tail = space[10 ** 12 - 3:]
        assert len(tail) == 3
        i, j = tail.registers()
        assert i.tolist() == [10 ** 6 - 1] * 3
        assert j.tolist() == [10 ** 6 - 3, 10 ** 6 - 2, 10 ** 6 - 1]
        assert list(space[:2]) == [(0, 0), (0, 1)]

    def test_strided_slice_rejected(self):
        with pytest.raises(TypeError):
            IterSpace([range(8)])[::2]
        with pytest.raises(TypeError):
            IterSpace([range(8)])[3]


class _LaneWalk(AssertionError):
    pass


def _jacobi(devices):
    bench = suite.get("JACOBI")
    config = DeviceConfig(devices=devices) if devices > 1 else None
    ctx = ToolchainContext(device_config=config)
    compiled = bench.compile("optimized", ctx=ctx)
    interp = run_compiled(compiled, params=bench.params("small"), ctx=ctx)
    outputs = {decl.name: np.copy(interp.env.load(decl.name))
               for decl in compiled.program.decls}
    return interp.runtime.profiler.counters, outputs


def test_vectorized_and_sharded_paths_never_walk_lanes(monkeypatch):
    """Only the interleaved stepper may iterate a lane space: JACOBI runs
    every launch vectorized, on one device and sharded over two, with an
    ``IterSpace`` that raises when iterated."""
    _, reference = _jacobi(1)

    def walk(self):
        raise _LaneWalk("lane space iterated lane by lane")

    monkeypatch.setattr(IterSpace, "__iter__", walk)
    for devices in (1, 2):
        counters, outputs = _jacobi(devices)
        assert counters.get(CTR_LAUNCH_VECTORIZED, 0) > 0
        assert counters.get(CTR_LAUNCH_INTERLEAVED, 0) == 0
        for name, ref in reference.items():
            assert ref.tobytes() == outputs[name].tobytes(), (devices, name)
