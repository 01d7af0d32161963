"""Device facade tests: transfers, events, cost model."""

import numpy as np
import pytest

from repro.device import Device, DeviceConfig
from repro.device.compile import compile_body
from repro.device.device import EV_ALLOC, EV_D2H, EV_FREE, EV_H2D, EV_LAUNCH
from repro.device.engine import IterSpace, LaunchSpec
from repro.device.transfer import CostModel
from repro.errors import DeviceError
from repro.lang import parse_program


def simple_spec(a):
    prog = parse_program("void main() { for (int i = 0; i < 4; i++) { a[i] = 1.0; } }")
    body = prog.func("main").body.body[0].body.body
    return LaunchSpec("k", compile_body(body), ("i",), IterSpace([range(4)]), arrays={"a": a})


class TestTransfers:
    def test_h2d_then_d2h_roundtrip(self):
        dev = Device()
        h = dev.alloc("a", (8,), np.float64)
        src = np.arange(8.0)
        dst = np.zeros(8)
        dev.memcpy_h2d(h, src)
        dev.memcpy_d2h(dst, h)
        assert np.array_equal(dst, src)

    def test_host_and_device_spaces_are_separate(self):
        dev = Device()
        h = dev.alloc("a", (4,), np.float64)
        host = np.ones(4)
        dev.memcpy_h2d(h, host)
        host[:] = 99.0  # mutating host must not affect the device copy
        out = np.zeros(4)
        dev.memcpy_d2h(out, h)
        assert np.all(out == 1.0)

    def test_shape_mismatch_raises(self):
        dev = Device()
        h = dev.alloc("a", (4,), np.float64)
        with pytest.raises(DeviceError):
            dev.memcpy_h2d(h, np.zeros(5))

    def test_transferred_bytes_accounting(self):
        dev = Device()
        h = dev.alloc("a", (8,), np.float64)
        dev.memcpy_h2d(h, np.zeros(8))
        dev.memcpy_d2h(np.zeros(8), h)
        assert dev.bytes_h2d == 64 and dev.bytes_d2h == 64
        assert dev.total_transferred_bytes() == 128


class TestEventsAndCosts:
    def test_event_sequence(self):
        dev = Device()
        h = dev.alloc("a", (4,), np.float64)
        a_dev = dev.array(h)
        dev.memcpy_h2d(h, np.zeros(4))
        dev.launch(simple_spec(a_dev))
        dev.memcpy_d2h(np.zeros(4), h)
        dev.free(h)
        kinds = [e.kind for e in dev.events]
        assert kinds == [EV_ALLOC, EV_H2D, EV_LAUNCH, EV_D2H, EV_FREE]

    def test_transfer_cost_scales_with_bytes(self):
        costs = CostModel()
        small = costs.transfer_time(8)
        large = costs.transfer_time(8 * 1024 * 1024)
        assert large > small > 0

    def test_latency_floor(self):
        costs = CostModel(transfer_latency_s=1e-5)
        assert costs.transfer_time(0) == pytest.approx(1e-5)

    def test_kernel_cost_scales_with_steps(self):
        costs = CostModel()
        assert costs.kernel_time(1000) > costs.kernel_time(10)

    def test_total_seconds_by_kind(self):
        dev = Device()
        h = dev.alloc("a", (4,), np.float64)
        dev.memcpy_h2d(h, np.zeros(4))
        assert dev.total_seconds(EV_H2D) > 0
        assert dev.total_seconds(EV_D2H) == 0
        assert dev.total_seconds() > dev.total_seconds(EV_H2D)

    def test_launch_executes_on_device_memory(self):
        dev = Device()
        h = dev.alloc("a", (4,), np.float64)
        dev.launch(simple_spec(dev.array(h)))
        out = np.zeros(4)
        dev.memcpy_d2h(out, h)
        assert np.all(out == 1.0)

    def test_reset_events(self):
        dev = Device()
        dev.alloc("a", (4,), np.float64)
        dev.reset_events()
        assert not dev.events and dev.total_transferred_bytes() == 0

    def test_custom_config(self):
        config = DeviceConfig(capacity_bytes=128)
        dev = Device(config)
        from repro.errors import DeviceMemoryError

        with pytest.raises(DeviceMemoryError):
            dev.alloc("big", (1024,), np.float64)
