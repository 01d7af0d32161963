"""Present table, async queues, profiler, and AccRuntime integration tests."""

import numpy as np
import pytest

from repro.device import Device, DeviceConfig
from repro.device.compile import compile_body
from repro.device.engine import IterSpace, LaunchSpec
from repro.errors import RuntimeFault
from repro.lang import parse_program
from repro.runtime.accrt import AccRuntime
from repro.runtime.coherence import CPU, GPU, CoherenceTracker, REDUNDANT
from repro.runtime.present import PresentTable
from repro.runtime.profiler import (
    CAT_ASYNC_WAIT,
    CAT_CPU,
    CAT_KERNEL,
    CAT_MEM_ALLOC,
    CAT_TRANSFER,
    Profiler,
    register_counter,
)
from repro.runtime.queues import AsyncQueues


class TestPresentTable:
    def test_add_lookup(self):
        pt = PresentTable()
        pt.add("a", 5)
        assert pt.is_present("a") and pt.handle_of("a") == 5

    def test_duplicate_add_raises(self):
        pt = PresentTable()
        pt.add("a", 1)
        with pytest.raises(RuntimeFault):
            pt.add("a", 2)

    def test_lookup_missing_raises(self):
        with pytest.raises(RuntimeFault):
            PresentTable().lookup("a")

    def test_refcount_nesting(self):
        pt = PresentTable()
        pt.add("a", 1)
        pt.retain("a")
        assert pt.release("a") is None       # inner exit: still present
        freed = pt.release("a")
        assert freed is not None and freed.handle == 1
        assert not pt.is_present("a")


class TestAsyncQueues:
    def test_sync_issue_does_not_touch_queue(self):
        prof = Profiler()
        q = AsyncQueues(prof)
        done = q.issue(None, 1.0)
        assert done == 1.0 and prof.now == 0.0

    def test_async_ops_serialize_within_queue(self):
        prof = Profiler()
        q = AsyncQueues(prof)
        q.issue(1, 1.0)
        done = q.issue(1, 2.0)
        assert done == 3.0

    def test_independent_queues_overlap(self):
        prof = Profiler()
        q = AsyncQueues(prof)
        q.issue(1, 5.0)
        done = q.issue(2, 1.0)
        assert done == 1.0

    def test_wait_charges_async_wait(self):
        prof = Profiler()
        q = AsyncQueues(prof)
        q.issue(1, 2.0)
        prof.spend(CAT_CPU, 0.5)   # overlap: host works 0.5s
        waited = q.wait(1)
        assert waited == pytest.approx(1.5)
        assert prof.totals[CAT_ASYNC_WAIT] == pytest.approx(1.5)
        assert prof.now == pytest.approx(2.0)

    def test_wait_after_completion_is_free(self):
        prof = Profiler()
        q = AsyncQueues(prof)
        q.issue(1, 1.0)
        prof.spend(CAT_CPU, 5.0)
        assert q.wait(1) == 0.0

    def test_wait_all(self):
        prof = Profiler()
        q = AsyncQueues(prof)
        q.issue(1, 1.0)
        q.issue(2, 3.0)
        q.wait_all()
        assert prof.now == pytest.approx(3.0)


class TestProfiler:
    def test_spend_advances_clock(self):
        p = Profiler()
        p.spend(CAT_CPU, 1.5)
        assert p.now == 1.5 and p.totals[CAT_CPU] == 1.5

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Profiler().spend(CAT_CPU, -1.0)

    def test_breakdown_and_normalization(self):
        p = Profiler()
        p.spend(CAT_CPU, 2.0)
        p.spend(CAT_TRANSFER, 1.0)
        norm = p.normalized_breakdown(baseline=2.0)
        assert norm[CAT_CPU] == 1.0 and norm[CAT_TRANSFER] == 0.5

    def test_counters(self):
        name = register_counter("test.launches")
        p = Profiler()
        p.count(name)
        p.count(name, 2)
        assert p.counters[name] == 3

    def test_unregistered_counter_rejected(self):
        p = Profiler()
        with pytest.raises(ValueError):
            p.count("launches")  # no dot, never registered

    def test_reset(self):
        p = Profiler()
        p.spend(CAT_CPU, 1.0)
        p.reset()
        assert p.now == 0.0 and p.totals[CAT_CPU] == 0.0


def make_runtime(**kw):
    return AccRuntime(Device(DeviceConfig()), Profiler(), **kw)


class TestAccRuntime:
    def test_data_region_lifecycle(self):
        rt = make_runtime()
        host = np.arange(4.0)
        created = rt.data_enter("a", host, copyin=True)
        assert created and rt.present.is_present("a")
        assert np.array_equal(rt.device_array("a"), host)
        freed = rt.data_exit("a", host, copyout=False)
        assert freed and not rt.present.is_present("a")

    def test_nested_present_or_copy_reuses_buffer(self):
        rt = make_runtime()
        host = np.zeros(4)
        rt.data_enter("a", host, copyin=False)
        created = rt.data_enter("a", host, copyin=False)
        assert not created
        assert not rt.data_exit("a", host, copyout=False)  # inner: no free
        assert rt.data_exit("a", host, copyout=False)      # outer: frees

    def test_copyout_on_exit(self):
        rt = make_runtime()
        host = np.zeros(4)
        rt.data_enter("a", host, copyin=False)
        rt.device_array("a")[:] = 7.0
        rt.data_exit("a", host, copyout=True)
        assert np.all(host == 7.0)

    def test_update_requires_present(self):
        rt = make_runtime()
        with pytest.raises(RuntimeFault):
            rt.update_host("a", np.zeros(4))

    def test_sync_launch_charges_kernel_time(self):
        rt = make_runtime()
        host = np.zeros(4)
        rt.data_enter("a", host, copyin=False)
        body = parse_program(
            "void main() { for (int i = 0; i < 4; i++) { a[i] = 2.0; } }"
        ).func("main").body.body[0].body.body
        spec = LaunchSpec("k", compile_body(body), ("i",), IterSpace([range(4)]),
                          arrays={"a": rt.device_array("a")})
        rt.launch(spec)
        assert rt.profiler.totals[CAT_KERNEL] > 0

    def test_async_launch_then_wait(self):
        rt = make_runtime()
        host = np.zeros(4)
        rt.data_enter("a", host, copyin=False)
        body = parse_program(
            "void main() { for (int i = 0; i < 4; i++) { a[i] = 2.0; } }"
        ).func("main").body.body[0].body.body
        spec = LaunchSpec("k", compile_body(body), ("i",), IterSpace([range(4)]),
                          arrays={"a": rt.device_array("a")})
        rt.launch(spec, queue=1)
        assert rt.profiler.totals[CAT_KERNEL] == 0.0
        rt.wait(1)
        assert rt.profiler.totals[CAT_ASYNC_WAIT] > 0

    def test_transfer_charges_alloc_and_transfer(self):
        rt = make_runtime()
        host = np.zeros(1024)
        rt.data_enter("a", host, copyin=True)
        assert rt.profiler.totals[CAT_MEM_ALLOC] > 0
        assert rt.profiler.totals[CAT_TRANSFER] > 0

    def test_fresh_alloc_starts_stale_so_first_copyin_is_clean(self):
        tracker = CoherenceTracker()
        tracker.register("a")
        rt = make_runtime(coherence=tracker)
        host = np.zeros(4)
        rt.data_enter("a", host, copyin=True)
        assert not tracker.findings  # first copyin fills an invalid buffer
        from repro.runtime.coherence import GPU, NOTSTALE

        assert tracker.state("a", GPU) == NOTSTALE

    def test_coherence_hooks_fire_on_repeated_transfers(self):
        tracker = CoherenceTracker()
        tracker.register("a")
        rt = make_runtime(coherence=tracker)
        host = np.zeros(4)
        rt.data_enter("a", host, copyin=True)
        rt.copy_to_device("a", host)  # second copy of identical data
        assert tracker.findings_of(REDUNDANT)

    def test_pin_after_alloc_applies_at_allocation(self):
        from repro.runtime.coherence import GPU, MAYSTALE

        tracker = CoherenceTracker()
        tracker.register("a")
        rt = make_runtime(coherence=tracker)
        rt.pin_after_alloc("a", GPU, MAYSTALE, site="data.enter(a)")
        host = np.zeros(4)
        rt.data_enter("a", host, copyin=True)
        # The pin survived the fresh-alloc stale marking: the copyin was
        # flagged may-redundant (dead destination).
        from repro.runtime.coherence import MAY_REDUNDANT

        assert tracker.findings_of(MAY_REDUNDANT)

    def test_untracked_vars_ignored_by_hooks(self):
        tracker = CoherenceTracker()
        rt = make_runtime(coherence=tracker)
        host = np.zeros(4)
        rt.data_enter("a", host, copyin=True)
        assert not tracker.findings

    def test_check_calls_charge_check_category(self):
        from repro.runtime.profiler import CAT_CHECK

        tracker = CoherenceTracker()
        tracker.register("a")
        rt = make_runtime(coherence=tracker)
        rt.check_read("a", CPU)
        rt.check_write("a", GPU)
        assert rt.profiler.totals[CAT_CHECK] > 0
        assert tracker.check_calls == 2
