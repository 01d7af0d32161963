"""The three offline workloads: sampled-lanes, interp-bound, debug-session.

Each workload is set up from a seed and then yields *rounds*: one pass over
its fixed op list, in a seed-shuffled order.  Every round is the same work,
so round times are comparable samples.  An op is prepared untimed, run
timed, and checked untimed; checking compares each op against the inputs'
ground truth where one is cheap to have, and against the first op of the
same kind otherwise (every later op must match it bit for bit).
"""

from __future__ import annotations

import hashlib
import random
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

from repro.bench import suite
from repro.interp import run_compiled, run_sequential
from repro.toolchain import ToolchainContext

_SIZE_KEY = "perfbench"


def sized_params(name: str, seed: int, size: str = "large", **overrides) -> dict:
    """``make_params`` of one suite program at ``size`` with some of its
    size knobs replaced, so inputs come from the program's own generators."""
    module = suite.get(name).module
    module.SIZES[_SIZE_KEY] = {**module.SIZES[size], **overrides}
    try:
        return module.make_params(_SIZE_KEY, seed)
    finally:
        del module.SIZES[_SIZE_KEY]


class Op:
    """One timed unit of work.

    ``run`` is timed; ``check(result)`` runs after the clock stopped and
    returns a list of problems (empty when the output is right).  ``items``
    is how many completed items (runs, sessions) the op finishes.
    """

    def __init__(self, label: str, program: str, run: Callable,
                 check: Callable, items: int = 1):
        self.label = label
        self.program = program
        self.run = run
        self.check = check
        self.items = items


class OpResult:
    """What an op hands its check: outputs plus the context it ran in."""

    def __init__(self, value=None, ctx=None, counters=None):
        self.value = value
        self.ctx = ctx
        self.counters = counters or {}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def _outputs(interp, names) -> Dict[str, object]:
    return {name: interp.env.load(name) for name in names}


def _identical(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class _FirstSeen:
    """Reference values taken from the first op of each kind."""

    def __init__(self):
        self.refs: Dict[str, object] = {}

    def compare(self, key: str, value, same: Callable = None) -> List[str]:
        if key not in self.refs:
            self.refs[key] = value
            return []
        ref = self.refs[key]
        ok = same(ref, value) if same is not None else ref == value
        return [] if ok else [f"{key}: differs from the first op"]


class OfflineWorkload:
    name = ""
    item_kind = "runs"
    programs: List = []

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.first = _FirstSeen()

    def setup(self) -> Dict[str, float]:
        """One full set-up; returns its parts' times in seconds."""
        raise NotImplementedError

    def round_ops(self) -> List[Op]:
        raise NotImplementedError

    def final_check(self) -> Dict[str, List[str]]:
        """Checks made once, after the timed phase: program -> problems."""
        return {}

    def close(self) -> None:
        """Offline workloads hold no processes or files."""


class _RunWorkload(OfflineWorkload):
    """Workloads whose op is one ``run_compiled`` of a suite program."""

    def setup(self) -> Dict[str, float]:
        start = perf_counter()
        self.params = {name: sized_params(name, self.seed, **sizes)
                       for name, sizes in self.programs}
        inputs_s = perf_counter() - start
        self.compiled = {name: suite.get(name).compile(
            "optimized", ctx=ToolchainContext()) for name, _ in self.programs}
        return {"inputs_s": inputs_s}

    def context(self) -> ToolchainContext:
        return ToolchainContext()

    def round_ops(self) -> List[Op]:
        names = [name for name, _ in self.programs]
        self.rng.shuffle(names)
        return [self._op(name) for name in names]

    def _op(self, name: str) -> Op:
        compiled, params = self.compiled[name], self.params[name]
        outputs = suite.get(name).outputs

        def run():
            ctx = self.context()
            interp = run_compiled(compiled, params=params, ctx=ctx)
            counters = dict(interp.runtime.profiler.counters)
            counters["bytes"] = interp.runtime.device.total_transferred_bytes()
            return OpResult(_outputs(interp, outputs), ctx, counters)

        return Op(name, name, run, lambda result: self.check(name, result))

    def check(self, name: str, result: OpResult) -> List[str]:
        problems = []
        for out, value in result.value.items():
            problems += self.first.compare(f"{name}.{out}", value, _identical)
        work = {k: v for k, v in result.counters.items()
                if k == "bytes" or k.startswith(("launch.", "sample."))}
        problems += self.first.compare(f"{name}.work", work)
        return problems


class SampledLanes(_RunWorkload):
    """Phase-sampled runs of the four big-working-set programs.

    Sizes sit between ``small`` and ``large`` so a round stays near 1.5 s
    while launch-spec construction and vectorized lanes keep the time.
    """

    name = "sampled-lanes"
    programs = [("JACOBI", {"N": 270_000}), ("SRAD", {"N": 200}),
                ("KMEANS", {"NPTS": 20_000}), ("CG", {"N": 42_000})]

    def context(self) -> ToolchainContext:
        from repro.sampling import SamplingConfig

        ctx = ToolchainContext()
        ctx.sampling = SamplingConfig()
        return ctx


class InterpBound(_RunWorkload):
    """Full, unsampled runs dominated by host interpretation and the
    interleaved stepper; outputs must match the sequential reference
    (computed once, after the timed phase, because it costs four rounds)."""

    name = "interp-bound"
    programs = [("KMEANS", {"NPTS": 320, "ITER": 5}), ("LUD", {"N": 28}),
                ("NW", {})]

    def final_check(self) -> Dict[str, List[str]]:
        """After the timed phase: the first op of each program (which every
        later op matched bit for bit) against the sequential reference."""
        from repro.verify.comparison import ComparisonPolicy, compare_arrays

        policy = ComparisonPolicy(error_margin=1e-9, relative_margin=1e-6)
        problems: Dict[str, List[str]] = {}
        for name, _ in self.programs:
            seq = run_sequential(self.compiled[name], self.params[name],
                                 ctx=ToolchainContext())
            for out, ref in _outputs(seq, suite.get(name).outputs).items():
                got = self.first.refs.get(f"{name}.{out}")
                verdict = compare_arrays(out, np.ravel(ref), np.ravel(got),
                                         policy)
                if not verdict.passed:
                    problems.setdefault(name, []).append(verdict.message())
        return problems


class DebugSession(OfflineWorkload):
    """The paper's Figure-2 loop over all twelve programs at ``tiny``.

    Each program is one session in a fresh ``ToolchainContext`` (cold
    caches, as one CLI invocation pays): compile both variants, verify the
    kernels, verify the transfers of the unoptimized variant, and run the
    interactive optimizer to its fixed point.  Each step is one op.
    """

    name = "debug-session"
    item_kind = "sessions"
    size = "tiny"

    def setup(self) -> Dict[str, float]:
        start = perf_counter()
        self.params = {name: suite.get(name).params(self.size, self.seed)
                       for name in suite.all_names()}
        inputs_s = perf_counter() - start
        warm = ToolchainContext()
        for name in suite.all_names():
            for variant in ("optimized", "unoptimized"):
                suite.get(name).compile(variant, ctx=warm)
        return {"inputs_s": inputs_s}

    def round_ops(self) -> List[Op]:
        names = suite.all_names()
        self.rng.shuffle(names)
        ops: List[Op] = []
        for name in names:
            ops += self._session(name)
        return ops

    def _session(self, name: str) -> List[Op]:
        from repro.lang.parser import parse_program
        from repro.lang.printer import to_source
        from repro.verify.interactive import InteractiveOptimizer
        from repro.verify.kernelverify import KernelVerifier
        from repro.verify.memverify import MemVerifier

        bench = suite.get(name)
        params = self.params[name]
        state: Dict[str, object] = {}

        def compile_variant(variant):
            def run():
                ctx = state.setdefault("ctx", ToolchainContext())
                state[variant] = bench.compile(variant, ctx=ctx)
                return OpResult(None, ctx)
            return run

        def kernels():
            ctx = state["ctx"]
            report = KernelVerifier(state["optimized"], params=params,
                                    ctx=ctx).run()
            return OpResult(report, ctx)

        def memcheck():
            ctx = state["ctx"]
            report = MemVerifier(state["unoptimized"], params=params,
                                 ctx=ctx).run()
            return OpResult(report, ctx)

        def optimize():
            ctx = state["ctx"]
            trace = InteractiveOptimizer(
                parse_program(bench.unoptimized_source), params=params,
                outputs=bench.outputs, ctx=ctx).run()
            return OpResult(trace, ctx)

        def check_compiled(variant):
            def check(result):
                return [] if state.get(variant) is not None else [
                    f"{name}: {variant} did not compile"]
            return check

        def check_kernels(result):
            report = result.value
            if report.all_passed:
                return []
            return [f"{name}: kernel verification failed for "
                    f"{report.failed_kernels()}"]

        def check_memcheck(result):
            findings = sorted((f.kind, f.var, f.site, f.context, f.nbytes_wasted)
                              for f in result.value.findings)
            return self.first.compare(f"{name}.findings", _digest(findings))

        def check_optimize(result):
            trace = result.value
            problems = [] if trace.converged else [
                f"{name}: optimizer did not converge"]
            text = to_source(trace.final_program)
            return problems + self.first.compare(
                f"{name}.final", _digest(text, trace.total_iterations))

        return [
            Op(f"{name}/compile.opt", name, compile_variant("optimized"),
               check_compiled("optimized"), items=0),
            Op(f"{name}/compile.unopt", name, compile_variant("unoptimized"),
               check_compiled("unoptimized"), items=0),
            Op(f"{name}/verify.kernels", name, kernels, check_kernels, items=0),
            Op(f"{name}/verify.mem", name, memcheck, check_memcheck, items=0),
            Op(f"{name}/optimize", name, optimize, check_optimize, items=1),
        ]


WORKLOADS = {cls.name: cls for cls in (SampledLanes, InterpBound, DebugSession)}
