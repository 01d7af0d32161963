"""The repository benchmark: programmer turnaround, end to end and by layer.

Run from the repository root:

    python3 perfbench/run.py --workload sampled-lanes --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see ``perfbench/README.md`` for why each exists):

* ``sampled-lanes``   phase-sampled runs of JACOBI, SRAD, KMEANS and CG;
* ``interp-bound``    full runs of KMEANS, LUD and NW;
* ``debug-session``   the Figure-2 loop over all twelve programs;
* ``service-session`` a closed-loop client against a ``repro serve`` child.

A workload is timed in *rounds*: one pass over its fixed op list.  Set-up
is timed several times over the run (``SetupSamples``); ``setup_s`` is the
median.  End-to-end times are scaled to a reference host speed by a speed
probe sampled through the run (``perfbench/probe.py``).  ``--trace 0`` prints the end-to-end metrics.  ``--trace 1``
alternates untraced rounds with rounds traced by the outside-in layer
ledger (``perfbench/ledger.py``) and prints the per-layer metrics, per
round, plus the tracing overhead.  Every op's output is checked outside the
timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (per-program
rows, the layer split, the spans of a traced run) go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from ledger import UNATTRIBUTED, Ledger
from probe import REFERENCE_S, SpeedProbe
from rounds import Measurement, RoundClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOAD_NAMES = ("sampled-lanes", "interp-bound", "debug-session",
                  "service-session")
SETUP_REPEATS = 7
# Percentile grid for the latency tail: the highest entry with at least ten
# samples beyond it.  The steps are coarse so that a run on a faster or
# slower machine (more or fewer ops) still picks the same percentile:
# p75 covers 40-199 ops (the two run workloads), p95 200-999 (debug-session),
# p99 1000-9999 (service-session).
TAIL_GRID = (50.0, 75.0, 95.0, 99.0, 99.9)

END_TO_END_UNITS = {
    "setup_s": "s",
    "round_mean_s": "s",
    "items_per_s": "1/s",
    "latency_mean_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PASSES = ("parse", "alias", "kernelgen", "memgen", "checkinsert",
          "demotion", "resultcomp")

# Per-layer metrics: per-round medians over the traced rounds.
PER_LAYER_UNITS = {
    "interp.launch_spec_s": "s/round",
    "interp.launch_spec_calls": "count/round",
    "device.vectorized_s": "s/round",
    "device.vectorized_launches": "count/round",
    "device.lanes": "count/round",
    "sampling.self_s": "s/round",
    "sampling.skipped_iterations": "count/round",
    "interp.host_self_s": "s/round",
    "device.interleaved_s": "s/round",
    "device.interleaved_launches": "count/round",
    "runtime.launch_self_s": "s/round",
    "device.transfer_s": "s/round",
    "device.transfer_bytes": "B/round",
    "runtime.coherence_s": "s/round",
    "runtime.coherence_checks": "count/round",
    "compiler.s": "s/round",
    **{f"compiler.pass_s.{name}": "s/round" for name in PASSES},
    "compiler.pass_invocations": "count/round",
    "compiler.cache_hit_ratio": "ratio",
    "verify.kernel_s": "s/round",
    "verify.mem_s": "s/round",
    "verify.interactive_s": "s/round",
    "verify.interactive_rounds": "count/round",
    "verify.compare_s": "s/round",
    "service.handler_ms": "ms",
    "service.wire_ms": "ms",
    "service.queue_depth": "count",
    "service.worker_util": "ratio",
    "service.cache_mem_hit_ratio": "ratio",
    "service.cache_disk_hit_ratio": "ratio",
    "bench.inputs_s": "s",
    "ledger.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "env.calib_ms": "ms",
}

# Ledger layer -> per-layer metric holding its self time.
LAYER_METRICS = {
    "interp.launch_spec": "interp.launch_spec_s",
    "device.vectorized": "device.vectorized_s",
    "sampling": "sampling.self_s",
    "interp.host": "interp.host_self_s",
    "device.interleaved": "device.interleaved_s",
    "runtime.launch": "runtime.launch_self_s",
    "device.transfer": "device.transfer_s",
    "runtime.coherence": "runtime.coherence_s",
    "compiler": "compiler.s",
    "verify.kernel": "verify.kernel_s",
    "verify.mem": "verify.mem_s",
    "verify.interactive": "verify.interactive_s",
    "verify.compare": "verify.compare_s",
}

# Exact work counts: each must repeat identically in every traced round.
EXACT_COUNTS = ("interp.launch_spec_calls", "device.vectorized_launches",
                "device.lanes", "device.interleaved_launches",
                "device.transfer_bytes", "sampling.skipped_iterations",
                "verify.interactive_rounds", "compiler.pass_invocations")


def tail(values):
    """(percentile, value): the highest grid percentile with at least ten
    samples beyond it, nearest-rank."""
    ordered = sorted(values)
    n = len(ordered)
    chosen = TAIL_GRID[0]
    for p in TAIL_GRID:
        if n * (1.0 - p / 100.0) >= 10:
            chosen = p
    rank = max(1, min(n, int(-(-chosen * n // 100))))
    return chosen, ordered[rank - 1]


class CtxDeltas:
    """Per-context pass-stat and cache-stat deltas between reads (a debug
    session shares one context across its ops)."""

    def __init__(self):
        self.seen = {}

    def take(self, ctx):
        records = ctx.pass_stats.records
        passes = {name: rec.seconds for name, rec in records.items()}
        calls = sum(rec.invocations for rec in records.values())
        hits = misses = 0
        for stats in ctx.cache_stats().values():
            hits += stats["hits"]
            misses += stats["misses"]
        before = self.seen.get(ctx, ({}, 0, 0, 0))
        self.seen[ctx] = (passes, calls, hits, misses)
        delta = {name: s - before[0].get(name, 0.0) for name, s in passes.items()}
        return delta, calls - before[1], hits - before[2], misses - before[3]


# Counters the ledger takes at its seams.
LEDGER_COUNTS = ("interp.launch_spec_calls", "device.vectorized_launches",
                 "device.lanes", "device.interleaved_launches",
                 "device.transfer_bytes", "runtime.coherence_checks",
                 "verify.interactive_rounds")


class TracedRound:
    """The per-layer row of one traced round: the ledger's self times and
    counters over the round, plus the pass and cache statistics and the
    sampling counter that each op's context reports."""

    def __init__(self, ledger):
        self.ledger = ledger
        ledger.install()
        self.self_before, self.counts_before = ledger.snapshot()
        self.deltas = CtxDeltas()
        self.passes = dict.fromkeys(PASSES, 0.0)
        self.pass_calls = 0
        self.hits = self.misses = 0
        self.skipped = 0

    def add(self, result) -> None:
        if result.ctx is not None:
            delta, calls, hits, misses = self.deltas.take(result.ctx)
            for name in PASSES:
                self.passes[name] += delta.get(name, 0.0)
            self.pass_calls += calls
            self.hits += hits
            self.misses += misses
        self.skipped += int(result.counters.get("sample.skipped_iterations", 0))

    def finish(self, round_s: float) -> dict:
        self.ledger.uninstall()
        self_after, counts_after = self.ledger.snapshot()

        def grew(after, before, name):
            return after.get(name, 0) - before.get(name, 0)

        row = {metric: grew(self_after, self.self_before, layer)
               for layer, metric in LAYER_METRICS.items()}
        row.update({name: grew(counts_after, self.counts_before, name)
                    for name in LEDGER_COUNTS})
        row.update({f"compiler.pass_s.{name}": s
                    for name, s in self.passes.items()})
        row["compiler.pass_invocations"] = self.pass_calls
        lookups = self.hits + self.misses
        row["compiler.cache_hit_ratio"] = self.hits / lookups if lookups else 0.0
        row["sampling.skipped_iterations"] = self.skipped
        unattributed = grew(self_after, self.self_before, UNATTRIBUTED)
        row["ledger.unattributed_frac"] = unattributed / round_s if round_s else 0.0
        return row


def measure_offline(workload, seconds: float, ledger, between_rounds,
                    speed: SpeedProbe) -> Measurement:
    """Whole rounds for ``seconds``.  With a ledger, odd rounds are traced
    and even rounds are not; their difference is the tracing overhead.
    The speed probe is sampled before ops, at most every ``PERIOD_S``."""
    m = Measurement()
    clock = RoundClock(seconds, traced=ledger is not None)
    index = 0
    while clock.another():
        between_rounds()
        ops = workload.round_ops()
        traced = TracedRound(ledger) if ledger and index % 2 == 1 else None
        round_s = 0.0
        gc.collect()
        for op in ops:
            m.attempted += 1
            result = None
            problems = []
            speed.due()
            start = perf_counter()
            try:
                if traced:
                    with ledger.op(op.program):
                        result = op.run()
                else:
                    result = op.run()
            except Exception:
                problems = [_last_line(traceback.format_exc(limit=3))]
            elapsed = perf_counter() - start
            round_s += elapsed
            m.ops.append((op.label, op.program, elapsed, bool(traced)))
            if result is not None:
                try:
                    problems = op.check(result)
                except Exception:
                    problems = [_last_line(traceback.format_exc(limit=3))]
                if traced:
                    traced.add(result)
            if problems:
                m.record_failure(op.label, problems)
            elif not traced:
                m.items += op.items
        m.rounds.append((round_s, bool(traced)))
        if traced:
            m.layer_rounds.append(traced.finish(round_s))
        index += 1
    for program, problems in workload.final_check().items():
        for _ in range(sum(1 for op in m.ops if op[1] == program)):
            m.record_failure(program, problems)
    if ledger is not None:
        m.by_program = {program: split
                        for program, split in ledger.by_label.items() if program}
    return m


def _last_line(text: str) -> str:
    return text.strip().splitlines()[-1]


# End-to-end metrics that are times, and so are scaled by the speed probe.
SCALED_TIMES = ("setup_s", "round_mean_s", "latency_mean_ms", "latency_tail_ms")


def end_to_end(m: Measurement, setup_s: float, workload, scale: float) -> dict:
    """Means over the timed phase, scaled to the reference host speed.

    A shared virtual machine drifts between speeds about 2x apart (see
    README.md).  A mean over a run moves with the share of the run spent
    slow, and that share moves from one minute to the next; ``scale``
    (probe.py) takes most of that out.  A median or a minimum jumps between
    the levels.  The unscaled metrics and the medians are kept as
    diagnostics.

    The tail is taken over op kinds (labels), each at its mean over the
    run: every kind is the same work in every round, so the spread within
    a kind is the host's and the slowest single ops measure the host's
    slow moments, not the program.
    """
    rounds = m.untraced_rounds()
    timed = sum(rounds)
    latencies = sorted(s for _, _, s, traced in m.ops if not traced)
    pct, tail_s = tail(latencies)
    by_kind = {}
    for label, _, s, traced in m.ops:
        if not traced:
            by_kind.setdefault(label, []).append(s)
    kind_means = sorted(statistics.mean(times) for times in by_kind.values())
    slowest = kind_means[-max(1, len(kind_means) // 10):]
    unscaled = {
        "setup_s": setup_s,
        "round_mean_s": timed / len(rounds),
        "items_per_s": m.items / timed,
        "latency_mean_ms": statistics.mean(latencies) * 1e3,
        "latency_tail_ms": statistics.mean(slowest) * 1e3,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    m.diagnostics.update({
        "tail_kinds": len(slowest),
        "rounds": len(rounds),
        "items_kind": workload.item_kind,
        "scale": scale,
        "unscaled": unscaled,
        "round_p50_s": statistics.median(rounds) * scale,
        "latency_p50_ms": statistics.median(latencies) * 1e3 * scale,
        "latency_tail_ms": tail_s * 1e3 * scale,
        "latency_tail_percentile": pct,
        "latency_samples": len(latencies),
    })
    metrics = {name: value * scale if name in SCALED_TIMES else value
               for name, value in unscaled.items()}
    metrics["items_per_s"] = unscaled["items_per_s"] / scale
    return metrics


def per_layer(m: Measurement, inputs_s: float, probe_ms: float) -> dict:
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    if m.layer_rounds:
        for name in m.layer_rounds[0]:
            values = [row[name] for row in m.layer_rounds]
            if name in EXACT_COUNTS:
                metrics[name] = statistics.median_low(values)
                if len(set(values)) > 1:
                    m.problems.append(f"work count {name} varies across "
                                      f"rounds: {sorted(set(values))}")
            else:
                metrics[name] = statistics.median(values)
    traced, untraced = m.traced_rounds(), m.untraced_rounds()
    if traced and untraced:
        metrics["trace.overhead_frac"] = (
            statistics.mean(traced) / statistics.mean(untraced) - 1.0)
    metrics["bench.inputs_s"] = inputs_s
    metrics["env.calib_ms"] = probe_ms
    return metrics


def peak_rss_mb(workload) -> float:
    """Peak resident set of this process, plus the daemon's for the
    service workload, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + getattr(workload, "daemon_peak_mb", 0.0)


def layer_shares(m: Measurement) -> dict:
    """Median per-round self time of each layer as a share of the median
    traced round."""
    traced = m.traced_rounds()
    if not traced:
        return {}
    wall = statistics.median(traced)
    shares = {}
    for layer, metric in LAYER_METRICS.items():
        values = [row.get(metric, 0.0) for row in m.layer_rounds]
        shares[layer] = statistics.median(values) / wall
    shares["unattributed"] = statistics.median(
        row.get("ledger.unattributed_frac", 0.0) for row in m.layer_rounds)
    return shares


# The profile each workload was chosen for: (description, layers, op, bound).
PROFILE_CLAIMS = {
    "sampled-lanes": [("launch spec + vectorized lanes",
                       ("interp.launch_spec", "device.vectorized"), ">=", 0.80)],
    "interp-bound": [("launch spec + vectorized lanes",
                      ("interp.launch_spec", "device.vectorized"), "<=", 0.10),
                     ("host self + interleaved",
                      ("interp.host", "device.interleaved"), ">=", 0.85)],
    "debug-session": [("compiler", ("compiler",), ">=", 0.20)],
}


def program_rows(m: Measurement) -> dict:
    """Per op label: best and median untraced op time; per program: the
    traced layer split as shares of that program's traced time."""
    rows = {}
    for label in sorted({op[0] for op in m.ops}):
        times = [s for lab, _, s, traced in m.ops if lab == label and not traced]
        if times:
            rows[label] = {"best_s": min(times),
                           "median_s": statistics.median(times),
                           "ops": len(times)}
    split = {}
    for program, layers in sorted(m.by_program.items()):
        total = sum(layers.values()) or 1.0
        split[program] = {layer: round(s / total, 4)
                          for layer, s in sorted(layers.items()) if s > 0}
    return {"ops": rows, "layer_split": split}


def import_seconds(module_name: str) -> float:
    """Time a fresh interpreter takes to start and import what the workload
    needs: the part of set-up every invocation pays."""
    code = f"import sys; sys.path[:0] = [{SRC!r}, {HERE!r}]; import {module_name}"
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
    return perf_counter() - start


class SetupSamples:
    """Set-up, timed ``SETUP_REPEATS`` times over the run.

    One sample is a fresh interpreter's imports plus one full set-up of the
    workload.  The first sample's workload is the one measured; the others
    are taken between rounds at even intervals of the timed phase, each on
    a fresh workload that is closed at once, so the samples (and their
    median, ``setup_s``) span the host's drift as the rounds do.  The speed
    probe is sampled after each.
    """

    def __init__(self, module, args, speed: SpeedProbe):
        self.module = module
        self.args = args
        self.speed = speed
        self.seconds = []
        self.inputs = []
        self.start = None

    def take(self):
        import_s = import_seconds(self.module.__name__)
        workload = self.module.WORKLOADS[self.args.workload](self.args.seed)
        gc.collect()
        start = perf_counter()
        try:
            parts = workload.setup()
        except BaseException:
            workload.close()
            raise
        self.seconds.append(import_s + perf_counter() - start)
        self.inputs.append(parts.get("inputs_s", 0.0))
        self.speed.sample()
        return workload

    def between_rounds(self) -> None:
        """Called before each round: takes (and drops) a sample when the
        timed phase has reached the next even interval, and samples the
        speed probe when it is due."""
        now = perf_counter()
        if self.start is None:
            self.start = now
        due = len(self.seconds) * self.args.seconds / SETUP_REPEATS
        if len(self.seconds) < SETUP_REPEATS and now - self.start >= due:
            self.take().close()
        self.speed.due()

    def finish(self) -> None:
        while len(self.seconds) < SETUP_REPEATS:
            self.take().close()


def print_summary(args, m: Measurement, metrics: dict, units: dict,
                  report: dict, ledger) -> None:
    """The human-readable lines printed before the result line."""
    probe_ms = [1e3 * s for s in report["probe_s"]]
    print(f"workload {args.workload}  seed {args.seed}  nproc {os.cpu_count()}  "
          f"rounds {len(m.rounds)}  ops {m.attempted}  failed {m.failed}  "
          f"failed_frac {report['failed_frac']:.4f}")
    print(f"speed probe: {len(probe_ms)} samples, trimmed mean "
          f"{report['probe_mean_ms']:.3f} ms, quartiles "
          + " ".join(f"{q:.3f}" for q in statistics.quantiles(probe_ms, n=4))
          + f" ms; reference {1e3 * REFERENCE_S:g} ms")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6g} {units[name]}")
    d = m.diagnostics
    if "latency_tail_ms" in d:
        print(f"  diagnostics: scale {d['scale']:.4f}, unscaled round mean "
              f"{d['unscaled']['round_mean_s']:.4f} s")
        print(f"  diagnostics: {d['rounds']} rounds, round p50 "
              f"{d['round_p50_s']:.4f} s; latency p50 "
              f"{d['latency_p50_ms']:.4g} ms, p{d['latency_tail_percentile']:g} "
              f"{d['latency_tail_ms']:.4g} ms of {d['latency_samples']}")
    for label, row in report["programs"]["ops"].items():
        print(f"  op {label:30s} best {row['best_s']:.4f} s  median "
              f"{row['median_s']:.4f} s  (n={row['ops']})")
    if args.trace:
        shares = report.get("layer_shares", {})
        for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            if share > 0.0005:
                print(f"  share {layer:28s} {100 * share:6.2f}%")
        for program, split in report["programs"]["layer_split"].items():
            top = sorted(split.items(), key=lambda kv: -kv[1])[:4]
            print(f"  split {program:10s} " + "  ".join(
                f"{layer} {100 * share:.0f}%" for layer, share in top))
        for desc, layers, op, bound in PROFILE_CLAIMS.get(args.workload, []):
            share = sum(shares.get(layer, 0.0) for layer in layers)
            met = share >= bound if op == ">=" else share <= bound
            print(f"  profile {desc}: {100 * share:.1f}% (want {op} "
                  f"{100 * bound:.0f}%) {'met' if met else 'NOT MET'}")
        print(f"  tracing overhead {100 * metrics['trace.overhead_frac']:.1f}% "
              f"of the untraced round; unattributed "
              f"{100 * metrics['ledger.unattributed_frac']:.1f}%")
        if ledger is not None and ledger.missing:
            print(f"  missing seams: {', '.join(ledger.missing)}")
    for problem in m.problems[:10]:
        print(f"  problem: {problem}")


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    module_name = "service" if args.workload == "service-session" else "offline"
    sys.path.insert(0, SRC)
    module = importlib.import_module(module_name)

    ledger = Ledger() if args.trace and module_name == "offline" else None
    speed = SpeedProbe()
    setups = SetupSamples(module, args, speed)
    workload = setups.take()
    try:
        measure_start = perf_counter()
        if args.workload == "service-session":
            m = workload.measure(Measurement(), args.seconds,
                                 traced=bool(args.trace),
                                 between_rounds=setups.between_rounds)
        else:
            m = measure_offline(workload, args.seconds, ledger,
                                setups.between_rounds, speed)
        m.diagnostics["measure_wall_s"] = perf_counter() - measure_start
    finally:
        workload.close()
    setups.finish()
    setup_s = statistics.median(setups.seconds)

    if args.trace:
        metrics = per_layer(m, statistics.median(setups.inputs),
                            speed.mean_s() * 1e3)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(m, setup_s, workload, speed.scale())
        units = END_TO_END_UNITS
    correct = m.failed == 0 and not m.problems

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "setup": {"samples_s": setups.seconds, "inputs_s": setups.inputs},
        "probe_s": speed.samples, "probe_mean_ms": speed.mean_s() * 1e3,
        "rounds": m.rounds, "attempted": m.attempted, "failed": m.failed,
        "failed_frac": m.failed / m.attempted if m.attempted else 0.0,
        "problems": m.problems, "diagnostics": m.diagnostics,
        "metrics": metrics, "programs": program_rows(m),
    }
    if args.trace and m.layer_rounds:
        report["layer_rounds"] = m.layer_rounds
        report["layer_shares"] = layer_shares(m)

    print_summary(args, m, metrics, units, report, ledger)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}")
    if ledger is not None:
        report["ledger"] = {"installed": ledger.installed,
                            "missing": ledger.missing,
                            "spans": len(ledger.spans),
                            "dropped": ledger.dropped}
        ledger.write_spans(stem + ".spans.jsonl")
    with open(stem + ".json", "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")

    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        summary[name] = json.loads(lines[-1])
        if not summary[name]["correct"]:
            status = 1
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="timed phase per run: whole rounds, as many "
                             "as fit")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
