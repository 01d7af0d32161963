"""The service-session workload: a closed loop against a ``repro serve`` child.

One client process drives the daemon over ``CONNECTIONS`` connections (one
thread each, never more than the machine has cores), against a daemon with
as many workers.  Each connection sends its next request only when the
previous one answered.  A round is one pass over a fixed request mix, in
two phases, each in a seed-shuffled order:

* a warm ``compile`` of each of the 23 distinct suite sources;
* a ``memcheck`` at ``small`` scalars of the five programs whose inputs the
  wire can carry (scalars only);
* an edit of each of the four ``EDITED`` sources, unique to its seed and
  round, so each misses both cache tiers.

The warm compiles go first, the memchecks and edits second, so a warm
compile never queues for the daemon's interpreter lock behind a memcheck.
Warm compiles are most of the mix, so the median sits inside their mode;
the tail sits inside the memcheck mode.  Every response is checked after
its round: compile output against the digests committed in
``BENCH_service.json`` (an edit only adds a comment, so it must print what
its base source prints), memcheck output against the set-up run's.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter, sleep
from typing import Dict, List, Tuple

from repro.bench import suite
from repro.service.client import connect
from rounds import RoundClock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
MEMCHECK = ("BACKPROP", "EP", "HOTSPOT", "JACOBI", "KMEANS")
# Sources edited in every round.  The set is fixed so every round (and every
# seed) does the same work; the seed picks where each edit goes.
EDITED = ("JACOBI/unoptimized", "BACKPROP/unoptimized", "EP/unoptimized",
          "BFS/optimized")
START_TIMEOUT_S = 60.0
STATS_PERIOD_S = 0.05


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def distinct_sources() -> List[Tuple[str, str]]:
    """(label, source) of every distinct suite source, as the committed
    service baseline labels them."""
    items, seen = [], set()
    for name in suite.all_names():
        bench = suite.get(name)
        for variant in ("unoptimized", "optimized"):
            source = getattr(bench, f"{variant}_source")
            if source not in seen:
                seen.add(source)
                items.append((f"{name}/{variant}", source))
    return items


def edit(source: str, rng: random.Random, tag: str) -> str:
    """Append a comment to a seeded code line: a new source text (so both
    cache tiers miss) that compiles to the same output, line numbers
    included."""
    lines = source.split("\n")
    candidates = [i for i, line in enumerate(lines)
                  if line.strip().endswith((";", "{", "}"))
                  and not line.lstrip().startswith(("#", "//", "/*", "*"))]
    i = rng.choice(candidates)
    lines[i] += f" /* edit {tag} */"
    return "\n".join(lines)


def _peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process (Linux ``VmHWM``); 0 elsewhere."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Request:
    __slots__ = ("label", "kind", "fields", "expect", "client_ms",
                 "handler_ms", "ok", "digest", "error")

    def __init__(self, label: str, kind: str, fields: Dict, expect: str):
        self.label = label
        self.kind = kind
        self.fields = fields
        self.expect = expect
        self.client_ms = 0.0
        self.handler_ms = 0.0
        self.ok = False
        self.digest = ""
        self.error = ""


class StatsSampler:
    """Polls the daemon's rolling telemetry on a probe connection that
    carries no load of its own, until stopped."""

    def __init__(self, probe):
        self.probe = probe
        self.samples: List[Dict] = []
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._poll)
        self.thread.start()

    def _poll(self) -> None:
        while not self.done.wait(STATS_PERIOD_S):
            self.samples.append(self.probe.request("stats")["telemetry"])

    def stop(self) -> List[Dict]:
        self.done.set()
        self.thread.join()
        return self.samples


class ServiceSession:
    name = "service-session"
    item_kind = "requests"

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.proc = None
        self.workdir = None
        self.round_index = 0
        self.daemon_peak_mb = 0.0

    # -- daemon lifetime --------------------------------------------------------
    def setup(self) -> Dict[str, float]:
        start = perf_counter()
        with open(os.path.join(ROOT, "BENCH_service.json")) as handle:
            self.expected = json.load(handle)["digests"]
        self.sources = distinct_sources()
        self.memcheck = []
        for name in MEMCHECK:
            bench = suite.get(name)
            scalars = {k: v for k, v in bench.params("small", self.seed).items()
                       if isinstance(v, (int, float)) and not isinstance(v, bool)}
            self.memcheck.append((name, bench.unoptimized_source, scalars))
        inputs_s = perf_counter() - start

        self._start_daemon()
        # Warm both tiers: every compile once, every memcheck once (which
        # also records the memcheck outputs the rounds must reproduce).
        self.memcheck_digest = {}
        with connect(self.address) as client:
            for label, source in self.sources:
                response = client.request("compile", source=source)
                self._expect_ok(response, label)
            for name, source, params in self.memcheck:
                response = client.request("memcheck", source=source,
                                          params=params)
                self._expect_ok(response, f"memcheck {name}")
                self.memcheck_digest[name] = _digest(response["stdout"])
        return {"inputs_s": inputs_s}

    @staticmethod
    def _expect_ok(response: Dict, what: str) -> None:
        if not response.get("ok"):
            raise RuntimeError(f"warm-up {what} failed: {response.get('error')}")

    def _start_daemon(self) -> None:
        base = os.path.join(ROOT, ".perfbench")
        os.makedirs(base, exist_ok=True)
        # One directory per instance: set-up samples start their own daemon
        # while the measured one is still up.
        self.workdir = os.path.join(base, f"service-{os.getpid()}-{id(self)}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(os.path.join(self.workdir, "tmp"))
        # A relative socket path stays under the unix-socket length limit
        # wherever the checkout lives; client and daemon share the cwd.
        self.address = os.path.relpath(os.path.join(self.workdir, "d.sock"),
                                       ROOT)
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(ROOT, "src"),
                   TMPDIR=os.path.join(self.workdir, "tmp"))
        log = open(os.path.join(self.workdir, "daemon.log"), "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", self.address, "--workers", str(CONNECTIONS),
             "--cache-dir", os.path.join(self.workdir, "cache"),
             "--spool-dir", os.path.join(self.workdir, "spool")],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        log.close()
        deadline = perf_counter() + START_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            try:
                with connect(self.address, timeout=5.0) as client:
                    client.ping()
                return
            except OSError:
                if perf_counter() > deadline:
                    raise RuntimeError("daemon did not start in time")
                sleep(0.02)

    def close(self) -> None:
        """Stop the daemon and wait until it has exited."""
        if self.proc is not None:
            self.daemon_peak_mb = max(self.daemon_peak_mb,
                                      _peak_rss_mb(self.proc.pid))
            if self.proc.poll() is None:
                try:
                    with connect(self.address, timeout=5.0) as client:
                        client.shutdown()
                except OSError:
                    pass
                try:
                    self.proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc = None
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    # -- rounds -------------------------------------------------------------------
    def round_phases(self) -> List[List[Request]]:
        """One round: the warm compiles, then the memchecks and edits, each
        phase in a seed-shuffled order.  Keeping the light and the heavy
        requests in separate phases means a warm compile never waits for
        the interpreter lock behind a memcheck, so each latency mode is
        one request class."""
        light = [Request(label, "compile", {"source": source},
                         self.expected[label])
                 for label, source in self.sources]
        heavy = [Request(f"memcheck:{name}", "memcheck",
                         {"source": source, "params": params},
                         self.memcheck_digest[name])
                 for name, source, params in self.memcheck]
        sources = dict(self.sources)
        tag = f"{self.seed}.{self.round_index}"
        heavy += [Request(f"edit:{label}", "edit",
                          {"source": edit(sources[label], self.rng, tag)},
                          self.expected[label])
                  for label in EDITED]
        self.rng.shuffle(light)
        self.rng.shuffle(heavy)
        self.round_index += 1
        return [light, heavy]

    @staticmethod
    def _run_phase(clients, requests: List[Request]) -> None:
        """Every connection sends its next request as soon as its previous
        one answered, until the phase's requests are all done."""
        queue = list(reversed(requests))
        lock = threading.Lock()

        def drive(client):
            while True:
                with lock:
                    if not queue:
                        return
                    req = queue.pop()
                op = "memcheck" if req.kind == "memcheck" else "compile"
                try:
                    t0 = perf_counter()
                    response = client.request(op, **req.fields)
                    req.client_ms = (perf_counter() - t0) * 1e3
                except Exception as err:   # counted as a failed request
                    req.error = repr(err)
                    continue
                req.handler_ms = float(response.get("elapsed_ms", 0.0))
                req.ok = bool(response.get("ok"))
                req.digest = _digest(response.get("stdout", ""))
                if not req.ok:
                    req.error = str(response.get("error"))

        threads = [threading.Thread(target=drive, args=(client,))
                   for client in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def measure(self, m, seconds: float, traced: bool, between_rounds):
        """Rounds until ``seconds`` passed; with ``traced``, odd rounds also
        sample the daemon's ``stats`` verb on a separate probe connection."""
        clients = [connect(self.address) for _ in range(CONNECTIONS)]
        probe = connect(self.address) if traced else None
        handler, wire, depth, util = [], [], [], []
        ratios = []
        try:
            clock = RoundClock(seconds, traced)
            index = 0
            while clock.another():
                between_rounds()
                traced_round = traced and index % 2 == 1
                phases = self.round_phases()
                if traced_round:
                    before = probe.stats()
                    sampler = StatsSampler(probe)
                start = perf_counter()
                for phase in phases:
                    self._run_phase(clients, phase)
                wall = perf_counter() - start
                if traced_round:
                    samples = sampler.stop()
                    depth += [s["queue_depth"] for s in samples]
                    util += [s["utilization"] for s in samples]
                    ratios.append(self._cache_ratios(before, probe.stats()))
                m.rounds.append((wall, traced_round))
                for req in (req for phase in phases for req in phase):
                    m.attempted += 1
                    m.ops.append((req.label, req.kind, req.client_ms / 1e3,
                                  traced_round))
                    problem = req.error or (
                        "" if req.digest == req.expect
                        else "output differs from the expected digest")
                    if problem:
                        m.record_failure(req.label, [problem])
                    elif not traced_round:
                        m.items += 1
                    if traced_round and req.ok:
                        handler.append(req.handler_ms)
                        wire.append(req.client_ms - req.handler_ms)
                index += 1
        finally:
            for client in clients:
                client.close()
            if probe is not None:
                probe.close()
        if traced:
            row = {
                "service.handler_ms": statistics.median(handler),
                "service.wire_ms": statistics.median(wire),
                "service.queue_depth": statistics.mean(depth) if depth else 0.0,
                "service.worker_util": statistics.mean(util) if util else 0.0,
            }
            for key in ("service.cache_mem_hit_ratio",
                        "service.cache_disk_hit_ratio",
                        "compiler.cache_hit_ratio"):
                row[key] = statistics.median(r[key] for r in ratios)
            m.layer_rounds.append(row)
        return m

    @staticmethod
    def _cache_ratios(before: Dict, after: Dict) -> Dict[str, float]:
        """Hit ratios over one round, from the daemon's cumulative counters."""
        def delta(key):
            return after["counters"].get(key, 0) - before["counters"].get(key, 0)

        def compile_delta(key):
            return (after["tiers"]["mem"]["compile"][key]
                    - before["tiers"]["mem"]["compile"][key])

        def ratio(hit, miss):
            return hit / (hit + miss) if hit + miss else 0.0

        return {
            "service.cache_mem_hit_ratio": ratio(delta("cache.tier.mem.hit"),
                                                 delta("cache.tier.mem.miss")),
            "service.cache_disk_hit_ratio": ratio(delta("cache.tier.disk.hit"),
                                                  delta("cache.tier.disk.miss")),
            "compiler.cache_hit_ratio": ratio(compile_delta("hits"),
                                              compile_delta("misses")),
        }

    def final_check(self) -> Dict[str, List[str]]:
        return {}


WORKLOADS = {ServiceSession.name: ServiceSession}
