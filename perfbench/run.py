"""The repository benchmark: paper-scale Fig. 5 sweeps and served schedule latency.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

- ``fig5_paper``  -- Fig. 5(a)+(b) at the paper-scale ``ExperimentConfig()``,
  ``n_jobs=1``, one fresh interpreter per sweep;
- ``fig5_fanout`` -- the same sweep with ``n_jobs=2`` through the process pool;
- ``serve_miss``  -- ``repro serve``, closed loop of 2 keep-alive clients, every
  request a distinct N=300 topology;
- ``serve_hit``   -- the same server, seeded Poisson arrivals over 8 primed
  topologies, so requests are exact cache hits.

With ``--trace 0`` the run measures the unmodified program and reports the
end-to-end metrics; with ``--trace 1`` it makes one untraced and one traced
pass over the same inputs (wrappers from ``layers.py``), checks that their
outputs are equal and reports the per-layer metrics.  Every output is checked
(Thm 3.1 band and feasibility on the sweeps, equality with the direct
scheduler on the service).  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import http.client
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("fig5_paper", "fig5_fanout", "serve_miss", "serve_hit")
#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Links per served topology.
N_LINKS = 300
#: Distinct topologies the serve_hit arrivals draw from.
HIT_POOL = 8
#: Fixed offered rate (requests/s) of the serve_hit latency measurement.
HIT_RATE = 150.0
#: Offered-rate ladder (requests/s) and p99 limit (ms) behind ``max_rate_rps``.
LADDER = (150.0, 300.0, 450.0)
P99_LIMIT_MS = 20.0
#: Topologies generated before the serve_miss window (more are made on demand).
MISS_PREFILL = 600
#: Hard cap on one run, below the 180 s the benchmark must end within.
RUN_BUDGET_S = 170.0

SCHEDULERS = ("ldp", "rle", "approx_logn", "approx_diversity")
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The program or the benchmark could not complete a run."""


def sub_seed(seed: int, *parts: Any) -> int:
    """A 32-bit seed derived from the run seed and a label."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:8], 16)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError("run exceeded its time budget")
        return left


def run_child(cmd: List[str], deadline: Deadline) -> None:
    """Run ``cmd`` to completion in its own process group."""
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1]} timed out")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} failed:\n{err.decode(errors='replace')[-2000:]}")


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# -- the Fig. 5 workloads ---------------------------------------------------


def fig5_pass(seed: int, jobs: int, tmp: str, deadline: Deadline, *, trace: bool = False,
              setup_only: bool = False) -> Dict[str, Any]:
    """One sweep (or set-up) in a fresh interpreter; returns its result file."""
    out = os.path.join(tmp, f"fig5-{seed}-{int(trace)}-{int(setup_only)}.json")
    cmd = [sys.executable, os.path.join(HERE, "fig5_sweep.py"), "--seed", str(seed),
           "--jobs", str(jobs), "--out", out]
    if trace:
        spool = os.path.join(tmp, f"spool-{seed}")
        os.makedirs(spool, exist_ok=True)
        cmd += ["--trace", spool]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    run_child(cmd, deadline)
    with open(out) as fh:
        result = json.load(fh)
    os.unlink(out)
    result["setup_s"] = result["ready"] - t_spawn
    return result


def fig5_checks(result: Dict[str, Any], report: "Report") -> None:
    report.attempted += result["attempted"]
    report.failed += len(result["failures"])
    report.notes.extend(result["failures"][:5])


def run_fig5(args, jobs: int, tmp: str, deadline: Deadline, report: "Report") -> None:
    if args.trace:
        seed = sub_seed(args.seed, "fig5", 0)
        plain = fig5_pass(seed, jobs, tmp, deadline)
        traced = fig5_pass(seed, jobs, tmp, deadline, trace=True)
        for result in (plain, traced):
            fig5_checks(result, report)
        if traced["digest"] != plain["digest"]:
            report.failed += 1
            report.notes.append("traced sweep results differ from the untraced sweep")
        report.layers = fig5_layers(traced, jobs)
        report.layers["trace_overhead_share"] = traced["sweep_s"] / plain["sweep_s"] - 1.0
        report.inputs["builds_per_geometry"] = report.layers["core.problem.builds_per_geometry"]
        return
    sweeps, setups, rss = [], [], []
    t_begin = time.monotonic()
    i = 0
    while not sweeps or time.monotonic() - t_begin < args.seconds:
        result = fig5_pass(sub_seed(args.seed, "fig5", i), jobs, tmp, deadline)
        fig5_checks(result, report)
        sweeps.append(result["sweep_s"])
        setups.append(result["setup_s"])
        rss.append(result["peak_rss_mb"])
        i += 1
    while len(setups) < SETUP_SAMPLES:
        setups.append(fig5_pass(sub_seed(args.seed, "setup", len(setups)), jobs, tmp, deadline,
                                setup_only=True)["setup_s"])
    units = result["attempted"]
    report.e2e = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": statistics.median(sweeps) * 1000.0,
        "throughput_per_s": units / statistics.median(sweeps),
        "peak_rss_mb": statistics.median(rss),
    }
    report.aliases = {
        "sweep_s": (statistics.median(sweeps), "s"),
        "sweep_max_s": (max(sweeps), "s"),
        "sweeps": (len(sweeps), "count"),
    }


# -- per-layer analysis -----------------------------------------------------


def self_times(spans: List[Tuple[str, float, float, int]]) -> Dict[str, float]:
    """Self time per span name: a span minus the nested spans of its thread."""
    out: Dict[str, float] = defaultdict(float)
    by_thread: Dict[int, list] = defaultdict(list)
    for name, t0, t1, tid in spans:
        by_thread[tid].append((t0, -t1, name))
    for items in by_thread.values():
        items.sort()
        stack: List[list] = []
        for t0, neg_t1, name in items:
            while stack and stack[-1][2] <= t0:
                done = stack.pop()
                out[done[0]] += (done[2] - done[1]) - done[3]
            if stack:
                stack[-1][3] += -neg_t1 - t0
            stack.append([name, t0, -neg_t1, 0.0])
        while stack:
            done = stack.pop()
            out[done[0]] += (done[2] - done[1]) - done[3]
    return out


def merge(records: List[Dict[str, Any]], window: Optional[Tuple[float, float]] = None) -> Dict[str, Any]:
    """Self times, inclusive times, call counts and side records of all processes."""
    inside = (lambda t: True) if window is None else (lambda t: window[0] <= t <= window[1])
    selfs: Dict[str, float] = defaultdict(float)
    incl: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    draws = 0
    async_incl: Dict[str, float] = defaultdict(float)
    geometries, waits = set(), []
    for rec in records:
        spans = [tuple(s) for s in rec["spans"] if inside(s[1])]
        for name, value in self_times(spans).items():
            selfs[name] += value
        for name, t0, t1, _ in spans:
            incl[name] += t1 - t0
            calls[name] += 1
        for name, t0, t1 in rec["async_spans"]:
            if inside(t0):
                async_incl[name] += t1 - t0
        draws += rec["draws"]
        geometries.update(g for t, g in rec["geometries"] if inside(t))
        waits.extend(w for t, w in rec["queue_waits"] if inside(t))
    return {"self": selfs, "incl": incl, "calls": calls, "draws": draws,
            "async": async_incl, "geometries": len(geometries), "waits": waits}


PER_LAYER = {
    # name: (unit, better) -- the order is the order of BENCHMARK.json
    "workload.topology_s": ("s", "lower"),
    "workload.topology_calls": ("count", "lower"),
    "core.problem.distances_s": ("s", "lower"),
    "core.problem.distances_calls": ("count", "lower"),
    "core.problem.fmatrix_s": ("s", "lower"),
    "core.problem.fmatrix_calls": ("count", "lower"),
    "core.problem.builds_per_geometry": ("ratio", "lower"),
    "channel.sampling.draw_s": ("s", "lower"),
    "channel.sampling.draws": ("count", "lower"),
    "backend.kernels.reduce_s": ("s", "lower"),
    "sim.montecarlo.replay_s": ("s", "lower"),
    "sim.metrics.summarize_s": ("s", "lower"),
    "core.scheduler.ldp_s": ("s", "lower"),
    "core.scheduler.rle_s": ("s", "lower"),
    "core.scheduler.approx_logn_s": ("s", "lower"),
    "core.scheduler.approx_diversity_s": ("s", "lower"),
    "cache.fingerprint.canonical_s": ("s", "lower"),
    "cache.fingerprint.canonical_calls": ("count", "lower"),
    "cache.fingerprint.exact_key_s": ("s", "lower"),
    "cache.store.schedule_s": ("s", "lower"),
    "cache.store.exact_hits": ("count", "higher"),
    "cache.store.misses": ("count", "lower"),
    "cache.store.hit_rate": ("ratio", "higher"),
    "service.schemas.parse_s": ("s", "lower"),
    "service.schemas.encode_s": ("s", "lower"),
    "service.server.transport_s": ("s", "lower"),
    "service.broker.submit_s": ("s", "lower"),
    "service.broker.queue_wait_s": ("s", "lower"),
    "service.broker.batches": ("count", "lower"),
    "service.broker.batch_size_mean": ("count", "higher"),
    "service.broker.coalesced": ("count", "higher"),
    "service.loadgen.late_ms": ("ms", "lower"),
    "sim.parallel.units": ("count", "lower"),
    "sim.parallel.execute_s": ("s", "lower"),
    "sim.parallel.worker_busy_share": ("ratio", "higher"),
    "unattributed_share": ("ratio", "lower"),
    "trace_overhead_share": ("ratio", "lower"),
}


def common_layers(m: Dict[str, Any], per: float) -> Dict[str, float]:
    """Layer metrics shared by both paths; times are seconds per ``per`` units of work."""
    s, calls = m["self"], m["calls"]
    out = {name: 0.0 for name in PER_LAYER}
    out.update({
        "workload.topology_s": s["workload.topology"] / per,
        "workload.topology_calls": calls["workload.topology"] / per,
        "core.problem.distances_s": s["core.problem.distances"] / per,
        "core.problem.distances_calls": calls["core.problem.distances"] / per,
        "core.problem.fmatrix_s": s["core.problem.fmatrix"] / per,
        "core.problem.fmatrix_calls": calls["core.problem.fmatrix"] / per,
        "core.problem.builds_per_geometry": (
            calls["core.problem.distances"] / m["geometries"] if m["geometries"] else 0.0
        ),
        "channel.sampling.draw_s": s["channel.sampling.draw"] / per,
        "channel.sampling.draws": m["draws"] / per,
        "backend.kernels.reduce_s": s["backend.kernels.reduce"] / per,
        "sim.montecarlo.replay_s": s["sim.montecarlo.replay"] / per,
        "sim.metrics.summarize_s": s["sim.metrics.summarize"] / per,
        "cache.fingerprint.canonical_s": s["cache.fingerprint.canonical"] / per,
        "cache.fingerprint.canonical_calls": calls["cache.fingerprint.canonical"] / per,
        "cache.fingerprint.exact_key_s": s["cache.fingerprint.exact_key"] / per,
        "cache.store.schedule_s": s["cache.store.schedule"] / per,
        "service.schemas.parse_s": s["service.schemas.parse"] / per,
        "service.schemas.encode_s": s["service.schemas.encode"] / per,
        "service.broker.submit_s": m["async"]["service.broker.submit"] / per,
        "service.broker.queue_wait_s": sum(m["waits"]) / per,
    })
    for name in SCHEDULERS:
        out[f"core.scheduler.{name}_s"] = s[f"core.scheduler.{name}"] / per
    return out


def fig5_layers(traced: Dict[str, Any], jobs: int) -> Dict[str, float]:
    """Per-layer metrics of one traced sweep (seconds per sweep)."""
    m = merge(traced["trace"])
    out = common_layers(m, 1.0)
    s, incl = m["self"], m["incl"]
    total = sum(s.values())
    execute_wall = incl["sim.parallel.execute"]
    out["sim.parallel.units"] = m["calls"]["sim.parallel.unit"]
    out["sim.parallel.execute_s"] = execute_wall
    out["sim.parallel.worker_busy_share"] = (
        incl["sim.parallel.unit"] / (jobs * execute_wall) if execute_wall else 0.0
    )
    # container self time is wall time no layer wrapper covers
    out["unattributed_share"] = (s["sweep"] + s["sim.parallel.unit"]) / total
    return out


# -- the serve workloads ----------------------------------------------------


class Server:
    """A ``repro serve`` subprocess on an ephemeral port (optionally traced)."""

    def __init__(self, deadline: Deadline, trace_out: Optional[str] = None) -> None:
        self.trace_out = trace_out
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro"]
        else:
            cmd = [sys.executable, os.path.join(HERE, "traced_serve.py"), trace_out]
        cmd += ["serve", "--port", "0"]
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, start_new_session=True,
        )
        try:
            self.port = self._read_port(min(60.0, deadline.left()))
            self._wait_healthy(deadline)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - t0

    def _read_port(self, timeout: float) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            raise BenchError(f"repro serve did not start (got {line!r})")
        return int(line.rsplit(":", 1)[1])

    def _wait_healthy(self, deadline: Deadline) -> None:
        while True:
            deadline.left()
            try:
                if self._call("GET", "/v1/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)

    def _call(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def post(self, body: bytes) -> Tuple[int, bytes]:
        return self._call("POST", "/v1/schedule", body)

    def statz(self) -> Dict[str, Any]:
        return json.loads(self._call("GET", "/v1/statz")[1])["broker"]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def stop(self) -> Optional[Dict[str, Any]]:
        """SIGINT the server, wait for it, and return its trace record if traced."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self.proc.stdout.close()
        if self.trace_out is not None and os.path.exists(self.trace_out):
            with open(self.trace_out) as fh:
                return json.load(fh)
        return None


def server_setups(deadline: Deadline, count: int) -> List[float]:
    times = []
    for _ in range(count):
        server = Server(deadline)
        times.append(server.setup_s)
        server.stop()
    return times


def topology_body(seed: int) -> Tuple[bytes, Any]:
    """A JSON schedule request for one paper topology, and the problem it encodes."""
    from repro.core.problem import FadingRLS
    from repro.network.topology import paper_topology
    from repro.service.loadgen import build_topology_payload

    problem = FadingRLS(links=paper_topology(N_LINKS, seed=seed))
    body = json.dumps({"topology": build_topology_payload(problem), "scheduler": "rle"})
    return body.encode(), problem


def direct_active(problem) -> List[int]:
    from repro.core.base import get_scheduler

    return [int(i) for i in get_scheduler("rle")(problem).active]


def check_samples(res, expected_for, report: "Report") -> Dict[int, List[int]]:
    """Count non-2xx, transport errors and wrong schedules as failed.

    Returns pool index -> served ``active`` list.
    """
    report.attempted += res.transport_errors
    report.failed += res.transport_errors
    served: Dict[int, List[int]] = {}
    for s in res.samples:
        report.attempted += 1
        if not 200 <= s.status < 300:
            report.failed += 1
            if len(report.notes) < 5:
                report.notes.append(f"request {s.index}: HTTP {s.status} {s.body[:200]!r}")
            continue
        active = json.loads(s.body)["active"]
        served[s.index] = active
        if active != expected_for(s.index):
            report.failed += 1
            if len(report.notes) < 5:
                report.notes.append(f"request {s.index}: served schedule differs from direct rle")
    return served


def traced_vs_plain(plain: ServePass, traced: ServePass, expected_for, report: "Report") -> None:
    """Check both passes, require equal served schedules, and fill the layer metrics."""
    served_plain = check_samples(plain.results[0][2], expected_for, report)
    served_traced = check_samples(traced.results[0][2], expected_for, report)
    if any(served_plain[i] != served_traced[i] for i in set(served_plain) & set(served_traced)):
        report.failed += 1
        report.notes.append("traced served schedules differ from untraced ones")
    _, _, res, window = traced.results[0]
    report.layers = serve_layers(traced.record, window, res, traced.delta)
    report.layers["trace_overhead_share"] = (
        statistics.mean(s.latency_s for s in res.ok)
        / statistics.mean(s.latency_s for s in plain.results[0][2].ok) - 1.0
    )


def statz_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    out = {k: after[k] - before[k] for k in ("requests", "scheduled", "coalesced", "batches", "errors")}
    for k in ("exact_hits", "canonical_hits", "warm_hits", "misses"):
        out[k] = after["cache"][k] - before["cache"][k]
    return out


def serve_layers(record: Dict[str, Any], window: Tuple[float, float], res, delta) -> Dict[str, float]:
    """Per-layer metrics of a traced serve window (seconds per 2xx request)."""
    m = merge([record], window)
    ok = res.ok
    n = max(1, len(ok))
    out = common_layers(m, n)
    client = sum(s.latency_s for s in ok) / n
    server_side = (m["incl"]["service.schemas.parse"] + m["async"]["service.broker.submit"]
                   + m["incl"]["service.schemas.encode"]) / n
    out["service.server.transport_s"] = max(0.0, client - server_side)
    out["unattributed_share"] = out["service.server.transport_s"] / client if client else 0.0
    lookups = delta["exact_hits"] + delta["canonical_hits"] + delta["warm_hits"] + delta["misses"]
    out["cache.store.exact_hits"] = delta["exact_hits"]
    out["cache.store.misses"] = delta["misses"]
    out["cache.store.hit_rate"] = (lookups - delta["misses"]) / lookups if lookups else 0.0
    out["service.broker.batches"] = delta["batches"]
    out["service.broker.batch_size_mean"] = (
        (delta["scheduled"] + delta["errors"]) / delta["batches"] if delta["batches"] else 0.0
    )
    out["service.broker.coalesced"] = delta["coalesced"]
    out["service.loadgen.late_ms"] = percentile(res.late_s, 0.99) * 1000.0 if res.late_s else 0.0
    return out


class MissInputs:
    """Distinct N=300 topologies in send order, made from the run seed."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.bodies: List[bytes] = []
        self.problems: List[Any] = []
        self.fill(MISS_PREFILL)

    def fill(self, n: int) -> None:
        while len(self.bodies) < n:
            body, problem = topology_body(sub_seed(self.seed, "miss", len(self.bodies)))
            self.bodies.append(body)
            self.problems.append(problem)

    def body(self, i: int) -> bytes:
        self.fill(i + 1)
        return self.bodies[i]


async def _closed(port: int, body_for, seconds: float):
    import http_load

    conns = [http_load.Connection("127.0.0.1", port) for _ in range(2)]
    try:
        return await http_load.closed_loop(conns, body_for, seconds=seconds)
    finally:
        for conn in conns:
            await conn.close()


@dataclass
class ServePass:
    """One server's measured window: load results, statz deltas, RSS, trace."""

    setup_s: float
    results: List[Tuple[str, float, Any, Tuple[float, float]]]
    delta: Dict[str, float]
    rss_mb: float
    record: Optional[Dict[str, Any]]


def miss_pass(inputs: MissInputs, deadline: Deadline, seconds: float, trace_out=None) -> ServePass:
    server = Server(deadline, trace_out)
    try:
        before = server.statz()
        t0 = time.perf_counter()
        res = asyncio.run(_closed(server.port, inputs.body, seconds))
        results = [("closed", 0.0, res, (t0, time.perf_counter()))]
        delta = statz_delta(before, server.statz())
        rss = server.peak_rss_mb()
    finally:
        record = server.stop()
    return ServePass(server.setup_s, results, delta, rss, record)


def run_serve_miss(args, tmp: str, deadline: Deadline, report: "Report") -> None:
    inputs = MissInputs(args.seed)
    expected: Dict[int, List[int]] = {}

    def expected_for(i: int) -> List[int]:
        if i not in expected:
            expected[i] = direct_active(inputs.problems[i])
        return expected[i]

    if args.trace:
        plain = miss_pass(inputs, deadline, args.seconds / 2)
        traced = miss_pass(inputs, deadline, args.seconds / 2, os.path.join(tmp, "serve-trace.json"))
        traced_vs_plain(plain, traced, expected_for, report)
        res = traced.results[0][2]
        report.inputs["distinct_share"] = len({s.index for s in res.samples}) / max(1, len(res.samples))
        return
    setups = server_setups(deadline, SETUP_SAMPLES - 1)
    run = miss_pass(inputs, deadline, args.seconds)
    setups.append(run.setup_s)
    _, _, res, window = run.results[0]
    check_samples(res, expected_for, report)
    delta = run.delta
    lat = [s.latency_s * 1000.0 for s in res.ok]
    if not lat:
        raise BenchError("serve_miss: no request succeeded")
    rps = len(res.ok) / (window[1] - window[0])
    report.e2e = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": percentile(lat, 0.5),
        "throughput_per_s": rps,
        "peak_rss_mb": run.rss_mb,
    }
    report.aliases = {
        "throughput_rps": (rps, "1/s"),
        "latency_p90_ms": (percentile(lat, 0.9), "ms"),
        "requests": (len(res.samples), "count"),
    }
    report.inputs["distinct_share"] = len({s.index for s in res.samples}) / max(1, len(res.samples))
    report.inputs["cache_misses_share"] = delta["misses"] / max(1, delta["requests"])


async def hit_phases(port: int, bodies: List[bytes], seed: int, plan):
    """Run ``plan`` = [(kind, rate, seconds)] on 2 keep-alive connections."""
    import http_load

    conns = [http_load.Connection("127.0.0.1", port) for _ in range(2)]
    results = []
    try:
        for k, (kind, rate, seconds) in enumerate(plan):
            t0 = time.perf_counter()
            if kind == "closed":
                res = await http_load.closed_loop(conns, lambda i: bodies[i % len(bodies)], seconds=seconds)
                for s in res.samples:
                    s.index %= len(bodies)
            else:
                offsets, idx = http_load.poisson_schedule(rate, seconds, len(bodies), sub_seed(seed, "hit", k))
                res = await http_load.open_loop(conns, bodies, offsets, idx, timeout=seconds + 30.0)
            results.append((kind, rate, res, (t0, time.perf_counter())))
    finally:
        for conn in conns:
            await conn.close()
    return results


def hit_pass(bodies, seed, deadline, plan, trace_out=None) -> ServePass:
    server = Server(deadline, trace_out)
    try:
        for body in bodies:
            status, payload = server.post(body)
            if status != 200:
                raise BenchError(f"priming request failed: HTTP {status} {payload[:200]!r}")
        before = server.statz()
        results = asyncio.run(hit_phases(server.port, bodies, seed, plan))
        delta = statz_delta(before, server.statz())
        rss = server.peak_rss_mb()
    finally:
        record = server.stop()
    return ServePass(server.setup_s, results, delta, rss, record)


def generator_check(late_s: List[float]) -> None:
    """A run whose arrival generator fell behind is invalid, not scored."""
    late_p99 = percentile(late_s, 0.99) * 1000.0
    if late_p99 > P99_LIMIT_MS:
        raise BenchError(f"invalid run: the load generator ran {late_p99:.1f} ms late at p99")


def run_serve_hit(args, tmp: str, deadline: Deadline, report: "Report") -> None:
    pool = [topology_body(sub_seed(args.seed, "hit-pool", i)) for i in range(HIT_POOL)]
    bodies = [b for b, _ in pool]
    expected = [direct_active(p) for _, p in pool]

    def expected_for(i: int) -> List[int]:
        return expected[i]

    if args.trace:
        plan = [("open", HIT_RATE, args.seconds / 2)]
        plain = hit_pass(bodies, args.seed, deadline, plan)
        traced = hit_pass(bodies, args.seed, deadline, plan, os.path.join(tmp, "serve-trace.json"))
        generator_check(plain.results[0][2].late_s + traced.results[0][2].late_s)
        traced_vs_plain(plain, traced, expected_for, report)
        report.inputs["exact_hit_share"] = report.layers["cache.store.hit_rate"]
        return
    setups = server_setups(deadline, SETUP_SAMPLES - 1)
    plan = [("closed", 0.0, args.seconds * 0.2), ("open", HIT_RATE, args.seconds * 0.6)]
    plan += [("open", rate, args.seconds * 0.1) for rate in LADDER if rate != HIT_RATE]
    run = hit_pass(bodies, args.seed, deadline, plan)
    setups.append(run.setup_s)
    delta = run.delta
    late = []
    ladder = {}
    for kind, rate, res, window in run.results:
        check_samples(res, expected_for, report)
        if kind == "open":
            late.extend(res.late_s)
            lat = [s.latency_s * 1000.0 for s in res.ok]
            ok = len(res.ok) == len(res.samples) and not res.transport_errors
            p99 = percentile(lat, 0.99)
            ladder[rate] = ok and p99 <= P99_LIMIT_MS and res.drain_s * 1000.0 <= P99_LIMIT_MS
            if rate == HIT_RATE:
                main = lat
                served_rps = len(res.ok) / (window[1] - window[0])
        else:
            capacity = len(res.ok) / (window[1] - window[0])
    generator_check(late)
    passing = [rate for rate in LADDER if ladder.get(rate)]
    max_rate = max(passing) if passing else 0.0
    lookups = delta["exact_hits"] + delta["canonical_hits"] + delta["warm_hits"] + delta["misses"]
    report.e2e = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": percentile(main, 0.5),
        "throughput_per_s": served_rps,
        "peak_rss_mb": run.rss_mb,
    }
    report.aliases = {
        "latency_p99_ms": (percentile(main, 0.99), "ms"),
        "latency_p90_ms": (percentile(main, 0.9), "ms"),
        "max_rate_rps": (max_rate, "1/s"),
        "closed_loop_rps": (capacity, "1/s"),
        "requests_at_fixed_rate": (len(main), "count"),
        "service.loadgen.late_ms": (percentile(late, 0.99) * 1000.0, "ms"),
    }
    report.inputs["exact_hit_share"] = delta["exact_hits"] / lookups if lookups else 0.0


# -- reporting --------------------------------------------------------------


@dataclass
class Report:
    """What a run measured and checked."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: printed, ungated figures: name -> (value, unit)
    aliases: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    inputs: Dict[str, float] = field(default_factory=dict)


def stamp(args) -> Dict[str, Any]:
    import numpy

    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program at {SRC}/repro; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    # SIGTERM unwinds through the finally blocks that stop child processes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    deadline = Deadline(RUN_BUDGET_S)
    report = Report()
    try:
        if args.workload.startswith("fig5"):
            run_fig5(args, 1 if args.workload == "fig5_paper" else 2, tmp, deadline, report)
        elif args.workload == "serve_miss":
            run_serve_miss(args, tmp, deadline, report)
        else:
            run_serve_hit(args, tmp, deadline, report)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    error_rate = report.failed / report.attempted if report.attempted else 1.0
    info = stamp(args)
    info["inputs"] = report.inputs
    info["error_rate"] = error_rate
    for note in report.notes:
        print(f"check failed: {note}", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": float(report.layers[k]), "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        metrics = {k: {"value": float(report.e2e[k]), "unit": u} for k, u in E2E_UNITS.items()}
    for name, spec in metrics.items():
        print(f"{name} {spec['value']:.6g} {spec['unit']}")
    for name, (value, unit) in report.aliases.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {error_rate:.6g} ratio")
    print("stamp " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": report.failed == 0 and report.attempted > 0,
        "attempted": int(report.attempted),
        "failed": int(report.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
