"""Per-layer timing for traced runs, from outside the program.

Nothing here edits ``src/repro``: the ``install_*`` functions replace the names the
program calls *at their call sites* (module globals and class attributes)
with thin timing wrappers, so the program runs its own code unchanged and
untraced runs never import this module.  Each wrapper records a span
``(layer, start, end)`` per call in the calling thread; a layer's time is
its *self* time, i.e. the span minus the part of it that nested layer spans
cover, so the layers of one process add up to the traced wall time.

Worker processes of the process pool inherit the wrappers when they fork.
They append their spans to ``<spool>/worker-<pid>.json`` after every work
unit, and :func:`records` returns them after the parent's own record.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

now = time.perf_counter


class Recorder:
    """Spans and side records of one process (reset when a forked worker starts)."""

    def __init__(self, spool: Optional[str] = None) -> None:
        self.spool = spool
        self.pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        self.spans: List[Tuple[str, float, float, int]] = []
        #: spans of coroutines, which interleave on the event-loop thread
        self.async_spans: List[Tuple[str, float, float]] = []
        #: fading variates drawn (sum of T * K^2 over replays)
        self.draws = 0
        #: (time, geometry hash) of every distance build
        self.geometries: List[Tuple[float, int]] = []
        #: (time, seconds) from broker submit to the cache taking the request
        self.queue_waits: List[Tuple[float, float]] = []

    def own(self) -> None:
        """Drop spans inherited across ``fork`` on a worker's first record."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.reset()

    def span(self, name: str, t0: float, t1: float) -> None:
        self.spans.append((name, t0, t1, threading.get_ident()))

    def flush_worker(self) -> None:
        """Append this worker's records to its spool file and clear them."""
        path = Path(self.spool) / f"worker-{self.pid}.json"
        with open(path, "a") as fh:
            fh.write(json.dumps(self.dump()) + "\n")
        self.reset()

    def dump(self) -> Dict[str, Any]:
        return {
            "pid": self.pid,
            "spans": list(self.spans),
            "async_spans": list(self.async_spans),
            "draws": self.draws,
            "geometries": list(self.geometries),
            "queue_waits": list(self.queue_waits),
        }


REC = Recorder()


def _timed(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = now()
        try:
            return fn(*args, **kwargs)
        finally:
            REC.span(name, t0, now())

    return wrapper


def install_experiment_layers() -> None:
    """Wrap the layers of the Fig. 5 sweep path (workload .. replay)."""
    from repro.backend import base as backend_base
    from repro.core.problem import FadingRLS
    from repro.experiments import config as exp_config
    from repro.sim import montecarlo, parallel, runner

    exp_config.TopologyWorkload.__call__ = _timed(
        "workload.topology", exp_config.TopologyWorkload.__call__
    )

    orig_distances = FadingRLS.distances
    orig_fmatrix = FadingRLS.interference_matrix

    @functools.wraps(orig_distances)
    def distances(self):
        if "distances" in self._cache:
            return orig_distances(self)
        t0 = now()
        links = self.links
        REC.geometries.append((t0, hash(links.senders.tobytes() + links.receivers.tobytes())))
        try:
            return orig_distances(self)
        finally:
            REC.span("core.problem.distances", t0, now())

    @functools.wraps(orig_fmatrix)
    def interference_matrix(self):
        if "F" in self._cache:
            return orig_fmatrix(self)
        t0 = now()
        try:
            return orig_fmatrix(self)
        finally:
            REC.span("core.problem.fmatrix", t0, now())

    FadingRLS.distances = distances
    FadingRLS.interference_matrix = interference_matrix

    orig_iter = montecarlo.iter_fading_trials

    @functools.wraps(orig_iter)
    def iter_fading_trials(*args, **kwargs):
        gen = orig_iter(*args, **kwargs)
        while True:
            t0 = now()
            try:
                z = next(gen)
            except StopIteration:
                REC.span("channel.sampling.draw", t0, now())
                return
            REC.span("channel.sampling.draw", t0, now())
            REC.draws += int(z.size)
            yield z
            # the replay releases each chunk before drawing the next one
            del z

    montecarlo.iter_fading_trials = iter_fading_trials
    montecarlo.summarize_trials = _timed("sim.metrics.summarize", montecarlo.summarize_trials)
    numpy_backend = backend_base.resolve("numpy")[0]
    numpy_backend.mc_success_chunk = _timed(
        "backend.kernels.reduce", numpy_backend.mc_success_chunk
    )

    parallel.simulate_schedule = _timed("sim.montecarlo.replay", parallel.simulate_schedule)
    orig_power = parallel.run_scheduler_with_power

    @functools.wraps(orig_power)
    def run_scheduler_with_power(problem, scheduler, *args, **kwargs):
        t0 = now()
        name = "unknown"
        try:
            schedule, powered = orig_power(problem, scheduler, *args, **kwargs)
            name = schedule.algorithm
            return schedule, powered
        finally:
            REC.span(f"core.scheduler.{name}", t0, now())

    parallel.run_scheduler_with_power = run_scheduler_with_power

    orig_unit = parallel.execute_unit
    parent = os.getpid()

    @functools.wraps(orig_unit)
    def execute_unit(unit):
        REC.own()
        t0 = now()
        try:
            return orig_unit(unit)
        finally:
            REC.span("sim.parallel.unit", t0, now())
            if os.getpid() != parent:
                REC.flush_worker()

    parallel.execute_unit = execute_unit
    runner.execute_units = _timed("sim.parallel.execute", runner.execute_units)


def install_service_layers() -> None:
    """Wrap the layers of the served request path (parse .. encode)."""
    import json as _json

    from repro.cache import store
    from repro.service import broker, schemas, server

    store.exact_key = _timed("cache.fingerprint.exact_key", store.exact_key)
    broker.exact_key = _timed("cache.fingerprint.exact_key", broker.exact_key)
    store.fingerprint_with_order = _timed(
        "cache.fingerprint.canonical", store.fingerprint_with_order
    )

    enqueued: Dict[int, float] = {}
    orig_get = store.get_scheduler
    wrapped: Dict[str, Callable] = {}

    def get_scheduler(name):
        fn = orig_get(name)
        if name not in wrapped:
            wrapped[name] = _timed(f"core.scheduler.{name}", fn)
        return wrapped[name]

    store.get_scheduler = get_scheduler

    orig_schedule = store.ScheduleCache.schedule

    @functools.wraps(orig_schedule)
    def schedule(self, problem, *args, **kwargs):
        t0 = now()
        due = enqueued.pop(id(problem), None)
        if due is not None:
            REC.queue_waits.append((t0, t0 - due))
        try:
            return orig_schedule(self, problem, *args, **kwargs)
        finally:
            REC.span("cache.store.schedule", t0, now())

    store.ScheduleCache.schedule = schedule

    orig_submit = broker.ScheduleBroker.submit

    @functools.wraps(orig_submit)
    async def submit(self, problem, **kwargs):
        t0 = now()
        enqueued[id(problem)] = t0
        try:
            return await orig_submit(self, problem, **kwargs)
        finally:
            enqueued.pop(id(problem), None)
            REC.async_spans.append(("service.broker.submit", t0, now()))

    broker.ScheduleBroker.submit = submit

    # parse = JSON decode + schema validation; encode = payload + JSON encode
    schemas.parse_schedule_request = _timed(
        "service.schemas.parse", schemas.parse_schedule_request
    )
    server.ScheduleServer._json = staticmethod(
        _timed("service.schemas.parse", server.ScheduleServer._json)
    )
    schemas.schedule_payload = _timed("service.schemas.encode", schemas.schedule_payload)

    class _TimedJson:
        loads = staticmethod(_json.loads)
        dumps = staticmethod(_timed("service.schemas.encode", _json.dumps))
        JSONDecodeError = _json.JSONDecodeError

    server.json = _TimedJson


def records(spool: Optional[str] = None) -> List[Dict[str, Any]]:
    """This process's record followed by every spooled worker record."""
    out = [REC.dump()]
    if spool is not None:
        for path in sorted(Path(spool).glob("worker-*.json")):
            out.extend(json.loads(line) for line in path.read_text().splitlines())
    return out
