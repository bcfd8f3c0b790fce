"""Process-parallel experiment execution.

The figure pipeline is embarrassingly parallel: every
``(sweep point, workload repetition, scheduler)`` cell generates its own
workload, runs one scheduler, and replays the schedule through the
fading channel — no cell reads another's output.  This module fans
those cells out as :class:`WorkUnit`\\ s over a
:class:`~concurrent.futures.ProcessPoolExecutor`.

Determinism
-----------
A unit's randomness is fully determined by its identity: the workload
seed is ``stable_seed("workload", rep, root=root_seed)`` and the fading
seed ``stable_seed("fading", rep, name, root=root_seed)`` — exactly the
derivation the serial runner has always used.  Results are reassembled
in submission order, so ``n_jobs=4`` is **bit-identical** to the serial
``n_jobs=1`` fallback (the tests assert equality, not closeness).

Pickling
--------
Work units cross a process boundary, so the workload factory and the
scheduler callables must be picklable: module-level functions,
``functools.partial`` of them, or dataclass instances like
:class:`repro.experiments.config.TopologyWorkload` — not closures or
lambdas.  The executor no longer probe-pickles anything up front (the
pool already pickles every submission, so an eager probe paid that
serialization twice — see ``benchmarks/test_kernel_micro.py`` for the
measured submit overhead); instead, a pickling failure surfacing from
the pool is diagnosed after the fact and re-raised as the same clear
``ValueError`` the probe used to produce.

Compute backends
----------------
Each :class:`WorkUnit` names the compute backend it executes under
(:mod:`repro.backend.base`); workers install it before running, so
``--backend numba`` survives the process boundary.  Results are
bit-identical across backends (the ``backend-vs-numpy`` differential
check pins it) and across ``n_jobs``.

Observability
-------------
When :mod:`repro.obs` is enabled, each work item runs inside the
worker through :func:`run_observed`: the worker's registries are
reset, the item executes, and its metric snapshot plus drained spans
travel back with the result.  The parent folds the payloads into its
own registry **in submission order** (:func:`fold_observed`) and
re-attaches the spans (tagged with the item index) under its open
span; the resilient executor uses the same two helpers.  Because the
metric instruments only use exact, associative aggregations (see
:mod:`repro.obs.metrics`), the merged snapshot is *byte-identical* to
the serial run's — ``n_jobs`` changes neither the results nor the
metrics.
"""

from __future__ import annotations

import math
import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.experiments.store import UnitCheckpoint
    from repro.sim.resilient import RetryPolicy

from repro.cache.fingerprint import canonical_channel, config_key, describe_callable
from repro.core.powercontrol import run_scheduler_with_power
from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule
from repro.network.links import LinkSet
from repro.obs import metrics as obs_metrics
from repro.obs import state as _obs_state
from repro.obs import trace as _obs_trace
from repro.obs.trace import span
from repro.sim.metrics import SimulationResult
from repro.sim.montecarlo import factorised_replay, simulate_schedule
from repro.utils.rng import stable_seed

T = TypeVar("T")
U = TypeVar("U")


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalise an ``n_jobs`` knob to a concrete worker count.

    ``None`` or ``0`` means "all available CPUs"; positive values are
    taken literally (oversubscription is allowed — useful for testing
    the parallel path on small machines); negatives are rejected.
    """
    if n_jobs is None or n_jobs == 0:
        return available_cpus()
    if n_jobs < 0:
        raise ValueError(f"n_jobs must be >= 0 (0 = all CPUs), got {n_jobs}")
    return int(n_jobs)


@dataclass(frozen=True)
class WorkUnit:
    """One independent cell of an experiment grid.

    Executing a unit regenerates its workload from the derived seed,
    builds the :class:`FadingRLS` instance, runs one scheduler, and
    replays the schedule through the fading channel.  Units carry
    everything they need, so they can run in any process in any order.

    Attributes
    ----------
    tag:
        Opaque grouping key the caller uses to reassemble results
        (e.g. the sweep-point index); never interpreted here.
    rep:
        Workload repetition index (seeds derive from it).
    name:
        Scheduler name (seeds derive from it; becomes the result's
        algorithm label via the schedule).
    scheduler:
        Picklable scheduler callable ``(problem, **kwargs) -> Schedule``.
    workload:
        Picklable factory ``workload(seed) -> LinkSet``.
    """

    tag: Any
    rep: int
    name: str
    scheduler: Callable[..., Schedule]
    workload: Callable[[int], LinkSet]
    n_trials: int
    alpha: float
    gamma_th: float
    eps: float
    root_seed: int
    scheduler_kwargs: Mapping[str, Any] = field(default_factory=dict)
    noise: float = 0.0
    max_bytes: Optional[int] = None
    #: Compute backend the unit executes under (installed in the worker;
    #: not part of the checkpoint key — backends are bit-identical).
    backend: str = "numpy"
    #: Channel-law spec string (``None`` = Rayleigh).  Part of the
    #: checkpoint key — the law changes the sampled trials.
    channel: Optional[str] = None
    #: Named power policy from :data:`repro.core.powercontrol.POWER_POLICIES`.
    #: Part of the checkpoint key — re-powering changes the results.
    power_policy: str = "uniform"


def unit_key(unit: WorkUnit) -> str:
    """Human-readable stable identity of a unit: ``tag/rep/name``.

    This is the address fault plans and backoff derivation use; it
    stays stable across runs, processes, and retries because it is
    built purely from the unit's grid coordinates.
    """
    return f"{unit.tag}/{unit.rep}/{unit.name}"


# The stable callable/channel canonicalisers grew into the shared
# repro.cache.fingerprint module (the schedule cache keys build on
# them); the historical underscore names stay importable and the key
# bytes are pinned unchanged by tests/test_cache_fingerprint.py.
_describe_callable = describe_callable
_canonical_channel = canonical_channel


def checkpoint_key(unit: WorkUnit) -> str:
    """Content hash of everything that determines a unit's result.

    Any change to the unit's workload, scheduler, channel parameters or
    seeds produces a different key, so a checkpoint directory can never
    serve a stale result to a reconfigured sweep.
    """
    params = {
        "tag": repr(unit.tag),
        "rep": unit.rep,
        "name": unit.name,
        "scheduler": _describe_callable(unit.scheduler),
        "workload": _describe_callable(unit.workload),
        "n_trials": unit.n_trials,
        "alpha": unit.alpha,
        "gamma_th": unit.gamma_th,
        "eps": unit.eps,
        "noise": unit.noise,
        "root_seed": unit.root_seed,
        "scheduler_kwargs": sorted(
            (k, repr(v)) for k, v in dict(unit.scheduler_kwargs).items()
        ),
        # Canonical law spec, so "shadowing:sigma_db=6" and its
        # fully-spelled form hash the same; None normalises to the
        # Rayleigh default.
        "channel": _canonical_channel(unit.channel),
        "power_policy": unit.power_policy,
    }
    if factorised_replay(unit.channel):
        # Checkpoints written before the factorised replay hold
        # fading-stream results for these laws; the marker keeps them
        # from being served.  Stream-law keys are unchanged.
        params["replay"] = "factorised"
    return config_key("workunit", params)


def valid_simulation_result(value: Any) -> bool:
    """Poison detector for unit results: right type, finite summaries."""
    if not isinstance(value, SimulationResult):
        return False
    summaries = (
        value.mean_failed,
        value.failed_stderr,
        value.mean_throughput,
        value.throughput_stderr,
        value.scheduled_rate,
    )
    return all(math.isfinite(float(x)) for x in summaries) and value.n_scheduled >= 0


def execute_unit(unit: WorkUnit) -> SimulationResult:
    """Run one :class:`WorkUnit` — the per-process worker function."""
    from repro.backend import base as backend_base

    with backend_base.use(unit.backend), span(
        "parallel.unit", rep=unit.rep, algorithm=unit.name
    ):
        links = unit.workload(stable_seed("workload", unit.rep, root=unit.root_seed))
        problem = FadingRLS(
            links=links,
            alpha=unit.alpha,
            gamma_th=unit.gamma_th,
            eps=unit.eps,
            noise=unit.noise,
        )
        with span("scheduler.run", algorithm=unit.name):
            schedule, powered = run_scheduler_with_power(
                problem, unit.scheduler, unit.power_policy, dict(unit.scheduler_kwargs)
            )
        obs_metrics.inc("scheduler.links_admitted", schedule.size)
        return simulate_schedule(
            powered,
            schedule,
            n_trials=unit.n_trials,
            seed=stable_seed("fading", unit.rep, unit.name, root=unit.root_seed),
            max_bytes=unit.max_bytes,
            channel=unit.channel,
        )


def _looks_like_pickling_error(exc: BaseException) -> bool:
    """Is this pool-surfaced exception a serialization failure?

    Submit-side (and result-side) pickling failures arrive as
    ``PicklingError``, or as ``AttributeError``/``TypeError`` whose
    message names pickling (``"Can't pickle local object ..."``,
    ``"cannot pickle '...' object"``).
    """
    if isinstance(exc, pickle.PicklingError):
        return True
    return isinstance(exc, (AttributeError, TypeError)) and "pickle" in str(exc).lower()


def _raise_pickling_diagnosis(
    func: Callable[..., Any], items: Sequence[Any], exc: BaseException
) -> None:
    """Turn a pool pickling failure into the historical readable error.

    Runs only on the failure path, so the happy path pickles each
    submission exactly once (in the pool) — the old eager probe paid
    that cost twice before any work started.  Pinpoints the offender by
    probing ``func`` first, then each item.
    """
    try:
        pickle.dumps(func)
    except Exception as func_exc:
        raise ValueError(
            f"func must be picklable for n_jobs > 1 (module-level function "
            f"or functools.partial of one): {func_exc}"
        ) from exc
    for i, item in enumerate(items):
        try:
            pickle.dumps(item)
        except Exception as item_exc:
            raise ValueError(
                "work units must be picklable for n_jobs > 1: define workload "
                "factories and schedulers at module level (e.g. "
                "repro.experiments.config.TopologyWorkload) instead of "
                f"closures or lambdas (item {i}: {item_exc})"
            ) from exc
    # Everything probes clean (e.g. an unpicklable *result*); still a
    # serialization problem, so keep the readable framing.
    raise ValueError(
        f"serialization across the process pool failed for n_jobs > 1: {exc}"
    ) from exc


def run_observed(func: Callable[[Any], Any], item: Any) -> Tuple[Any, Any, Any]:
    """Worker side of observed execution: run ``func(item)`` in isolation.

    Enables observability (workers spawned fresh start disabled),
    resets both registries, runs the item, then returns the result
    together with the item's metric snapshot and span records.
    ``partial(run_observed, func)`` is picklable whenever ``func`` is.
    """
    _obs_state.enable()
    obs_metrics.reset()
    _obs_trace.reset()
    result = func(item)
    return result, obs_metrics.snapshot(), _obs_trace.drain_spans()


def fold_observed(payloads: Iterable[Optional[Tuple[Any, Any]]]) -> None:
    """Parent side: fold worker ``(snapshot, spans)`` payloads in order.

    ``payloads`` is in submission order (``None`` for an item that ran
    in the parent, whose metrics already landed in the live registry).
    Folding in that order makes the merged snapshot byte-identical to
    the serial run's.
    """
    for i, payload in enumerate(payloads):
        if payload is None:
            continue
        snap, spans = payload
        obs_metrics.merge_into_registry(snap)
        _obs_trace.absorb_spans(spans, proc=i)


def parallel_map(
    func: Callable[[T], U],
    items: Sequence[T],
    *,
    n_jobs: Optional[int] = 1,
    chunksize: int = 1,
) -> List[U]:
    """Order-preserving map over a process pool (serial when possible).

    The generic primitive under :func:`execute_units` and the ablation /
    trade-off drivers: ``n_jobs=1`` (or a single item) runs a plain loop
    in-process — no pool, no pickling, bit-identical to the historical
    serial code path.  ``func`` and every item must be picklable for
    ``n_jobs > 1``.

    With observability enabled, worker metrics and spans are collected
    per item and folded back in submission order (see the module
    docstring); the returned values are identical either way.
    """
    jobs = resolve_n_jobs(n_jobs)
    items = list(items)
    obs_metrics.inc("parallel.items_mapped", len(items))
    if jobs == 1 or len(items) <= 1:
        with span("parallel.map", items=len(items), jobs=1):
            return [func(item) for item in items]
    workers = min(jobs, len(items))
    with span("parallel.map", items=len(items), jobs=workers):
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                if not _obs_state.enabled:
                    return list(pool.map(func, items, chunksize=max(1, chunksize)))
                wrapped = list(
                    pool.map(
                        partial(run_observed, func), items, chunksize=max(1, chunksize)
                    )
                )
        except Exception as exc:
            if _looks_like_pickling_error(exc):
                _raise_pickling_diagnosis(func, items, exc)
            raise
        fold_observed((snap, spans) for _, snap, spans in wrapped)
        return [result for result, _, _ in wrapped]


def _warn_unavailable_backend(units: Sequence[WorkUnit]) -> None:
    """Warn once when the units' backend falls back to numpy here.

    Each worker installs the unit's backend itself; resolving it in the
    parent first surfaces the fallback reason once per call instead of
    once per unit.
    """
    if not units:
        return
    from repro.backend import base as backend_base

    _, reason = backend_base.resolve(units[0].backend)
    if reason is not None:
        warnings.warn(reason, RuntimeWarning, stacklevel=3)


def execute_units(
    units: Sequence[WorkUnit],
    *,
    n_jobs: Optional[int] = 1,
    policy: Optional["RetryPolicy"] = None,
    checkpoint: Optional["UnitCheckpoint"] = None,
) -> List[SimulationResult]:
    """Execute work units, preserving input order.

    ``n_jobs=1`` is the serial fallback (same process, same iteration
    order as the historical runner); ``n_jobs=0``/``None`` uses all
    CPUs.  Results land at the same index as their unit regardless of
    completion order, so aggregation downstream is order-stable.

    With a ``policy``, execution routes through the fault-tolerant
    executor (:func:`repro.sim.resilient.resilient_map`): per-unit
    timeout, bounded deterministic-backoff retry, dead-worker pool
    replacement, and serial degradation — results stay bit-identical
    because retried units re-derive the same identity seeds.  With a
    ``checkpoint``, each unit's result persists on first success and
    already-checkpointed units are served from disk, so an interrupted
    sweep resumes from its completed cells.
    """
    if policy is None and checkpoint is None:
        _warn_unavailable_backend(units)
        return parallel_map(execute_unit, units, n_jobs=n_jobs)
    from repro.sim.resilient import RetryPolicy, resilient_map

    units = list(units)
    keys = [unit_key(u) for u in units]
    results: List[Optional[SimulationResult]] = [None] * len(units)
    pending = list(range(len(units)))
    ck_keys: List[str] = []
    if checkpoint is not None:
        ck_keys = [checkpoint_key(u) for u in units]
        pending = []
        for i, ck in enumerate(ck_keys):
            cached = checkpoint.get(ck)
            if cached is not None:
                results[i] = cached
                obs_metrics.inc("resilience.units_from_checkpoint")
            else:
                pending.append(i)
    if pending:

        def _persist(sub_idx: int, value: SimulationResult) -> None:
            if checkpoint is not None:
                checkpoint.put(ck_keys[pending[sub_idx]], value)

        pending_units = [units[i] for i in pending]
        _warn_unavailable_backend(pending_units)
        computed = resilient_map(
            execute_unit,
            pending_units,
            keys=[keys[i] for i in pending],
            n_jobs=n_jobs,
            policy=policy or RetryPolicy(),
            validate=valid_simulation_result,
            on_result=_persist,
        )
        for i, value in zip(pending, computed):
            results[i] = value
    return results  # type: ignore[return-value]


def fan_out(
    func: Callable[[T], U],
    items: Sequence[T],
    *,
    n_jobs: Optional[int] = 1,
    policy: Optional["RetryPolicy"] = None,
    key_prefix: str = "item",
) -> List[U]:
    """Route a generic map through the plain or resilient executor.

    The ablation and trade-off drivers use this so one ``policy`` knob
    upgrades their repetition fan-out to fault-tolerant execution; with
    ``policy=None`` it is exactly :func:`parallel_map`.
    """
    items = list(items)
    if policy is None:
        return parallel_map(func, items, n_jobs=n_jobs)
    from repro.sim.resilient import resilient_map

    return resilient_map(
        func,
        items,
        keys=[f"{key_prefix}/{i}" for i in range(len(items))],
        n_jobs=n_jobs,
        policy=policy,
    )


def build_units(
    schedulers: Mapping[str, Callable[..., Schedule]],
    workload: Callable[[int], LinkSet],
    *,
    tag: Any = None,
    n_repetitions: int,
    n_trials: int,
    alpha: float,
    gamma_th: float,
    eps: float,
    root_seed: int,
    scheduler_kwargs: Optional[Mapping[str, dict]] = None,
    noise: float = 0.0,
    max_bytes: Optional[int] = None,
    backend: str = "numpy",
    channel: Optional[str] = None,
    power_policy: str = "uniform",
) -> List[WorkUnit]:
    """The ``rep x scheduler`` unit grid for one sweep point.

    Rep-major, scheduler-minor — the same nesting as the serial loops,
    so zipping results back by index reproduces the historical
    aggregation order exactly.
    """
    kwargs_map = dict(scheduler_kwargs or {})
    return [
        WorkUnit(
            tag=tag,
            rep=rep,
            name=name,
            scheduler=scheduler,
            workload=workload,
            n_trials=n_trials,
            alpha=alpha,
            gamma_th=gamma_th,
            eps=eps,
            root_seed=root_seed,
            scheduler_kwargs=kwargs_map.get(name, {}),
            noise=noise,
            max_bytes=max_bytes,
            backend=backend,
            channel=channel,
            power_policy=power_policy,
        )
        for rep in range(n_repetitions)
        for name, scheduler in schedulers.items()
    ]
