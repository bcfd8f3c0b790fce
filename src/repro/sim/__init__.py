"""Monte-Carlo transmission simulator.

Replays schedules through a fading channel to measure what the paper's
Section V measures: failed transmissions and throughput.  The replay
defaults to the paper's Rayleigh law; every entry point takes a
``channel=`` spec selecting any registered
:class:`~repro.channel.laws.ChannelLaw` (``docs/CHANNELS.md``).

- :mod:`repro.sim.montecarlo` — memory-bounded streaming fading trials
  per schedule,
- :mod:`repro.sim.metrics` — the evaluation metrics,
- :mod:`repro.sim.runner` — batched multi-repetition experiment runner,
- :mod:`repro.sim.parallel` — process-parallel work-unit engine behind
  the runner (deterministic fan-out, ``n_jobs`` control),
- :mod:`repro.sim.resilient` — fault-tolerant executor layered on the
  same work units (timeouts, deterministic-backoff retry, pool
  replacement, serial degradation).
"""

from repro.sim.adaptive import AdaptiveResult, simulate_until
from repro.sim.metrics import SimulationResult, summarize_trials
from repro.sim.montecarlo import simulate_schedule
from repro.sim.parallel import (
    WorkUnit,
    available_cpus,
    checkpoint_key,
    execute_units,
    fan_out,
    parallel_map,
    resolve_n_jobs,
    unit_key,
)
from repro.sim.resilient import (
    RetryPolicy,
    UnitExecutionError,
    UnitFailure,
    backoff_delay,
    resilient_map,
)
from repro.sim.runner import RunResult, SweepPoint, run_schedulers, run_sweep

__all__ = [
    "simulate_schedule",
    "SimulationResult",
    "summarize_trials",
    "run_schedulers",
    "run_sweep",
    "SweepPoint",
    "RunResult",
    "WorkUnit",
    "execute_units",
    "fan_out",
    "parallel_map",
    "resolve_n_jobs",
    "available_cpus",
    "unit_key",
    "checkpoint_key",
    "RetryPolicy",
    "UnitExecutionError",
    "UnitFailure",
    "backoff_delay",
    "resilient_map",
    "simulate_until",
    "AdaptiveResult",
]
