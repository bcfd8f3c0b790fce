"""Monte-Carlo replay of a schedule through a fading channel.

For a schedule (a set of simultaneously transmitting links) we draw
``n_trials`` independent fading realisations and record every active
link's per-trial success.  This is the experiment behind both paper
metrics:

- **failed transmissions** (Fig. 5): scheduled links whose SINR fell
  below ``gamma_th`` in a trial;
- **throughput** (Fig. 6): total rate of the links that succeeded.

:func:`simulate_trials` routes each replay to one of two streams (see
:mod:`repro.channel.sampling` for their RNG layouts):

- **Factorised (uniform stream)** — Rayleigh (``channel=None``) and
  ``shadowing:sigma_db=0``, the laws :func:`factorised_replay` accepts.
  Link ``j``'s SINR reads only column ``j`` of the fading matrix, and
  different columns are disjoint sets of independent exponential
  draws, so within one trial the links succeed *independently*, each
  with Thm 3.1's probability ``p_j`` (the product form; Halldórsson &
  Tonoyan factorise Rayleigh success the same way).  The replay
  computes ``p`` once with
  :func:`~repro.channel.rayleigh.success_probability` and fills the
  ``(T, K)`` success slab with ``U < p`` from ``T x K`` uniforms — K
  draws per trial instead of K².
- **Streamed (fading stream)** — every other law (Nakagami at any
  ``m``, including ``m = 1``; shadowing with ``sigma_db > 0``;
  deterministic).  Trials stream through
  :func:`~repro.channel.sampling.iter_fading_trials` in ``(t_c, K, K)``
  chunks, and each chunk is immediately reduced to its ``(t_c, K)``
  success slab by the active backend — the full power tensor (~20 GB
  at ``K = 500``, ``T = 10_000``) is never materialised.

Both streams draw in trial chunks under one ``max_bytes`` budget and
are consumed in C order along the trial axis, so results are
bit-identical for every chunk size.  The success reduction's output
convention, the streaming budget and the seeding are shared by both.
"""

from __future__ import annotations

import numpy as np

from repro.backend import base as backend_base
from repro.backend.kernels import MCScratch
from repro.channel.laws import RayleighLaw, ShadowingLaw, get_channel_law
from repro.channel.rayleigh import success_probability
from repro.channel.sampling import LawLike, iter_fading_trials, uniform_chunk_size
from repro.core.problem import FadingRLS
from repro.core.schedule import Schedule
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.sim.metrics import SimulationResult, summarize_trials
from repro.utils.rng import SeedLike, as_rng


# One process-level scratch serves consecutive replays, so a worker
# executing many units materialises its reduction buffers once (they
# re-grow only when a larger chunk/active-set shape arrives).  Borrowing
# guards against reentrancy: a nested replay gets a private scratch.
_SCRATCH: MCScratch | None = MCScratch()


def _borrow_scratch() -> MCScratch:
    global _SCRATCH
    scratch = _SCRATCH
    if scratch is None:
        return MCScratch()
    _SCRATCH = None
    return scratch


def _return_scratch(scratch: MCScratch) -> None:
    global _SCRATCH
    if _SCRATCH is None:
        _SCRATCH = scratch


def factorised_replay(channel: LawLike) -> bool:
    """Does ``channel`` replay through the factorised uniform stream?

    True exactly for the laws whose fading draw is the plain exponential
    stream: Rayleigh (``None`` / ``"rayleigh"``) and shadowing at
    ``sigma_db = 0``.  Checkpoint keys (:func:`repro.sim.parallel.checkpoint_key`)
    read it too, so results of the two replays never mix.
    """
    law = get_channel_law(channel)
    if type(law) is ShadowingLaw:
        return law.sigma_db == 0.0
    return type(law) is RayleighLaw


def _replay_factorised(
    problem: FadingRLS,
    idx: np.ndarray,
    n0: float,
    seed: SeedLike,
    max_bytes: int | None,
    out: np.ndarray,
) -> None:
    """Fill ``out[t, j] = U[t, j] < p_j`` with Thm 3.1's ``p``."""
    n_trials, k = out.shape
    if k == 0 or n_trials == 0:
        return
    # From distances, not the problem's cached F: ``n0`` may override the
    # problem's noise, and analytic-vs-montecarlo checks F against this.
    p = success_probability(
        problem.distances(),
        idx,
        problem.alpha,
        problem.gamma_th,
        noise=n0,
        power=problem.tx_powers(),
    )
    rng = as_rng(seed)
    chunk = uniform_chunk_size(k, max_bytes)
    for done in range(0, n_trials, chunk):
        t_c = min(chunk, n_trials - done)
        np.less(rng.random((t_c, k)), p, out=out[done : done + t_c])


def _replay_streamed(
    problem: FadingRLS,
    idx: np.ndarray,
    n0: float,
    seed: SeedLike,
    max_bytes: int | None,
    channel: LawLike,
    out: np.ndarray,
) -> None:
    """Reduce streamed ``(t_c, K, K)`` fading chunks into ``out``."""
    n_trials = out.shape[0]
    done = 0
    backend = backend_base.get_active()
    scratch = _borrow_scratch()
    try:
        for z in iter_fading_trials(
            problem.distances(),
            idx,
            problem.alpha,
            n_trials,
            power=problem.tx_powers(),
            seed=seed,
            max_bytes=max_bytes,
            law=channel,
        ):
            t_c = z.shape[0]
            # The backend kernel reduces the chunk through the reusable
            # scratch buffers and writes the success slab in place —
            # bit-identical to ``instantaneous_sinr(z) >= gamma_th``.
            backend.mc_success_chunk(
                z,
                problem.gamma_th,
                n0,
                out=out[done : done + t_c],
                scratch=scratch,
            )
            # Release the chunk before the generator draws the next one —
            # holding it through the loop head would double peak memory.
            del z
            done += t_c
    finally:
        _return_scratch(scratch)


def simulate_trials(
    problem: FadingRLS,
    schedule: Schedule | np.ndarray,
    n_trials: int,
    *,
    noise: float | None = None,
    seed: SeedLike = None,
    max_bytes: int | None = None,
    channel: LawLike = None,
) -> np.ndarray:
    """Boolean success matrix over fading trials.

    Parameters
    ----------
    problem:
        The instance (supplies geometry and channel parameters,
        including per-link transmit powers when set).
    schedule:
        A :class:`Schedule` or plain index array of active links.
    n_trials:
        Number of independent fading realisations.
    noise:
        Ambient noise ``N0``; defaults to the problem's own ``noise``
        (0 in the paper's setting, Eq. 8).
    seed:
        RNG seed.
    max_bytes:
        Byte budget for one chunk of either stream (default
        :data:`~repro.channel.sampling.DEFAULT_MAX_BYTES`).  Only the
        ``(T, K)`` success matrix is held for the full run; peak extra
        memory is one chunk.  The result is the same for every budget.
    channel:
        Channel-law spec (string or
        :class:`~repro.channel.laws.ChannelLaw`); ``None`` is the
        paper's Rayleigh channel.  :func:`factorised_replay` decides
        which stream replays it (see the module docstring).

    Returns
    -------
    (T, K) bool array
        ``out[t, a]`` — did active link ``a`` (sorted order) decode in
        trial ``t``?
    """
    active = schedule.active if isinstance(schedule, Schedule) else np.asarray(schedule)
    mask = problem.active_mask(active)
    idx = np.flatnonzero(mask)
    n0 = problem.noise if noise is None else noise
    if n_trials < 0:
        raise ValueError("n_trials must be >= 0")
    success = np.empty((n_trials, idx.size), dtype=bool)
    factorised = factorised_replay(channel)
    with span(
        "mc.replay",
        trials=n_trials,
        k=int(idx.size),
        stream="uniform" if factorised else "fading",
    ):
        if factorised:
            _replay_factorised(problem, idx, n0, seed, max_bytes, success)
        else:
            _replay_streamed(problem, idx, n0, seed, max_bytes, channel, success)
    obs_metrics.inc("mc.trials_simulated", n_trials)
    return success


def simulate_slot(
    problem: FadingRLS,
    active: Schedule | np.ndarray,
    *,
    noise: float | None = None,
    seed: SeedLike = None,
    channel: LawLike = None,
) -> np.ndarray:
    """One fading realisation: per-link success of a single slot.

    The slotted queue simulator (:mod:`repro.workload.queues`) calls
    this once per time slot with an identity-derived seed, so each
    slot's channel draw is a pure function of ``(problem, active,
    seed, channel)`` — independent of backend, process and call order.
    Returns a ``(K,)`` bool array over the active links in *sorted
    index order* (the same convention as :func:`simulate_trials`).
    """
    success = simulate_trials(problem, active, 1, noise=noise, seed=seed, channel=channel)
    return success[0]


def simulate_schedule(
    problem: FadingRLS,
    schedule: Schedule | np.ndarray,
    *,
    n_trials: int = 1000,
    noise: float | None = None,
    seed: SeedLike = None,
    max_bytes: int | None = None,
    channel: LawLike = None,
) -> SimulationResult:
    """Replay a schedule and summarise the paper's metrics.

    Returns a :class:`~repro.sim.metrics.SimulationResult` with mean
    failed-transmission counts, throughput, and per-link empirical
    success rates.  The analytic cross-check
    (:meth:`FadingRLS.success_probabilities`) should match the empirical
    rates within Monte-Carlo error — the integration tests assert it.
    That cross-check is Rayleigh-specific (and the Rayleigh replay draws
    its successes from those very probabilities, see
    :func:`factorised_replay`): under a non-Rayleigh
    ``channel`` the empirical rates estimate that law's success
    probabilities instead (closed forms, where they exist, live on the
    law — see :meth:`~repro.channel.laws.ChannelLaw.success_probability`).
    ``max_bytes`` bounds the replay's peak memory (see
    :func:`simulate_trials`); the summary is identical for every budget.
    """
    active = schedule.active if isinstance(schedule, Schedule) else np.asarray(schedule)
    mask = problem.active_mask(active)
    idx = np.flatnonzero(mask)
    success = simulate_trials(
        problem, idx, n_trials, noise=noise, seed=seed, max_bytes=max_bytes,
        channel=channel,
    )
    rates = problem.links.rates[idx]
    algorithm = schedule.algorithm if isinstance(schedule, Schedule) else "raw"
    return summarize_trials(success, rates, active_indices=idx, algorithm=algorithm)
