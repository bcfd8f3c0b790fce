"""Batched and streaming Monte-Carlo fading draws.

The simulator (:func:`repro.sim.montecarlo.simulate_trials`) replays a
schedule through one of two RNG streams, picked by the channel law:

- **the uniform stream** — Rayleigh (``channel=None``) and
  ``shadowing:sigma_db=0``.  Link ``j``'s success in a trial reads only
  column ``j`` of the fading matrix, and the columns are disjoint sets
  of independent draws, so the links of one trial succeed
  independently, each with Thm 3.1's probability ``p_j`` (the product
  form).  The replay therefore draws one ``(T, K)`` block of
  ``Generator.random`` uniforms, C order (trial-major, then link), and
  sets ``success[t, j] = U[t, j] < p_j``;
- **the fading stream** — every other law (Nakagami at any ``m``,
  shadowing with ``sigma_db > 0``, deterministic).  The replay draws
  ``(T, K, K)`` instantaneous power matrices and reduces them to SINR.

This module holds the fading stream's samplers and the byte budgets of
both streams.  Sampling the ``(K, K)`` sub-matrix ``T`` times in one
draw keeps the hot path inside NumPy — but the dense ``(T, K, K)``
tensor is ~20 GB at paper-grade settings (``K = 500``,
``T = 10_000``).  :func:`iter_fading_trials` therefore streams the same
draw in trial chunks under a byte budget; consumers reduce each chunk
(SINR, success counts) and discard it.

RNG stream layout
-----------------
Both streams are consumed element-wise in C order along the trial axis,
so drawing ``t1`` trials and then ``t2`` trials from one generator
concatenates to the identical values as one ``t1 + t2`` draw — same
seed, same successes, any chunk size.  The layouts are a public
contract: an alternative sampler that reordered either stream would
silently break seed-compatibility with recorded results.

In the fading stream each law fills the ``(T, K, K)`` index space
trial-major, then sender ``a``, then receiver ``b``.  Rayleigh's
diagonal own-signal variates ``Z[t, a, a]`` are *interleaved* members
of its one exponential stream (drawn in their natural position, not in
a separate pass), and the deterministic mean scaling ``Z *= means``
happens **after** the draw, so it consumes no random numbers.  Every
registered :class:`~repro.channel.laws.ChannelLaw` samples through its
own ``sample_chunk`` — see :mod:`repro.channel.laws` for how each one
lays out its stream(s).  ``law=None`` is the Rayleigh law.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Tuple, Union

import numpy as np

from repro.channel.pathloss import pathloss_matrix
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.rng import SeedLike, as_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (laws uses fading_means)
    from repro.channel.laws import ChannelLaw

LawLike = Union[None, str, "ChannelLaw"]

#: Default byte budget for one streamed chunk of trials (see
#: :func:`trial_chunk_size` and :func:`uniform_chunk_size`).  A cap on
#: transient memory, not a cache fit — 128 MiB is far larger than any
#: CPU cache.  It holds a paper-scale replay (``T = 500``, ``K <= 500``)
#: of the uniform stream in one chunk, and bounds the fading stream's
#: ``(t_c, K, K)`` chunks at large ``K``.
DEFAULT_MAX_BYTES: int = 128 * 2**20


def _resolve_active(distances: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Normalise ``active`` (mask or indices) to a sorted index array."""
    d = np.asarray(distances, dtype=float)
    n = d.shape[0]
    a = np.asarray(active)
    if a.dtype == bool:
        idx = np.flatnonzero(a)
    else:
        idx = np.unique(a.astype(np.int64).reshape(-1))
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError("active indices out of range")
    return idx


def fading_means(
    distances: np.ndarray,
    active: np.ndarray,
    alpha: float,
    *,
    power: float | np.ndarray = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Active index array and the ``(K, K)`` mean received-power matrix.

    ``means[a, b] = P_a * d(s_a, r_b)^-alpha`` over the sorted active
    set — the Rayleigh fading draw is ``Exp(1)`` variates scaled by this
    matrix.  Shared by the batched and streaming samplers so both agree
    on the deterministic part of the draw.
    """
    d = np.asarray(distances, dtype=float)
    n = d.shape[0]
    idx = _resolve_active(d, active)
    p = np.asarray(power, dtype=float)
    if p.ndim == 0:
        means = pathloss_matrix(d[np.ix_(idx, idx)], alpha, float(p))
    else:
        if p.shape != (n,):
            raise ValueError(f"power must be scalar or shape ({n},), got {p.shape}")
        if np.any(p <= 0):
            raise ValueError("power must be positive")
        means = pathloss_matrix(d[np.ix_(idx, idx)], alpha) * p[idx, None]
    return idx, means


def _resolve_law(law: LawLike) -> "ChannelLaw":
    """Resolve ``law`` (``None`` = Rayleigh) to a channel-law instance.

    Imported lazily: :mod:`repro.channel.laws` itself imports
    :func:`fading_means` from this module.
    """
    from repro.channel.laws import get_channel_law

    return get_channel_law(law)


def _budget(max_bytes: int | None) -> int:
    budget = DEFAULT_MAX_BYTES if max_bytes is None else int(max_bytes)
    if budget <= 0:
        raise ValueError(f"max_bytes must be positive, got {max_bytes}")
    return budget


def trial_chunk_size(k: int, max_bytes: int | None) -> int:
    """Trials per streamed fading chunk under a byte budget.

    Half the budget is reserved for the ``(chunk, K, K)`` float64 draw
    itself; the other half covers the reduction temporaries (per-trial
    row sums, SINR, success masks) so the *total* transient footprint of
    one chunk stays within ``max_bytes``.  Always at least 1 — a single
    trial matrix larger than the budget is drawn anyway (there is no
    smaller unit of work).
    """
    per_trial = 8 * max(k, 1) * max(k, 1)
    return max(1, (_budget(max_bytes) // 2) // per_trial)


def uniform_chunk_size(k: int, max_bytes: int | None) -> int:
    """Trials per chunk of the uniform stream under a byte budget.

    One trial is ``K`` float64 uniforms (``8 K`` bytes); the success
    slab they are compared into is part of the replay's result, not a
    temporary.  Always at least 1.
    """
    return max(1, _budget(max_bytes) // (8 * max(k, 1)))


def iter_fading_trials(
    distances: np.ndarray,
    active: np.ndarray,
    alpha: float,
    n_trials: int,
    *,
    power: float | np.ndarray = 1.0,
    seed: SeedLike = None,
    max_bytes: int | None = None,
    chunk_trials: int | None = None,
    law: LawLike = None,
) -> Iterator[np.ndarray]:
    """Stream fading trials in chunks along the trial axis.

    Yields ``(t_c, K, K)`` arrays whose concatenation is *bit-identical*
    to ``sample_fading_trials(...)`` with the same seed (see the module
    docstring's RNG stream layout) — the chunk boundaries are invisible
    to the statistics.  Peak memory is one chunk, sized by
    :func:`trial_chunk_size` from ``max_bytes`` (default
    :data:`DEFAULT_MAX_BYTES`) unless ``chunk_trials`` pins it
    explicitly.

    Parameters match :func:`sample_fading_trials` plus:

    max_bytes:
        Approximate byte budget for one chunk *including* reduction
        temporaries; ``None`` uses :data:`DEFAULT_MAX_BYTES`.
    chunk_trials:
        Explicit trials-per-chunk override (``>= 1``); wins over
        ``max_bytes``.
    law:
        Channel law (spec string or :class:`~repro.channel.laws.ChannelLaw`)
        supplying the random factor; ``None`` is Rayleigh.  Every
        registered law honours the same chunk-invariant stream contract.
    """
    if n_trials < 0:
        raise ValueError("n_trials must be >= 0")
    resolved = _resolve_law(law)
    idx, means = fading_means(distances, active, alpha, power=power)
    k = idx.size
    if k == 0 or n_trials == 0:
        yield np.zeros((n_trials, k, k), dtype=float)
        return
    if chunk_trials is None:
        chunk_trials = trial_chunk_size(k, max_bytes)
    elif chunk_trials < 1:
        raise ValueError(f"chunk_trials must be >= 1, got {chunk_trials}")
    state = resolved.start_stream(as_rng(seed), means)
    done = 0
    while done < n_trials:
        t_c = min(chunk_trials, n_trials - done)
        with span("channel.sample", law=resolved.name, trials=t_c):
            z = resolved.sample_chunk(state, means, t_c)
        obs_metrics.inc("mc.chunks_sampled")
        yield z
        # Drop our reference before drawing the next chunk so only one
        # chunk is ever alive (the consumer must do the same — see
        # simulate_trials); otherwise peak memory doubles.
        del z
        done += t_c


def sample_fading_trials(
    distances: np.ndarray,
    active: np.ndarray,
    alpha: float,
    n_trials: int,
    *,
    power: float | np.ndarray = 1.0,
    seed: SeedLike = None,
    law: LawLike = None,
) -> np.ndarray:
    """Sample instantaneous power matrices for an active set.

    Materialises the full ``(T, K, K)`` tensor — convenient for small
    replays and tests; the simulator's hot path streams the same values
    through :func:`iter_fading_trials` instead.  ``law`` selects the
    channel law (``None`` = Rayleigh); for every registered law the
    result is bit-identical to concatenating the streamed chunks.  (The
    simulator replays Rayleigh through the uniform stream instead — see
    the module docstring — so this is the reference it is checked
    against, not its input.)

    Parameters
    ----------
    distances : (N, N) array
        Full sender-to-receiver distance matrix.
    active:
        Bool mask ``(N,)`` or index array selecting the transmitting set.
    alpha:
        Path loss exponent.
    power:
        Uniform transmit power, or an ``(N,)`` per-sender power array
        (row ``a`` of each trial matrix scales with sender ``a``'s power).
    n_trials:
        Number of independent fading realisations ``T``.

    Returns
    -------
    (T, K, K) array ``Z`` with ``Z[t, a, b]`` the instantaneous power
    receiver ``b`` sees from sender ``a`` in trial ``t`` (indices within
    the sorted active set).
    """
    if n_trials < 0:
        raise ValueError("n_trials must be >= 0")
    resolved = _resolve_law(law)
    idx, means = fading_means(distances, active, alpha, power=power)
    k = idx.size
    if k == 0 or n_trials == 0:
        return np.zeros((n_trials, k, k), dtype=float)
    state = resolved.start_stream(as_rng(seed), means)
    return resolved.sample_chunk(state, means, n_trials)


def instantaneous_sinr(z: np.ndarray, *, noise: float = 0.0) -> np.ndarray:
    """SINR per receiver from sampled power matrices.

    Parameters
    ----------
    z : (T, K, K) array
        Output of :func:`sample_fading_trials` (or one chunk of
        :func:`iter_fading_trials`).
    noise:
        Ambient noise ``N0`` added to the interference sum (the paper's
        analysis sets it to 0; the simulator keeps it optional).

    Returns
    -------
    (T, K) array of instantaneous SINRs; a lone transmitter with zero
    noise has SINR ``inf``.

    Notes
    -----
    Only the column sums of ``z`` (total power per receiver) and its
    diagonal (own signal) are used — the reduction never copies the
    ``(T, K, K)`` input, so streaming one chunk at a time keeps peak
    memory at a single chunk.
    """
    zz = np.asarray(z, dtype=float)
    if zz.ndim != 3 or zz.shape[1] != zz.shape[2]:
        raise ValueError(f"z must have shape (T, K, K), got {zz.shape}")
    signal = np.diagonal(zz, axis1=1, axis2=2)
    interference = zz.sum(axis=1) - signal
    denom = interference + noise
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = np.where(denom > 0, signal / denom, np.inf)
    return sinr
