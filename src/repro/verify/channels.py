"""Channel-law oracles: metamorphic relations and differential checks.

The pluggable channel laws (:mod:`repro.channel.laws`) come with three
paper-derived invariants and two redundant-path comparisons, all run by
the harness over the fuzzer's adversarial scenarios:

- ``shadowing-zero-recovers-rayleigh`` — the Suzuki composite at
  ``sigma_db = 0`` must reproduce the Rayleigh replay **bit for bit**
  (both take the factorised replay, and the law's own sampler draws the
  exact Rayleigh stream; any drift breaks seed-compatibility silently);
- ``nakagami-unit-closed-form`` — Nakagami ``m = 1`` *is* Rayleigh in
  distribution, so its Monte-Carlo success rates must match the
  Thm 3.1 closed form within 5-sigma Monte-Carlo bounds (the gamma
  sampler consumes the stream differently, so this is statistical, not
  bit-level);
- ``nakagami-m-monotonicity`` — for ``m >= 1`` larger ``m`` is milder
  fading, so per-link success probabilities may not *decrease* beyond
  Monte-Carlo slack as ``m`` grows;
- ``channel-vs-rayleigh`` (differential) — the default channel must be
  bit-identical to an explicit ``"rayleigh"`` spec, every registered
  law must be chunk-invariant (streamed chunks concatenate to the
  batched draw), and the deterministic law's empirical success rates
  must equal its 0/1 closed form exactly;
- ``rayleigh-factorised-vs-stream`` (differential) — the factorised
  Rayleigh replay (independent per-link Bernoulli draws at Thm 3.1's
  ``p``) against SINR reduced from the ``(T, K, K)`` exponential
  stream: per-link success rates must agree within a paired 5-sigma
  bound, and on *both* paths the per-trial failure count must have the
  Poisson-binomial variance ``sum p (1 - p)`` — the independence of
  links within a trial that the factorisation rests on.

Reason codes are stable strings (``docs/VERIFICATION.md``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.channel.rayleigh import success_probability
from repro.channel.sampling import (
    instantaneous_sinr,
    iter_fading_trials,
    sample_fading_trials,
)
from repro.sim.montecarlo import simulate_trials
from repro.utils.rng import stable_seed
from repro.verify.differential import register_differential
from repro.verify.fuzz import Scenario, witness_set
from repro.verify.metamorphic import _mismatch, register_relation
from repro.verify.report import Mismatch

#: Reason codes emitted by the channel checks.
CODE_SHADOWING_LIMIT = "shadowing-limit-divergence"
CODE_NAKAGAMI_CLOSED_FORM = "nakagami-closed-form-divergence"
CODE_NAKAGAMI_MONOTONICITY = "nakagami-m-monotonicity-violation"
CODE_CHANNEL_RAYLEIGH = "channel-rayleigh-divergence"
CODE_CHANNEL_CHUNK = "channel-chunk-divergence"
CODE_DETERMINISTIC_CLOSED_FORM = "deterministic-closed-form-divergence"
CODE_FACTORISED_RATE = "factorised-rate-divergence"
CODE_FAILURE_VARIANCE = "failure-count-variance-divergence"

#: Monte-Carlo trials for the statistical relations — matches the
#: analytic-vs-montecarlo check's budget/bound trade-off.
_N_TRIALS = 1500

#: Trials per path of ``rayleigh-factorised-vs-stream``: enough that a
#: ``p -> p**1.2`` distortion (up to ~0.067 at ``p ~ 0.4``) clears the
#: paired 5-sigma bound.
_FACTORISED_TRIALS = 10_000

#: Nakagami shape grid for the monotonicity relation.  Restricted to
#: ``m >= 1``: milder-than-Rayleigh fading is where monotone improvement
#: is a theorem (below 1 the fading is *more* severe and the ordering
#: reverses).
_M_GRID = (2.0, 8.0)


def _witness(p) -> np.ndarray:
    """Sorted witness set: :func:`simulate_trials` returns columns in
    ascending link order (mask-based), so per-link comparisons against
    the closed form must use the same ordering."""
    return np.sort(witness_set(p, cap=12))


def _mc_success_rates(p, active, *, channel, seed) -> np.ndarray:
    """Per-link empirical success rates over the witness set."""
    success = simulate_trials(p, active, _N_TRIALS, seed=seed, channel=channel)
    return success.mean(axis=0)


def _mc_bound(p_hat: np.ndarray, n: int, sigmas: float = 5.0) -> np.ndarray:
    """A ``sigmas``-sigma binomial tolerance with a small-n floor."""
    return sigmas * np.sqrt(p_hat * (1.0 - p_hat) / n) + 3.0 / n


@register_relation("shadowing-zero-recovers-rayleigh")
def relation_shadowing_zero(scenario: Scenario) -> List[Mismatch]:
    """``shadowing:sigma_db=0`` must replay the Rayleigh bits exactly."""
    p = scenario.problem
    active = _witness(p)
    if active.size == 0:
        return []
    seed = stable_seed("shadowing-zero", root=scenario.seed)
    rayleigh = simulate_trials(p, active, 64, seed=seed)
    shadow0 = simulate_trials(p, active, 64, seed=seed, channel="shadowing:sigma_db=0")
    if not np.array_equal(rayleigh, shadow0):
        diff = int(np.count_nonzero(rayleigh != shadow0))
        return [
            _mismatch(
                "shadowing-zero-recovers-rayleigh",
                scenario,
                CODE_SHADOWING_LIMIT,
                f"sigma_db=0 shadowing diverged from Rayleigh in {diff} "
                "success cells (stream contract broken)",
                differing_cells=diff,
            )
        ]
    return []


@register_relation("nakagami-unit-closed-form")
def relation_nakagami_unit(scenario: Scenario) -> List[Mismatch]:
    """Nakagami ``m = 1`` success rates must match Thm 3.1 within MC bounds."""
    p = scenario.problem
    active = _witness(p)
    if active.size == 0:
        return []
    analytic = p.success_probabilities(active)[active]
    empirical = _mc_success_rates(
        p,
        active,
        channel="nakagami:m=1",
        seed=stable_seed("nakagami-unit", root=scenario.seed),
    )
    bound = _mc_bound(analytic, _N_TRIALS)
    bad = np.abs(empirical - analytic) > bound
    if np.any(bad):
        worst = int(np.argmax(np.abs(empirical - analytic) - bound))
        return [
            _mismatch(
                "nakagami-unit-closed-form",
                scenario,
                CODE_NAKAGAMI_CLOSED_FORM,
                f"nakagami m=1 diverged from the Rayleigh closed form on "
                f"{int(bad.sum())}/{active.size} links (worst: link "
                f"{int(active[worst])}, analytic {analytic[worst]:.4f}, "
                f"empirical {empirical[worst]:.4f})",
                n_trials=_N_TRIALS,
                links_out_of_bound=int(bad.sum()),
            )
        ]
    return []


@register_relation("nakagami-m-monotonicity")
def relation_nakagami_monotonicity(scenario: Scenario) -> List[Mismatch]:
    """For ``m >= 1``, raising ``m`` may not lower success probabilities."""
    p = scenario.problem
    active = _witness(p)
    if active.size == 0:
        return []
    out: List[Mismatch] = []
    estimates = {}
    for m in (1.0,) + _M_GRID:
        estimates[m] = _mc_success_rates(
            p,
            active,
            channel=f"nakagami:m={m:g}",
            seed=stable_seed("nakagami-mono", m, root=scenario.seed),
        )
    grid = (1.0,) + _M_GRID
    for lo, hi in zip(grid, grid[1:]):
        p_lo, p_hi = estimates[lo], estimates[hi]
        # Two independent estimates: allow 5-sigma of the *difference*.
        slack = 5.0 * np.sqrt(
            (p_lo * (1 - p_lo) + p_hi * (1 - p_hi)) / _N_TRIALS
        ) + 6.0 / _N_TRIALS
        drop = p_lo - p_hi
        bad = drop > slack
        if np.any(bad):
            worst = int(np.argmax(drop - slack))
            out.append(
                _mismatch(
                    "nakagami-m-monotonicity",
                    scenario,
                    CODE_NAKAGAMI_MONOTONICITY,
                    f"success probability dropped beyond MC slack when m "
                    f"rose {lo:g} -> {hi:g} on {int(bad.sum())}/{active.size} "
                    f"links (worst: link {int(active[worst])}, "
                    f"{p_lo[worst]:.4f} -> {p_hi[worst]:.4f})",
                    m_low=lo,
                    m_high=hi,
                    links_out_of_bound=int(bad.sum()),
                )
            )
    return out


@register_differential("channel-vs-rayleigh")
def check_channel_vs_rayleigh(scenario: Scenario) -> List[Mismatch]:
    """Default-vs-explicit Rayleigh bits, chunk invariance, deterministic form."""
    from repro.channel.laws import CHANNEL_LAWS, get_channel_law

    p = scenario.problem
    active = _witness(p)
    if active.size == 0:
        return []
    out: List[Mismatch] = []
    seed = stable_seed("channel-rayleigh", root=scenario.seed)

    # 1. channel=None and channel="rayleigh" are the same code path's bits.
    default = simulate_trials(p, active, 48, seed=seed)
    explicit = simulate_trials(p, active, 48, seed=seed, channel="rayleigh")
    if not np.array_equal(default, explicit):
        out.append(
            _mismatch(
                "channel-vs-rayleigh",
                scenario,
                CODE_CHANNEL_RAYLEIGH,
                "explicit 'rayleigh' spec diverged from the default channel",
            )
        )

    # 2. Every registered law is chunk-invariant: streamed chunks must
    # concatenate to the batched draw, bit for bit.
    d = p.distances()
    for name in sorted(CHANNEL_LAWS):
        law = get_channel_law(name)
        law_seed = stable_seed("channel-chunk", name, root=scenario.seed)
        batched = sample_fading_trials(
            d, active, p.alpha, 23, power=p.tx_powers(), seed=law_seed, law=law
        )
        streamed = np.concatenate(
            list(
                iter_fading_trials(
                    d,
                    active,
                    p.alpha,
                    23,
                    power=p.tx_powers(),
                    seed=law_seed,
                    chunk_trials=7,
                    law=law,
                )
            )
        )
        if not np.array_equal(batched, streamed):
            out.append(
                _mismatch(
                    "channel-vs-rayleigh",
                    scenario,
                    CODE_CHANNEL_CHUNK,
                    f"law {name!r} is not chunk-invariant: streamed chunks "
                    "diverged from the batched draw",
                    law=name,
                )
            )

    # 3. The deterministic law's empirical rates equal its 0/1 closed
    # form exactly (no randomness to hide behind).
    det = get_channel_law("deterministic")
    rates = simulate_trials(
        p, active, 4, seed=seed, channel="deterministic"
    ).mean(axis=0)
    closed = det.success_probability(p, active)
    if not np.array_equal(rates, closed):
        out.append(
            _mismatch(
                "channel-vs-rayleigh",
                scenario,
                CODE_DETERMINISTIC_CLOSED_FORM,
                "deterministic-law replay disagreed with its closed form",
                empirical=[float(x) for x in rates],
                closed_form=[float(x) for x in closed],
            )
        )
    return out


@register_differential("rayleigh-factorised-vs-stream")
def check_rayleigh_factorised_vs_stream(scenario: Scenario) -> List[Mismatch]:
    """Factorised Rayleigh replay vs the ``(T, K, K)`` exponential stream."""
    p = scenario.problem
    active = np.arange(min(p.n_links, 16))
    if active.size == 0:
        return []
    n = _FACTORISED_TRIALS
    prob = success_probability(
        p.distances(), active, p.alpha, p.gamma_th, noise=p.noise, power=p.tx_powers()
    )
    z = sample_fading_trials(
        p.distances(),
        active,
        p.alpha,
        n,
        power=p.tx_powers(),
        seed=stable_seed("factorised-stream", root=scenario.seed),
        law="rayleigh",
    )
    paths = {
        "factorised": simulate_trials(
            p, active, n, seed=stable_seed("factorised", root=scenario.seed)
        ),
        "stream": instantaneous_sinr(z, noise=p.noise) >= p.gamma_th,
    }
    del z
    out: List[Mismatch] = []

    # 1. Per-link rates: two independent estimates of the same p.
    gap = np.abs(paths["factorised"].mean(axis=0) - paths["stream"].mean(axis=0))
    bound = 5.0 * np.sqrt(2.0 * prob * (1.0 - prob) / n) + 6.0 / n
    bad = gap > bound
    if np.any(bad):
        worst = int(np.argmax(gap - bound))
        out.append(
            _mismatch(
                "rayleigh-factorised-vs-stream",
                scenario,
                CODE_FACTORISED_RATE,
                f"factorised and stream success rates differ beyond the paired "
                f"5-sigma bound on {int(bad.sum())}/{active.size} links (worst: "
                f"link {int(active[worst])}, gap {gap[worst]:.4f} > "
                f"{bound[worst]:.4f}, Thm 3.1 p = {prob[worst]:.4f})",
                n_trials=n,
                links_out_of_bound=int(bad.sum()),
            )
        )

    # 2. Independence: Var(failures per trial) = sum p(1 - p).  The
    # sample variance's standard error uses the Poisson-binomial fourth
    # central moment; 5/n absorbs the discreteness of rare failures.
    pq = prob * (1.0 - prob)
    var = float(pq.sum())
    se = float(np.sqrt((np.sum(pq * (1.0 - 6.0 * pq)) + 2.0 * var**2) / n))
    for path, success in paths.items():
        observed = float((active.size - success.sum(axis=1)).var())
        if abs(observed - var) > 5.0 * se + 5.0 / n:
            out.append(
                _mismatch(
                    "rayleigh-factorised-vs-stream",
                    scenario,
                    CODE_FAILURE_VARIANCE,
                    f"{path} replay: per-trial failure-count variance "
                    f"{observed:.4f} vs sum p(1-p) = {var:.4f} "
                    f"(5-sigma {5.0 * se + 5.0 / n:.4f}) — links are not "
                    "independent within a trial",
                    path=path,
                    observed=observed,
                    expected=var,
                    n_trials=n,
                )
            )
    return out
