"""Memory-bounded Monte-Carlo replay tests.

Asserts the tentpole guarantees of the streaming simulator: chunked
replays are bit-identical to the legacy dense path for every budget,
and peak allocation during a replay stays under the configured
``max_bytes`` — the full ``(T, K, K)`` tensor is never materialised.
"""

import tracemalloc

import numpy as np

from repro.channel.sampling import instantaneous_sinr, sample_fading_trials
from repro.core.problem import FadingRLS
from repro.core.rle import rle_schedule
from repro.network.topology import paper_topology
from repro.sim.montecarlo import simulate_schedule, simulate_trials


class TestChunkedEqualsUnchunked:
    def test_success_matrix_identical_across_budgets(self, paper_problem):
        s = rle_schedule(paper_problem)
        reference = simulate_trials(paper_problem, s, 300, seed=17)
        for max_bytes in (10_000, 100_000, 10**9):
            chunked = simulate_trials(paper_problem, s, 300, seed=17, max_bytes=max_bytes)
            np.testing.assert_array_equal(chunked, reference)

    def test_matches_legacy_dense_path(self, paper_problem):
        """Under a fading-stream law the streamed replay equals one dense
        (T, K, K) draw + reduce — the seed repository's original
        computation."""
        idx = np.arange(paper_problem.n_links)
        z = sample_fading_trials(
            paper_problem.distances(),
            idx,
            paper_problem.alpha,
            150,
            power=paper_problem.tx_powers(),
            seed=55,
            law="nakagami:m=2",
        )
        legacy = instantaneous_sinr(z, noise=paper_problem.noise) >= paper_problem.gamma_th
        streamed = simulate_trials(
            paper_problem, idx, 150, seed=55, max_bytes=200_000, channel="nakagami:m=2"
        )
        np.testing.assert_array_equal(streamed, legacy)

    def test_summary_identical_across_budgets(self, paper_problem):
        s = rle_schedule(paper_problem)
        a = simulate_schedule(paper_problem, s, n_trials=200, seed=9)
        b = simulate_schedule(paper_problem, s, n_trials=200, seed=9, max_bytes=50_000)
        assert a.mean_failed == b.mean_failed
        assert a.mean_throughput == b.mean_throughput
        np.testing.assert_array_equal(a.per_link_success, b.per_link_success)

    def test_noise_passed_through_chunks(self):
        links = paper_topology(30, seed=2)
        p = FadingRLS(links=links)
        idx = np.arange(30)
        a = simulate_trials(p, idx, 100, noise=1e-6, seed=4)
        b = simulate_trials(p, idx, 100, noise=1e-6, seed=4, max_bytes=80_000)
        np.testing.assert_array_equal(a, b)


class TestMemoryBudget:
    def test_peak_allocation_under_budget(self):
        """K=200, T=5000: the dense tensor would be 1.6 GB; the streamed
        replay must stay under the 32 MiB budget."""
        k, t = 200, 5000
        max_bytes = 32 * 2**20
        p = FadingRLS(links=paper_topology(k, seed=1))
        schedule = np.arange(k)
        # Warm the problem's caches (distances, F) outside the window —
        # they are instance state, not replay working memory.
        p.distances(), p.tx_powers()
        tracemalloc.start()
        try:
            result = simulate_schedule(
                p, schedule, n_trials=t, seed=0, max_bytes=max_bytes
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.n_trials == t
        dense_bytes = 8 * t * k * k
        assert peak <= max_bytes, f"peak {peak} exceeds budget {max_bytes}"
        assert peak < dense_bytes / 10  # nowhere near the dense tensor

    def test_acceptance_scale_never_materialises_dense(self):
        """K=300, T=2000 (the acceptance-criteria point): dense would be
        1.44 GB; peak must stay within the configured budget."""
        k, t = 300, 2000
        max_bytes = 64 * 2**20
        p = FadingRLS(links=paper_topology(k, seed=6))
        p.distances(), p.tx_powers()
        tracemalloc.start()
        try:
            result = simulate_schedule(
                p, np.arange(k), n_trials=t, seed=3, max_bytes=max_bytes
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.n_trials == t
        assert peak <= max_bytes, f"peak {peak} exceeds budget {max_bytes}"
