"""Queue-level behaviour of the slotted queue simulator.

Network-scale checks of :func:`repro.workload.queues.simulate_workload`
(the unit contracts live in ``tests/test_workload_queues.py``): load
regimes, wasted attempts under fading, per-link traffic, and the
offered-load sweep of :func:`repro.workload.analyzers.sweep_rates`.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.baselines.naive import greedy_fading_schedule
from repro.core.problem import FadingRLS
from repro.core.rle import rle_schedule
from repro.network.topology import paper_topology
from repro.utils.rng import as_rng
from repro.workload.analyzers import sweep_rates
from repro.workload.generators import ArrivalProcess, PoissonArrivals
from repro.workload.queues import WorkloadResult, simulate_workload


@pytest.fixture(scope="module")
def queue_problem():
    return FadingRLS(links=paper_topology(60, seed=0))


def run(problem, scheduler, rate, n_slots, seed):
    return simulate_workload(
        problem, PoissonArrivals(rate=rate), scheduler, n_slots=n_slots, seed=seed
    )


def slot_efficiency(result: WorkloadResult) -> float:
    """Delivered packets per transmission attempt."""
    attempts = result.served + result.failed
    return result.served / attempts if attempts else 1.0


@dataclass(frozen=True)
class PerLinkPoisson(ArrivalProcess):
    """Poisson arrivals with one rate per link."""

    rates: tuple
    family = "per-link-poisson"

    def sample(self, n_links, n_slots, *, seed):
        return as_rng(seed).poisson(self.rates, size=(n_slots, n_links)).astype(np.int64)


class TestSimulateQueues:
    def test_accounting_identities(self, queue_problem):
        r = run(queue_problem, rle_schedule, 0.05, 100, seed=1)
        # Conservation: every arrival is delivered or still queued.
        assert r.arrived == r.served + r.final_backlog
        assert r.per_link_served.sum() == r.served
        assert r.total_backlog.shape == (100,)
        assert r.total_backlog[-1] == r.final_backlog

    def test_reproducible(self, queue_problem):
        a = run(queue_problem, rle_schedule, 0.05, 50, seed=7)
        b = run(queue_problem, rle_schedule, 0.05, 50, seed=7)
        assert a.served == b.served
        assert a.trajectory_bytes() == b.trajectory_bytes()

    def test_zero_arrivals(self, queue_problem):
        r = run(queue_problem, rle_schedule, 0.0, 20, seed=0)
        assert r.arrived == r.served == r.failed == 0
        assert not r.queue_trajectory.any()
        assert r.mean_backlog() == 0.0
        assert np.isnan(r.mean_delay)

    def test_light_load_stable(self, queue_problem):
        """Under light load the backlog stays near zero and delivery is
        essentially complete."""
        r = run(queue_problem, rle_schedule, 0.01, 300, seed=2)
        assert r.delivery_ratio > 0.9
        assert r.final_backlog <= 10

    def test_overload_unstable(self, queue_problem):
        """Far above capacity, the backlog grows roughly linearly."""
        r = run(queue_problem, rle_schedule, 2.0, 200, seed=3)
        half = r.total_backlog[100]
        assert r.total_backlog[-1] > 1.5 * half > 0

    def test_fading_resistant_high_slot_efficiency(self, queue_problem):
        """RLE wastes almost no slots on failed transmissions."""
        r = run(queue_problem, rle_schedule, 0.05, 200, seed=4)
        assert slot_efficiency(r) >= 0.97

    def test_susceptible_scheduler_wastes_slots(self, queue_problem):
        """A deterministic-SINR scheduler retries failed packets and
        burns slots that RLE does not."""
        r = run(queue_problem, "approx_diversity", 0.2, 200, seed=5)
        assert r.failed > 0
        assert slot_efficiency(r) < 1.0

    def test_per_link_arrival_rates(self, queue_problem):
        rates = np.zeros(60)
        rates[:5] = 0.2  # only five links generate traffic
        r = simulate_workload(
            queue_problem,
            PerLinkPoisson(rates=tuple(rates)),
            greedy_fading_schedule,
            n_slots=150,
            seed=6,
        )
        assert r.per_link_served[5:].sum() == 0
        assert r.per_link_served[:5].sum() == r.served > 0

    def test_delay_positive(self, queue_problem):
        r = run(queue_problem, rle_schedule, 0.05, 150, seed=8)
        assert r.mean_delay >= 1.0  # delivery takes at least the slot of arrival

    def test_validation(self, queue_problem):
        with pytest.raises(ValueError):
            run(queue_problem, rle_schedule, 0.05, -1, seed=0)
        with pytest.raises(ValueError):
            run(queue_problem, rle_schedule, 0.05, 10, seed=0).mean_backlog(warmup=11)
        with pytest.raises(ValueError):
            PoissonArrivals(rate=-0.1)

    def test_warmup_excluded_from_backlog(self, queue_problem):
        r = run(queue_problem, rle_schedule, 0.3, 100, seed=9)
        # Same trajectory, different averaging window.
        assert r.mean_backlog(50) == pytest.approx(r.total_backlog[50:].mean())
        assert r.mean_backlog() == pytest.approx(r.total_backlog.mean())


class TestStabilitySweep:
    def test_backlog_grows_with_load(self, queue_problem):
        results = sweep_rates(
            queue_problem, PoissonArrivals(rate=0.01), "rle", [1.0, 100.0], n_slots=150, seed=1
        )
        assert len(results) == 2
        assert results[1].final_backlog > results[0].final_backlog

    def test_each_point_is_queue_result(self, queue_problem):
        results = sweep_rates(queue_problem, PoissonArrivals(rate=0.02), "rle", [1.0], n_slots=50)
        assert isinstance(results[0], WorkloadResult)
        assert results[0].n_slots == 50
