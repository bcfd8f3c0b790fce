"""Tests for Nakagami-m fading (:class:`repro.channel.laws.NakagamiLaw`)."""

import numpy as np
import pytest

from repro.channel.laws import DeterministicLaw, NakagamiLaw, get_channel_law
from repro.channel.sampling import instantaneous_sinr, sample_fading_trials
from repro.core.problem import FadingRLS
from repro.network.links import LinkSet
from repro.sim.montecarlo import simulate_trials


def ring_distances(n=4, own=10.0, cross=60.0):
    d = np.full((n, n), cross)
    np.fill_diagonal(d, own)
    return d


def single_link_powers(m, n_trials, seed):
    """Instantaneous powers of one link at distance 10, alpha 3."""
    z = sample_fading_trials(
        np.array([[10.0]]), np.array([0]), 3.0, n_trials, seed=seed, law=NakagamiLaw(m=m)
    )
    return z[:, 0, 0]


def mc_success(d, active, m, n_trials, seed, gamma_th=1.0):
    """Monte-Carlo per-link success probability under Nakagami-m."""
    z = sample_fading_trials(d, active, 3.0, n_trials, seed=seed, law=NakagamiLaw(m=m))
    return (instantaneous_sinr(z) >= gamma_th).mean(axis=0)


class TestSampler:
    def test_mean_matches_pathloss(self):
        for m in (0.5, 1.0, 4.0):
            s = single_link_powers(m, 200_000, seed=0)
            assert np.mean(s) == pytest.approx(10.0**-3, rel=0.02)

    def test_m1_is_exponential(self):
        """Rayleigh special case: CDF at the mean is 1 - 1/e."""
        s = single_link_powers(1.0, 200_000, seed=1)
        assert np.mean(s <= 10.0**-3) == pytest.approx(1 - np.exp(-1), abs=0.01)

    def test_variance_shrinks_with_m(self):
        """Var = mean^2 / m: larger m = milder fading."""
        v = {m: np.var(single_link_powers(m, 100_000, seed=2)) for m in (1.0, 4.0)}
        assert v[4.0] < v[1.0] / 2
        assert v[1.0] == pytest.approx((10.0**-3) ** 2, rel=0.05)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            NakagamiLaw(m=0.0)

    def test_trials_shape(self):
        z = sample_fading_trials(
            ring_distances(), np.array([0, 2]), 3.0, 7, seed=0, law="nakagami:m=2"
        )
        assert z.shape == (7, 2, 2)


class TestSuccessProbability:
    def test_m1_matches_rayleigh_closed_form(self):
        from repro.channel.rayleigh import success_probability

        d = ring_distances()
        active = np.arange(4)
        exact = success_probability(d, active, 3.0, 1.0)
        mc = mc_success(d, active, 1.0, 100_000, seed=3)
        np.testing.assert_allclose(mc, exact, atol=0.01)

    def test_larger_m_helps_feasible_schedules(self):
        """Low interference: milder fading raises success probability."""
        d = ring_distances(own=10.0, cross=200.0)
        active = np.arange(4)
        p1 = mc_success(d, active, 1.0, 50_000, seed=4)
        p8 = mc_success(d, active, 8.0, 50_000, seed=5)
        assert (p8 >= p1 - 0.002).all()
        assert p8.mean() > p1.mean()

    def test_deterministic_limit(self):
        """Huge m approaches the deterministic success indicator.

        Three collinear links: link 1 is isolated (SINR ~ 500), links 0
        and 2 drown each other (SINR ~ 0.06 and ~ 0.5), so the limit
        has both outcomes, each far from the threshold.
        """
        links = LinkSet(
            senders=np.array([[0.0, 0.0], [100.0, 0.0], [14.0, 0.0]]),
            receivers=np.array([[10.0, 0.0], [110.0, 0.0], [60.0, 0.0]]),
        )
        problem = FadingRLS(links=links, alpha=3.0, gamma_th=1.0)
        active = np.arange(3)
        det = DeterministicLaw().success_probability(problem, active)
        np.testing.assert_array_equal(det, [0.0, 1.0, 0.0])
        p = simulate_trials(problem, active, 30_000, seed=6, channel="nakagami:m=200")
        np.testing.assert_allclose(p.mean(axis=0), det, atol=0.05)

    def test_empty_active(self):
        empty = np.zeros(0, dtype=int)
        z = sample_fading_trials(ring_distances(), empty, 3.0, 10, seed=0, law="nakagami:m=2")
        assert z.shape == (10, 0, 0)
        assert mc_success(ring_distances(), empty, 2.0, 10, seed=0).size == 0


class TestChannelFacade:
    def test_validation(self):
        with pytest.raises(ValueError):
            NakagamiLaw(m=-1.0)
        with pytest.raises(ValueError):
            get_channel_law("nakagami:m=-1")

    def test_facade_delegates(self):
        """The law drives the Monte-Carlo replay through ``channel=``."""
        senders = np.array([[0.0, 0.0], [60.0, 0.0], [0.0, 60.0], [60.0, 60.0]])
        links = LinkSet(senders=senders, receivers=senders + [10.0, 0.0])
        problem = FadingRLS(links=links)
        s = simulate_trials(problem, np.arange(4), 5000, seed=0, channel=NakagamiLaw(m=2.0))
        p = s.mean(axis=0)
        assert p.shape == (4,)
        assert ((0 <= p) & (p <= 1)).all()


class TestSeveritySweep:
    def test_rayleigh_feasible_schedule_improves_with_m(self):
        from repro.core.rle import rle_schedule
        from repro.network.topology import paper_topology

        p = FadingRLS(links=paper_topology(100, seed=0))
        s = rle_schedule(p)
        sweep = {
            m: simulate_trials(p, s.active, 20_000, seed=1, channel=NakagamiLaw(m=m)).mean()
            for m in (1.0, 4.0)
        }
        assert sweep[4.0] >= sweep[1.0] - 0.003
        assert sweep[1.0] >= 1 - p.eps - 0.01  # Rayleigh contract
