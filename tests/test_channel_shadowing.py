"""Tests for the composite shadowing + Rayleigh channel
(:class:`repro.channel.laws.ShadowingLaw`)."""

import numpy as np
import pytest

from repro.channel.laws import ShadowingLaw
from repro.channel.sampling import instantaneous_sinr, sample_fading_trials


def ring_distances(n=4, own=10.0, cross=60.0):
    d = np.full((n, n), cross)
    np.fill_diagonal(d, own)
    return d


def shadowed(d, active, sigma_db, n_trials, seed, static=False):
    law = ShadowingLaw(sigma_db=sigma_db, static=static)
    return sample_fading_trials(d, active, 3.0, n_trials, seed=seed, law=law)


def mc_success(d, active, sigma_db, n_trials, seed, gamma_th=1.0):
    """Monte-Carlo per-link success probability, shadow redrawn per trial."""
    z = shadowed(d, active, sigma_db, n_trials, seed)
    return (instantaneous_sinr(z) >= gamma_th).mean(axis=0)


class TestSampler:
    def test_shape(self):
        z = shadowed(ring_distances(), np.arange(3), 8.0, 5, seed=0)
        assert z.shape == (5, 3, 3)

    def test_zero_sigma_is_rayleigh(self):
        """sigma_db = 0: distribution identical to the plain sampler's law."""
        d = ring_distances()
        z = shadowed(d, np.arange(4), 0.0, 100_000, seed=1)
        np.testing.assert_allclose(z.mean(axis=0), d**-3.0, rtol=0.05)

    def test_normalized_mean_preserved(self):
        """The mean-corrected composite keeps E[Z] = P d^-alpha."""
        d = ring_distances()
        z = shadowed(d, np.arange(4), 6.0, 200_000, seed=2)
        np.testing.assert_allclose(z.mean(axis=0), d**-3.0, rtol=0.1)

    def test_shadowing_increases_variance(self):
        d = ring_distances()
        plain = shadowed(d, np.arange(4), 0.0, 50_000, seed=3)
        composite = shadowed(d, np.arange(4), 8.0, 50_000, seed=3)
        assert composite.var(axis=0).mean() > plain.var(axis=0).mean()

    def test_static_shadowing_shared_across_trials(self):
        """Static mode: the per-pair shadowing gain is one draw, so the
        trial-mean matrix deviates from the pathloss mean."""
        d = ring_distances()
        z = shadowed(d, np.arange(4), 10.0, 20_000, seed=4, static=True)
        ratio = z.mean(axis=0) / d**-3.0
        # Some pair must sit well away from 1 (its frozen shadow).
        assert np.abs(np.log(ratio)).max() > 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            ShadowingLaw(sigma_db=-1.0)
        with pytest.raises(ValueError):
            shadowed(ring_distances(), np.arange(2), 3.0, -1, seed=0)


class TestSuccessProbability:
    def test_zero_sigma_matches_theorem31(self):
        from repro.channel.rayleigh import success_probability

        d = ring_distances()
        active = np.arange(4)
        exact = success_probability(d, active, 3.0, 1.0)
        mc = mc_success(d, active, 0.0, 100_000, seed=5)
        np.testing.assert_allclose(mc, exact, atol=0.01)

    def test_graceful_degradation(self):
        """Moderate shadowing barely moves a comfortably feasible
        schedule's success probability (it scales signal and
        interference symmetrically)."""
        from repro.core.problem import FadingRLS
        from repro.core.rle import rle_schedule
        from repro.network.topology import paper_topology
        from repro.sim.montecarlo import simulate_trials

        p = FadingRLS(links=paper_topology(100, seed=0))
        idx = rle_schedule(p).active
        base = simulate_trials(p, idx, 30_000, seed=6, channel=ShadowingLaw(sigma_db=0.0))
        composite = simulate_trials(p, idx, 30_000, seed=7, channel=ShadowingLaw(sigma_db=6.0))
        assert composite.mean() > base.mean() - 0.03

    def test_empty(self):
        p = mc_success(ring_distances(), np.zeros(0, dtype=int), 4.0, 10, seed=0)
        assert p.size == 0
