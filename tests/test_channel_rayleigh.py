"""Tests for repro.channel.rayleigh — the paper's channel law.

Includes the key validation of Theorem 3.1: the closed-form success
probability must match the Monte-Carlo frequency of ``SINR >= gamma_th``
under exponential fading.
"""

import numpy as np
import pytest

from repro.channel.laws import RayleighLaw, get_channel_law
from repro.channel.rayleigh import received_power_cdf, success_probability
from repro.channel.sampling import sample_fading_trials


def rayleigh_powers(distance, size, seed):
    """``size`` trials of the ``(N, N)`` fading powers at ``distance``."""
    d = np.atleast_2d(np.asarray(distance, dtype=float))
    return sample_fading_trials(d, np.arange(d.shape[0]), 3.0, size, seed=seed)


class TestReceivedPowerCdf:
    def test_zero_at_origin(self):
        assert received_power_cdf(0.0, distance=10.0, alpha=3.0) == 0.0

    def test_negative_is_zero(self):
        assert received_power_cdf(-1.0, distance=10.0, alpha=3.0) == 0.0

    def test_median(self):
        # Exponential median = mean * ln 2.
        mean = 10.0**-3
        assert received_power_cdf(mean * np.log(2), 10.0, 3.0) == pytest.approx(0.5)

    def test_limits_to_one(self):
        assert received_power_cdf(1e9, 10.0, 3.0) == pytest.approx(1.0)

    def test_monotone(self):
        x = np.linspace(0, 1e-2, 100)
        c = received_power_cdf(x, 10.0, 3.0)
        assert (np.diff(c) >= 0).all()


class TestSampleReceivedPower:
    """The Eq. 5 law as drawn by the Monte-Carlo sampler."""

    def test_mean_matches_pathloss(self):
        s = rayleigh_powers(10.0, 200_000, seed=0)
        assert np.mean(s) == pytest.approx(10.0**-3, rel=0.02)

    def test_shape_with_matrix(self):
        d = np.full((3, 3), 10.0)
        s = rayleigh_powers(d, 7, seed=0)
        assert s.shape == (7, 3, 3)

    def test_nonnegative(self):
        s = rayleigh_powers(5.0, 1000, seed=1)
        assert (s >= 0).all()

    def test_reproducible(self):
        a = rayleigh_powers(5.0, 10, seed=3)
        b = rayleigh_powers(5.0, 10, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_exponential_distribution(self):
        # CDF at the mean should be 1 - 1/e.
        s = rayleigh_powers(10.0, 100_000, seed=2)
        frac = np.mean(s <= 10.0**-3)
        assert frac == pytest.approx(1 - np.exp(-1), abs=0.01)


def two_link_distances(own=10.0, cross=50.0):
    return np.array([[own, cross], [cross, own]])


class TestSuccessProbability:
    def test_closed_form_two_links(self):
        d = two_link_distances()
        p = success_probability(d, np.array([0, 1]), alpha=3.0, gamma_th=1.0)
        expected = 1.0 / (1.0 + (10.0 / 50.0) ** 3)
        np.testing.assert_allclose(p, expected)

    def test_single_link_certain(self):
        d = two_link_distances()
        p = success_probability(d, np.array([0]), alpha=3.0, gamma_th=1.0)
        np.testing.assert_allclose(p, 1.0)

    def test_log_mode(self):
        d = two_link_distances()
        p = success_probability(d, np.array([0, 1]), alpha=3.0, gamma_th=1.0)
        lp = success_probability(d, np.array([0, 1]), alpha=3.0, gamma_th=1.0, log=True)
        np.testing.assert_allclose(np.exp(lp), p)

    def test_more_interferers_lower_probability(self):
        n = 3
        d = np.full((n, n), 50.0)
        np.fill_diagonal(d, 10.0)
        p2 = success_probability(d[:2, :2], np.array([0, 1]), 3.0, 1.0)
        p3 = success_probability(d, np.array([0, 1, 2]), 3.0, 1.0)
        assert p3[0] < p2[0]

    def test_higher_threshold_lower_probability(self):
        d = two_link_distances()
        p1 = success_probability(d, np.array([0, 1]), 3.0, gamma_th=0.5)
        p2 = success_probability(d, np.array([0, 1]), 3.0, gamma_th=2.0)
        assert (p2 < p1).all()

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            success_probability(np.ones((2, 3)), np.array([0]), 3.0, 1.0)

    def test_theorem31_matches_monte_carlo(self):
        """The headline check: Thm 3.1 closed form vs empirical fading."""
        rng = np.random.default_rng(7)
        n = 4
        # Random geometry with moderate interference.
        senders = rng.uniform(0, 60, size=(n, 2))
        receivers = senders + rng.uniform(-10, 10, size=(n, 2))
        from repro.geometry.distance import cross_distances

        d = cross_distances(senders, receivers)
        d = np.maximum(d, 1.0)  # avoid degenerate zero distances
        active = np.arange(n)
        p_formula = success_probability(d, active, alpha=3.0, gamma_th=1.0)

        trials = 200_000
        means = d**-3.0
        z = rng.exponential(1.0, size=(trials, n, n)) * means
        signal = np.diagonal(z, axis1=1, axis2=2)
        interference = z.sum(axis=1) - signal
        empirical = np.mean(signal / interference >= 1.0, axis=0)
        np.testing.assert_allclose(empirical, p_formula, atol=0.005)


class TestLaplaceTransformIdentity:
    """Theorem 3.1's derivation check: the product closed form equals
    the direct numerical evaluation of Eq. 12's integral
    ``int_0^inf e^{-gamma z / mu_j} f_I(z) dz`` where the interference
    density is estimated from samples (smoothed Monte-Carlo integral).
    """

    def test_product_equals_integral(self):
        rng = np.random.default_rng(11)
        # Victim: own mean mu; two interferers with means m1, m2.
        mu, m1, m2, gamma = 1.0, 0.3, 0.7, 1.3
        # Closed form: prod 1/(1 + gamma * m_i / mu).
        closed = 1.0 / ((1 + gamma * m1 / mu) * (1 + gamma * m2 / mu))
        # Direct expectation E[e^{-gamma I / mu}] over sampled interference.
        samples = rng.exponential(m1, 400_000) + rng.exponential(m2, 400_000)
        empirical = np.mean(np.exp(-gamma * samples / mu))
        assert empirical == pytest.approx(closed, rel=0.01)

    def test_exponential_laplace_transform(self):
        """L_Exp(1/mu)(nu) = 1 / (1 + mu nu), the Eq. 13 building block."""
        rng = np.random.default_rng(12)
        mu, nu = 0.4, 2.5
        samples = rng.exponential(mu, 400_000)
        empirical = np.mean(np.exp(-nu * samples))
        assert empirical == pytest.approx(1.0 / (1.0 + mu * nu), rel=0.01)


class TestRayleighChannel:
    """:class:`RayleighLaw`, the channel object the simulator selects."""

    def test_facade_consistency(self):
        from repro.core.problem import FadingRLS
        from repro.network.topology import paper_topology

        problem = FadingRLS(links=paper_topology(6, seed=0), alpha=3.0)
        active = np.array([0, 2, 5])
        np.testing.assert_allclose(
            RayleighLaw().success_probability(problem, active),
            success_probability(problem.distances(), active, 3.0, 1.0),
        )

    def test_mean_power(self):
        idx, means = RayleighLaw().mean_power(np.array([[2.0]]), np.array([0]), 2.0, power=3.0)
        np.testing.assert_array_equal(idx, [0])
        assert means[0, 0] == pytest.approx(0.75)

    def test_invalid_params(self):
        # alpha and power belong to the problem, not the law.
        with pytest.raises(ValueError):
            get_channel_law("rayleigh:alpha=-1")
        with pytest.raises(ValueError):
            get_channel_law("rayleigh:power=0")

    def test_sample_shape(self):
        z = sample_fading_trials(
            np.array([[10.0]]), np.array([0]), 3.0, 5, seed=0, law=RayleighLaw()
        )
        assert z.shape == (5, 1, 1)
