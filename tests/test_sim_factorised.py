"""The factorised Rayleigh replay and the fading-stream laws beside it.

Rayleigh (``channel=None``) and ``shadowing:sigma_db=0`` replay as
independent per-link Bernoulli draws at Thm 3.1's probabilities: one
``(T, K)`` block of uniforms compared against ``p``.  Every other law
keeps the streamed ``(T, K, K)`` replay; its bits are pinned here by
sha256 values recorded before the factorised replay existed.
"""

import hashlib

import numpy as np
import pytest

from repro.channel.laws import NakagamiLaw, RayleighLaw, ShadowingLaw
from repro.channel.rayleigh import success_probability
from repro.channel.sampling import instantaneous_sinr, sample_fading_trials
from repro.core.problem import FadingRLS
from repro.network.links import LinkSet
from repro.network.topology import paper_topology
from repro.obs import metrics as obs_metrics
from repro.sim import montecarlo
from repro.sim.montecarlo import factorised_replay, simulate_slot, simulate_trials

LINKS = paper_topology(40, seed=5)
BASE = FadingRLS(links=LINKS, alpha=3.0)
POWERED = FadingRLS(links=LINKS, alpha=3.0, noise=1e-7, powers=np.linspace(0.5, 2.0, 40))
ALL = np.arange(40)


def _digest(success: np.ndarray) -> str:
    return hashlib.sha256(
        np.packbits(success).tobytes() + repr(success.shape).encode()
    ).hexdigest()


def _thm31(problem: FadingRLS, active: np.ndarray) -> np.ndarray:
    """Thm 3.1 with the noise factor, straight from coordinates."""
    s = problem.links.senders[active]
    r = problem.links.receivers[active]
    d = np.sqrt(((s[:, None, :] - r[None, :, :]) ** 2).sum(axis=2))
    power = np.broadcast_to(np.asarray(problem.tx_powers(), dtype=float), (problem.n_links,))
    pw = power[active]
    own = np.diag(d).copy()
    np.fill_diagonal(d, np.inf)
    g = problem.gamma_th
    ratio = (pw[:, None] / pw[None, :]) * (own[None, :] / d) ** problem.alpha
    noise = np.exp(-g * problem.noise * own**problem.alpha / pw)
    return noise * np.prod(1.0 / (1.0 + g * ratio), axis=0)


class TestRouting:
    @pytest.mark.parametrize(
        "channel",
        [None, "rayleigh", RayleighLaw(), "shadowing:sigma_db=0",
         "shadowing:sigma_db=0,static=true"],
    )
    def test_factorised_laws(self, channel):
        assert factorised_replay(channel)

    @pytest.mark.parametrize(
        "channel",
        ["nakagami:m=1", NakagamiLaw(m=2.0), "shadowing:sigma_db=6",
         ShadowingLaw(sigma_db=4.0, static=True), "deterministic"],
    )
    def test_stream_laws(self, channel):
        assert not factorised_replay(channel)

    def test_rayleigh_draws_no_fading_chunks(self, monkeypatch, obs_enabled):
        def boom(*args, **kwargs):
            raise AssertionError("the Rayleigh replay must not stream fading chunks")

        monkeypatch.setattr(montecarlo, "iter_fading_trials", boom)
        simulate_trials(BASE, ALL, 50, seed=1)
        simulate_trials(BASE, ALL, 50, seed=1, channel="shadowing:sigma_db=0")
        counters = obs_metrics.snapshot()["counters"]
        assert counters["mc.trials_simulated"] == 100
        assert "mc.chunks_sampled" not in counters


class TestFactorisedReplay:
    def test_bits_are_uniforms_below_thm31(self):
        """The uniform-stream contract: ``U[t, j] < p_j``, C order."""
        got = simulate_trials(POWERED, ALL, 300, seed=21)
        p = success_probability(
            POWERED.distances(), ALL, POWERED.alpha, POWERED.gamma_th,
            noise=POWERED.noise, power=POWERED.tx_powers(),
        )
        want = np.random.default_rng(21).random((300, 40)) < p
        np.testing.assert_array_equal(got, want)

    def test_bits_pinned(self):
        got = simulate_trials(BASE, ALL, 200, seed=11)
        assert _digest(got) == (
            "f1bac51be77c9b09af51f536b31d9e8b349eab7b60e890dae50c7254d795b9ea"
        )

    @pytest.mark.parametrize("max_bytes", [1, 8 * 40, 8 * 40 * 7, 10**9])
    def test_chunk_invariant(self, max_bytes):
        reference = simulate_trials(BASE, ALL, 333, seed=4)
        chunked = simulate_trials(BASE, ALL, 333, seed=4, max_bytes=max_bytes)
        np.testing.assert_array_equal(chunked, reference)

    def test_sigma_zero_shadowing_is_the_same_replay(self):
        np.testing.assert_array_equal(
            simulate_trials(POWERED, ALL, 100, seed=8),
            simulate_trials(POWERED, ALL, 100, seed=8, channel="shadowing:sigma_db=0"),
        )

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            simulate_trials(BASE, ALL, 10, seed=0, max_bytes=0)

    def test_negative_trials_rejected(self):
        with pytest.raises(ValueError, match="n_trials"):
            simulate_trials(BASE, ALL, -1, seed=0)

    def test_generator_seed_continues_the_stream(self):
        """A shared generator (the adaptive replay's batches) keeps drawing."""
        rng = np.random.default_rng(5)
        first = simulate_trials(BASE, ALL, 30, seed=rng)
        second = simulate_trials(BASE, ALL, 30, seed=rng)
        both = simulate_trials(BASE, ALL, 60, seed=5)
        np.testing.assert_array_equal(np.vstack([first, second]), both)

    def test_slot_is_the_first_trial(self):
        np.testing.assert_array_equal(
            simulate_slot(BASE, ALL, seed=9), simulate_trials(BASE, ALL, 1, seed=9)[0]
        )


class TestEdgeCases:
    def test_empty_schedule(self):
        out = simulate_trials(BASE, np.array([], dtype=np.int64), 25, seed=0)
        assert out.shape == (25, 0) and out.dtype == bool

    def test_zero_trials(self):
        out = simulate_trials(BASE, ALL, 0, seed=0)
        assert out.shape == (0, 40) and out.dtype == bool

    def test_lone_transmitter_always_decodes(self):
        """N0 = 0 and no interferer: SINR is infinite, p = 1."""
        out = simulate_trials(BASE, np.array([7]), 500, seed=3)
        assert out.shape == (500, 1) and out.all()

    def test_lone_transmitter_under_noise(self):
        links = LinkSet(senders=np.array([[0.0, 0.0]]), receivers=np.array([[10.0, 0.0]]))
        problem = FadingRLS(links=links, alpha=3.0, noise=1e-3, power=1.5)
        p = float(np.exp(-problem.gamma_th * 1e-3 * 10.0**3 / 1.5))
        n = 20_000
        rate = simulate_trials(problem, np.array([0]), n, seed=2).mean()
        assert abs(rate - p) <= 5.0 * np.sqrt(p * (1 - p) / n)

    def test_noise_and_per_link_powers_match_thm31(self):
        """Rates under N0 > 0 and per-link powers sit within 5 sigma of
        Thm 3.1 computed from coordinates, and of the fading stream."""
        links = paper_topology(12, seed=9)
        powers = np.linspace(0.6, 3.0, 12)
        problem = FadingRLS(links=links, alpha=3.5, noise=1e-4, powers=powers)
        active = np.arange(12)
        p = _thm31(problem, active)
        quiet = _thm31(problem.with_params(noise=0.0), active)
        assert np.count_nonzero(p < 0.9 * quiet) >= 6  # noise bites
        n = 8000
        rates = simulate_trials(problem, active, n, seed=13).mean(axis=0)
        bound = 5.0 * np.sqrt(p * (1 - p) / n) + 3.0 / n
        assert np.all(np.abs(rates - p) <= bound)
        z = sample_fading_trials(
            problem.distances(), active, problem.alpha, n,
            power=problem.tx_powers(), seed=14,
        )
        stream = (instantaneous_sinr(z, noise=problem.noise) >= problem.gamma_th).mean(axis=0)
        assert np.all(np.abs(rates - stream) <= np.sqrt(2.0) * bound)


class TestStreamLawBitsUnchanged:
    """Fading-stream replays keep their bits (values recorded before the
    factorised replay was introduced)."""

    @pytest.mark.parametrize(
        "problem, channel, digest",
        [
            (BASE, "nakagami:m=2",
             "510e18449d76dc7075bfc665d1774fffa7309602182624eb57a12a8f2af2149c"),
            (BASE, "shadowing:sigma_db=6",
             "94cda6a8242b91afc7975d32ee2eb551e429e0728dd2e96c91f4a571f351cc20"),
            (BASE, "deterministic",
             "83ed463e03dc24ac6b7d7e251dc68a2a936d45e3db488b66c02bda9698207ce0"),
            (BASE, "nakagami:m=1",
             "180e589f45da511e25cbada454d8be336cd30051b166a292c94e48d998d1d96f"),
            (BASE, "shadowing:sigma_db=4,static=true",
             "d7b3fa8fe70fdef6f6540adb4334eada49b10a635c8fbd180c01f322914a813d"),
            (POWERED, "nakagami:m=2",
             "194b66cbd596249ce46d58ec485cb5f8101acd417ea06038f60052911375643a"),
            (POWERED, "shadowing:sigma_db=6",
             "6e08ce859529ec390d274148ebdd235517666464598d848ed9af4b954b82d8ec"),
        ],
        ids=["nakagami2", "shadowing6", "deterministic", "nakagami1",
             "shadowing4-static", "nakagami2-powered", "shadowing6-powered"],
    )
    def test_pinned(self, problem, channel, digest):
        success = simulate_trials(problem, ALL, 200, seed=11, channel=channel)
        assert _digest(success) == digest
        chunked = simulate_trials(problem, ALL, 200, seed=11, channel=channel, max_bytes=20_000)
        np.testing.assert_array_equal(chunked, success)
