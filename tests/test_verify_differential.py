"""Tests for the differential checks (repro.verify.differential)."""

import pytest

from repro.verify.differential import (
    BACKEND_STREAM_LAW,
    CODE_ANALYTIC_MC,
    CODE_BACKEND_MC,
    CODE_CACHE,
    DIFFERENTIAL_CHECKS,
    check_analytic_vs_montecarlo,
    check_backend_vs_numpy,
    check_batched_vs_streaming,
    check_cached_vs_certificate,
    check_exact_vs_ilp,
    check_serial_vs_parallel,
    check_with_params_cache_carry,
    register_differential,
)
from repro.verify.fuzz import FAMILIES, make_scenario
from repro.verify import cache as verify_cache  # noqa: F401  (registers cache-vs-fresh)
from repro.verify import channels  # noqa: F401  (registers the channel checks)


class TestRegistry:
    def test_all_checks_registered(self):
        assert set(DIFFERENTIAL_CHECKS) == {
            "exact-vs-ilp",
            "analytic-vs-montecarlo",
            "serial-vs-parallel",
            "cached-vs-certificate",
            "batched-vs-streaming",
            "with-params-cache-carry",
            "incremental-vs-scratch",
            "backend-vs-numpy",
            "channel-vs-rayleigh",
            "rayleigh-factorised-vs-stream",
            "cache-vs-fresh",
            "service-vs-direct",
        }

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_differential("exact-vs-ilp")(lambda s: [])


class TestChecksPassOnSeededScenarios:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_exact_vs_ilp(self, family):
        assert check_exact_vs_ilp(make_scenario(family, 0, root_seed=0)) == []

    @pytest.mark.parametrize("family", ["paper", "degenerate-ring"])
    def test_analytic_vs_montecarlo(self, family):
        assert check_analytic_vs_montecarlo(make_scenario(family, 0, root_seed=0)) == []

    def test_serial_vs_parallel(self):
        assert check_serial_vs_parallel(make_scenario("paper", 0, root_seed=0)) == []

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cached_vs_certificate(self, family):
        assert check_cached_vs_certificate(make_scenario(family, 0, root_seed=0)) == []

    def test_batched_vs_streaming(self):
        assert check_batched_vs_streaming(make_scenario("paper", 1, root_seed=0)) == []

    def test_with_params_cache_carry(self):
        assert check_with_params_cache_carry(make_scenario("paper", 1, root_seed=0)) == []


class TestFaultInjection:
    """The acceptance-criterion scenario: a perturbed cached interference
    matrix must be detected with a structured report naming the failing
    relation and reason code."""

    def test_cache_perturbation_detected(self):
        scenario = make_scenario("paper", 0, root_seed=0)
        problem = scenario.problem
        # Corrupt one cached entry; the certificate recomputes from
        # coordinates and must disagree.
        f = problem.interference_matrix()
        f[3, 7] += 0.05
        mismatches = check_cached_vs_certificate(scenario)
        assert mismatches, "perturbed cache went undetected"
        m = mismatches[0]
        assert m.check == "cached-vs-certificate"
        assert m.code == CODE_CACHE
        assert m.details["link"] == 7
        assert m.details["cached"] == pytest.approx(m.details["recomputed"] + 0.05)

    def test_report_serializes(self):
        scenario = make_scenario("paper", 0, root_seed=0)
        scenario.problem.interference_matrix()[3, 7] += 0.05
        m = check_cached_vs_certificate(scenario)[0]
        d = m.to_dict()
        assert d["code"] == CODE_CACHE
        assert d["scenario"] == scenario.name

    def test_analytic_mc_catches_probability_drift(self):
        # Corrupting F shifts the analytic probabilities but not the
        # geometry-driven Monte-Carlo draws: the 5-sigma bound must trip.
        scenario = make_scenario("dense-cluster", 0, root_seed=0)
        f = scenario.problem.interference_matrix()
        f[f > 0] *= 3.0
        mismatches = check_analytic_vs_montecarlo(scenario)
        assert mismatches
        assert all(m.code == CODE_ANALYTIC_MC for m in mismatches)

    def test_stream_check_is_bitwise(self):
        # Same seed, different chunking: passing proves bit-identity on
        # the real path; the check would flag any layout change.
        scenario = make_scenario("collinear-gadget", 0, root_seed=0)
        assert check_batched_vs_streaming(scenario) == []

    def test_backend_mc_divergence_under_stream_law(self, monkeypatch):
        """A backend whose MC reduction flips one success bit is caught
        through the fading-stream law; the factorised Rayleigh replay
        never calls the kernel, so it stays clean."""
        import numpy as np

        from repro.backend import base as backend_base
        from repro.backend import kernels

        def flipped(z, gamma_th, noise, *, out, scratch=None):
            kernels.mc_success_chunk(z, gamma_th, noise, out=out, scratch=scratch)
            np.logical_not(out[:1, :1], out=out[:1, :1])
            return out

        # A non-numpy backend registered for this test only, so the
        # check has something to compare even where numba is absent.
        monkeypatch.setitem(
            backend_base._FACTORIES,
            "flipped",
            lambda: backend_base.ComputeBackend("flipped", mc_success_chunk=flipped),
        )
        monkeypatch.setattr(
            backend_base, "BACKEND_NAMES", (*backend_base.BACKEND_NAMES, "flipped")
        )
        monkeypatch.setattr(backend_base, "_instances", {})
        mismatches = [
            m for m in check_backend_vs_numpy(make_scenario("paper", 0, root_seed=0))
            if m.code == CODE_BACKEND_MC
        ]
        assert [m.details["channel"] for m in mismatches] == [BACKEND_STREAM_LAW]
