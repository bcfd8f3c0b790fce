"""Fingerprint/content-hash canonicalisation tests.

The first class pins the *byte values* of the shared content-hash keys
across the dedupe into :mod:`repro.cache.fingerprint`: existing
checkpoint/result directories must keep resuming, so these hex strings
are a compatibility contract, not an implementation detail.  If one of
these assertions fails, the fix is to restore the key derivation — not
to update the expected string.
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.cache.fingerprint import (
    QUANTUM,
    canonical_channel,
    config_key,
    describe_callable,
    exact_key,
    fingerprint_with_order,
    geometry_distance,
    scheduler_identity,
    topology_fingerprint,
)
from repro.core.problem import FadingRLS
from repro.core.rle import rle_schedule
from repro.experiments.config import TopologyWorkload
from repro.network.links import LinkSet
from repro.network.topology import paper_topology
from repro.sim.parallel import WorkUnit, checkpoint_key
from repro.verify.fuzz import make_scenario
from tests.fingerprint_reference import reference_fingerprint_with_order


class TestKeyCompatibility:
    """Old checkpoint keys are unchanged (resume compatibility)."""

    def test_config_key_plain_params_pinned(self):
        assert config_key("exp", {"alpha": 3.0, "grid": (1, 2, 3)}) == (
            "e37a0c1b880cee8ba70520d2"
        )

    def test_config_key_numpy_params_pinned(self):
        key = config_key(
            "exp", {"n": np.int64(5), "x": np.float64(0.25), "arr": np.arange(3)}
        )
        assert key == "6efcdd177e57b27b9ca9b609"

    def test_checkpoint_key_default_unit_pinned(self):
        unit = WorkUnit(
            tag=0,
            rep=1,
            name="rle",
            scheduler=rle_schedule,
            workload=TopologyWorkload(n_links=30),
            n_trials=100,
            alpha=3.0,
            gamma_th=1.0,
            eps=0.01,
            root_seed=2017,
            scheduler_kwargs={"c2": 0.5},
        )
        # Deliberately re-keyed when Rayleigh units moved to the
        # factorised replay: the old key ("497fb7cb7e67530b8fbc33c0")
        # addresses fading-stream results a resumed sweep must not serve.
        assert checkpoint_key(unit) == "db7371636401493c17a4197a"

    def test_checkpoint_key_channel_unit_pinned(self):
        unit = WorkUnit(
            tag="fig5a",
            rep=0,
            name="ldp",
            scheduler=functools.partial(rle_schedule),
            workload=TopologyWorkload(n_links=12, region_side=100.0),
            n_trials=16,
            alpha=4.0,
            gamma_th=2.0,
            eps=0.05,
            root_seed=7,
            noise=0.1,
            channel="shadowing:sigma_db=6",
            power_policy="distance_proportional",
        )
        assert checkpoint_key(unit) == "8a0445a0a585b64d577fb103"

    def test_store_and_parallel_reexports_are_the_shared_function(self):
        from repro.experiments import store
        from repro.sim import parallel

        assert store.config_key is config_key
        assert parallel._describe_callable is describe_callable
        assert parallel._canonical_channel is canonical_channel


class TestCanonicalisers:
    def test_describe_callable_is_address_free(self):
        a = describe_callable(rle_schedule)
        assert a == describe_callable(rle_schedule)
        assert "0x" not in a

    def test_describe_callable_partial_recurses(self):
        desc = describe_callable(functools.partial(rle_schedule, c2=0.5))
        assert "rle_schedule" in desc and "c2" in desc

    def test_config_key_rejects_unserialisable(self):
        with pytest.raises(TypeError):
            config_key("exp", {"bad": object()})

    def test_scheduler_identity_orders_kwargs(self):
        a = scheduler_identity(rle_schedule, {"b": 1, "a": 2})
        b = scheduler_identity(rle_schedule, {"a": 2, "b": 1})
        assert a == b
        assert a != scheduler_identity(rle_schedule, {"a": 2})


def _problem(**overrides):
    return make_scenario("paper", 0, n_links=12, **overrides).problem


def _transformed(problem, *, theta=0.0, shift=(0.0, 0.0), scale=1.0, perm=None):
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    senders = scale * np.asarray(problem.links.senders) @ rot.T + np.asarray(shift)
    receivers = scale * np.asarray(problem.links.receivers) @ rot.T + np.asarray(shift)
    rates = np.asarray(problem.links.rates)
    if perm is not None:
        senders, receivers, rates = senders[perm], receivers[perm], rates[perm]
    return FadingRLS(
        links=LinkSet(senders=senders, receivers=receivers, rates=rates),
        alpha=problem.alpha,
        gamma_th=problem.gamma_th,
        eps=problem.eps,
        noise=problem.noise,
        power=problem.power,
    )


class TestExactKey:
    def test_identical_problems_share_the_key(self):
        p = _problem()
        sid = scheduler_identity(rle_schedule, None)
        assert exact_key(p, sid) == exact_key(_transformed(p), sid)

    def test_any_perturbation_changes_the_key(self):
        p = _problem()
        sid = scheduler_identity(rle_schedule, None)
        base = exact_key(p, sid)
        assert exact_key(_transformed(p, shift=(1e-9, 0.0)), sid) != base
        assert exact_key(p, scheduler_identity(rle_schedule, {"c2": 0.5})) != base

    def test_channel_parameters_are_part_of_the_key(self):
        p = _problem()
        q = FadingRLS(links=p.links, alpha=p.alpha + 0.5, gamma_th=p.gamma_th, eps=p.eps)
        sid = scheduler_identity(rle_schedule, None)
        assert exact_key(p, sid) != exact_key(q, sid)


class TestTopologyFingerprint:
    def test_relabeling_translation_rotation_invariant(self):
        p = _problem()
        perm = np.random.default_rng(7).permutation(p.n_links)
        q = _transformed(p, theta=1.1, shift=(42.0, -17.0), perm=perm)
        assert topology_fingerprint(p) == topology_fingerprint(q)

    def test_uniform_scaling_invariant_iff_noise_free(self):
        p = _problem()
        assert p.noise == 0.0
        assert topology_fingerprint(p) == topology_fingerprint(_transformed(p, scale=2.5))
        noisy = FadingRLS(
            links=p.links, alpha=p.alpha, gamma_th=p.gamma_th, eps=p.eps, noise=0.01
        )
        noisy_scaled = FadingRLS(
            links=_transformed(p, scale=2.5).links,
            alpha=p.alpha,
            gamma_th=p.gamma_th,
            eps=p.eps,
            noise=0.01,
        )
        assert topology_fingerprint(noisy) != topology_fingerprint(noisy_scaled)

    def test_geometric_perturbation_changes_the_fingerprint(self):
        p = _problem()
        senders = np.asarray(p.links.senders).copy()
        senders[0] += 1.0  # far above the quantization step
        q = FadingRLS(
            links=LinkSet(
                senders=senders,
                receivers=np.asarray(p.links.receivers),
                rates=np.asarray(p.links.rates),
            ),
            alpha=p.alpha,
            gamma_th=p.gamma_th,
            eps=p.eps,
        )
        assert topology_fingerprint(p) != topology_fingerprint(q)

    def test_channel_parameters_are_part_of_the_fingerprint(self):
        p = _problem()
        q = FadingRLS(links=p.links, alpha=p.alpha, gamma_th=2 * p.gamma_th, eps=p.eps)
        assert topology_fingerprint(p) != topology_fingerprint(q)

    def test_order_aligns_congruent_copies_link_for_link(self):
        p = _problem()
        perm = np.random.default_rng(3).permutation(p.n_links)
        q = _transformed(p, theta=0.4, shift=(5.0, 5.0), perm=perm)
        fp_p, order_p = fingerprint_with_order(p)
        fp_q, order_q = fingerprint_with_order(q)
        assert fp_p == fp_q
        # Canonical position k of q is the permuted image of canonical
        # position k of p — the alignment the canonical tier relies on.
        assert np.array_equal(perm[order_q], order_p)

    def test_quantization_absorbs_float_noise(self):
        # A rigid motion perturbs each distance by a few ulp (~1e-16
        # relative) — roughly 1e-7 of the quantization step, which is
        # what the quantum is sized to absorb.  Model it directly with
        # ulp-scale additive jitter on the coordinates.
        p = _problem()
        senders = np.asarray(p.links.senders)
        jitter = 1e-13 * np.sign(senders)
        q = FadingRLS(
            links=LinkSet(
                senders=senders + jitter,
                receivers=np.asarray(p.links.receivers),
                rates=np.asarray(p.links.rates),
            ),
            alpha=p.alpha,
            gamma_th=p.gamma_th,
            eps=p.eps,
        )
        assert topology_fingerprint(p) == topology_fingerprint(q)


class TestVectorisedCanonicalisation:
    """The numpy canonicalisation reproduces the original one bit for bit."""

    # Computed with the original tuple-and-``sorted`` implementation;
    # persisted cache directories store both fields.  If these fail,
    # restore the canonicalisation — do not update the values.
    PINNED_N300 = {
        0: (
            "99a7fa67f25d921c23580f3f",
            "7ea754af9523c9e6caf4a3ba45e2603d52b1d1c5739ca8305a58c6c2170887b9",
        ),
        1: (
            "6e5d115a9461551e6cd87404",
            "595baf944d035756db702562677d87a6fb568797837c9b26995946dd98f5e697",
        ),
    }

    @pytest.mark.parametrize("seed", sorted(PINNED_N300))
    def test_paper_scale_fingerprint_and_order_pinned(self, seed):
        fp, order = fingerprint_with_order(FadingRLS(links=paper_topology(300, seed=seed)))
        assert order.dtype == np.int64
        assert (fp, hashlib.sha256(order.tobytes()).hexdigest()) == self.PINNED_N300[seed]

    def test_overflowing_quanta_sort_like_python_ints(self):
        # Unit-length links (so own lengths tie) with receivers ~1e10
        # mean lengths away: those quanta overflow the int64 cast.  A
        # byte-wise row comparison without the sign-bit flip would
        # place the overflowed (negative) rows after the others.
        senders = np.array([[0.0, 0.0], [5e9, 0.0], [1e10, 0.0]])
        p = FadingRLS(
            links=LinkSet(senders=senders, receivers=senders + (1.0, 0.0))
        )
        assert np.max(p.distances()) / QUANTUM >= 2.0**63
        with np.errstate(invalid="ignore"):
            fp, order = fingerprint_with_order(p)
            ref_fp, ref_order = reference_fingerprint_with_order(p)
        assert fp == ref_fp
        assert np.array_equal(order, ref_order)

    def test_empty_problem(self):
        empty = LinkSet(senders=np.zeros((0, 2)), receivers=np.zeros((0, 2)))
        p = FadingRLS(links=empty)
        fp, order = fingerprint_with_order(p)
        assert (fp, order.dtype, order.shape) == ("031c509f81130e83bc15a81c", np.int64, (0,))
        assert fp == reference_fingerprint_with_order(p)[0]

    def test_reuses_the_problem_distance_cache(self):
        p = _problem()
        fingerprint_with_order(p)
        assert "distances" in p._cache


class TestGeometryDistance:
    def test_zero_for_identical_sets(self):
        p = _problem()
        assert geometry_distance(p.links, p.links) == 0.0

    def test_scales_with_displacement(self):
        p = _problem()
        links = p.links
        mean_len = float(
            np.linalg.norm(
                np.asarray(links.receivers) - np.asarray(links.senders), axis=1
            ).mean()
        )
        moved = LinkSet(
            senders=np.asarray(links.senders) + (mean_len, 0.0),
            receivers=np.asarray(links.receivers) + (mean_len, 0.0),
            rates=np.asarray(links.rates),
        )
        assert geometry_distance(moved, links) == pytest.approx(1.0)

    def test_size_mismatch_raises(self):
        p = _problem()
        q = make_scenario("paper", 0, n_links=8).problem
        with pytest.raises(ValueError):
            geometry_distance(p.links, q.links)
