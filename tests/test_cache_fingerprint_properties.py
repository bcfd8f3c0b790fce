"""Property-based tests (Hypothesis) for fingerprint canonicalization.

The invariance contract of
:func:`repro.cache.fingerprint.topology_fingerprint`, probed over
random instances and random transforms:

- **relabeling** — any permutation of the link labels maps to the same
  fingerprint, and the canonical orders align link for link;
- **rigid motion** — any translation + rotation (+ relabeling) maps to
  the same fingerprint;
- **uniform scaling** — noise-free instances are scale-invariant (the
  same gate the geometry-scale metamorphic relation uses); with
  ``noise > 0`` the scale re-enters the fingerprint;
- **distinctness** — perturbing one endpoint by a super-quantum amount
  changes the fingerprint, and the adversarial fuzzer families of
  :mod:`repro.verify` produce pairwise-distinct fingerprints (no
  spurious collisions on realistic geometries);
- **reference equivalence** — the vectorised implementation returns the
  same ``(fingerprint, order)`` as the original tuple-and-``sorted``
  one (``tests/fingerprint_reference.py``) on random instances, every
  fuzzer family, tie-heavy geometries (duplicated links, symmetric
  rings and lattices, where equal rows must keep input order) and
  ``N`` in {0, 1, 2}, with non-uniform rates, noise and per-link
  powers.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.fingerprint import fingerprint_with_order, topology_fingerprint
from repro.core.problem import FadingRLS
from repro.network.links import LinkSet
from repro.network.topology import paper_topology
from repro.verify.fuzz import FAMILIES, fuzz_scenarios, make_scenario
from tests.fingerprint_reference import reference_fingerprint_with_order

# -- strategies ------------------------------------------------------


@st.composite
def problems(draw, min_links=2, max_links=10, with_noise=False):
    """Small paper-style instances with optional noise."""
    n = draw(st.integers(min_links, max_links))
    seed = draw(st.integers(0, 2_000))
    noise = draw(st.floats(1e-4, 1e-2)) if with_noise else 0.0
    return FadingRLS(
        links=paper_topology(n, seed=seed),
        alpha=draw(st.sampled_from([2.6, 3.0, 4.0])),
        gamma_th=1.0,
        eps=0.05,
        noise=noise,
    )


def _rebuild(problem, senders, receivers, rates, **overrides):
    params = dict(
        alpha=problem.alpha,
        gamma_th=problem.gamma_th,
        eps=problem.eps,
        noise=problem.noise,
        power=problem.power,
    )
    params.update(overrides)
    return FadingRLS(
        links=LinkSet(senders=senders, receivers=receivers, rates=rates), **params
    )


def _transform(problem, *, theta=0.0, shift=(0.0, 0.0), scale=1.0, perm=None):
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    senders = scale * np.asarray(problem.links.senders) @ rot.T + np.asarray(shift)
    receivers = scale * np.asarray(problem.links.receivers) @ rot.T + np.asarray(shift)
    rates = np.asarray(problem.links.rates)
    if perm is not None:
        senders, receivers, rates = senders[perm], receivers[perm], rates[perm]
    return _rebuild(problem, senders, receivers, rates)


# -- invariance ------------------------------------------------------


@given(
    problem=problems(),
    perm_seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_relabeling_is_invariant_and_orders_align(problem, perm_seed):
    perm = np.random.default_rng(perm_seed).permutation(problem.n_links)
    relabeled = _transform(problem, perm=perm)
    fp, order = fingerprint_with_order(problem)
    fp2, order2 = fingerprint_with_order(relabeled)
    assert fp == fp2
    assert np.array_equal(perm[order2], order)


@given(
    problem=problems(),
    theta=st.floats(0.0, 2 * np.pi),
    shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    perm_seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_rigid_motion_plus_relabeling_is_invariant(problem, theta, shift, perm_seed):
    perm = np.random.default_rng(perm_seed).permutation(problem.n_links)
    moved = _transform(problem, theta=theta, shift=shift, perm=perm)
    assert topology_fingerprint(problem) == topology_fingerprint(moved)


@given(problem=problems(), scale=st.floats(0.1, 50.0))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_uniform_scaling_is_invariant_without_noise(problem, scale):
    assert problem.noise == 0.0
    scaled = _transform(problem, scale=scale)
    assert topology_fingerprint(problem) == topology_fingerprint(scaled)


@given(problem=problems(with_noise=True), scale=st.sampled_from([0.5, 2.0, 10.0]))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_uniform_scaling_is_distinguished_with_noise(problem, scale):
    assert problem.noise > 0.0
    scaled = _transform(problem, scale=scale)
    assert topology_fingerprint(problem) != topology_fingerprint(scaled)


# -- distinctness ----------------------------------------------------


@given(
    problem=problems(),
    link=st.integers(0, 100),
    dx=st.floats(0.5, 5.0),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_endpoint_perturbation_changes_the_fingerprint(problem, link, dx):
    senders = np.asarray(problem.links.senders).copy()
    senders[link % problem.n_links] += (dx, 0.0)
    perturbed = _rebuild(
        problem, senders, np.asarray(problem.links.receivers), np.asarray(problem.links.rates)
    )
    assert topology_fingerprint(problem) != topology_fingerprint(perturbed)


@given(problem=problems(min_links=3))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_rate_change_changes_the_fingerprint(problem):
    rates = np.asarray(problem.links.rates).copy()
    rates[0] *= 2.0
    changed = _rebuild(
        problem,
        np.asarray(problem.links.senders),
        np.asarray(problem.links.receivers),
        rates,
    )
    assert topology_fingerprint(problem) != topology_fingerprint(changed)


def test_fuzzer_families_have_no_spurious_collisions():
    """Adversarial scenario corpus → pairwise-distinct fingerprints."""
    scenarios = fuzz_scenarios(25, seed=0, families=FAMILIES)
    fingerprints = {}
    for sc in scenarios:
        fp = topology_fingerprint(sc.problem)
        fingerprints.setdefault(fp, []).append(sc.name)
    collisions = {k: v for k, v in fingerprints.items() if len(v) > 1}
    assert not collisions, f"fingerprint collisions across scenarios: {collisions}"
    assert len(fingerprints) == 25


def test_fuzzer_family_pairs_distinct_across_sizes():
    """Same family at different sizes/parameters never collides."""
    scenarios = [s for s in fuzz_scenarios(10, seed=3, families=("near-duplicate",))]
    for a, b in itertools.combinations(scenarios, 2):
        assert topology_fingerprint(a.problem) != topology_fingerprint(b.problem)


# -- reference equivalence -------------------------------------------


@st.composite
def channels(draw, links):
    """``links`` under drawn channel parameters, rates and powers.

    Rates and powers are drawn from small value sets as often as from
    continuous ranges, so equal rates (feature-row ties) are common.
    """
    n = len(links)
    values = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.05, 20.0))
    rates = draw(st.one_of(st.none(), st.lists(values, min_size=n, max_size=n)))
    powers = draw(st.one_of(st.none(), st.lists(values, min_size=n, max_size=n)))
    if rates is not None:
        links = LinkSet(senders=links.senders, receivers=links.receivers, rates=rates)
    return FadingRLS(
        links=links,
        alpha=draw(st.sampled_from([2.6, 3.0, 4.0])),
        gamma_th=draw(st.sampled_from([0.5, 1.0, 2.0])),
        eps=draw(st.sampled_from([0.01, 0.05, 0.2])),
        noise=draw(st.one_of(st.just(0.0), st.floats(1e-6, 1e-1))),
        power=draw(st.sampled_from([1.0, 3.5])),
        powers=None if powers is None else np.asarray(powers),
    )


def _links(senders, receivers):
    senders = np.asarray(senders, dtype=float).reshape(-1, 2)
    receivers = np.asarray(receivers, dtype=float).reshape(-1, 2)
    return LinkSet(senders=senders, receivers=receivers)


@st.composite
def random_links(draw):
    return paper_topology(draw(st.integers(0, 24)), seed=draw(st.integers(0, 10_000)))


@st.composite
def fuzz_family_links(draw):
    family = draw(st.sampled_from(FAMILIES))
    return make_scenario(family, draw(st.integers(0, 40))).problem.links


@st.composite
def duplicated_links(draw):
    """A paper topology with some links repeated verbatim, shuffled."""
    base = paper_topology(draw(st.integers(1, 10)), seed=draw(st.integers(0, 10_000)))
    dup = draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=8))
    idx = np.concatenate([np.arange(len(base)), dup])
    idx = idx[np.random.default_rng(draw(st.integers(0, 10_000))).permutation(idx.size)]
    return _links(np.asarray(base.senders)[idx], np.asarray(base.receivers)[idx])


@st.composite
def symmetric_rings(draw):
    """Radial links on a regular polygon: every link is congruent."""
    m = draw(st.integers(2, 12))
    radius = draw(st.sampled_from([10.0, 50.0, 333.0]))
    length = draw(st.sampled_from([1.0, 5.0, 20.0]))
    theta = 2 * np.pi * np.arange(m) / m + draw(st.sampled_from([0.0, 0.3]))
    unit = np.column_stack([np.cos(theta), np.sin(theta)])
    return _links(radius * unit, (radius + length) * unit)


@st.composite
def lattices(draw):
    """Integer-grid links: distances are exact, so mirror images tie
    bit for bit (parallel links tie under the horizontal reflection,
    the four arms of a cross under all of D4)."""
    g = draw(st.integers(1, 5))
    spacing = draw(st.sampled_from([3.0, 10.0, 40.0]))
    if draw(st.booleans()):
        x, y = np.meshgrid(np.arange(g), np.arange(g))
        senders = spacing * np.column_stack([x.ravel(), y.ravel()])
        return _links(senders, senders + (1.0, 0.0))
    arms = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    ring = np.arange(1, g + 1)[:, None, None] * spacing
    senders = (ring * arms).reshape(-1, 2)
    return _links(senders, senders + np.tile(arms, (g, 1)))


@st.composite
def tiny_links(draw):
    n = draw(st.sampled_from([0, 1, 2]))
    senders = draw(st.lists(st.sampled_from([0.0, 1.0, 7.5]), min_size=2 * n, max_size=2 * n))
    offsets = draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n, max_size=n))
    senders = np.asarray(senders, dtype=float).reshape(-1, 2)
    receivers = senders + np.column_stack([offsets, np.zeros(n)])
    return _links(senders, receivers)


@given(
    problem=st.one_of(
        random_links(),
        fuzz_family_links(),
        duplicated_links(),
        symmetric_rings(),
        lattices(),
        tiny_links(),
    ).flatmap(channels)
)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_vectorised_matches_reference(problem):
    fp, order = fingerprint_with_order(problem)
    ref_fp, ref_order = reference_fingerprint_with_order(problem)
    assert fp == ref_fp
    assert order.dtype == ref_order.dtype
    assert np.array_equal(order, ref_order)


@given(links=duplicated_links())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_duplicated_links_keep_input_order(links):
    """Copies of one link have equal feature rows, so they sit next to
    each other in canonical order with their original indices ascending."""
    _, order = fingerprint_with_order(FadingRLS(links=links))
    pairs = np.column_stack([links.senders, links.receivers])[order]
    same = np.all(pairs[1:] == pairs[:-1], axis=1)
    assert np.all(order[1:][same] > order[:-1][same])
