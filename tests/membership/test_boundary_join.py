"""A membership join whose repair closure spans distant parts of the graph.

A joiner is wired to two sites at the base topology's maximum hop
distance (its hop diameter), so its ≤2P-hop repair closure reaches into
both far ends of the network at once. The incremental repair must still
equal a full ``phased_tables`` rebuild bit for bit (``verify_converged``)
— the proof in ``repro.membership`` does not depend on where in the
graph the joiner's links land, and this pins that.
"""

from dataclasses import replace

import numpy as np

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.faults import FaultPlan, SiteJoinEvent
from repro.routing.vectorized import bfs_hops_matrix, weight_matrix
from repro.simnet.topology import topology_factory

BASE = ExperimentConfig(
    topology="erdos_renyi",
    topology_kwargs={"n": 16, "p": 0.3, "delay_range": (0.2, 1.0)},
    duration=120.0,
    seed=5,
    routing_mode="oracle",
)


def _base_topology(config: ExperimentConfig):
    """The exact topology the runner builds for ``config`` (same rng draw)."""
    rng = np.random.default_rng(config.seed)
    return topology_factory(config.topology, rng=rng, **config.topology_kwargs)


def _farthest_pair(topo):
    """The first (row-major) site pair at maximum hop distance, and the
    hop matrix it came from."""
    hops = bfs_hops_matrix(weight_matrix(topo))
    u, v = np.unravel_index(int(np.argmax(hops)), hops.shape)
    return int(u), int(v), hops


def test_join_between_distant_sites_converges_bit_for_bit():
    topo = _base_topology(BASE)
    u, v, hops = _farthest_pair(topo)
    assert hops[u, v] >= 3, "the peers must be far apart for the test to bite"

    # the joiner's direct links land on both far ends, so its repair
    # closure covers both regions of the graph at once
    faults = FaultPlan(
        join_events=(SiteJoinEvent(time=20.0, links=((u, 0.4), (v, 0.7))),)
    )
    res = run_experiment(replace(BASE, faults=faults))

    membership = res.resident.membership
    assert membership is not None
    joiner = topo.n  # latent sites get ids n_base, n_base+1, ...
    assert joiner in res.network.sites
    assert membership.verify_converged()

    # the joined site actually routes to both regions (repair reached
    # both): the sites strictly nearer u than v, and those nearer v
    regions = (
        [s for s in range(topo.n) if hops[u, s] < hops[v, s] and s != u],
        [s for s in range(topo.n) if hops[v, s] < hops[u, s] and s != v],
    )
    assert all(regions)
    tables = res.resident.shared_tables
    for shared in tables.values():
        disc_row = shared.disc[joiner]
        for region in regions:
            assert any(disc_row[s] >= 0 for s in region), (
                "repair closure failed to span both far ends of the graph"
            )


def test_two_joins_at_opposite_ends():
    topo = _base_topology(BASE)
    u, v, _hops = _farthest_pair(topo)
    # one joiner per end; the second one joins after the first repaired
    faults = FaultPlan(
        join_events=(
            SiteJoinEvent(time=15.0, links=((u, 0.5),)),
            SiteJoinEvent(time=40.0, links=((v, 0.5), (topo.n, 1.0))),
        )
    )
    res = run_experiment(replace(BASE, faults=faults))
    membership = res.resident.membership
    assert membership.verify_converged()
    # the second joiner is linked across the graph via the first
    second = topo.n + 1
    assert second in res.network.sites
