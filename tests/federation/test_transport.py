"""Migration transport: topologies and per-edge queue message flow."""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.federation.transport import (
    MigrationMessage,
    QueueTransport,
    in_neighbors,
    out_neighbors,
    topology_edges,
)


def elites(job="j", src=0, epoch=0, rows=3, n=8, seed=0):
    rng = np.random.default_rng(seed)
    return MigrationMessage(
        job,
        src,
        epoch,
        "elites",
        vectors=rng.integers(0, 2, size=(rows, n)).astype(np.uint8),
        energies=rng.integers(-100, 0, size=rows).astype(np.int64),
        algorithms=rng.integers(0, 5, size=rows).astype(np.uint8),
        operations=rng.integers(0, 6, size=rows).astype(np.uint8),
    )


def assert_same(a: MigrationMessage, b: MigrationMessage) -> None:
    assert (a.job_id, a.src, a.epoch, a.kind) == (b.job_id, b.src, b.epoch, b.kind)
    assert np.array_equal(a.vectors, b.vectors)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.algorithms, b.algorithms)
    assert np.array_equal(a.operations, b.operations)


class TestTopologies:
    def test_ring_edges_are_cyclic(self):
        assert topology_edges("ring", 4) == [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_all_edges_are_every_ordered_pair(self):
        edges = topology_edges("all", 3)
        assert sorted(edges) == [
            (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1),
        ]

    def test_single_island_has_no_edges(self):
        assert topology_edges("ring", 1) == []
        assert topology_edges("all", 1) == []

    def test_two_island_ring_is_bidirectional(self):
        assert sorted(topology_edges("ring", 2)) == [(0, 1), (1, 0)]

    def test_neighbors_are_sorted(self):
        assert out_neighbors("all", 4, 2) == [0, 1, 3]
        assert in_neighbors("all", 4, 2) == [0, 1, 3]
        assert out_neighbors("ring", 3, 2) == [0]
        assert in_neighbors("ring", 3, 2) == [1]

    @pytest.mark.parametrize("islands", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("topology", ["ring", "all"])
    def test_neighbors_partition_the_edges(self, topology, islands):
        """Every directed edge is listed once, never a self-loop, and is
        exactly one out-neighbor and one in-neighbor entry."""
        edges = topology_edges(topology, islands)
        assert len(set(edges)) == len(edges)
        assert all(s != d for s, d in edges)
        outgoing = {
            (i, d)
            for i in range(islands)
            for d in out_neighbors(topology, islands, i)
        }
        incoming = {
            (s, i)
            for i in range(islands)
            for s in in_neighbors(topology, islands, i)
        }
        assert outgoing == set(edges) == incoming

    def test_unknown_topology_raises(self):
        with pytest.raises(ValueError, match="unknown topology"):
            topology_edges("torus", 4)


class TestQueueTransport:
    def test_roundtrip_preserves_columns(self):
        ctx = mp.get_context("fork")
        transport = QueueTransport(ctx, 2, "ring")
        sender, receiver = transport.endpoint(0), transport.endpoint(1)
        message = elites(src=0)
        sender.send(1, message)
        received = receiver.recv(0, timeout=5.0)
        assert_same(message, received)
        transport.close()

    def test_done_sentinel_carries_no_columns(self):
        ctx = mp.get_context("fork")
        transport = QueueTransport(ctx, 2, "ring")
        transport.endpoint(0).send(1, MigrationMessage.done("j", 0, -1))
        received = transport.endpoint(1).recv(0, timeout=5.0)
        assert received.kind == "done" and received.vectors is None
        transport.close()

    def test_edge_preserves_send_order(self):
        ctx = mp.get_context("fork")
        transport = QueueTransport(ctx, 2, "ring")
        sender, receiver = transport.endpoint(0), transport.endpoint(1)
        sent = [elites(src=0, epoch=e, seed=e) for e in range(8)]
        for message in sent:
            sender.send(1, message)
        for message in sent:
            assert_same(message, receiver.recv(0, timeout=5.0))
        transport.close()

    @pytest.mark.parametrize("topology", ["ring", "all"])
    def test_forked_island_sends_over_inherited_queue(self, topology):
        """The queues are built before the fork and inherited: elites a
        forked island sends arrive intact at the receiving endpoint."""
        ctx = mp.get_context("fork")
        transport = QueueTransport(ctx, 3, topology)
        message = elites(src=2, n=64)
        dst = out_neighbors(topology, 3, 2)[0]

        def island():
            transport.endpoint(2).send(dst, message)

        child = ctx.Process(target=island)
        child.start()
        received = transport.endpoint(dst).recv(2, timeout=10.0)
        child.join(10.0)
        assert child.exitcode == 0
        assert_same(message, received)
        transport.close()

    def test_recv_timeout_returns_none(self):
        ctx = mp.get_context("fork")
        transport = QueueTransport(ctx, 2, "ring")
        assert transport.endpoint(1).recv(0, timeout=0.05) is None
        transport.close()
