"""Migration transport seam: topologies, message flow, slab rings."""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.federation.transport import (
    MigrationMessage,
    QueueTransport,
    SlabTransport,
    in_neighbors,
    make_transport,
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

    def test_recv_timeout_returns_none(self):
        ctx = mp.get_context("fork")
        transport = QueueTransport(ctx, 2, "ring")
        assert transport.endpoint(1).recv(0, timeout=0.05) is None
        transport.close()


class TestSlabTransport:
    def test_roundtrip_through_shared_pages(self):
        ctx = mp.get_context("fork")
        transport = SlabTransport(ctx, 2, "ring", migration_k=4, slab_vars=16)
        sender, receiver = transport.endpoint(0), transport.endpoint(1)
        message = elites(src=0, rows=4, n=16)
        sender.send(1, message)
        received = receiver.recv(0, timeout=5.0)
        assert_same(message, received)
        transport.close()

    def test_slot_recycles_across_many_sends(self):
        ctx = mp.get_context("fork")
        transport = SlabTransport(ctx, 2, "ring", migration_k=2, slab_vars=8)
        sender, receiver = transport.endpoint(0), transport.endpoint(1)
        for epoch in range(3 * SlabTransport.DEPTH):
            message = elites(src=0, epoch=epoch, rows=2, n=8, seed=epoch)
            sender.send(1, message)
            assert_same(message, receiver.recv(0, timeout=5.0))
        transport.close()

    def test_oversized_payload_falls_back_inline(self):
        ctx = mp.get_context("fork")
        transport = SlabTransport(ctx, 2, "ring", migration_k=2, slab_vars=4)
        sender, receiver = transport.endpoint(0), transport.endpoint(1)
        message = elites(src=0, rows=2, n=64)  # wider than the slab pages
        sender.send(1, message)
        assert_same(message, receiver.recv(0, timeout=5.0))
        transport.close()

    def test_done_sentinel_travels_inline(self):
        ctx = mp.get_context("fork")
        transport = SlabTransport(ctx, 2, "ring", migration_k=2, slab_vars=8)
        transport.endpoint(0).send(1, MigrationMessage.done("j", 0, -1))
        received = transport.endpoint(1).recv(0, timeout=5.0)
        assert received.kind == "done" and received.vectors is None
        transport.close()


class TestRegistry:
    def test_make_transport_resolves_names(self):
        ctx = mp.get_context("fork")
        assert isinstance(make_transport("queue", ctx, 2, "ring"), QueueTransport)
        slab = make_transport("slab", ctx, 2, "ring", migration_k=2, slab_vars=8)
        assert isinstance(slab, SlabTransport)

    def test_unknown_transport_raises(self):
        ctx = mp.get_context("fork")
        with pytest.raises(ValueError, match="unknown transport"):
            make_transport("carrier-pigeon", ctx, 2, "ring")

    def test_socket_is_not_a_transport(self):
        ctx = mp.get_context("fork")
        with pytest.raises(ValueError, match="unknown transport 'socket'"):
            make_transport("socket", ctx, 2, "ring")
