"""Dead-peer transport hardening: sends to a lost island are counted
no-ops, so a survivor never blocks or grows a queue publishing elites to
a peer that will never drain them."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.federation.transport import MigrationMessage, QueueTransport
from repro.resilience import ChaosConfig, chaos
from tests.resilience.conftest import CHAOS_SEED

ROWS, N = 2, 8


def elites(src: int = 0, epoch: int = 0) -> MigrationMessage:
    rng = np.random.default_rng(epoch)
    return MigrationMessage(
        "job",
        src,
        epoch,
        "elites",
        vectors=rng.integers(0, 2, size=(ROWS, N), dtype=np.uint8),
        energies=rng.integers(-50, 0, size=ROWS, dtype=np.int64),
        algorithms=rng.integers(0, 5, size=ROWS, dtype=np.uint8),
        operations=rng.integers(0, 8, size=ROWS, dtype=np.uint8),
    )


@pytest.fixture
def ctx():
    return multiprocessing.get_context("fork")


class TestQueueDeadPeer:
    def test_send_to_dead_island_is_a_counted_noop(self, ctx):
        transport = QueueTransport(ctx, 2, "ring")
        sender, receiver = transport.endpoint(0), transport.endpoint(1)
        sender.mark_dead(1)
        for epoch in range(3):
            sender.send(1, elites(src=0, epoch=epoch))
        assert sender.dropped == 3
        assert receiver.recv(0, timeout=0.1) is None
        transport.close()

    def test_live_peer_still_receives(self, ctx):
        transport = QueueTransport(ctx, 3, "all")
        sender = transport.endpoint(0)
        receiver = transport.endpoint(2)
        sender.mark_dead(1)
        sender.send(1, elites())  # dropped
        sender.send(2, elites())  # delivered
        message = receiver.recv(0, timeout=5.0)
        assert message is not None and message.kind == "elites"
        assert sender.dropped == 1
        transport.close()

    def test_chaos_transport_drop_counts_as_dropped(self, ctx):
        chaos.install(
            ChaosConfig(rates={"transport_drop": 1.0}, seed=CHAOS_SEED)
        )
        transport = QueueTransport(ctx, 2, "ring")
        sender, receiver = transport.endpoint(0), transport.endpoint(1)
        sender.send(1, elites())
        assert sender.dropped == 1
        assert receiver.recv(0, timeout=0.1) is None
        transport.close()
