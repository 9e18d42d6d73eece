"""Migration transport: how elites move between federation islands.

A federation (DESIGN.md §9) runs one full solve service per *island
process*; the only inter-island traffic is periodic top-K elite migration
(the paper's host-side pool ring, lifted to processes).  That traffic
crosses one ``multiprocessing.Queue`` per directed topology edge, built
before the islands fork, and each island sees it through an *endpoint*
exposing exactly two operations::

    endpoint.send(dst, message)          # never blocks the epoch loop
    endpoint.recv(src, timeout) -> message | None

Messages (:class:`MigrationMessage`) are either an ``"elites"`` batch —
the four packet columns of the sender's current top-K, pickled whole — or
a ``"done"`` sentinel telling the receiver the sender will produce no more
migrants for that job (finished, cancelled or failed), which is what keeps
the per-epoch blocking collect deadlock-free.

All queues are created *before* the island processes fork
(``multiprocessing`` queues are inherited, never pickled), which is why
the transport is built once per federation, not per job.
"""

from __future__ import annotations

import queue as queue_module
import time
from dataclasses import dataclass

import numpy as np

from repro.resilience import chaos

__all__ = [
    "MigrationMessage",
    "QueueTransport",
    "TOPOLOGIES",
    "in_neighbors",
    "out_neighbors",
    "topology_edges",
]

#: supported island topologies
TOPOLOGIES = ("ring", "all")


def topology_edges(name: str, islands: int) -> list[tuple[int, int]]:
    """Directed migration edges ``(src, dst)`` of a named topology.

    ``"ring"`` sends island *i*'s elites to island ``(i+1) % N`` (the
    paper's Fig. 2 cyclic order, lifted from pools to processes);
    ``"all"`` is all-to-all.  A single island has no edges in either.
    """
    if name not in TOPOLOGIES:
        raise ValueError(
            f"unknown topology {name!r} (known: {', '.join(TOPOLOGIES)})"
        )
    if islands < 1:
        raise ValueError("islands must be >= 1")
    if islands == 1:
        return []
    if name == "ring":
        return [(i, (i + 1) % islands) for i in range(islands)]
    return [
        (i, j) for i in range(islands) for j in range(islands) if i != j
    ]


def out_neighbors(name: str, islands: int, island: int) -> list[int]:
    """Islands *island* sends elites to, in ascending id order."""
    return sorted(d for s, d in topology_edges(name, islands) if s == island)


def in_neighbors(name: str, islands: int, island: int) -> list[int]:
    """Islands *island* receives elites from, in ascending id order.

    The epoch loop collects sources in exactly this order, which is part
    of the migration determinism contract (DESIGN.md §9): insertion order
    is a pure function of the topology, never of message arrival timing.
    """
    return sorted(s for s, d in topology_edges(name, islands) if d == island)


@dataclass(frozen=True)
class MigrationMessage:
    """One unit of inter-island traffic.

    ``kind="elites"`` carries the four packet columns of the sender's
    top-K (``rows × n`` vectors plus per-row energies/strategies);
    ``kind="done"`` carries no columns and marks the sender drained for
    *job_id* — the receiver stops waiting for it at every later epoch.
    """

    job_id: str
    src: int
    epoch: int
    kind: str  # "elites" | "done"
    vectors: np.ndarray | None = None
    energies: np.ndarray | None = None
    algorithms: np.ndarray | None = None
    operations: np.ndarray | None = None

    @classmethod
    def done(cls, job_id: str, src: int, epoch: int) -> "MigrationMessage":
        return cls(job_id, src, epoch, "done")


def _chaos_send_intercepts(message: MigrationMessage) -> bool:
    """Chaos hook of an endpoint ``send`` to a live peer: True drops it."""
    if chaos.fire("transport_delay", who=message.src):
        time.sleep(chaos.delay_seconds())
    return chaos.fire("transport_drop", who=message.src)


class _QueueEndpoint:
    """One island's view of a :class:`QueueTransport`.

    Dead-peer hardening (DESIGN.md §11): after :meth:`mark_dead`, sends
    to that island become counted no-ops — a survivor must never block
    (or grow a queue unboundedly) publishing elites to a peer that will
    never drain them.
    """

    def __init__(self, island: int, outgoing: dict, incoming: dict) -> None:
        self.island = island
        self._out = outgoing  # dst -> Queue
        self._in = incoming  # src -> Queue
        self._dead: set[int] = set()
        #: messages dropped because the destination was marked dead
        #: (or by chaos transport_drop injection)
        self.dropped = 0

    def mark_dead(self, island: int) -> None:
        """Stop sending to *island*; subsequent sends count as dropped."""
        self._dead.add(island)

    def send(self, dst: int, message: MigrationMessage) -> None:
        if dst in self._dead or _chaos_send_intercepts(message):
            self.dropped += 1
            return
        self._out[dst].put(message)

    def recv(self, src: int, timeout: float) -> MigrationMessage | None:
        try:
            return self._in[src].get(timeout=timeout)
        except queue_module.Empty:
            return None


class QueueTransport:
    """Per-edge ``multiprocessing.Queue`` channels (pickled payloads)."""

    def __init__(self, ctx, islands: int, topology: str) -> None:
        self.islands = islands
        self.topology = topology
        self._queues = {
            edge: ctx.Queue() for edge in topology_edges(topology, islands)
        }

    def endpoint(self, island: int) -> _QueueEndpoint:
        outgoing = {d: q for (s, d), q in self._queues.items() if s == island}
        incoming = {s: q for (s, d), q in self._queues.items() if d == island}
        return _QueueEndpoint(island, outgoing, incoming)

    def close(self) -> None:
        for q in self._queues.values():
            q.close()
