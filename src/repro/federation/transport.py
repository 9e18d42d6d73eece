"""Migration transports: how elites move between federation islands.

A federation (DESIGN.md §9) runs one full solve service per *island
process*; the only inter-island traffic is periodic top-K elite migration.
This module is the seam that traffic crosses, so the federation logic is
transport-agnostic: every transport builds one unidirectional channel per
directed topology edge before the islands fork, and hands each island an
*endpoint* exposing exactly two operations::

    endpoint.send(dst, message)          # never blocks the epoch loop
    endpoint.recv(src, timeout) -> message | None

Messages (:class:`MigrationMessage`) are either an ``"elites"`` batch —
the four packet columns of the sender's current top-K — or a ``"done"``
sentinel telling the receiver the sender will produce no more migrants
for that job (finished, cancelled or failed), which is what keeps the
per-epoch blocking collect deadlock-free.

Two transports, selected by name through :data:`TRANSPORTS`:

* ``"queue"`` — one ``multiprocessing.Queue`` per edge; messages are
  pickled whole.  The robust default.
* ``"slab"`` — per-edge rings of :class:`~repro.core.packet.SharedBatchSlab`
  slots: elite columns are written into fork-shared pages and only a tiny
  control tuple crosses the queue, so no array is ever pickled.
  Payloads wider than the preallocated ``slab_vars`` fall back to the
  pickled path transparently.

A cross-machine transport would be a third entry with the same two
endpoint operations.

All channels are created *before* the island processes fork (anonymous
mmaps and ``multiprocessing`` queues are inherited, never pickled), which
is why a transport instance is built once per federation, not per job.
"""

from __future__ import annotations

import queue as queue_module
import time
from dataclasses import dataclass

import numpy as np

from repro.core.packet import SharedBatchSlab
from repro.resilience import chaos

__all__ = [
    "MigrationMessage",
    "QueueTransport",
    "SlabTransport",
    "TOPOLOGIES",
    "TRANSPORTS",
    "in_neighbors",
    "make_transport",
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
    """Shared chaos hook of every endpoint ``send``: True drops it."""
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

    def close(self) -> None:  # queues are shared; nothing island-local
        pass


class QueueTransport:
    """Per-edge ``multiprocessing.Queue`` channels (pickled payloads)."""

    name = "queue"

    def __init__(self, ctx, islands: int, topology: str, **_: object) -> None:
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


class _SlabEdge:
    """One directed edge's shared-memory ring: S slab slots + two queues.

    ``free`` hands out writable slot indices (pre-filled with every
    slot); ``control`` carries either ``("slab", message-sans-columns,
    slot, rows, n)`` for payloads that fit the preallocated pages, or
    ``("inline", message)`` for oversized ones.  The receiver copies the
    columns out and recycles the slot, so a slot is never overwritten
    while readable (snapshot-then-recycle).
    """

    def __init__(self, ctx, depth: int, rows: int, slab_vars: int) -> None:
        self.slabs = [SharedBatchSlab(rows, slab_vars) for _ in range(depth)]
        self.control = ctx.Queue()
        self.free = ctx.Queue()
        for slot in range(depth):
            self.free.put(slot)


class _SlabEndpoint:
    """One island's view of a :class:`SlabTransport`.

    Dead-peer hardening (DESIGN.md §11): a dead destination's ring will
    never recycle its slots, so a blocking ``free.get()`` could wedge the
    sender forever.  Sends to a :meth:`mark_dead` island are counted
    no-ops, and slot acquisition polls with a short timeout, rechecking
    liveness each round — a peer marked dead *while* the sender waits
    converts the send into a drop instead of a deadlock.
    """

    def __init__(self, island: int, outgoing: dict, incoming: dict) -> None:
        self.island = island
        self._out = outgoing  # dst -> _SlabEdge
        self._in = incoming  # src -> _SlabEdge
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
        edge = self._out[dst]
        slab = edge.slabs[0]
        if (
            message.kind != "elites"
            or message.vectors.shape[0] > slab.batch_size
            or message.vectors.shape[1] > slab.n
        ):
            edge.control.put(("inline", message))
            return
        while True:  # ring full: poll, rechecking the peer's liveness
            try:
                slot = edge.free.get(timeout=0.05)
                break
            except queue_module.Empty:
                if dst in self._dead:
                    self.dropped += 1
                    return
        slab = edge.slabs[slot]
        rows, n = message.vectors.shape
        slab.vectors[:rows, :n] = message.vectors
        slab.energies[:rows] = message.energies
        slab.algorithms[:rows] = message.algorithms
        slab.operations[:rows] = message.operations
        header = MigrationMessage(
            message.job_id, message.src, message.epoch, message.kind
        )
        edge.control.put(("slab", header, slot, rows, n))

    def recv(self, src: int, timeout: float) -> MigrationMessage | None:
        edge = self._in[src]
        try:
            item = edge.control.get(timeout=timeout)
        except queue_module.Empty:
            return None
        if item[0] == "inline":
            return item[1]
        _, header, slot, rows, n = item
        slab = edge.slabs[slot]
        message = MigrationMessage(
            header.job_id,
            header.src,
            header.epoch,
            header.kind,
            vectors=slab.vectors[:rows, :n].copy(),
            energies=slab.energies[:rows].copy(),
            algorithms=slab.algorithms[:rows].copy(),
            operations=slab.operations[:rows].copy(),
        )
        edge.free.put(slot)  # columns copied out: slot is writable again
        return message

    def close(self) -> None:
        pass


class SlabTransport:
    """Shared-memory elite columns; only control tuples are pickled."""

    name = "slab"

    #: in-flight migration batches an edge can buffer before send blocks
    DEPTH = 4

    def __init__(
        self,
        ctx,
        islands: int,
        topology: str,
        *,
        migration_k: int = 4,
        slab_vars: int = 4096,
        **_: object,
    ) -> None:
        if migration_k < 1:
            raise ValueError("migration_k must be >= 1")
        if slab_vars < 1:
            raise ValueError("slab_vars must be >= 1")
        self.islands = islands
        self.topology = topology
        self._edges = {
            edge: _SlabEdge(ctx, self.DEPTH, migration_k, slab_vars)
            for edge in topology_edges(topology, islands)
        }

    def endpoint(self, island: int) -> _SlabEndpoint:
        outgoing = {d: e for (s, d), e in self._edges.items() if s == island}
        incoming = {s: e for (s, d), e in self._edges.items() if d == island}
        return _SlabEndpoint(island, outgoing, incoming)

    def close(self) -> None:
        for edge in self._edges.values():
            edge.control.close()
            edge.free.close()


#: registry the ``--transport`` flag resolves through
TRANSPORTS = {
    "queue": QueueTransport,
    "slab": SlabTransport,
}


def make_transport(name: str, ctx, islands: int, topology: str, **kwargs):
    """Build the named transport's channels (call before forking islands)."""
    try:
        cls = TRANSPORTS[name]
    except KeyError:
        raise ValueError(
            f"unknown transport {name!r} (known: {', '.join(TRANSPORTS)})"
        ) from None
    return cls(ctx, islands, topology, **kwargs)
