"""Packets: the host ↔ device communication protocol (paper §III.C, Table I).

A packet carries four fields: a solution vector, its energy (void on the way
to the device), the main search algorithm to run, and the genetic operation
that produced the target vector.  The device overwrites the vector/energy
fields with the best solution found and returns the packet unchanged in the
algorithm/operation fields, which is what lets the host attribute successes
to strategies (the adaptive mechanism of §IV.A).

Two representations:

* :class:`PacketBatch` — structure-of-arrays buffer for a whole kernel
  launch, and since the columnar host refactor (DESIGN.md §5) the *only*
  interchange type on the round path: generation builds batches straight
  from ``(B, n)`` target matrices (:meth:`PacketBatch.void`) and collection
  folds result batches into pools column-wise.  Transfers between host and
  virtual GPU move only these contiguous arrays (the buffer-protocol idiom
  of HPC message passing), never Python objects.
* :class:`Packet` — host-side dataclass view of one row, kept as a thin
  compatibility surface for tests, examples and scalar reference paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

__all__ = [
    "MainAlgorithm",
    "GeneticOp",
    "Packet",
    "PacketBatch",
    "VOID_ENERGY",
]

#: Sentinel stored in the energy field of host→device packets ("void").
VOID_ENERGY = np.iinfo(np.int64).max


class MainAlgorithm(IntEnum):
    """The five main search algorithms of §III.A (batch-search phase)."""

    MAXMIN = 0
    CYCLICMIN = 1
    RANDOMMIN = 2
    POSITIVEMIN = 3
    TWONEIGHBOR = 4


class GeneticOp(IntEnum):
    """The eight genetic operations of §IV.A (plus inter-pool Xrossover)."""

    RANDOM = 0
    BEST = 1
    MUTATION = 2
    CROSSOVER = 3
    XROSSOVER = 4
    ZERO = 5
    ONE = 6
    INTERVALZERO = 7


@dataclass
class Packet:
    """Host-side view of one packet (Table I).

    ``energy`` is :data:`VOID_ENERGY` on host→device packets because the
    host never computes energies (§III.C).
    """

    vector: np.ndarray
    energy: int
    algorithm: MainAlgorithm
    operation: GeneticOp

    def is_void(self) -> bool:
        """True for host→device packets whose energy field is unset."""
        return self.energy == VOID_ENERGY

    def copy(self) -> "Packet":
        """Deep copy (the vector buffer is duplicated)."""
        return Packet(
            self.vector.copy(), self.energy, self.algorithm, self.operation
        )


class PacketBatch:
    """Structure-of-arrays buffer holding ``B`` packets for one launch."""

    __slots__ = ("vectors", "energies", "algorithms", "operations")

    def __init__(
        self,
        vectors: np.ndarray,
        energies: np.ndarray,
        algorithms: np.ndarray,
        operations: np.ndarray,
    ) -> None:
        vectors = np.ascontiguousarray(vectors, dtype=np.uint8)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be (B, n), got {vectors.shape}")
        b = vectors.shape[0]
        energies = np.ascontiguousarray(energies, dtype=np.int64)
        algorithms = np.ascontiguousarray(algorithms, dtype=np.uint8)
        operations = np.ascontiguousarray(operations, dtype=np.uint8)
        for name, arr in (
            ("energies", energies),
            ("algorithms", algorithms),
            ("operations", operations),
        ):
            if arr.shape != (b,):
                raise ValueError(f"{name} must have shape ({b},), got {arr.shape}")
        self.vectors = vectors
        self.energies = energies
        self.algorithms = algorithms
        self.operations = operations

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def n(self) -> int:
        """Solution vector length."""
        return self.vectors.shape[1]

    @classmethod
    def void(
        cls,
        vectors: np.ndarray,
        algorithms: np.ndarray,
        operations: np.ndarray,
    ) -> "PacketBatch":
        """Host→device batch from columnar fields; energies set to void.

        The columnar generation path builds batches directly from the
        target matrix and strategy columns — no intermediate
        :class:`Packet` objects (the host never computes energies, §III.C).
        """
        energies = np.full(
            np.asarray(vectors).shape[0], VOID_ENERGY, dtype=np.int64
        )
        return cls(vectors, energies, algorithms, operations)

    @classmethod
    def from_packets(cls, packets) -> "PacketBatch":
        """Pack host-side :class:`Packet` objects into one buffer."""
        packets = list(packets)
        if not packets:
            raise ValueError("cannot build an empty PacketBatch")
        vectors = np.stack([p.vector for p in packets]).astype(np.uint8)
        energies = np.array([p.energy for p in packets], dtype=np.int64)
        algorithms = np.array([int(p.algorithm) for p in packets], dtype=np.uint8)
        operations = np.array([int(p.operation) for p in packets], dtype=np.uint8)
        return cls(vectors, energies, algorithms, operations)

    def to_packets(self) -> list[Packet]:
        """Unpack into host-side :class:`Packet` views (vectors are copies)."""
        return [
            Packet(
                self.vectors[i].copy(),
                int(self.energies[i]),
                MainAlgorithm(int(self.algorithms[i])),
                GeneticOp(int(self.operations[i])),
            )
            for i in range(len(self))
        ]

    def group_by_algorithm(self) -> dict[MainAlgorithm, np.ndarray]:
        """Row indices grouped by main search algorithm.

        Each group's rows share a straight/greedy/main schedule: the
        stepwise oracle runs one batch search per group, and a
        super-launch holds one cell per (device, algorithm) group, its
        cells of different algorithms sharing one main loop (DESIGN.md
        §12).
        """
        groups: dict[MainAlgorithm, np.ndarray] = {}
        for alg in np.unique(self.algorithms):
            groups[MainAlgorithm(int(alg))] = np.flatnonzero(
                self.algorithms == alg
            )
        return groups
