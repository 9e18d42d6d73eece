"""Solution pool (§IV.A): the per-GPU memory of good solutions.

A pool stores a fixed number of packets sorted by energy.  It is pre-filled
with random vectors at ``+∞`` (void) energy whose algorithm/operation fields
are initialized uniformly at random — this seeding is what bootstraps the
adaptive 5 %/95 % strategy selection.  A returning packet is inserted only
if it beats the worst stored solution, which it replaces.

Rank-biased parent selection follows the paper exactly: draw ``r`` uniform
in [0, 1) and take the ``(⌊r³·m⌋+1)``-th best solution, i.e. index
``⌊r³·m⌋`` — the best entry is chosen with probability ``m^{−1/3}``, far
above uniform ``1/m``.

Columnar data plane (DESIGN.md §5): the pool's storage *is* its interchange
format — four parallel arrays sorted by energy.  Batch callers never touch
:class:`~repro.core.packet.Packet` objects: :meth:`select_parents` returns a
rank-selected ``(count, n)`` parent matrix from one vectorized draw, and
:meth:`insert_batch` folds a whole launch's results in with one stable
sort-merge instead of ``B`` sequential worst-slot insertions.  The scalar
:meth:`insert` is kept as the reference implementation; the two are
equivalent (asserted by ``tests/ga/test_batch_equivalence.py``).

Hamming-distance work (``diversity()``, duplicate rejection) runs on
bit-packed rows — ``np.packbits`` + byte popcount — which is 8× smaller
than per-bit comparison and what a real implementation would keep resident.
"""

from __future__ import annotations

import numpy as np

from repro.core.packet import VOID_ENERGY, GeneticOp, MainAlgorithm, Packet
from repro.core.rng import random_bits

__all__ = ["SolutionPool"]

if hasattr(np, "bitwise_count"):  # numpy >= 2.0
    _popcount = np.bitwise_count
else:  # pragma: no cover - exercised only on numpy 1.x
    _POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _popcount(a: np.ndarray) -> np.ndarray:
        return _POPCOUNT_TABLE[a]


class SolutionPool:
    """Fixed-capacity, energy-sorted pool of packets."""

    __slots__ = (
        "capacity",
        "n",
        "vectors",
        "energies",
        "algorithms",
        "operations",
        "allow_duplicates",
        "_merge_vectors",
        "_merge_energies",
        "_merge_algorithms",
        "_merge_operations",
    )

    def __init__(
        self,
        capacity: int,
        n: int,
        rng: np.random.Generator,
        algorithm_set: tuple[MainAlgorithm, ...] = tuple(MainAlgorithm),
        operation_set: tuple[GeneticOp, ...] = tuple(GeneticOp),
        allow_duplicates: bool = True,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not algorithm_set or not operation_set:
            raise ValueError("algorithm_set and operation_set must be non-empty")
        self.capacity = capacity
        self.n = n
        self.allow_duplicates = allow_duplicates
        self.vectors = random_bits(rng, (capacity, n))
        self.energies = np.full(capacity, VOID_ENERGY, dtype=np.int64)
        alg_choices = np.array([int(a) for a in algorithm_set], dtype=np.uint8)
        op_choices = np.array([int(o) for o in operation_set], dtype=np.uint8)
        self.algorithms = rng.choice(alg_choices, size=capacity)
        self.operations = rng.choice(op_choices, size=capacity)
        # sort-merge scratch reused across insert_batch calls (sized
        # capacity + B on first use, regrown only for a larger batch)
        self._merge_vectors: np.ndarray | None = None
        self._merge_energies: np.ndarray | None = None
        self._merge_algorithms: np.ndarray | None = None
        self._merge_operations: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of stored packets (always the capacity — pools are
        pre-filled, matching §IV.A)."""
        return self.capacity

    @property
    def best_energy(self) -> int:
        """Energy of the best stored solution (void if none returned yet)."""
        return int(self.energies[0])

    @property
    def worst_energy(self) -> int:
        """Energy of the worst stored solution."""
        return int(self.energies[-1])

    def best_packet(self) -> Packet:
        """Copy of the best stored packet."""
        return self.packet_at(0)

    def packet_at(self, index: int) -> Packet:
        """Copy of the packet at sorted position *index* (0 = best)."""
        if not 0 <= index < self.capacity:
            raise IndexError(f"index {index} out of range for pool of {self.capacity}")
        return Packet(
            self.vectors[index].copy(),
            int(self.energies[index]),
            MainAlgorithm(int(self.algorithms[index])),
            GeneticOp(int(self.operations[index])),
        )

    # ------------------------------------------------------------------
    def insert(self, packet: Packet) -> bool:
        """Insert *packet* if it beats the worst stored solution.

        Keeps the arrays sorted by shifting the tail one slot down —
        O(capacity · n) worst case, negligible next to a batch search.
        Returns True when the packet was stored.  This is the scalar
        reference path; whole launches go through :meth:`insert_batch`.
        """
        energy = packet.energy
        if energy >= self.energies[-1]:
            return False
        if not self.allow_duplicates:
            candidates = np.flatnonzero(self.energies == energy)
            if candidates.size:
                packed = np.packbits(np.asarray(packet.vector, dtype=np.uint8))
                stored = np.packbits(self.vectors[candidates], axis=1)
                if np.any(np.all(stored == packed, axis=1)):
                    return False
        pos = int(np.searchsorted(self.energies, energy, side="right"))
        # shift (pos .. end-1] one slot toward the tail, dropping the worst
        self.vectors[pos + 1 :] = self.vectors[pos:-1]
        self.energies[pos + 1 :] = self.energies[pos:-1]
        self.algorithms[pos + 1 :] = self.algorithms[pos:-1]
        self.operations[pos + 1 :] = self.operations[pos:-1]
        self.vectors[pos] = packet.vector
        self.energies[pos] = energy
        self.algorithms[pos] = int(packet.algorithm)
        self.operations[pos] = int(packet.operation)
        return True

    def insert_batch(
        self,
        vectors: np.ndarray,
        energies: np.ndarray,
        algorithms: np.ndarray,
        operations: np.ndarray,
    ) -> int:
        """Fold a whole launch's results in with one stable sort-merge.

        Equivalent to calling :meth:`insert` on each row in order (same
        final pool content): candidates merge after pool rows of equal
        energy (the ``side="right"`` rule) and in batch order among
        themselves, which is exactly the tie-break of a stable sort over
        ``[pool rows..., batch rows...]``.  Returns the number of batch
        rows present in the pool afterwards (rows inserted then displaced
        by later rows of the same batch are not counted).
        """
        vectors = np.ascontiguousarray(vectors, dtype=np.uint8)
        energies = np.asarray(energies, dtype=np.int64)
        algorithms = np.asarray(algorithms, dtype=np.uint8)
        operations = np.asarray(operations, dtype=np.uint8)
        if vectors.ndim != 2 or vectors.shape[1] != self.n:
            raise ValueError(f"vectors must be (B, {self.n}), got {vectors.shape}")
        for name, column in (
            ("energies", energies),
            ("algorithms", algorithms),
            ("operations", operations),
        ):
            if column.shape != (vectors.shape[0],):
                raise ValueError(f"{name} must have one entry per vector row")
        # rows at or above the current worst can never survive the merge
        # (the pool's rows win every tie), so drop them up front
        keep = np.flatnonzero(energies < self.energies[-1])
        if keep.size == 0:
            return 0
        vectors = vectors[keep]
        energies = energies[keep]
        algorithms = algorithms[keep]
        operations = operations[keep]
        if not self.allow_duplicates:
            fresh = ~self._duplicate_mask(vectors, energies)
            if not np.all(fresh):
                vectors = vectors[fresh]
                energies = energies[fresh]
                algorithms = algorithms[fresh]
                operations = operations[fresh]
                if energies.size == 0:
                    return 0
        cap = self.capacity
        total = cap + energies.size
        if self._merge_energies is None or self._merge_energies.size < total:
            self._merge_vectors = np.empty((total, self.n), dtype=np.uint8)
            self._merge_energies = np.empty(total, dtype=np.int64)
            self._merge_algorithms = np.empty(total, dtype=np.uint8)
            self._merge_operations = np.empty(total, dtype=np.uint8)
        merged_energies = self._merge_energies[:total]
        merged_energies[:cap] = self.energies
        merged_energies[cap:] = energies
        order = np.argsort(merged_energies, kind="stable")[:cap]
        inserted = int(np.count_nonzero(order >= cap))
        if inserted == 0:
            return 0
        # gather through the scratch copies straight back into the pool
        # arrays — the scratch holds the pre-merge rows, so writing the
        # pool in place cannot clobber a row still to be read
        merged_vectors = self._merge_vectors[:total]
        merged_vectors[:cap] = self.vectors
        merged_vectors[cap:] = vectors
        merged_algorithms = self._merge_algorithms[:total]
        merged_algorithms[:cap] = self.algorithms
        merged_algorithms[cap:] = algorithms
        merged_operations = self._merge_operations[:total]
        merged_operations[:cap] = self.operations
        merged_operations[cap:] = operations
        np.take(merged_vectors, order, axis=0, out=self.vectors)
        np.take(merged_energies, order, out=self.energies)
        np.take(merged_algorithms, order, out=self.algorithms)
        np.take(merged_operations, order, out=self.operations)
        return inserted

    def _duplicate_mask(self, vectors: np.ndarray, energies: np.ndarray) -> np.ndarray:
        """True per candidate row duplicating (energy, vector) of a pool row
        or of an earlier candidate row — the batch analogue of the scalar
        duplicate check.

        Energy equality gates the expensive part: only (candidate, row)
        pairs with matching energies — typically a handful — get the
        bit-packed byte comparison, never the full B×capacity×n cross
        product."""
        k = vectors.shape[0]
        dup = np.zeros(k, dtype=bool)
        ci, pj = np.nonzero(energies[:, None] == self.energies[None, :])
        ii, jj = np.nonzero(
            (energies[:, None] == energies[None, :]) & np.tri(k, k=-1, dtype=bool)
        )
        if ci.size == 0 and ii.size == 0:
            return dup
        cand = np.packbits(vectors, axis=1)
        if ci.size:
            rows = np.unique(pj)
            pool = np.packbits(self.vectors[rows], axis=1)
            ci = ci[np.all(cand[ci] == pool[np.searchsorted(rows, pj)], axis=1)]
            dup[ci] = True
        if ii.size:
            # a row equal to ANY earlier candidate is dropped, even one
            # itself dropped — its twin duplicates the same original
            ii = ii[np.all(cand[ii] == cand[jj], axis=1)]
            dup[ii] = True
        return dup

    # ------------------------------------------------------------------
    def _rank(self, r):
        """The cubic rank bias ``r³ · m`` of a draw *r* (scalar or array),
        which the callers floor to a row index."""
        return r**3 * self.capacity

    def select_index(self, r: float) -> int:
        """Cubic rank-biased index: ``⌊r³ · m⌋`` for uniform ``r ∈ [0, 1)``."""
        if not 0.0 <= r < 1.0:
            raise ValueError(f"r must be in [0, 1), got {r}")
        return int(self._rank(r))

    def select_indices(self, r: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`select_index`: ``⌊r³ · m⌋`` element-wise."""
        r = np.asarray(r, dtype=np.float64)
        if r.size and not ((r >= 0.0) & (r < 1.0)).all():
            raise ValueError("all r must be in [0, 1)")
        return self._rank(r).astype(np.intp)

    def select_vector(self, rng: np.random.Generator) -> np.ndarray:
        """Rank-biased random parent vector (copy)."""
        return self.vectors[self.select_index(rng.random())].copy()

    def select_parents(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Rank-biased ``(count, n)`` parent matrix from ONE vectorized draw.

        Canonical batch draw: a single ``rng.random(count)`` call supplies
        every rank; row ``i`` of the result is the parent for lane ``i``.
        The rows are copies (fancy indexing), safe to mutate in place.
        The draw is in [0, 1) by construction, so unlike
        :meth:`select_indices` nothing is checked.
        """
        return self.vectors[self._rank(rng.random(count)).astype(np.intp)]

    def uniform_row(self, rng: np.random.Generator) -> int:
        """Uniformly random stored row index (used by adaptive selection)."""
        return int(rng.integers(self.capacity))

    def has_real_solutions(self) -> bool:
        """True once at least one search result has been inserted."""
        return self.energies[0] != VOID_ENERGY

    def reinitialize(self, rng: np.random.Generator) -> None:
        """Refill with random vectors at void energy (§IV.B restart)."""
        self.vectors = random_bits(rng, (self.capacity, self.n))
        self.energies.fill(VOID_ENERGY)

    def diversity(self) -> float | None:
        """Mean pairwise Hamming distance of the *returned* solutions.

        §IV.B's collapse signal: a pool full of relatives of one solution
        has low diversity.  Pre-filled random rows (void energy) are
        excluded; None when fewer than two real solutions are stored.

        Computed on bit-packed rows: XOR of ``⌈n/8⌉``-byte rows + popcount,
        8× less traffic than per-bit comparison (packbits zero-pads the
        last byte identically for every row, so padding never contributes).
        """
        real = np.flatnonzero(self.energies != VOID_ENERGY)
        if real.size < 2:
            return None
        packed = np.packbits(self.vectors[real], axis=1)
        m = packed.shape[0]
        diff = _popcount(packed[:, None, :] ^ packed[None, :, :]).sum(dtype=np.int64)
        return float(diff / (m * (m - 1)))
