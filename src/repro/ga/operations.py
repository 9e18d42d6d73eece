"""Genetic operations (§IV.A): how target solution vectors are produced.

Each operation maps zero, one or two rank-selected parents from a solution
pool to a new target vector:

* ``Mutation``     — flip each bit of one parent with small probability p.
* ``Crossover``    — per-bit random mix of two parents from the same pool.
* ``Xrossover``    — crossover of one parent from this pool and one from the
  ring-neighbour pool (§IV.B, the island-model search-space bridge).
* ``Zero`` / ``One`` — write 0 (resp. 1) to each bit with probability p.
* ``IntervalZero`` — zero out one random cyclic segment of random length.
* ``Best``         — the pool's best vector as-is.
* ``Random``       — a fresh uniform random vector (pool-independent).

All operations draw from the host Mersenne-twister generator; the device
xorshift lanes are never involved in target generation, matching the paper's
host/device split.

Two generation paths (DESIGN.md §5):

* scalar :meth:`TargetGenerator.generate` — one vector per call, the
  reference implementation kept for tests/examples;
* columnar :meth:`TargetGenerator.generate_batch` — all ``B`` targets of a
  launch produced group-wise, one vectorized ``(g, n)`` pass per
  :class:`GeneticOp` present in the batch.  The canonical RNG draw order is
  fixed and documented there; it is *not* the scalar order, so the two
  paths agree bit-exactly only for draw-free operations (Best) and
  single-block draws (Random) — elsewhere equivalence is distributional
  (``tests/ga/test_batch_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.packet import GeneticOp
from repro.core.rng import random_bits
from repro.ga.pool import SolutionPool
from repro.utils.validation import check_probability

__all__ = ["OperationParams", "TargetGenerator"]


def _bernoulli_mask(rng: np.random.Generator, p: float, shape) -> np.ndarray:
    """Bernoulli(*p*) uint8 mask (0/1), shared by both generation paths.

    Drawn as 32-bit floats — half the raw Twister words of float64 and
    quantizing *p* at 2⁻²⁴, far below anything a search heuristic can
    resolve.  The bool compare is viewed as uint8 (same buffer) so masks
    compose with the 0/1 solution vectors via bit ops, no casting copies.
    """
    return (rng.random(shape, dtype=np.float32) < np.float32(p)).view(np.uint8)


@dataclass(frozen=True)
class OperationParams:
    """Probabilities/sizes of the stochastic operations (paper defaults)."""

    #: per-bit flip probability of Mutation (paper: "say 1/8")
    mutation_p: float = 0.125
    #: per-bit write probability of Zero and One
    zero_p: float = 0.125
    one_p: float = 0.125
    #: minimum cyclic segment length of IntervalZero (paper: 32)
    interval_min: int = 32

    def __post_init__(self) -> None:
        check_probability(self.mutation_p, "mutation_p")
        check_probability(self.zero_p, "zero_p")
        check_probability(self.one_p, "one_p")
        if self.interval_min < 1:
            raise ValueError("interval_min must be >= 1")


class TargetGenerator:
    """Applies genetic operations to pools to produce target vectors."""

    def __init__(self, n: int, params: OperationParams | None = None) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self.params = params or OperationParams()

    # -- individual operations ------------------------------------------------
    def mutation(self, parent: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Flip each bit with probability ``mutation_p``."""
        return parent ^ _bernoulli_mask(rng, self.params.mutation_p, self.n)

    def crossover(
        self, a: np.ndarray, b: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Per-bit uniform mix of two parents."""
        take_b = random_bits(rng, self.n)
        # a where the coin is 0, b where it is 1 — pure uint8 bit algebra
        return a ^ ((a ^ b) & take_b)

    def zero(self, parent: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Write 0 to each bit with probability ``zero_p``."""
        return parent & (_bernoulli_mask(rng, self.params.zero_p, self.n) ^ 1)

    def one(self, parent: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Write 1 to each bit with probability ``one_p``."""
        return parent | _bernoulli_mask(rng, self.params.one_p, self.n)

    def interval_zero(self, parent: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Zero out a random cyclic segment of length in [interval_min, n/2].

        The segment wraps around, consistent with the cyclic bit layout used
        by CyclicMin.
        """
        lo, hi = self._interval_bounds()
        length = int(rng.integers(lo, hi + 1))
        start = int(rng.integers(self.n))
        out = parent.copy()
        positions = (start + np.arange(length)) % self.n
        out[positions] = 0
        return out

    def random_vector(self, rng: np.random.Generator) -> np.ndarray:
        """Fresh uniform random vector."""
        return random_bits(rng, self.n)

    def _interval_bounds(self) -> tuple[int, int]:
        lo = min(self.params.interval_min, max(1, self.n // 2))
        hi = max(lo, self.n // 2)
        return lo, hi

    # -- batch operations -------------------------------------------------------
    # Each *_batch method is the (g, n) masked-array form of the scalar
    # operation above.  Parent matrices come from SolutionPool.select_parents
    # (one rng.random(g) draw each); per-bit masks are one rng.random((g, n))
    # draw.  Rows are independent: row i of the output depends only on row i
    # of the parents and row i of the mask.

    def mutation_batch(self, parents: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Batch Mutation: flip each bit with probability ``mutation_p``."""
        return parents ^ _bernoulli_mask(rng, self.params.mutation_p, parents.shape)

    def crossover_batch(
        self, a: np.ndarray, b: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Batch Crossover: per-bit uniform mix of two parent matrices."""
        take_b = random_bits(rng, a.shape)
        return a ^ ((a ^ b) & take_b)

    def zero_batch(self, parents: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Batch Zero: write 0 to each bit with probability ``zero_p``."""
        return parents & (_bernoulli_mask(rng, self.params.zero_p, parents.shape) ^ 1)

    def one_batch(self, parents: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Batch One: write 1 to each bit with probability ``one_p``."""
        return parents | _bernoulli_mask(rng, self.params.one_p, parents.shape)

    def interval_zero_batch(
        self, parents: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Batch IntervalZero: one random cyclic segment zeroed per row.

        Draw order: all segment lengths first (one ``integers`` call), then
        all start positions (one ``integers`` call) — the batch transpose of
        the scalar per-row (length, start) order.
        """
        g, n = parents.shape
        lo, hi = self._interval_bounds()
        lengths = rng.integers(lo, hi + 1, size=g)
        starts = rng.integers(n, size=g)
        out = parents.copy()
        # a segment is at most n/2 long, so it wraps past the end once
        for row, start, stop in zip(out, starts.tolist(), (starts + lengths).tolist()):
            row[start:stop] = 0
            if stop > n:
                row[: stop - n] = 0
        return out

    def random_batch(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Batch Random: ``(count, n)`` fresh uniform bits in one draw."""
        return random_bits(rng, (count, self.n))

    # -- dispatch ---------------------------------------------------------------
    def generate(
        self,
        op: GeneticOp,
        pool: SolutionPool,
        neighbor_pool: SolutionPool | None,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Produce a target vector with operation *op* (scalar reference path).

        ``neighbor_pool`` is required for Xrossover; passing None degrades
        Xrossover to an in-pool Crossover (single-pool configurations).
        """
        if op == GeneticOp.MUTATION:
            return self.mutation(pool.select_vector(rng), rng)
        if op == GeneticOp.CROSSOVER:
            return self.crossover(
                pool.select_vector(rng), pool.select_vector(rng), rng
            )
        if op == GeneticOp.XROSSOVER:
            other = neighbor_pool if neighbor_pool is not None else pool
            return self.crossover(
                pool.select_vector(rng), other.select_vector(rng), rng
            )
        if op == GeneticOp.ZERO:
            return self.zero(pool.select_vector(rng), rng)
        if op == GeneticOp.ONE:
            return self.one(pool.select_vector(rng), rng)
        if op == GeneticOp.INTERVALZERO:
            return self.interval_zero(pool.select_vector(rng), rng)
        if op == GeneticOp.BEST:
            return pool.vectors[0].copy()
        if op == GeneticOp.RANDOM:
            return self.random_vector(rng)
        raise ValueError(f"unknown genetic operation: {op!r}")

    def generate_batch(
        self,
        operations: np.ndarray,
        pool: SolutionPool,
        neighbor_pool: SolutionPool | None,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Produce all target vectors of a launch group-wise (columnar path).

        *operations* is the batch's operation column (one
        :class:`GeneticOp` code per lane); the result is the matching
        ``(B, n)`` target matrix.

        Canonical RNG draw order (DESIGN.md §5): operation groups are
        processed in **ascending enum value** (Random < Best < Mutation <
        Crossover < Xrossover < Zero < One < IntervalZero), regardless of
        lane order; within a group, lanes keep batch order.  Per group the
        draws are: parent ranks (one ``rng.random(g)`` per parent matrix,
        first-parent before second-parent), then the operation's own masks
        in the orders documented on the ``*_batch`` methods.  Best draws
        nothing; Random draws one ``(g, n)`` bit block.
        """
        operations = np.asarray(operations, dtype=np.uint8)
        if operations.ndim != 1:
            raise ValueError("operations must be a 1-D op-code column")
        out = np.empty((operations.size, self.n), dtype=np.uint8)
        # a launch is a few dozen lanes: grouping them in Python costs less
        # than a NumPy pass per group
        groups: dict[int, list[int]] = {}
        for lane, code in enumerate(operations.tolist()):
            groups.setdefault(code, []).append(lane)
        for code in sorted(groups):  # ascending enum value
            rows = groups[code]
            out[rows] = self._generate_group(GeneticOp(code), len(rows), pool, neighbor_pool, rng)
        return out

    def _generate_group(
        self,
        op: GeneticOp,
        count: int,
        pool: SolutionPool,
        neighbor_pool: SolutionPool | None,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One vectorized ``(count, n)`` pass for a same-op lane group."""
        if op == GeneticOp.MUTATION:
            return self.mutation_batch(pool.select_parents(rng, count), rng)
        if op == GeneticOp.CROSSOVER:
            a = pool.select_parents(rng, count)
            b = pool.select_parents(rng, count)
            return self.crossover_batch(a, b, rng)
        if op == GeneticOp.XROSSOVER:
            other = neighbor_pool if neighbor_pool is not None else pool
            a = pool.select_parents(rng, count)
            b = other.select_parents(rng, count)
            return self.crossover_batch(a, b, rng)
        if op == GeneticOp.ZERO:
            return self.zero_batch(pool.select_parents(rng, count), rng)
        if op == GeneticOp.ONE:
            return self.one_batch(pool.select_parents(rng, count), rng)
        if op == GeneticOp.INTERVALZERO:
            return self.interval_zero_batch(pool.select_parents(rng, count), rng)
        if op == GeneticOp.BEST:
            return np.repeat(pool.vectors[:1], count, axis=0)
        if op == GeneticOp.RANDOM:
            return self.random_batch(count, rng)
        raise ValueError(f"unknown genetic operation: {op!r}")
