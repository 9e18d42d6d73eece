"""Adaptive strategy selection (§IV.A): the 5 %/95 % rule.

The host picks the main search algorithm and genetic operation for each new
packet as follows: with small probability (5 %) choose uniformly from the
full strategy set (exploration); otherwise read a uniformly random row of
the solution pool and reuse the strategy recorded there (exploitation).
Because pool rows record the strategies that *produced* good solutions,
successful strategies are automatically selected more often — no explicit
scores or decay parameters.

The columnar path (:meth:`AdaptiveSelector.select_batch`) draws a whole
launch's strategy columns at once: per column, one explore-coin vector, one
pool-row vector and one uniform-fallback vector (DESIGN.md §5 documents the
order).  The scalar methods are kept as the reference path; both implement
the same per-lane distribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.packet import GeneticOp, MainAlgorithm
from repro.ga.pool import SolutionPool
from repro.utils.validation import check_probability

__all__ = ["AdaptiveSelector", "SelectionCounters"]


@dataclass
class SelectionCounters:
    """Execution counts per strategy (the raw data behind Table V)."""

    algorithms: dict[MainAlgorithm, int] = field(
        default_factory=lambda: {a: 0 for a in MainAlgorithm}
    )
    operations: dict[GeneticOp, int] = field(
        default_factory=lambda: {o: 0 for o in GeneticOp}
    )

    def record(self, algorithm: MainAlgorithm, operation: GeneticOp) -> None:
        """Count one packet generation."""
        self.algorithms[algorithm] += 1
        self.operations[operation] += 1

    def record_batch(self, algorithms: np.ndarray, operations: np.ndarray) -> None:
        """Count a whole batch of generations from its strategy columns.

        One ``np.bincount`` per column — no per-packet Python loop.  Codes
        outside the enum ranges raise, like the per-packet enum
        construction they replace.
        """
        alg_counts = np.bincount(
            np.asarray(algorithms, dtype=np.intp), minlength=len(MainAlgorithm)
        )
        op_counts = np.bincount(
            np.asarray(operations, dtype=np.intp), minlength=len(GeneticOp)
        )
        if alg_counts[len(MainAlgorithm) :].any():
            raise ValueError("algorithm column contains codes outside MainAlgorithm")
        if op_counts[len(GeneticOp) :].any():
            raise ValueError("operation column contains codes outside GeneticOp")
        for a in MainAlgorithm:
            self.algorithms[a] += int(alg_counts[int(a)])
        for o in GeneticOp:
            self.operations[o] += int(op_counts[int(o)])

    def merge(self, other: "SelectionCounters") -> None:
        """Accumulate counts from another counter (per-pool → per-run)."""
        for a, c in other.algorithms.items():
            self.algorithms[a] += c
        for o, c in other.operations.items():
            self.operations[o] += c

    def algorithm_frequencies(self) -> dict[MainAlgorithm, float]:
        """Normalized execution frequencies (sum to 1, or all-zero)."""
        total = sum(self.algorithms.values())
        if total == 0:
            return {a: 0.0 for a in self.algorithms}
        return {a: c / total for a, c in self.algorithms.items()}

    def operation_frequencies(self) -> dict[GeneticOp, float]:
        """Normalized execution frequencies (sum to 1, or all-zero)."""
        total = sum(self.operations.values())
        if total == 0:
            return {o: 0.0 for o in self.operations}
        return {o: c / total for o, c in self.operations.items()}


def _code_tables(allowed: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The uint8 codes of a strategy set, and a 256-entry table flagging
    them, so a pool column's codes are checked by one gather."""
    codes = np.array([int(x) for x in allowed], dtype=np.uint8)
    flags = np.zeros(256, dtype=bool)
    flags[codes] = True
    return codes, flags


class AdaptiveSelector:
    """Selects (algorithm, operation) pairs for new packets."""

    def __init__(
        self,
        algorithm_set: tuple[MainAlgorithm, ...] = tuple(MainAlgorithm),
        operation_set: tuple[GeneticOp, ...] = tuple(GeneticOp),
        explore_probability: float = 0.05,
    ) -> None:
        if not algorithm_set:
            raise ValueError("algorithm_set must be non-empty")
        if not operation_set:
            raise ValueError("operation_set must be non-empty")
        self.algorithm_set = tuple(algorithm_set)
        self.operation_set = tuple(operation_set)
        self.explore_probability = check_probability(
            explore_probability, "explore_probability"
        )
        self._algorithm_codes = _code_tables(self.algorithm_set)
        self._operation_codes = _code_tables(self.operation_set)

    def select_algorithm(
        self, pool: SolutionPool, rng: np.random.Generator
    ) -> MainAlgorithm:
        """5 % uniform exploration / 95 % copy from a random pool row."""
        if rng.random() >= self.explore_probability:
            row = pool.uniform_row(rng)
            candidate = MainAlgorithm(int(pool.algorithms[row]))
            if candidate in self.algorithm_set:
                return candidate
            # a restricted selector reading a foreign pool falls back to
            # exploration rather than running a disallowed algorithm
        return self.algorithm_set[int(rng.integers(len(self.algorithm_set)))]

    def select_operation(
        self, pool: SolutionPool, rng: np.random.Generator
    ) -> GeneticOp:
        """5 % uniform exploration / 95 % copy from a random pool row."""
        if rng.random() >= self.explore_probability:
            row = pool.uniform_row(rng)
            candidate = GeneticOp(int(pool.operations[row]))
            if candidate in self.operation_set:
                return candidate
        return self.operation_set[int(rng.integers(len(self.operation_set)))]

    # -- columnar path ---------------------------------------------------------
    def _select_column(
        self,
        pool_column: np.ndarray,
        tables: tuple[np.ndarray, np.ndarray],
        pool_capacity: int,
        rng: np.random.Generator,
        count: int,
    ) -> np.ndarray:
        """One strategy column for *count* lanes, three vectorized draws.

        Canonical draw order: explore coins ``rng.random(count)``, pool
        rows ``rng.integers(capacity, size=count)``, uniform fallbacks
        ``rng.integers(len(allowed), size=count)``.  Unlike the scalar
        path the fallback draw always happens (unused lanes discard it) —
        the per-lane distribution is identical, the stream consumption is
        not.  *tables* are the allowed codes and the 256-entry
        allowed-code flags of :func:`_code_tables`.
        """
        allowed_codes, allowed = tables
        coins = rng.random(count)
        rows = rng.integers(pool_capacity, size=count)
        fallback = rng.integers(allowed_codes.size, size=count)
        from_pool = pool_column[rows]
        exploit = (coins >= self.explore_probability) & allowed[from_pool]
        return np.where(exploit, from_pool, allowed_codes[fallback])

    def select_batch(
        self, pool: SolutionPool, rng: np.random.Generator, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Strategy columns ``(algorithms, operations)`` for a whole batch.

        The algorithm column is drawn first, then the operation column —
        the batch transpose of the scalar per-packet (algorithm, operation)
        order.
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        algorithms = self._select_column(
            pool.algorithms, self._algorithm_codes, pool.capacity, rng, count
        )
        operations = self._select_column(
            pool.operations, self._operation_codes, pool.capacity, rng, count
        )
        return algorithms, operations
