"""Distributed island federation: process-per-island sharding with
periodic elite migration (DESIGN.md §9).

:class:`Federation` owns N island processes — each a full
:class:`~repro.service.SolveService` over its own fleet — fans jobs out
as per-island shards, exchanges top-K elites through per-edge
queues every ``migration_period`` launches, and merges the shard
results into one :class:`~repro.solver.result.SolveResult`.
"""

from repro.federation.federation import (
    PROCESS_NAME_PREFIX,
    Federation,
    FederationError,
    FederationHandle,
    solve,
)
from repro.federation.transport import TOPOLOGIES, MigrationMessage
from repro.federation.worker import SOLVER_REGISTRY, island_seed

__all__ = [
    "Federation",
    "FederationError",
    "FederationHandle",
    "MigrationMessage",
    "PROCESS_NAME_PREFIX",
    "SOLVER_REGISTRY",
    "TOPOLOGIES",
    "island_seed",
    "solve",
]
