"""Launch execution below the solver: lanes, super-launches, virtual time.

One round-loop policy drives every solve: the solver's
:class:`~repro.engine.async_engine.EngineDriver` hooks under the
:class:`~repro.engine.async_engine.VirtualTimeReplay` state machine
defined here (DESIGN.md §7, §8), with two executors.  A direct
``DABSSolver.solve()`` runs the replay inline in the caller's thread,
executing each round through :class:`~repro.solver.scheduler.RoundScheduler`
with the round's pack-compatible devices fused into one
:class:`~repro.engine.coalesce.SuperLaunch`.  The service runs the same
replay — or the free-running schedule — with its launches on the
concurrent lanes of a :class:`~repro.engine.workers.FleetWorkerGroup`
(``solve(service=SolveService(g))``).  Both executors build their
completions with :func:`~repro.engine.workers.run_launch`.
"""

from __future__ import annotations

from repro.engine.async_engine import EngineDriver, VirtualTimeReplay
from repro.engine.workers import (
    FleetWorkerGroup,
    LaunchCompletion,
    WorkerError,
    run_launch,
)

__all__ = [
    "EngineDriver",
    "FleetWorkerGroup",
    "LaunchCompletion",
    "VirtualTimeReplay",
    "WorkerError",
    "run_launch",
]
