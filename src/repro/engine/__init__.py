"""Launch execution below the solver: lanes, super-launches, virtual time.

A direct ``DABSSolver.solve()`` runs the round loop of
:class:`~repro.solver.scheduler.RoundScheduler` in the caller's thread,
each round's pack-compatible devices fused into one
:class:`~repro.engine.coalesce.SuperLaunch`.  Barrier-free execution —
free-running devices, or virtual-time replay with its launches on
concurrent lanes — is the service's job: ``solve(service=SolveService(g))``
runs the solver as a one-job service over a
:class:`~repro.engine.workers.FleetWorkerGroup`, driven by the
:class:`~repro.engine.async_engine.EngineDriver` hooks and the
:class:`~repro.engine.async_engine.VirtualTimeReplay` state machine
defined here (DESIGN.md §7, §8).
"""

from __future__ import annotations

from repro.engine.async_engine import EngineDriver, VirtualTimeReplay
from repro.engine.workers import FleetWorkerGroup, LaunchCompletion, WorkerError

__all__ = [
    "EngineDriver",
    "FleetWorkerGroup",
    "LaunchCompletion",
    "VirtualTimeReplay",
    "WorkerError",
]
