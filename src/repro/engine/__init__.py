"""Launch execution below the solver: lanes, super-launches, virtual time.

Every solve is a service job (DESIGN.md §7, §8): the solver's
:class:`~repro.engine.async_engine.EngineDriver` hooks under the
:class:`~repro.engine.async_engine.VirtualTimeReplay` defined here, or
the free-running schedule, over one executor — the lanes of a
:class:`~repro.engine.workers.FleetWorkerGroup`, which fuse a round's
pack-compatible devices (always) into one :class:`~repro.engine.coalesce.SuperLaunch`
and build completions with :func:`~repro.engine.workers.run_launch`.
A direct ``DABSSolver.solve()`` steps a one-job service over an inline
group of zero lanes in the caller's thread.
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
