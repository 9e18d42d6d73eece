"""Launch execution below the solver: lanes and super-launches.

Every solve is a service job (DESIGN.md §7, §8), run under one of the
two schedules of :mod:`repro.solver.dabs` over one executor — the lanes
of a :class:`~repro.engine.workers.FleetWorkerGroup`, which fuse a
round's pack-compatible devices (always) into one
:class:`~repro.engine.coalesce.SuperLaunch` and build completions with
:func:`~repro.engine.workers.run_launch`.  A direct
``DABSSolver.solve()`` steps a one-job service over an inline group of
zero lanes in the caller's thread.
"""

from __future__ import annotations

from repro.engine.workers import (
    FleetWorkerGroup,
    LaunchCompletion,
    WorkerError,
    run_launch,
)

__all__ = [
    "FleetWorkerGroup",
    "LaunchCompletion",
    "WorkerError",
    "run_launch",
]
