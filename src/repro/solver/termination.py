"""Termination criteria for solver runs."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["SolveLimits"]


@dataclass(frozen=True)
class SolveLimits:
    """When a solve() loop stops.

    At least one of the three limits must be set; the solver stops at the
    first one reached.  ``target_energy`` enables TTS measurement — the run
    records the wall time at which the global best first reached the target.
    """

    #: stop once the global best energy is <= this value
    target_energy: int | None = None
    #: stop after this many wall-clock seconds
    time_limit: float | None = None
    #: stop after this many rounds (one round = one launch per virtual GPU;
    #: free-running service jobs read it as a per-device launch budget,
    #: which is the same total amount of work)
    max_rounds: int | None = None
    #: stop after this many device launches in total, across all devices —
    #: the natural budget of free-running service jobs, which honour it
    #: exactly; round-synchronous schedules (a direct solve and the
    #: virtual-time replay) only stop on round boundaries and may
    #: overshoot by up to num_gpus − 1 launches
    max_launches: int | None = None

    def __post_init__(self) -> None:
        if (
            self.target_energy is None
            and self.time_limit is None
            and self.max_rounds is None
            and self.max_launches is None
        ):
            raise ValueError(
                "set at least one of target_energy / time_limit / "
                "max_rounds / max_launches"
            )
        # NaN compares false both ways, so test the accepted range
        if self.time_limit is not None and not (
            math.isfinite(self.time_limit) and self.time_limit > 0
        ):
            raise ValueError(f"time_limit must be finite and > 0, got {self.time_limit!r}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.max_launches is not None and self.max_launches < 1:
            raise ValueError("max_launches must be >= 1")

    def target_reached(self, best_energy: int) -> bool:
        """True when *best_energy* meets the target."""
        return self.target_energy is not None and best_energy <= self.target_energy

    def out_of_time(self, elapsed: float) -> bool:
        """True when the wall-clock budget is exhausted."""
        return self.time_limit is not None and elapsed >= self.time_limit

    def out_of_rounds(self, rounds: int) -> bool:
        """True when the round budget is exhausted."""
        return self.max_rounds is not None and rounds >= self.max_rounds

    def out_of_launches(self, launches: int) -> bool:
        """True when the total device-launch budget is exhausted."""
        return self.max_launches is not None and launches >= self.max_launches

    def device_launch_budget(self, device_launches: int) -> bool:
        """True when one device has used up its per-device budget
        (``max_rounds`` reinterpreted launch-wise by free-running jobs)."""
        return self.max_rounds is not None and device_launches >= self.max_rounds
