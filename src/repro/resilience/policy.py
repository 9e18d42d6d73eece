"""Retry policy and structured failure reports (DESIGN.md §11).

One :class:`RetryPolicy` travels from the ``SolveService`` constructor
(or its default config's ``DABSConfig.retry_policy``) down into the
fleet lanes, where it governs every recovery decision the execution
layer makes:

* how many times one launch is re-issued after a worker fault
  (``max_retries``), with capped exponential backoff between attempts;
* how many faults one job absorbs in total before it is failed in
  isolation (``failure_budget``) — the circuit breaker that stops a
  poisoned instance from burning the fleet forever;
* how long a launch may run before it is declared hung and its lane is
  respawned (``launch_timeout``) — hang detection, not just crash
  detection — and how long the thread fleet's reaper then waits for the
  abandoned lane thread before failing the launch it still owns
  (``hang_grace``).

When recovery is exhausted the failure surfaces as a
:class:`~repro.engine.workers.WorkerError` carrying a
:class:`FailureReport` — the structured record (attempt count, every
traceback, fatality) client code and the ``repro serve`` ``failed``
event report from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FailureReport", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How the execution layer retries faults before giving up."""

    #: times one launch is re-issued after a fault (0 disables retry)
    max_retries: int = 2
    #: backoff before re-issue attempt k: ``base * factor**(k-1)`` seconds
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    #: ceiling on any single backoff delay, seconds
    backoff_cap: float = 1.0
    #: total worker faults one job absorbs before it fails in isolation;
    #: None means only ``max_retries`` bounds recovery
    failure_budget: int | None = 8
    #: seconds a launch may run before its lane is declared hung and
    #: respawned; None disables hang detection
    launch_timeout: float | None = None
    #: seconds the quarantine reaper then waits for the abandoned lane
    #: thread to exit before declaring its launch unrecoverable (thread
    #: workers cannot be killed, only awaited — a late exit within the
    #: grace delivers or retries the launch safely); None waits one more
    #: ``launch_timeout``
    hang_grace: float | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_cap < 0:
            raise ValueError("backoff_cap must be >= 0")
        if self.failure_budget is not None and self.failure_budget < 1:
            raise ValueError("failure_budget must be >= 1 or None")
        if self.launch_timeout is not None and self.launch_timeout <= 0:
            raise ValueError("launch_timeout must be > 0 or None")
        if self.hang_grace is not None and self.hang_grace <= 0:
            raise ValueError("hang_grace must be > 0 or None")

    def delay(self, attempt: int) -> float:
        """Backoff before re-issue *attempt* (1-based), capped."""
        if attempt < 1:
            return 0.0
        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )


@dataclass
class FailureReport:
    """Structured record of one exhausted recovery path.

    Attached to the :class:`~repro.engine.workers.WorkerError` that fails
    a job after its retry budget runs out, and serialized (via
    :meth:`to_dict`) onto the ``repro serve`` ``failed`` event.
    """

    #: what failed: "launch", "worker", "hang", "island", "backend"
    kind: str
    #: device index of the failing worker (None when not device-bound)
    device_id: int | None = None
    #: attempts made (first try included)
    attempts: int = 1
    #: re-issues performed before giving up
    retries: int = 0
    #: True when recovery is exhausted and the job failed
    fatal: bool = True
    #: the traceback (or reason) of every failed attempt, oldest first
    details: tuple[str, ...] = field(default_factory=tuple)

    def summary(self) -> str:
        last = self.details[-1].strip().splitlines()[-1] if self.details else ""
        where = "" if self.device_id is None else f" on device {self.device_id}"
        return (
            f"{self.kind} failure{where} after {self.attempts} attempt(s)"
            + (f": {last}" if last else "")
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "device_id": self.device_id,
            "attempts": self.attempts,
            "retries": self.retries,
            "fatal": self.fatal,
            "details": list(self.details),
        }
