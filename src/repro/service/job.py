"""Jobs: the unit of multi-tenant work (DESIGN.md §8).

A *job* is one QUBO instance solved under its own limits, pools and RNG
stream, scheduled by a :class:`~repro.service.SolveService` across the
shared device fleet.  The client-facing surface is :class:`JobHandle` —
a thread-safe future-like object that also streams *incumbent updates*
(every new per-job global best) as the pools improve, the service
analogue of :class:`~repro.solver.result.SolveResult.history` delivered
live instead of post-hoc — either pulled through :meth:`JobHandle.incumbents`
or pushed to a listener (:meth:`JobHandle.set_listener`), which is how
the serve front end follows every live job without a thread per job.
"""

from __future__ import annotations

import enum
import queue
import threading
from dataclasses import dataclass

import numpy as np

from repro.solver.result import SolveResult

__all__ = [
    "IncumbentUpdate",
    "JobCancelledError",
    "JobHandle",
    "JobStatus",
]


class JobStatus(enum.Enum):
    """Lifecycle of a service job."""

    #: admitted to the service but not yet scheduled on any lane
    QUEUED = "queued"
    #: at least one launch submitted, result pending
    RUNNING = "running"
    #: finished under its own limits; result available
    DONE = "done"
    #: cancelled by the client; a partial result is available when the
    #: job had started, otherwise :meth:`JobHandle.result` raises
    CANCELLED = "cancelled"
    #: a device worker or the host-side policy raised; result raises
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.DONE, JobStatus.CANCELLED, JobStatus.FAILED)


class JobCancelledError(RuntimeError):
    """The job was cancelled before producing any result."""


@dataclass(frozen=True)
class IncumbentUpdate:
    """One streamed new-best event of a job."""

    #: the producing job
    job_id: str
    #: the improved energy
    energy: int
    #: a copy of the improving solution vector
    vector: np.ndarray
    #: seconds since the job started running
    elapsed: float


#: sentinel closing a job's incumbent stream
_STREAM_END = object()


class JobHandle:
    """Client-side view of one submitted job.

    All methods are thread-safe; the service finalizes the handle exactly
    once.  The incumbent stream is single-consumer: one call site should
    either iterate :meth:`incumbents` or register a listener.
    """

    def __init__(self, job_id: str, service) -> None:
        self.job_id = job_id
        self._service = service
        self._done = threading.Event()
        self._status = JobStatus.QUEUED
        self._result: SolveResult | None = None
        self._error: BaseException | None = None
        self._stream: queue.Queue = queue.Queue()
        self._listener = None
        # reentrant: a listener runs under it and may read status/result
        self._lock = threading.RLock()

    # -- state transitions (service-side) ----------------------------------
    def _mark_running(self) -> None:
        with self._lock:
            if self._status is JobStatus.QUEUED:
                self._status = JobStatus.RUNNING

    def _push_incumbent(self, update: IncumbentUpdate) -> None:
        with self._lock:
            if self._listener is None:
                self._stream.put(update)
            else:
                self._listener(update)

    def _finalize(
        self,
        status: JobStatus,
        result: SolveResult | None,
        error: BaseException | None = None,
    ) -> None:
        with self._lock:
            self._status = status
            self._result = result
            self._error = error
            # done before the listener hears of it, so a listener may
            # read result() without blocking
            self._done.set()
            if self._listener is None:
                self._stream.put(_STREAM_END)
            else:
                self._listener(None)

    # -- client surface ----------------------------------------------------
    @property
    def status(self) -> JobStatus:
        with self._lock:
            return self._status

    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until terminal; returns False on timeout."""
        return self._done.wait(timeout)

    def cancel(self) -> None:
        """Request cancellation; in-flight launches drain, no new ones
        are scheduled.  Idempotent; a no-op on terminal jobs."""
        self._service._request_cancel(self.job_id)

    def result(self, timeout: float | None = None) -> SolveResult:
        """The job's :class:`SolveResult`, blocking until terminal.

        Raises the original error for FAILED jobs, ``TimeoutError`` on
        timeout, and :class:`JobCancelledError` for jobs cancelled before
        their first launch; a job cancelled mid-flight returns its
        partial result (everything folded before the cancel).
        """
        if not self._done.wait(timeout):
            raise TimeoutError(f"job {self.job_id} still {self.status.value}")
        with self._lock:
            if self._error is not None:
                raise self._error
            if self._result is None:
                raise JobCancelledError(
                    f"job {self.job_id} was cancelled before it started"
                )
            return self._result

    def set_listener(self, listener) -> None:
        """Push this job's events to *listener* instead of queueing them.

        *listener* is called with each :class:`IncumbentUpdate`, then once
        with ``None`` when the job is terminal.  Anything queued before
        registration is replayed first, in order, so nothing is missed
        however late the listener arrives.  It runs on the service's
        scheduling thread under the handle's (reentrant) lock: it may
        read this handle, but should only hand the event off (e.g.
        ``loop.call_soon_threadsafe``), never block.  After registration
        :meth:`incumbents` receives nothing.
        """
        with self._lock:
            if self._listener is not None:
                raise RuntimeError(f"job {self.job_id} already has a listener")
            self._listener = listener
            while not self._stream.empty():
                item = self._stream.get_nowait()
                listener(None if item is _STREAM_END else item)

    def incumbents(self, timeout: float | None = None):
        """Iterate streamed :class:`IncumbentUpdate` events until the job
        ends.  *timeout* bounds the wait for each event (``TimeoutError``
        when exceeded); ``None`` waits indefinitely (the stream always
        terminates when the job does)."""
        while True:
            try:
                item = self._stream.get(timeout=timeout)
            except queue.Empty:
                raise TimeoutError(
                    f"no incumbent update from job {self.job_id} "
                    f"within {timeout}s"
                ) from None
            if item is _STREAM_END:
                return
            yield item

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<JobHandle {self.job_id} {self.status.value}>"
