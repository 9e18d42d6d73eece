"""Execution lanes: the shared worker fleet launches run on.

The paper drives every physical GPU from its own host thread; a device
fetches work, runs a bulk search, and returns solutions at its own pace
(§III.C).  :class:`FleetWorkerGroup` reproduces that seam for the
virtual GPUs: one single-thread executor per *lane*, not bound to any
solver's devices.  Every submission is a
:class:`~repro.engine.coalesce.SuperLaunch` — one or more devices'
launches run as one fused batch on the lane's own merged buffers — and
each segment's completion carries an opaque ``tag`` routed back to the
caller.  A :class:`~repro.service.SolveService` owns one fleet and multiplexes many
jobs' launches over it, with the tag identifying the owning job
(DESIGN.md §8).  The per-lane FIFO is what gives each device in-flight
depth (a launch can be queued behind the running one) while NumPy
kernels release the GIL, so lanes genuinely overlap.

A lane is the only owner of its pack buffers: one
:class:`~repro.engine.coalesce.PackScratch` per pack key, touched only by
the lane's thread, and freed by :meth:`FleetWorkerGroup.free_buffers` once
no remaining job or cached problem can use it (DESIGN.md §12).

Completions land on one host-side stream as :class:`LaunchCompletion`
records; the scheduler consumes them with
:meth:`FleetWorkerGroup.next_completion` in whatever order lanes finish.
Failures travel the same stream and surface as :class:`WorkerError` on
the host, so a dead lane can never strand the event loop.

Supervision (DESIGN.md §11): with a
:class:`~repro.resilience.RetryPolicy` the group becomes *supervised* —
every launch is recorded as a ticketed ``(lane, pack)`` in-flight
entry, and a fault (worker exception, hung launch past
``launch_timeout``) re-issues the recorded launch after capped
exponential backoff instead of failing the solve.  The re-issue replays
the identical batches at the identical per-device sequence numbers, so
``virtual_time`` replay stays bit-exact whenever the fault pre-empted
the launch (chaos injection, a killed worker) and free-running results
stay valid in every case.  Once ``max_retries`` or the per-job
``failure_budget`` is exhausted, the fault surfaces as a
:class:`WorkerError` carrying a structured
:class:`~repro.resilience.FailureReport` — failing only the owning job.

A hung lane *thread* cannot be killed, so the fleet quarantines instead:
the lane executor is replaced at once (co-tenants keep running) and a
reaper waits for the abandoned thread to actually exit before settling
its launches — a late completion is delivered as merely slow, a launch
the thread never ran is re-issued, and only a thread that outlives
``hang_grace`` fails its launch (the device state it still owns is never
handed to a second thread).

A group of zero lanes is *inline* — what a direct ``DABSSolver.solve()``
runs on: no thread, no supervision, no worker to kill.  Every launch runs
on the submitting thread, and a launch's exception (a fault the
pack-fault rule cannot absorb, or a ``KeyboardInterrupt``) is raised
there as it is, never posted as a job failure.  Its lanes' buffers live
as long as the group: one solve.

Lifecycle: the group is a context manager and
:meth:`FleetWorkerGroup.close` is idempotent; closing joins every lane
thread, so a solve that raises mid-flight leaks nothing.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import traceback
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from repro.core.packet import PacketBatch
from repro.engine.coalesce import PackSegment, SuperLaunch, pack_key, run_pack
from repro.resilience import chaos
from repro.resilience.chaos import ChaosError
from repro.resilience.policy import FailureReport, RetryPolicy

__all__ = ["FleetWorkerGroup", "LaunchCompletion", "WorkerError", "run_launch"]

#: lane thread-name prefix, asserted by the leak regression tests
WORKER_NAME_PREFIX = "engine-vgpu"

#: completion-stream sentinel posted by :meth:`FleetWorkerGroup.wake`
_WAKE = object()


class WorkerError(RuntimeError):
    """A device worker failed; carries the device id and its traceback.

    ``tag`` is the opaque submission tag of the failed launch (None for
    untagged submissions) — the service uses it to fail only the
    owning job instead of the whole fleet.  ``tags`` holds the tag of
    every launch the failure ends, one per segment (``(tag,)`` for a
    one-segment pack), so the owner can release each in-flight slot.
    ``report`` is the structured :class:`~repro.resilience.FailureReport`
    when a supervised group exhausted its retry policy (None on
    unsupervised failures).
    """

    def __init__(
        self,
        device_id: int,
        detail: str,
        tag: object = None,
        report: FailureReport | None = None,
        tags: tuple | None = None,
    ) -> None:
        super().__init__(f"device worker {device_id} failed:\n{detail}")
        self.device_id = device_id
        self.detail = detail
        self.tag = tag
        self.tags = (tag,) if tags is None else tags
        self.report = report


@dataclass(frozen=True)
class LaunchCompletion:
    """One finished launch, as delivered to the host event loop."""

    #: which virtual GPU produced it
    device_id: int
    #: per-device launch sequence number (1-based, FIFO per device)
    seq: int
    #: result batch (best vector/energy per lane, strategies passed through)
    batch: PacketBatch
    #: per-lane flip counts of the launch
    flips: np.ndarray
    #: greedy-cap truncated rows in this launch (delta, not cumulative)
    truncations: int
    #: 1 when this launch emitted a GreedyTruncationWarning, else 0
    truncation_events: int
    #: opaque submission tag (the service's job routing key); None for
    #: untagged submissions
    tag: object = None


def run_launch(pack: SuperLaunch, scratch: dict, on_split=None) -> list:
    """Run *pack* on the merged buffers of *scratch*; one outcome per
    segment: its :class:`LaunchCompletion`, or the :class:`_Failure` the
    pack-fault rule (:func:`~repro.engine.coalesce.run_pack`) ends that
    segment with.

    A device without a pack key — a test or benchmark proxy — never
    packs: its one-segment pack runs through its own ``gpu.launch``, and
    an exception there ends the whole launch.  Truncations are read as
    deltas of each device's counters.
    """
    before = {
        id(seg): (seg.gpu.greedy_truncations, seg.gpu.truncation_events)
        for seg in pack.segments
    }
    seg = pack.segments[0]
    if pack_key(seg.gpu) is None:
        outputs = [(seg, seg.gpu.launch(seg.batch))]
    else:
        outputs = [
            (seg, done if isinstance(done, Exception) else (done.result, done.flips))
            for seg, done in run_pack(pack, scratch, on_split)
        ]
    outcomes = []
    for seg, done in outputs:
        if isinstance(done, Exception):
            outcomes.append(_Failure(seg.device_id, done, seg.tag, seg))
            continue
        result, flips = done
        trunc0, events0 = before[id(seg)]
        outcomes.append(
            LaunchCompletion(
                seg.device_id,
                seg.seq,
                result,
                flips,
                seg.gpu.greedy_truncations - trunc0,
                seg.gpu.truncation_events - events0,
                seg.tag,
            )
        )
    return outcomes


class _Failure:
    """Internal: an exception crossing the completion stream — a whole
    launch's, or one pack *segment*'s (charged to that segment's job)."""

    __slots__ = ("device_id", "detail", "tag", "exc", "segment")

    def __init__(self, device_id: int, exc: BaseException, tag=None, segment=None) -> None:
        self.device_id = device_id
        self.detail = "".join(traceback.format_exception(exc))
        self.tag = tag
        self.exc = exc
        self.segment = segment


class _LaunchRecord:
    """Host-side record of one in-flight super-launch — everything needed
    to re-issue it verbatim after a fault (same batches, same seqs)."""

    __slots__ = (
        "lane",
        "pack",
        "tag",
        "attempts",
        "deadline",
        "failures",
        "done",
        "overdue",
    )

    def __init__(self, lane: int, pack: SuperLaunch, tag) -> None:
        self.lane = lane
        self.pack = pack
        #: the one job's tag the pack belongs to, or None for a pack of
        #: several jobs (a worker-level fault splits it uncharged)
        self.tag = tag
        self.attempts = 1
        self.deadline = None
        self.failures: list[str] = []
        #: the worker posted this launch's outcome (set by the lane
        #: thread right before the put — a quarantine reaper reads it
        #: after joining the thread to tell "slow" from "never ran")
        self.done = False
        #: this record's own deadline had expired when its lane was
        #: quarantined (decides whether a re-issue is charged as a fault)
        self.overdue = False

    @property
    def device_id(self) -> int:
        """The first segment's device (a failure report's subject)."""
        return self.pack.segments[0].device_id


def _segment_record(record: _LaunchRecord, seg: PackSegment) -> _LaunchRecord:
    """One segment of *record*'s pack as a one-segment record of its own,
    on the same lane; attempt count and failure history carry over, so a
    segment's retry bound stays the pack's.  A one-segment record is
    never split again, so splitting cannot loop."""
    out = _LaunchRecord(record.lane, SuperLaunch([seg]), seg.tag)
    out.attempts = record.attempts
    out.failures = list(record.failures)
    return out


def _fault_key(tag: object) -> object:
    """The per-job failure-budget key of a submission tag.

    Service tags are ``(job_id, device_id)`` tuples — the budget is per
    job, not per device.  Untagged submissions share one ``None``
    bucket.
    """
    if isinstance(tag, tuple) and tag:
        return tag[0]
    return tag


class FleetWorkerGroup:
    """One single-thread executor per lane, shared by any number of tenants.

    A lane is an execution slot of the (virtual) machine, not a device of
    one solver: every submission names the :class:`VirtualGPU` to run, so
    launches of different jobs — each with its own device-resident state —
    interleave on the same lane at launch granularity.  The per-lane FIFO
    still serializes everything submitted to one lane, which is what lets
    a job pin its per-device state to a lane and keep depth > 1 launches
    in flight without locking.

    With *retry* the group is supervised: faults re-issue the recorded
    launch (fresh lane thread if the old one is hung) instead of raising,
    until the policy's budgets run out.  With ``num_lanes=0`` the group
    is inline (module docstring): every lane index is the caller's thread.
    """

    def __init__(self, num_lanes: int, retry: RetryPolicy | None = None) -> None:
        if num_lanes < 0:
            raise ValueError("num_lanes must be >= 0")
        if num_lanes == 0 and retry is not None:
            raise ValueError("an inline group (num_lanes=0) is unsupervised")
        self.retry = retry
        self._completions: queue.Queue = queue.Queue()
        self._executors = [self._make_executor(i) for i in range(num_lanes)]
        self._closed = False
        self._tickets = itertools.count(1)
        #: ticket -> in-flight record; a popped/absent ticket marks a
        #: superseded launch whose late completion must be dropped
        self._records: dict[int, _LaunchRecord] = {}
        self._records_lock = threading.Lock()
        #: lane -> submissions buffered while the lane's abandoned
        #: (possibly hung) executor is being reaped; flushed by the
        #: reaper so no two threads ever run the same gpu
        self._quarantine: dict[int, list[_LaunchRecord]] = {}
        self._timers: set[threading.Timer] = set()
        #: faults absorbed per job key (budget accounting)
        self._fault_counts: dict[object, int] = {}
        #: re-issues performed per job key (result annotation)
        self.retry_counts: dict[object, int] = {}
        #: total launches re-issued after a fault
        self.retries = 0
        #: lane executors replaced after a hang
        self.respawns = 0
        #: super-launch completions split but not yet delivered
        self._ready: deque = deque()
        #: lane -> pack key -> merged pack buffers (only ever run on by
        #: that lane's single worker thread; freed by free_buffers, and
        #: dropped whole when a wedged thread may still own them)
        self._pack_scratch: dict[int, dict] = {}
        #: super-launches split back into individual launches after a fault
        self.pack_splits = 0

    @staticmethod
    def _make_executor(lane: int) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"{WORKER_NAME_PREFIX}{lane}"
        )

    @property
    def num_lanes(self) -> int:
        return len(self._executors)

    def submit_launch(
        self,
        lane: int,
        device_id: int,
        seq: int,
        gpu,
        batch: PacketBatch,
        tag: object = None,
    ) -> None:
        """Queue one launch of *gpu* on *lane*: a one-segment
        :meth:`submit_packed`.

        *device_id* and *seq* are the submitter's coordinates (a job's
        device index and per-device launch sequence) and are echoed back
        on the completion along with *tag*.
        """
        self.submit_packed(lane, [PackSegment(device_id, seq, gpu, batch, tag)])

    def submit_packed(self, lane: int, segments) -> None:
        """Queue a super-launch on *lane*'s FIFO (DESIGN.md §12).

        *segments* is a list of :class:`~repro.engine.coalesce.PackSegment`
        — pack-compatible launches, of one job or several.  The lane
        executes them as one fused batch and the completion stream
        delivers one :class:`LaunchCompletion` per segment, carrying the
        segment's own ``(device_id, seq, tag)``.

        A pack that raises fails over on its lane under the one
        pack-fault rule (:func:`~repro.engine.coalesce.run_pack`).  A
        worker-level fault (a killed or hung lane) ends the whole launch.
        When every segment belongs to one job (one non-None fault key),
        the pack is that job's launch: its record carries the first
        segment's tag, and such a fault is retried whole and charged
        once.  A pack of several jobs is split: its segments are
        re-issued as one-segment packs without charging any job's fault
        budget (a persistent fault fails — and is charged — on the
        re-run).
        """
        pack = SuperLaunch(segments)
        keys = {_fault_key(seg.tag) for seg in segments}
        tag = segments[0].tag if len(keys) == 1 and None not in keys else None
        self._submit_record(_LaunchRecord(lane, pack, tag))

    def _submit_record(self, record: _LaunchRecord) -> None:
        with self._records_lock:
            if self._closed:
                return
            record.done = False
            record.overdue = False
            pending = self._quarantine.get(record.lane)
            if pending is not None:  # lane awaiting its abandoned thread
                pending.append(record)
                return
            ticket = next(self._tickets)
            if self.retry is not None and self.retry.launch_timeout is not None:
                record.deadline = time.monotonic() + self.retry.launch_timeout
            self._records[ticket] = record
        if self._executors:
            self._executors[record.lane].submit(self._run, ticket)
        else:
            self._run(ticket)

    def run_on(self, lane: int, fn, tag: object = None) -> None:
        """Queue an arbitrary callable (e.g. a device reset) behind the
        lane's in-flight launches.

        Exceptions are routed onto the completion stream as
        :class:`WorkerError` (with *tag*) just like launch failures —
        never swallowed by the unchecked future.  Resets are not retried
        (they are idempotent and re-queued by the owner on demand).
        """
        if self._executors:
            self._executors[lane].submit(self._run_guarded, lane, fn, tag)
        else:
            self._run_guarded(lane, fn, tag)

    def wake(self) -> None:
        """Make a blocked :meth:`next_completion` return None at once.

        The service calls this when a job is submitted and when it
        closes, so neither waits out its loop's poll interval.
        """
        self._completions.put(_WAKE)

    def _run_guarded(self, lane: int, fn, tag) -> None:
        try:
            fn()
        except BaseException as exc:
            if not self._executors:
                raise  # inline: the caller's own exception
            self._completions.put(_Failure(lane, exc, tag))

    def _run(self, ticket: int) -> None:
        with self._records_lock:
            record = self._records.get(ticket)
            if record is None:  # superseded before it started
                return
            scratch = self._pack_scratch.setdefault(record.lane, {})
        try:
            # worker-level chaos fires per segment, as each launch would
            # have seen alone (``who`` = that job's device index); an
            # inline group has no worker to kill
            for seg in record.pack.segments if self._executors else ():
                if chaos.fire("worker_kill", who=seg.device_id):
                    raise ChaosError(
                        f"chaos: worker lane killed (device {seg.device_id})"
                    )
                if chaos.fire("launch_exception", who=seg.device_id):
                    raise ChaosError(
                        f"chaos: injected launch exception "
                        f"(device {seg.device_id})"
                    )
            outcomes = run_launch(record.pack, scratch, self._count_split)
        except BaseException as exc:
            if not self._executors:
                raise  # inline: the caller's own exception
            outcomes = _Failure(record.device_id, exc, record.tag)
        record.done = True
        for outcome in outcomes if not self._executors else ():
            if isinstance(outcome, _Failure):  # a segment the pack-fault rule failed
                raise outcome.exc
        self._completions.put((ticket, outcomes))

    def _count_split(self) -> None:
        with self._records_lock:
            self.pack_splits += 1

    def next_completion(self, timeout: float) -> LaunchCompletion | None:
        """The next finished launch, in completion order; None on timeout,
        on a :meth:`wake` or while a fault is being retried internally.

        A failed launch whose retry policy is exhausted surfaces as
        :class:`WorkerError` carrying the submission tag and a
        :class:`~repro.resilience.FailureReport`, so a multi-tenant
        caller can fail one job without tearing the fleet down.

        A super-launch arrives as one queue item and is delivered as its
        per-segment completions, one per call (the rest buffer FIFO until
        a later call or :meth:`take_ready` collects them).
        """
        if self._ready:
            return self._ready.popleft()
        self._check_deadlines()
        try:
            item = self._completions.get(timeout=timeout)
        except queue.Empty:
            return None
        if item is _WAKE:
            return None
        if isinstance(item, WorkerError):  # settled by a lane reaper
            raise item
        if isinstance(item, _Failure):  # a run_on (reset) failure
            raise WorkerError(item.device_id, item.detail, item.tag) from item.exc
        ticket, payload = item
        with self._records_lock:
            record = self._records.pop(ticket, None)
        if record is None:
            return None  # superseded launch: result already re-issued
        if isinstance(payload, _Failure):  # the whole launch failed
            if record.tag is None and len(record.pack.segments) > 1:
                return self._handle_pack_fault(record, payload.detail)
            return self._handle_fault(record, payload.detail, "launch", payload.exc)
        # one outcome per segment; the rest buffer FIFO.  A segment the
        # pack-fault rule failed is charged to its own job: a one-segment
        # pack's fatal error raises at once, a pack's waits on the stream
        # behind the pack's completions
        for outcome in payload:
            if not isinstance(outcome, _Failure):
                self._ready.append(outcome)
                continue
            if len(payload) == 1:
                return self._handle_fault(record, outcome.detail, "launch", outcome.exc)
            seg_record = _segment_record(record, outcome.segment)
            try:
                self._handle_fault(seg_record, outcome.detail, "launch", outcome.exc)
            except WorkerError as err:
                self._completions.put(err)
        return self._ready.popleft() if self._ready else None

    def take_ready(self) -> list[LaunchCompletion]:
        """Every buffered completion of an already delivered super-launch.

        A pack's segments finish together; a scheduler that folds them
        all before refilling its lanes lets the riders' next launches
        pack again, instead of the first rider's leaving alone.
        """
        ready = list(self._ready)
        self._ready.clear()
        return ready

    # -- supervision -------------------------------------------------------
    def _handle_pack_fault(self, record: _LaunchRecord, detail: str) -> None:
        """Absorb a failed pack of several jobs: re-issue each segment as a
        one-segment pack.

        No job's fault budget is charged — inside a fused batch the
        culprit is unknown, and a pack-mate must not pay for it.  The
        executor commits no device state before finishing, so the re-runs
        start bit-exactly where the pack would have; a persistent
        fault then fails (and is charged to) only the job that owns it.
        """
        record.failures.append(detail)
        with self._records_lock:
            self.pack_splits += 1
        for seg in record.pack.segments:
            self._submit_record(_segment_record(record, seg))
        return None

    def _handle_fault(self, record: _LaunchRecord, detail: str, kind: str, cause=None) -> None:
        """Absorb one fault: re-issue after backoff, or raise when the
        policy is exhausted — a :class:`WorkerError` caused by *cause*,
        the launch's own exception.  Returns None (the caller polls again).

        A one-job pack is one launch here: it is re-issued whole (it
        committed nothing, so the re-run is bit-exact) and charged once;
        its fatal error carries every segment's tag.
        """
        record.failures.append(detail)
        key = _fault_key(record.tag)
        with self._records_lock:
            faults = self._fault_counts.get(key, 0) + 1
            self._fault_counts[key] = faults
        retry = self.retry
        budget_left = retry is not None and (
            retry.failure_budget is None or faults <= retry.failure_budget
        )
        if (
            retry is None
            or record.attempts > retry.max_retries
            or not budget_left
            or self._closed
        ):
            report = FailureReport(
                kind=kind,
                device_id=record.device_id,
                attempts=record.attempts,
                retries=record.attempts - 1,
                fatal=True,
                details=tuple(record.failures),
            )
            tags = tuple(seg.tag for seg in record.pack.segments)
            raise WorkerError(record.device_id, detail, record.tag, report, tags) from cause
        record.attempts += 1
        with self._records_lock:
            self.retries += 1
            self.retry_counts[key] = self.retry_counts.get(key, 0) + 1
        delay = retry.delay(record.attempts - 1)
        if delay <= 0:
            self._submit_record(record)
            return None
        timer = threading.Timer(delay, self._resubmit, args=(record,))
        timer.daemon = True
        with self._records_lock:
            if self._closed:
                return None
            self._timers.add(timer)
        timer.start()
        return None

    def _resubmit(self, record: _LaunchRecord) -> None:
        with self._records_lock:
            self._timers = {t for t in self._timers if t.is_alive()}
            if self._closed:
                return
        self._submit_record(record)

    def _check_deadlines(self) -> None:
        """Hang detection: quarantine the lane of any overdue launch.

        A stuck lane thread cannot be killed, but the lane can be
        respawned so every other tenant keeps running.  The overdue
        launch itself is NOT re-issued here — the abandoned thread may
        still be executing it on the very same device state,
        so a reaper thread first waits for the old executor to exit and
        only then settles the lane's launches (:meth:`_reap_lane`).
        Submissions to a quarantined lane are buffered until the reaper
        flushes them."""
        retry = self.retry
        if retry is None or retry.launch_timeout is None:
            return
        now = time.monotonic()
        seized: list[tuple[int, ThreadPoolExecutor]] = []
        with self._records_lock:
            overdue_lanes = set()
            for record in self._records.values():
                if (
                    record.deadline is not None
                    and now > record.deadline
                    and record.lane not in self._quarantine
                ):
                    record.overdue = True
                    overdue_lanes.add(record.lane)
            for lane in sorted(overdue_lanes):
                self._quarantine[lane] = []
                old = self._executors[lane]
                self._executors[lane] = self._make_executor(lane)
                self.respawns += 1
                seized.append((lane, old))
        for lane, old in seized:
            detail = (
                f"launch exceeded deadline ({retry.launch_timeout}s) on "
                f"lane {lane}"
            )
            threading.Thread(
                target=self._reap_lane,
                args=(lane, old, detail),
                name=f"{WORKER_NAME_PREFIX}{lane}-reaper",
                daemon=True,
            ).start()

    def _reap_lane(self, lane: int, old, detail: str) -> None:
        """Quarantine reaper (its own daemon thread): wait for the
        abandoned executor's thread to exit, then settle every launch
        that was seized with the lane.

        A launch whose thread posted a completion was merely slow — its
        record stays in flight and the (already queued) result delivers
        normally, bit-exact.  A launch the thread never ran (queued
        behind the hog, its future cancelled) is re-issued on the fresh
        executor — charged as a hang fault only if its own deadline had
        expired.  A thread that outlives ``hang_grace`` is wedged: the
        launch it is executing fails with a ``kind="hang"`` report and
        its devices are never re-issued — handing device state a live thread
        still owns to a second thread would be a data race.  Every
        fatal error is routed through the completion stream, so one
        exhausted job never strands the other seized launches."""
        old.shutdown(wait=False, cancel_futures=True)
        retry = self.retry
        grace = None
        if retry is not None:
            grace = (
                retry.hang_grace
                if retry.hang_grace is not None
                else retry.launch_timeout
            )
        wedged = False
        threads = list(getattr(old, "_threads", None) or ())
        if threads:
            deadline = None if grace is None else time.monotonic() + grace
            for thread in threads:
                timeout = (
                    None
                    if deadline is None
                    else max(deadline - time.monotonic(), 0.0)
                )
                thread.join(timeout)
                if thread.is_alive():
                    wedged = True
        else:  # no private thread list on this runtime: wait unbounded
            old.shutdown(wait=True)
        reissue: list[_LaunchRecord] = []
        failed: list[_LaunchRecord] = []
        with self._records_lock:
            entries = [
                (ticket, record)
                for ticket, record in self._records.items()
                if record.lane == lane
            ]
            poisoned: frozenset = frozenset()
            if wedged:
                # the wedged thread may still own the lane's merged pack
                # buffers — never hand them to the respawned executor
                self._pack_scratch.pop(lane, None)
                for _, record in entries:
                    if not record.done:
                        # max_workers=1: the earliest unfinished record
                        # is the one the live thread still executes; it
                        # poisons every device its pack touches
                        poisoned = frozenset(id(g) for g in record.pack.gpus())
                        break
            for ticket, record in entries:
                if record.done:
                    record.deadline = None  # late result: deliver as-is
                    continue
                del self._records[ticket]
                if self._touches(record, poisoned):
                    failed.append(record)
                else:
                    reissue.append(record)
            buffered = self._quarantine.pop(lane, [])
        errors = []
        for record in failed:
            errors.extend(self._hang_errors(record, detail))
        for record in reissue:
            if record.overdue:
                # an overdue pack hung every job riding it: split and
                # charge each segment, as its own hang would be
                for seg in record.pack.segments:
                    try:
                        self._handle_fault(_segment_record(record, seg), detail, "hang")
                    except WorkerError as err:
                        errors.append(err)
            else:  # seized with the lane, not at fault: plain re-issue
                self._submit_record(record)
        for record in buffered:
            if self._touches(record, poisoned):
                errors.extend(self._hang_errors(record, detail))
            else:
                self._submit_record(record)
        for error in errors:
            self._completions.put(error)

    @staticmethod
    def _touches(record: _LaunchRecord, poisoned: frozenset) -> bool:
        return any(id(g) in poisoned for g in record.pack.gpus())

    def _hang_errors(
        self, record: _LaunchRecord, detail: str
    ) -> list[WorkerError]:
        """The hang failures of a record — one per segment, so each
        riding job fails individually with its own tag."""
        return [
            self._hang_error(_segment_record(record, seg), detail)
            for seg in record.pack.segments
        ]

    @staticmethod
    def _hang_error(record: _LaunchRecord, detail: str) -> WorkerError:
        record.failures.append(detail)
        report = FailureReport(
            kind="hang",
            device_id=record.device_id,
            attempts=record.attempts,
            retries=record.attempts - 1,
            fatal=True,
            details=tuple(record.failures),
        )
        return WorkerError(record.device_id, detail, record.tag, report)

    def free_buffers(self, lane: int, keys, kernels) -> None:
        """Free *lane*'s pack buffers that no queued job can use: those
        whose pack key is not in *keys*, except the most recently built
        set of each of *kernels* (by identity).

        The service calls this at job finalization with the pack keys of
        the lane's remaining jobs and the kernels of its cached problems,
        so a lane holds at most one buffer set per cached problem plus
        those of its active jobs — also under a config sweep, whose jobs
        share a kernel but not a pack key — and a cache-hit instance
        keeps its buffers (DESIGN.md §12).  A live key's buffers may be
        in use on the lane's thread; a dead key's cannot be.
        """
        kept = {id(kernel) for kernel in kernels}
        with self._records_lock:
            scratch = self._pack_scratch.get(lane, {})
            for key in reversed(list(scratch)):  # newest first
                if key in keys:
                    continue
                kernel = id(scratch[key].state.kernel)
                if kernel in kept:
                    kept.discard(kernel)
                else:
                    del scratch[key]

    def forget(self, key: object) -> None:
        """Drop a finished job's supervision tallies (failure budget and
        retry counts) — the service calls this at job finalization so a
        long-lived fleet's accounting stays bounded."""
        with self._records_lock:
            self._fault_counts.pop(key, None)
            self.retry_counts.pop(key, None)

    def close(self, wait: bool = True) -> None:
        """Join every worker thread; queued-but-unstarted launches and
        pending retry timers are dropped.  Idempotent.

        ``wait=False`` skips joining the lane threads — the escape hatch
        a bounded service shutdown uses when a lane is known to be hung
        inside a launch (the abandoned thread exits whenever its launch
        finally returns; threads cannot be killed, DESIGN.md §11).
        """
        if self._closed:
            return
        self._closed = True
        with self._records_lock:
            timers = list(self._timers)
            self._timers.clear()
        for timer in timers:
            timer.cancel()
        for executor in self._executors:
            executor.shutdown(wait=wait, cancel_futures=True)

    def __enter__(self) -> "FleetWorkerGroup":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
