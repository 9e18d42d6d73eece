"""The multi-tenant solve service (DESIGN.md §8).

The paper frames DABS as a *service*: a CPU-side controller keeps a fleet
of GPUs saturated with bulk-search work while clients submit QUBO
instances.  :class:`SolveService` is that controller.  It owns one
:class:`~repro.engine.workers.FleetWorkerGroup` — the shared execution
lanes — and schedules *jobs* (independent instances, each with its own
pools, limits and RNG stream) across it:

* **job queue with priorities** — higher-priority jobs are admitted and
  scheduled first; within a priority class lanes are handed out by
  *device-share fairness* (least ``launches_submitted / share`` first),
  so a job with ``share=2`` receives twice the launch rate of a
  ``share=1`` tenant on a contended fleet.
* **admission control / backpressure** — ``max_active`` bounds how many
  jobs hold lane affinities at once (the rest wait in the priority
  queue); ``max_queue`` bounds total outstanding jobs, and ``submit``
  blocks (or raises :class:`ServiceOverloadedError`) when full.
* **cancellation** — :meth:`JobHandle.cancel` stops new launches at the
  next scheduling point; in-flight launches drain, nothing leaks, and a
  job cancelled mid-flight yields its partial result.
* **streaming incumbents** — every new per-job best is pushed to the
  job's handle (and optional callback) the moment its completion folds,
  the live form of :class:`~repro.solver.result.SolveResult.history`.
* **content-addressed preparation** — repeat submissions of the same Q
  matrix reuse the backend-resident prepared representation via
  :class:`~repro.service.cache.ProblemCache`.

Execution model: one scheduler thread owns all solver-side state (pools,
RNG, schedules) — the single-policy-thread rule of DESIGN.md §7 — while
the fleet lanes run launches.  A job's per-device state is resident on
one lane, the least-populated at admission, as matrices are resident on
a GPU: its devices share one pack key and are row ranges of one pack,
so each round is one lane pass.  Multiple jobs mapped to one lane
interleave at launch granularity through the lane FIFO, and pack
together when compatible, within ``coalesce_max_rows``.

A direct ``DABSSolver.solve()`` is a one-job service too, over an inline
group of zero lanes, stepped by the caller (:func:`_solve_inline`).

Each job runs one schedule of :mod:`repro.solver.dabs`, picked at
admission, and the scheduler drives both through one interface.
Determinism: a job with ``config.virtual_time=True`` runs the
:class:`~repro.solver.dabs.VirtualTimeSchedule`, the double-buffered
round replay, which folds each round in device order — its results are
bit-exact with a direct ``solve()`` of the same solver, no matter what
else the fleet is running (asserted by ``tests/service/test_service.py``).
Free-running jobs insert completions as-of-arrival and are
timing-dependent.  ``DABSSolver.solve(service=...)`` runs one solver as a
one-job service — the barrier-free way to run a single solve.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
import warnings
from dataclasses import replace

import numpy as np

from repro.core.qubo import require_integer_weights
from repro.engine.coalesce import PackSegment
from repro.engine.workers import FleetWorkerGroup, WorkerError
from repro.resilience import RetryPolicy
from repro.service.cache import ProblemCache
from repro.service.job import IncumbentUpdate, JobHandle, JobStatus
from repro.service.stats import CacheStatsSnapshot, CoalesceStats, ServiceStats
from repro.solver.dabs import DABSConfig, DABSSolver, FreeRunningSchedule, VirtualTimeSchedule
from repro.solver.result import SolveResult
from repro.solver.termination import SolveLimits

__all__ = [
    "ServiceClosedError",
    "ServiceOverloadedError",
    "SolveService",
    "solve",
]

#: seconds the scheduler waits on the completion stream per iteration
_POLL_INTERVAL = 0.005


class ServiceClosedError(RuntimeError):
    """The service is shutting down and no longer accepts jobs."""


class ServiceOverloadedError(RuntimeError):
    """Admission control rejected the job (queue full)."""


def fair_pick(candidates):
    """The scheduling policy: pick one ``(job, device)`` candidate.

    Highest priority wins; within a priority class the job with the
    least *weighted* service (``weighted``, advanced by ``1 / share``
    per submitted launch) goes first — long-run launch rates converge to
    the share ratio on a contended lane.  The counter is baselined to
    the least-served active tenant at admission, so a newcomer shares
    the lane immediately instead of starving incumbents while it "caught
    up" to their lifetime totals.  Admission order, then device index,
    break ties, which makes the policy deterministic for a fixed
    candidate set.
    """
    return min(
        candidates,
        key=lambda c: (
            -c[0].priority,
            c[0].weighted,
            c[0].seq,
            c[1],
        ),
    )


class _Job:
    """Scheduler-side state of one job (touched only by the scheduler
    thread once admitted; ``cancel_requested`` is the cross-thread flag)."""

    __slots__ = (
        "id",
        "seq",
        "handle",
        "priority",
        "share",
        "limits",
        "config",
        "spec",
        "solver",
        "schedule",
        "lane",
        "inflight",
        "assigned",
        "weighted",
        "completed",
        "started",
        "finalized",
        "cancel_requested",
        "on_improvement",
        "error",
    )

    def __init__(self, job_id, seq, handle, priority, share, limits, config, spec):
        self.id = job_id
        self.seq = seq
        self.handle = handle
        self.priority = priority
        self.share = share
        self.limits = limits
        #: the job's DABSConfig; it picks the schedule at admission
        self.config = config
        #: deferred construction recipe (model, solver seed, solver_cls)
        #: — None when a pre-built solver was submitted
        self.spec = spec
        self.solver = None
        #: the job's schedule (repro.solver.dabs), built at admission
        self.schedule = None
        self.lane = None
        self.inflight = 0
        self.assigned = 0
        self.weighted = 0.0
        self.completed = 0
        self.started = False
        self.finalized = False
        self.cancel_requested = False
        self.on_improvement = None
        self.error = None


class SolveService:
    """Long-lived multi-tenant scheduler over one shared device fleet."""

    def __init__(
        self,
        devices: int = 2,
        *,
        default_config: DABSConfig | None = None,
        lane_depth: int = 2,
        max_active: int | None = None,
        max_queue: int | None = None,
        cache: ProblemCache | None = None,
        seed: int | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if devices < 1:
            raise ValueError("devices must be >= 1")
        if lane_depth < 1:
            raise ValueError("lane_depth must be >= 1")
        if max_active is not None and max_active < 1:
            raise ValueError("max_active must be >= 1 or None")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 or None")
        self.num_devices = devices
        self.lane_depth = lane_depth
        self.max_active = max_active
        self.max_queue = max_queue
        self.cache = cache if cache is not None else ProblemCache()
        self.default_config = default_config or DABSConfig(
            num_gpus=devices, blocks_per_gpu=8, pool_capacity=20
        )
        #: fleet-wide supervision policy (DESIGN.md §11): an explicit
        #: *retry* wins, else the default config's ``retry_policy``, else
        #: fail-fast (a worker fault fails the owning job immediately)
        self.retry = retry if retry is not None else self.default_config.retry_policy
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        self._jobs: dict[str, _Job] = {}
        self._pending: list[_Job] = []
        self._active: dict[str, _Job] = {}
        self._outstanding = 0
        self._lane_inflight = [0] * devices
        #: cumulative launches submitted / completed per lane — the
        #: utilization counters federation benchmarks attribute
        #: throughput with (monotonic over the service lifetime)
        self._lane_launches = [0] * devices
        self._lane_completed = [0] * devices
        #: continuous-batching counters (DESIGN.md §12): super-launches
        #: issued, launches packed into them and total packed rows, per
        #: lane; ``_pack_rows_max`` is the largest single pack seen
        self._lane_packs = [0] * devices
        self._lane_pack_segments = [0] * devices
        self._lane_pack_rows = [0] * devices
        self._pack_rows_max = 0
        #: per-lane affinity index: the (job, device) pairs resident on
        #: each lane (scheduler-thread writes; fixed between admission
        #: and finalization, so _refill never rescans all jobs); its
        #: length is the lane's population
        self._lane_members: list[list[tuple[_Job, int]]] = [
            [] for _ in range(devices)
        ]
        self._counter = itertools.count(1)
        self._group: FleetWorkerGroup | None = None
        self._thread: threading.Thread | None = None
        self._closing = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------
    def _ensure_running_locked(self) -> None:
        """Start the fleet and scheduler thread once (caller holds _lock);
        a service given an inline group is stepped by its caller instead."""
        if self._group is not None:
            return
        self._group = FleetWorkerGroup(self.num_devices, retry=self.retry)
        self._thread = threading.Thread(
            target=self._loop,
            name="solve-service-scheduler",
            daemon=True,
        )
        self._thread.start()

    def close(self, cancel: bool = False, timeout: float | None = None) -> None:
        """Stop accepting jobs and shut the fleet down.

        With ``cancel=False`` (default) outstanding jobs run to
        completion first — a drain.  ``cancel=True`` cancels everything
        still queued or running.  Idempotent.

        *timeout* bounds the shutdown (DESIGN.md §11): when the scheduler
        has not drained within *timeout* seconds, every outstanding job
        is force-cancelled; a scheduler still stuck after that (a lane
        hung inside a launch) is abandoned with a ``RuntimeWarning`` —
        its threads are daemonic, so the process can always exit.
        """
        with self._lock:
            self._closing = True
            job_ids = list(self._jobs) if cancel else []
            self._space.notify_all()
            if self._group is not None:
                self._group.wake()
        for job_id in job_ids:
            self._request_cancel(job_id)
        abandoned = False
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                # the drain is stuck (a wedged job, a hung lane): cancel
                # everything and give the loop one last grace period
                with self._lock:
                    job_ids = list(self._jobs)
                for job_id in job_ids:
                    self._request_cancel(job_id)
                self._thread.join(5.0)
            if self._thread.is_alive():
                abandoned = True
                warnings.warn(
                    "solve-service scheduler did not exit within the close "
                    "timeout; abandoning its daemon thread",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                self._thread = None
        if self._group is not None:
            # joining the lanes of an abandoned scheduler could hang on
            # the same stuck launch — skip the wait in that case
            self._group.close(wait=not abandoned)
            if not abandoned:
                self._group = None
        self._closed = True

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission --------------------------------------------------------
    def submit(
        self,
        model,
        *,
        config: DABSConfig | None = None,
        seed: int | None = None,
        solver_cls: type[DABSSolver] = DABSSolver,
        devices: int | None = None,
        target_energy: int | None = None,
        time_limit: float | None = None,
        max_rounds: int | None = None,
        max_launches: int | None = None,
        priority: int = 0,
        share: float = 1.0,
        on_improvement=None,
        block: bool = True,
        timeout: float | None = None,
    ) -> JobHandle:
        """Queue one QUBO instance as a job; returns its handle.

        The solver (pools, per-device state) is constructed at admission
        on the scheduler thread, reusing the prepared-problem cache.
        *devices* is the job's device count (default: the config's
        ``num_gpus``), clamped to the fleet size; *share* weights its
        launch rate against other tenants of the same *priority*.
        ``block=False`` raises :class:`ServiceOverloadedError` instead of
        waiting when ``max_queue`` is reached.  A fractional-weight model
        raises ``ValueError`` here, before it is queued.
        """
        require_integer_weights(model)
        cfg = config or self.default_config
        want = devices if devices is not None else cfg.num_gpus
        if want < 1:
            raise ValueError("devices must be >= 1")
        cfg = replace(cfg, num_gpus=min(want, self.num_devices))
        limits = SolveLimits(target_energy, time_limit, max_rounds, max_launches)
        if seed is None:
            with self._lock:
                seed = int(self._rng.integers(2**63))
        spec = (model, seed, solver_cls)
        return self._enqueue(
            spec, None, cfg, limits, priority, share, on_improvement, block, timeout
        )

    def submit_solver(
        self,
        solver: DABSSolver,
        *,
        target_energy: int | None = None,
        time_limit: float | None = None,
        max_rounds: int | None = None,
        max_launches: int | None = None,
        priority: int = 0,
        share: float = 1.0,
        on_improvement=None,
        block: bool = True,
        timeout: float | None = None,
    ) -> JobHandle:
        """Queue a pre-built solver as one job (the ``solve(service=…)``
        path).  The solver's pools and device state are adopted as the
        job's state, so back-to-back submissions continue where the last
        run left off, exactly like repeated ``solve()`` calls.
        """
        if solver.config.num_gpus > self.num_devices:
            raise ValueError(
                f"solver wants {solver.config.num_gpus} devices, the fleet "
                f"has {self.num_devices} lanes"
            )
        limits = SolveLimits(target_energy, time_limit, max_rounds, max_launches)
        return self._enqueue(
            None, solver, solver.config, limits, priority, share, on_improvement, block, timeout
        )

    def _enqueue(
        self, spec, solver, cfg, limits, priority, share, on_improvement, block, timeout
    ) -> JobHandle:
        if not (math.isfinite(share) and share > 0):
            raise ValueError(f"share must be finite and > 0, got {share!r}")
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                if self._closing:
                    raise ServiceClosedError("service is closed")
                if self.max_queue is None or self._outstanding < self.max_queue:
                    break
                if not block:
                    raise ServiceOverloadedError(
                        f"job queue full ({self.max_queue} outstanding)"
                    )
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ServiceOverloadedError(
                            f"job queue full ({self.max_queue} outstanding); "
                            f"timed out after {timeout}s"
                        )
                self._space.wait(remaining)
            seq = next(self._counter)
            job_id = f"job-{seq}"
            handle = JobHandle(job_id, self)
            job = _Job(job_id, seq, handle, priority, share, limits, cfg, spec)
            job.solver = solver
            job.on_improvement = on_improvement
            self._jobs[job_id] = job
            self._outstanding += 1
            self._pending.append(job)
            self._pending.sort(key=lambda j: (-j.priority, j.seq))
            # started inside the same critical section as the enqueue: a
            # concurrent close() either saw _closing first (we raised
            # above) or joins the thread we start here, so no fleet can
            # come up on an already-closed service
            self._ensure_running_locked()
            self._group.wake()
        return handle

    def solve_many(self, requests) -> list[SolveResult]:
        """Submit a batch of jobs and wait for all results, in order.

        Each request is a dict of :meth:`submit` keyword arguments plus a
        ``"model"`` key — the in-process client surface the experiment
        harness drives sweeps through.
        """
        handles = [
            self.submit(request.pop("model"), **request)
            for request in (dict(r) for r in requests)
        ]
        return [handle.result() for handle in handles]

    # -- introspection -----------------------------------------------------
    def job_stats(self, job_id: str) -> dict:
        """Thread-safe scheduling snapshot of one *outstanding* job.

        Finalized jobs are dropped from the registry (their results live
        on in the handles); asking for one raises ``KeyError``.
        """
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                raise KeyError(job_id)
            return {
                "status": job.handle.status,
                "priority": job.priority,
                "share": job.share,
                "devices": 0 if job.schedule is None else job.schedule.num_devices,
                "launches_submitted": job.assigned,
                "launches_completed": job.completed,
                "inflight": job.inflight,
            }

    def stats_snapshot(self) -> ServiceStats:
        """Service-wide typed snapshot (lanes, queue depths, cache counters).

        ``lane_launches`` / ``lane_completed`` are cumulative per-lane
        utilization counters (launches submitted to and collected from
        each lane over the service lifetime); ``lane_inflight`` is the
        instantaneous depth.  Both are surfaced verbatim through the
        ``repro serve`` ``stats`` event so federation benchmarks can
        attribute aggregate throughput lane by lane.

        ``coalesce`` reports continuous batching (DESIGN.md §12): packs
        issued, launches packed into them (``segments``), launch slots
        saved by fusing (``launches_saved = segments - packs``) and
        packed-row shape, per lane and aggregated.

        The dict projection of this structure (``stats()``) is what
        crosses process and wire boundaries; the Prometheus exporter
        reads the typed form directly (DESIGN.md §13).
        """
        with self._lock:
            packs = sum(self._lane_packs)
            packed_segments = sum(self._lane_pack_segments)
            packed_rows = sum(self._lane_pack_rows)
            return ServiceStats(
                devices=self.num_devices,
                pending=len(self._pending),
                active=len(self._active),
                outstanding=self._outstanding,
                lane_inflight=tuple(self._lane_inflight),
                lane_launches=tuple(self._lane_launches),
                lane_completed=tuple(self._lane_completed),
                coalesce=CoalesceStats(
                    packs=packs,
                    segments=packed_segments,
                    launches_saved=packed_segments - packs,
                    rows_mean=packed_rows / packs if packs else 0.0,
                    rows_max=self._pack_rows_max,
                    pack_splits=(
                        self._group.pack_splits if self._group is not None else 0
                    ),
                    lane_packs=tuple(self._lane_packs),
                    lane_segments=tuple(self._lane_pack_segments),
                    lane_rows=tuple(self._lane_pack_rows),
                ),
                cache=CacheStatsSnapshot(
                    entries=len(self.cache),
                    hits=self.cache.stats.hits,
                    misses=self.cache.stats.misses,
                    evictions=self.cache.stats.evictions,
                ),
            )

    def stats(self) -> dict:
        """Dict projection of :meth:`stats_snapshot` (the wire layout)."""
        return self.stats_snapshot().to_dict()

    # -- cancellation ------------------------------------------------------
    def _request_cancel(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.finalized:
                return
            job.cancel_requested = True
            if job in self._pending:
                # never admitted: finalize right here, no partial result
                self._pending.remove(job)
                self._finalize_locked(job, JobStatus.CANCELLED, None, None)

    # -- scheduler loop (one thread owns everything below) -----------------
    def _loop(self) -> None:
        while self._step(_POLL_INTERVAL):
            pass

    def _step(self, timeout: float) -> bool:
        """One scheduling pass (the scheduler thread's, or the caller's in
        :func:`_solve_inline`): fold the next completion, waiting up to
        *timeout*, then cancel, admit, check limits, refill and finalize.
        False once a closing service has nothing left to run."""
        group = self._group
        try:
            completion = group.next_completion(timeout)
        except WorkerError as err:
            self._on_worker_error(err)
            completion = None
        if completion is not None:
            self._on_completion(completion)
            # the rest of a finished pack, before any refill: its
            # riders' next launches can then pack together again
            for completion in group.take_ready():
                self._on_completion(completion)
        self._apply_cancels()
        self._admit()
        self._check_time_limits()
        self._refill()
        self._sweep_finalizable()
        with self._lock:
            return not (self._closing and not self._pending and not self._active)

    def _admit(self) -> None:
        while True:
            with self._lock:
                if not self._pending:
                    return
                if (
                    self.max_active is not None
                    and len(self._active) >= self.max_active
                ):
                    return
                job = self._pending.pop(0)
            try:
                self._activate(job)
            except Exception as exc:  # bad model/config: fail only this job
                job.error = exc
                with self._lock:
                    self._finalize_locked(job, JobStatus.FAILED, None, exc)

    def _activate(self, job: _Job) -> None:
        if job.solver is None:
            model, seed, solver_cls = job.spec
            prepared = self.cache.prepare(model, job.config.backend)
            job.solver = solver_cls(model, job.config, seed=seed, prepared=prepared)
            job.spec = None
        # the one place a job's schedule is chosen (DESIGN.md §7)
        schedule = VirtualTimeSchedule if job.config.virtual_time else FreeRunningSchedule
        job.schedule = schedule(job.solver, job.limits, time.perf_counter())
        # fairness baseline: start at the least-served active tenant so
        # the newcomer interleaves immediately instead of monopolizing
        # lanes until its lifetime counter catches up
        job.weighted = min(
            (other.weighted for other in self._active.values()), default=0.0
        )
        with self._lock:
            # affinity: the job's per-device state is resident on the
            # least-populated lane, and each round is one lane pass — its
            # devices are row ranges of one pack (DESIGN.md §12)
            job.lane = min(
                range(self.num_devices),
                key=lambda lane: (len(self._lane_members[lane]), lane),
            )
            self._lane_members[job.lane] += [(job, d) for d in range(job.schedule.num_devices)]
            self._active[job.id] = job

    def _apply_cancels(self) -> None:
        for job in list(self._active.values()):
            if job.cancel_requested and not job.finalized:
                job.schedule.halt()

    def _check_time_limits(self) -> None:
        for job in self._active.values():
            if not job.finalized and job.schedule.idle() == "stop":
                job.schedule.halt()

    def _refill(self) -> None:
        for lane in range(self.num_devices):
            while self._lane_inflight[lane] < self.lane_depth:
                candidates = [
                    (job, device_id)
                    for job, device_id in self._lane_members[lane]
                    if not job.finalized and job.schedule.can_submit(device_id)
                ]
                if not candidates:
                    break
                job, device_id = fair_pick(candidates)
                try:
                    entry = job.schedule.take_batch(device_id)
                except Exception as exc:
                    self._fail_job(job, exc)
                    continue
                if entry is None:
                    continue
                seq, batch = entry
                gpu = job.solver.gpus[device_id]
                segments = [
                    PackSegment(device_id, seq, gpu, batch, (job.id, device_id))
                ]
                seg_jobs = [job]
                # continuous batching (DESIGN.md §12): fill the lane slot
                # with every pack-compatible co-tenant launch, in the same
                # fair order fair_pick would have served them
                if len(candidates) > 1:
                    self._gather_pack_mates(job, device_id, candidates, segments, seg_jobs)
                self._group.submit_packed(lane, segments)
                for seg, seg_job in zip(segments, seg_jobs):
                    seg_job.started = True
                    seg_job.handle._mark_running()
                    seg_job.inflight += 1
                    seg_job.assigned += 1
                    seg_job.weighted += 1.0 / seg_job.share
                with self._lock:
                    # each segment is a launch equivalent: it holds one
                    # in-flight slot (released per completion) and counts
                    # toward lane utilization — a pack may overshoot
                    # lane_depth by design, it costs one executor pass
                    self._lane_inflight[lane] += len(segments)
                    self._lane_launches[lane] += len(segments)
                    if len(segments) > 1:
                        rows = sum(len(seg.batch) for seg in segments)
                        self._lane_packs[lane] += 1
                        self._lane_pack_segments[lane] += len(segments)
                        self._lane_pack_rows[lane] += rows
                        if rows > self._pack_rows_max:
                            self._pack_rows_max = rows

    def _gather_pack_mates(self, head, head_device, candidates, segments, seg_jobs) -> None:
        """Extend a pack with compatible mates from *candidates*.

        Mates join in fair-share order (the order repeated ``fair_pick``
        calls would have served them), each contributing at most one
        segment per ``(job, device)`` — two launches of one device in the
        same pack would break its sequential-state semantics.  A mate
        must be one ``fair_pick`` would serve next: at the head's
        priority, and with a weighted counter no higher than the head's
        after its own launch, so packing never lifts a tenant above its
        share.  The packed row total must stay within both the head's
        and each mate's ``coalesce_max_rows``.
        """
        key = segments[0].gpu.pack_key
        rows = segments[0].gpu.num_blocks
        head_cap = head.solver.config.coalesce_max_rows
        bound = head.weighted + 1.0 / head.share
        mates = sorted(
            (
                c
                for c in candidates
                if not (c[0] is head and c[1] == head_device)
            ),
            key=lambda c: (-c[0].priority, c[0].weighted, c[0].seq, c[1]),
        )
        for job, device_id in mates:
            if job.priority != head.priority or job.weighted > bound:
                break  # every later mate is further back in the fair order
            cfg = job.solver.config
            gpu = job.solver.gpus[device_id]
            if gpu.pack_key != key:
                continue
            if rows + gpu.num_blocks > min(head_cap, cfg.coalesce_max_rows):
                continue
            try:
                entry = job.schedule.take_batch(device_id)
            except Exception as exc:
                self._fail_job(job, exc)
                continue
            if entry is None:
                continue
            seq, batch = entry
            segments.append(
                PackSegment(device_id, seq, gpu, batch, (job.id, device_id))
            )
            seg_jobs.append(job)
            rows += gpu.num_blocks

    def _on_completion(self, completion) -> None:
        job = self._jobs.get(completion.tag[0])
        if job is None:
            return
        with self._lock:
            self._lane_inflight[job.lane] -= 1
            self._lane_completed[job.lane] += 1
        job.inflight -= 1
        job.completed += 1
        if job.finalized or job.error is not None:
            return
        schedule = job.schedule
        best_before = schedule.best_energy
        try:
            action = schedule.on_completion(completion)
            if action == "stop":
                schedule.halt()
            elif action == "restart":
                self._queue_resets(job)
        except Exception as exc:
            self._fail_job(job, exc)
            return
        best_after = schedule.best_energy
        if best_after < best_before:
            self._emit_incumbent(job, best_after)

    def _emit_incumbent(self, job: _Job, energy: int) -> None:
        update = IncumbentUpdate(
            job_id=job.id,
            energy=int(energy),
            vector=job.schedule.best_vector.copy(),
            elapsed=time.perf_counter() - job.schedule.start,
        )
        job.handle._push_incumbent(update)
        if job.on_improvement is not None:
            try:
                job.on_improvement(update)
            except Exception as exc:
                self._fail_job(job, exc)

    def _queue_resets(self, job: _Job) -> None:
        """§IV.B restart: queue one reset per job device behind its lane's
        in-flight launches (only this job's device state is touched).
        The 3-element tag marks reset failures, which hold no launch slot.
        """
        for device_id, gpu in enumerate(job.solver.gpus):
            self._group.run_on(job.lane, gpu.reset, tag=(job.id, device_id, "reset"))

    def _on_worker_error(self, err: WorkerError) -> None:
        if err.tag is None:  # pragma: no cover - untagged lane failure
            raise err
        job = self._jobs.get(err.tag[0])
        if len(err.tag) == 3:  # a failed reset: no launch slot to release
            if job is not None and not job.finalized:
                self._fail_job(job, err)
            return
        if job is None:  # pragma: no cover - failure of an unknown job
            return
        # a failed one-job pack ends one launch per segment
        with self._lock:
            self._lane_inflight[job.lane] -= len(err.tags)
        job.inflight -= len(err.tags)
        if not job.finalized:
            self._fail_job(job, err)

    def _fail_job(self, job: _Job, exc: BaseException) -> None:
        # the first failure is the job's cause; later ones are its fallout
        if job.error is None:
            job.error = exc
        job.schedule.halt()

    def _sweep_finalizable(self) -> None:
        for job in list(self._active.values()):
            if job.finalized or job.inflight:
                continue
            if not job.started:
                # admitted but never scheduled: only cancellation or an
                # activation-time failure can retire it without a result
                if job.error is not None:
                    with self._lock:
                        self._finalize_locked(job, JobStatus.FAILED, None, job.error)
                elif job.cancel_requested:
                    with self._lock:
                        self._finalize_locked(job, JobStatus.CANCELLED, None, None)
                continue
            if job.error is not None:
                status, result = JobStatus.FAILED, None
            elif job.schedule.done_submitting():
                if job.cancel_requested:
                    status = JobStatus.CANCELLED
                else:
                    status = JobStatus.DONE
                result = job.schedule.result()
                result.retries = self._group.retry_counts.get(job.id, 0)
            else:
                continue
            with self._lock:
                self._finalize_locked(job, status, result, job.error)

    def _finalize_locked(
        self,
        job: _Job,
        status: JobStatus,
        result: SolveResult | None,
        error: BaseException | None,
    ) -> None:
        job.finalized = True
        self._active.pop(job.id, None)
        # supervision tallies are per job and the fleet is long-lived:
        # drop them here (after the result snapshotted retry_counts) so
        # the accounting dicts stay bounded
        self._group.forget(job.id)
        # nothing of a finalized job can still be in flight (finalization
        # requires inflight == 0), so the registry entry — and with it the
        # job's solver state — is dropped; the handle keeps the result
        self._jobs.pop(job.id, None)
        lane = job.lane
        if lane is not None:  # admitted: release its lane
            members = [m for m in self._lane_members[lane] if m[0] is not job]
            self._lane_members[lane] = members
            # the lane frees the pack buffers nothing queued can use: it
            # keeps its remaining jobs' and the cached problems' (DESIGN.md §12)
            keys = {member.solver.gpus[d].pack_key for member, d in members}
            self._group.free_buffers(lane, keys, self.cache.kernels())
        self._outstanding -= 1
        self._space.notify_all()
        job.handle._finalize(status, result, error)


def _solve_inline(solver: DABSSolver, limits: SolveLimits) -> SolveResult:
    """A direct ``solve()`` (DESIGN.md §3): *solver* as the one job of a
    service stepped on the calling thread over an inline group, so no
    thread starts and every launch runs as it is submitted.  Always the
    virtual-time replay and unsupervised; the inline lanes own their pack
    buffers for this one solve, and a launch's exception leaves as
    itself."""
    num = solver.config.num_gpus
    # a lane depth of one round sends a whole round out in one pass
    service = SolveService(num, lane_depth=num)
    service._group = FleetWorkerGroup(0)
    cfg = replace(solver.config, virtual_time=True)
    # priority 0, share 1, no callback; the queue is unbounded
    handle = service._enqueue(None, solver, cfg, limits, 0, 1.0, None, True, None)
    handle.set_listener(lambda update: None)  # no one reads its incumbent stream
    try:
        while not handle.done():
            service._step(0.0)
    finally:
        service.close()
    return handle.result()


def solve(
    model,
    config: DABSConfig | None = None,
    seed: int | None = None,
    *,
    devices: int | None = None,
    **limits,
) -> SolveResult:
    """One-shot convenience: stand a service up, run one job, tear down.

    Mostly useful in examples and tests; a real deployment keeps one
    long-lived :class:`SolveService` and submits many jobs to it.
    """
    cfg = config or DABSConfig(num_gpus=devices or 2, blocks_per_gpu=8)
    fleet = devices if devices is not None else cfg.num_gpus
    with SolveService(devices=fleet, default_config=cfg) as service:
        return service.submit(model, config=cfg, seed=seed, **limits).result()
