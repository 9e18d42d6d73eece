"""The federation controller: process-per-island sharding of a solve.

:class:`Federation` is the client-facing twin of
:class:`~repro.service.SolveService` one level up the scaling axis
(DESIGN.md §9): instead of one scheduler thread over one in-process
fleet, it owns N *island processes* — each a full ``SolveService`` with
its own fleet, pools and GIL — connected in a migration topology.  A
submitted job fans out as one shard per island (same model and config,
per-island RNG streams via :func:`~repro.federation.worker.island_seed`,
an even split of the aggregate launch budget), the islands exchange
top-K elites every ``migration_period`` launches through per-edge queues
(:mod:`repro.federation.transport`), and the controller merges the
island results into one :class:`~repro.solver.result.SolveResult`.

Lifecycle: islands fork lazily on the first submit and live until
:meth:`close` (spawn → serve many jobs → drain → shutdown); one reader
thread per island streams its events (incumbents, epoch completions,
failures) back into the controller.  Health is observed, not polled —
islands heartbeat over the event pipe and an optional watchdog
(``island_timeout``) terminates hung islands so their reader sees EOF.

An island process dying mid-job is handled per ``on_island_failure``
(DESIGN.md §11): in ``"degrade"`` mode (the default) the survivors
absorb the dead island's remaining launch budget, migration edges into
the dead island become counted no-ops, and the merged result is
annotated ``degraded`` with the contributing islands; in ``"fail"``
mode the job's federated handle fails with a :class:`FederationError`
instead of hanging.

Limit semantics of a federated submit:

* ``target_energy`` / ``time_limit`` — broadcast to every island; the
  first island to reach the target triggers an early-stop ``halt`` of
  the others.
* ``max_launches`` — the *aggregate* budget, split evenly across
  islands.
* ``max_rounds`` — per island (one round = one launch per island
  device), matching the per-fleet meaning it has everywhere else.

A single-island federation skips migration entirely and is bit-exact
with a direct ``SolveService`` solve of the same (model, config, seed) —
pools, energies and device RNG lanes included — under ``virtual_time``
(asserted by ``tests/federation/``).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import threading
import time
from dataclasses import replace

import numpy as np

from repro.core.packet import VOID_ENERGY
from repro.federation.transport import TOPOLOGIES, QueueTransport
from repro.federation.worker import SOLVER_REGISTRY, island_main, island_seed
from repro.ga.adaptive import SelectionCounters
from repro.service.job import IncumbentUpdate, JobHandle, JobStatus
from repro.service.service import ServiceClosedError, ServiceOverloadedError
from repro.service.stats import FederationStats, ServiceStats
from repro.solver.dabs import DABSConfig, require_integer_weights
from repro.solver.result import SolveResult
from repro.solver.termination import SolveLimits

__all__ = [
    "Federation",
    "FederationError",
    "FederationHandle",
    "PROCESS_NAME_PREFIX",
    "solve",
]

#: island processes are named with this prefix (leak checks key on it)
PROCESS_NAME_PREFIX = "repro-federation-island"

#: seconds the controller waits for island stats / orderly process exit
_STATS_TIMEOUT = 10.0
_JOIN_TIMEOUT = 10.0


class FederationError(RuntimeError):
    """An island process failed or the platform cannot run a federation."""


class FederationHandle(JobHandle):
    """Client-side view of one federated job.

    The :class:`~repro.service.JobHandle` surface (status, wait, cancel,
    result, streamed incumbents) plus the per-island reports the merged
    result was built from.
    """

    def __init__(self, job_id: str, federation: "Federation") -> None:
        super().__init__(job_id, federation)
        self._island_reports: list[dict] = []

    def island_reports(self, timeout: float | None = None) -> list[dict]:
        """Per-island shard reports, in island order, blocking until
        terminal.  Each report carries the island's own best, launch and
        migration counts — and its final pools / RNG lane states when the
        job was submitted with ``collect_state=True``."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"job {self.job_id} still {self.status.value}")
        return list(self._island_reports)


class _FederatedJob:
    """Controller-side state of one fan-out (guarded by Federation._lock)."""

    __slots__ = (
        "id",
        "n",
        "handle",
        "statuses",
        "reports",
        "best_energy",
        "cancel_requested",
        "halted",
        "error",
        "on_improvement",
        "started",
        "lost",
        "shares",
        "spent",
    )

    def __init__(self, job_id: str, n: int, handle: FederationHandle) -> None:
        self.id = job_id
        self.n = n
        self.handle = handle
        self.statuses: dict[int, str] = {}
        self.reports: dict[int, dict | None] = {}
        self.best_energy = int(VOID_ENERGY)
        self.cancel_requested = False
        self.halted = False
        self.error: BaseException | None = None
        self.on_improvement = None
        self.started = time.perf_counter()
        self.lost: list[int] = []
        #: per-island launch-budget share, including absorbed ``extend``
        #: grants from earlier island deaths
        self.shares: list[int | None] = []
        #: island -> launches spent so far, from per-epoch ``progress``
        #: events (what degrade-mode redistribution subtracts)
        self.spent: dict[int, int] = {}


def _split_budget(total: int | None, islands: int) -> list[int | None]:
    """Even per-island shares of an aggregate launch budget."""
    if total is None:
        return [None] * islands
    base, extra = divmod(total, islands)
    return [base + (1 if i < extra else 0) for i in range(islands)]


class Federation:
    """N island processes behind one ``SolveService``-shaped front."""

    def __init__(
        self,
        islands: int = 2,
        *,
        topology: str = "ring",
        migration_period: int | None = 16,
        migration_k: int = 4,
        default_config: DABSConfig | None = None,
        devices: int | None = None,
        lane_depth: int = 2,
        seed: int | None = None,
        max_queue: int | None = None,
        island_timeout: float | None = None,
        on_island_failure: str = "degrade",
        migration_timeout: float | None = None,
    ) -> None:
        if islands < 1:
            raise ValueError("islands must be >= 1")
        if island_timeout is not None and island_timeout <= 0:
            raise ValueError("island_timeout must be > 0 or None")
        if migration_timeout is not None and migration_timeout <= 0:
            raise ValueError("migration_timeout must be > 0 or None")
        if on_island_failure not in ("degrade", "fail"):
            raise ValueError(
                "on_island_failure must be 'degrade' or 'fail', "
                f"got {on_island_failure!r}"
            )
        if topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {topology!r} (known: {', '.join(TOPOLOGIES)})"
            )
        if migration_period is not None and migration_period < 1:
            raise ValueError("migration_period must be >= 1 or None")
        if migration_k < 1:
            raise ValueError("migration_k must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 or None")
        if lane_depth < 1:
            raise ValueError("lane_depth must be >= 1")
        self.num_islands = islands
        self.topology = topology
        self.migration_period = migration_period
        self.migration_k = migration_k
        self.devices = (
            devices
            if devices is not None
            else (default_config.num_gpus if default_config else 2)
        )
        if self.devices < 1:
            raise ValueError("devices must be >= 1")
        self.lane_depth = lane_depth
        self.default_config = default_config or DABSConfig(
            num_gpus=self.devices, blocks_per_gpu=8, pool_capacity=20
        )
        self.max_queue = max_queue
        self.island_timeout = island_timeout
        self.on_island_failure = on_island_failure
        self.migration_timeout = migration_timeout
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        self._counter = itertools.count(1)
        self._jobs: dict[str, _FederatedJob] = {}
        self._stats_pending: dict[int, dict] = {}
        self._stats_counter = itertools.count(1)
        self._processes: list[mp.process.BaseProcess] = []
        self._cmd_conns: list = []
        self._cmd_locks: list[threading.Lock] = []
        self._readers: list[threading.Thread] = []
        self._transport = None
        self._closing = False
        self._closed = False
        self._dead_islands: set[int] = set()
        self._last_seen: dict[int, float] = {}
        self._watchdog: threading.Thread | None = None
        #: set once close() has drained and sends "stop": from then on an
        #: island's EOF is an orderly exit, not a loss
        self._stopping = threading.Event()

    # -- lifecycle ---------------------------------------------------------
    def _ensure_running_locked(self) -> None:
        if self._processes:
            return
        try:
            ctx = mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX
            raise FederationError(
                "federation islands need the fork start method "
                "(POSIX only)"
            ) from exc
        if self.num_islands > 1:
            self._transport = QueueTransport(
                ctx, self.num_islands, self.topology
            )
        base_seed = int(self._rng.integers(2**63))
        for island in range(self.num_islands):
            cmd_recv, cmd_send = ctx.Pipe(duplex=False)
            evt_recv, evt_send = ctx.Pipe(duplex=False)
            endpoint = (
                self._transport.endpoint(island) if self._transport else None
            )
            options = {
                "devices": self.devices,
                "config": replace(self.default_config, num_gpus=self.devices),
                "lane_depth": self.lane_depth,
                "seed": island_seed(base_seed, island),
                "migration_timeout": self.migration_timeout,
            }
            process = ctx.Process(
                target=island_main,
                args=(
                    island,
                    self.num_islands,
                    self.topology,
                    cmd_recv,
                    evt_send,
                    endpoint,
                    options,
                ),
                name=f"{PROCESS_NAME_PREFIX}-{island}",
                daemon=True,
            )
            process.start()
            cmd_recv.close()
            evt_send.close()
            self._last_seen[island] = time.monotonic()
            self._processes.append(process)
            self._cmd_conns.append(cmd_send)
            self._cmd_locks.append(threading.Lock())
            reader = threading.Thread(
                target=self._reader,
                args=(island, evt_recv),
                name=f"federation-reader-{island}",
                daemon=True,
            )
            reader.start()
            self._readers.append(reader)
        if self.island_timeout is not None and self._watchdog is None:
            self._watchdog = threading.Thread(
                target=self._watchdog_loop,
                name="federation-watchdog",
                daemon=True,
            )
            self._watchdog.start()

    def _watchdog_loop(self) -> None:
        """Hang detection: islands heartbeat every ``HEARTBEAT_PERIOD``
        seconds; one that goes silent for ``island_timeout`` is killed so
        its reader thread sees EOF and the normal island-loss path
        (:meth:`_on_island_exit`) takes over."""
        period = max(0.05, self.island_timeout / 4.0)
        while not self._stopping.wait(period):
            now = time.monotonic()
            with self._lock:
                if not self._processes:
                    return
                stale = [
                    (island, self._processes[island])
                    for island in range(self.num_islands)
                    if island not in self._dead_islands
                    and self._processes[island].is_alive()
                    and now - self._last_seen.get(island, now)
                    > self.island_timeout
                ]
            for island, process in stale:
                process.terminate()
                process.join(1.0)
                if process.is_alive():  # pragma: no cover - stuck in kernel
                    process.kill()
                    process.join(1.0)

    def _send(self, island: int, message: tuple) -> None:
        with self._cmd_locks[island]:
            try:
                self._cmd_conns[island].send(message)
            except (BrokenPipeError, OSError):
                pass  # the reader notices the dead island and fails jobs

    def close(self, cancel: bool = False) -> None:
        """Drain (default) or cancel outstanding jobs, then shut every
        island process down.  Idempotent."""
        with self._lock:
            self._closing = True
            outstanding = list(self._jobs.values())
        if cancel:
            for job in outstanding:
                self._request_cancel(job.id)
        for job in outstanding:
            job.handle.wait()
        self._stopping.set()
        for island in range(len(self._cmd_conns)):
            self._send(island, ("stop",))
        for process in self._processes:
            process.join(_JOIN_TIMEOUT)
            if process.is_alive():  # pragma: no cover - hung island
                process.terminate()
                process.join(1.0)
                if process.is_alive():
                    process.kill()
                    process.join(1.0)
        for conn in self._cmd_conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        for reader in self._readers:
            reader.join(_JOIN_TIMEOUT)
        if self._watchdog is not None:
            self._watchdog.join(1.0)
            self._watchdog = None
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        self._processes.clear()
        self._cmd_conns.clear()
        self._cmd_locks.clear()
        self._readers.clear()
        self._closed = True

    def __enter__(self) -> "Federation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def healthy(self) -> bool:
        """True when every spawned island process is alive (vacuously
        true before the lazy spawn)."""
        return all(p.is_alive() for p in self._processes)

    # -- submission --------------------------------------------------------
    def submit(
        self,
        model,
        *,
        config: DABSConfig | None = None,
        seed: int | None = None,
        solver_cls=None,
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
        collect_state: bool = False,
    ) -> FederationHandle:
        """Fan one job out across every island; returns the merged handle.

        *config* is the **per-island** solver configuration (its
        ``num_gpus`` is each island's device count, clamped to the
        island fleet); *seed* is the base of the per-island RNG streams.
        *solver_cls* may be a registered class (``DABSSolver`` /
        ``ABSSolver``) or its registry name — islands resolve solvers by
        name, classes never cross the process boundary.
        ``collect_state=True`` makes each island attach its final pools
        and RNG lane states to its report (the bit-exactness probes).
        """
        require_integer_weights(model)
        SolveLimits(target_energy, time_limit, max_rounds, max_launches)
        if share <= 0:
            raise ValueError("share must be > 0")
        solver_name = self._solver_name(solver_cls)
        cfg = config or self.default_config
        want = devices if devices is not None else cfg.num_gpus
        if want < 1:
            raise ValueError("devices must be >= 1")
        cfg = replace(cfg, num_gpus=min(want, self.devices))
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                if self._closing:
                    raise ServiceClosedError("federation is closed")
                if self.max_queue is None or len(self._jobs) < self.max_queue:
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
            if seed is None:
                seed = int(self._rng.integers(2**63))
            job_id = f"fed-{next(self._counter)}"
            handle = FederationHandle(job_id, self)
            job = _FederatedJob(job_id, model.n, handle)
            job.on_improvement = on_improvement
            self._ensure_running_locked()
            live = [
                island
                for island in range(self.num_islands)
                if island not in self._dead_islands
            ]
            if not live:
                raise FederationError(
                    "every island process is lost; the federation "
                    "cannot run jobs"
                )
            # budget goes to the live islands only; islands already lost
            # are pre-marked so completion counting stays exact
            shares: list[int | None] = [0] * self.num_islands
            live_shares = _split_budget(max_launches, len(live))
            for k, island in enumerate(live):
                shares[island] = live_shares[k]
            job.shares = shares
            for island in range(self.num_islands):
                if island not in self._dead_islands:
                    continue
                job.statuses[island] = "lost"
                job.lost.append(island)
            self._jobs[job_id] = job
        for island in live:
            payload = {
                "model": model,
                "config": cfg,
                "seed": island_seed(seed, island),
                "solver": solver_name,
                "target_energy": target_energy,
                "time_limit": time_limit,
                "max_rounds": max_rounds,
                "max_launches": shares[island],
                "migration_period": self.migration_period,
                "migration_k": self.migration_k,
                "priority": priority,
                "share": share,
                "collect_state": collect_state,
            }
            self._send(island, ("solve", job_id, payload))
        handle._mark_running()
        return handle

    @staticmethod
    def _solver_name(solver_cls) -> str:
        if solver_cls is None:
            return "dabs"
        if isinstance(solver_cls, str):
            if solver_cls not in SOLVER_REGISTRY:
                raise ValueError(
                    f"unknown solver {solver_cls!r} "
                    f"(known: {', '.join(SOLVER_REGISTRY)})"
                )
            return solver_cls
        for name, cls in SOLVER_REGISTRY.items():
            if cls is solver_cls:
                return name
        raise ValueError(
            "federation islands resolve solvers by registry name; "
            f"{solver_cls!r} is not in repro.federation.worker.SOLVER_REGISTRY"
        )

    def solve_many(self, requests) -> list[SolveResult]:
        """Submit a batch of jobs and wait for all results, in order
        (the :meth:`SolveService.solve_many` surface, federated)."""
        handles = [
            self.submit(request.pop("model"), **request)
            for request in (dict(r) for r in requests)
        ]
        return [handle.result() for handle in handles]

    # -- introspection -----------------------------------------------------
    def stats_snapshot(self) -> FederationStats:
        """Typed federation snapshot (DESIGN.md §13): the controller state
        plus one :class:`~repro.service.stats.ServiceStats` per island
        (``None`` for a dead or silent island) — the structure the
        Prometheus exporter and tests read."""
        with self._lock:
            controller = dict(
                islands=self.num_islands,
                topology=self.topology,
                migration_period=self.migration_period,
                migration_k=self.migration_k,
                outstanding=len(self._jobs),
                running=bool(self._processes),
                healthy=all(p.is_alive() for p in self._processes),
                dead_islands=tuple(sorted(self._dead_islands)),
            )
            if not self._processes:
                return FederationStats(**controller)
            live = [
                island
                for island in range(self.num_islands)
                if island not in self._dead_islands
            ]
            request_id = next(self._stats_counter)
            pending = {"event": threading.Event(), "payloads": {}}
            self._stats_pending[request_id] = pending
        for island in live:
            self._send(island, ("stats", request_id))
        deadline = time.monotonic() + _STATS_TIMEOUT
        while len(pending["payloads"]) < len(live):
            remaining = deadline - time.monotonic()
            alive = all(self._processes[i].is_alive() for i in live)
            if remaining <= 0 or not alive:
                break
            pending["event"].wait(min(remaining, 0.05))
            pending["event"].clear()
        with self._lock:
            self._stats_pending.pop(request_id, None)
        payloads = [pending["payloads"].get(i) for i in range(self.num_islands)]
        return FederationStats(
            **controller,
            island_stats=tuple(
                ServiceStats.from_dict(p) if p is not None else None
                for p in payloads
            ),
        )

    def stats(self) -> dict:
        """Federation-wide snapshot as a dict: controller state plus each
        island's service stats (the wire layout of :meth:`stats_snapshot`)."""
        return self.stats_snapshot().to_dict()

    # -- cancellation ------------------------------------------------------
    def _request_cancel(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return
            job.cancel_requested = True
        for island in range(self.num_islands):
            self._send(island, ("cancel", job_id))

    # -- island event plumbing ---------------------------------------------
    def _reader(self, island: int, evt) -> None:
        while True:
            try:
                event = evt.recv()
            except (EOFError, OSError):
                self._on_island_exit(island)
                return
            try:
                self._dispatch(island, event)
            except Exception:  # pragma: no cover - defensive: keep reading
                pass

    def _dispatch(self, island: int, event: tuple) -> None:
        # any event proves the island alive (one writer per island: its
        # reader thread; dict stores are atomic under the GIL)
        self._last_seen[island] = time.monotonic()
        kind = event[0]
        if kind in ("up", "hb"):
            return
        if kind == "stats":
            _, request_id, payload = event
            with self._lock:
                pending = self._stats_pending.get(request_id)
                if pending is not None:
                    pending["payloads"][island] = payload
                    pending["event"].set()
            return
        job_id = event[1]
        if kind == "progress":
            # per-epoch launch tally; _on_island_exit subtracts it when
            # redistributing a dead island's budget share
            with self._lock:
                job = self._jobs.get(job_id)
                if job is not None:
                    job.spent[event[2]] = event[3]
            return
        if kind == "incumbent":
            self._on_incumbent(island, event)
            return
        if kind == "target":
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None or job.halted:
                    return
                job.halted = True
            for other in range(self.num_islands):
                if other != island:
                    self._send(other, ("halt", job_id))
            return
        if kind in ("done", "cancelled", "failed"):
            with self._lock:
                job = self._jobs.get(job_id)
                if job is None or island in job.statuses:
                    return
                job.statuses[island] = kind
                if kind == "failed":
                    detail = event[3]
                    if job.error is None:
                        job.error = FederationError(
                            f"island {island}: {detail}"
                        )
                else:
                    job.reports[island] = event[3]
                complete = len(job.statuses) == self.num_islands
                failed = kind == "failed"
            if failed:
                # free the healthy islands instead of letting them run
                # a doomed job to completion
                for other in range(self.num_islands):
                    if other != island:
                        self._send(other, ("cancel", job_id))
            if complete:
                self._finalize(job)

    def _on_incumbent(self, island: int, event: tuple) -> None:
        _, job_id, _, energy, vector, elapsed = event
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.error is not None or energy >= job.best_energy:
                return
            job.best_energy = int(energy)
            callback = job.on_improvement
            handle = job.handle
        update = IncumbentUpdate(
            job_id=job_id,
            energy=int(energy),
            vector=np.asarray(vector, dtype=np.uint8),
            elapsed=float(elapsed),
        )
        handle._push_incumbent(update)
        if callback is not None:
            try:
                callback(update)
            except Exception as exc:
                # as SolveService does: the callback's exception fails
                # the job; its islands are cancelled and their terminal
                # events finalize it FAILED
                with self._lock:
                    if job.error is None:
                        job.error = exc
                for island in range(self.num_islands):
                    self._send(island, ("cancel", job_id))

    def _on_island_exit(self, island: int) -> None:
        """An island's event pipe hit EOF: the process died (crash, kill,
        watchdog) — absorb the loss per ``on_island_failure``.

        ``"degrade"`` re-routes around the corpse: survivors are told the
        island is dead (their transport sends to it become counted
        no-ops and pending migration collects stop waiting on it), each
        in-flight job's unspent shard budget is redistributed to the
        islands still working that job, and the merged result comes out
        ``degraded``.  ``"fail"`` keeps the strict pre-resilience
        behavior: the job's handle fails with a
        :class:`FederationError`."""
        finalize: list[_FederatedJob] = []
        extends: list[tuple[int, str, int]] = []
        notify: list[int] = []
        cancels: list[str] = []
        with self._lock:
            if self._stopping.is_set() or island in self._dead_islands:
                return
            self._dead_islands.add(island)
            degrade = self.on_island_failure == "degrade"
            live = [
                other
                for other in range(self.num_islands)
                if other not in self._dead_islands
            ]
            notify = list(live) if degrade else []
            for job in self._jobs.values():
                if island in job.statuses:
                    continue
                if degrade:
                    job.statuses[island] = "lost"
                    job.lost.append(island)
                    survivors = [
                        other for other in live if other not in job.statuses
                    ]
                    share = (
                        job.shares[island]
                        if island < len(job.shares)
                        else None
                    )
                    if share:
                        # only the unspent remainder moves; progress is
                        # reported per epoch, so a mid-epoch death can
                        # still overshoot by < migration_period launches
                        share = max(share - job.spent.get(island, 0), 0)
                    if survivors and share:
                        extra = _split_budget(share, len(survivors))
                        for k, dst in enumerate(survivors):
                            if extra[k]:
                                # grow the survivor's recorded share so a
                                # later death redistributes the grant too
                                job.shares[dst] += extra[k]
                        extends.extend(
                            (dst, job.id, extra[k])
                            for k, dst in enumerate(survivors)
                            if extra[k]
                        )
                    if not live and job.error is None:
                        job.error = FederationError(
                            f"job {job.id}: all {self.num_islands} "
                            "islands lost"
                        )
                else:
                    job.statuses[island] = "failed"
                    if job.error is None:
                        job.error = FederationError(
                            f"island {island} exited unexpectedly"
                        )
                    # free the survivors: cancel the doomed job so their
                    # migration collects stop waiting on the dead peer
                    cancels.extend(
                        (other, job.id)
                        for other in live
                        if other not in job.statuses
                    )
                if len(job.statuses) == self.num_islands:
                    finalize.append(job)
        for dst in notify:
            self._send(dst, ("dead", island))
        for dst, job_id, extra in extends:
            self._send(dst, ("extend", job_id, extra))
        for dst, job_id in cancels:
            self._send(dst, ("cancel", job_id))
        for job in finalize:
            self._finalize(job)

    # -- result merging ----------------------------------------------------
    def _finalize(self, job: _FederatedJob) -> None:
        with self._lock:
            self._jobs.pop(job.id, None)
            self._space.notify_all()
            reports = [
                job.reports.get(i)
                for i in range(self.num_islands)
                if job.reports.get(i) is not None
            ]
            job.handle._island_reports = reports
            if job.error is not None and not job.cancel_requested:
                status, result = JobStatus.FAILED, None
            else:
                started = any(r["launches"] > 0 for r in reports)
                cancelled = job.cancel_requested or any(
                    s == "cancelled" for s in job.statuses.values()
                )
                status = JobStatus.CANCELLED if cancelled else JobStatus.DONE
                result = (
                    self._merge(job, reports)
                    if reports and (started or not cancelled)
                    else None
                )
            job.handle._finalize(status, result, job.error)

    def _merge(self, job: _FederatedJob, reports: list[dict]) -> SolveResult:
        """One :class:`SolveResult` from the island shard reports.

        Best solution: minimum energy, first island in id order on ties.
        Launch/flip/restart totals are summed; ``rounds`` is the maximum
        island round count (islands run concurrently, rounds are not
        additive).  Histories are concatenated in island-local time order
        — island clocks all start at shard start, so the merged history
        is the federation's improvement trace to segment precision.

        A merge over fewer islands than were asked for (some lost
        mid-solve) or over shards that degraded internally (backend
        fallback) is flagged ``degraded`` with reasons naming the lost
        and contributing islands; shard retry counts are summed into
        ``retries``.
        """
        best_energy = int(VOID_ENERGY)
        best_vector = np.zeros(job.n, dtype=np.uint8)
        first_found = None
        counters = SelectionCounters()
        history = []
        time_to_target = None
        reached = False
        for report in reports:
            if report["best_energy"] < best_energy:
                best_energy = report["best_energy"]
                best_vector = np.asarray(report["best_vector"], dtype=np.uint8)
                first_found = report["first_found"]
            counters.merge(report["counters"])
            history.extend(report["history"])
            reached = reached or report["reached_target"]
            if report["time_to_target"] is not None and (
                time_to_target is None
                or report["time_to_target"] < time_to_target
            ):
                time_to_target = report["time_to_target"]
        history.sort(key=lambda event: event.time)
        reasons: list[str] = []
        lost = sorted(job.lost)
        if lost:
            contributing = sorted(
                i
                for i in range(self.num_islands)
                if job.reports.get(i) is not None
            )
            reasons.append(
                f"islands {lost} lost mid-solve; "
                f"merged from islands {contributing}"
            )
        for report in reports:
            reasons.extend(report.get("degraded_reasons", ()))
        return SolveResult(
            best_vector=best_vector,
            best_energy=best_energy,
            reached_target=reached,
            time_to_target=time_to_target,
            elapsed=time.perf_counter() - job.started,
            rounds=max((r["rounds"] for r in reports), default=0),
            total_flips=sum(r["flips"] for r in reports),
            counters=counters,
            first_found=first_found,
            history=history,
            restarts=sum(r["restarts"] for r in reports),
            launches=sum(r["launches"] for r in reports),
            greedy_truncations=sum(r["truncations"] for r in reports),
            greedy_truncation_warnings=sum(
                r["truncation_events"] for r in reports
            ),
            retries=sum(r.get("retries", 0) for r in reports),
            degraded=bool(reasons),
            degraded_reasons=tuple(reasons),
        )


def solve(
    model,
    islands: int = 2,
    config: DABSConfig | None = None,
    seed: int | None = None,
    *,
    topology: str = "ring",
    migration_period: int | None = 16,
    migration_k: int = 4,
    island_timeout: float | None = None,
    on_island_failure: str = "degrade",
    **limits,
) -> SolveResult:
    """One-shot convenience: stand a federation up, run one job, tear
    down.  A real deployment keeps one long-lived :class:`Federation`
    and submits many jobs to it."""
    with Federation(
        islands,
        topology=topology,
        migration_period=migration_period,
        migration_k=migration_k,
        default_config=config,
        seed=seed,
        island_timeout=island_timeout,
        on_island_failure=on_island_failure,
    ) as federation:
        return federation.submit(model, config=config, seed=seed, **limits).result()
