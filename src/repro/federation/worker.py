"""The island process: one full solve service plus the migration loop.

Each federation island is a forked process running ``island_main`` — a
command loop over the controller pipe in the main thread, one worker
thread per federated job, and a long-lived
:class:`~repro.service.SolveService` that owns the island's fleet.  A
job shard is solved as a sequence of *epochs*: each epoch submits the
island's (persistent) solver for ``migration_period`` more launches via
``submit_solver`` — repeated submissions continue the solver's pools and
RNG streams exactly like repeated ``solve()`` calls — then exchanges
top-K elites with the topology neighbours before the next epoch starts.

Migration ordering guarantees (DESIGN.md §9):

* every island sends exactly one message per out-edge per epoch (elites,
  possibly zero rows), and a ``done`` sentinel per out-edge when it
  stops producing — so a blocking collect always terminates;
* elites are **published before collection** each epoch, which makes the
  epoch barrier deadlock-free in any topology;
* incoming migrants are folded in ascending source-island order, row *j*
  into pool ``j % num_pools`` — insertion order is a pure function of
  (topology, epoch), never of message arrival timing, so fixed seeds
  plus ``virtual_time`` replay make the merged pools bit-reproducible.

A single-island federation (or one with migration disabled) skips the
epoch segmentation entirely and submits the job's limits verbatim, which
is what makes it bit-exact with a direct ``SolveService`` solve.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from collections import deque
from dataclasses import replace

import numpy as np

from repro.core.packet import VOID_ENERGY
from repro.resilience import chaos
from repro.federation.transport import (
    MigrationMessage,
    in_neighbors,
    out_neighbors,
)
from repro.ga.adaptive import SelectionCounters
from repro.service.job import JobCancelledError
from repro.service.service import SolveService
from repro.solver.abs_solver import ABSSolver
from repro.solver.dabs import DABSSolver

__all__ = ["SOLVER_REGISTRY", "island_main", "island_seed"]

#: solver classes a federated submit may name (workers resolve by name —
#: classes never cross the process boundary)
SOLVER_REGISTRY = {"dabs": DABSSolver, "abs": ABSSolver}

#: seconds between abort-flag checks while blocked on a migration source
_POLL = 0.02

#: odd 64-bit constant decorrelating per-island RNG streams
_SEED_STRIDE = 0x9E3779B97F4A7C15

#: seconds between heartbeat events to the controller (the controller's
#: island_timeout watchdog compares arrival gaps against this cadence)
HEARTBEAT_PERIOD = 0.25

#: exit code of a chaos ``island_kill`` death (tests assert it)
CHAOS_EXIT_CODE = 13


def island_seed(base: int, island: int) -> int:
    """Deterministic per-island seed derivation.

    Island 0 keeps the base seed unchanged — the single-island federation
    must construct the *identical* solver a direct service submit would —
    and every other island offsets by a large odd stride so neighbouring
    islands never share a Mersenne-twister stream.
    """
    if island == 0:
        return base
    return (base + island * _SEED_STRIDE) % (2**63)


def _take_elites(pools, k: int):
    """Top-*k* packet rows across all of the island's pools.

    Pools are energy-sorted, so the global top-k is a stable argsort over
    the concatenated energy columns (ties resolve to the lower pool
    index, then the better rank — deterministic).  Rows still at void
    energy (unreturned random prefill) are never migrated; early epochs
    may therefore ship fewer than *k* rows, or none.
    """
    energies = np.concatenate([p.energies for p in pools])
    vectors = np.concatenate([p.vectors for p in pools])
    algorithms = np.concatenate([p.algorithms for p in pools])
    operations = np.concatenate([p.operations for p in pools])
    order = np.argsort(energies, kind="stable")[:k]
    order = order[energies[order] < VOID_ENERGY]
    return (
        vectors[order].copy(),
        energies[order].copy(),
        algorithms[order].copy(),
        operations[order].copy(),
    )


def _insert_migrants(pools, message: MigrationMessage) -> int:
    """Fold one elites message into the island's pools; returns rows kept.

    Row *j* goes to pool ``j % len(pools)`` — the deterministic round-
    robin spray that seeds every pool of the ring with foreign elites
    instead of concentrating them in one.
    """
    rows = 0 if message.vectors is None else message.vectors.shape[0]
    if rows == 0:
        return 0
    inserted = 0
    for index, pool in enumerate(pools):
        take = np.arange(index, rows, len(pools))
        if take.size == 0:
            continue
        inserted += pool.insert_batch(
            message.vectors[take],
            message.energies[take],
            message.algorithms[take],
            message.operations[take],
        )
    return inserted


class _Mailbox:
    """Demultiplexes one endpoint's edges into per-(job, source) streams.

    Transport edges are shared by every concurrently federated job, so a
    receive for job A may surface job B's message first; it is stashed
    and replayed when B's collect comes around.  Per (job, source) the
    stream is ordered (one FIFO per edge), so the collect for epoch *e*
    only ever sees epoch-*e* elites or the source's ``done`` sentinel.
    """

    def __init__(self, endpoint, timeout: float | None = None) -> None:
        self._endpoint = endpoint
        self._stash: dict[tuple[str, int], deque] = {}
        self._drained: set[tuple[str, int]] = set()
        #: islands the controller declared dead — treated as permanently
        #: drained for every job, so no collect ever blocks on them
        self._dead_sources: set[int] = set()
        #: per-collect wait bound for lossy transports; None (the
        #: deterministic default) blocks until the source publishes,
        #: drains or is declared dead
        self._timeout = timeout
        #: collects abandoned because the bound expired (migrants lost)
        self.timeouts = 0

    def mark_dead(self, island: int) -> None:
        """Degraded-topology mode (DESIGN.md §11): *island* will never
        publish again; collects on it return None immediately, including
        a collect currently blocked in its poll loop."""
        self._dead_sources.add(island)

    def collect(
        self, job_id: str, src: int, epoch: int, abort: threading.Event
    ) -> MigrationMessage | None:
        """Block until *src*'s epoch-*epoch* elites for *job_id* arrive.

        Returns None when the source is drained (``done`` sentinel), dead
        (controller broadcast), *abort* is set, or the migration timeout
        expires (a lossy transport dropped the epoch's batch) — all mean
        "no migrants this epoch"."""
        key = (job_id, src)
        deadline = (
            None
            if self._timeout is None
            else time.monotonic() + self._timeout
        )
        while True:
            stash = self._stash.get(key)
            if stash:
                message = stash.popleft()
                if message.kind == "done":
                    self._drained.add(key)
                    return None
                if message.epoch == epoch:
                    return message
                continue  # stale epoch (post-abort catch-up): drop
            if key in self._drained or src in self._dead_sources:
                return None
            message = self._endpoint.recv(src, _POLL)
            if message is None:
                if abort.is_set():
                    return None
                if deadline is not None and time.monotonic() > deadline:
                    self.timeouts += 1
                    return None
                continue
            self._stash.setdefault((message.job_id, src), deque()).append(
                message
            )

    def forget(self, job_id: str) -> None:
        """Drop a finished job's stashed messages."""
        for key in [k for k in self._stash if k[0] == job_id]:
            del self._stash[key]
            self._drained.discard(key)


class _Accumulator:
    """Merges one island's per-segment results into island-job totals."""

    def __init__(self) -> None:
        self.best_energy = int(VOID_ENERGY)
        self.best_vector = None
        self.first_found = None
        self.reached_target = False
        self.time_to_target = None
        self.history = []
        self.launches = 0
        self.rounds = 0
        self.flips = 0
        self.restarts = 0
        self.truncations = 0
        self.truncation_events = 0
        self.retries = 0
        self.degraded_reasons: list[str] = []
        self.run_elapsed = 0.0  # sum of segment solve times (no waits)

    def fold(self, result) -> None:
        if result is None:
            return
        self.retries += getattr(result, "retries", 0)
        if getattr(result, "degraded", False):
            self.degraded_reasons.extend(result.degraded_reasons)
        offset = self.run_elapsed
        if result.best_energy < self.best_energy:
            self.best_energy = int(result.best_energy)
            self.best_vector = result.best_vector.copy()
            self.first_found = result.first_found
        self.history.extend(
            replace(event, time=event.time + offset) for event in result.history
        )
        self.reached_target = self.reached_target or result.reached_target
        if self.time_to_target is None and result.time_to_target is not None:
            self.time_to_target = offset + result.time_to_target
        self.launches += result.launches
        self.rounds += result.rounds
        self.flips += result.total_flips
        self.restarts += result.restarts
        self.truncations += result.greedy_truncations
        self.truncation_events += result.greedy_truncation_warnings
        self.run_elapsed += result.elapsed


class _IslandJob:
    """Per-job state on the island (command loop + job thread)."""

    def __init__(self, job_id: str, payload: dict) -> None:
        self.id = job_id
        self.payload = payload
        self.halt = threading.Event()
        self.cancelled = False
        self.thread: threading.Thread | None = None
        self.current = None  # the in-flight segment's JobHandle
        self.lock = threading.Lock()
        #: extra launch budget granted by the controller when a peer
        #: island died (its shard redistributed to survivors); written by
        #: the command loop, read by the job thread each epoch
        self.extra = 0

    def interrupt(self, cancelled: bool) -> None:
        if cancelled:
            self.cancelled = True
        self.halt.set()
        with self.lock:
            handle = self.current
        if handle is not None:
            handle.cancel()


def _segment_kwargs(payload: dict, seg: int | None, deadline) -> dict:
    kwargs = {}
    if payload.get("target_energy") is not None:
        kwargs["target_energy"] = payload["target_energy"]
    if deadline is not None:
        kwargs["time_limit"] = max(deadline - time.monotonic(), 1e-6)
    if seg is not None:
        kwargs["max_launches"] = seg
    return kwargs


def _run_job(context: dict, job: _IslandJob) -> None:
    """One federated job shard, run on its own island thread."""
    island = context["island"]
    islands = context["islands"]
    topology = context["topology"]
    service: SolveService = context["service"]
    endpoint = context["endpoint"]
    mailbox: _Mailbox = context["mailbox"]
    emit = context["emit"]
    payload = job.payload

    try:
        model = payload["model"]
        cfg = payload["config"]
        solver_cls = SOLVER_REGISTRY[payload["solver"]]
        prepared = service.cache.prepare(model, cfg.backend)
        solver = solver_cls(model, cfg, seed=payload["seed"], prepared=prepared)
    except Exception as exc:
        emit(("failed", job.id, island, _describe(exc)))
        _send_done(endpoint, topology, islands, island, job.id)
        return

    out = out_neighbors(topology, islands, island)
    sources = in_neighbors(topology, islands, island)
    period = payload["migration_period"]
    migrate = islands > 1 and period is not None
    k = payload["migration_k"]
    acc = _Accumulator()
    migrants_in = migrants_out = epoch = 0
    deadline = (
        None
        if payload.get("time_limit") is None
        else time.monotonic() + payload["time_limit"]
    )
    budgets = []
    if payload.get("max_launches") is not None:
        budgets.append(payload["max_launches"])
    if payload.get("max_rounds") is not None:
        budgets.append(payload["max_rounds"] * cfg.num_gpus)
    budget = min(budgets) if budgets else None
    started = time.perf_counter()

    def segment(seg_kwargs: dict):
        def on_improvement(update):
            emit(
                (
                    "incumbent",
                    job.id,
                    island,
                    int(update.energy),
                    update.vector,
                    acc.run_elapsed + update.elapsed,
                )
            )

        handle = service.submit_solver(
            solver,
            priority=payload["priority"],
            share=payload["share"],
            on_improvement=on_improvement,
            **seg_kwargs,
        )
        with job.lock:
            job.current = handle
        if job.halt.is_set():
            handle.cancel()
        try:
            return handle.result()
        except JobCancelledError:
            return None
        finally:
            with job.lock:
                job.current = None

    failure = None
    try:
        if not migrate:
            if chaos.fire("island_kill", who=island):
                os._exit(CHAOS_EXIT_CODE)
            if budget is not None and budget <= 0:
                pass  # zero-launch share (aggregate budget < islands)
            else:
                # one verbatim submission: identical limits, identical
                # scheduling — the bit-exactness path for islands == 1
                kwargs = _segment_kwargs(
                    payload, payload.get("max_launches"), deadline
                )
                if payload.get("max_rounds") is not None:
                    kwargs["max_rounds"] = payload["max_rounds"]
                result = segment(kwargs)
                acc.fold(result)
                if acc.reached_target:
                    emit(("target", job.id, island))
        else:
            while not job.halt.is_set():
                if chaos.fire("island_kill", who=island):
                    os._exit(CHAOS_EXIT_CODE)
                remaining = (
                    None
                    if budget is None
                    else budget + job.extra - acc.launches
                )
                if remaining is not None and remaining <= 0:
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    break
                seg = period if remaining is None else min(period, remaining)
                result = segment(_segment_kwargs(payload, seg, deadline))
                acc.fold(result)
                # per-epoch spend tally: if this island dies, the
                # controller redistributes only the unspent remainder
                emit(("progress", job.id, island, acc.launches))
                if acc.reached_target:
                    emit(("target", job.id, island))
                    break
                if job.halt.is_set():
                    break
                # epoch barrier: publish, then collect in source order
                vectors, energies, algorithms, operations = _take_elites(
                    solver.pools, k
                )
                for dst in out:
                    endpoint.send(
                        dst,
                        MigrationMessage(
                            job.id,
                            island,
                            epoch,
                            "elites",
                            vectors,
                            energies,
                            algorithms,
                            operations,
                        ),
                    )
                migrants_out += vectors.shape[0] * len(out)
                for src in sources:
                    message = mailbox.collect(job.id, src, epoch, job.halt)
                    if message is not None:
                        migrants_in += _insert_migrants(solver.pools, message)
                epoch += 1
    except Exception as exc:  # solver/policy failure: report, free peers
        failure = _describe(exc)
    finally:
        _send_done(endpoint, topology, islands, island, job.id)
        if mailbox is not None:
            mailbox.forget(job.id)

    if failure is not None:
        emit(("failed", job.id, island, failure))
        return
    report = _report(
        island, acc, solver, epoch, migrants_in, migrants_out, started, payload
    )
    if job.cancelled:
        emit(("cancelled", job.id, island, report))
    else:
        emit(("done", job.id, island, report))


def _send_done(endpoint, topology, islands, island, job_id) -> None:
    """Tell every out-neighbour this island is drained for *job_id*."""
    if endpoint is None:
        return
    for dst in out_neighbors(topology, islands, island):
        try:
            endpoint.send(dst, MigrationMessage.done(job_id, island, -1))
        except Exception:  # pragma: no cover - peer teardown race
            pass


def _describe(exc: BaseException) -> str:
    return "".join(
        traceback.format_exception_only(type(exc), exc)
    ).strip()


def _report(
    island, acc: _Accumulator, solver, epochs, migrants_in, migrants_out,
    started, payload,
) -> dict:
    report = {
        "island": island,
        "best_energy": acc.best_energy,
        "best_vector": (
            None if acc.best_vector is None else acc.best_vector.copy()
        ),
        "first_found": acc.first_found,
        "reached_target": acc.reached_target,
        "time_to_target": acc.time_to_target,
        "history": acc.history,
        "launches": acc.launches,
        "rounds": acc.rounds,
        "flips": acc.flips,
        "restarts": acc.restarts,
        "truncations": acc.truncations,
        "truncation_events": acc.truncation_events,
        "retries": acc.retries,
        "degraded_reasons": list(acc.degraded_reasons),
        "elapsed": time.perf_counter() - started,
        "epochs": epochs,
        "migrants_in": migrants_in,
        "migrants_out": migrants_out,
        "counters": _copy_counters(solver.counters),
        "state": None,
    }
    if payload.get("collect_state"):
        report["state"] = {
            "pools": [
                {
                    "vectors": pool.vectors.copy(),
                    "energies": pool.energies.copy(),
                    "algorithms": pool.algorithms.copy(),
                    "operations": pool.operations.copy(),
                }
                for pool in solver.pools
            ],
            "rng": [gpu.rng_state.copy() for gpu in solver.gpus],
            "block_x": [gpu.block_x.copy() for gpu in solver.gpus],
        }
    return report


def _copy_counters(counters: SelectionCounters) -> SelectionCounters:
    snapshot = SelectionCounters()
    snapshot.merge(counters)
    return snapshot


def island_main(
    island: int,
    islands: int,
    topology: str,
    cmd,
    evt,
    endpoint,
    options: dict,
) -> None:
    """Island process entry point (runs until ``stop`` or controller EOF).

    Commands arrive on *cmd* (a ``Connection``): ``("solve", job_id,
    payload)``, ``("cancel", job_id)``, ``("halt", job_id)`` — the
    early-stop broadcast after another island reached the target —
    ``("dead", island)`` — a peer died; reroute migration around it —
    ``("extend", job_id, extra)`` — absorb part of a dead peer's launch
    budget — ``("stats", request_id)`` and ``("stop",)``.  Events leave
    on *evt* from whichever thread produced them, serialized by one
    lock; a dedicated thread additionally emits ``("hb", island)``
    heartbeats so the controller's watchdog can tell a hung island from
    a busy one (the command loop itself blocks on ``recv``), and each
    job thread emits ``("progress", job_id, island, launches)`` per
    epoch so degrade-mode redistribution knows the spent budget.
    """
    evt_lock = threading.Lock()

    def emit(event: tuple) -> None:
        with evt_lock:
            try:
                evt.send(event)
            except (BrokenPipeError, OSError):  # controller went away
                pass

    hb_stop = threading.Event()

    def heartbeat() -> None:
        while not hb_stop.wait(HEARTBEAT_PERIOD):
            emit(("hb", island))

    threading.Thread(
        target=heartbeat, name=f"island-{island}-hb", daemon=True
    ).start()

    mailbox = (
        _Mailbox(endpoint, timeout=options.get("migration_timeout"))
        if endpoint is not None
        else None
    )
    jobs: dict[str, _IslandJob] = {}
    service = SolveService(
        devices=options["devices"],
        default_config=options["config"],
        lane_depth=options.get("lane_depth", 2),
        seed=options.get("seed"),
    )
    context = {
        "island": island,
        "islands": islands,
        "topology": topology,
        "service": service,
        "endpoint": endpoint,
        "mailbox": mailbox,
        "emit": emit,
    }
    try:
        with service:
            emit(("up", island))
            while True:
                try:
                    message = cmd.recv()
                except (EOFError, OSError):
                    for job in jobs.values():
                        job.interrupt(cancelled=True)
                    break
                op = message[0]
                if op == "solve":
                    job = _IslandJob(message[1], message[2])
                    jobs[job.id] = job
                    job.thread = threading.Thread(
                        target=_run_job,
                        args=(context, job),
                        name=f"island-{island}-{job.id}",
                        daemon=True,
                    )
                    job.thread.start()
                elif op in ("cancel", "halt"):
                    job = jobs.get(message[1])
                    if job is not None:
                        job.interrupt(cancelled=op == "cancel")
                elif op == "dead":
                    # a peer island died: stop waiting on (and sending
                    # to) it — the degraded-topology reroute
                    if mailbox is not None:
                        mailbox.mark_dead(message[1])
                    if endpoint is not None:
                        endpoint.mark_dead(message[1])
                elif op == "extend":
                    job = jobs.get(message[1])
                    if job is not None:
                        job.extra += message[2]
                elif op == "stats":
                    emit(("stats", message[1], service.stats()))
                elif op == "stop":
                    break
            for job in jobs.values():
                if job.thread is not None:
                    job.thread.join()
    finally:
        hb_stop.set()
        try:
            evt.close()
        except OSError:  # pragma: no cover
            pass
