"""In-memory span tracer that wraps the solver stack's public calls.

The benchmark never edits ``src/``: it replaces a layer's public
function or method with a timing wrapper for the duration of a traced
run (:func:`install_layers`) and puts the original back afterwards
(:meth:`Tracer.uninstall`).  Each wrapper records one span — name,
start, end, parent (kept on a per-thread stack) and job id — plus the
span's self time, which is its duration minus the time its child spans
cover.  Spans stay in memory; :meth:`Tracer.write_chrome` writes them
as Chrome trace-event JSON, which opens in Perfetto.

Hot leaf calls (``backends.flip`` runs ~25k times per solve) are
aggregated only, so a long run keeps a bounded span list.
"""

from __future__ import annotations

import functools
import json
import threading
import time

__all__ = ["LAYERS", "Tracer", "install_layers", "window"]

#: the layers of the stack, bottom up; a span's layer is the part of its
#: name before the first dot
LAYERS = (
    "backends",
    "search",
    "gpu",
    "ga",
    "solver",
    "engine",
    "service",
    "server",
    "client",
)

#: spans kept for the Chrome trace; later spans are aggregated only
MAX_KEPT_SPANS = 200_000


class Tracer:
    """Per-name span aggregates, counters and a bounded span log."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()
        #: span name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: free-form counters bumped by wrapper hooks
        self.counters: dict[str, float] = {}
        #: named sample lists (e.g. server-side latencies)
        self.samples: dict[str, list[float]] = {}
        #: kept spans: (name, thread id, start, end, parent, job)
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        #: aggregate snapshots taken by :meth:`checkpoint`
        self.checkpoints: list[dict] = []
        #: id(batch) -> submit time, for the lane queue wait
        self.pending_launches: dict[int, float] = {}
        #: id(VirtualGPU) -> job id, learned from lane submissions
        self.gpu_jobs: dict[int, str] = {}

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_job(self, job: str | None) -> None:
        """Job id attached to top-level spans of the calling thread."""
        self._local.job = job

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        with self._lock:
            if value > self.counters.get(name, float("-inf")):
                self.counters[name] = value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(float(value))

    def _record(self, name, start, end, self_time, parent, job, keep) -> None:
        with self._lock:
            entry = self.totals.get(name)
            if entry is None:
                entry = self.totals[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_time
            if not keep:
                return
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append(
                    (name, threading.get_ident(), start, end, parent, job)
                )
            else:
                self.dropped_spans += 1

    # -- patching ----------------------------------------------------------
    def wrap(self, owner, attr, name=None, *, keep=True, before=None, after=None, job_of=None):
        """Replace ``owner.attr`` with a wrapper recording span *name*.

        ``before(args, kwargs)`` runs before the call and ``after(args,
        kwargs, result)`` after it, both outside the timed interval.
        ``job_of(args)`` names the job a top-level span belongs to.  With
        *name* None the wrapper only runs the hooks and records no span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if name is None:
                result = original(*args, **kwargs)
            else:
                stack = tracer._stack()
                job = stack[-1][2] if stack else None
                if job is None and job_of is not None:
                    job = job_of(args)
                if job is None:
                    job = getattr(tracer._local, "job", None)
                frame = [name, 0.0, job]
                stack.append(frame)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    duration = end - start
                    parent = None
                    if stack:
                        stack[-1][1] += duration
                        parent = stack[-1][0]
                    tracer._record(
                        name, start, end, duration - frame[1], parent, job, keep
                    )
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reports -----------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            return {
                "totals": {k: list(v) for k, v in self.totals.items()},
                "counters": dict(self.counters),
                "samples": {k: len(v) for k, v in self.samples.items()},
            }

    def checkpoint(self) -> None:
        """Remember the aggregates so far; a report can subtract them."""
        snap = self.snapshot()
        with self._lock:
            self.checkpoints.append(snap)

    def summary(self) -> dict:
        """Aggregates, sample lists and checkpoints (JSON-safe)."""
        snap = self.snapshot()
        with self._lock:
            snap["sample_values"] = {k: list(v) for k, v in self.samples.items()}
            snap["checkpoints"] = list(self.checkpoints)
            snap["kept_spans"] = len(self.spans)
            snap["dropped_spans"] = self.dropped_spans
        return snap

    def write_chrome(self, path, pid: int = 0, process_name: str = "") -> None:
        """Write the kept spans as Chrome trace-event JSON."""
        with self._lock:
            spans = list(self.spans)
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": process_name or f"pid {pid}"},
            }
        ]
        for name, tid, start, end, parent, job in spans:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": round((start - self.origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "args": {"parent": parent, "job": job},
                }
            )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def window(summary: dict, start: dict | None = None, end: dict | None = None) -> dict:
    """The aggregates recorded between checkpoints *start* and *end* of
    a :meth:`Tracer.summary` (None: the beginning / the end of the run).
    Peak counters (``*_peak``) are taken as of *end*."""
    end = end if end is not None else summary
    zero = {"totals": {}, "counters": {}, "samples": {}}
    start = start if start is not None else zero
    totals = {}
    for name, (calls, total, self_time) in end["totals"].items():
        c0, t0, s0 = start["totals"].get(name, (0, 0.0, 0.0))
        totals[name] = [calls - c0, total - t0, self_time - s0]
    counters = {
        name: value if name.endswith("_peak") else value - start["counters"].get(name, 0)
        for name, value in end["counters"].items()
    }
    samples = {
        name: values[start["samples"].get(name, 0) : end["samples"].get(name, len(values))]
        for name, values in summary.get("sample_values", {}).items()
    }
    return {"totals": totals, "counters": counters, "samples": samples}


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer of the stack.

    The same set is installed in the benchmark process and, through the
    traced server launcher, in the server subprocess; wrappers whose
    functions a process never calls simply record nothing there.
    """
    import repro.gpu.virtual_gpu as virtual_gpu
    from repro.backends.base import ComputeBackend
    from repro.backends.numpy_dense import NumpyDenseBackend
    from repro.backends.numpy_sparse import NumpySparseBackend
    from repro.client import Client
    from repro.engine.coalesce import SuperLaunch
    from repro.engine.workers import FleetWorkerGroup
    from repro.ga.adaptive import AdaptiveSelector
    from repro.ga.operations import TargetGenerator
    from repro.ga.pool import SolutionPool
    from repro.server import protocol
    from repro.server.metrics import STAGE_FIRST_INCUMBENT, ServerMetrics
    from repro.service.service import SolveService
    from repro.solver.dabs import DABSSolver

    wrap = tracer.wrap

    # backends: fused phase runners, the per-flip kernels, preparation
    wrap(ComputeBackend, "run_straight_phase", "backends.straight_phase")
    wrap(ComputeBackend, "run_greedy_phase", "backends.greedy_phase")
    wrap(ComputeBackend, "run_main_phase", "backends.main_phase")
    for backend_cls in (NumpyDenseBackend, NumpySparseBackend):
        wrap(backend_cls, "flip", "backends.flip", keep=False)
        wrap(backend_cls, "prepare", "backends.prepare")

    # search: one batch search per lockstep group, as the device calls it
    wrap(virtual_gpu, "run_batch_search", "search.batch_search")

    # gpu: whole launches; the lane queue wait ends where a launch starts
    def launch_started(args, kwargs):
        submitted = tracer.pending_launches.pop(id(args[1]), None)
        if submitted is not None:
            tracer.count("engine.lane_queue_wait_s", time.perf_counter() - submitted)
            tracer.count("engine.lane_queue_waits")

    def launch_flips(args, kwargs, result):
        tracer.count("gpu.flips", int(result[1].sum()))

    wrap(
        virtual_gpu.VirtualGPU,
        "launch",
        "gpu.launch",
        before=launch_started,
        after=launch_flips,
        job_of=lambda args: tracer.gpu_jobs.get(id(args[0])),
    )
    wrap(
        virtual_gpu.VirtualGPU,
        "commit_packed",
        None,
        after=lambda args, kwargs, result: tracer.count("gpu.flips", int(args[3])),
    )

    # ga: strategy draw, target generation, pool insertion
    def inserted(args, kwargs, result):
        tracer.count("ga.rows_offered", len(args[2]))
        tracer.count("ga.rows_kept", int(result))

    wrap(AdaptiveSelector, "select_batch", "ga.select_batch")
    wrap(TargetGenerator, "generate_batch", "ga.generate_batch")
    wrap(SolutionPool, "insert_batch", "ga.insert_batch", after=inserted)

    # solver: construction (pools, devices, RNG lanes) and direct solves
    wrap(DABSSolver, "__init__", "solver.construct")
    wrap(DABSSolver, "solve", "solver.solve")

    # engine: lane submissions (queue wait starts) and fused super-launches
    def submitted_solo(args, kwargs):
        # submit_launch(self, lane, device_id, seq, gpu, batch, tag)
        tracer.pending_launches[id(args[5])] = time.perf_counter()
        tag = args[6] if len(args) > 6 else kwargs.get("tag")
        if tag is not None:
            tracer.gpu_jobs[id(args[4])] = str(tag[0])

    def submitted_pack(args, kwargs):
        tracer.pending_launches[id(args[2][0].batch)] = time.perf_counter()

    def pack_started(args, kwargs):
        submitted = tracer.pending_launches.pop(id(args[0].segments[0].batch), None)
        if submitted is not None:
            tracer.count("engine.lane_queue_wait_s", time.perf_counter() - submitted)
            tracer.count("engine.lane_queue_waits")

    wrap(FleetWorkerGroup, "submit_launch", "engine.submit_launch", before=submitted_solo)
    wrap(FleetWorkerGroup, "submit_packed", "engine.submit_packed", before=submitted_pack)
    wrap(
        SuperLaunch,
        "run",
        "engine.superlaunch",
        before=pack_started,
        job_of=lambda args: "pack",
    )

    # service: admission, and the queue depth it leaves behind
    def admitted(args, kwargs, handle):
        tracer.peak("service.queue_depth_peak", args[0].stats_snapshot().outstanding)

    wrap(SolveService, "submit", "service.submit", after=admitted)
    wrap(SolveService, "stats", None, before=lambda args, kwargs: tracer.checkpoint())

    # server: wire codec and instance decoding
    wrap(protocol, "decode_request", "server.decode")
    wrap(protocol, "load_model", "server.load_model")
    wrap(protocol, "encode_event", "server.encode", keep=False)

    def observed(args, kwargs):
        # observe_latency(self, tenant, stage, seconds)
        if args[2] == STAGE_FIRST_INCUMBENT:
            tracer.sample("server.first_incumbent_s", args[3])

    wrap(ServerMetrics, "observe_latency", None, before=observed)

    # client: building and sending one submit frame
    wrap(Client, "submit", "client.submit")
