"""The benchmark's four workloads, their load generators and checks.

``g22_direct`` and ``g22_served`` solve the same G22-like MaxCut
instance one job at a time (a closed loop): in-process through
``DABSSolver.solve``, and over TCP through ``repro serve --listen`` with
``virtual_time=True``, whose result must be bit-identical.
``stream_shared`` and ``stream_unique`` send small dense QUBOs to the
server: a saturation phase that keeps a fixed number of jobs in flight,
then an open loop at a fixed rate.
``stream_shared`` draws every job from three instances, so the prepared
problem cache hits and launches coalesce; ``stream_unique`` sends a
fresh instance every time, so neither can happen.

The served workloads always run the server as a subprocess, so the load
generator (the main thread plus the client's reader thread) never shares
an interpreter lock with the program it measures.

The end-to-end times are scaled to a nominal host speed (see
:class:`HostClock`): on a shared host the same job's time drifts by a
third within a minute, which would swamp any change to the program.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.backends import auto_backend_name
from repro.client import Client
from repro.core.qubo import QUBOModel
from repro.problems.gset import g22_like
from repro.problems.maxcut import maxcut_to_qubo
from repro.solver.dabs import DABSConfig, DABSSolver
from tracer import LAYERS, Tracer, install_layers, window

HERE = Path(__file__).resolve().parent

# -- g22_*: one G22-like MaxCut instance, one job at a time --------------
G22_N = 512
G22_DEVICES = 2
G22_BLOCKS = 16
G22_POOL = 100
#: seed of the one G22-like graph every run solves
G22_INSTANCE_SEED = 22
#: launch budget per job: rounds of one launch per device
G22_ROUNDS = 2
#: target cut as a share of the edge count: every job reaches it within
#: its first round (the first half of its budget) on the seeds tried
G22_TARGET_CUT = 0.648
#: the closed loop cycles through this many solver seeds, so every seed
#: repeats and its result and flip count can be compared exactly
G22_JOB_SEEDS = 4
#: seed of the fixed set of solver seeds; the workload seed draws their
#: order, so every run solves nearly the same mix of slow and fast seeds
G22_SOLVER_SEED = 2022
#: jobs in the untraced reference pass of a traced run
G22_REFERENCE_JOBS = 3

# -- stream_*: small dense QUBOs, saturation then open loop -------------
STREAM_SIZES = (32, 64, 96)
STREAM_WEIGHT = 10
STREAM_LAUNCHES = 2
STREAM_BLOCKS = 8
STREAM_POOL = 20
#: seed of the three shared instances
STREAM_SHARED_SEED = 3
#: target energy as a share of what a steepest single-flip descent from
#: the zero vector reaches; two launches beat a bare descent on most
#: instances but not all, and a missed target counts as a failed job
STREAM_TARGET_SHARE = 0.95
#: jobs the saturation phase keeps in flight
STREAM_INFLIGHT = 16
#: share of each set-up's seconds that its saturation phase keeps sending
STREAM_SATURATE_SHARE = 0.4
#: job slots a saturation phase may use
STREAM_SATURATE_MAX = 400
#: open-loop send rate (jobs/s) on the nominal host, about half the
#: saturated capacity of stream_unique on a 2-core host, so neither
#: stream workload saturates
STREAM_RATE = 8.0
#: at least this many open-loop jobs per run, so p90 has ten samples
#: beyond it
STREAM_MIN_OPEN = 120

#: an untraced run sets up this many times (setup_s is their median) and
#: runs a share of the timed phases on each environment, pooling the
#: samples, so one server process's luck does not set a run's figures
SETUP_REPEATS = 3
JOB_TIMEOUT = 60.0
SAMPLE_PERIOD = 0.02

# -- host speed: a fixed calibration kernel timed between the timed work --
#: seconds the calibration kernel takes on the nominal host; reported
#: times are seconds on a host that runs the kernel in exactly this time
CAL_NOMINAL_S = 0.025
CAL_N = 512
CAL_STEPS = 3000
CAL_SEED = 12345
#: kernel runs at the start and after each set-up
CAL_BLOCK = 4
#: kernel samples nearest in time to a job or set-up that scale it
CAL_NEAREST = 6

#: (name, unit) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("first_incumbent_p50_s", "s"),
    ("first_incumbent_p90_s", "s"),
    ("tts_p50_s", "s"),
    ("energy_vs_target", "ratio"),
    ("rss_peak_mb", "MB"),
)

#: (name, unit) of every per-layer metric reported by a traced run
PER_LAYER = (
    ("backends.straight_phase_s", "s/job"),
    ("backends.greedy_phase_s", "s/job"),
    ("backends.main_phase_s", "s/job"),
    ("backends.flip_calls", "count/job"),
    ("backends.flip_s", "s/job"),
    ("backends.prepare_calls", "count/job"),
    ("backends.prepare_s", "s/job"),
    ("search.batch_search_calls", "count/job"),
    ("search.batch_search_s", "s/job"),
    ("gpu.launches", "count/job"),
    ("gpu.launch_s", "s/job"),
    ("gpu.flips", "count/job"),
    ("ga.select_batch_s", "s/job"),
    ("ga.generate_batch_s", "s/job"),
    ("ga.insert_batch_s", "s/job"),
    ("ga.insert_batch_calls", "count/job"),
    ("ga.insert_accept_ratio", "ratio"),
    ("solver.construct_s", "s/job"),
    ("solver.launches_per_job", "count/job"),
    ("engine.lane_queue_wait_s", "s/job"),
    ("engine.superlaunch_calls", "count/job"),
    ("engine.superlaunch_s", "s/job"),
    ("engine.rows_per_pack", "count"),
    ("engine.launches_saved", "count/job"),
    ("engine.pack_splits", "count/job"),
    ("engine.retries", "count/job"),
    ("service.submit_s", "s/job"),
    ("service.lane_busy_ratio", "ratio"),
    ("service.queue_depth_peak", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.cache_evictions", "count/job"),
    ("server.decode_s", "s/job"),
    ("server.load_model_s", "s/job"),
    ("server.encode_s", "s/job"),
    ("server.frames", "count/job"),
    ("server.errors", "count"),
    ("server.threads_peak", "count"),
    ("server.fds_peak", "count"),
    ("server.first_incumbent_p50_s", "s"),
    ("client.submit_s", "s/job"),
    ("client.wire_s", "s"),
    ("generator.lag_p90_s", "s"),
    ("trace.overhead_ratio", "ratio"),
) + tuple((f"{layer}.self_s", "s/job") for layer in LAYERS)


# -- helpers --------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated *q*-th percentile (0.0 when *values* is empty)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def random_qubo(rng: np.random.Generator, n: int, name: str) -> QUBOModel:
    """Dense integer QUBO with i.i.d. weights in [-W, W]."""
    return QUBOModel(rng.integers(-STREAM_WEIGHT, STREAM_WEIGHT + 1, size=(n, n)), name=name)


def greedy_energy(model: QUBOModel) -> int:
    """Energy of a steepest single-flip descent from the zero vector."""
    couplings = np.asarray(model.couplings, dtype=np.int64)
    linear = np.asarray(model.linear, dtype=np.int64)
    x = np.zeros(model.n, dtype=np.int64)
    while True:
        delta = (1 - 2 * x) * (linear + couplings @ x)
        i = int(np.argmin(delta))
        if delta[i] >= 0:
            return int(model.energy(x.astype(np.uint8)))
        x[i] ^= 1


def host_fingerprint() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


@dataclass
class Job:
    """One submitted job and what the benchmark observed of it."""

    key: str
    model: QUBOModel
    seed: int
    target: int
    sched: float = 0.0
    sent: float = 0.0
    first: float | None = None
    tts: float | None = None
    end: float | None = None
    energy: int | None = None
    vector: np.ndarray | None = None
    flips: int | None = None
    launches: int = 0
    retries: int = 0
    error: str | None = None
    handle: object = None
    #: nominal-host seconds per measured second (see HostClock)
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        return self.error is None and self.energy is not None


# -- inputs ---------------------------------------------------------------
@dataclass
class Inputs:
    """Everything a workload sends, generated from the workload seed."""

    #: (model, target) of every job slot, in send order
    warmup: list = field(default_factory=list)
    jobs: list = field(default_factory=list)
    #: per-slot solver seeds (parallel to warmup / jobs)
    warmup_seeds: list = field(default_factory=list)
    job_seeds: list = field(default_factory=list)
    backend: str = ""
    note: str = ""


def g22_inputs(seed: int) -> Inputs:
    """One fixed G22-like graph, as the paper solves the one G22 graph,
    and a fixed set of solver seeds; the workload seed draws the order in
    which the closed loop cycles through them."""
    instance_seed = G22_INSTANCE_SEED
    adjacency = g22_like(G22_N, seed=instance_seed)
    edges = int(np.count_nonzero(np.triu(adjacency)))
    model = maxcut_to_qubo(adjacency, name=f"g22like-{G22_N}-{instance_seed}")
    target = -math.ceil(G22_TARGET_CUT * edges)
    solver_seeds = np.random.default_rng(G22_SOLVER_SEED).integers(2**31, size=G22_JOB_SEEDS)
    seeds = [int(s) for s in np.random.default_rng([seed, 22]).permutation(solver_seeds)]
    return Inputs(
        warmup=[(model, target)],
        warmup_seeds=seeds[:1],
        jobs=[(model, target)],
        job_seeds=seeds,
        backend=auto_backend_name(model),
        note=f"n={G22_N} edges={edges} target={target}",
    )


def stream_inputs(seed: int, unique: bool, count: int) -> Inputs:
    """*count* job slots after three warm-up jobs; both stream workloads
    draw the same sizes and solver seeds for the same workload seed."""
    arrivals = np.random.default_rng([seed, 7])
    # every run sends each size equally often, in a seeded order
    rounds = -(-count // len(STREAM_SIZES))
    sizes = [int(n) for _ in range(rounds) for n in arrivals.permutation(STREAM_SIZES)][:count]
    seeds = [int(s) for s in arrivals.integers(2**31, size=count + len(STREAM_SIZES))]
    # the shared instances are the same in every run (a service's popular
    # instances); the workload seed draws arrival order and solver seeds
    contents = np.random.default_rng(STREAM_SHARED_SEED)
    shared = {n: random_qubo(contents, n, f"shared-{n}") for n in STREAM_SIZES}
    fresh = np.random.default_rng([seed, 13])
    targets: dict[int, int] = {}

    def slot(n: int, k: int):
        model = random_qubo(fresh, n, f"unique-{k}") if unique else shared[n]
        if id(model) not in targets:
            targets[id(model)] = math.ceil(STREAM_TARGET_SHARE * greedy_energy(model))
        return model, targets[id(model)]

    warmup = [slot(n, -1 - i) for i, n in enumerate(STREAM_SIZES)]
    jobs = [slot(n, k) for k, n in enumerate(sizes)]
    return Inputs(
        warmup=warmup,
        warmup_seeds=seeds[: len(STREAM_SIZES)],
        jobs=jobs,
        job_seeds=seeds[len(STREAM_SIZES):],
        backend=auto_backend_name(shared[STREAM_SIZES[-1]]),
        note=f"{'fresh' if unique else 'shared'} instances n in {STREAM_SIZES}",
    )


def open_count(seconds: float) -> int:
    """Open-loop jobs of one share of a run lasting *seconds*."""
    return max(math.ceil(STREAM_MIN_OPEN / SETUP_REPEATS), math.ceil(seconds * STREAM_RATE))


def stream_slots(seconds: float) -> int:
    """Job slots for SETUP_REPEATS shares of a run, or for one traced
    pass of the whole run."""
    share = SETUP_REPEATS * (STREAM_SATURATE_MAX + open_count(seconds / SETUP_REPEATS))
    return max(share, STREAM_SATURATE_MAX + open_count(seconds)) + 10


# -- resource sampling ----------------------------------------------------
class ProcSampler:
    """Peak threads / open fds and VmHWM of one process, read from /proc.

    Polled from the load generator's main thread while it waits, so the
    generator needs no thread of its own.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.threads_peak = 0
        self.fds_peak = 0
        self._next = 0.0

    def reset_peaks(self) -> None:
        self.threads_peak = 0
        self.fds_peak = 0

    def _status(self) -> dict:
        fields = {}
        with open(f"/proc/{self.pid}/status", encoding="ascii") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                fields[key] = value.strip()
        return fields

    def poll(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now < self._next:
            return
        self._next = now + SAMPLE_PERIOD
        try:
            threads = int(self._status()["Threads"])
            fds = len(os.listdir(f"/proc/{self.pid}/fd"))
        except (OSError, KeyError, ValueError):
            return
        self.threads_peak = max(self.threads_peak, threads)
        self.fds_peak = max(self.fds_peak, fds)

    def hwm_mb(self) -> float:
        return int(self._status()["VmHWM"].split()[0]) / 1024.0


class HostClock:
    """How fast the shared host runs right now.

    Other tenants of the physical cores slow the same job by up to a
    third for tens of seconds at a time.  So the benchmark process times
    a fixed calibration kernel -- a Python loop of small NumPy steps on a
    512-vector, shaped like a flip loop -- while the program under test
    is idle: after every closed-loop job and set-up.  A job's scale is
    CAL_NOMINAL_S over the median kernel time of the CAL_NEAREST samples
    nearest to it; its time times its scale is its time on the nominal
    host.  The kernel tracks work in its own process only: a server
    subprocess's speed does not follow it, so only ``g22_direct`` is
    scaled.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(CAL_SEED)
        w = rng.integers(-8, 9, size=(CAL_N, CAL_N))
        self._w = w + w.T
        self.at: list[float] = []
        self.took: list[float] = []

    def _kernel(self) -> int:
        w = self._w
        x = np.zeros(CAL_N, dtype=np.int64)
        delta = np.diag(w).copy()
        acc = 0
        for k in range(CAL_STEPS):
            i = int(np.argmin(delta + (k % 7)))
            x[i] ^= 1
            delta += (1 - 2 * x[i]) * w[i]
            acc += int(delta[(k * 31) % CAL_N])
            acc += sum({j: j * k for j in range(8)}.values()) & 1
        return acc

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
            self.at.append((start + end) / 2)
            self.took.append(end - start)

    def scale_at(self, t: float) -> float:
        """CAL_NOMINAL_S over the median kernel time nearest to *t*."""
        nearest = sorted(range(len(self.at)), key=lambda i: abs(self.at[i] - t))
        return CAL_NOMINAL_S / statistics.median(self.took[i] for i in nearest[:CAL_NEAREST])

    def stamp(self, phase: "Phase") -> None:
        """Scale *phase* and each of its jobs."""
        for job in phase.jobs:
            if job.end is not None:
                job.scale = self.scale_at((job.sched + job.end) / 2)
        phase.nominal = phase.wall * self.scale_at(phase.start + phase.wall / 2)


# -- execution environments -----------------------------------------------
class DirectEnv:
    """In-process ``DABSSolver.solve`` on the default engine."""

    served = False

    def __init__(self) -> None:
        self.config = DABSConfig(
            num_gpus=G22_DEVICES, blocks_per_gpu=G22_BLOCKS, pool_capacity=G22_POOL
        )
        self.sampler = ProcSampler(os.getpid())
        self.tracer: Tracer | None = None

    def run(self, job: Job) -> None:
        if self.tracer is not None:
            self.tracer.set_job(job.key)
        job.sched = job.sent = time.perf_counter()
        solver = DABSSolver(job.model, self.config, seed=job.seed)
        solve_start = time.perf_counter()
        result = solver.solve(max_rounds=G22_ROUNDS)
        job.end = time.perf_counter()
        for event in result.history:
            at = solve_start + event.time
            if job.first is None:
                job.first = at
            if event.energy <= job.target:
                job.tts = at
                break
        job.energy = int(result.best_energy)
        job.vector = np.asarray(result.best_vector, dtype=np.uint8)
        job.flips = int(result.total_flips)
        job.launches = int(result.launches)
        job.retries = int(result.retries)

    def close(self) -> None:
        pass


class StampedClient(Client):
    """The SDK client, timestamping each registered job's first incumbent,
    first incumbent at or below its target and terminal event as the
    reader thread receives them."""

    def __init__(self, sock: socket.socket) -> None:
        self.stamps: dict[str, dict] = {}
        super().__init__(sock, timeout=JOB_TIMEOUT)

    def _route(self, payload: dict) -> None:
        now = time.perf_counter()
        stamps = self.stamps.get(str(payload.get("id")))
        if stamps is not None:
            event = payload.get("event")
            if event == "incumbent":
                stamps.setdefault("first", now)
                if "tts" not in stamps and payload["energy"] <= stamps["target"]:
                    stamps["tts"] = now
            elif event in ("done", "failed", "cancelled", "error"):
                stamps.setdefault("end", now)
        super()._route(payload)


class ServedEnv:
    """``repro serve --listen 127.0.0.1:0`` in a subprocess plus one
    :class:`StampedClient` connection."""

    served = True

    def __init__(self, serve_args: list[str], submit_params: dict, trace_path=None) -> None:
        self.submit_params = submit_params
        self.trace_summary: dict | None = None
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(Path.cwd() / "src")
        args = ["--listen", "127.0.0.1:0"] + serve_args
        if trace_path is None:
            cmd = [sys.executable, "-m", "repro", "serve"] + args
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(trace_path)] + args
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
        try:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited before listening")
            port = int(json.loads(line)["port"])
            sock = socket.create_connection(("127.0.0.1", port), timeout=JOB_TIMEOUT)
            sock.settimeout(None)
            self.client = StampedClient(sock)
        except BaseException:
            self._kill()
            raise
        self.sampler = ProcSampler(self.proc.pid)

    def submit(self, job: Job) -> None:
        self.client.stamps[job.key] = {"target": job.target}
        job.sent = time.perf_counter()
        job.handle = self.client.submit(
            model=job.model, job_id=job.key, seed=job.seed, **self.submit_params
        )

    def finish(self, job: Job) -> None:
        stamps = self.client.stamps.pop(job.key, {})
        job.first = stamps.get("first")
        job.tts = stamps.get("tts")
        job.end = stamps.get("end")
        try:
            result = job.handle.result(timeout=0)
        except Exception as exc:  # failed, refused, cancelled or timed out
            job.error = f"{type(exc).__name__}: {exc}"
            return
        job.energy = int(result.best_energy)
        job.vector = np.asarray(result.best_vector, dtype=np.uint8)
        job.launches = int(result.launches)
        job.retries = int(result.retries)
        flips = re.search(r"(\d+) flips", result.summary)
        job.flips = int(flips.group(1)) if flips else None

    def wait(self, jobs: list[Job], deadline: float) -> None:
        for job in jobs:
            while not job.handle.wait(SAMPLE_PERIOD):
                self.sampler.poll()
                if time.perf_counter() > deadline:
                    break
        for job in jobs:
            self.finish(job)

    def run(self, job: Job) -> None:
        job.sched = time.perf_counter()
        self.submit(job)
        self.wait([job], time.perf_counter() + JOB_TIMEOUT)

    def stats(self) -> dict:
        return self.client.stats()

    def _kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(10)

    def close(self) -> None:
        try:
            self.client.shutdown()
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self._kill()
            return
        finally:
            if self.proc.poll() is None:
                self._kill()
        for line in out.splitlines():
            if line.startswith('{"event": "perfbench-trace"'):
                self.trace_summary = json.loads(line)


# -- one benchmark run ----------------------------------------------------
class Run:
    """Jobs, correctness findings and report lines of one invocation."""

    def __init__(self, workload: str) -> None:
        #: g22 jobs replay deterministically (direct solves and
        #: virtual-time service jobs); free-running stream jobs do not
        self.deterministic = workload.startswith("g22")
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.lines: list[str] = []
        self._by_seed: dict[tuple, tuple] = {}

    def record(self, jobs: list[Job]) -> None:
        """Count *jobs* as attempted and check each one's output."""
        for job in jobs:
            self.attempted += 1
            if not job.ok:
                self.failures.append(f"{job.key}: {job.error or 'no result'}")
                continue
            if job.tts is None:
                self.failures.append(f"{job.key}: missed target {job.target} (best {job.energy})")
            recomputed = int(job.model.energy(job.vector))
            if recomputed != job.energy:
                self.problems.append(
                    f"{job.key}: reported energy {job.energy}, vector has {recomputed}"
                )
            if self.deterministic:
                self.expect_repeat(job)

    def expect_repeat(self, job: Job) -> None:
        """The same (instance, seed) must give the same vector, energy and
        flip count every time, on every path."""
        key = (job.model.name, job.seed)
        seen = (job.energy, job.vector.tobytes(), job.flips)
        first = self._by_seed.setdefault(key, seen)
        if first[:2] != seen[:2]:
            self.problems.append(f"{job.key}: result differs from an earlier job with seed {job.seed}")
        elif None not in (first[2], seen[2]) and first[2] != seen[2]:
            self.problems.append(f"{job.key}: {seen[2]} flips, an earlier job with seed {job.seed} made {first[2]}")

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.problems


def make_jobs(slots, seeds, prefix: str, start: int = 0) -> list[Job]:
    return [
        Job(f"{prefix}{start + i}", model, seed, target)
        for i, ((model, target), seed) in enumerate(zip(slots, seeds))
    ]


def g22_job(inputs: Inputs, index: int) -> Job:
    """The *index*-th closed-loop job: the instance with the next seed of
    the cycle."""
    model, target = inputs.jobs[0]
    seeds = inputs.job_seeds
    return Job(f"job{index}", model, seeds[index % len(seeds)], target)


# -- set-up ---------------------------------------------------------------
def start_env(workload: str, trace_path=None):
    if workload == "g22_direct":
        return DirectEnv()
    if workload == "g22_served":
        serve_args = ["--gpus", str(G22_DEVICES), "--blocks", str(G22_BLOCKS), "--pool", str(G22_POOL)]
        params = {"rounds": G22_ROUNDS, "virtual_time": True}
    else:
        serve_args = [
            "--gpus", "2", "--blocks", str(STREAM_BLOCKS), "--pool", str(STREAM_POOL),
            "--max-queue", "256",
        ]
        params = {"launches": STREAM_LAUNCHES}
    return ServedEnv(serve_args, params, trace_path)


def make_inputs(workload: str, seed: int, seconds: float) -> Inputs:
    if workload.startswith("g22"):
        return g22_inputs(seed)
    return stream_inputs(seed, workload == "stream_unique", stream_slots(seconds))


def set_up(workload: str, seed: int, seconds: float, run: Run, trace_path=None):
    """Generate the inputs, start the environment and warm it up; the
    returned environment is ready for its first timed job."""
    inputs = make_inputs(workload, seed, seconds)
    env = start_env(workload, trace_path)
    try:
        warm = make_jobs(inputs.warmup, inputs.warmup_seeds, "warm")
        if env.served:
            for job in warm:
                job.sched = time.perf_counter()
                env.submit(job)
            env.wait(warm, time.perf_counter() + JOB_TIMEOUT)
        else:
            for job in warm:
                env.run(job)
        run.record(warm)
    except BaseException:
        env.close()
        raise
    return env, inputs


def g22_reference(inputs: Inputs, run: Run) -> None:
    """Solve the first warm-up slot in-process, so the served warm-up job
    is checked bit-for-bit against a direct solve."""
    job = make_jobs(inputs.warmup, inputs.warmup_seeds, "direct-reference")[0]
    DirectEnv().run(job)
    run.record([job])


# -- measurement phases ---------------------------------------------------
@dataclass
class Phase:
    jobs: list
    #: the measured window: from *start*, *wall* seconds long
    wall: float
    start: float = 0.0
    lags: list = field(default_factory=list)
    #: wall on the nominal host (see HostClock)
    nominal: float = 0.0


def closed_loop(
    env,
    inputs: Inputs,
    seconds: float,
    max_jobs: int | None = None,
    first: int = 0,
    clock: HostClock | None = None,
) -> Phase:
    """One job at a time, starting at job *first* of the seed cycle, until
    *seconds* pass (or *max_jobs* ran); with a *clock*, one calibration
    sample after each job."""
    jobs: list[Job] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds and (max_jobs is None or len(jobs) < max_jobs):
        job = g22_job(inputs, first + len(jobs))
        env.run(job)
        jobs.append(job)
        if clock is not None:
            clock.sample()
    return Phase(jobs, time.perf_counter() - start, start)


def saturate(env: ServedEnv, inputs: Inputs, first: int, seconds: float) -> tuple[Phase, Phase]:
    """Keep STREAM_INFLIGHT jobs (slots from *first*) in flight for
    *seconds*, sending the next job as soon as one finishes, then wait
    for the rest.  Returns the jobs that finished while sending went on,
    each of which shared the server with STREAM_INFLIGHT - 1 others all
    its life, and the drain: the last STREAM_INFLIGHT jobs sent."""
    slots = slice(first, first + STREAM_SATURATE_MAX)
    jobs = make_jobs(inputs.jobs[slots], inputs.job_seeds[slots], "sat", first)
    start = time.perf_counter()
    stop = start + seconds
    live: list[Job] = []
    sent = 0
    while (now := time.perf_counter()) < stop:
        live = [job for job in live if not job.handle.done()]
        while len(live) < STREAM_INFLIGHT and sent < len(jobs):
            job = jobs[sent]
            job.sched = now
            env.submit(job)
            live.append(job)
            sent += 1
        if not live:
            break  # out of slots
        env.sampler.poll()
        live[0].handle.wait(SAMPLE_PERIOD / 4)
    stop = time.perf_counter()
    jobs = jobs[:sent]
    env.wait(jobs, stop + JOB_TIMEOUT)
    steady = max(sent - STREAM_INFLIGHT, 0)
    drain = Phase(jobs[steady:], time.perf_counter() - stop, stop)
    return Phase(jobs[:steady], stop - start, start), drain


def open_loop(env: ServedEnv, inputs: Inputs, first: int, count: int) -> Phase:
    """Send *count* jobs (slots from *first*) at STREAM_RATE regardless of
    completions; each job is timed from its scheduled send time."""
    slots = slice(first, first + count)
    jobs = make_jobs(inputs.jobs[slots], inputs.job_seeds[slots], "open", first)
    origin = time.perf_counter() + SAMPLE_PERIOD
    lags = []
    for k, job in enumerate(jobs):
        job.sched = origin + k / STREAM_RATE
        while (now := time.perf_counter()) < job.sched:
            env.sampler.poll()
            time.sleep(min(job.sched - now, SAMPLE_PERIOD))
        env.submit(job)
        lags.append(job.sent - job.sched)
    env.wait(jobs, time.perf_counter() + JOB_TIMEOUT)
    return Phase(jobs, time.perf_counter() - origin, origin, lags)


def measure(
    workload: str,
    env,
    inputs: Inputs,
    seconds: float,
    part: int = 0,
    clock: HostClock | None = None,
    done: int = 0,
) -> dict[str, Phase]:
    """The timed phases of share *part* of a run, lasting about *seconds*;
    a closed loop continues the seed cycle after the *done* jobs of the
    earlier shares, and with a *clock* is calibrated and scaled."""
    if workload.startswith("g22"):
        phases = {"loop": closed_loop(env, inputs, seconds, first=done, clock=clock)}
        if clock is not None:
            clock.stamp(phases["loop"])
        return phases
    first = part * (STREAM_SATURATE_MAX + open_count(seconds))
    saturate_s = seconds * STREAM_SATURATE_SHARE
    phases = dict(zip(("saturate", "drain"), saturate(env, inputs, first, saturate_s)))
    count = open_count(seconds - saturate_s)
    phases["open"] = open_loop(env, inputs, first + STREAM_SATURATE_MAX, count)
    return phases


# -- metrics --------------------------------------------------------------
def since(jobs: list[Job], attr: str, origin: str, scaled: bool = False) -> list[float]:
    return [
        (getattr(job, attr) - getattr(job, origin)) * (job.scale if scaled else 1.0)
        for job in jobs
        if job.ok and getattr(job, attr) is not None
    ]


def seed_medians(jobs: list[Job], attr: str, origin: str, scaled: bool = False) -> list[float]:
    """Per solver seed, the median of :func:`since` over that seed's jobs."""
    by_seed: dict[int, list[Job]] = {}
    for job in jobs:
        by_seed.setdefault(job.seed, []).append(job)
    values = (since(group, attr, origin, scaled) for group in by_seed.values())
    return [statistics.median(v) for v in values if v]


def end_to_end(
    phases: dict[str, Phase], setups: list[float], rss_mb: float, scaled: bool = True
) -> dict:
    """Metric name -> (value, samples); times on the nominal host if
    *scaled*, else as measured."""
    done = [job for phase in phases.values() for job in phase.jobs if job.ok]
    # throughput by Little's law: jobs in flight over their mean latency,
    # which leaves out the pauses between phases and the calibration
    if "loop" in phases:
        timed = phases["loop"].jobs
        inflight, busy = 1, since(timed, "end", "sched", scaled)
        # a seed's solve is the same work every time, so its repeats
        # differ only by host noise: take each seed's median, then the
        # percentiles across the seed set
        times = functools.partial(seed_medians, timed, scaled=scaled)
    else:
        timed = phases["open"].jobs
        inflight, busy = STREAM_INFLIGHT, since(phases["saturate"].jobs, "end", "sched", scaled)
        times = functools.partial(since, timed, scaled=scaled)
    latency = times("end", "sched")
    first = times("first", "sched")
    tts = times("tts", "sched")
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "jobs_per_s": (inflight / statistics.fmean(busy) if busy else 0.0, len(busy)),
        "latency_p50_s": (percentile(latency, 50), len(latency)),
        "latency_p90_s": (percentile(latency, 90), len(latency)),
        "first_incumbent_p50_s": (percentile(first, 50), len(first)),
        "first_incumbent_p90_s": (percentile(first, 90), len(first)),
        "tts_p50_s": (percentile(tts, 50), len(tts)),
        "energy_vs_target": (
            statistics.fmean(job.energy / job.target for job in done) if done else 0.0,
            len(done),
        ),
        "rss_peak_mb": (rss_mb, 1),
    }


def stats_delta(before: dict, after: dict) -> dict:
    """Server-side counters accumulated between two ``stats`` replies."""

    def diff(path):
        a, b = before, after
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        if isinstance(b, list):
            return sum(b) - sum(a or [0])
        return (b or 0) - (a or 0)

    errors_before = before.get("server", {}).get("errors", {})
    errors_after = after.get("server", {}).get("errors", {})
    return {
        "cache_hits": diff(("cache", "hits")),
        "cache_misses": diff(("cache", "misses")),
        "cache_evictions": diff(("cache", "evictions")),
        "packs": diff(("coalesce", "packs")),
        "segments": diff(("coalesce", "segments")),
        "pack_rows": diff(("coalesce", "lane_rows")),
        "pack_splits": diff(("coalesce", "pack_splits")),
        "lane_launches": diff(("lane_launches",)),
        "lane_completed": diff(("lane_completed",)),
        "frames": diff(("server", "frames")),
        "errors": {
            code: count - errors_before.get(code, 0)
            for code, count in errors_after.items()
            if count != errors_before.get(code, 0)
        },
    }


def per_layer(
    spans: dict,
    stats: dict | None,
    phases: dict[str, Phase],
    sampler: ProcSampler,
    lanes: int,
    overhead: float,
) -> dict:
    """Metric name -> (value, samples) from span aggregates of the timed
    window (benchmark and server process summed) and the stats delta."""
    totals, counters, samples = spans["totals"], spans["counters"], spans["samples"]
    jobs = [job for phase in phases.values() for job in phase.jobs]
    done = [job for job in jobs if job.ok]
    per = max(len(done), 1)
    ends = [job.end for job in jobs if job.end is not None]
    wall = max(ends) - min(job.sched for job in jobs) if ends else 0.0

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0] / per

    def secs(name):
        return totals.get(name, (0, 0.0, 0.0))[1] / per

    def counter(name):
        return counters.get(name, 0) / per

    stats = stats or {}
    packs = stats.get("packs", 0)
    lookups = stats.get("cache_hits", 0) + stats.get("cache_misses", 0)
    rows = counters.get("ga.rows_offered", 0)
    busy = totals.get("gpu.launch", (0, 0.0))[1] + totals.get("engine.superlaunch", (0, 0.0))[1]
    server_first = samples.get("server.first_incumbent_s", [])
    client_first = since(jobs, "first", "sent")
    lags = [lag for phase in phases.values() for lag in phase.lags]
    self_time = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, own) in totals.items():
        layer = name.split(".", 1)[0]
        if layer in self_time:
            self_time[layer] += own
    n = len(done)
    values = {
        "backends.straight_phase_s": secs("backends.straight_phase"),
        "backends.greedy_phase_s": secs("backends.greedy_phase"),
        "backends.main_phase_s": secs("backends.main_phase"),
        "backends.flip_calls": calls("backends.flip"),
        "backends.flip_s": secs("backends.flip"),
        "backends.prepare_calls": calls("backends.prepare"),
        "backends.prepare_s": secs("backends.prepare"),
        "search.batch_search_calls": calls("search.batch_search"),
        "search.batch_search_s": secs("search.batch_search"),
        "gpu.launches": calls("gpu.launch"),
        "gpu.launch_s": secs("gpu.launch"),
        "gpu.flips": counter("gpu.flips"),
        "ga.select_batch_s": secs("ga.select_batch"),
        "ga.generate_batch_s": secs("ga.generate_batch"),
        "ga.insert_batch_s": secs("ga.insert_batch"),
        "ga.insert_batch_calls": calls("ga.insert_batch"),
        "ga.insert_accept_ratio": counters.get("ga.rows_kept", 0) / rows if rows else 0.0,
        "solver.construct_s": secs("solver.construct"),
        "solver.launches_per_job": statistics.fmean(j.launches for j in done) if done else 0.0,
        "engine.lane_queue_wait_s": counter("engine.lane_queue_wait_s"),
        "engine.superlaunch_calls": calls("engine.superlaunch"),
        "engine.superlaunch_s": secs("engine.superlaunch"),
        "engine.rows_per_pack": stats.get("pack_rows", 0) / packs if packs else 0.0,
        "engine.launches_saved": (stats.get("segments", 0) - packs) / per,
        "engine.pack_splits": stats.get("pack_splits", 0) / per,
        "engine.retries": sum(j.retries for j in done) / per,
        "service.submit_s": secs("service.submit"),
        "service.lane_busy_ratio": busy / (lanes * wall) if wall else 0.0,
        "service.queue_depth_peak": counters.get("service.queue_depth_peak", 0),
        "service.cache_hit_ratio": stats.get("cache_hits", 0) / lookups if lookups else 0.0,
        "service.cache_evictions": stats.get("cache_evictions", 0) / per,
        "server.decode_s": secs("server.decode"),
        "server.load_model_s": secs("server.load_model"),
        "server.encode_s": secs("server.encode"),
        "server.frames": stats.get("frames", 0) / per,
        "server.errors": sum(stats.get("errors", {}).values()),
        "server.threads_peak": sampler.threads_peak if stats else 0,
        "server.fds_peak": sampler.fds_peak if stats else 0,
        "server.first_incumbent_p50_s": percentile(server_first, 50),
        "client.submit_s": secs("client.submit"),
        "client.wire_s": (
            percentile(client_first, 50) - percentile(server_first, 50) if server_first else 0.0
        ),
        "generator.lag_p90_s": percentile(lags, 90),
        "trace.overhead_ratio": overhead,
    }
    values.update({f"{layer}.self_s": own / per for layer, own in self_time.items()})
    counts = {
        "server.first_incumbent_p50_s": len(server_first),
        "client.wire_s": min(len(client_first), len(server_first)),
        "generator.lag_p90_s": len(lags),
    }
    return {name: (values[name], counts.get(name, n)) for name, _ in PER_LAYER}


def merge_windows(*parts: dict) -> dict:
    """Sum span aggregates and counters of several processes' windows."""
    out = {"totals": {}, "counters": {}, "samples": {}}
    for part in parts:
        for name, row in part["totals"].items():
            acc = out["totals"].setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for name, value in part["counters"].items():
            if name.endswith("_peak"):
                out["counters"][name] = max(out["counters"].get(name, 0), value)
            else:
                out["counters"][name] = out["counters"].get(name, 0) + value
        for name, values in part["samples"].items():
            out["samples"].setdefault(name, []).extend(values)
    return out


# -- entry points ---------------------------------------------------------
def report_phases(run: Run, phases: dict[str, Phase]) -> None:
    for name, phase in phases.items():
        ok = sum(job.ok for job in phase.jobs)
        run.lines.append(
            f"phase {name}: sent {len(phase.jobs)}, succeeded {ok}, "
            f"failed {len(phase.jobs) - ok}, wall {phase.wall:.3f} s"
        )


def report(run: Run, title: str, metrics: dict, units: dict) -> None:
    run.lines.append(title)
    for name, (value, samples) in metrics.items():
        run.lines.append(f"  {name:32s} {value:14.6g} {units[name]:10s} n={samples}")


def untraced(workload: str, seed: int, seconds: float, run: Run) -> dict:
    """The end-to-end run: SETUP_REPEATS timed set-ups, each followed by
    its share of the timed phases; the samples of all shares are pooled."""
    # the calibration kernel tracks only work in its own process (see
    # HostClock); a served job's speed does not follow it
    clock = None if workload != "g22_direct" else HostClock()
    if clock is not None:
        clock.sample(CAL_BLOCK)
    if workload == "g22_served":
        g22_reference(g22_inputs(seed), run)
    setups: list[tuple[float, float]] = []
    phases: dict[str, Phase] = {}
    counters: dict = {}
    rss_mb = threads_peak = fds_peak = 0
    for part in range(SETUP_REPEATS):
        start = time.perf_counter()
        env, inputs = set_up(workload, seed, seconds, run)
        end = time.perf_counter()
        try:
            scale = 1.0
            if clock is not None:
                clock.sample(CAL_BLOCK)
                scale = clock.scale_at((start + end) / 2)
            setups.append((end - start, (end - start) * scale))
            before = env.stats() if env.served else None
            env.sampler.reset_peaks()
            done = sum(len(phase.jobs) for phase in phases.values())
            share = measure(workload, env, inputs, seconds / SETUP_REPEATS, part, clock, done)
            env.sampler.poll(force=True)
            if before is not None:
                for key, value in stats_delta(before, env.stats()).items():
                    if key == "errors":
                        for code, count in value.items():
                            errors = counters.setdefault("errors", {})
                            errors[code] = errors.get(code, 0) + count
                    else:
                        counters[key] = counters.get(key, 0) + value
            rss_mb = max(rss_mb, env.sampler.hwm_mb())
            threads_peak = max(threads_peak, env.sampler.threads_peak)
            fds_peak = max(fds_peak, env.sampler.fds_peak)
        finally:
            env.close()
        for name, phase in share.items():
            run.record(phase.jobs)
            pooled = phases.setdefault(name, Phase([], 0.0))
            pooled.jobs += phase.jobs
            pooled.wall += phase.wall
            pooled.nominal += phase.nominal
            pooled.lags += phase.lags
    run.lines.append(f"inputs: {inputs.note}; backend {inputs.backend}")
    report_phases(run, phases)
    if counters:
        run.lines.append(f"server counters over the timed phases: {json.dumps(counters)}")
        run.lines.append(f"server peaks: threads {threads_peak}, fds {fds_peak}")
    lags = [lag for phase in phases.values() for lag in phase.lags]
    if lags:
        run.lines.append(f"generator lag: p90 {percentile(lags, 90):.6f} s, max {max(lags):.6f} s, n={len(lags)}")
    units = dict(END_TO_END)
    raw = end_to_end(phases, [wall for wall, _ in setups], rss_mb, scaled=False)
    report(run, "end-to-end metrics as measured (tracing off):", raw, units)
    if clock is None:
        return raw
    took = clock.took
    run.lines.append(
        f"host calibration: kernel median {statistics.median(took) * 1e3:.3f} ms "
        f"(min {min(took) * 1e3:.3f}, max {max(took) * 1e3:.3f}, n={len(took)}); "
        f"nominal {CAL_NOMINAL_S * 1e3:.3f} ms"
    )
    metrics = end_to_end(phases, [nominal for _, nominal in setups], rss_mb)
    report(run, "end-to-end metrics on the nominal host (tracing off):", metrics, units)
    return metrics


def reference_value(workload: str, phases: dict[str, Phase]) -> float:
    """The e2e figure compared between untraced and traced passes: median
    job latency (g22_*), or mean latency under saturation (stream_*)."""
    if "loop" in phases:
        return percentile(since(phases["loop"].jobs, "end", "sched"), 50)
    return statistics.fmean(since(phases["saturate"].jobs, "end", "sched") or [0.0])


def traced(workload: str, seed: int, seconds: float, run: Run, out_dir: Path) -> dict:
    """The per-layer run: a short untraced pass for the overhead
    reference, then the full workload with every layer wrapped."""
    if workload == "g22_served":
        g22_reference(g22_inputs(seed), run)
    env, inputs = set_up(workload, seed, seconds, run)
    try:
        if workload.startswith("g22"):
            plain = {"loop": closed_loop(env, inputs, seconds, G22_REFERENCE_JOBS)}
        else:
            share = seconds * STREAM_SATURATE_SHARE / SETUP_REPEATS
            plain = dict(zip(("saturate", "drain"), saturate(env, inputs, 0, share)))
    finally:
        env.close()
    for phase in plain.values():
        run.record(phase.jobs)

    stem = out_dir / f"{workload}-seed{seed}"
    env, inputs = set_up(workload, seed, seconds, run, trace_path=f"{stem}-server.trace.json")
    tracer = Tracer()
    try:
        before = env.stats() if env.served else None
        env.sampler.reset_peaks()
        install_layers(tracer)
        if not env.served:
            env.tracer = tracer
        try:
            phases = measure(workload, env, inputs, seconds)
        finally:
            tracer.uninstall()
        env.sampler.poll(force=True)
        after = env.stats() if env.served else None
    finally:
        env.close()
    for phase in phases.values():
        run.record(phase.jobs)
    tracer.write_chrome(f"{stem}-bench.trace.json", pid=os.getpid(), process_name="perfbench")

    parts = [window(tracer.summary())]
    stats = None
    if env.served:
        if env.trace_summary is None:
            raise RuntimeError("traced server printed no span summary")
        checkpoints = env.trace_summary["checkpoints"]
        parts.append(window(env.trace_summary, checkpoints[-2], checkpoints[-1]))
        stats = stats_delta(before, after)
    spans = merge_windows(*parts)
    plain_ref = reference_value(workload, plain)
    overhead = reference_value(workload, phases) / plain_ref - 1.0 if plain_ref else 0.0
    metrics = per_layer(spans, stats, phases, env.sampler, G22_DEVICES, overhead)
    run.lines.append(f"inputs: {inputs.note}; backend {inputs.backend}")
    report_phases(run, phases)
    run.lines.append(f"chrome traces: {stem}-bench.trace.json" + (f", {stem}-server.trace.json" if env.served else ""))
    report(run, "per-layer metrics (tracing on, per completed timed job where /job):", metrics, dict(PER_LAYER))
    return metrics
