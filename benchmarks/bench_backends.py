"""Backend benchmarks: flips/s per backend, fused vs stepwise full launches.

Run as pytest benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_backends.py --benchmark-only

as a report generator (writes ``results/bench_backends.md``)::

    PYTHONPATH=src python benchmarks/bench_backends.py

or as a CI smoke gate (small instance, asserts parity + speedup floors)::

    PYTHONPATH=src python benchmarks/bench_backends.py --smoke

Measurements on a G22-family MaxCut instance (2000 nodes, ~20k edges —
the paper's §VI.A scale):

* the raw lockstep flip kernel per backend (``numpy-dense`` and
  ``numpy-sparse``);
* the greedy-polish phase (§III.A.1) on the cached-state sparse path
  against the seed path (fresh state per launch, per-flip tracker folds);
* a **full batch-search launch** (straight + greedy + MaxMin phases) on
  the stepwise reference path (``run_batch_search``) vs a device launch —
  one super-launch over the fused phase runners (DESIGN.md §6, §12) —
  with speedups against the committed PR-2 seed baseline;
* a **TwoNeighbor full launch** (straight + greedy + one 2n − 1-flip
  traversal + greedy) on the stepwise path vs a device launch;
* the **native kernels** at G22 size (n = 512, 32 rows, the
  ``g22_direct`` workload's pack): one straight, greedy and mixed main
  phase call, and a whole two-segment pack search in one call, against
  numpy-sparse, each native row timed on every allowed CPU and on one.
  The whole pack search's speedup is the headline of the sidecar.

Fused and stepwise launches, and native and numpy-sparse rows, are
asserted bit-identical before timing.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pytest

from benchmarks._launch import LaunchBench, start_vectors
from benchmarks._util import save_report
from repro.backends import available_backends
from repro.backends import prepare_problem
from repro.backends.native import _library
from repro.core.delta import BatchDeltaState
from repro.core.packet import MainAlgorithm, PacketBatch
from repro.core.rng import XorShift64Star, host_generator
from repro.core.sparse import SparseQUBOModel
from repro.engine.coalesce import PackSegment, SuperLaunch
from repro.gpu.device import DeviceSpec
from repro.gpu.virtual_gpu import VirtualGPU
from repro.problems.gset import g22_like
from repro.problems.maxcut import maxcut_to_qubo
from repro.search import build_main_algorithms
from repro.search.batch import BatchSearchConfig, BestTracker
from repro.search.greedy import greedy_descent, greedy_select
from repro.search.tabu import TabuTracker

N = 2000
BLOCKS = 16
SEED = 0

#: full-launch flips/s of the seed path as committed by PR 2
#: (results/bench_backends.md before this change) — the anchor the fused
#: path is compared against on the same instance/config/machine class
SEED_BASELINE_FLIPS_PER_S = 71_454


def gset_sparse_model(n: int = N, seed: int = SEED) -> SparseQUBOModel:
    return SparseQUBOModel.from_dense(maxcut_to_qubo(g22_like(n, seed=seed)))


# ---------------------------------------------------------------------------
# The seed repo's greedy-polish path, kept as the benchmark baseline: a
# fresh device state per launch and a best-tracker fold (one (B, n) argmin)
# after every greedy flip.  The cached path below is bit-identical.
# ---------------------------------------------------------------------------

def seed_greedy_polish(model, start: np.ndarray):
    state = BatchDeltaState(model, batch=start.shape[0], backend="numpy-sparse")
    state.reset(start)
    tracker = BestTracker(state)
    tracker.fold(state)
    flips = np.zeros(start.shape[0], dtype=np.int64)
    for _ in range(16 * model.n + 64):
        idx, active = greedy_select(state)
        if not active.any():
            break
        state.flip(idx, active)
        flips += active
        tracker.fold(state)
    return tracker, flips


def cached_greedy_polish(state, start: np.ndarray):
    state.reset(start)
    tracker = BestTracker(state)
    tracker.fold(state)
    flips = greedy_descent(state)
    tracker.fold(state)
    return tracker, flips


def _best_time(fn, rounds: int = 5) -> float:
    return _best_times_interleaved([fn], rounds)[0]


def _best_times_interleaved(fns, rounds: int = 5) -> list[float]:
    """The best of *rounds* timings of each function, taken in turns
    (a, b, a, b, …) so host-speed drift hits every side alike."""
    for fn in fns:
        fn()  # warmup
    times = [[] for _ in fns]
    for _ in range(rounds):
        for fn, out in zip(fns, times):
            t0 = time.perf_counter()
            fn()
            out.append(time.perf_counter() - t0)
    return [min(out) for out in times]


# ---------------------------------------------------------------------------
# The native kernels at G22 size: each row runs from the same inputs on
# native and on numpy-sparse, is asserted bit-identical, then timed.
# ---------------------------------------------------------------------------

G22_N = 512
G22_ROWS = 32
#: the g22_direct workload's search: 2 devices × 16 blocks, every
#: algorithm, default flip factors
G22_CONFIG = BatchSearchConfig()
#: CI smoke floor on the native whole-pack search's speedup over
#: numpy-sparse (CHANGES.md records the smoke runs it was set from)
SMOKE_MIN_PACK_SPEEDUP = 4.0
#: best-of rounds of each numpy-sparse reference in the report: a call
#: takes 10-120 ms, and its best of 3 moved the pack search's speedup
#: between 17.5x and 24.6x over five runs of one tree
REFERENCE_ROUNDS = 15


def _timed(setup, call, rounds: int) -> float:
    """The best time of *call* over *rounds* runs, each on fresh inputs
    from *setup* (not timed), after one warm-up run."""
    best = float("inf")
    for _ in range(rounds + 1):
        args = setup()
        t0 = time.perf_counter()
        call(*args)
        best = min(best, time.perf_counter() - t0)
    return best


class NativeRows:
    """One G22-sized state per backend, reset to fixed inputs before each
    phase; a phase's observables are x, energies, Δ, stamps, clock, best
    memory, its own outputs and the lanes."""

    def __init__(self) -> None:
        self.model = gset_sparse_model(G22_N, seed=22)
        rng = np.random.default_rng(4)
        self.x = rng.integers(0, 2, size=(G22_ROWS, G22_N), dtype=np.uint8)
        self.targets = rng.integers(0, 2, size=(G22_ROWS, G22_N), dtype=np.uint8)
        self.lanes = rng.integers(1, 2**63, size=(G22_ROWS, G22_N), dtype=np.uint64)
        self.iterations = G22_CONFIG.main_iterations(G22_N)
        algorithms = build_main_algorithms(G22_CONFIG)
        self.kinds = [algorithms[alg] for alg in MainAlgorithm if alg != MainAlgorithm.TWONEIGHBOR]
        self.sides = {}
        for name in ("native", "numpy-sparse"):
            state = BatchDeltaState(self.model, G22_ROWS, backend=name)
            tabu = TabuTracker(G22_ROWS, G22_N, G22_CONFIG.tabu_period)
            tabu.vectorize_clock()
            self.sides[name] = (state, tabu, BestTracker(state))

    def setup(self, name):
        state, tabu, tracker = self.sides[name]
        state.reset(self.x)
        tabu.stamps.fill(-(G22_CONFIG.tabu_period + 1))
        tabu.clock[...] = 0
        tracker.reset(state)
        return state, tabu, tracker, self.lanes.copy(), np.zeros(8, dtype=np.int64)

    def straight(self, state, tabu, tracker, lanes, cursor):
        return state.backend.run_straight_phase(state, self.targets, tabu, tracker), lanes

    def greedy(self, state, tabu, tracker, lanes, cursor):
        return (*state.backend.run_greedy_phase(state, tabu, tracker), lanes)

    def main(self, state, tabu, tracker, lanes, cursor):
        """One main phase of the four non-TwoNeighbor kinds, 8 rows each
        (CyclicMin's rows on their own cursor)."""
        parts = []
        for k, alg in enumerate(self.kinds):
            lo, hi = 8 * k, 8 * k + 8
            spec = alg.lower(state, self.iterations)
            if alg.enum == MainAlgorithm.CYCLICMIN:
                spec = replace(spec, cursor=cursor)
            parts.append((lo, hi, spec, XorShift64Star.view(lanes[lo:hi])))
        flips = state.backend.run_main_phase(state, parts, self.iterations, None, tabu, tracker)
        return flips, lanes, cursor

    def observed(self, name, phase):
        state, tabu, tracker, *draws = self.setup(name)
        out = phase(state, tabu, tracker, *draws)
        return [state.x, state.energy, state.delta, tabu.stamps, tabu.clock,
                tracker.best_x, tracker.best_energy, *out]


class PackSearch:
    """A g22_direct round: a pack of two 16-row segments whose blocks run
    every algorithm, searched whole, on fresh devices each time."""

    def __init__(self, backend: str) -> None:
        self.model = gset_sparse_model(G22_N, seed=22)
        self.prepared = prepare_problem(self.model, backend)
        rng = np.random.default_rng(6)
        algs = np.array([int(a) for a in MainAlgorithm], dtype=np.uint8)
        self.batches = [
            PacketBatch.void(
                rng.integers(0, 2, size=(16, G22_N), dtype=np.uint8),
                rng.permutation(np.resize(algs, 16)),
                np.zeros(16, dtype=np.uint8),
            )
            for _ in range(2)
        ]
        self.scratch = {}

    def setup(self):
        gpus = [
            VirtualGPU(
                self.model, DeviceSpec(num_blocks=16), G22_CONFIG, tuple(MainAlgorithm),
                host_generator(100 + j), backend=self.prepared.backend,
                kernel=self.prepared.kernel,
            )
            for j in range(2)
        ]
        segments = [
            PackSegment(j, 0, gpu, batch, None)
            for j, (gpu, batch) in enumerate(zip(gpus, self.batches))
        ]
        return (segments,)

    def run(self, segments):
        return SuperLaunch(segments).run(self.scratch)

    def observed(self):
        (segments,) = self.setup()
        done = self.run(segments)
        out = [a for res in done for a in (res.result.vectors, res.result.energies, res.flips)]
        for seg in segments:
            gpu = seg.gpu
            out += [
                gpu.block_x,
                gpu.rng_state,
                gpu.algorithms[MainAlgorithm.CYCLICMIN].export_cursor(16),
                np.array([gpu.total_flips, gpu.greedy_truncations]),
            ]
        return out


def _assert_same(a, b, what: str) -> None:
    assert len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b)), (
        f"native {what} differs from numpy-sparse"
    )


def _on_one_cpu(fn):
    """*fn*'s result with this thread pinned to one of its allowed CPUs,
    so a native call runs on one thread; the mask is restored after."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        return fn()
    finally:
        os.sched_setaffinity(0, mask)


def native_rows() -> list[tuple[str, float, float, float, int, int]]:
    """(row, native s, native s on one CPU, numpy-sparse s, native
    threads, row-steps) of each native row, every row asserted
    bit-identical to numpy-sparse first; a phase's row-steps are its
    flips summed over the rows (0 for the pack search)."""
    rows = NativeRows()
    n, r = G22_N, G22_ROWS
    phases = [
        ("straight phase", rows.straight, r * n * n),
        ("greedy phase", rows.greedy, r * n * (n // 8)),
        (f"main phase ({rows.iterations} steps, 4 kinds)", rows.main, r * n * rows.iterations),
    ]
    threads = _library().repro_threads
    out = []
    for label, phase, work in phases:
        native = rows.observed("native", phase)
        _assert_same(native, rows.observed("numpy-sparse", phase), label)
        steps = int(native[7].sum())  # the phase's per-row flips
        native_t = _timed(lambda: rows.setup("native"), phase, 20)
        one_t = _on_one_cpu(lambda: _timed(lambda: rows.setup("native"), phase, 20))
        numpy_t = _timed(lambda: rows.setup("numpy-sparse"), phase, REFERENCE_ROUNDS)
        out.append((label, native_t, one_t, numpy_t, threads(r, work), steps))
    native, reference = pack_search_pair()
    native_t = _timed(native.setup, native.run, 20)
    one_t = _on_one_cpu(lambda: _timed(native.setup, native.run, 20))
    numpy_t = _timed(reference.setup, reference.run, REFERENCE_ROUNDS)
    # the search splits at least as far as its straight walks do
    out.append(
        ("whole pack search (2 × 16 rows)", native_t, one_t, numpy_t, threads(r, r * n * n), 0)
    )
    return out


def pack_search_pair() -> tuple[PackSearch, PackSearch]:
    """The native and numpy-sparse pack searches, asserted bit-identical."""
    native, reference = PackSearch("native"), PackSearch("numpy-sparse")
    _assert_same(native.observed(), reference.observed(), "pack search")
    return native, reference


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_flip_kernel_throughput(benchmark, backend):
    """Raw lockstep flip kernel, block-flips/second, per backend."""
    model = gset_sparse_model()
    state = BatchDeltaState(model, batch=BLOCKS, backend=backend)
    state.reset(start_vectors(model, BLOCKS))
    rng = np.random.default_rng(3)
    idx = rng.integers(0, model.n, size=(64, BLOCKS))
    slot = [0]

    def flips():
        state.flip(idx[slot[0] % 64])
        slot[0] += 1

    benchmark(flips)
    benchmark.extra_info["block_flips_per_second"] = (
        BLOCKS / benchmark.stats["mean"]
    )


def test_cached_sparse_greedy_vs_seed(benchmark):
    """Acceptance: cached-state sparse greedy polish ≥1.3× the seed path."""
    model = gset_sparse_model()
    start = start_vectors(model, BLOCKS)
    cached = BatchDeltaState(model, batch=BLOCKS, backend="numpy-sparse")

    ref_tracker, ref_flips = seed_greedy_polish(model, start)
    new_tracker, new_flips = cached_greedy_polish(cached, start)
    assert np.array_equal(ref_flips, new_flips)
    assert np.array_equal(ref_tracker.best_energy, new_tracker.best_energy)
    assert np.array_equal(ref_tracker.best_x, new_tracker.best_x)

    total_flips = int(new_flips.sum())
    seed_time = _best_time(lambda: seed_greedy_polish(model, start))
    benchmark(lambda: cached_greedy_polish(cached, start))
    new_time = benchmark.stats["min"]
    speedup = seed_time / new_time
    benchmark.extra_info["seed_flips_per_second"] = total_flips / seed_time
    benchmark.extra_info["new_flips_per_second"] = total_flips / new_time
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= 1.3


@pytest.mark.parametrize("backend", ["numpy-sparse"])
def test_fused_launch_vs_stepwise(benchmark, backend):
    """Fused full launch: bit-identical to stepwise and ≥1.3× faster."""
    bench = LaunchBench(gset_sparse_model(), backend, BLOCKS)
    total = bench.assert_paths_bit_identical()
    stepwise_t = _best_time(lambda: bench.launch(False), rounds=3)
    benchmark(lambda: bench.launch(True))
    fused_t = benchmark.stats["min"]
    benchmark.extra_info["stepwise_flips_per_second"] = total / stepwise_t
    benchmark.extra_info["fused_flips_per_second"] = total / fused_t
    benchmark.extra_info["speedup_vs_stepwise"] = stepwise_t / fused_t
    benchmark.extra_info["speedup_vs_seed_baseline"] = (
        total / fused_t
    ) / SEED_BASELINE_FLIPS_PER_S
    assert stepwise_t / fused_t >= 1.3


def test_twoneighbor_launch_vs_stepwise(benchmark):
    """TwoNeighbor full launch: the device launch is bit-identical to the
    stepwise path."""
    bench = LaunchBench(
        gset_sparse_model(), "numpy-sparse", BLOCKS, algorithm=MainAlgorithm.TWONEIGHBOR
    )
    total = bench.assert_paths_bit_identical()
    stepwise_t = _best_time(lambda: bench.launch(False), rounds=3)
    benchmark(lambda: bench.launch(True))
    fused_t = benchmark.stats["min"]
    benchmark.extra_info["stepwise_flips_per_second"] = total / stepwise_t
    benchmark.extra_info["fused_flips_per_second"] = total / fused_t
    benchmark.extra_info["speedup_vs_stepwise"] = stepwise_t / fused_t


# ---------------------------------------------------------------------------
# standalone report / CI smoke
# ---------------------------------------------------------------------------

def run_report() -> tuple[str, dict]:
    """The markdown report and its headline numbers (for the sidecar)."""
    model = gset_sparse_model()
    metrics = {}
    start = start_vectors(model, BLOCKS)
    lines = [
        "# Backend benchmarks (G22-family MaxCut, n=2000, ~20k edges, "
        f"B={BLOCKS})",
        "",
        "## Raw lockstep flip kernel",
        "",
        "| backend | block-flips/s |",
        "|---|---|",
    ]
    rng = np.random.default_rng(3)
    idx = rng.integers(0, model.n, size=(64, BLOCKS))
    for backend in sorted(available_backends()):
        state = BatchDeltaState(model, batch=BLOCKS, backend=backend)
        state.reset(start)

        def burst():
            for k in range(64):
                state.flip(idx[k])

        per_burst = _best_time(burst)
        lines.append(f"| {backend} | {64 * BLOCKS / per_burst:,.0f} |")

    cached = BatchDeltaState(model, batch=BLOCKS, backend="numpy-sparse")
    ref_tracker, ref_flips = seed_greedy_polish(model, start)
    new_tracker, new_flips = cached_greedy_polish(cached, start)
    assert np.array_equal(ref_flips, new_flips)
    assert np.array_equal(ref_tracker.best_energy, new_tracker.best_energy)
    flips = int(new_flips.sum())
    seed_t = _best_time(lambda: seed_greedy_polish(model, start))
    new_t = _best_time(lambda: cached_greedy_polish(cached, start))
    lines += [
        "",
        "## Greedy polish (§III.A.1): cached-state sparse path vs seed",
        "",
        "Bit-identical outputs (asserted); flips/s over the full descent.",
        "",
        "| path | time/launch | flips/s | speedup |",
        "|---|---|---|---|",
        f"| seed (fresh state, per-flip folds) | {seed_t * 1e3:.1f} ms "
        f"| {flips / seed_t:,.0f} | 1.00× |",
        f"| cached (reset-in-place, deferred folds) | {new_t * 1e3:.1f} ms "
        f"| {flips / new_t:,.0f} | {seed_t / new_t:.2f}× |",
    ]

    lines += [
        "",
        "## Full batch-search launch (straight + greedy + MaxMin phases)",
        "",
        "Stepwise = the per-flip reference schedule; fused = one device",
        "launch, whole phases below the backend seam in one super-launch",
        "(DESIGN.md §6, §12).  Outputs are bit-identical",
        "(asserted before timing).  Speedups are against the committed PR-2",
        f"seed baseline of {SEED_BASELINE_FLIPS_PER_S:,} flips/s (same",
        "instance, B, schedule and machine class).",
        "",
        "| path | time/launch | flips/s | vs seed baseline |",
        "|---|---|---|---|",
    ]
    bench = LaunchBench(model, "numpy-sparse", BLOCKS)
    total = bench.assert_paths_bit_identical()
    stepwise_t, fused_t = _best_times_interleaved(
        [lambda: bench.launch(False), lambda: bench.launch(True)], rounds=3
    )
    metrics["maxmin_fused_speedup_numpy"] = stepwise_t / fused_t
    lines += [
        f"| stepwise (numpy) | {stepwise_t * 1e3:.0f} ms "
        f"| {total / stepwise_t:,.0f} "
        f"| {total / stepwise_t / SEED_BASELINE_FLIPS_PER_S:.2f}× |",
        f"| fused (numpy) | {fused_t * 1e3:.0f} ms "
        f"| {total / fused_t:,.0f} "
        f"| {total / fused_t / SEED_BASELINE_FLIPS_PER_S:.2f}× |",
    ]

    bench = LaunchBench(model, "numpy-sparse", BLOCKS, algorithm=MainAlgorithm.TWONEIGHBOR)
    total = bench.assert_paths_bit_identical()
    stepwise_t, fused_t = _best_times_interleaved(
        [lambda: bench.launch(False), lambda: bench.launch(True)], rounds=3
    )
    metrics["twoneighbor_stepwise_s"] = stepwise_t
    metrics["twoneighbor_fused_s"] = fused_t
    metrics["twoneighbor_fused_speedup"] = stepwise_t / fused_t
    lines += [
        "",
        "## TwoNeighbor full launch (straight + greedy + traversal + greedy)",
        "",
        "The fused path is one device launch over the fused runners",
        "above; its 2n − 1-flip traversal is one flip and one fold per",
        "step.  Outputs are bit-identical (asserted before timing).",
        "",
        "| path | time/launch | flips/s | speedup |",
        "|---|---|---|---|",
        f"| stepwise (numpy) | {stepwise_t * 1e3:.0f} ms "
        f"| {total / stepwise_t:,.0f} | 1.00× |",
        f"| fused (numpy) | {fused_t * 1e3:.0f} ms "
        f"| {total / fused_t:,.0f} | {stepwise_t / fused_t:.2f}× |",
    ]

    if "native" in available_backends():
        lines += [
            "",
            f"## Native kernels at G22 size (n={G22_N}, {G22_ROWS} rows)",
            "",
            "One native call per row against numpy-sparse's NumPy body, from",
            "the same inputs; every row is asserted bit-identical first.  The",
            "pack search is a g22_direct round: two 16-row segments whose",
            "blocks run every algorithm, its whole batch search in one call.",
            "Threads: what the native call spreads over on this host; the",
            "1-CPU column times it again with the bench pinned to one CPU, and",
            "ns/row-step divides that by the phase's flips summed over its",
            f"rows.  Each time is a best of 20 runs (numpy-sparse: {REFERENCE_ROUNDS}).",
            "",
            "| row | native | native, 1 CPU | 1 CPU ns/row-step | numpy-sparse "
            "| speedup | native threads |",
            "|---|---|---|---|---|---|---|",
        ]
        for label, native_t, one_t, numpy_t, threads, steps in native_rows():
            key = label.split(" (")[0].replace(" ", "_")
            metrics[f"native_{key}_s"] = native_t
            metrics[f"native_{key}_one_cpu_s"] = one_t
            metrics[f"native_{key}_speedup"] = numpy_t / native_t
            per_step = "—"
            if steps:
                metrics[f"native_{key}_one_cpu_ns_per_row_step"] = one_t / steps * 1e9
                per_step = f"{one_t / steps * 1e9:.0f}"
            lines.append(
                f"| {label} | {native_t * 1e3:.2f} ms | {one_t * 1e3:.2f} ms | {per_step} "
                f"| {numpy_t * 1e3:.1f} ms | {numpy_t / native_t:.1f}× | {threads} |"
            )
    return "\n".join(lines), metrics


def run_smoke() -> None:
    """CI gate: bit-exact parity (hard) + lenient speedup floors.

    Parity is the real correctness gate; the speed floors only guard
    against gross regressions (fused slower than stepwise) and carry
    generous margin so the gate does not flake on noisy shared runners —
    the honest speedups live in ``results/bench_backends.md``.
    """
    model = gset_sparse_model(n=800)
    report = []
    bench = LaunchBench(model, "numpy-sparse", batch=8)
    total = bench.assert_paths_bit_identical()
    stepwise_t, fused_t = _best_times_interleaved(
        [lambda: bench.launch(False), lambda: bench.launch(True)], rounds=5
    )
    ratio = stepwise_t / fused_t
    report.append(
        f"numpy-sparse: stepwise {total / stepwise_t:,.0f} flips/s, "
        f"fused {total / fused_t:,.0f} flips/s ({ratio:.2f}x)"
    )
    assert ratio >= 1.05, f"fused numpy launch only {ratio:.2f}x vs stepwise"
    LaunchBench(
        model, "numpy-sparse", batch=8, algorithm=MainAlgorithm.TWONEIGHBOR
    ).assert_paths_bit_identical()
    report.append("twoneighbor: device launch bit-identical to stepwise")
    if "native" in available_backends():
        native, reference = pack_search_pair()
        native_t = _timed(native.setup, native.run, 10)
        numpy_t = _timed(reference.setup, reference.run, 3)
        pack_ratio = numpy_t / native_t
        report.append(
            f"native pack search: {native_t * 1e3:.2f} ms vs numpy-sparse "
            f"{numpy_t * 1e3:.1f} ms ({pack_ratio:.1f}x)"
        )
        assert pack_ratio >= SMOKE_MIN_PACK_SPEEDUP, (
            f"native pack search only {pack_ratio:.1f}x vs numpy-sparse"
        )
    print("\n".join(report))
    print("bench smoke OK")


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        run_smoke()
    else:
        report, metrics = run_report()
        path = save_report(
            report,
            "bench_backends",
            metric="native_whole_pack_search_speedup",
            value=metrics.get("native_whole_pack_search_speedup"),
            baseline=1.0,
            metrics=metrics,
        )
        print(report)
        print(f"\nsaved to {path}")
