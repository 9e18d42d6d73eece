"""Backend benchmarks: flips/s per backend, fused vs stepwise full launches.

Run as pytest benchmarks::

    PYTHONPATH=src python -m pytest benchmarks/bench_backends.py --benchmark-only

as a report generator (writes ``results/bench_backends.md``)::

    PYTHONPATH=src python benchmarks/bench_backends.py

or as a CI smoke gate (small instance, asserts parity + speedup floors)::

    PYTHONPATH=src python benchmarks/bench_backends.py --smoke

Measurements on a G22-family MaxCut instance (2000 nodes, ~20k edges —
the paper's §VI.A scale):

* the raw lockstep flip kernel per backend (``numpy-dense``,
  ``numpy-sparse``, and ``numba`` when installed);
* the greedy-polish phase (§III.A.1) on the cached-state sparse path
  against the seed path (fresh state per launch, per-flip tracker folds);
* a **full batch-search launch** (straight + greedy + MaxMin phases) on
  the stepwise reference path vs the fused phase runners (DESIGN.md §6),
  per backend, with speedups against the committed PR-2 seed baseline;
* a **TwoNeighbor full launch** (straight + greedy + one 2n − 1-flip
  traversal + greedy) on the stepwise path vs the fused path, whose
  traversal runs as one closed-form kernel on integer models.

Fused and stepwise launches are asserted bit-identical before timing.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import pytest

from benchmarks._util import save_report
from repro.backends import NumbaBackend, available_backends
from repro.core.delta import BatchDeltaState
from repro.core.rng import XorShift64Star, host_generator, spawn_device_seeds
from repro.core.sparse import SparseQUBOModel
from repro.problems.gset import g22_like
from repro.problems.maxcut import maxcut_to_qubo
from repro.search.batch import BatchSearchConfig, BestTracker, run_batch_search
from repro.search.greedy import greedy_descent, greedy_select
from repro.search.maxmin import MaxMinSearch
from repro.search.tabu import TabuTracker
from repro.search.twoneighbor import TwoNeighborSearch

N = 2000
BLOCKS = 16
SEED = 0

#: full-launch flips/s of the seed path as committed by PR 2
#: (results/bench_backends.md before this change) — the anchor the fused
#: path is compared against on the same instance/config/machine class
SEED_BASELINE_FLIPS_PER_S = 71_454


def gset_sparse_model(n: int = N, seed: int = SEED) -> SparseQUBOModel:
    return SparseQUBOModel.from_dense(maxcut_to_qubo(g22_like(n, seed=seed)))


def start_vectors(model, batch: int = BLOCKS, seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(batch, model.n), dtype=np.uint8)


# ---------------------------------------------------------------------------
# The seed repo's greedy-polish path, kept as the benchmark baseline: a
# fresh device state per launch and a best-tracker fold (one (B, n) argmin)
# after every greedy flip.  The cached path below is bit-identical.
# ---------------------------------------------------------------------------

def seed_greedy_polish(model, start: np.ndarray):
    state = BatchDeltaState(model, batch=start.shape[0], backend="numpy-sparse")
    state.reset(start)
    tracker = BestTracker(state)
    tracker.update(state)
    flips = np.zeros(start.shape[0], dtype=np.int64)
    for _ in range(16 * model.n + 64):
        idx, active = greedy_select(state)
        if not active.any():
            break
        state.flip(idx, active)
        flips += active
        tracker.update(state)
    return tracker, flips


def cached_greedy_polish(state, start: np.ndarray):
    state.reset(start)
    tracker = BestTracker(state)
    tracker.update(state)
    flips = greedy_descent(state)
    tracker.update(state)
    return tracker, flips


# ---------------------------------------------------------------------------
# Full batch-search launches: stepwise reference vs fused phase runners
# ---------------------------------------------------------------------------

class LaunchBench:
    """One reusable launch setup (cached device buffers, fixed draws)."""

    def __init__(
        self, model, backend: str, batch: int = BLOCKS, algorithm=MaxMinSearch
    ) -> None:
        self.model = model
        self.algorithm = algorithm
        self.batch = batch
        self.config = BatchSearchConfig(batch_flip_factor=1.0)
        self.start = start_vectors(model, batch)
        self.targets = start_vectors(model, batch, seed=5)
        self.state = BatchDeltaState(model, batch=batch, backend=backend)
        self.tabu = TabuTracker(batch, model.n, self.config.tabu_period)
        self.tracker = BestTracker(self.state)

    def launch(self, fused: bool):
        self.state.reset(self.start)
        lanes = XorShift64Star(
            spawn_device_seeds(host_generator(2), (self.batch, self.model.n))
        )
        return run_batch_search(
            self.state,
            self.targets,
            self.algorithm(),
            lanes,
            self.config,
            tabu=self.tabu,
            tracker=self.tracker,
            fused=fused,
        )

    def assert_paths_bit_identical(self):
        ref_tracker, ref_flips = self.launch(False)
        ref = (
            ref_tracker.best_x.copy(),
            ref_tracker.best_energy.copy(),
            ref_flips.copy(),
            self.state.x.copy(),
            self.state.energy.copy(),
        )
        tracker, flips = self.launch(True)
        assert np.array_equal(tracker.best_x, ref[0])
        assert np.array_equal(tracker.best_energy, ref[1])
        assert np.array_equal(flips, ref[2])
        assert np.array_equal(self.state.x, ref[3])
        assert np.array_equal(self.state.energy, ref[4])
        return int(ref_flips.sum())


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
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_flip_kernel_throughput(benchmark, backend):
    """Raw lockstep flip kernel, block-flips/second, per backend."""
    model = gset_sparse_model()
    state = BatchDeltaState(model, batch=BLOCKS, backend=backend)
    state.reset(start_vectors(model))
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
    start = start_vectors(model)
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


@pytest.mark.parametrize(
    "backend",
    sorted(set(available_backends()) & {"numpy-sparse", "numba"}),
)
def test_fused_launch_vs_stepwise(benchmark, backend):
    """Fused full launch: bit-identical to stepwise and ≥1.3× faster."""
    bench = LaunchBench(gset_sparse_model(), backend)
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
    """TwoNeighbor full launch: the closed-form traversal is bit-identical
    to the stepwise path and ≥1.5× faster end to end."""
    bench = LaunchBench(
        gset_sparse_model(), "numpy-sparse", algorithm=TwoNeighborSearch
    )
    total = bench.assert_paths_bit_identical()
    stepwise_t = _best_time(lambda: bench.launch(False), rounds=3)
    benchmark(lambda: bench.launch(True))
    fused_t = benchmark.stats["min"]
    benchmark.extra_info["stepwise_flips_per_second"] = total / stepwise_t
    benchmark.extra_info["fused_flips_per_second"] = total / fused_t
    benchmark.extra_info["speedup_vs_stepwise"] = stepwise_t / fused_t
    assert stepwise_t / fused_t >= 1.5


# ---------------------------------------------------------------------------
# standalone report / CI smoke
# ---------------------------------------------------------------------------

def run_report() -> tuple[str, dict]:
    """The markdown report and its headline numbers (for the sidecar)."""
    model = gset_sparse_model()
    metrics = {}
    start = start_vectors(model)
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
    if not NumbaBackend.is_available():
        lines.append("| numba | (not installed — skipped) |")

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
        "Stepwise = the per-flip reference schedule; fused = whole phases",
        "below the backend seam (DESIGN.md §6).  Outputs are bit-identical",
        "(asserted before timing).  Speedups are against the committed PR-2",
        f"seed baseline of {SEED_BASELINE_FLIPS_PER_S:,} flips/s (same",
        "instance, B, schedule and machine class).",
        "",
        "| path | time/launch | flips/s | vs seed baseline |",
        "|---|---|---|---|",
    ]
    for backend in sorted(set(available_backends()) & {"numpy-sparse", "numba"}):
        bench = LaunchBench(model, backend)
        total = bench.assert_paths_bit_identical()
        stepwise_t, fused_t = _best_times_interleaved(
            [lambda: bench.launch(False), lambda: bench.launch(True)], rounds=3
        )
        tag = "numpy" if backend == "numpy-sparse" else backend
        metrics[f"maxmin_fused_speedup_{tag}"] = stepwise_t / fused_t
        lines += [
            f"| stepwise ({tag}) | {stepwise_t * 1e3:.0f} ms "
            f"| {total / stepwise_t:,.0f} "
            f"| {total / stepwise_t / SEED_BASELINE_FLIPS_PER_S:.2f}× |",
            f"| fused ({tag}) | {fused_t * 1e3:.0f} ms "
            f"| {total / fused_t:,.0f} "
            f"| {total / fused_t / SEED_BASELINE_FLIPS_PER_S:.2f}× |",
        ]
    if not NumbaBackend.is_available():
        lines.append(
            "| fused (numba) | (not installed — skipped; run in the CI "
            "bench-smoke job) | | |"
        )

    bench = LaunchBench(model, "numpy-sparse", algorithm=TwoNeighborSearch)
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
        "The fused path runs the 2n − 1-flip traversal as one closed-form",
        "kernel (DESIGN.md §6); the other phases are the fused runners",
        "above.  Outputs are bit-identical (asserted before timing).",
        "",
        "| path | time/launch | flips/s | speedup |",
        "|---|---|---|---|",
        f"| stepwise (numpy) | {stepwise_t * 1e3:.0f} ms "
        f"| {total / stepwise_t:,.0f} | 1.00× |",
        f"| fused (numpy) | {fused_t * 1e3:.0f} ms "
        f"| {total / fused_t:,.0f} | {stepwise_t / fused_t:.2f}× |",
    ]
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
    if NumbaBackend.is_available():
        nb = LaunchBench(model, "numba", batch=8)
        nb.assert_paths_bit_identical()
        nb_fused_t = _best_time(lambda: nb.launch(True), rounds=5)
        nb_ratio = stepwise_t / nb_fused_t
        report.append(
            f"numba: fused {total / nb_fused_t:,.0f} flips/s "
            f"({nb_ratio:.2f}x vs numpy stepwise)"
        )
        assert nb_ratio >= 2.5, (
            f"numba fused launch only {nb_ratio:.2f}x vs numpy stepwise"
        )
    else:
        report.append("numba: not installed — skipped")
    tn = LaunchBench(model, "numpy-sparse", batch=8, algorithm=TwoNeighborSearch)
    tn_total = tn.assert_paths_bit_identical()
    tn_stepwise_t, tn_fused_t = _best_times_interleaved(
        [lambda: tn.launch(False), lambda: tn.launch(True)], rounds=5
    )
    tn_ratio = tn_stepwise_t / tn_fused_t
    report.append(
        f"twoneighbor: stepwise {tn_total / tn_stepwise_t:,.0f} flips/s, "
        f"fused {tn_total / tn_fused_t:,.0f} flips/s ({tn_ratio:.2f}x)"
    )
    assert tn_ratio >= 1.5, (
        f"fused TwoNeighbor launch only {tn_ratio:.2f}x vs stepwise"
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
            metric="twoneighbor_fused_speedup",
            value=metrics["twoneighbor_fused_speedup"],
            baseline=1.0,
            metrics=metrics,
        )
        print(report)
        print(f"\nsaved to {path}")
