"""CUDA backend kernel microbenchmarks: device flips/s and fused launches.

Run as a report generator (writes ``results/bench_cuda_kernels.md``)::

    PYTHONPATH=src python benchmarks/bench_cuda_kernels.py

or as a CI smoke gate (small instance, asserts cross-backend bit-exact
parity; used by the ``cuda-sim`` job)::

    PYTHONPATH=src python benchmarks/bench_cuda_kernels.py --smoke

Backends that are not usable on the current box produce an explicit
"unavailable" row instead of failing, so the same script runs end-to-end

* with **no CUDA at all** (numpy rows only — the honest committed baseline),
* on the **CUDA simulator**::

      NUMBA_ENABLE_CUDASIM=1 REPRO_CUDA_TPB=4 \\
          PYTHONPATH=src python benchmarks/bench_cuda_kernels.py --smoke

  (sizes auto-shrink under the simulator; timings there measure the
  interpreter, not a GPU, and are reported as such), and
* on **real hardware** (no code changes)::

      PYTHONPATH=src python benchmarks/bench_cuda_kernels.py

Two measurements per backend:

* the **straight-phase flip kernel** — every iteration selects and flips
  exactly one differing bit per row, so elapsed time divided by total
  Hamming distance is the per-flip device cost (launch + staging included);
* a **full batch-search launch** (straight + greedy + MaxMin phases) — a
  device launch, one super-launch over the fused phase runners — against
  the numpy-sparse stepwise reference, asserted bit-identical (including
  block solutions and RNG lanes) before timing.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

# Under the CUDA simulator every device thread is interpreted Python; the
# default 128 threads/block would multiply that cost for no coverage gain.
if os.environ.get("NUMBA_ENABLE_CUDASIM") == "1":
    os.environ.setdefault("REPRO_CUDA_TPB", "4")

from benchmarks._launch import LaunchBench, start_vectors
from benchmarks._util import save_report
from repro.backends import CudaBackend
from repro.core.delta import BatchDeltaState
from repro.core.sparse import SparseQUBOModel
from repro.problems.gset import g22_like
from repro.problems.maxcut import maxcut_to_qubo
from repro.search.batch import BestTracker
from repro.search.tabu import TabuTracker

SIMULATOR = os.environ.get("NUMBA_ENABLE_CUDASIM") == "1"

#: instance sizes: paper-scale by default, shrunk under the simulator where
#: each device thread is interpreted Python
N = 64 if SIMULATOR else 2000
BLOCKS = 4 if SIMULATOR else 16
ROUNDS = 1 if SIMULATOR else 3
SEED = 0

#: (name, availability probe, reason when unavailable)
CANDIDATES = (
    ("numpy-sparse", lambda: True, ""),
    ("cuda", CudaBackend.is_available, ""),
)


def candidate_rows():
    """Yield ``(backend_name, reason_or_None)`` — reason set when skipped."""
    for name, probe, fallback_reason in CANDIDATES:
        if probe():
            yield name, None
        elif name == "cuda":
            yield name, CudaBackend.unavailable_reason()
        else:
            yield name, fallback_reason


def gset_sparse_model(n: int = N, seed: int = SEED) -> SparseQUBOModel:
    return SparseQUBOModel.from_dense(maxcut_to_qubo(g22_like(n, seed=seed)))


def _best_time(fn, rounds: int = ROUNDS) -> float:
    fn()  # warmup (includes JIT compilation / device upload)
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


# ---------------------------------------------------------------------------
# Straight-phase flip kernel: one selected flip per row per iteration
# ---------------------------------------------------------------------------

class StraightBench:
    """Reusable straight-phase launch on one backend (cached device state)."""

    def __init__(self, model, backend: str, batch: int = BLOCKS) -> None:
        self.start = start_vectors(model, batch)
        self.targets = start_vectors(model, batch, seed=5)
        self.state = BatchDeltaState(model, batch=batch, backend=backend)
        self.tabu = TabuTracker(batch, model.n, 16)
        self.tracker = BestTracker(self.state)
        self.total_flips = int((self.start != self.targets).sum())

    def launch(self) -> None:
        self.state.reset(self.start)
        self.state.backend.run_straight_phase(
            self.state, self.targets, self.tabu, self.tracker
        )

    def snapshot(self):
        self.launch()
        return self.state.x.copy(), self.state.energy.copy()


# ---------------------------------------------------------------------------
# standalone report / CI smoke
# ---------------------------------------------------------------------------

def run_report() -> str:
    model = gset_sparse_model()
    scale_note = (
        "Sizes are shrunk under `NUMBA_ENABLE_CUDASIM=1`; simulator timings "
        "measure the interpreter, not a GPU."
        if SIMULATOR
        else "Run on real hardware / host backends at paper scale."
    )
    lines = [
        "# CUDA kernel benchmarks (G22-family MaxCut, "
        f"n={model.n}, B={BLOCKS})",
        "",
        scale_note,
        "",
        "## Straight-phase flip kernel (one selected flip per row per iter)",
        "",
        "| backend | time/launch | device flips/s |",
        "|---|---|---|",
    ]

    reference = None
    for backend, reason in candidate_rows():
        if reason:
            lines.append(f"| {backend} | (unavailable — {reason}) | |")
            continue
        bench = StraightBench(model, backend)
        snap = bench.snapshot()
        if reference is None:
            reference = snap
        else:
            assert np.array_equal(snap[0], reference[0])
            assert np.array_equal(snap[1], reference[1])
        t = _best_time(bench.launch)
        lines.append(
            f"| {backend} | {t * 1e3:.1f} ms "
            f"| {bench.total_flips / t:,.0f} |"
        )

    lines += [
        "",
        "## Full batch-search launch (straight + greedy + MaxMin phases)",
        "",
        "Every fused launch — one device launch, one super-launch — is",
        "asserted bit-identical to the numpy-sparse stepwise reference —",
        "block solutions, RNG lanes, flip counts and tracker bests — before",
        "timing.  The cuda row includes phase-boundary staging",
        "(host→device upload, device→host download).",
        "",
        "| path | time/launch | flips/s |",
        "|---|---|---|",
    ]
    ref_bench = LaunchBench(model, "numpy-sparse", BLOCKS)
    total = ref_bench.assert_paths_bit_identical()
    stepwise_t = _best_time(lambda: ref_bench.launch(False))
    lines.append(
        f"| stepwise (numpy-sparse) | {stepwise_t * 1e3:.0f} ms "
        f"| {total / stepwise_t:,.0f} |"
    )
    for backend, reason in candidate_rows():
        if reason:
            lines.append(f"| fused ({backend}) | (unavailable — {reason}) | |")
            continue
        bench = LaunchBench(model, backend, BLOCKS)
        bench.assert_paths_bit_identical(ref_bench)
        t = _best_time(lambda: bench.launch(True))
        lines.append(
            f"| fused ({backend}) | {t * 1e3:.0f} ms | {total / t:,.0f} |"
        )

    lines += [
        "",
        "## Reproducing",
        "",
        "```sh",
        "# host baseline (no CUDA required)",
        "PYTHONPATH=src python benchmarks/bench_cuda_kernels.py",
        "",
        "# CUDA simulator (CI parity leg; small sizes, interpreter timings)",
        "NUMBA_ENABLE_CUDASIM=1 REPRO_CUDA_TPB=4 \\",
        "    PYTHONPATH=src python benchmarks/bench_cuda_kernels.py --smoke",
        "",
        "# real GPU (requires numba + a CUDA toolkit/driver)",
        "pip install -e '.[cuda]'",
        "PYTHONPATH=src python benchmarks/bench_cuda_kernels.py",
        "```",
    ]
    return "\n".join(lines)


def run_smoke() -> None:
    """CI gate: cross-backend bit-exact parity on a small instance.

    Parity is the whole gate — no speed floors, because the primary CI leg
    runs under the CUDA simulator where timings measure the interpreter.
    Without any usable cuda runtime the smoke degrades to a host-only
    parity check (and says so) rather than passing vacuously: the CI job
    that relies on this gate sets ``NUMBA_ENABLE_CUDASIM=1``, which makes
    ``cuda`` available, so a silent simulator misconfiguration still fails.
    """
    if SIMULATOR and not CudaBackend.is_available():
        raise SystemExit(
            "NUMBA_ENABLE_CUDASIM=1 is set but the cuda backend is "
            f"unavailable: {CudaBackend.unavailable_reason()}"
        )
    model = gset_sparse_model(n=48 if SIMULATOR else 256, seed=SEED)
    batch = 4
    ref_bench = LaunchBench(model, "numpy-sparse", batch)
    report = [f"instance: n={model.n}, B={batch}"]
    for backend, reason in candidate_rows():
        if reason:
            report.append(f"{backend}: unavailable — {reason}")
            continue
        bench = LaunchBench(model, backend, batch)
        total = bench.assert_paths_bit_identical(ref_bench)
        t = _best_time(lambda: bench.launch(True), rounds=1)
        report.append(
            f"{backend}: fused launch bit-identical to stepwise reference "
            f"({total} flips, {t * 1e3:.0f} ms)"
        )
    if not CudaBackend.is_available():
        report.append(
            "warning: cuda parity NOT exercised on this box — host-only run"
        )
    print("\n".join(report))
    print("bench smoke OK")


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        run_smoke()
    else:
        report = run_report()
        path = save_report(report, "bench_cuda_kernels")
        print(report)
        print(f"\nsaved to {path}")
