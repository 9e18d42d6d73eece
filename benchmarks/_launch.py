"""A full batch-search launch, timed two ways: the shared bench fixture.

:class:`LaunchBench` runs one launch of a batch whose rows all run one
algorithm either as a device launch — one super-launch over the fused
phase runners (DESIGN.md §6, §12) — or on the stepwise reference path
(``run_batch_search``), from the same start solutions, targets and RNG
lanes, and asserts the two bit-identical before anything is timed.
"""

from __future__ import annotations

import numpy as np

from repro.core.delta import BatchDeltaState
from repro.core.packet import MainAlgorithm, PacketBatch
from repro.core.rng import XorShift64Star, host_generator
from repro.gpu.device import DeviceSpec
from repro.gpu.virtual_gpu import VirtualGPU
from repro.search import build_main_algorithms
from repro.search.batch import BatchSearchConfig, BestTracker, run_batch_search
from repro.search.tabu import TabuTracker

#: what :meth:`LaunchBench.launch` returns, in order
LAUNCH_OBSERVABLES = ("best_x", "best_energy", "flips", "x", "rng lanes")


def start_vectors(model, batch: int, seed: int = 1) -> np.ndarray:
    """Random ``(batch, n)`` bit vectors (start solutions, targets)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(batch, model.n), dtype=np.uint8)


class LaunchBench:
    """One reusable launch setup (cached device buffers, fixed draws).

    The fused side is one ``VirtualGPU.launch`` of a batch whose rows all
    run *algorithm* — one super-launch over the fused phase runners; the
    stepwise side is ``run_batch_search`` on the same start, targets and
    RNG lanes.
    """

    def __init__(
        self, model, backend: str, batch: int, algorithm=MainAlgorithm.MAXMIN
    ) -> None:
        self.algorithm = algorithm
        self.config = BatchSearchConfig(batch_flip_factor=1.0)
        self.start = start_vectors(model, batch)
        self.packets = PacketBatch.void(
            start_vectors(model, batch, seed=5),
            np.full(batch, algorithm, dtype=np.uint8),
            np.zeros(batch, dtype=np.uint8),
        )
        self.gpu = VirtualGPU(
            model,
            DeviceSpec(num_blocks=batch),
            self.config,
            (algorithm,),
            host_generator(2),
            backend=backend,
        )
        self.lanes = self.gpu.rng_state.copy()
        self.state = BatchDeltaState(model, batch=batch, backend=backend)
        self.tabu = TabuTracker(batch, model.n, self.config.tabu_period)
        self.tracker = BestTracker(self.state)

    def launch(self, fused: bool):
        """``(best_x, best_energy, flips, x, rng lanes)`` of one launch."""
        if fused:
            gpu = self.gpu
            gpu.block_x[...] = self.start
            gpu.rng_state[...] = self.lanes
            out, flips = gpu.launch(self.packets)
            return out.vectors, out.energies, flips, gpu.block_x, gpu.rng_state
        self.state.reset(self.start)
        lanes = XorShift64Star(self.lanes.copy())
        tracker, flips = run_batch_search(
            self.state,
            self.packets.vectors,
            build_main_algorithms(self.config, include=(self.algorithm,))[self.algorithm],
            lanes,
            self.config,
            tabu=self.tabu,
            tracker=self.tracker,
        )
        return tracker.best_x, tracker.best_energy, flips, self.state.x, lanes.state

    def assert_paths_bit_identical(self, reference=None):
        """Assert this launch equals the stepwise one (of *reference*, a
        bench on another backend, if given); returns the total flips."""
        ref = [a.copy() for a in (reference or self).launch(False)]
        got = self.launch(True)
        for name, expected, actual in zip(LAUNCH_OBSERVABLES, ref, got):
            assert np.array_equal(actual, expected), (
                f"{self.gpu.backend.name} launch diverged from the stepwise "
                f"reference on {name}"
            )
        return int(ref[2].sum())
