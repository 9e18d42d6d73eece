"""Virtual GPU: lockstep emulation of CUDA blocks running batch searches.

Substitution note (see DESIGN.md §1.2): the paper runs each batch search in
a CUDA block of up to 1024 threads with X and Δ in registers.  Here each
block is one row of ``(B, n)`` NumPy arrays and all blocks running the same
main search algorithm advance in lockstep; whole phases are executed by a
pluggable compute backend (:mod:`repro.backends`) — the straight/greedy
loops and fused main phases lowered from each algorithm's selection spec
(DESIGN.md §6).  Packets with different algorithms are grouped per launch
and each group runs its own lockstep sub-batch (lanes in different groups
cannot share a flip schedule, just as divergent warps serialize on real
hardware).

State that persists across launches, mirroring §III.B / Fig. 4 (2):

* per-block current solution vector ``X`` (initially the zero vector) —
  each batch search starts with a straight walk from the previous ``X``,
* per-(block, thread) xorshift64* RNG lanes, seeded once from the host
  Mersenne twister (§V).

Additionally, the device-side working buffers — one full-size
:class:`~repro.core.delta.BatchDeltaState` (with its backend kernel cache
and fused-phase scratch buffers), one tabu stamp array and one
:class:`~repro.search.batch.BestTracker` per GPU — persist across
launches, the analogue of device memory staying allocated between kernel
launches.  A lockstep group of any size runs on row-slice *views* of those
buffers (:meth:`~repro.core.delta.BatchDeltaState.row_view`), so memory
stays bounded at one ``(num_blocks, n)`` buffer set per GPU regardless of
how the adaptive selector partitions the packets.  A launch resets the
views in place from the persistent ``X`` rows, which is bit-identical to
building fresh state but skips the per-launch allocation and CSR
index-conversion churn.  Device backends ride the same lifetime: the cuda
backend stows its per-state device mirror in the persistent state's
``device`` slot (DESIGN.md §10), so the ``(B, n)`` device buffers are
allocated once per virtual GPU and reused across launches too.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.backends import fallback_backend, resolve_backend
from repro.backends.base import BackendFallbackWarning
from repro.resilience import chaos
from repro.resilience.chaos import ChaosError
from repro.core.delta import BatchDeltaState
from repro.core.packet import MainAlgorithm, PacketBatch
from repro.core.qubo import QUBOModel
from repro.core.rng import XorShift64Star, spawn_device_seeds
from repro.gpu.device import DeviceSpec
from repro.search import build_main_algorithms
from repro.search.batch import BatchSearchConfig, BestTracker, run_batch_search
from repro.search.tabu import TabuTracker

__all__ = ["VirtualGPU"]


class VirtualGPU:
    """One emulated GPU executing batch searches for its solution pool."""

    def __init__(
        self,
        model: QUBOModel,
        spec: DeviceSpec,
        config: BatchSearchConfig,
        algorithm_set: tuple[MainAlgorithm, ...],
        host_rng: np.random.Generator,
        backend=None,
        kernel=None,
        fused: bool = True,
        allow_fallback: bool = False,
    ) -> None:
        self.model = model
        self.spec = spec
        self.config = config
        self.backend = resolve_backend(backend, model)
        self.fused = fused
        # graceful degradation (DESIGN.md §11): when enabled, a backend
        # failure inside launch() swaps to the next available backend and
        # re-runs the launch instead of crashing the solve.  Off by
        # default so directly-constructed GPUs (parity tests) never mask
        # a backend bug; DABSSolver turns it on via config.
        self.allow_fallback = allow_fallback
        # mid-launch backend swaps performed so far (result annotation)
        self.backend_fallbacks = 0
        self.fallback_reasons: list[str] = []
        self.algorithms = build_main_algorithms(config, include=algorithm_set)
        n = model.n
        b = spec.num_blocks
        # persistent per-block current solutions (zero vectors initially)
        self.block_x = np.zeros((b, n), dtype=np.uint8)
        # persistent per-(block, thread) RNG lane states
        self.rng_state = spawn_device_seeds(host_rng, (b, n))
        self.total_flips = 0
        # completed launches on this device; free-running jobs key
        # launch-count-triggered policies (restarts, budgets) off this
        # instead of a global round index
        self.launch_count = 0
        # rows whose greedy polish ever hit the safety cap (float models)
        self.greedy_truncations = 0
        # launches in which at least one row truncated — one per emitted
        # GreedyTruncationWarning, aggregated into SolveResult stats
        self.truncation_events = 0
        # the persistent full-size device buffers; lockstep groups run on
        # row-slice views of them (kernel may be shared across GPUs)
        self._state = BatchDeltaState(
            model, batch=b, backend=self.backend, kernel=kernel
        )
        self._tabu = TabuTracker(b, n, config.tabu_period)
        self._tracker = BestTracker(self._state)
        self._views: dict[int, tuple[BatchDeltaState, TabuTracker, BestTracker]] = {}

    @property
    def num_blocks(self) -> int:
        """Lockstep lanes per launch."""
        return self.spec.num_blocks

    @property
    def kernel(self):
        """The backend's per-model kernel cache this device launches on.

        Shared with every other device of the same solver (and, through
        the service's problem cache, with cache-hit co-tenants) — its
        identity is one component of the pack-compatibility key
        (DESIGN.md §12).
        """
        return self._state.kernel

    def commit_packed(
        self,
        x: np.ndarray,
        rng_state: np.ndarray,
        flips_total: int,
        truncations: int,
    ) -> None:
        """Fold one coalesced super-launch segment back into this device.

        The pack/split counterpart of the persistence + counter block at
        the end of :meth:`_launch`: the executor ran this device's rows
        inside a merged super-batch and hands back the advanced solutions,
        RNG lanes and counters for the whole launch-equivalent segment.
        """
        np.copyto(self.block_x, x)
        np.copyto(self.rng_state, rng_state)
        self.greedy_truncations += truncations
        if truncations:
            self.truncation_events += 1
        self.total_flips += int(flips_total)
        self.launch_count += 1

    def _group_buffers(
        self, size: int
    ) -> tuple[BatchDeltaState, TabuTracker, BestTracker]:
        """The (state, tabu, tracker) views for a lockstep group of *size*."""
        if size == self.num_blocks:
            return self._state, self._tabu, self._tracker
        triple = self._views.get(size)
        if triple is None:
            triple = (
                self._state.row_view(size),
                self._tabu.row_view(size),
                self._tracker.row_view(size),
            )
            self._views[size] = triple
        return triple

    def launch(self, batch: PacketBatch) -> tuple[PacketBatch, np.ndarray]:
        """Run one batch search per packet; returns (result batch, flips).

        The result batch carries the best solution/energy each block found,
        with the algorithm/operation fields passed through untouched
        (§III.C) so the host can attribute the result.
        """
        if len(batch) != self.num_blocks:
            raise ValueError(
                f"expected {self.num_blocks} packets, got {len(batch)}"
            )
        if batch.n != self.model.n:
            raise ValueError(
                f"packet vectors have length {batch.n}, model has {self.model.n}"
            )
        try:
            return self._launch(batch)
        except Exception as exc:
            if not self._degrade(exc):
                raise
            # one re-run on the replacement backend; a second failure
            # propagates (the fallback chain is one link per launch)
            return self._launch(batch)

    def _launch(self, batch: PacketBatch) -> tuple[PacketBatch, np.ndarray]:
        if chaos.fire("backend_raise"):
            raise ChaosError(
                f"chaos: injected backend failure ({self.backend.name})"
            )
        out_vectors = np.empty_like(batch.vectors)
        out_energies = np.empty(len(batch), dtype=np.int64)
        flips = np.zeros(len(batch), dtype=np.int64)
        launch_truncations = 0
        for alg_enum, rows in batch.group_by_algorithm().items():
            algorithm = self.algorithms.get(alg_enum)
            if algorithm is None:
                raise ValueError(
                    f"{alg_enum!r} is not enabled on this device "
                    f"(enabled: {sorted(self.algorithms)})"
                )
            state, tabu, tracker = self._group_buffers(rows.size)
            state.reset(self.block_x[rows])
            lanes = XorShift64Star(self.rng_state[rows])
            tracker, group_flips = run_batch_search(
                state,
                batch.vectors[rows],
                algorithm,
                lanes,
                self.config,
                tabu=tabu,
                tracker=tracker,
                fused=self.fused,
            )
            out_vectors[rows] = tracker.best_x
            out_energies[rows] = tracker.best_energy
            flips[rows] = group_flips
            launch_truncations += int(tracker.greedy_truncated.sum())
            # persist device state for the next launch
            self.block_x[rows] = state.x
            self.rng_state[rows] = lanes.state
        self.greedy_truncations += launch_truncations
        if launch_truncations:
            self.truncation_events += 1
        self.total_flips += int(flips.sum())
        self.launch_count += 1
        return (
            PacketBatch(out_vectors, out_energies, batch.algorithms, batch.operations),
            flips,
        )

    def _degrade(self, exc: Exception) -> bool:
        """Swap to the next available backend after a launch failure.

        Rebuilds the persistent working buffers (delta state, tracker,
        row views) on the replacement kernels; the per-block solutions,
        RNG lanes and tabu stamps carry over untouched.  A lockstep group
        persists ``block_x``/``rng_state`` only after it completes, so
        the re-run starts every group from a consistent (if possibly
        advanced) device state — valid, though not bit-exact against a
        fault-free run.  Returns False (caller re-raises) when fallback
        is disabled or no backend qualifies.
        """
        if not self.allow_fallback:
            return False
        replacement = fallback_backend(self.backend, self.model)
        if replacement is None:
            return False
        reason = (
            f"backend {self.backend.name!r} failed mid-launch "
            f"({type(exc).__name__}: {exc}); degrading to "
            f"{replacement.name!r}"
        )
        warnings.warn(reason, BackendFallbackWarning, stacklevel=3)
        self.backend = replacement
        self._state = BatchDeltaState(
            self.model, batch=self.num_blocks, backend=replacement
        )
        self._tracker = BestTracker(self._state)
        self._views.clear()
        self.backend_fallbacks += 1
        self.fallback_reasons.append(reason)
        return True

    def reset(self) -> None:
        """Clear the persistent block solutions (RNG lanes keep advancing)."""
        self.block_x.fill(0)
