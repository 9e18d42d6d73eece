"""Virtual GPU: emulated CUDA blocks running batch searches.

Substitution note (see DESIGN.md §1.2): the paper runs each batch search in
a CUDA block of up to 1024 threads with X and Δ in registers, and all of a
GPU's blocks as one kernel launch, whatever each block's main algorithm
(§III).  Here each block is one row of ``(B, n)`` NumPy arrays and whole
phases are executed by a pluggable compute backend (:mod:`repro.backends`)
— the straight/greedy loops and fused main phases lowered from each
algorithm's selection spec (DESIGN.md §6).  A launch takes one of two
paths:

* **one kernel** — a device with a :attr:`~VirtualGPU.pack_key` (integer
  model, ``numpy-dense`` or ``numpy-sparse`` backend, built-in
  algorithms only) runs its batch as a one-segment
  :class:`~repro.engine.coalesce.SuperLaunch`: one straight loop over all
  rows and one mixed-algorithm main loop (DESIGN.md §12).  It is
  bit-exact with the group loop by the pack contract.
* **group loop** — any other device (numba, cuda, custom algorithms)
  groups its packets per algorithm and runs one lockstep
  :func:`~repro.search.batch.run_batch_search` per group (lanes in
  different groups cannot share a flip schedule on these backends, just
  as divergent warps serialize on real hardware).

State that persists across launches, mirroring §III.B / Fig. 4 (2):

* per-block current solution vector ``X`` (initially the zero vector) —
  each batch search starts with a straight walk from the previous ``X``,
* per-(block, thread) xorshift64* RNG lanes, seeded once from the host
  Mersenne twister (§V).

The device-side working buffers persist across launches too, the analogue
of device memory staying allocated between kernel launches, and each
device holds one set, built by its first launch: the one-kernel path's
merged :class:`~repro.engine.coalesce.PackScratch`, or the group loop's
full-size :class:`~repro.core.delta.BatchDeltaState` (with its backend
scratch buffers), tabu stamp array and
:class:`~repro.search.batch.BestTracker`.  A lockstep group of any size
runs on row-slice *views* of the latter
(:meth:`~repro.core.delta.BatchDeltaState.row_view`), so memory stays
bounded at one ``(num_blocks, n)`` buffer set per GPU regardless of how
the adaptive selector partitions the packets.  A launch resets its
buffers in place from the persistent ``X`` rows, which is bit-identical
to building fresh state but skips the per-launch allocation churn.
Device backends ride the same lifetime: the cuda backend stows its
per-state device mirror in the group state's ``device`` slot (DESIGN.md
§10), so the ``(B, n)`` device buffers are allocated once per virtual GPU
and reused across launches too.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.backends import fallback_backend, pack_compatibility_key, resolve_backend
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
from repro.search.cyclicmin import CyclicMinSearch
from repro.search.maxmin import MaxMinSearch
from repro.search.positivemin import PositiveMinSearch
from repro.search.randommin import RandomMinSearch
from repro.search.tabu import TabuTracker
from repro.search.twoneighbor import TwoNeighborSearch

__all__ = ["VirtualGPU"]

#: the built-in algorithms whose packed wave execution is proven bit-exact;
#: a device carrying any other (subclassed) algorithm never packs
_PACKABLE_ALGORITHM_TYPES = (
    MaxMinSearch,
    CyclicMinSearch,
    RandomMinSearch,
    PositiveMinSearch,
    TwoNeighborSearch,
)


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
        allow_fallback: bool = False,
    ) -> None:
        self.model = model
        self.spec = spec
        self.config = config
        self.backend = resolve_backend(backend, model)
        #: the backend's per-model kernel cache this device launches on.
        #: Shared with every other device of the same solver (and, through
        #: the service's problem cache, with cache-hit co-tenants) — its
        #: identity is one component of the pack key (DESIGN.md §12).
        self.kernel = kernel if kernel is not None else self.backend.prepare(model)
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
        b = spec.num_blocks
        # persistent per-block current solutions (zero vectors initially)
        self.block_x = np.zeros((b, model.n), dtype=np.uint8)
        # persistent per-(block, thread) RNG lane states
        self.rng_state = spawn_device_seeds(host_rng, (b, model.n))
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
        # the one-kernel launch's merged buffers (a one-entry PackScratch
        # map), or the group loop's full-size (state, tabu, tracker) set
        # with its cached row-slice views; each built by the first launch
        self._pack_scratch: dict = {}
        self._groups: tuple[BatchDeltaState, TabuTracker, BestTracker] | None = None
        self._views: dict[int, tuple[BatchDeltaState, TabuTracker, BestTracker]] = {}

    @property
    def num_blocks(self) -> int:
        """Lockstep lanes per launch."""
        return self.spec.num_blocks

    @property
    def pack_key(self):
        """The key under which this device's launches share one kernel.

        ``None`` when the device takes the group loop: a non-builtin
        algorithm implementation, a non-packable backend or float
        arithmetic (see :func:`repro.backends.pack_compatibility_key`).
        Devices with equal keys may ride one super-launch (DESIGN.md §12).
        """
        for alg in self.algorithms.values():
            if type(alg) not in _PACKABLE_ALGORITHM_TYPES:
                return None
        return pack_compatibility_key(self.backend, self.kernel, self.model, self.config)

    def commit_packed(
        self,
        x: np.ndarray,
        rng_state: np.ndarray,
        flips_total: int,
        truncations: int,
        cursors=(),
    ) -> None:
        """Fold one coalesced super-launch segment back into this device.

        The executor ran this device's rows inside a merged super-batch
        and hands back the advanced solutions, RNG lanes, CyclicMin
        cursors (``(algorithm, cursor)`` pairs) and counters for the whole
        launch-equivalent segment.  This is the pack seam only: a device's
        own one-kernel :meth:`launch` commits through :meth:`_commit`, so
        each launch-equivalent passes exactly one of ``launch`` and
        ``commit_packed``.
        """
        self._commit(x, rng_state, flips_total, truncations, cursors)

    def _commit(self, x, rng_state, flips_total, truncations, cursors) -> None:
        """Adopt a finished segment's device state and count the launch."""
        np.copyto(self.block_x, x)
        np.copyto(self.rng_state, rng_state)
        for alg, cursor in cursors:
            self.algorithms[alg].import_cursor(cursor)
        self.greedy_truncations += truncations
        if truncations:
            self.truncation_events += 1
        self.total_flips += int(flips_total)
        self.launch_count += 1

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
        if self.pack_key is None:
            return self._launch_groups(batch)
        # the pack executor builds on this module
        from repro.engine.coalesce import PackSegment, SuperLaunch

        pack = SuperLaunch([PackSegment(0, 0, self, batch, None)])
        (done,) = pack.execute(self._pack_scratch)
        flips = done.flips
        self._commit(done.x, done.rng_state, int(flips.sum()), done.truncations, done.cursors)
        return done.result, flips

    def _launch_groups(self, batch: PacketBatch) -> tuple[PacketBatch, np.ndarray]:
        """The group loop: one lockstep batch search per algorithm group."""
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

    def _group_buffers(
        self, size: int
    ) -> tuple[BatchDeltaState, TabuTracker, BestTracker]:
        """The (state, tabu, tracker) views for a lockstep group of *size*."""
        if self._groups is None:
            state = BatchDeltaState(
                self.model, batch=self.num_blocks, backend=self.backend, kernel=self.kernel
            )
            tabu = TabuTracker(self.num_blocks, self.model.n, self.config.tabu_period)
            self._groups = (state, tabu, BestTracker(state))
        if size == self.num_blocks:
            return self._groups
        triple = self._views.get(size)
        if triple is None:
            state, tabu, tracker = self._groups
            triple = (state.row_view(size), tabu.row_view(size), tracker.row_view(size))
            self._views[size] = triple
        return triple

    def _degrade(self, exc: Exception) -> bool:
        """Swap to the next available backend after a launch failure.

        Drops the working buffers (they are rebuilt on the replacement
        kernels by the re-run); the per-block solutions and RNG lanes
        carry over untouched.  A one-kernel launch commits nothing before
        it finishes, and a group of the group loop persists
        ``block_x``/``rng_state`` only after it completes, so the re-run
        starts from a consistent (if possibly advanced) device state —
        valid, though not bit-exact against a fault-free run.  Returns
        False (caller re-raises) when fallback is disabled or no backend
        qualifies.
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
        self.kernel = replacement.prepare(self.model)
        self._pack_scratch.clear()
        self._groups = None
        self._views.clear()
        self.backend_fallbacks += 1
        self.fallback_reasons.append(reason)
        return True

    def reset(self) -> None:
        """Clear the persistent block solutions (RNG lanes keep advancing)."""
        self.block_x.fill(0)
