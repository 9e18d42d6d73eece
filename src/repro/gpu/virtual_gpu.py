"""Virtual GPU: emulated CUDA blocks running batch searches.

Substitution note (see DESIGN.md §1.2): the paper runs each batch search in
a CUDA block of up to 1024 threads with X and Δ in registers, and all of a
GPU's blocks as one kernel launch, whatever each block's main algorithm
(§III).  Here each block is one row of ``(B, n)`` NumPy arrays and whole
phases are executed by a pluggable compute backend (:mod:`repro.backends`)
— the straight/greedy loops and fused main phases lowered from each
algorithm's selection spec (DESIGN.md §6).  Every launch is the paper's one
kernel: a :class:`~repro.engine.coalesce.SuperLaunch` — one straight loop
over all rows and one mixed-algorithm main loop (DESIGN.md §12), on every
backend.  A device has a :attr:`~VirtualGPU.pack_key`; the engine runs the
launches of devices with equal keys as row ranges of one super-launch on
its lane, and :meth:`VirtualGPU.launch` is the standalone entry (tests and
benchmarks): a one-segment pack on the device's own buffers.  A device
holds only the built-in algorithms and integer models, the two things the
packed execution is proven bit-exact for.

State that persists across launches, mirroring §III.B / Fig. 4 (2):

* per-block current solution vector ``X`` (initially the zero vector) —
  each batch search starts with a straight walk from the previous ``X``,
* its Δ rows and energies, resident as a CUDA block keeps its Δ vector:
  a launch gathers them instead of recomputing them from ``X``, as long
  as ``X`` is still the vector they were computed for (DESIGN.md §12),
* per-(block, thread) xorshift64* RNG lanes, seeded once from the host
  Mersenne twister (§V).

The working buffers persist across launches too, the analogue of device
memory staying allocated between kernel launches: the merged
:class:`~repro.engine.coalesce.PackScratch` of the lane the launch runs
on (DESIGN.md §12), or the device's own for a standalone launch.  A
launch resets it in place from the persistent ``X`` rows, which is
bit-identical to building fresh state but skips the per-launch allocation
churn.  Device backends ride the same lifetime: the cuda backend stows its
per-state device mirror in the state's ``device`` slot (DESIGN.md §10).
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.backends import fallback_backend, pack_compatibility_key, resolve_backend
from repro.backends.base import BackendFallbackWarning
from repro.core.packet import MainAlgorithm, PacketBatch
from repro.core.qubo import QUBOModel
from repro.core.rng import spawn_device_seeds
from repro.engine.coalesce import PackSegment, SuperLaunch, run_pack
from repro.gpu.device import DeviceSpec
from repro.search import build_main_algorithms
from repro.search.batch import BatchSearchConfig

# perfbench/tracer.py times the stepwise oracle under this module's name
from repro.search.batch import run_batch_search  # noqa: F401

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
        allow_fallback: bool = False,
        pack_owner=None,
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
        #: when set, its identity joins the pack key: devices of different
        #: owners never pack, even over one kernel (a direct solver's
        #: devices share a model object's kernel with later solvers of it)
        self.pack_owner = pack_owner
        # graceful degradation (DESIGN.md §11): when enabled, a backend
        # failure inside a launch swaps to the next available backend and
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
        # resident (Δ rows, energies) of block_x and the bytes of the x
        # they belong to; a zero vector's Δ is the linear term, at energy 0
        self._resident = (
            np.broadcast_to(self.kernel.lin, self.block_x.shape),
            np.zeros(b, dtype=self.kernel.lin.dtype),
            self.block_x.tobytes(),
        )
        self.total_flips = 0
        # completed launches on this device; free-running jobs key
        # launch-count-triggered policies (restarts, budgets) off this
        # instead of a global round index
        self.launch_count = 0
        # rows whose greedy polish ever hit the safety cap
        self.greedy_truncations = 0
        # launches in which at least one row truncated — one per emitted
        # GreedyTruncationWarning, aggregated into SolveResult stats
        self.truncation_events = 0
        # a standalone launch's merged buffers (a PackScratch map keyed by
        # pack key), built by the first launch
        self._pack_scratch: dict = {}

    @property
    def num_blocks(self) -> int:
        """Lockstep lanes per launch."""
        return self.spec.num_blocks

    @property
    def pack_key(self):
        """The key under which this device's launches share one kernel.

        Devices with equal keys may ride one super-launch (DESIGN.md §12);
        see :func:`repro.backends.pack_compatibility_key`.
        """
        key = pack_compatibility_key(self.backend, self.kernel, self.model, self.config)
        return key if self.pack_owner is None else (*key, id(self.pack_owner))

    def resident_delta(self):
        """The resident ``(Δ rows, energies)`` of :attr:`block_x`, or None
        when there are none or ``block_x`` was written since they were
        computed (a launch then recomputes them from ``block_x``)."""
        resident = self._resident
        if resident is None or resident[2] != self.block_x.tobytes():
            return None
        return resident[:2]

    def commit_packed(
        self,
        x: np.ndarray,
        rng_state: np.ndarray,
        flips_total: int,
        truncations: int,
        cursors=(),
        resident=None,
    ) -> None:
        """Fold one finished super-launch segment back into this device.

        The executor ran this device's rows inside a merged super-batch
        and hands back the advanced solutions, the RNG lanes, CyclicMin
        cursors (``(algorithm, cursor)`` pairs), counters and the
        ``(Δ rows, energies)`` of the solutions for the whole
        launch-equivalent segment; every launch commits here once.  The
        solutions are copied into :attr:`block_x`; the device keeps the
        lanes and the *resident* rows as they are, so pass arrays no one
        else writes.  Without *resident*, the next launch recomputes them.
        """
        np.copyto(self.block_x, x)
        self._resident = None if resident is None else (*resident, x.tobytes())
        self.rng_state = rng_state
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
        (§III.C) so the host can attribute the result.  The launch is a
        one-segment pack on this device's own buffers under the engine's
        pack-fault rule: a backend failure degrades the device once (when
        fallback is enabled) and re-runs it; a second failure propagates.
        """
        pack = SuperLaunch([PackSegment(0, 0, self, batch, None)])
        ((_, done),) = run_pack(pack, self._pack_scratch)
        if isinstance(done, Exception):
            raise done
        return done.result, done.flips

    def _degrade(self, exc: Exception) -> bool:
        """Swap to the next available backend after a launch failure.

        Drops the device's own working buffers (the re-run builds them on
        the replacement kernels, under the new pack key) and its resident
        Δ rows (the re-run recomputes them); the per-block solutions and
        RNG lanes carry over untouched.  A launch commits
        nothing before it finishes, so the re-run starts from the device
        state the failed launch started from.  Returns False (the launch
        fails) when fallback is disabled or no backend qualifies.
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
        self._resident = None
        self.backend_fallbacks += 1
        self.fallback_reasons.append(reason)
        return True

    def reset(self) -> None:
        """Clear the persistent block solutions and their resident Δ rows
        (RNG lanes keep advancing)."""
        self.block_x.fill(0)
        self._resident = None
