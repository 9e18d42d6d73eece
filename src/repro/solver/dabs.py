"""The DABS solver (§V): multi-GPU orchestration of the diverse search.

The host owns one solution pool per virtual GPU, arranged on the island
ring (Fig. 2).  It generates one packet per CUDA block — the genetic
operation and main search algorithm chosen by the adaptive 5 %/95 % rule —
launches the GPUs, and folds the returned best solutions back into the
pools.

The whole data plane is columnar (DESIGN.md §5): strategy columns come
from one vectorized adaptive draw per batch, target vectors from one
group-wise generator pass, and collection folds each result batch into
its pool with one sort-merge — :class:`PacketBatch` is the only
interchange type; per-:class:`Packet` objects appear only on scalar
reference paths (``_generate_batch_scalar``, tests, examples).

Execution (DESIGN.md §3, §7): the solver's driver (:class:`_AsyncDriver`,
limits, §IV.B restarts, folds, result) is scheduled by a
:class:`~repro.service.SolveService` over a
:class:`~repro.engine.workers.FleetWorkerGroup` — one executor.  A direct
``solve()`` is a one-job service whose group is inline: the service's
:class:`~repro.engine.async_engine.VirtualTimeReplay` is stepped in the
calling thread, and each round's pack-compatible devices run as one
super-launch, up to ``DABSConfig.coalesce_max_rows`` rows, on buffers
the inline lane owns for that one solve.
``solve(service=SolveService(num_gpus))`` runs the solver over the
service's threaded lanes instead: free-running by default, where each
device keeps two launches in flight, completions fold into the pools
the moment they arrive, and each replacement batch is generated from
the pools *as of arrival* on a per-device RNG stream; or, with
``DABSConfig.virtual_time``, the same replay as the direct solve, which
makes the two bit-exact by construction.

The per-flip kernels below the solver are pluggable
(:mod:`repro.backends`); ``DABSConfig.backend`` selects one by name, with
``None``/"auto" deferring to the ``REPRO_BACKEND`` environment variable
and the coupling-density auto rule.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.backends import backend_names, fallback_backend, resolve_backend
from repro.backends.base import BackendFallbackWarning
from repro.core.packet import (
    VOID_ENERGY,
    GeneticOp,
    MainAlgorithm,
    Packet,
    PacketBatch,
)
from repro.core.qubo import QUBOModel
from repro.core.rng import host_generator
from repro.ga.adaptive import AdaptiveSelector, SelectionCounters
from repro.ga.island import IslandRing, StallTracker
from repro.ga.operations import OperationParams, TargetGenerator
from repro.ga.pool import SolutionPool
from repro.gpu.device import DeviceSpec
from repro.gpu.virtual_gpu import VirtualGPU
from repro.resilience import RetryPolicy
from repro.search.batch import BatchSearchConfig
from repro.solver.result import ImprovementEvent, SolveResult
from repro.solver.termination import SolveLimits

__all__ = ["DABSConfig", "DABSSolver"]


@dataclass(frozen=True)
class DABSConfig:
    """Configuration of a DABS solver instance (§V–§VI defaults)."""

    #: number of virtual GPUs = number of solution pools (paper: 8)
    num_gpus: int = 4
    #: CUDA-block lanes per virtual GPU (paper: 216 per A100)
    blocks_per_gpu: int = 16
    #: packets per solution pool (paper: 100)
    pool_capacity: int = 100
    #: batch-search tuning (flip factors s and b, tabu period 8)
    batch: BatchSearchConfig = field(default_factory=BatchSearchConfig)
    #: adaptive exploration probability (paper: "say, 5%")
    explore_probability: float = 0.05
    #: enabled main search algorithms
    algorithm_set: tuple[MainAlgorithm, ...] = tuple(MainAlgorithm)
    #: enabled genetic operations
    operation_set: tuple[GeneticOp, ...] = tuple(GeneticOp)
    #: probabilities/sizes of the stochastic genetic operations
    operations: OperationParams = field(default_factory=OperationParams)
    #: restart all pools after this many rounds without global improvement
    #: (§IV.B's merged-ring restart; free-running service jobs scale it
    #: to ``num_gpus ×`` launches); None disables
    restart_after_stall: int | None = None
    #: restart when every pool's mean pairwise Hamming diversity falls below
    #: this fraction of n (§IV.B's "all solutions are relatives" collapse
    #: signal, measured rather than inferred from stalling); None disables
    restart_on_collapse: float | None = None
    #: compute backend name ("auto", "numpy-dense", "numpy-sparse", "cuda"),
    #: each running every launch as one super-launch; None defers to the
    #: REPRO_BACKEND env var, then the auto density rule
    backend: str | None = None
    #: service jobs only: merge completions in (launch_seq, device) order —
    #: the virtual-time replay a direct solve() always runs inline, so the
    #: job is bit-exact with it — instead of free-running (the
    #: determinism/debug mode; throughput stays with virtual_time=False)
    virtual_time: bool = False
    #: supervised-lane recovery (DESIGN.md §11), armed by a SolveService
    #: built with this as its default config (a direct solve() is never
    #: supervised): retry faulted launches with capped backoff, respawn hung
    #: lanes, fail the job in isolation once the budget runs out; None
    #: (the default) keeps the fail-fast behavior
    retry_policy: RetryPolicy | None = None
    #: degrade to the next available compute backend (with a
    #: BackendFallbackWarning) when the chosen one fails at prepare or
    #: mid-launch, instead of crashing the solve
    backend_fallback: bool = True
    #: row budget of one super-launch (ΣB over its segments); packing is
    #: always on and bit-exact, but a launch joins a pack only while the
    #: row total stays within both its own and the pack head's budget.  A
    #: round packs consecutive devices greedily, at least one device per
    #: pack; ``blocks_per_gpu`` keeps every launch solo (DESIGN.md §12).
    coalesce_max_rows: int = 256

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        if self.blocks_per_gpu < 1:
            raise ValueError("blocks_per_gpu must be >= 1")
        if self.pool_capacity < 1:
            raise ValueError("pool_capacity must be >= 1")
        if not self.algorithm_set:
            raise ValueError("algorithm_set must be non-empty")
        if not self.operation_set:
            raise ValueError("operation_set must be non-empty")
        if self.restart_after_stall is not None and self.restart_after_stall < 1:
            raise ValueError("restart_after_stall must be >= 1 or None")
        if self.restart_on_collapse is not None and not (
            0.0 < self.restart_on_collapse < 1.0
        ):
            raise ValueError("restart_on_collapse must be in (0, 1) or None")
        if self.backend is not None and self.backend != "auto":
            known = backend_names()
            if self.backend not in known:
                raise ValueError(
                    f"unknown backend {self.backend!r} "
                    f"(known: auto, {', '.join(known)})"
                )
        if self.coalesce_max_rows < 1:
            raise ValueError("coalesce_max_rows must be >= 1")


class _RunState:
    """Mutable best/stats accumulator of one solve's driver.

    :meth:`fold` performs collection of one result batch — pool insertion
    plus global-best bookkeeping — so every schedule produces identical
    records for identical collection sequences.
    """

    __slots__ = (
        "best_energy",
        "best_vector",
        "first_found",
        "time_to_target",
        "history",
        "launches",
        "flips",
        "truncations",
        "truncation_events",
        "restarts",
    )

    def __init__(self, n: int) -> None:
        self.best_energy: int = VOID_ENERGY
        self.best_vector = np.zeros(n, dtype=np.uint8)
        self.first_found: tuple[MainAlgorithm, GeneticOp] | None = None
        self.time_to_target: float | None = None
        self.history: list[ImprovementEvent] = []
        self.launches = 0
        self.flips = 0
        self.truncations = 0
        self.truncation_events = 0
        self.restarts = 0

    def fold(
        self,
        batch: PacketBatch,
        pool: SolutionPool,
        round_index: int,
        start: float,
        limits: SolveLimits,
    ) -> bool:
        """Insert one result batch and update the global best.

        Returns True when the batch improved the global best energy.
        """
        pool.insert_batch(
            batch.vectors, batch.energies, batch.algorithms, batch.operations
        )
        winner = int(np.argmin(batch.energies))
        energy = int(batch.energies[winner])
        self.launches += 1
        if energy >= self.best_energy:
            return False
        self.best_energy = energy
        self.best_vector = batch.vectors[winner].copy()
        algorithm = MainAlgorithm(int(batch.algorithms[winner]))
        operation = GeneticOp(int(batch.operations[winner]))
        self.first_found = (algorithm, operation)
        now = time.perf_counter() - start
        self.history.append(
            ImprovementEvent(now, round_index, energy, algorithm, operation)
        )
        if self.time_to_target is None and limits.target_reached(energy):
            self.time_to_target = now
        return True


class _AsyncDriver:
    """Implements :class:`~repro.engine.async_engine.EngineDriver` for one
    DABS solve — all solver policy (generation streams, insertion, limit
    checks, §IV.B restarts, result assembly) lives here, once; the
    service only schedules.  *virtual_time* picks the schedule: the job's
    ``DABSConfig.virtual_time``, always on for a direct ``solve()``.
    """

    def __init__(
        self,
        solver: "DABSSolver",
        limits: SolveLimits,
        start: float,
        *,
        virtual_time: bool = False,
    ):
        self.solver = solver
        self.limits = limits
        self.start = start
        cfg = solver.config
        self.num_devices = cfg.num_gpus
        self.virtual_time = virtual_time
        self.state = _RunState(solver.model.n)
        self._submitted = [0] * cfg.num_gpus
        self._completed = [0] * cfg.num_gpus
        self._fallback_snap = solver._fallback_snapshot()
        self._rounds = 0
        self._round_improved = False
        self._halted = False
        if virtual_time:
            # the replay counts whole rounds, the threshold's native unit
            self._stall = StallTracker(cfg.restart_after_stall)
            self._device_rngs = None
        else:
            # free-running restarts are counted in launches; scale the
            # round-denominated threshold by THIS solver's device count
            # (a federation island scales by its own shard, keeping the
            # per-island restart cadence calibrated — see StallTracker)
            self._stall = StallTracker.scaled(
                cfg.restart_after_stall, cfg.num_gpus
            )
            # one deterministic generation stream per device, derived from
            # the host generator — a device's draws no longer depend on
            # when its neighbours finish
            self._device_rngs = [
                host_generator(int(solver._host_rng.integers(2**63)))
                for _ in range(cfg.num_gpus)
            ]

    # -- free-running hooks ------------------------------------------------
    def can_submit(self, device_id: int) -> bool:
        """True while device *device_id* may be handed another batch —
        the budget checks of :meth:`next_batch` without the generation
        side effects (the service scheduler peeks before committing a
        fleet lane to this job)."""
        return not (
            self._halted
            or self.limits.device_launch_budget(self._submitted[device_id])
            or self.limits.out_of_launches(sum(self._submitted))
        )

    def next_batch(self, device_id: int) -> PacketBatch | None:
        if not self.can_submit(device_id):
            return None
        batch = self.solver._generate_batch(
            device_id, rng=self._device_rngs[device_id]
        )
        self.solver.counters.record_batch(batch.algorithms, batch.operations)
        self._submitted[device_id] += 1
        return batch

    def collect(self, completion) -> str:
        state = self.state
        improved = self._fold(completion)
        if self._halted:
            # draining after a stop: in-flight results still land in the
            # pools, but the run's policy (limits, restarts) is over
            return "continue"
        if self.limits.target_reached(state.best_energy):
            return "stop"
        if self.limits.out_of_time(time.perf_counter() - self.start):
            return "stop"
        if self.limits.out_of_launches(state.launches):
            return "stop"
        if self._restart_due(improved):
            self._do_restart()
            return "restart"
        return "continue"

    def idle(self) -> str:
        if self.limits.out_of_time(time.perf_counter() - self.start):
            return "stop"
        return "continue"

    def halt(self) -> None:
        self._halted = True

    # -- virtual-time hooks ------------------------------------------------
    def generate_round(self) -> list[PacketBatch]:
        return self.solver._generate_round()

    def record_round(self, batches: list[PacketBatch]) -> None:
        self.solver._record_counters(batches)

    def wants_round(self, round_index: int) -> bool:
        completed = round_index - 1
        return not (
            self.limits.out_of_rounds(completed)
            or self.limits.out_of_launches(completed * self.num_devices)
        )

    def collect_ordered(self, completion) -> None:
        improved = self._fold(completion)
        self._round_improved = self._round_improved or improved

    def finish_round(self, round_index: int) -> str:
        state = self.state
        self._rounds = round_index
        improved = self._round_improved
        self._round_improved = False
        elapsed = time.perf_counter() - self.start
        if (
            self.limits.target_reached(state.best_energy)
            or self.limits.out_of_time(elapsed)
            or self.limits.out_of_rounds(round_index)
            or self.limits.out_of_launches(round_index * self.num_devices)
        ):
            return "stop"
        if self._restart_due(improved):
            self._do_restart()
            return "restart"
        return "continue"

    # -- §IV.B restart policy (shared by both schedules) -------------------
    def _restart_due(self, improved: bool) -> bool:
        solver = self.solver
        cfg = solver.config
        stalled = self._stall.update(improved)
        collapsed = cfg.restart_on_collapse is not None and solver.ring.collapsed(
            cfg.restart_on_collapse * solver.model.n
        )
        return stalled or collapsed

    def _do_restart(self) -> None:
        self.solver.ring.reinitialize(self.solver._host_rng)
        self._stall.reset()
        self.state.restarts += 1

    # -- result assembly ---------------------------------------------------
    def _fold(self, completion) -> bool:
        """Absorb one completion's stats and fold its batch into the
        device's pool; True when it improved the global best."""
        state = self.state
        self._completed[completion.device_id] += 1
        state.flips += int(completion.flips.sum())
        state.truncations += completion.truncations
        state.truncation_events += completion.truncation_events
        return state.fold(
            completion.batch,
            self.solver.pools[completion.device_id],
            completion.seq,
            self.start,
            self.limits,
        )

    def result(self) -> SolveResult:
        state = self.state
        rounds = (
            self._rounds if self.virtual_time else max(self._completed, default=0)
        )
        degraded_reasons = self.solver._degradation_since(self._fallback_snap)
        return SolveResult(
            best_vector=state.best_vector,
            best_energy=int(state.best_energy),
            reached_target=self.limits.target_reached(state.best_energy),
            time_to_target=state.time_to_target,
            elapsed=time.perf_counter() - self.start,
            rounds=rounds,
            total_flips=state.flips,
            counters=self.solver.counters,
            first_found=state.first_found,
            history=state.history,
            restarts=state.restarts,
            launches=state.launches,
            greedy_truncations=state.truncations,
            greedy_truncation_warnings=state.truncation_events,
            degraded=bool(degraded_reasons),
            degraded_reasons=degraded_reasons,
        )


class DABSSolver:
    """Diverse Adaptive Bulk Search over one QUBO model."""

    def __init__(
        self,
        model: QUBOModel,
        config: DABSConfig | None = None,
        seed: int | None = None,
        prepared=None,
    ) -> None:
        self.model = model
        self.config = config or DABSConfig()
        self.seed = seed
        self._host_rng = host_generator(seed)
        cfg = self.config
        self.pools = [
            SolutionPool(
                cfg.pool_capacity,
                model.n,
                self._host_rng,
                algorithm_set=cfg.algorithm_set,
                operation_set=cfg.operation_set,
            )
            for _ in range(cfg.num_gpus)
        ]
        self.ring = IslandRing(self.pools)
        # resolve the backend and build its per-model kernel cache once;
        # every virtual GPU shares the read-only cache.  A PreparedProblem
        # handle (repro.backends.prepare_problem / the service's
        # ProblemCache) skips preparation entirely: the backend-resident
        # matrices are reused across solvers of the same instance.
        self._prepare_fallback_reasons: tuple[str, ...] = ()
        if prepared is not None:
            if not prepared.matches(model):
                raise ValueError(
                    f"prepared handle is for model "
                    f"{prepared.model.name!r} ({prepared.model.n} vars), "
                    f"not {model.name!r} ({model.n} vars)"
                )
            backend = prepared.backend
            kernel = prepared.kernel
        else:
            backend = resolve_backend(cfg.backend, model)
            try:
                kernel = backend.prepare(model)
            except Exception as exc:
                replacement = (
                    fallback_backend(backend, model)
                    if cfg.backend_fallback
                    else None
                )
                if replacement is None:
                    raise
                reason = (
                    f"backend {backend.name!r} failed to prepare "
                    f"{model.name!r} ({type(exc).__name__}: {exc}); "
                    f"degrading to {replacement.name!r}"
                )
                warnings.warn(reason, BackendFallbackWarning, stacklevel=2)
                self._prepare_fallback_reasons = (reason,)
                backend = replacement
                kernel = backend.prepare(model)
        self.gpus = [
            VirtualGPU(
                model,
                DeviceSpec(num_blocks=cfg.blocks_per_gpu, name=f"vgpu{i}"),
                cfg.batch,
                cfg.algorithm_set,
                self._host_rng,
                backend=backend,
                kernel=kernel,
                allow_fallback=cfg.backend_fallback,
            )
            for i in range(cfg.num_gpus)
        ]
        self.selector = AdaptiveSelector(
            cfg.algorithm_set, cfg.operation_set, cfg.explore_probability
        )
        self.generator = self._make_generator()
        self.counters = SelectionCounters()

    # -- degradation bookkeeping ------------------------------------------------
    def _fallback_snapshot(self) -> list[int]:
        """Per-GPU fallback-reason counts at a solve's start, so each
        solve reports only the degradations it experienced itself.
        (``getattr``: tests substitute stub GPUs without the counters.)"""
        return [
            len(getattr(gpu, "fallback_reasons", ())) for gpu in self.gpus
        ]

    def _degradation_since(self, snapshot: list[int]) -> tuple[str, ...]:
        """Prepare-time reasons plus every mid-launch fallback since
        *snapshot* — what a result's ``degraded_reasons`` carries."""
        reasons = list(self._prepare_fallback_reasons)
        for gpu, base in zip(self.gpus, snapshot):
            reasons.extend(getattr(gpu, "fallback_reasons", ())[base:])
        return tuple(reasons)

    # -- extension points ------------------------------------------------------
    def _make_generator(self) -> TargetGenerator:
        """Target-vector generator; ABS overrides this (§I.B)."""
        return TargetGenerator(self.model.n, self.config.operations)

    def _choose_strategy(
        self, pool: SolutionPool
    ) -> tuple[MainAlgorithm, GeneticOp]:
        """Pick (algorithm, operation) for one packet (scalar reference
        path); ABS overrides this."""
        alg = self.selector.select_algorithm(pool, self._host_rng)
        op = self.selector.select_operation(pool, self._host_rng)
        return alg, op

    def _choose_strategies(
        self, pool: SolutionPool, count: int, rng: np.random.Generator | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Strategy columns for a whole batch in one draw; ABS overrides
        this with constant columns.  *rng* defaults to the shared host
        generator; a free-running service job passes a per-device stream."""
        rng = self._host_rng if rng is None else rng
        return self.selector.select_batch(pool, rng, count)

    # -- packet generation -------------------------------------------------------
    def _generate_batch(
        self, gpu_index: int, rng: np.random.Generator | None = None
    ) -> PacketBatch:
        """One columnar batch for GPU *gpu_index* — no Packet objects.

        Strategy columns come from one vectorized adaptive draw; target
        vectors from one group-wise generator pass (DESIGN.md §5 fixes the
        RNG draw order).  *rng* defaults to the shared host generator
        (round schedule); a free-running service job passes the device's
        own stream and reads the pools as of arrival.
        """
        rng = self._host_rng if rng is None else rng
        pool = self.pools[gpu_index]
        neighbor = self.ring.neighbor_of(gpu_index)
        algorithms, operations = self._choose_strategies(
            pool, self.config.blocks_per_gpu, rng
        )
        vectors = self.generator.generate_batch(
            operations, pool, neighbor, rng
        )
        return PacketBatch.void(vectors, algorithms, operations)

    def _generate_batch_scalar(self, gpu_index: int) -> PacketBatch:
        """Per-packet reference generation, kept for batch-vs-scalar
        equivalence checks; the solve loop never calls it."""
        pool = self.pools[gpu_index]
        neighbor = self.ring.neighbor_of(gpu_index)
        packets = []
        for _ in range(self.config.blocks_per_gpu):
            alg, op = self._choose_strategy(pool)
            vector = self.generator.generate(op, pool, neighbor, self._host_rng)
            packets.append(Packet(vector, VOID_ENERGY, alg, op))
        return PacketBatch.from_packets(packets)

    def _generate_round(self) -> list[PacketBatch]:
        """One packet batch per GPU (host work; may overlap device work)."""
        return [self._generate_batch(i) for i in range(self.config.num_gpus)]

    def _record_counters(self, batches: list[PacketBatch]) -> None:
        """Count strategy selections of a round actually submitted.

        Recording happens at submission, not generation, because the
        replay speculatively generates one round beyond the last launch.
        One ``np.bincount`` per column over the round's concatenated
        strategy columns — no per-packet loop.
        """
        self.counters.record_batch(
            np.concatenate([batch.algorithms for batch in batches]),
            np.concatenate([batch.operations for batch in batches]),
        )

    # -- main loop ----------------------------------------------------------------
    def solve(
        self,
        target_energy: int | None = None,
        time_limit: float | None = None,
        max_rounds: int | None = None,
        max_launches: int | None = None,
        service=None,
    ) -> SolveResult:
        """Run until a limit fires; see :class:`SolveLimits` for semantics.

        The solver — pools, RNG state, per-device solutions and RNG
        lanes — runs as one job of a :class:`~repro.service.SolveService`,
        whose lanes own the launches' working buffers.  Without *service*
        it is a private one-job service stepped in the calling thread (no
        thread is started; always the virtual-time replay; a launch's
        exception is raised as it is).  With *service* the job runs
        alongside the service's other work — the barrier-free path:
        free-running by default, or with ``config.virtual_time`` the same
        replay as a direct ``solve()``, hence bit-exact with it.
        """
        if service is None:
            from repro.service.service import _solve_inline

            limits = SolveLimits(target_energy, time_limit, max_rounds, max_launches)
            return _solve_inline(self, limits)
        handle = service.submit_solver(
            self,
            target_energy=target_energy,
            time_limit=time_limit,
            max_rounds=max_rounds,
            max_launches=max_launches,
        )
        return handle.result()
