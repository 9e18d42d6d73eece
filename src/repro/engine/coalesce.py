"""Coalesced super-launches: continuous batching for co-tenant jobs.

The paper's throughput comes from bulk execution — many search states per
kernel launch.  The solve service undermines that for its own sweet-spot
workload: dozens of small co-tenant jobs over one cache-hit
:class:`~repro.backends.PreparedProblem` each launch their own
``VirtualGPU.launch``, paying the Python phase-loop overhead once *per
job* per round.  This module packs compatible queued launches row-wise
into one **super-launch**: the fused phase runners execute once over the
stacked ``(ΣB, n)`` batch, and completions are split back per job by row
segment (DESIGN.md §12).

Super-launches come from three places: the service packs the launches
queued on one lane — a packable job's devices (a direct solve's too)
and compatible co-tenants (``SolveService._refill``); a lane re-plans a
failed pack (``FleetWorkerGroup._run_pack``); and a packable device runs
each of its own solo launches as a one-segment super-launch
(``VirtualGPU.launch``) — the paper's one kernel per launch, whatever
each block's algorithm.  The first two commit through
``VirtualGPU.commit_packed`` (:meth:`SuperLaunch.run`); the device
commits its own segment, so each launch-equivalent passes one seam only.

Packing is bit-exact per job — including final RNG lane states, tabu
stamps carried into the next launch, and CyclicMin's persistent window
cursor — which is non-trivial because the batch-search *schedule* couples
rows: straight/greedy phases run data-dependent iteration counts, the
outer loop stops on a whole-group flip-budget test, and the tabu clock
advances by the group-wide phase length.  The executor therefore models
the pack as **cells** (one per segment × lockstep algorithm group, the
unit a solo launch would run) and drives them in waves:

* a per-row **vector tabu clock** (:meth:`TabuTracker.vectorize_clock`)
  replaces the scalar clock, with a per-cell fix-up after the
  data-dependent phases (a cell's clock advances by *its own* max flip
  count, exactly as the solo scalar clock would);
* straight runs once over all rows; greedy and main phases run over
  maximal contiguous spans of still-active cells — a finished cell is
  excluded from every later wave, so its rows are frozen at exactly the
  state the solo launch would leave;
* a main span mixes algorithms, as one DABS kernel launch runs every
  block whatever its algorithm: each same-algorithm run of cells is one
  row-range part of a single lockstep ``run_main_phase`` call (one flip
  and one fold per iteration for the whole span).  Selection is
  row-local, so this is bit-exact.  TwoNeighbor cells, whose traversal
  has its own length and closed-form kernel, keep spans of their own;
* the whole-group budget test is evaluated per cell, in the same
  schedule position as the solo loop.

Rows riding a wave longer than their own phase would have lasted are
harmless by construction: straight/greedy consume no RNG, inactive rows
take no flips and write no stamps, and ``BestTracker.fold`` is idempotent
on an unchanged row.  Nothing is committed back to any device until every
cell has finished, so a failed super-launch leaves all devices untouched
and its segments can simply be re-issued individually.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.delta import BatchDeltaState
from repro.core.packet import MainAlgorithm, PacketBatch
from repro.core.rng import XorShift64Star
from repro.gpu.virtual_gpu import VirtualGPU
from repro.resilience import chaos
from repro.resilience.chaos import ChaosError
from repro.search.batch import BestTracker
from repro.search.tabu import TabuTracker

__all__ = ["PackScratch", "PackSegment", "SegmentResult", "SuperLaunch", "pack_key"]

def pack_key(gpu):
    """The compatibility key under which *gpu*'s launches may coalesce.

    The device's own :attr:`~repro.gpu.virtual_gpu.VirtualGPU.pack_key`
    (``None`` for a non-builtin algorithm implementation, a non-packable
    backend or float arithmetic), and ``None`` for anything that is not
    a real :class:`~repro.gpu.virtual_gpu.VirtualGPU` (tests inject stub
    devices; a stub cannot honor the packed execution contract).
    """
    if not isinstance(gpu, VirtualGPU):
        return None
    return gpu.pack_key


class PackSegment:
    """One job's launch inside a super-launch (the pack/split unit)."""

    __slots__ = ("device_id", "seq", "gpu", "batch", "tag")

    def __init__(self, device_id, seq, gpu, batch, tag) -> None:
        self.device_id = device_id
        self.seq = seq
        self.gpu = gpu
        self.batch = batch
        self.tag = tag


class SegmentResult:
    """One segment's completed launch, split out of a super-launch.

    Besides the launch result it carries the segment's advanced device
    state — solutions ``x``, RNG lanes and CyclicMin ``cursors``
    (``(algorithm, cursor)`` pairs) — for the commit step.
    """

    __slots__ = (
        "segment",
        "result",
        "flips",
        "truncations",
        "x",
        "rng_state",
        "cursors",
    )

    def __init__(self, segment, result, flips, truncations, x, rng_state, cursors) -> None:
        self.segment = segment
        self.result = result
        self.flips = flips
        self.truncations = truncations
        self.x = x
        self.rng_state = rng_state
        self.cursors = cursors


class _Cell:
    """One lockstep (segment, algorithm) group: the solo-launch unit."""

    __slots__ = ("alg", "seg", "rows", "start", "stop", "done", "mains_done", "cursor_ready")

    def __init__(self, alg, seg, rows) -> None:
        self.alg = alg
        self.seg = seg
        self.rows = rows
        self.start = 0
        self.stop = 0
        self.done = False
        self.mains_done = 0
        self.cursor_ready = False

    @property
    def size(self) -> int:
        return self.rows.size


class PackScratch:
    """Merged device buffers for one lane's super-launches.

    Owned by the lane that executes packs (single-threaded), keyed by
    (backend, kernel, n, config) and grown geometrically to the largest
    super-batch seen.  Row-window views over the merged state/tabu/best
    buffers are cached per span, mirroring how a virtual GPU caches its
    lockstep-group views.
    """

    def __init__(self, model, backend, kernel, config, capacity: int) -> None:
        n = model.n
        self.capacity = capacity
        self.config = config
        self.state = BatchDeltaState(model, batch=capacity, backend=backend, kernel=kernel)
        self.tabu = TabuTracker(capacity, n, config.tabu_period)
        self.tabu.vectorize_clock()
        self.tracker = BestTracker(self.state)
        self.rng = np.empty((capacity, n), dtype=np.uint64)
        self.targets = np.empty((capacity, n), dtype=np.uint8)
        self.x_init = np.empty((capacity, n), dtype=np.uint8)
        self.cursor = np.empty(capacity, dtype=np.int64)
        #: the (start, stop) of the last span a phase ran on — when the
        #: next phase uses a different span, that facade's x-derived
        #: caches (e.g. the sparse backend's σ matrix) must be dropped
        self.last_span: tuple[int, int] | None = None
        self._windows: dict[tuple[int, int], tuple] = {}

    def window(self, start: int, stop: int):
        """Cached ``(state, tabu, tracker)`` views over rows [start, stop)."""
        key = (start, stop)
        triple = self._windows.get(key)
        if triple is None:
            triple = (
                self.state.row_window(start, stop),
                self.tabu.window(start, stop),
                self.tracker.window(start, stop),
            )
            self._windows[key] = triple
        return triple


def _spans(cells, key=None):
    """Maximal runs of consecutive not-done cells as (start, stop, cells).

    Cells are stored in merged-row order, so consecutive list entries are
    row-contiguous.  With *key* a run additionally holds cells of one
    single ``key(cell)`` value.
    """
    out = []
    i = 0
    count = len(cells)
    while i < count:
        if cells[i].done:
            i += 1
            continue
        j = i
        while (
            j + 1 < count
            and not cells[j + 1].done
            and (key is None or key(cells[j + 1]) == key(cells[i]))
        ):
            j += 1
        out.append((cells[i].start, cells[j].stop, cells[i : j + 1]))
        i = j + 1
    return out


def _is_twoneighbor(cell) -> bool:
    return cell.alg == MainAlgorithm.TWONEIGHBOR


class SuperLaunch:
    """A set of pack-compatible launches executed as one fused batch.

    Created by the service scheduler and by a lane re-planning a failed
    pack, both run via :meth:`run` on the lane, and by a packable
    device's own ``VirtualGPU.launch``, a one-segment pack it runs via
    :meth:`execute` and commits itself.
    Exposes the segments so a failed or wedged pack can be split back
    into individual launches, and :attr:`culprit` — the segment whose
    injected backend fault failed the pack, when known.
    """

    __slots__ = ("segments", "total_rows", "culprit")

    def __init__(self, segments: list[PackSegment]) -> None:
        if not segments:
            raise ValueError("a super-launch needs at least one segment")
        self.segments = list(segments)
        self.total_rows = sum(len(seg.batch) for seg in self.segments)
        self.culprit: PackSegment | None = None

    def gpus(self):
        """The distinct devices this pack runs (hang-poisoning checks)."""
        return {id(seg.gpu): seg.gpu for seg in self.segments}.values()

    def run(self, scratch_map: dict) -> list[SegmentResult]:
        """Execute every segment, then commit each one to its device.

        Device state (solutions, RNG lanes, cursors, counters) is only
        committed once **all** cells finished — an exception anywhere
        leaves every device exactly as before the pack, so the caller can
        re-issue the segments individually.
        """
        results = self.execute(scratch_map)
        for res in results:
            res.segment.gpu.commit_packed(
                res.x, res.rng_state, int(res.flips.sum()), res.truncations, res.cursors
            )
        return results

    def execute(self, scratch_map: dict) -> list[SegmentResult]:
        """Execute every segment bit-exactly and split the completions.

        Commits nothing: each result carries its segment's advanced device
        state for the caller's commit step.  *scratch_map* holds the
        merged buffers (:class:`PackScratch`) keyed by (backend, kernel,
        n, config), grown to the largest pack seen.
        """
        segments = self.segments
        first = segments[0].gpu
        backend = first.backend
        kernel = first.kernel
        model = first.model
        config = first.config
        n = model.n

        # chaos parity: a solo launch fires backend_raise once per launch
        self.culprit = None
        for seg in segments:
            if chaos.fire("backend_raise"):
                self.culprit = seg
                raise ChaosError(
                    f"chaos: injected backend failure ({seg.gpu.backend.name})"
                )

        cells: list[_Cell] = []
        for si, seg in enumerate(segments):
            if len(seg.batch) != seg.gpu.num_blocks:
                raise ValueError(
                    f"expected {seg.gpu.num_blocks} packets, got {len(seg.batch)}"
                )
            if seg.batch.n != n:
                raise ValueError(
                    f"packet vectors have length {seg.batch.n}, model has {n}"
                )
            for alg_enum, rows in seg.batch.group_by_algorithm().items():
                if alg_enum not in seg.gpu.algorithms:
                    raise ValueError(
                        f"{alg_enum!r} is not enabled on this device "
                        f"(enabled: {sorted(seg.gpu.algorithms)})"
                    )
                cells.append(_Cell(alg_enum, si, rows))
        # same-algorithm cells adjacent (one main part each), TwoNeighbor
        # (the last enum) after all others → maximal mixed main spans
        cells.sort(key=lambda c: (int(c.alg), c.seg))
        total = 0
        for cell in cells:
            cell.start = total
            total += cell.size
            cell.stop = total

        key = (id(backend), id(kernel), n, config)
        scratch = scratch_map.get(key)
        if scratch is None or scratch.capacity < total:
            grown = max(total, 2 * scratch.capacity if scratch is not None else 0)
            scratch = PackScratch(model, backend, kernel, config, grown)
            scratch_map[key] = scratch

        rng_block = scratch.rng
        for cell in cells:
            seg = segments[cell.seg]
            gpu = seg.gpu
            scratch.x_init[cell.start : cell.stop] = gpu.block_x[cell.rows]
            rng_block[cell.start : cell.stop] = gpu.rng_state[cell.rows]
            scratch.targets[cell.start : cell.stop] = seg.batch.vectors[cell.rows]

        state, tabu, tracker = scratch.window(0, total)
        state.reset(scratch.x_init[:total])
        scratch.last_span = (0, total)
        tabu.stamps.fill(-(config.tabu_period + 1))
        tabu.clock[...] = 0
        tracker.reset(state)
        tracker.fold(state)
        clock = scratch.tabu.clock

        def views(a, b):
            st, tb, tr = scratch.window(a, b)
            if scratch.last_span != (a, b):
                backend._invalidate_derived(st)
                scratch.last_span = (a, b)
            return st, tb, tr

        flips = np.zeros(total, dtype=np.int64)
        budget = config.batch_budget(n)
        main_iters = config.main_iterations(n)

        def fix_clock(span_cells, a, pre, f):
            # a cell's solo clock advances by *its* phase length — the max
            # per-row flip count, since straight/greedy flips are
            # consecutive from the phase start (rows never reactivate)
            for cell in span_cells:
                local = slice(cell.start - a, cell.stop - a)
                clock[cell.start : cell.stop] = pre[local] + int(
                    f[local].max(initial=0)
                )

        # straight phase: every cell at once (no cell finishes before it)
        st, tb, tr = views(0, total)
        pre = tb.clock.copy()
        f = backend.run_straight_phase(st, scratch.targets[:total], tb, tr)
        flips += f
        fix_clock(cells, 0, pre, f)

        while True:
            for a, b, span_cells in _spans(cells):
                st, tb, tr = views(a, b)
                pre = tb.clock.copy()
                f, truncated = backend.run_greedy_phase(st, tb, tr)
                tr.greedy_truncated |= truncated
                flips[a:b] += f
                fix_clock(span_cells, a, pre, f)
            for cell in cells:
                if cell.done:
                    continue
                if _is_twoneighbor(cell):
                    # TwoNeighbor runs exactly greedy → main → greedy
                    cell.done = cell.mains_done >= 1
                else:
                    cell.done = bool(
                        np.all(flips[cell.start : cell.stop] >= budget)
                    )
            if all(cell.done for cell in cells):
                break
            # one lockstep main phase per span: TwoNeighbor cells run their
            # 2n − 1 traversal, every other span mixes its algorithms, one
            # part per same-algorithm run of cells
            for a, b, span_cells in _spans(cells, key=_is_twoneighbor):
                st, tb, tr = views(a, b)
                first = span_cells[0]
                if _is_twoneighbor(first):
                    alg = segments[first.seg].gpu.algorithms[first.alg]
                    iterations = alg.num_iterations(n)
                else:
                    iterations = main_iters
                parts = []
                for lo, hi, run in _spans(span_cells, key=lambda c: c.alg):
                    alg_enum = run[0].alg
                    alg = segments[run[0].seg].gpu.algorithms[alg_enum]
                    spec = alg.lower(st, iterations)
                    if alg_enum == MainAlgorithm.CYCLICMIN:
                        # the window cursor is device-persistent per cell:
                        # seed each cell's merged slice from its own device
                        # instance on first use (committed back at harvest)
                        for cell in run:
                            if not cell.cursor_ready:
                                inst = segments[cell.seg].gpu.algorithms[alg_enum]
                                scratch.cursor[cell.start : cell.stop] = (
                                    inst.export_cursor(cell.size)
                                )
                                cell.cursor_ready = True
                        spec = replace(spec, cursor=scratch.cursor[lo:hi])
                    rng_w = XorShift64Star.view(rng_block[lo:hi])
                    parts.append((lo - a, hi - a, spec, rng_w))
                f = backend.run_main_phase(st, parts, iterations, None, tb, tr)
                flips[a:b] += f
                for cell in span_cells:
                    cell.mains_done += 1

        # harvest: split per segment (committed by the caller)
        by_segment: list[list[_Cell]] = [[] for _ in segments]
        for cell in cells:
            by_segment[cell.seg].append(cell)
        results = []
        for si, seg in enumerate(segments):
            batch = seg.batch
            gpu = seg.gpu
            out_vectors = np.empty_like(batch.vectors)
            out_energies = np.empty(len(batch), dtype=np.int64)
            seg_flips = np.zeros(len(batch), dtype=np.int64)
            trunc = np.zeros(len(batch), dtype=bool)
            new_x = np.empty_like(gpu.block_x)
            new_rng = np.empty_like(gpu.rng_state)
            cursors = []
            for cell in by_segment[si]:
                sl = slice(cell.start, cell.stop)
                out_vectors[cell.rows] = tracker.best_x[sl]
                out_energies[cell.rows] = tracker.best_energy[sl]
                seg_flips[cell.rows] = flips[sl]
                trunc[cell.rows] = tracker.greedy_truncated[sl]
                new_x[cell.rows] = state.x[sl]
                new_rng[cell.rows] = rng_block[sl]
                if cell.cursor_ready:
                    cursors.append((cell.alg, scratch.cursor[sl].copy()))
            results.append(
                SegmentResult(
                    seg,
                    PacketBatch(
                        out_vectors, out_energies, batch.algorithms, batch.operations
                    ),
                    seg_flips,
                    int(trunc.sum()),
                    new_x,
                    new_rng,
                    cursors,
                )
            )
        return results
