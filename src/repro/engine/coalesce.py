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

Every launch is a super-launch.  The service packs the launches queued
on one lane — a job's devices (a direct solve's too) and compatible
co-tenants (``SolveService._refill``); a lone launch is a one-segment
pack.  A device's standalone ``VirtualGPU.launch`` (tests, benchmarks)
runs a one-segment pack on the device's own buffers — the paper's one
kernel per launch, whatever each block's algorithm, on every backend.
Either way the pack runs through :func:`run_pack`, the one pack-fault
rule, and :meth:`SuperLaunch.run` commits each segment through
``VirtualGPU.commit_packed``, so each launch-equivalent passes one seam.

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
from itertools import groupby

import numpy as np

from repro.core.delta import BatchDeltaState
from repro.core.packet import MainAlgorithm, PacketBatch
from repro.core.rng import XorShift64Star
from repro.gpu.virtual_gpu import VirtualGPU
from repro.resilience import chaos
from repro.resilience.chaos import ChaosError
from repro.search.batch import BestTracker
from repro.search.tabu import TabuTracker

__all__ = [
    "PackScratch",
    "PackSegment",
    "SegmentResult",
    "SuperLaunch",
    "pack_key",
    "run_pack",
]

def pack_key(gpu):
    """The compatibility key under which *gpu*'s launches may coalesce.

    The device's own :attr:`~repro.gpu.virtual_gpu.VirtualGPU.pack_key`,
    and ``None`` for anything that is not a real
    :class:`~repro.gpu.virtual_gpu.VirtualGPU` (tests and benchmarks wrap
    devices in proxies; a proxy cannot honor the packed execution
    contract, so it launches alone on a lane of its own).
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
    """One segment's completed launch, split out of a super-launch: its
    result batch and per-row flip counts."""

    __slots__ = ("segment", "result", "flips")

    def __init__(self, segment, result, flips) -> None:
        self.segment = segment
        self.result = result
        self.flips = flips


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
    """Merged device buffers for one pack key's super-launches.

    Owned by the lane that executes packs (single-threaded; a standalone
    device owns its own), keyed by the devices' pack key and grown
    geometrically to the largest super-batch seen.  Row-window views over
    the merged state/tabu/best buffers are cached per span.
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

    Built by the service scheduler (every lane launch), by
    :func:`run_pack` re-planning a failed pack, and by a device's own
    standalone ``VirtualGPU.launch``; all of them run via :meth:`run`.
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

    def check(self) -> None:
        """Refuse a segment whose batch does not fit its device.

        :func:`run_pack` checks before it runs the pack, so a malformed
        batch raises as itself and is never taken for a backend fault.
        """
        for seg in self.segments:
            gpu, batch = seg.gpu, seg.batch
            if len(batch) != gpu.num_blocks:
                raise ValueError(f"expected {gpu.num_blocks} packets, got {len(batch)}")
            if batch.n != gpu.model.n:
                raise ValueError(
                    f"packet vectors have length {batch.n}, model has {gpu.model.n}"
                )

    def run(self, scratch_map: dict) -> list[SegmentResult]:
        """Execute every segment bit-exactly, split the completions and
        commit each one to its device.

        *scratch_map* holds the merged buffers (:class:`PackScratch`)
        keyed by pack key, grown to the largest pack seen.  Device state
        (solutions, RNG lanes, cursors, counters) is only committed once
        **all** cells finished — an exception anywhere leaves every
        device exactly as before the pack, so :func:`run_pack` can
        re-plan the segments.
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

        key = first.pack_key
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

        # harvest: split per segment, then commit each to its device
        by_segment: list[list[_Cell]] = [[] for _ in segments]
        for cell in cells:
            by_segment[cell.seg].append(cell)
        results, commits = [], []
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
            result = PacketBatch(out_vectors, out_energies, batch.algorithms, batch.operations)
            results.append(SegmentResult(seg, result, seg_flips))
            commits.append((gpu, new_x, new_rng, int(seg_flips.sum()), int(trunc.sum()), cursors))
        # every segment is harvested: only now does any device change
        for gpu, *advanced in commits:
            gpu.commit_packed(*advanced)
        return results


def run_pack(pack: SuperLaunch, scratch_map: dict, on_split=None, degraded=frozenset()):
    """Run *pack* under the one pack-fault rule (DESIGN.md §11).

    Returns one ``(segment, outcome)`` pair per segment: its
    :class:`SegmentResult`, or the exception that fails that segment
    alone.  A failed pack committed nothing, so its segments re-run
    bit-exactly.  The culprit of a one-segment pack is its segment.  A
    known culprit degrades to its fallback backend once per launch
    (*degraded* holds the segments that already did) and the segments
    re-plan by pack key; a culprit that cannot degrade fails alone.  An
    unknown culprit re-runs each segment as a one-segment pack.  Mates
    are never charged.  *on_split* is called once when *pack*, a pack of
    several segments, fails (its re-plans are not counted again).
    """
    pack.check()
    try:
        return [(res.segment, res) for res in pack.run(scratch_map)]
    except Exception as exc:
        segments = pack.segments
        if len(segments) > 1 and on_split is not None:
            on_split()
        culprit = segments[0] if len(segments) == 1 else pack.culprit
        outcomes = []
        if culprit is None:
            plans = [[seg] for seg in segments]
        else:
            if culprit in degraded or not culprit.gpu._degrade(exc):
                outcomes.append((culprit, exc))
                segments = [seg for seg in segments if seg is not culprit]
            else:
                degraded = degraded | {culprit}
            plans = [list(run) for _, run in groupby(segments, lambda s: s.gpu.pack_key)]
        for plan in plans:
            outcomes += run_pack(SuperLaunch(plan), scratch_map, None, degraded)
        return outcomes
