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
unit a solo launch would run; held as arrays from one stable sort of the
pack's rows) and drives them in waves:

* a per-row **vector tabu clock** (:meth:`TabuTracker.vectorize_clock`)
  replaces the scalar clock, with a fix-up after the data-dependent
  phases (a cell's clock advances by *its own* max flip count, exactly as
  the solo scalar clock would: one grouped max per span);
* straight runs once over all rows; greedy and main phases run over
  maximal contiguous spans of still-active cells — a finished cell is
  excluded from every later wave, so its rows are frozen at exactly the
  state the solo launch would leave;
* a main span mixes algorithms, as one DABS kernel launch runs every
  block whatever its algorithm: each same-algorithm run of cells is one
  row-range part of a single lockstep ``run_main_phase`` call (one flip
  and one fold per iteration for the whole span).  Selection is
  row-local, so this is bit-exact.  TwoNeighbor cells, whose traversal
  runs ``2n − 1`` steps rather than ``main_iterations(n)``, keep spans of
  their own;
* the whole-group budget test is evaluated per cell (one grouped min per
  wave), in the same schedule position as the solo loop.

The waves are :meth:`ComputeBackend.run_search`'s default body, over
the pack's :class:`PackCells`; a backend may run the same per-cell
schedule otherwise (``native`` runs each cell to its end in one C call,
which is bit-identical because no wave couples two cells).

Rows riding a wave longer than their own phase would have lasted are
harmless by construction: straight/greedy consume no RNG, inactive rows
take no flips and write no stamps, and ``BestTracker.fold`` is idempotent
on an unchanged row.  Nothing is committed back to any device until every
cell has finished, so a failed super-launch leaves all devices untouched
and its segments can simply be re-issued individually.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from itertools import groupby

import numpy as np

from repro.core.delta import BatchDeltaState
from repro.core.packet import MainAlgorithm, PacketBatch
from repro.core.rng import XorShift64Star
from repro.resilience import chaos
from repro.resilience.chaos import ChaosError
from repro.search.batch import BestTracker
from repro.search.tabu import TabuTracker

__all__ = [
    "PackScratch",
    "PackSegment",
    "SegmentResult",
    "SuperLaunch",
    "run_pack",
]


_TWONEIGHBOR = int(MainAlgorithm.TWONEIGHBOR)


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


class PackScratch:
    """Merged device buffers for one pack key's super-launches.

    Owned by the lane that executes packs (single-threaded; a standalone
    device owns its own), keyed by the devices' pack key and grown
    geometrically to the largest super-batch seen.  Row-window views over
    the merged state/tabu/best buffers are cached per span, the
    :data:`MAX_WINDOWS` most recently used ones, never evicting one the
    running pack has used: a window owns its backend's per-span data (the
    NumPy phases' scratch rows, the native backend's checked call
    arguments), and a long-lived lane sees a new set of spans with every
    pack composition.
    """

    #: row windows kept across packs (a pack keeps all of its own); one
    #: pack used at most 9 on g22_direct and 26 on a stream_shared-like
    #: load (16 jobs in flight on 2 lanes, 240 packs)
    MAX_WINDOWS = 64

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
        self.cursor = np.empty(capacity, dtype=np.int64)
        #: the (start, stop) of the last span a phase ran on — when the
        #: next phase uses a different span, that facade's x-derived
        #: caches (e.g. the sparse backend's σ matrix) must be dropped
        self.last_span: tuple[int, int] | None = None
        #: (start, stop) → (pack, window), least recently used first
        self._windows: OrderedDict[tuple[int, int], tuple] = OrderedDict()
        self._pack = 0

    def begin_pack(self) -> None:
        """Mark the start of a pack: later windows are that pack's."""
        self._pack += 1

    def window(self, start: int, stop: int):
        """Cached ``(state, tabu, tracker)`` views over rows [start, stop)."""
        key = (start, stop)
        windows = self._windows
        entry = windows.get(key)
        if entry is not None:
            windows.move_to_end(key)
            windows[key] = (self._pack, entry[1])
            return entry[1]
        triple = (
            self.state.row_window(start, stop),
            self.tabu.window(start, stop),
            self.tracker.window(start, stop),
        )
        windows[key] = (self._pack, triple)
        while len(windows) > self.MAX_WINDOWS and next(iter(windows.values()))[0] != self._pack:
            windows.popitem(last=False)
        return triple


class PackCells:
    """A pack's cells over the merged rows of its :class:`PackScratch`:
    what :meth:`ComputeBackend.run_search` runs.

    A cell is one segment × one algorithm group, the rows a solo launch
    runs in lockstep; cells are in merged-row order, same-algorithm cells
    next to each other and TwoNeighbor ones last.  ``specs[i]`` is cell
    *i*'s lowered selection rule at its main-phase length
    ``iterations[i]`` (:meth:`BatchSearchConfig.main_iterations`, or the
    traversal's 2n − 1); ``lanes`` and ``cursor`` are the merged RNG lanes
    and CyclicMin cursors the main phases advance.
    """

    __slots__ = (
        "scratch", "total", "starts", "stops", "alg", "two", "iterations",
        "specs", "targets", "lanes", "cursor", "_edges",
    )

    def __init__(self, scratch, starts, stops, alg, iterations, specs) -> None:
        self.scratch = scratch
        self.total = total = stops[-1]
        self.starts, self.stops, self.alg = np.array(starts), np.array(stops), np.array(alg)
        self.two = self.alg == _TWONEIGHBOR
        self.iterations, self.specs = iterations, specs
        self.targets = scratch.targets[:total]
        self.lanes = scratch.rng[:total]
        self.cursor = scratch.cursor[:total]
        #: the cells where a same-algorithm run starts (main-phase parts)
        self._edges = [c for c in range(1, len(alg)) if alg[c] != alg[c - 1]]

    def views(self, a: int, b: int):
        """The (state, tabu, tracker) over merged rows [a, b); the state's
        x-derived caches drop when the span differs from the last one."""
        scratch = self.scratch
        st, tb, tr = scratch.window(a, b)
        if scratch.last_span != (a, b):
            st.backend._invalidate_derived(st)
            scratch.last_span = (a, b)
        return st, tb, tr

    def main_parts(self, state, i: int, j: int):
        """(iterations, parts) of one main phase over cells [i, j): one
        row-range part per same-algorithm run, at the first cell's spec."""
        starts, stops = self.starts, self.stops
        a = int(starts[i])
        bounds = [i, *(c for c in self._edges if i < c < j), j]
        parts = []
        for p, q in zip(bounds, bounds[1:]):
            lo, hi = int(starts[p]), int(stops[q - 1])
            spec = self.specs[p]
            if self.alg[p] == MainAlgorithm.CYCLICMIN:
                spec = replace(spec, cursor=self.cursor[lo:hi])
            parts.append((lo - a, hi - a, spec, XorShift64Star.view(self.lanes[lo:hi])))
        return self.iterations[i], parts


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

        The cells (:class:`PackCells`) are arrays indexed by cell, and
        the backend runs their whole search in one
        :meth:`~repro.backends.base.ComputeBackend.run_search` call.
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

        # cells: one stable sort of the rows by (algorithm, segment) puts
        # same-algorithm cells next to each other (one main part each) and
        # TwoNeighbor (the last enum) after all others → maximal mixed
        # main spans.  A pack is a few dozen rows, which Python lists sort
        # and scan in less time than the NumPy calls would take.  Pack row
        # r (the segments' rows in turn) is merged row position[r].
        count = len(segments)
        keys, offsets = [], [0]
        for si, seg in enumerate(segments):
            keys += [alg * count + si for alg in seg.batch.algorithms.tolist()]
            offsets.append(len(keys))
        total = len(keys)
        position = [0] * total
        cell_start, cell_key, last = [], [], -1
        for m, row in enumerate(sorted(range(total), key=keys.__getitem__)):
            position[row] = m
            if keys[row] != last:
                last = keys[row]
                cell_start.append(m)
                cell_key.append(last)
        cell_stop = [*cell_start[1:], total]
        cell_alg = [key // count for key in cell_key]
        cell_seg = [key % count for key in cell_key]
        refused = [
            (si, alg)
            for alg, si in zip(cell_alg, cell_seg)
            if alg not in segments[si].gpu.algorithms
        ]
        if refused:
            si, alg = min(refused)
            raise ValueError(
                f"{MainAlgorithm(alg)!r} is not enabled on this device "
                f"(enabled: {sorted(segments[si].gpu.algorithms)})"
            )
        position = np.array(position)

        key = first.pack_key
        scratch = scratch_map.get(key)
        if scratch is None or scratch.capacity < total:
            grown = max(total, 2 * scratch.capacity if scratch is not None else 0)
            scratch = PackScratch(model, backend, kernel, config, grown)
            scratch_map[key] = scratch
        scratch.begin_pack()

        # prologue: one gather per segment; the CyclicMin window cursor is
        # device-persistent per cell, so each cell's merged slice starts
        # from its own device instance (committed back at harvest if the
        # cell ran a main phase)
        cyclic = {}
        for ci, (alg, si) in enumerate(zip(cell_alg, cell_seg)):
            if alg == MainAlgorithm.CYCLICMIN:
                lo, hi = cell_start[ci], cell_stop[ci]
                inst = segments[si].gpu.algorithms[alg]
                scratch.cursor[lo:hi] = inst.export_cursor(hi - lo)
                cyclic[si] = ci
        state, _, tracker = scratch.window(0, total)
        stale = False
        for seg, a, b in zip(segments, offsets, offsets[1:]):
            gpu, rows = seg.gpu, position[a:b]
            state.x[rows] = gpu.block_x
            scratch.rng[rows] = gpu.rng_state
            scratch.targets[rows] = seg.batch.vectors
            resident = gpu.resident_delta()
            if resident is None:
                stale = True
            else:
                state.delta[rows], state.energy[rows] = resident
        # the devices' resident Δ rows stand for a reset from x; a device
        # without them has every row recomputed
        if stale:
            state.reset(state.x)
        else:
            backend._invalidate_derived(state)
        scratch.last_span = (0, total)

        # each cell's selection rule, lowered by its own device's instance
        # at its main-phase length (a TwoNeighbor cell: its traversal's)
        main_iters = config.main_iterations(n)
        iterations, specs = [], []
        for alg, si in zip(cell_alg, cell_seg):
            inst = segments[si].gpu.algorithms[alg]
            steps = inst.num_iterations(n) if alg == MainAlgorithm.TWONEIGHBOR else main_iters
            iterations.append(steps)
            specs.append(inst.lower(state, steps))
        cells = PackCells(scratch, cell_start, cell_stop, cell_alg, iterations, specs)
        flips, _, mains = backend.run_search(cells, config.batch_budget(n))

        # harvest: one gather per array into pack row order, split by
        # segment as views, then commit each segment to its device
        flips = flips[position]
        best_x = tracker.best_x[position]
        best_energy = tracker.best_energy[position]
        x, delta, energy = state.x[position], state.delta[position], state.energy[position]
        lanes = scratch.rng[position]
        seg_flips = np.add.reduceat(flips, offsets[:-1]).tolist()
        truncations = np.add.reduceat(
            tracker.greedy_truncated[position], offsets[:-1], dtype=np.int64
        ).tolist()
        results, commits = [], []
        for si, (seg, a, b) in enumerate(zip(segments, offsets, offsets[1:])):
            batch = seg.batch
            result = PacketBatch(best_x[a:b], best_energy[a:b], batch.algorithms, batch.operations)
            results.append(SegmentResult(seg, result, flips[a:b]))
            ci = cyclic.get(si)
            cursors = []
            if ci is not None and mains[ci]:
                sl = slice(cell_start[ci], cell_stop[ci])
                cursors.append((MainAlgorithm.CYCLICMIN, scratch.cursor[sl].copy()))
            commits.append((
                seg.gpu, x[a:b], lanes[a:b], seg_flips[si], truncations[si], cursors,
                (delta[a:b], energy[a:b]),
            ))
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
