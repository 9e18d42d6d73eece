"""Compute-backend interface: the kernels behind the batch search hot path.

The paper specializes one kernel — the per-flip Δ update with X and Δ in
CUDA registers (§III) — per execution substrate.  This module is the seam
that makes the same specialization possible here.  A
:class:`ComputeBackend` keeps a three-call contract on int64 Δ:

* :meth:`~ComputeBackend.prepare` builds the per-model kernel cache,
* :meth:`~ComputeBackend._compute_from_x` fills energies and Δ from
  ``(B, n)`` solutions (resets),
* :meth:`~ComputeBackend.flip` applies the per-flip Δ update (Eq. 4/5),
  dense or CSR,

and runs **whole search phases** (DESIGN.md §6) on them: the
straight/greedy inner loops (§III.A.1–2) and, via :meth:`run_main_phase`,
entire main phases lowered from a declarative
:class:`~repro.backends.spec.SelectionSpec` — one backend call per phase
instead of one per flip, with the tabu stamps and best-tracker folds
computed in place on reused buffers.  A backend inherits these phase
runners or overrides them (``cuda`` runs each as one device kernel).

Layers above (:class:`~repro.core.delta.BatchDeltaState`, the search
algorithms, the virtual GPU) consume only this interface, so a new
substrate — a different array library, a native kernel, a real GPU —
plugs in by registering one class (see :mod:`repro.backends`).  The
stepwise oracle the phase runners are checked against lives with its
callers: ``greedy_descent``/``straight_walk`` in :mod:`repro.search`, the
scans on :class:`~repro.core.delta.BatchDeltaState`.

Models are integer: :func:`~repro.core.qubo.require_integer_weights`
refuses a fractional one in :func:`~repro.backends.resolve_backend`,
which every kernel consumer passes.  Backends must be **bit-exactly
interchangeable**: every implementation produces the identical (vector,
energy, flip-count) trajectory under a fixed seed, which the parity
tests assert.  The fused phase runners carry the same contract against
the stepwise reference path (``MainSearch.select`` + per-flip
``flip``/``record``/``fold``).  All per-model precomputation lives in
the object returned by :meth:`prepare` (kept on the state), so backend
instances themselves are stateless singletons shared across solvers and
threads.

Selection helpers (:func:`masked_argmin`, :data:`INT_SENTINEL`) live here —
rather than in :mod:`repro.search.base`, which re-exports them — because
backend inner loops need them and backends sit below the search layer.
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod

import numpy as np

from repro.backends.spec import (
    KIND_CYCLIC_WINDOW,
    KIND_FIXED_SEQUENCE,
    KIND_MAXMIN_THRESHOLD,
    KIND_POSITIVE_MIN,
    KIND_RANDOM_CANDIDATE_MIN,
    SelectionSpec,
)

__all__ = [
    "INT_SENTINEL",
    "BackendUnavailableError",
    "ComputeBackend",
    "GreedyTruncationWarning",
    "greedy_iteration_cap",
    "masked_argmin",
]

#: Sentinel larger than any reachable Δ value; used to exclude positions
#: from argmin selections.  int64 max would overflow float conversions, so a
#: comfortably huge but safe value is used instead.
INT_SENTINEL = np.int64(2**62)


class BackendUnavailableError(RuntimeError):
    """Raised when a requested backend's runtime dependency is missing."""


class BackendFallbackWarning(RuntimeWarning):
    """A backend failed at prepare or mid-launch and the solve degraded to
    the next available backend instead of crashing (DESIGN.md §11).

    The result is still valid — every backend computes the same search —
    but the failing launch was re-run on the replacement kernels, so a
    ``virtual_time`` replay is no longer guaranteed bit-exact against a
    fault-free run on the original backend.
    """


def greedy_iteration_cap(n: int) -> int:
    """Default greedy-descent safety cap (``16·n + 64``).

    One definition shared by the stepwise descent, the fused phase runners
    and the truncation-flagging logic, so the paths can never disagree on
    when a descent counts as truncated.
    """
    return 16 * n + 64


class GreedyTruncationWarning(RuntimeWarning):
    """A greedy descent hit its iteration safety cap before convergence.

    The returned rows are *not* guaranteed to be 1-bit local minima; the
    per-row truncation flag identifies which rows were cut short.
    """


def masked_argmin(
    values: np.ndarray, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row argmin of *values* restricted to ``mask`` positions.

    Returns ``(idx, has_candidate)``.  Rows whose mask is empty fall back to
    the unrestricted argmin (callers decide whether to treat them as active).
    """
    sentinel = np.where(mask, values, INT_SENTINEL)
    idx = np.argmin(sentinel, axis=1)
    has = mask.any(axis=1)
    empty = ~has
    if empty.any():
        idx[empty] = np.argmin(values[empty], axis=1)
    return idx, has


def _warn_truncated(count: int, max_iters: int) -> None:
    warnings.warn(
        f"greedy descent stopped at its {max_iters}-iteration safety cap "
        f"with {count} row(s) not at a local minimum",
        GreedyTruncationWarning,
        stacklevel=3,
    )


class ComputeBackend(ABC):
    """Kernels for one execution substrate of the batch search.

    Implementations are stateless: all mutable data lives on the *state*
    object (a :class:`~repro.core.delta.BatchDeltaState`), all per-model
    read-only data in the kernel cache produced by :meth:`prepare` and
    stored at ``state.kernel``.  The state object exposes ``model``,
    ``batch``, ``kernel``, the arrays ``x`` (``(B, n)`` uint8), ``energy``
    (``(B,)`` int64) and ``delta`` (``(B, n)`` int64), plus ``scratch``
    — named reused ``(B, n)`` work buffers for the fused phase runners.

    Subclasses implement :meth:`prepare`, :meth:`_compute_from_x` and
    :meth:`flip`; :meth:`run_straight_phase`, :meth:`run_greedy_phase`
    and :meth:`run_main_phase` are built on them.
    """

    #: registry name, e.g. ``"numpy-dense"``
    name: str = ""

    # -- lifecycle ---------------------------------------------------------
    @classmethod
    def is_available(cls) -> bool:
        """False when a runtime dependency (e.g. ``numba.cuda``) is missing."""
        return True

    @classmethod
    def unavailable_reason(cls) -> str | None:
        """Human-readable reason when :meth:`is_available` is False."""
        return None

    def supports(self, model) -> bool:
        """False when implicit selection (the env var) should not pick
        this backend for *model* (numpy-dense on a CSR model too large to
        densify); an explicit request bypasses the check."""
        return True

    @abstractmethod
    def prepare(self, model) -> object:
        """Build the per-model kernel cache (coupling views, tables).

        Called once per state; the result is shared read-only by every
        kernel invocation and must not be mutated afterwards.  The default
        :meth:`reset` implementation expects a ``lin`` attribute (the
        linear-term vector) on the returned cache.
        """

    # -- state management --------------------------------------------------
    def reset(self, state, x=None) -> None:
        """(Re)initialize ``state.x/energy/delta`` from vector(s) *x*
        (zero vectors if omitted), reusing the existing buffers when
        already allocated — cached states reset in place across launches."""
        lin = state.kernel.lin
        b, n = state.batch, state.model.n
        if state.x is None:
            state.x = np.empty((b, n), dtype=np.uint8)
            state.energy = np.empty(b, dtype=lin.dtype)
            state.delta = np.empty((b, n), dtype=lin.dtype)
        # derived caches (e.g. the sparse backend's σ matrix) follow x
        self._invalidate_derived(state)
        if x is None:
            state.x[...] = 0
            state.energy[...] = 0
            state.delta[...] = lin
            return
        np.copyto(state.x, np.asarray(x, dtype=np.uint8))
        self._compute_from_x(state)

    def _invalidate_derived(self, state) -> None:
        """Drop any x-derived incremental caches before ``state.x`` is
        rewritten.  Backends that keep such caches in the state scratch
        (e.g. the sparse backend's σ matrix) override this hook."""

    @abstractmethod
    def flip(self, state, idx: np.ndarray, active: np.ndarray | None = None) -> None:
        """Flip bit ``idx[r]`` in every active row *r* (Eq. 4/5 update)."""

    @abstractmethod
    def _compute_from_x(self, state) -> None:
        """Non-incremental energy/Δ computation from ``state.x`` into the
        existing ``state.energy``/``state.delta`` buffers."""

    @staticmethod
    def _set_energies(state, xi, contrib) -> None:
        """Write ``state.energy`` from a reset's ``contrib = x·S + lin``.

        With ``S`` symmetric and zero-diagonal, ``x·(contrib + lin) = 2E``
        exactly in integer arithmetic: O(B·n) on top of the product the
        reset already needs, instead of the model's O(B·n²) energy
        evaluation.
        """
        doubled = np.einsum("bi,bi->b", xi, contrib + state.kernel.lin)
        np.floor_divide(doubled, 2, out=state.energy)

    @staticmethod
    def _active_rows_cols(state, idx, active):
        """``(rows, cols)`` actually flipping this step; None when no row is.

        Shared mask prologue of every ``flip`` implementation — keeping it
        in one place is what keeps the backends' masked-lane semantics (and
        hence their bit-exact parity) from drifting apart.
        """
        if active is None:
            return state._rows, np.asarray(idx)
        rows = np.flatnonzero(active)
        if rows.size == 0:
            return None
        return rows, np.asarray(idx)[rows]

    def _stamp(self, tabu, rows, idx, active, value) -> None:
        """Row-local tabu stamping inside a fused phase (no clock motion).

        *value* is ``clock + t`` — scalar, or per-row when the tracker runs
        a vector clock (coalesced super-launch, DESIGN.md §12).
        """
        if not tabu.enabled:
            return
        if active is None:
            tabu.stamps[rows, idx] = value
        else:
            act = np.flatnonzero(active)
            if isinstance(value, np.ndarray):
                tabu.stamps[act, idx[act]] = value[act]
            else:
                tabu.stamps[act, idx[act]] = value

    # -- fused phase runners (DESIGN.md §6) --------------------------------
    #
    # One backend call per *phase*.  Tabu stamps are written row-locally
    # (``stamps[r, i] = clock + t``) and the clock advanced once per phase,
    # which is bit-identical to the stepwise per-flip ``record`` because a
    # row's k-th flip of any phase always lands on lockstep iteration k.
    # Best-tracker folds go through ``tracker.fold`` (one argmin scan) —
    # deferred to the end of the phase where provably bit-identical
    # (greedy), per-iteration otherwise.  Main phases split in two: a
    # per-kind *selector* generator (setup, penalty ring, stamps; yields
    # the bits) and one driver loop owning the shared flip → fold →
    # advance epilogue, so row-range parts running different kinds can
    # share one lockstep loop (a coalesced wave, DESIGN.md §12).
    #
    # Candidate masking is *arithmetic*: instead of the reference's
    # ``np.where(mask, Δ, SENTINEL)`` (a slow select kernel), excluded
    # positions get the sentinel **added** (``Δ + excluded·SENTINEL``) or,
    # for key argmaxes, subtracted.  Within a row this preserves order and
    # first-index ties among candidates (Δ and keys are ≪ the sentinel),
    # so every argmin/argmax selects the identical bit; rows with *no*
    # candidate reduce to the plain row argmin/argmax, which is exactly
    # the reference's empty-mask fallback for the min rules (the random
    # rules keep their explicit fallback).

    def run_straight_phase(self, state, targets, tabu, tracker) -> np.ndarray:
        """Fused straight phase: walk every row to its target vector.

        Bit-identical to :func:`repro.search.straight.straight_walk` +
        per-flip tabu/tracker bookkeeping.  The sentinel penalty matrix is maintained
        incrementally — each straight flip converts exactly one differing
        bit — so the per-iteration cost is one add + one argmin.
        Returns per-row flip counts.
        """
        targets = np.asarray(targets, dtype=np.uint8)
        b = state.x.shape[0]
        rows = state._rows
        delta = state.delta
        flips = np.zeros(b, dtype=np.int64)
        diff = state.x != targets
        remaining = diff.sum(axis=1)
        total_iters = int(remaining.max(initial=0))
        shadow = state.scratch("shadow_i64", np.int64)
        penalty = state.scratch("penalty_i64", np.int64)
        # penalty = SENTINEL at already-matching positions, 0 at differing
        np.multiply(~diff, INT_SENTINEL, out=penalty)
        stamps = tabu.stamps
        stamp_on = tabu.enabled
        clock = tabu.clock
        for t in range(total_iters):
            active = remaining > 0
            np.add(delta, penalty, out=shadow)
            idx = np.argmin(shadow, axis=1)
            if bool(active.all()):
                self.flip(state, idx)
                if stamp_on:
                    stamps[rows, idx] = clock + t
            else:
                self.flip(state, idx, active)
                self._stamp(tabu, rows, idx, active, clock + t)
            penalty[rows, idx] = INT_SENTINEL
            remaining -= active
            flips += active
            tracker.fold(state)
        tabu.advance(total_iters)
        return flips

    def run_greedy_phase(
        self, state, tabu, tracker, max_iters=None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fused greedy phase: steepest descent with deferred best folds.

        The tracker fold happens once after convergence — bit-identical
        because every intermediate state's best 1-bit neighbour is the
        next visited state (DESIGN.md §2).  Returns ``(flips, truncated)``
        where ``truncated[r]`` flags rows cut off by the ``max_iters``
        safety cap before reaching a local minimum (also warned via
        :class:`GreedyTruncationWarning`).
        """
        b, n = state.x.shape
        if max_iters is None:
            max_iters = greedy_iteration_cap(n)
        rows = state._rows
        delta = state.delta
        flips = np.zeros(b, dtype=np.int64)
        stamps = tabu.stamps
        stamp_on = tabu.enabled
        clock = tabu.clock
        iters = 0
        converged = False
        for t in range(max_iters):
            idx = np.argmin(delta, axis=1)
            active = delta[rows, idx] < 0
            if not active.any():
                converged = True
                break
            iters = t + 1
            if bool(active.all()):
                self.flip(state, idx)
                if stamp_on:
                    stamps[rows, idx] = clock + t
            else:
                self.flip(state, idx, active)
                self._stamp(tabu, rows, idx, active, clock + t)
            flips += active
        truncated = np.zeros(b, dtype=bool)
        if not converged:
            np.less(delta.min(axis=1), 0, out=truncated)
            count = int(np.count_nonzero(truncated))
            if count:
                _warn_truncated(count, max_iters)
        tabu.advance(iters)
        tracker.fold(state)
        return flips, truncated

    def run_main_phase(
        self, state, spec, iterations: int, rng, tabu, tracker
    ) -> np.ndarray:
        """Run one whole main phase from lowered selection spec(s).

        *spec* is one :class:`SelectionSpec` for every row (with *rng*
        the rows' lanes), or a list of row-range parts
        ``(lo, hi, spec, rng)`` tiling ``[0, state.batch)`` in order — a
        coalesced wave whose cells run different algorithms in lockstep
        (DESIGN.md §12; *rng* is then unused).  Several parts need a
        vector tabu clock (:meth:`TabuTracker.window`).

        Each part's selector executes the stepwise reference's per-row
        schedule (mask → select → stamp) with the ``(B, n)``
        intermediates kept in reused scratch buffers and all RNG lane
        traffic in integer keys; the driver loop (:meth:`_main_loop`)
        owns the shared flip → fold epilogue.  Returns per-row flip
        counts (always ``iterations``).
        """
        if isinstance(spec, SelectionSpec):
            parts = [(0, state.batch, spec, rng)]
        else:
            parts = list(spec)
        if len(parts) == 1 and parts[0][2].kind == KIND_FIXED_SEQUENCE:
            # a full traversal runs as one closed-form kernel
            # (repro.backends.traversal); a partial traversal, or a kernel
            # without tables, keeps the per-flip loop
            tables = getattr(state.kernel, "traversal", None)
            if tables is not None and tables.covers(parts[0][2].sequence, iterations):
                tables.run(self, state, tabu, tracker)
                return np.full(state.batch, iterations, dtype=np.int64)
        self._main_loop(state, parts, iterations, tabu, tracker)
        return np.full(state.batch, iterations, dtype=np.int64)

    def _main_loop(self, state, parts, iterations, tabu, tracker) -> None:
        """The lockstep driver: every part selects its rows' bits, then one
        flip and one best-tracker fold cover all rows.

        Bit-identical to running each part alone: selection reads only
        its own rows (Δ, stamps, the per-row clock, its RNG lanes), flips
        are row-independent, and the fold is row-local.
        """
        selectors = {
            KIND_MAXMIN_THRESHOLD: self._select_maxmin,
            KIND_CYCLIC_WINDOW: self._select_cyclic_window,
            KIND_RANDOM_CANDIDATE_MIN: self._select_random_candidate,
            KIND_POSITIVE_MIN: self._select_positive_min,
            KIND_FIXED_SEQUENCE: self._select_fixed_sequence,
        }
        steps = []
        lo_expected = 0
        for lo, hi, spec, rng in parts:
            if lo != lo_expected or hi <= lo:
                raise ValueError(
                    f"main-phase parts must tile [0, {state.batch}) in order, "
                    f"got [{lo}, {hi}) after row {lo_expected}"
                )
            lo_expected = hi
            if (lo, hi) == (0, state.batch):
                sub_state, sub_tabu = state, tabu
            else:
                sub_state, sub_tabu = state.row_window(lo, hi), tabu.window(lo, hi)
            select = selectors[spec.kind]
            steps.append((lo, hi, select(sub_state, spec, iterations, rng, sub_tabu)))
        if lo_expected != state.batch:
            raise ValueError(
                f"main-phase parts cover rows [0, {lo_expected}) of {state.batch}"
            )
        idx = np.empty(state.batch, dtype=np.int64)
        for _ in range(iterations):
            for lo, hi, step in steps:
                idx[lo:hi] = next(step)
            self.flip(state, idx)
            tracker.fold(state)
        tabu.advance(iterations)

    def _fixed_sequence_loop(self, state, spec, iterations, tabu, tracker) -> None:
        """The per-flip TwoNeighbor loop, bypassing the closed form (the
        reference the closed-form tests compare against)."""
        self._main_loop(state, [(0, state.batch, spec, None)], iterations, tabu, tracker)

    # Per-kind selectors.  Each is a generator run by :meth:`_main_loop`:
    # it does its own setup on the first step, then per lockstep
    # iteration ``t`` selects one bit per row of its part, writes the
    # row-local tabu stamps ``clock + t`` (plus any incremental penalty
    # bookkeeping — none of it reads Δ and the flip touches none of it,
    # so it may precede the flip) and yields the bits.  Each mirrors the corresponding
    # ``MainSearch.select`` line by line (the parity tests hold them
    # together); comments reference the reference implementation.

    def _select_maxmin(self, state, spec, iterations, rng, tabu):
        delta = state.delta
        rows = state._rows
        n = state.x.shape[1]
        use_tabu = tabu.enabled
        stamps, period, clock = tabu.stamps, tabu.period, tabu.clock
        clock_col = clock[:, None] if isinstance(clock, np.ndarray) else clock
        # a row can hold at most ``period`` tabu bits (one stamp per
        # iteration), so with period < n the all-tabu fallback of the
        # reference never fires and the tabu penalty can be maintained
        # incrementally: each iteration tabus the stamped bit and expires
        # at most the one bit stamped ``period + 1`` iterations ago (a
        # phase-local ring; pre-phase stamps have all expired by then)
        incremental = use_tabu and period < n
        frac = spec.schedule
        excl = state.scratch("sel_bool", bool)
        usable = state.scratch("usable_bool", bool)
        notbuf = state.scratch("not_bool", bool)
        shadow = state.scratch("shadow_i64", np.int64)
        penalty = state.scratch("penalty_i64", np.int64)
        keys = state.scratch("keys_i64", np.int64)
        ring = (
            np.zeros((period + 1, rows.shape[0]), dtype=np.int64)
            if incremental
            else None
        )
        for t in range(iterations):
            if use_tabu:
                if not incremental:  # pragma: no cover - period >= n corner
                    # reference semantics incl. the all-tabu row fallback
                    np.less(stamps, clock_col + t - period, out=usable)
                    has_usable = usable.any(axis=1)
                    if not has_usable.all():
                        usable[~has_usable] = True
                    np.logical_not(usable, out=notbuf)
                    np.multiply(notbuf, INT_SENTINEL, out=penalty)
                elif t <= period:
                    np.greater_equal(stamps, clock_col + t - period, out=notbuf)
                    np.multiply(notbuf, INT_SENTINEL, out=penalty)
                else:
                    t0 = t - period - 1
                    exp_cols = ring[t0 % (period + 1)]
                    expired = stamps[rows, exp_cols] == clock + t0
                    if expired.any():
                        er = rows[expired]
                        penalty[er, exp_cols[expired]] = 0
                np.add(delta, penalty, out=shadow)
                dmin = shadow.min(axis=1).astype(np.float64)
                np.subtract(delta, penalty, out=shadow)
                dmax = shadow.max(axis=1).astype(np.float64)
            else:
                dmin = delta.min(axis=1).astype(np.float64)
                dmax = delta.max(axis=1).astype(np.float64)
            f = frac[t]
            ceiling = (1.0 - f) * dmin + f * dmax
            u = rng.row_random()
            d = dmin + u * (ceiling - dmin)
            # Δ is integral, so Δ ≤ d ⟺ Δ ≤ ⌊d⌋ — integer compare, no cast
            thr = np.floor(d).astype(np.int64)
            rng.next_keys(out=keys)
            np.greater(delta, thr[:, None], out=excl)
            np.multiply(excl, INT_SENTINEL, out=shadow)
            keys -= shadow
            if use_tabu:
                keys -= penalty
            idx = np.argmax(keys, axis=1)
            # excluded keys went negative, so a negative winner means the
            # row had no candidate — the reference's row-min fallback
            missing = keys[rows, idx] < 0
            if missing.any():
                idx[missing] = np.argmin(delta[missing], axis=1)
            if use_tabu:
                stamps[rows, idx] = clock + t
                if incremental:
                    penalty[rows, idx] = INT_SENTINEL
                    ring[t % (period + 1)] = idx
            yield idx

    def _select_cyclic_window(self, state, spec, iterations, rng, tabu):
        delta = state.delta
        n = state.x.shape[1]
        rows = state._rows
        rows_col = rows[:, None]
        cursor = spec.cursor
        widths = spec.widths
        use_tabu = tabu.enabled
        stamps, period, clock = tabu.stamps, tabu.period, tabu.clock
        clock_col = clock[:, None] if isinstance(clock, np.ndarray) else clock
        for t in range(iterations):
            w = int(widths[t])
            cols = (cursor[:, None] + np.arange(w)[None, :]) % n
            vals = delta[rows_col, cols]
            if use_tabu:
                # all-tabu rows need no fallback: adding the sentinel to
                # every window value leaves their argmin unchanged, which
                # is exactly the reference's "must flip something" rule
                win_tabu = stamps[rows_col, cols] >= clock_col + t - period
                vals = vals + win_tabu * INT_SENTINEL
            local = np.argmin(vals, axis=1)
            idx = cols[rows, local]
            cursor += w
            cursor %= n
            if use_tabu:
                stamps[rows, idx] = clock + t
            yield idx

    def _select_random_candidate(self, state, spec, iterations, rng, tabu):
        delta = state.delta
        rows = state._rows
        use_tabu = tabu.enabled
        stamps, period, clock = tabu.stamps, tabu.period, tabu.clock
        clock_col = clock[:, None] if isinstance(clock, np.ndarray) else clock
        thresholds = spec.thresholds
        sel = state.scratch("sel_bool", bool)
        usable = state.scratch("usable_bool", bool)
        notbuf = state.scratch("not_bool", bool)
        shadow = state.scratch("shadow_i64", np.int64)
        penalty = state.scratch("penalty_i64", np.int64)
        keys = state.scratch("keys_i64", np.int64)
        for t in range(iterations):
            rng.next_keys(out=keys)
            np.less(keys, thresholds[t], out=sel)
            if use_tabu:
                np.less(stamps, clock_col + t - period, out=usable)
                np.logical_and(sel, usable, out=sel)
            # masked_argmin, penalty form: candidate-less rows reduce to the
            # plain row argmin — identical to the reference's fallback
            np.logical_not(sel, out=notbuf)
            np.multiply(notbuf, INT_SENTINEL, out=penalty)
            np.add(delta, penalty, out=shadow)
            idx = np.argmin(shadow, axis=1)
            if use_tabu:
                stamps[rows, idx] = clock + t
            yield idx

    def _select_positive_min(self, state, spec, iterations, rng, tabu):
        delta = state.delta
        rows = state._rows
        use_tabu = tabu.enabled
        stamps, period, clock = tabu.stamps, tabu.period, tabu.clock
        clock_col = clock[:, None] if isinstance(clock, np.ndarray) else clock
        sel = state.scratch("sel_bool", bool)
        sel2 = state.scratch("usable_bool", bool)
        notbuf = state.scratch("not_bool", bool)
        shadow = state.scratch("shadow_i64", np.int64)
        penalty = state.scratch("penalty_i64", np.int64)
        keys = state.scratch("keys_i64", np.int64)
        for t in range(iterations):
            # posminΔ = min{Δ > 0} (sentinel when no positive Δ exists);
            # the penalty min over an all-nonpositive row is the row min
            # + sentinel, ≥ the plain sentinel the reference uses — both
            # exceed every Δ, so the candidate mask below is identical
            np.less_equal(delta, 0, out=notbuf)
            np.multiply(notbuf, INT_SENTINEL, out=penalty)
            np.add(delta, penalty, out=shadow)
            posmin = shadow.min(axis=1)
            np.less_equal(delta, posmin[:, None], out=sel)
            if use_tabu:
                # fall back to tabu bits only when every candidate is tabu
                np.less(stamps, clock_col + t - period, out=sel2)
                np.logical_and(sel, sel2, out=sel2)
                keep = sel2.any(axis=1)
                sel[keep] = sel2[keep]
            rng.next_keys(out=keys)
            np.logical_not(sel, out=notbuf)
            np.multiply(notbuf, INT_SENTINEL, out=penalty)
            keys -= penalty
            idx = np.argmax(keys, axis=1)
            has = sel.any(axis=1)
            if not has.all():  # pragma: no cover - mask never empty by design
                missing = ~has
                idx[missing] = np.argmin(delta[missing], axis=1)
            if use_tabu:
                stamps[rows, idx] = clock + t
            yield idx

    def _select_fixed_sequence(self, state, spec, iterations, rng, tabu):
        seq = spec.sequence
        length = seq.shape[0]
        stamp_on = tabu.enabled
        stamps, clock = tabu.stamps, tabu.clock
        idx = np.empty(state.batch, dtype=np.int64)
        for t in range(iterations):
            bit = int(seq[t % length])
            idx[...] = bit
            if stamp_on:
                # the stepwise path records stamps even though the
                # fixed-sequence rule never consults the mask
                stamps[:, bit] = clock + t
            yield idx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
