"""Closed-form TwoNeighbor traversal (§III.A.7): one kernel per phase.

TwoNeighbor flips the fixed sequence 0, 1, 0, 2, 1, 3, …, n−1, n−2 and
folds the best tracker after every flip.  On a GPU each flip is a
register update; here a flip is a NumPy round trip, so the ``2n − 1``
flips of one traversal cost ``2n − 1`` interpreter crossings.  The
sequence does not depend on the data, so the whole traversal can be
computed at once, bit-exactly (DESIGN.md §6):

* **Visited states.**  From the start state ``x`` (energy ``E``, flip
  gains ``Δ``, spins ``σ = 2x − 1``, couplings ``S``) the traversal
  visits ``A_i = x ⊕ e_i`` after step ``2i`` and
  ``P_k = x ⊕ e_{k−1} ⊕ e_k`` after step ``2k − 1``, with
  ``E(A_i) = E + Δ_i`` and
  ``E(P_k) = E + Δ_{k−1} + Δ_k + S_{k−1,k} σ_{k−1} σ_k``.
* **Best neighbour of each state.**  The fold needs ``argmin Δ`` (first
  index on ties) at every visited state.  Δ at ``A_i`` differs from Δ
  only on ``N(i) ∪ {i}``; at ``P_k`` only on
  ``N(k−1) ∪ N(k) ∪ {k−1, k}``.  The argmin is the lexicographic
  (value, index) minimum of the changed entries (evaluated from the
  neighbour table) and the first entry of the row's Δ sort order that
  lies outside the changed set.  Dense models treat every column as
  changed.
* **Fold.**  The per-step ``BestTracker.fold`` keeps ``E_t + min(0,
  d_t)`` (``d_t`` the state's best gain) whenever it is strictly below
  the running best, so the whole phase reduces to the first argmin over
  ``t``, taken only when it beats the prior best.
* **Final state.**  Every bit but ``n − 1`` flips twice, so the phase
  ends with one ordinary backend flip of bit ``n − 1`` (which also keeps
  derived caches such as the sparse σ matrix right).  Tabu stamps become
  ``clock + last flip step`` and the clock advances by ``2n − 1``.

Integer arithmetic is exact, so every energy and gain computed here
equals the one the per-flip loop accumulates.

Temporaries are chunked over the traversal positions so one chunk's
working arrays stay near :data:`CHUNK_BYTES`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CHUNK_BYTES",
    "DenseTraversal",
    "EllTraversal",
    "TraversalTables",
    "last_flip_steps",
    "two_neighbor_flip_sequence",
]

#: per-chunk working-set target of the closed-form kernels, in bytes
CHUNK_BYTES = 128 * 1024

#: the ELL key packing refuses models whose gain bound would overflow it
_KEY_LIMIT = 2**62


def two_neighbor_flip_sequence(n: int) -> np.ndarray:
    """The length ``2n − 1`` flip sequence 0, 1, 0, 2, 1, 3, 2, 4, …

    Position ``t`` (0-based) flips bit ``(t+1)//2`` when ``t`` is odd and
    bit ``t//2 − 1`` when ``t`` is even (bit 0 at ``t = 0``).  Verified by
    tests against the worked n=6 example of §III.A.7.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t = np.arange(2 * n - 1)
    seq = np.where(t % 2 == 1, (t + 1) // 2, t // 2 - 1)
    seq[0] = 0
    return seq


def last_flip_steps(n: int) -> np.ndarray:
    """Step of each bit's last flip in :func:`two_neighbor_flip_sequence`.

    Bit ``k < n − 1`` last flips at step ``2k + 2``; bit ``n − 1`` flips
    once, at step ``2n − 3`` (step 0 when ``n = 1``).
    """
    last = 2 * np.arange(n, dtype=np.int64) + 2
    last[n - 1] = max(2 * n - 3, 0)
    return last


def _chunk(batch: int, width: int) -> int:
    """Positions per chunk so a ``(batch, chunk, width)`` int64 array
    stays near :data:`CHUNK_BYTES` (at least one position)."""
    return max(1, CHUNK_BYTES // (8 * batch * width))


class TraversalTables:
    """Per-model read-only tables of the closed-form traversal.

    Built once by a backend's ``prepare`` and shared by every state of
    that kernel.  Subclasses supply :meth:`_neighbour_minima`; the
    energies, fold, stamps and final flip are common.
    """

    __slots__ = ("sequence", "last", "pair")

    def __init__(self, n: int, pair: np.ndarray) -> None:
        self.sequence = two_neighbor_flip_sequence(n).astype(np.int64)
        self.last = last_flip_steps(n)
        #: ``pair[k − 1] = S[k − 1, k]`` for ``k = 1 … n − 1``
        self.pair = np.ascontiguousarray(pair, dtype=np.int64)

    def covers(self, sequence: np.ndarray, iterations: int) -> bool:
        """True when a phase is one full TwoNeighbor traversal."""
        return iterations == self.sequence.shape[0] and np.array_equal(
            sequence, self.sequence
        )

    def _neighbour_minima(self, delta, sigma):
        """``(dA, jA, dP, jP)``: the minimum gain and its first argmin at
        every ``A_i`` (``(B, n)``) and every ``P_k`` (``(B, n − 1)``,
        column ``k − 1``)."""
        raise NotImplementedError

    def run(self, backend, state, tabu, tracker) -> None:
        """Run one full traversal on *state*: the result, tracker, stamps
        and clock equal those of ``2n − 1`` flip-and-fold steps."""
        x, delta, energy = state.x, state.delta, state.energy
        b, n = x.shape
        rows = state._rows
        steps = 2 * n - 1
        sigma = x.astype(np.int64)
        sigma *= 2
        sigma -= 1
        dA, jA, dP, jP = self._neighbour_minima(delta, sigma)

        # value each step's fold offers: E_t + min(0, d_t), steps interleaved
        # as A_0, P_1, A_1, P_2, …, P_{n−1}, A_{n−1}
        offer = np.empty((b, steps), dtype=np.int64)
        gain = np.empty((b, steps), dtype=np.int64)
        arg = np.empty((b, steps), dtype=np.int64)
        gain[:, 0::2] = dA
        arg[:, 0::2] = jA
        vA = offer[:, 0::2]
        np.add(delta, energy[:, None], out=vA)
        if n > 1:
            gain[:, 1::2] = dP
            arg[:, 1::2] = jP
            vP = offer[:, 1::2]
            np.add(delta[:, :-1], delta[:, 1:], out=vP)
            vP += energy[:, None]
            vP += self.pair * sigma[:, :-1] * sigma[:, 1:]
        offer += np.minimum(gain, 0)

        t = offer.argmin(axis=1)
        value = offer[rows, t]
        fire = value < tracker.best_energy
        if fire.any():
            r = np.flatnonzero(fire)
            tr = t[r]
            local = np.arange(r.size)
            best = x[r]
            # step t visits x ⊕ e_{(t+1)//2}, plus e_{(t−1)//2} when t is odd
            best[local, (tr + 1) // 2] ^= 1
            odd = tr % 2 == 1
            best[local[odd], (tr[odd] - 1) // 2] ^= 1
            nbr = gain[r, tr] < 0
            best[local[nbr], arg[r, tr][nbr]] ^= 1
            tracker.best_x[r] = best
            tracker.best_energy[r] = value[r]

        if tabu.enabled:
            clock = tabu.clock
            if isinstance(clock, np.ndarray):
                clock = clock[:, None]
            np.add(clock, self.last, out=tabu.stamps)
        tabu.advance(steps)
        backend.flip(state, np.full(b, n - 1, dtype=np.int64))


class DenseTraversal(TraversalTables):
    """Closed-form traversal over a dense coupling matrix: every column
    of a visited state's Δ is recomputed (O(B·n²) per traversal)."""

    __slots__ = ("s",)

    def __init__(self, s: np.ndarray) -> None:
        n = s.shape[0]
        super().__init__(n, s[np.arange(n - 1), np.arange(1, n)])
        self.s = s

    def _neighbour_minima(self, delta, sigma):
        s = self.s
        b, n = delta.shape
        c = min(_chunk(b, n), n)
        dA = np.empty((b, n), dtype=np.int64)
        jA = np.empty((b, n), dtype=np.int64)
        dP = np.empty((b, n - 1), dtype=np.int64)
        jP = np.empty((b, n - 1), dtype=np.int64)
        # row 0 carries the previous chunk's last A row into its first P
        a_buf = np.empty((b, c + 1, n), dtype=np.int64)
        p_buf = np.empty((b, c, n), dtype=np.int64)
        sig_row = sigma[:, None, :]

        def minimum(vals, d_out, j_out):
            j = vals.argmin(axis=2)
            j_out[...] = j
            d_out[...] = np.take_along_axis(vals, j[:, :, None], axis=2)[:, :, 0]

        for i0 in range(0, n, c):
            i1 = min(n, i0 + c)
            m = i1 - i0
            local = np.arange(m)
            # Δ at A_i: Δ_j + S_ij σ_i σ_j, and −Δ_i at j = i
            vals = a_buf[:, 1 : m + 1]
            np.multiply(s[i0:i1], sigma[:, i0:i1, None], out=vals)
            vals *= sig_row
            vals += delta[:, None, :]
            vals[:, local, i0 + local] = -delta[:, i0:i1]
            minimum(vals, dA[:, i0:i1], jA[:, i0:i1])

            k0 = max(i0, 1)
            if k0 < i1:
                m = i1 - k0
                local = np.arange(m)
                lo, hi = slice(k0 - 1, i1 - 1), slice(k0, i1)
                # Δ at P_k: Δ at A_{k−1} + S_kj σ_k σ_j, with both flipped
                # bits' own gains written explicitly
                vals = p_buf[:, :m]
                np.multiply(s[hi], sigma[:, hi, None], out=vals)
                vals *= sig_row
                vals += a_buf[:, k0 - i0 : k0 - i0 + m]
                coupled = self.pair[lo] * sigma[:, lo] * sigma[:, hi]
                vals[:, local, k0 - 1 + local] = -delta[:, lo] - coupled
                vals[:, local, k0 + local] = -delta[:, hi] - coupled
                minimum(vals, dP[:, lo], jP[:, lo])
            a_buf[:, 0] = a_buf[:, i1 - i0]
        return dA, jA, dP, jP


class EllTraversal(TraversalTables):
    """Closed-form traversal over the padded ELL neighbour layout
    (O(B·n·K) per traversal, K the maximum degree).

    Candidates are compared as packed keys ``(Δ + D)·n + j`` — with ``D``
    a bound on every reachable ``|Δ|`` — so one integer minimum yields
    the lexicographic (value, index) minimum.  Weights are stored
    pre-multiplied by ``n``; a column that must not compete (an ELL pad,
    or a flipped bit whose gain is written explicitly) carries the
    weight ``(2D + 1)·n`` and every other weight of that column is 0,
    which lifts its key above every real one.

    One gather of the neighbour rows serves both state kinds: the keys
    of ``A_i`` over ``N(i)`` are reused for ``P_{i+1}`` (over ``N(i)``,
    adding bit ``i + 1``'s coupling) and ``P_i`` (over ``N(i)``, adding
    bit ``i − 1``'s).
    """

    __slots__ = ("bound", "cols", "w_own", "w_next", "w_prev")

    def __init__(self, bound, cols, w_own, w_next, w_prev, pair) -> None:
        super().__init__(cols.shape[0], pair)
        self.bound = bound
        #: ``(n, K)`` ELL columns, padded with the row's own index
        self.cols = cols
        #: ``S[i, cols[i]]·n``, pads excluded
        self.w_own = w_own
        #: row ``k − 1``: ``S[k, cols[k − 1]]·n``, column ``k`` excluded
        self.w_next = w_next
        #: row ``k − 1``: ``S[k − 1, cols[k]]·n``, column ``k − 1`` excluded
        self.w_prev = w_prev

    @classmethod
    def build(cls, indptr, indices, data, ell_cols, ell_data, lin):
        """Tables from a CSR matrix and its ELL padding, in
        O(nnz log nnz) without densifying; None when the packed keys
        could overflow int64."""
        n, k = ell_cols.shape
        bound = int((np.abs(ell_data).sum(axis=1) + np.abs(lin)).max())
        if (4 * bound + 3) * n >= _KEY_LIMIT:
            return None
        excluded = (2 * bound + 1) * n
        degrees = np.diff(indptr)
        w_own = ell_data * n
        w_own[np.arange(k)[None, :] >= degrees[:, None]] = excluded

        # S[a, b] lookups: CSR entries keyed a·n + b, sorted once
        keys = np.repeat(np.arange(n, dtype=np.int64), degrees) * n + indices
        order = np.argsort(keys, kind="stable")
        keys, vals = keys[order], data[order]

        def lookup(a, b):
            q = a * n + b
            pos = np.minimum(np.searchsorted(keys, q), keys.shape[0] - 1)
            return np.where(keys[pos] == q, vals[pos], 0)

        k_col = np.arange(1, n, dtype=np.int64)[:, None]
        prev_cols, next_cols = ell_cols[:-1], ell_cols[1:]
        # zero weight on the pads (already excluded through w_own), the
        # excluded weight on the other flipped bit
        w_next = np.where(prev_cols == k_col - 1, 0, lookup(k_col, prev_cols) * n)
        w_next[prev_cols == k_col] = excluded
        w_prev = np.where(next_cols == k_col, 0, lookup(k_col - 1, next_cols) * n)
        w_prev[next_cols == k_col - 1] = excluded
        pair = lookup(k_col[:, 0] - 1, k_col[:, 0])
        return cls(bound, ell_cols, w_own, w_next, w_prev, pair)

    def _neighbour_minima(self, delta, sigma):
        b, n = delta.shape
        bound = self.bound
        rows = np.arange(b)
        # packed keys of the start state
        dkey = delta * n
        dkey += bound * n
        dkey += np.arange(n)

        def own_keys(bits, coupled=None):
            # key of a flipped bit's own gain, −Δ (− S σσ inside a pair)
            key = -delta[:, bits]
            if coupled is not None:
                key -= coupled
            key += bound
            key *= n
            key += np.arange(n)[bits]
            return key

        key_a = np.empty((b, n), dtype=np.int64)
        key_p = np.empty((b, n - 1), dtype=np.int64)
        c = _chunk(b, self.cols.shape[1])
        for i0 in range(0, n, c):
            i1 = min(n, i0 + c)
            r0 = max(i0 - 1, 0)  # one row of overlap feeds P_{i0}
            cols = self.cols[r0:i1]
            nbr_sigma = sigma[:, cols]
            # A_i over N(i): Δ_j + S_ij σ_i σ_j
            keys = nbr_sigma * sigma[:, r0:i1, None]
            keys *= self.w_own[r0:i1]
            keys += dkey[:, cols]
            out = key_a[:, i0:i1]
            keys[:, i0 - r0 :].min(axis=2, out=out)
            np.minimum(out, own_keys(slice(i0, i1)), out=out)

            k0 = max(i0, 1)
            if k0 == i1:
                continue
            lo, hi = slice(k0 - 1, i1 - 1), slice(k0, i1)
            prev = slice(k0 - 1 - r0, i1 - 1 - r0)
            nxt = slice(k0 - r0, i1 - r0)
            # P_k over N(k − 1): A_{k−1}'s keys + S_kj σ_k σ_j
            extra = nbr_sigma[:, prev] * sigma[:, hi, None]
            extra *= self.w_next[lo]
            extra += keys[:, prev]
            out = key_p[:, lo]
            extra.min(axis=2, out=out)
            # P_k over N(k): A_k's keys + S_{k−1,j} σ_{k−1} σ_j
            extra = nbr_sigma[:, nxt] * sigma[:, lo, None]
            extra *= self.w_prev[lo]
            extra += keys[:, nxt]
            np.minimum(out, extra.min(axis=2), out=out)
            coupled = self.pair[lo] * sigma[:, lo] * sigma[:, hi]
            np.minimum(out, own_keys(lo, coupled), out=out)
            np.minimum(out, own_keys(hi, coupled), out=out)

        # Unchanged columns: walk each row's Δ order; a state takes the
        # first column outside its changed set.  Column j lies in the
        # changed set of A_i for i ∈ H_j = N(j) ∪ {j} and of P_k when
        # k − 1 or k is in H_j.  Few steps resolve every state.
        order = np.argsort(dkey, axis=1)
        open_a = np.ones((b, n), dtype=bool)
        open_p = np.ones((b, n - 1), dtype=bool)
        hit = np.empty((b, n), dtype=bool)
        take = np.empty((b, n), dtype=bool)
        for r in range(n):
            j = order[:, r]
            first = dkey[rows, j][:, None]
            hit[...] = False
            hit[rows[:, None], self.cols[j]] = True
            hit[rows, j] = True
            np.greater(open_a, hit, out=take)
            np.minimum(key_a, first, out=key_a, where=take)
            open_a &= hit
            hit_p = hit[:, :-1] | hit[:, 1:]
            np.greater(open_p, hit_p, out=take[:, :-1])
            np.minimum(key_p, first, out=key_p, where=take[:, :-1])
            open_p &= hit_p
            if not (open_a.any() or open_p.any()):
                break

        dA, jA = np.divmod(key_a, n)
        dA -= bound
        dP, jP = np.divmod(key_p, n)
        dP -= bound
        return dA, jA, dP, jP
