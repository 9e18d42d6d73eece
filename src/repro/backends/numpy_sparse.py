"""Sparse NumPy backend: CSR row-gather flips touching only O(degree) bits.

The memory/traffic path for annealer-scale instances (paper §I's Pegasus
QASP graphs: thousands of bits, <1 % density).  Per flip only the CSR
neighbourhood of each flipped bit is updated, the sparse analogue of the
paper's companion work on sparse QUBO.

The hot flip path uses a padded **ELL layout** built once per model: a
``(n, K)`` neighbour-index matrix (K = max degree) padded with each row's
own index at weight 0, so one fancy-gather/scatter pair replaces the
per-flip CSR range concatenation.  Padding is exact: the pad weight is 0
and the pad position ``(r, i)`` for flipped bit ``i`` is overwritten by
``Δ_i ← −Δ_i`` afterwards (couplings have a zero diagonal, so pads never
collide with a real neighbour update).  Degree-skewed graphs whose ELL
matrix would exceed 4× the CSR footprint fall back to the range path.

Weights stay in exact int64 arithmetic, so this backend is
bit-identical with ``numpy-dense`` on the same model (asserted by the
backend parity tests).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from repro.backends.base import ComputeBackend
from repro.backends.traversal import EllTraversal

__all__ = ["NumpySparseBackend"]

#: refuse ELL padding beyond this blow-up over the CSR footprint
_ELL_MAX_BLOWUP = 4.0


def _flat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for each (s, c) pair, vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(counts)
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(cum - counts, counts)
        + np.repeat(starts, counts)
    )


class _SparseKernel:
    """Per-model read-only data of the CSR kernels."""

    __slots__ = (
        "csr",
        "indptr",
        "indices",
        "data",
        "lin",
        "ell_cols",
        "ell_data",
        "traversal",
    )

    def __init__(self, csr, lin: np.ndarray) -> None:
        self.csr = csr
        self.indptr = np.asarray(csr.indptr, dtype=np.int64)
        self.indices = np.asarray(csr.indices, dtype=np.int64)
        self.data = np.asarray(csr.data, dtype=np.int64)
        self.lin = lin
        self.ell_cols = None
        self.ell_data = None
        self._build_ell()
        #: closed-form TwoNeighbor tables; they ride on the ELL layout, so
        #: degree-skewed graphs keep the per-flip traversal loop
        self.traversal = None
        if self.ell_cols is not None:
            self.traversal = EllTraversal.build(
                self.indptr,
                self.indices,
                self.data,
                self.ell_cols,
                self.ell_data,
                self.lin,
            )

    def _build_ell(self) -> None:
        n = self.indptr.shape[0] - 1
        degrees = np.diff(self.indptr)
        k = int(degrees.max(initial=0))
        if k == 0:
            return
        nnz = self.indices.shape[0]
        if n * k > _ELL_MAX_BLOWUP * max(nnz, 1):
            return  # degree-skewed: padding would dominate memory/traffic
        # pad with the row's own index at weight 0 (the diagonal is zero,
        # so a pad never aliases a real neighbour; the padded Δ entry is
        # always overwritten by the flip's own −Δ_i write)
        cols = np.repeat(np.arange(n, dtype=np.int64)[:, None], k, axis=1)
        data = np.zeros((n, k), dtype=np.int64)
        fill = np.arange(k)[None, :] < degrees[:, None]
        cols[fill] = self.indices
        data[fill] = self.data
        self.ell_cols = cols
        self.ell_data = data


class NumpySparseBackend(ComputeBackend):
    """CSR kernels (auto-selected for sparse/low-density models)."""

    name = "numpy-sparse"

    def prepare(self, model) -> _SparseKernel:
        s = model.couplings
        if not sp.issparse(s):
            s = sp.csr_array(np.asarray(s))
        elif not isinstance(s, sp.csr_array):
            s = sp.csr_array(s)
        return _SparseKernel(s, np.asarray(model.linear))

    def _invalidate_derived(self, state) -> None:
        state._scratch.pop("sigma8", None)

    def _compute_from_x(self, state) -> None:
        """Non-incremental O(B·nnz) energy/Δ computation from ``state.x``."""
        kernel = state.kernel
        xi = state.x.astype(kernel.lin.dtype)
        contrib = (kernel.csr @ xi.T).T + kernel.lin  # S symmetric
        self._set_energies(state, xi, contrib)
        np.multiply(1 - 2 * xi, contrib, out=state.delta)

    # -- per-flip Δ update (Eq. 4/5), CSR neighbourhoods only --------------
    def flip(self, state, idx: np.ndarray, active: np.ndarray | None = None) -> None:
        selected = self._active_rows_cols(state, idx, active)
        if selected is None:
            return
        if state.kernel.ell_cols is not None:
            self._flip_rows_ell(state, *selected)
        else:
            self._flip_rows(state, *selected)

    @staticmethod
    def _sigma(state) -> np.ndarray:
        """The ``σ(x) = 2x − 1`` matrix as int8, maintained incrementally.

        Rebuilt lazily after every reset (the base ``reset`` drops it) so
        flips only touch the positions they change; int8 keeps the σ
        products exact (±1) while shrinking gather traffic 8×.
        """
        sig = state._scratch.get("sigma8")
        if sig is None:
            sig = np.empty(state.x.shape, dtype=np.int8)
            np.multiply(state.x, np.int8(2), out=sig, casting="unsafe")
            sig -= np.int8(1)
            state._scratch["sigma8"] = sig
        return sig

    def _flip_rows_ell(self, state, rows: np.ndarray, cols: np.ndarray) -> None:
        """ELL flip path: one (m, K) gather/scatter pair per lockstep flip.

        All reads and writes are 1-D on the flattened ``(B·n,)`` buffers
        (flat index ``row·n + col``), cheaper than 2-D ``(rows, cols)``
        fancy indexing.  ``reshape(-1)`` is a view because state buffers
        and row windows are C-contiguous leading-row slices (checked where
        :class:`~repro.core.delta.BatchDeltaState` builds them).

        Flat neighbour indices are unique per batch row (distinct CSR
        columns plus the weight-0 self pad, which only ever aliases the
        flipped bit's own Δ entry — rewritten to ``−Δ_i`` below), so the
        fancy-indexed in-place add is safe.
        """
        kernel = state.kernel
        n = kernel.ell_cols.shape[0]
        delta = state.delta.reshape(-1)
        sig = self._sigma(state).reshape(-1)
        base = rows * n
        flat = base + cols
        d_i = delta[flat]
        state.energy[rows] += d_i
        s_old = sig[flat]  # pre-flip σ_i (fancy read = copy)
        state.x.reshape(-1)[flat] ^= 1
        sig[flat] = -s_old
        neighbours = kernel.ell_cols[cols]  # (m, K), a fresh copy
        neighbours += base[:, None]
        sigma_nbr = sig[neighbours]  # post-flip σ_k, int8
        contrib = kernel.ell_data[cols] * (s_old[:, None] * sigma_nbr)
        delta[neighbours] += contrib
        delta[flat] = -d_i

    def _flip_rows(self, state, rows: np.ndarray, cols: np.ndarray) -> None:
        """CSR range flip path (fallback for degree-skewed graphs).

        Index pairs ``(row, neighbour)`` are unique (each CSR row holds
        distinct columns and batch rows are distinct), so the fancy-indexed
        in-place add is safe.
        """
        kernel = state.kernel
        d_i = state.delta[rows, cols].copy()
        state.energy[rows] += d_i
        old_bits = state.x[rows, cols]
        s_old = 2 * old_bits.astype(np.int64) - 1
        state.x[rows, cols] = old_bits ^ 1
        starts = kernel.indptr[cols]
        counts = kernel.indptr[cols + 1] - starts
        flat = _flat_ranges(starts, counts)
        neighbours = kernel.indices[flat]
        weights = kernel.data[flat]
        row_rep = np.repeat(rows, counts)
        s_old_rep = np.repeat(s_old, counts)
        sigma_nbr = 2 * state.x[row_rep, neighbours].astype(np.int64) - 1
        state.delta[row_rep, neighbours] += weights * s_old_rep * sigma_nbr
        state.delta[rows, cols] = -d_i
