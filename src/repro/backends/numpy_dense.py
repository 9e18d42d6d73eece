"""Dense NumPy backend: one coupling-row gather per lockstep flip.

The NumPy analogue of the paper's dense CUDA kernel (§III.A): per flip it
performs one row-gather of the symmetric coupling matrix ``S`` and fused
in-place updates — O(B·n) work and contiguous memory traffic, rows playing
the role of CUDA blocks.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from repro.backends.base import ComputeBackend
from repro.backends.traversal import DenseTraversal

__all__ = ["DENSIFY_MAX_N", "NumpyDenseBackend"]

#: largest CSR model the dense kernels agree to materialize implicitly —
#: an (n, n) int64 matrix at this bound is ~32 MB; beyond it, env-based
#: selection falls back to the CSR kernels instead of risking an OOM
DENSIFY_MAX_N = 2048


class _DenseKernel:
    """Per-model read-only data of the dense kernels."""

    __slots__ = ("s", "lin", "traversal")

    def __init__(self, s: np.ndarray, lin: np.ndarray) -> None:
        self.s = s
        self.lin = lin
        #: closed-form TwoNeighbor tables
        self.traversal = DenseTraversal(s)


class NumpyDenseBackend(ComputeBackend):
    """Vectorized dense kernels (the default for dense models)."""

    name = "numpy-dense"

    def supports(self, model) -> bool:
        """Densifying a large CSR model implicitly would blow up memory;
        explicit requests (which bypass this check) may still do it."""
        return not sp.issparse(model.couplings) or model.n <= DENSIFY_MAX_N

    def prepare(self, model) -> _DenseKernel:
        s = model.couplings
        if sp.issparse(s):
            # explicit dense request on a CSR model: materialize once
            s = np.ascontiguousarray(s.toarray())
        return _DenseKernel(s, np.asarray(model.linear))

    def _compute_from_x(self, state) -> None:
        """Non-incremental O(B·n²) energy/Δ computation from ``state.x``."""
        kernel = state.kernel
        xi = state.x.astype(kernel.lin.dtype)
        contrib = xi @ kernel.s + kernel.lin
        self._set_energies(state, xi, contrib)
        np.multiply(1 - 2 * xi, contrib, out=state.delta)

    # -- per-flip Δ update (Eq. 4/5) ---------------------------------------
    def flip(self, state, idx: np.ndarray, active: np.ndarray | None = None) -> None:
        s = state.kernel.s
        if active is None:
            # fast path: all rows flip — no row gathers, fully in-place
            rows = state._rows
            cols = np.asarray(idx)
            d_i = state.delta[rows, cols]  # fancy read = copy
            state.energy += d_i
            old_bits = state.x[rows, cols]
            s_old = (2 * old_bits.astype(s.dtype) - 1)[:, None]
            state.x[rows, cols] = old_bits ^ 1
            sigma = 2 * state.x.astype(s.dtype) - 1
            state.delta += s[cols] * (s_old * sigma)
            state.delta[rows, cols] = -d_i
            return
        selected = self._active_rows_cols(state, idx, active)
        if selected is None:
            return
        rows, cols = selected
        d_i = state.delta[rows, cols]  # fancy read = copy
        state.energy[rows] += d_i
        old_bits = state.x[rows, cols]
        s_old = (2 * old_bits.astype(s.dtype) - 1)[:, None]
        state.x[rows, cols] = old_bits ^ 1
        sigma = 2 * state.x[rows].astype(s.dtype) - 1
        state.delta[rows] += s[cols] * (s_old * sigma)
        state.delta[rows, cols] = -d_i
