"""Incremental search engine: O(n)-per-flip energy/gain maintenance.

This is the paper's §III.A core: a local search state holding the current
solution ``X``, its energy ``E(X)``, and the flip-gain vector
``Δ_k(X) = E(f_k(X)) − E(X)`` for all ``k``, kept consistent under bit flips
using Eq. (4)/(5):

    Δ_k(f_i(X)) = Δ_k(X) + S[i,k] · σ(x_i) · σ(x_k)   (k ≠ i)
    Δ_i(f_i(X)) = −Δ_i(X)

where ``S`` is the symmetric coupling matrix, ``σ(x) = 2x − 1`` and ``x_i``
is the *pre-flip* value of the flipped bit (equivalently
``−σ(x̄_i) σ(x_k) = σ(x̄_i)(1 − 2 x_k)`` with the new value ``x̄_i``; the
paper's Eq. (4) intermediate line uses the new value, its final form the old
one — the old-value form is the algebraically correct one and is what both
engines implement, verified against from-scratch recomputation in tests).

Two implementations share the math:

* :class:`DeltaState` — one solution vector; the readable reference used by
  single-threaded baselines and tests.
* :class:`BatchDeltaState` — ``B`` vectors advanced in lockstep; rows play
  the role of CUDA blocks.  It is a thin facade over a pluggable
  :class:`~repro.backends.base.ComputeBackend` (see :mod:`repro.backends`,
  DESIGN.md §2), which owns the actual kernels: dense NumPy row-gather
  updates, CSR neighbourhood updates, or ``numba.cuda`` kernels.  Every
  backend is bit-exactly interchangeable; the kernels are int64, so a
  fractional-weight model is refused when the backend is resolved.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from repro.backends import resolve_backend
from repro.core.qubo import QUBOModel
from repro.utils.validation import check_bit_vector

__all__ = ["DeltaState", "BatchDeltaState"]


class DeltaState:
    """Incremental state for a single solution vector.

    Starts from the zero vector by default — ``E = 0`` and ``Δ_k = W[k,k]``
    (paper §III.A) — or from any given vector via ``reset``.
    """

    __slots__ = ("model", "_s", "_lin", "x", "energy", "delta", "_sparse")

    def __init__(self, model, x=None) -> None:
        self.model = model
        self._s = model.couplings
        self._lin = model.linear
        self._sparse = sp.issparse(self._s)
        self.reset(x)

    def reset(self, x=None) -> None:
        """Reinitialize from vector *x* (zero vector if omitted)."""
        n = self.model.n
        if x is None:
            self.x = np.zeros(n, dtype=np.uint8)
            self.energy = self._lin.dtype.type(0).item()
            self.delta = self._lin.copy()
        else:
            self.x = check_bit_vector(x, n).copy()
            self.energy = self.model.energy(self.x)
            self.delta = self.model.delta_vector(self.x)

    def flip(self, i: int) -> None:
        """Flip bit *i*, updating ``x``, ``energy`` and ``delta`` in O(n)
        (O(degree) for sparse models)."""
        d_i = self.delta[i]
        self.energy += d_i.item()
        s_old = 2 * int(self.x[i]) - 1  # σ(x_i) of the pre-flip value
        self.x[i] ^= 1
        if self._sparse:
            lo, hi = self._s.indptr[i], self._s.indptr[i + 1]
            neighbours = self._s.indices[lo:hi]
            weights = self._s.data[lo:hi]
            sigma_nbr = 2 * self.x[neighbours].astype(np.int64) - 1
            self.delta[neighbours] += weights * (s_old * sigma_nbr)
        else:
            sigma = 2 * self.x.astype(self._s.dtype) - 1
            self.delta += self._s[i] * (s_old * sigma)
        self.delta[i] = -d_i

    def best_neighbor(self) -> tuple[int, int | float]:
        """Index and energy of the best 1-bit neighbour ``f_j(X)``."""
        j = int(np.argmin(self.delta))
        return j, self.energy + self.delta[j].item()

    def neighbor_energies(self) -> np.ndarray:
        """Energies of all 1-bit neighbours, ``E(X) + Δ``."""
        return self.energy + self.delta

    def is_local_minimum(self) -> bool:
        """True when no 1-bit flip decreases the energy (all ``Δ ≥ 0``)."""
        return bool(np.all(self.delta >= 0))

    def recompute(self) -> None:
        """Recompute energy and delta from scratch (O(n²) consistency check)."""
        self.energy = self.model.energy(self.x)
        self.delta = self.model.delta_vector(self.x)


class BatchDeltaState:
    """Incremental state for ``B`` solution vectors advanced in lockstep.

    A facade: the arrays live here, the kernels live on a pluggable
    :class:`~repro.backends.base.ComputeBackend`.  ``backend`` may be a
    backend instance, a registered name (``"numpy-dense"``,
    ``"numpy-sparse"``, ``"cuda"``), ``"auto"`` or ``None`` (consults the
    ``REPRO_BACKEND`` environment variable, then the auto density rule).

    Attributes
    ----------
    x:
        ``(B, n)`` uint8 current solutions (one row per virtual CUDA block).
    energy:
        ``(B,)`` current energies.
    delta:
        ``(B, n)`` flip gains.
    backend:
        The resolved :class:`~repro.backends.base.ComputeBackend`.
    kernel:
        The backend's per-model read-only kernel cache.
    device:
        Backend-owned device mirror of the state buffers (``None`` until a
        device backend such as ``cuda`` first stages this state; host
        backends never touch it).  Like the scratch buffers it follows the
        state object's lifetime, so states cached across virtual-GPU
        launches keep their device allocations.

    ``reset`` reuses the existing buffers, so a state cached across virtual
    GPU launches (see :class:`~repro.gpu.virtual_gpu.VirtualGPU`) incurs no
    allocation churn.
    """

    __slots__ = (
        "model",
        "batch",
        "backend",
        "kernel",
        "x",
        "energy",
        "delta",
        "device",
        "_rows",
        "_scratch",
    )

    def __init__(self, model, batch: int, backend=None, kernel=None) -> None:
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        self.model = model
        self.batch = batch
        self.backend = resolve_backend(backend, model)
        self.kernel = kernel if kernel is not None else self.backend.prepare(model)
        self._rows = np.arange(batch)
        self._scratch = {}
        self.x = None
        self.energy = None
        self.delta = None
        self.device = None
        self.backend.reset(self)

    def scratch(self, key: str, dtype) -> np.ndarray:
        """A named reused ``(B, n)`` work buffer (fused phase runners).

        Allocated lazily once per (state, key) and never cleared — callers
        own the contents only within a single phase iteration.  States
        cached across virtual-GPU launches therefore run fused phases with
        zero per-flip allocation.
        """
        arr = self._scratch.get(key)
        if arr is None:
            arr = self._scratch[key] = np.empty((self.batch, self.n), dtype=dtype)
        return arr

    @property
    def n(self) -> int:
        """Number of binary variables."""
        return self.model.n

    def row_window(self, start: int, stop: int) -> "BatchDeltaState":
        """A facade over rows ``[start, stop)``, sharing buffers and kernel.

        Row slices of C-contiguous arrays stay contiguous, so the view runs
        the same kernels at full speed; flips/resets through it mutate the
        parent's rows.  The super-launch executor (DESIGN.md §12) uses it
        to phase over contiguous spans of a stacked batch.  ``_rows`` is
        re-based to the window so fancy row indexing inside kernels stays
        window-local.
        """
        if not 0 <= start < stop <= self.batch:
            raise ValueError(
                f"window must satisfy 0 <= start < stop <= {self.batch}, "
                f"got [{start}, {stop})"
            )
        # kernels may flatten x/delta with reshape(-1) (the sparse
        # backend's flat-indexed flip), which is a view — so writes go
        # through — only on a C-contiguous buffer
        view = object.__new__(BatchDeltaState)
        view.model = self.model
        view.batch = stop - start
        view.backend = self.backend
        view.kernel = self.kernel
        view.x = self.x[start:stop]
        view.energy = self.energy[start:stop]
        view.delta = self.delta[start:stop]
        if not (view.x.flags.c_contiguous and view.delta.flags.c_contiguous):
            raise ValueError("state buffers must be C-contiguous")
        view.device = None  # device mirrors are per-(object, shape)
        view._scratch = {}
        view._rows = np.arange(stop - start)
        return view

    def reset(self, x=None) -> None:
        """Reinitialize all rows from ``x`` (``(B, n)`` or broadcastable row);
        zero vectors if omitted.  Buffers are reused in place."""
        self.backend.reset(self, x)

    def flip(self, idx: np.ndarray, active: np.ndarray | None = None) -> None:
        """Flip bit ``idx[r]`` in every active row *r* (backend kernel).

        Parameters
        ----------
        idx:
            ``(B,)`` bit indices, one per row.
        active:
            Optional ``(B,)`` boolean mask; inactive rows are untouched
            (the masked-lane analogue of warp divergence).
        """
        self.backend.flip(self, idx, active)

    def neighbor_min(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-row best 1-bit neighbour: ``(argmin_k Δ, E + min_k Δ)``."""
        j = np.argmin(self.delta, axis=1)
        return j, self.energy + self.delta[self._rows, j]

    def is_local_minimum(self) -> np.ndarray:
        """Per-row flag: no 1-bit flip decreases the energy."""
        return np.all(self.delta >= 0, axis=1)

    def recompute(self) -> None:
        """Recompute energies/deltas from scratch (O(B·n²), tests only)."""
        self.backend._compute_from_x(self)
