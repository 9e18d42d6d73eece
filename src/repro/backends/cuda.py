"""CUDA backend: real GPU phase kernels behind the ComputeBackend seam.

This is the layer the fused-phase interface (DESIGN.md §6) was shaped to
receive: each search phase — the straight walk, the greedy descent and one
main phase lowered from a :class:`~repro.backends.spec.SelectionSpec` — is
a **single kernel launch** with one CUDA block per batch row and the block's
threads cooperating on the row, exactly the paper's kernel-per-phase design
(§III).  The kernels are written with ``numba.cuda`` so the same source
runs on real hardware and, bit-identically, under the CUDA simulator
(``NUMBA_ENABLE_CUDASIM=1``) that the CI parity leg uses.

Bit-exactness (the backend contract) is preserved by construction:

* the per-flip Δ update is the cooperative ``flip_row`` (Eq. 4/5) with the
  same operand order as the CPU kernels, reading neighbour signs from an
  int8 σ matrix maintained incrementally on the device (``σ_i ← −σ_i`` at
  each flip, rebuilt from X once per phase by ``sigma_init``);
* every argmin/argmax is a shared-memory tree reduction whose combiner
  prefers the **smaller index on ties**, which together with each thread's
  strided ascending scan reproduces NumPy's first-index tie-break exactly;
* the xorshift64* lanes are advanced in canonical order: thread 0 owns the
  row-scalar draw on lane column 0, then every thread advances the lane
  columns it owns (``k = tid, tid+TPB, …``) exactly once per key draw —
  the same per-lane advancement sequence as the reference.

Memory ownership mirrors the CPU backends' scratch discipline: coupling
tables are uploaded **once per prepared problem** (``prepare`` /
:func:`repro.backends.prepare_problem`, so ``ProblemCache`` hits skip the
host→device copy), and each state object owns a persistent
:class:`_DeviceMirror` of its ``(B, n)`` buffers (kept on
``BatchDeltaState.device``, hence per cached virtual-GPU state).  Host
arrays stay authoritative between phases: a phase call stages them in,
launches one kernel, and stages results back **only at phase end**.  Both
the kernel cache and the mirrors are pid-stamped and re-created after a
``fork`` (the process engine/federation path) because CUDA contexts do not
survive forking.

Install with the ``cuda`` extra (``pip install -e '.[cuda]'``); without
numba or a device the backend registers as unavailable and resolution
falls back with a warning.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy import sparse as sp

from repro.backends.base import (
    BackendUnavailableError,
    ComputeBackend,
    _warn_truncated,
    greedy_iteration_cap,
)
from repro.backends.numpy_dense import NumpyDenseBackend
from repro.backends.numpy_sparse import NumpySparseBackend
from repro.backends.spec import (
    KIND_CYCLIC_WINDOW,
    KIND_FIXED_SEQUENCE,
    KIND_MAXMIN_THRESHOLD,
    KIND_POSITIVE_MIN,
    KIND_RANDOM_CANDIDATE_MIN,
    SelectionSpec,
)

__all__ = ["CudaBackend"]

try:  # pragma: no cover - exercised only when numba is installed
    from numba import cuda

    _CUDA_IMPORT_ERROR: str | None = None
except ImportError as exc:  # pragma: no cover - environment-dependent
    cuda = None
    _CUDA_IMPORT_ERROR = str(exc)

#: numeric codes for the main-phase kernel's kind dispatch
_KIND_CODES = {
    KIND_MAXMIN_THRESHOLD: 0,
    KIND_CYCLIC_WINDOW: 1,
    KIND_RANDOM_CANDIDATE_MIN: 2,
    KIND_POSITIVE_MIN: 3,
    KIND_FIXED_SEQUENCE: 4,
}

#: coupling storage codes baked into every kernel launch
_STORAGE_DENSE = 0
_STORAGE_ELL = 1
_STORAGE_CSR = 2

_INT_SENTINEL = 2**62
_MULTIPLIER = 0x2545F4914F6CDD1D
_DOUBLE_SCALE = 2.0**-53

#: threads per block (power of two; the tree reductions require it)
_TPB_ENV = "REPRO_CUDA_TPB"
_TPB_DEFAULT = 128

#: compiled kernels per (cuda module identity, threads-per-block)
_KERNEL_CACHE: dict = {}


def _threads_per_block() -> int:
    """Threads per block from ``REPRO_CUDA_TPB`` (default 128).

    Must be a power of two in [1, 1024] — the shared-memory tree
    reductions halve the stride each step.  Small values (4–8) keep the
    CUDA simulator and the test stub fast; 128 is a sensible hardware
    default for the strided row loops.
    """
    raw = os.environ.get(_TPB_ENV, "").strip()
    if not raw:
        return _TPB_DEFAULT
    tpb = int(raw)
    if tpb < 1 or tpb > 1024 or tpb & (tpb - 1):
        raise ValueError(
            f"{_TPB_ENV} must be a power of two in [1, 1024], got {raw!r}"
        )
    return tpb


def _clear_kernel_cache() -> None:
    """Drop compiled kernels (tests swap the ``cuda`` module object)."""
    _KERNEL_CACHE.clear()


def _get_kernels(tpb: int):
    kernels = _KERNEL_CACHE.get((id(cuda), tpb))
    if kernels is None:
        kernels = _KERNEL_CACHE[(id(cuda), tpb)] = _build_kernels(tpb)
    return kernels


def _build_kernels(tpb: int):
    """Compile the phase kernels for one block width.

    Every device helper mirrors its reference counterpart (the NumPy
    selectors of :class:`~repro.backends.base.ComputeBackend` and the
    stepwise ``MainSearch.select`` rules) line by line; where a reference
    scans a row, the CUDA kernel scans it with a strided thread loop plus
    a shared-memory reduction whose tie-breaks are provably identical
    (strict comparisons in ascending-index order per thread, smaller
    index wins across threads).  Tabu stamps are ``clock[r] + t``: each
    row carries its own clock, so a super-launch may stack rows whose
    phases started at different clocks (DESIGN.md §12).  All cross-thread
    branches are taken uniformly by the whole block, so the barriers
    inside ``flip_row``/``fold_row`` are always reached by every thread.
    """
    mult = np.uint64(_MULTIPLIER)
    u11 = np.uint64(11)
    u12 = np.uint64(12)
    u25 = np.uint64(25)
    u27 = np.uint64(27)
    sent = np.int64(_INT_SENTINEL)
    one8 = np.uint8(1)
    dscale = _DOUBLE_SCALE

    jit = cuda.jit
    device = cuda.jit(device=True)

    @device
    def lane_next(lanes, r, j):
        v = lanes[r, j]
        v ^= v >> u12
        v ^= v << u25
        v ^= v >> u27
        lanes[r, j] = v
        return v

    @device
    def lane_key(lanes, r, j):
        return np.int64((lane_next(lanes, r, j) * mult) >> u11)

    @device
    def argmin_pair(sv, si, v, idx):
        """Block-wide (min value, first index); broadcast to every thread."""
        tid = cuda.threadIdx.x
        sv[tid] = v
        si[tid] = idx
        cuda.syncthreads()
        stride = tpb // 2
        while stride > 0:
            if tid < stride:
                o = tid + stride
                if sv[o] < sv[tid] or (sv[o] == sv[tid] and si[o] < si[tid]):
                    sv[tid] = sv[o]
                    si[tid] = si[o]
            cuda.syncthreads()
            stride //= 2
        rv = sv[0]
        ri = si[0]
        cuda.syncthreads()
        return rv, ri

    @device
    def argmax_pair(sv, si, v, idx):
        """Block-wide (max value, first index); broadcast to every thread."""
        tid = cuda.threadIdx.x
        sv[tid] = v
        si[tid] = idx
        cuda.syncthreads()
        stride = tpb // 2
        while stride > 0:
            if tid < stride:
                o = tid + stride
                if sv[o] > sv[tid] or (sv[o] == sv[tid] and si[o] < si[tid]):
                    sv[tid] = sv[o]
                    si[tid] = si[o]
            cuda.syncthreads()
            stride //= 2
        rv = sv[0]
        ri = si[0]
        cuda.syncthreads()
        return rv, ri

    @device
    def reduce_min(sv, v):
        tid = cuda.threadIdx.x
        sv[tid] = v
        cuda.syncthreads()
        stride = tpb // 2
        while stride > 0:
            if tid < stride and sv[tid + stride] < sv[tid]:
                sv[tid] = sv[tid + stride]
            cuda.syncthreads()
            stride //= 2
        rv = sv[0]
        cuda.syncthreads()
        return rv

    @device
    def reduce_max(sv, v):
        tid = cuda.threadIdx.x
        sv[tid] = v
        cuda.syncthreads()
        stride = tpb // 2
        while stride > 0:
            if tid < stride and sv[tid + stride] > sv[tid]:
                sv[tid] = sv[tid + stride]
            cuda.syncthreads()
            stride //= 2
        rv = sv[0]
        cuda.syncthreads()
        return rv

    @device
    def reduce_sum(sv, v):
        tid = cuda.threadIdx.x
        sv[tid] = v
        cuda.syncthreads()
        stride = tpb // 2
        while stride > 0:
            if tid < stride:
                sv[tid] += sv[tid + stride]
            cuda.syncthreads()
            stride //= 2
        rv = sv[0]
        cuda.syncthreads()
        return rv

    @device
    def argmin_delta(delta, r, sv, si):
        """First-index argmin of row *r* of Δ (the reference fallback scan)."""
        tid = cuda.threadIdx.x
        n = delta.shape[1]
        v = sent
        idx = n
        for k in range(tid, n, tpb):
            dv = delta[r, k]
            if dv < v:
                v = dv
                idx = k
        return argmin_pair(sv, si, v, idx)

    @device
    def flip_row(
        x, energy, delta, sig, storage, s, ell_cols, ell_data, indptr, indices, data, r, i
    ):
        """Cooperative Eq. 4/5 flip of bit *i* in row *r* (whole block).

        σ is read from the incrementally maintained int8 matrix; thread 0
        flips the bit and negates its σ entry before the neighbour update,
        so the strided loop sees post-flip signs — the same operand order
        as the CPU kernels (pads and the zero diagonal contribute 0).
        """
        tid = cuda.threadIdx.x
        d_i = delta[r, i]
        s_old = np.int64(sig[r, i])
        cuda.syncthreads()
        if tid == 0:
            energy[r] += d_i
            x[r, i] = x[r, i] ^ one8
            sig[r, i] = -sig[r, i]
        cuda.syncthreads()
        if storage == _STORAGE_DENSE:
            n = delta.shape[1]
            for j in range(tid, n, tpb):
                delta[r, j] += s[i, j] * (s_old * np.int64(sig[r, j]))
        elif storage == _STORAGE_ELL:
            width = ell_cols.shape[1]
            for q in range(tid, width, tpb):
                j = ell_cols[i, q]
                delta[r, j] += ell_data[i, q] * (s_old * np.int64(sig[r, j]))
        else:
            lo = indptr[i]
            hi = indptr[i + 1]
            for p in range(lo + tid, hi, tpb):
                j = indices[p]
                delta[r, j] += data[p] * (s_old * np.int64(sig[r, j]))
        cuda.syncthreads()
        if tid == 0:
            delta[r, i] = -d_i
        cuda.syncthreads()

    @device
    def fold_row(x, energy, delta, best_x, best_e, r, sv, si):
        """Single-scan best fold (BestTracker.fold), cooperative."""
        tid = cuda.threadIdx.x
        n = delta.shape[1]
        dmin, j = argmin_delta(delta, r, sv, si)
        e = energy[r]
        best = best_e[r]
        nb = e + dmin
        cuda.syncthreads()
        if dmin < 0 and nb < best:
            for k in range(tid, n, tpb):
                best_x[r, k] = x[r, k]
            cuda.syncthreads()
            if tid == 0:
                best_x[r, j] = best_x[r, j] ^ one8
                best_e[r] = nb
        elif e < best:
            for k in range(tid, n, tpb):
                best_x[r, k] = x[r, k]
            if tid == 0:
                best_e[r] = e
        cuda.syncthreads()

    @jit
    def sigma_init(x, sig):
        r = cuda.blockIdx.x
        tid = cuda.threadIdx.x
        n = x.shape[1]
        for k in range(tid, n, tpb):
            sig[r, k] = np.int8(2 * np.int64(x[r, k]) - 1)

    @jit
    def straight_phase(
        x,
        energy,
        delta,
        sig,
        storage,
        s,
        ell_cols,
        ell_data,
        indptr,
        indices,
        data,
        targets,
        stamps,
        stamp_on,
        clock,
        best_x,
        best_e,
        flips,
    ):
        r = cuda.blockIdx.x
        tid = cuda.threadIdx.x
        sv = cuda.shared.array(tpb, np.int64)
        si = cuda.shared.array(tpb, np.int64)
        n = x.shape[1]
        # the per-row loop bound is the exact Hamming distance to target
        c = np.int64(0)
        for k in range(tid, n, tpb):
            if x[r, k] != targets[r, k]:
                c += 1
        dist = reduce_sum(sv, c)
        for t in range(dist):
            # masked argmin over still-differing bits; diff ≡ (x != target)
            # throughout because every straight flip fixes one such bit
            v = sent
            idx = n
            for k in range(tid, n, tpb):
                if x[r, k] != targets[r, k]:
                    dv = delta[r, k]
                    if dv < v:
                        v = dv
                        idx = k
            _, mi = argmin_pair(sv, si, v, idx)
            flip_row(
                x, energy, delta, sig, storage, s, ell_cols, ell_data, indptr, indices, data, r, mi
            )
            if stamp_on != 0 and tid == 0:
                stamps[r, mi] = clock[r] + t
            fold_row(x, energy, delta, best_x, best_e, r, sv, si)
        if tid == 0:
            flips[r] = dist

    @jit
    def greedy_phase(
        x,
        energy,
        delta,
        sig,
        storage,
        s,
        ell_cols,
        ell_data,
        indptr,
        indices,
        data,
        stamps,
        stamp_on,
        clock,
        best_x,
        best_e,
        flips,
        truncated,
        max_iters,
    ):
        r = cuda.blockIdx.x
        tid = cuda.threadIdx.x
        sv = cuda.shared.array(tpb, np.int64)
        si = cuda.shared.array(tpb, np.int64)
        n = x.shape[1]
        f = 0
        for t in range(max_iters):
            dmin, j = argmin_delta(delta, r, sv, si)
            if dmin >= 0:
                break
            flip_row(
                x, energy, delta, sig, storage, s, ell_cols, ell_data, indptr, indices, data, r, j
            )
            if stamp_on != 0 and tid == 0:
                stamps[r, j] = clock[r] + t
            f += 1
        trunc = np.int64(0)
        if f >= max_iters:
            c = np.int64(0)
            for k in range(tid, n, tpb):
                if delta[r, k] < 0:
                    c = 1
            trunc = reduce_max(sv, c)
        if tid == 0:
            flips[r] = f
            truncated[r] = trunc != 0
        fold_row(x, energy, delta, best_x, best_e, r, sv, si)

    @jit
    def main_phase(
        kind,
        x,
        energy,
        delta,
        sig,
        storage,
        s,
        ell_cols,
        ell_data,
        indptr,
        indices,
        data,
        lanes,
        stamps,
        period,
        clock,
        use_tabu,
        stamp_on,
        schedule,
        thresholds,
        widths,
        sequence,
        cursor,
        best_x,
        best_e,
        iterations,
    ):
        r = cuda.blockIdx.x
        tid = cuda.threadIdx.x
        sv = cuda.shared.array(tpb, np.int64)
        si = cuda.shared.array(tpb, np.int64)
        sb = cuda.shared.array(1, np.int64)
        n = x.shape[1]
        seq_len = sequence.shape[0]
        for t in range(iterations):
            cut = clock[r] + t - period
            idx = np.int64(0)
            if kind == 0:  # maxmin-threshold
                all_usable = True
                if use_tabu != 0:
                    c = np.int64(0)
                    for k in range(tid, n, tpb):
                        if stamps[r, k] < cut:
                            c = 1
                    any_usable = reduce_max(sv, c)
                    # all-tabu row: full fallback, as in the reference
                    all_usable = any_usable == 0
                lv = sent
                hv = -sent
                for k in range(tid, n, tpb):
                    if all_usable or stamps[r, k] < cut:
                        v = delta[r, k]
                        if v < lv:
                            lv = v
                        if v > hv:
                            hv = v
                dmin_i = reduce_min(sv, lv)
                dmax_i = reduce_max(sv, hv)
                # thread 0 owns the row-scalar draw on lane column 0
                if tid == 0:
                    v0 = lane_next(lanes, r, 0)
                    u = np.float64((v0 * mult) >> u11) * dscale
                    frac = schedule[t]
                    dminf = np.float64(dmin_i)
                    dmaxf = np.float64(dmax_i)
                    ceiling = (1.0 - frac) * dminf + frac * dmaxf
                    d = dminf + u * (ceiling - dminf)
                    sb[0] = np.int64(math.floor(d))
                cuda.syncthreads()
                thr = sb[0]
                cuda.syncthreads()
                bk = np.int64(-1)
                bi = n
                for k in range(tid, n, tpb):
                    key = lane_key(lanes, r, k)
                    if delta[r, k] <= thr and (all_usable or stamps[r, k] < cut):
                        if key > bk:
                            bk = key
                            bi = k
                wk, wi = argmax_pair(sv, si, bk, bi)
                if wk >= 0:
                    idx = wi
                else:
                    _, idx = argmin_delta(delta, r, sv, si)
            elif kind == 1:  # cyclic-window
                w = widths[t]
                start = cursor[r]
                lv = sent
                li = w
                nonsent = np.int64(0)
                for q in range(tid, w, tpb):
                    k = (start + q) % n
                    v = delta[r, k]
                    if use_tabu != 0 and stamps[r, k] >= cut:
                        v = sent
                    if v != sent:
                        nonsent = 1
                    if v < lv:
                        lv = v
                        li = q
                _, local = argmin_pair(sv, si, lv, li)
                if use_tabu != 0:
                    any_nonsent = reduce_max(sv, nonsent)
                    if any_nonsent == 0:
                        # every window bit tabu: fall back to the raw window
                        lv = sent
                        li = w
                        for q in range(tid, w, tpb):
                            k = (start + q) % n
                            v = delta[r, k]
                            if v < lv:
                                lv = v
                                li = q
                        _, local = argmin_pair(sv, si, lv, li)
                idx = (start + local) % n
                cuda.syncthreads()
                if tid == 0:
                    cursor[r] = (start + w) % n
            elif kind == 2:  # random-candidate-min
                thr2 = thresholds[t]
                lv = sent
                li = n
                for k in range(tid, n, tpb):
                    key = lane_key(lanes, r, k)
                    if key < thr2 and (use_tabu == 0 or stamps[r, k] < cut):
                        dv = delta[r, k]
                        if dv < lv:
                            lv = dv
                            li = k
                _, mi = argmin_pair(sv, si, lv, li)
                if mi < n:
                    idx = mi
                else:
                    _, idx = argmin_delta(delta, r, sv, si)
            elif kind == 3:  # positive-min
                lv = sent
                for k in range(tid, n, tpb):
                    v = delta[r, k]
                    if v > 0 and v < lv:
                        lv = v
                posmin = reduce_min(sv, lv)
                any_nt = np.int64(0)
                if use_tabu != 0:
                    c = np.int64(0)
                    for k in range(tid, n, tpb):
                        if delta[r, k] <= posmin and stamps[r, k] < cut:
                            c = 1
                    any_nt = reduce_max(sv, c)
                bk = np.int64(-1)
                bi = n
                for k in range(tid, n, tpb):
                    key = lane_key(lanes, r, k)
                    cand = delta[r, k] <= posmin
                    if cand and use_tabu != 0 and any_nt != 0:
                        cand = stamps[r, k] < cut
                    if cand and key > bk:
                        bk = key
                        bi = k
                wk, wi = argmax_pair(sv, si, bk, bi)
                if wk >= 0:
                    idx = wi
                else:
                    _, idx = argmin_delta(delta, r, sv, si)
            else:  # fixed-sequence
                idx = sequence[t % seq_len]
            flip_row(
                x, energy, delta, sig, storage, s, ell_cols, ell_data, indptr, indices, data, r, idx
            )
            if stamp_on != 0 and tid == 0:
                stamps[r, idx] = clock[r] + t
            cuda.syncthreads()
            fold_row(x, energy, delta, best_x, best_e, r, sv, si)

    return {
        "sigma_init": sigma_init,
        "straight": straight_phase,
        "greedy": greedy_phase,
        "main": main_phase,
    }


#: host-side delegate singletons (stepwise flips, scans, resets)
_HOST_DENSE = NumpyDenseBackend()
_HOST_SPARSE = NumpySparseBackend()

_DUMMY_I64_1 = np.zeros(1, dtype=np.int64)
_DUMMY_I64_2 = np.zeros((1, 1), dtype=np.int64)
_DUMMY_F64_1 = np.zeros(1, dtype=np.float64)


class _CudaKernel:
    """Per-model kernel cache: a host delegate plus device coupling tables.

    The coupling upload happens exactly once per :meth:`CudaBackend.prepare`
    call (and hence once per :class:`~repro.backends.PreparedProblem` /
    ``ProblemCache`` entry).  Unknown attributes forward to the host
    delegate's kernel, so the stepwise host paths (per-flip updates, scans,
    resets) run unchanged on this cache.  ``device_tables`` re-uploads
    after a ``fork``: CUDA contexts are not inherited by child processes,
    so the process engine / federation islands refresh lazily on first use.
    """

    __slots__ = (
        "host",
        "host_backend",
        "storage",
        "pid",
        "d_s",
        "d_ell_cols",
        "d_ell_data",
        "d_indptr",
        "d_indices",
        "d_data",
    )

    def __init__(self, host, host_backend, storage: int) -> None:
        self.host = host
        self.host_backend = host_backend
        self.storage = storage
        self.pid = None
        self._upload()

    def _upload(self) -> None:
        dummy1 = cuda.to_device(_DUMMY_I64_1)
        dummy2 = cuda.to_device(_DUMMY_I64_2)
        self.d_s = dummy2
        self.d_ell_cols = dummy2
        self.d_ell_data = dummy2
        self.d_indptr = dummy1
        self.d_indices = dummy1
        self.d_data = dummy1
        if self.storage == _STORAGE_DENSE:
            self.d_s = cuda.to_device(
                np.ascontiguousarray(self.host.s, dtype=np.int64)
            )
        elif self.storage == _STORAGE_ELL:
            self.d_ell_cols = cuda.to_device(self.host.ell_cols)
            self.d_ell_data = cuda.to_device(self.host.ell_data)
        else:
            self.d_indptr = cuda.to_device(self.host.indptr)
            self.d_indices = cuda.to_device(self.host.indices)
            self.d_data = cuda.to_device(self.host.data)
        self.pid = os.getpid()

    def device_tables(self):
        """``(storage, *device arrays)`` for a kernel launch, fork-safe."""
        if self.pid != os.getpid():
            self._upload()
        return (
            self.storage,
            self.d_s,
            self.d_ell_cols,
            self.d_ell_data,
            self.d_indptr,
            self.d_indices,
            self.d_data,
        )

    def __getattr__(self, name):
        return getattr(self.host, name)


class _DeviceMirror:
    """Persistent device twin of one state's ``(B, n)`` buffers.

    Owned by the state object (``BatchDeltaState.device``), so states
    cached per :class:`~repro.gpu.virtual_gpu.VirtualGPU` keep their
    device allocations across launches; phases re-stage contents but
    never re-allocate.  Pid-stamped for the same fork reason as the
    kernel cache.
    """

    __slots__ = (
        "batch",
        "n",
        "pid",
        "d_x",
        "d_sig",
        "d_energy",
        "d_delta",
        "d_stamps",
        "d_best_x",
        "d_best_e",
        "d_lanes",
        "d_targets",
        "d_flips",
        "d_trunc",
        "d_cursor",
        "d_clock",
    )

    def __init__(self, batch: int, n: int) -> None:
        self.batch = batch
        self.n = n
        self._allocate()

    def _allocate(self) -> None:
        b, n = self.batch, self.n
        self.d_x = cuda.device_array((b, n), dtype=np.uint8)
        self.d_sig = cuda.device_array((b, n), dtype=np.int8)
        self.d_energy = cuda.device_array(b, dtype=np.int64)
        self.d_delta = cuda.device_array((b, n), dtype=np.int64)
        self.d_stamps = cuda.device_array((b, n), dtype=np.int64)
        self.d_best_x = cuda.device_array((b, n), dtype=np.uint8)
        self.d_best_e = cuda.device_array(b, dtype=np.int64)
        self.d_lanes = cuda.device_array((b, n), dtype=np.uint64)
        self.d_targets = cuda.device_array((b, n), dtype=np.uint8)
        self.d_flips = cuda.device_array(b, dtype=np.int64)
        self.d_trunc = cuda.device_array(b, dtype=np.bool_)
        self.d_cursor = cuda.device_array(b, dtype=np.int64)
        self.d_clock = cuda.device_array(b, dtype=np.int64)
        self.pid = os.getpid()


class CudaBackend(ComputeBackend):
    """GPU phase kernels via ``numba.cuda`` (hardware or CUDA simulator).

    Fused phases launch one cooperative kernel per phase (block-per-row);
    the two stepwise calls — per-flip updates and resets — delegate to
    the matching host backend on the authoritative host arrays, so the
    stepwise reference path stays fast and trivially bit-identical.
    """

    name = "cuda"

    @classmethod
    def is_available(cls) -> bool:
        if cuda is None:
            return False
        try:
            return bool(cuda.is_available())
        except Exception:  # pragma: no cover - driver probe failure
            return False

    @classmethod
    def unavailable_reason(cls) -> str | None:
        if cuda is None:
            return f"numba is not installed ({_CUDA_IMPORT_ERROR})"
        try:
            if cuda.is_available():
                return None
        except Exception as exc:  # pragma: no cover - driver probe failure
            return f"CUDA probe failed: {exc}"
        return (
            "no CUDA device detected "
            "(set NUMBA_ENABLE_CUDASIM=1 for the simulator)"
        )

    def prepare(self, model) -> _CudaKernel:
        if not self.is_available():
            raise BackendUnavailableError(
                f"backend 'cuda' is unavailable: {self.unavailable_reason()}"
            )
        couplings = model.couplings
        if sp.issparse(couplings):
            host = _HOST_SPARSE.prepare(model)
            storage = (
                _STORAGE_ELL if host.ell_cols is not None else _STORAGE_CSR
            )
            return _CudaKernel(host, _HOST_SPARSE, storage)
        return _CudaKernel(
            _HOST_DENSE.prepare(model), _HOST_DENSE, _STORAGE_DENSE
        )

    # -- host-side delegation (stepwise path, resets) ----------------------
    def flip(self, state, idx: np.ndarray, active: np.ndarray | None = None) -> None:
        state.kernel.host_backend.flip(state, idx, active)

    def _compute_from_x(self, state) -> None:
        state.kernel.host_backend._compute_from_x(state)

    def _invalidate_derived(self, state) -> None:
        state.kernel.host_backend._invalidate_derived(state)

    # -- staging -----------------------------------------------------------
    def _mirror(self, state) -> _DeviceMirror:
        mirror = state.device
        n = state.x.shape[1]
        if (
            not isinstance(mirror, _DeviceMirror)
            or mirror.batch != state.batch
            or mirror.n != n
        ):
            mirror = _DeviceMirror(state.batch, n)
            state.device = mirror
        elif mirror.pid != os.getpid():
            mirror._allocate()
        return mirror

    @staticmethod
    def _part_state(state, lo: int, hi: int):
        """Rows ``[lo, hi)`` of *state* as a state that keeps its device
        mirror across phases and launches: the whole span is *state*
        itself, any other window is made once and cached in its scratch
        (``reset`` never reallocates the buffers it slices)."""
        if (lo, hi) == (0, state.batch):
            return state
        key = ("cuda-window", lo, hi)
        window = state._scratch.get(key)
        if window is None:
            window = state._scratch[key] = state.row_window(lo, hi)
        return window

    def _stage_in(self, state, tabu, tracker, mirror, tpb: int, kernels) -> None:
        mirror.d_x.copy_to_device(state.x)
        mirror.d_energy.copy_to_device(state.energy)
        mirror.d_delta.copy_to_device(state.delta)
        mirror.d_stamps.copy_to_device(tabu.stamps)
        mirror.d_best_x.copy_to_device(tracker.best_x)
        mirror.d_best_e.copy_to_device(tracker.best_energy)
        # one tabu clock per row: a scalar clock broadcast, or the
        # super-launch's vector clock as it is (DESIGN.md §12)
        mirror.d_clock.copy_to_device(
            np.ascontiguousarray(np.broadcast_to(tabu.clock, (state.batch,)), dtype=np.int64)
        )
        kernels["sigma_init"][state.batch, tpb](mirror.d_x, mirror.d_sig)

    def _stage_out(self, state, tabu, tracker, mirror) -> None:
        mirror.d_x.copy_to_host(state.x)
        mirror.d_energy.copy_to_host(state.energy)
        mirror.d_delta.copy_to_host(state.delta)
        mirror.d_stamps.copy_to_host(tabu.stamps)
        mirror.d_best_x.copy_to_host(tracker.best_x)
        mirror.d_best_e.copy_to_host(tracker.best_energy)
        # host-side incremental caches (the sparse σ matrix) are now stale
        self._invalidate_derived(state)

    # -- fused phase runners (one kernel launch per phase) -----------------
    def run_straight_phase(self, state, targets, tabu, tracker) -> np.ndarray:
        tpb = _threads_per_block()
        kernels = _get_kernels(tpb)
        mirror = self._mirror(state)
        tables = state.kernel.device_tables()
        self._stage_in(state, tabu, tracker, mirror, tpb, kernels)
        mirror.d_targets.copy_to_device(
            np.ascontiguousarray(targets, dtype=np.uint8)
        )
        kernels["straight"][state.batch, tpb](
            mirror.d_x,
            mirror.d_energy,
            mirror.d_delta,
            mirror.d_sig,
            *tables,
            mirror.d_targets,
            mirror.d_stamps,
            1 if tabu.enabled else 0,
            mirror.d_clock,
            mirror.d_best_x,
            mirror.d_best_e,
            mirror.d_flips,
        )
        flips = mirror.d_flips.copy_to_host()
        self._stage_out(state, tabu, tracker, mirror)
        tabu.advance(int(flips.max(initial=0)))
        return flips

    def run_greedy_phase(
        self, state, tabu, tracker, max_iters=None
    ) -> tuple[np.ndarray, np.ndarray]:
        if max_iters is None:
            max_iters = greedy_iteration_cap(state.x.shape[1])
        tpb = _threads_per_block()
        kernels = _get_kernels(tpb)
        mirror = self._mirror(state)
        tables = state.kernel.device_tables()
        self._stage_in(state, tabu, tracker, mirror, tpb, kernels)
        kernels["greedy"][state.batch, tpb](
            mirror.d_x,
            mirror.d_energy,
            mirror.d_delta,
            mirror.d_sig,
            *tables,
            mirror.d_stamps,
            1 if tabu.enabled else 0,
            mirror.d_clock,
            mirror.d_best_x,
            mirror.d_best_e,
            mirror.d_flips,
            mirror.d_trunc,
            int(max_iters),
        )
        flips = mirror.d_flips.copy_to_host()
        truncated = mirror.d_trunc.copy_to_host()
        self._stage_out(state, tabu, tracker, mirror)
        count = int(np.count_nonzero(truncated))
        if count:
            _warn_truncated(count, max_iters)
        tabu.advance(int(flips.max(initial=0)))
        return flips, truncated

    def run_main_phase(self, state, spec, iterations: int, rng, tabu, tracker) -> np.ndarray:
        if not isinstance(spec, SelectionSpec):
            # a mixed-algorithm super-launch span (DESIGN.md §12): rows are
            # independent in a main phase, so one kernel launch per
            # row-range part is bit-identical to the lockstep interleave
            for lo, hi, part, lanes in spec:
                self.run_main_phase(
                    self._part_state(state, lo, hi),
                    part,
                    iterations,
                    lanes,
                    tabu.window(lo, hi),
                    tracker.window(lo, hi),
                )
            self._invalidate_derived(state)
            return np.full(state.batch, iterations, dtype=np.int64)
        tpb = _threads_per_block()
        kernels = _get_kernels(tpb)
        mirror = self._mirror(state)
        tables = state.kernel.device_tables()
        self._stage_in(state, tabu, tracker, mirror, tpb, kernels)
        if spec.uses_rng:
            mirror.d_lanes.copy_to_device(rng.state)
        if spec.cursor is not None:
            mirror.d_cursor.copy_to_device(spec.cursor)
        schedule = spec.schedule if spec.schedule is not None else _DUMMY_F64_1
        thresholds = (
            spec.thresholds if spec.thresholds is not None else _DUMMY_I64_1
        )
        widths = spec.widths if spec.widths is not None else _DUMMY_I64_1
        sequence = spec.sequence if spec.sequence is not None else _DUMMY_I64_1
        kernels["main"][state.batch, tpb](
            _KIND_CODES[spec.kind],
            mirror.d_x,
            mirror.d_energy,
            mirror.d_delta,
            mirror.d_sig,
            *tables,
            mirror.d_lanes,
            mirror.d_stamps,
            tabu.period,
            mirror.d_clock,
            1 if (spec.supports_tabu and tabu.enabled) else 0,
            1 if tabu.enabled else 0,
            cuda.to_device(np.ascontiguousarray(schedule)),
            cuda.to_device(np.ascontiguousarray(thresholds)),
            cuda.to_device(np.ascontiguousarray(widths)),
            cuda.to_device(np.ascontiguousarray(sequence)),
            mirror.d_cursor,
            mirror.d_best_x,
            mirror.d_best_e,
            int(iterations),
        )
        if spec.uses_rng:
            mirror.d_lanes.copy_to_host(rng.state)
        if spec.cursor is not None:
            mirror.d_cursor.copy_to_host(spec.cursor)
        self._stage_out(state, tabu, tracker, mirror)
        tabu.advance(iterations)
        return np.full(state.batch, iterations, dtype=np.int64)
