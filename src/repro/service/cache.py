"""Content-addressed cache of prepared problems (DESIGN.md §8).

Standing a QUBO instance up on the fleet costs more than solving one
launch of it: the backend builds coupling views, CSR/ELL index structures,
the closed-form traversal tables, and (for the cuda backend) the
device-resident coupling tables — so a cache hit also skips the
host→device coupling upload entirely (DESIGN.md §10).  In a multi-tenant
service the same instance arrives again and again — retries, parameter
sweeps, many clients submitting the same benchmark — so the service keys
every prepared representation by the *content* of the Q matrix and reuses
it across submissions.

The key is a SHA-256 over the canonical upper-triangular matrix bytes
(plus shape/dtype), paired with the resolved backend name — two backends
prepare different device representations of the same matrix, so they are
distinct entries.  Entries are :class:`~repro.backends.PreparedProblem`
handles; eviction is LRU by *use* (a hit refreshes recency).  The cache is
thread-safe: clients submit from arbitrary threads while the service
scheduler prepares on its own.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp

from repro.backends import PreparedProblem, resolve_backend

__all__ = ["CacheStats", "ProblemCache", "problem_key"]


def problem_key(model) -> str:
    """SHA-256 content hash of *model*'s canonical coupling/linear views.

    Two models built from different (but energy-equivalent) raw matrices
    hash equal exactly when their canonical symmetric couplings and
    linear terms agree — the invariant every layer below the solver
    consumes.  Works for dense and CSR-coupled models alike.
    """
    couplings = model.couplings
    if sp.issparse(couplings):  # SparseQUBOModel keeps couplings in CSR
        csr = couplings.tocsr()
        parts = (
            np.asarray(csr.indptr),
            np.asarray(csr.indices),
            np.ascontiguousarray(csr.data),
        )
        storage = "csr"
    else:
        parts = (np.ascontiguousarray(couplings),)
        storage = "dense"
    digest = hashlib.sha256()
    digest.update(f"{model.n}:{model.dtype.str}:{storage}".encode())
    digest.update(np.ascontiguousarray(model.linear).tobytes())
    for arr in parts:
        digest.update(arr.tobytes())
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Cumulative hit/miss/eviction counters of one :class:`ProblemCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class ProblemCache:
    """LRU cache: (Q-matrix hash, backend name) → :class:`PreparedProblem`."""

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: OrderedDict[tuple[str, str], PreparedProblem] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def prepare(self, model, backend=None) -> PreparedProblem:
        """The prepared handle for *model*, building and caching on miss.

        *backend* accepts everything ``resolve_backend`` does; the key
        uses the *resolved* backend name, so ``None``/"auto" requests hit
        entries prepared under the same auto choice.
        """
        resolved = resolve_backend(backend, model)
        key = (problem_key(model), resolved.name)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return entry
        # preparation happens outside the lock (it can be expensive);
        # concurrent misses on the same key race benignly — last one in
        # wins and the handles are interchangeable
        prepared = PreparedProblem(model, resolved, resolved.prepare(model))
        with self._lock:
            self.stats.misses += 1
            self._entries[key] = prepared
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return prepared

    def kernels(self) -> list:
        """The kernel caches of the resident entries — a lane keeps the
        pack buffers built on one of them (DESIGN.md §12)."""
        with self._lock:
            return [entry.kernel for entry in self._entries.values()]

    def contains(self, model, backend=None) -> bool:
        """True when a prepared handle is resident (does not touch stats)."""
        resolved = resolve_backend(backend, model)
        with self._lock:
            return (problem_key(model), resolved.name) in self._entries

    def clear(self) -> None:
        """Drop every entry (stats are preserved)."""
        with self._lock:
            self._entries.clear()
