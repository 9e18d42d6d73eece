"""Pluggable compute backends for the batch-search hot path.

The registry maps names to :class:`~repro.backends.base.ComputeBackend`
singletons.  Four implementations ship here, and every one of them runs
a virtual GPU's launch as one super-launch (DESIGN.md §12):

* ``native`` — ``numpy-sparse`` with each phase one C call that walks
  one row per outer loop and releases the GIL (DESIGN.md §14); built on
  first use, and unavailable without a C compiler,
* ``numpy-dense`` — vectorized dense kernels (O(B·n) per flip),
* ``numpy-sparse`` — CSR kernels (O(B·degree) per flip),
* ``cuda`` — real GPU phase kernels via ``numba.cuda`` (or the CUDA
  simulator under ``NUMBA_ENABLE_CUDASIM=1``); cleanly absent without
  numba or a device.

The optional ``cuda`` backend is registered **lazily**: the name is
always known, but its module — and hence the optional package it probes
for — is only imported when a backend function first needs it, so a
broken or missing dependency can never break ``import repro``.

Selection (first match wins):

1. an explicit backend — a name or instance via ``DABSConfig.backend``,
   ``BatchDeltaState(backend=...)`` or the CLI ``--backend`` flag,
2. the ``REPRO_BACKEND`` environment variable,
3. ``"auto"`` — ``native`` for every model when it is available;
   otherwise CSR-coupled models use ``numpy-sparse``; dense models
   at/below :data:`AUTO_SPARSE_DENSITY` density (and at least
   :data:`AUTO_SPARSE_MIN_N` bits) also route to the CSR kernels, which is
   bit-exact and much faster for G-set/Pegasus-style graphs; everything
   else uses ``numpy-dense``.

Every resolution first refuses a fractional-weight model with one
``ValueError`` (:func:`~repro.core.qubo.require_integer_weights`): the
kernels are int64 only, and every kernel consumer resolves here.

Requesting an unavailable backend by name falls back to the ``auto`` choice
with a :class:`RuntimeWarning`; :func:`get_backend` instead raises
:class:`~repro.backends.base.BackendUnavailableError` for callers that need
the hard failure (e.g. the parity tests).  Both error paths name the
requested backend and list the registered and currently-available ones.
"""

from __future__ import annotations

import importlib
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp

from repro.backends.base import (
    INT_SENTINEL,
    BackendFallbackWarning,
    BackendUnavailableError,
    ComputeBackend,
    GreedyTruncationWarning,
    masked_argmin,
)
from repro.backends.spec import SelectionSpec
from repro.backends.numpy_dense import NumpyDenseBackend
from repro.backends.numpy_sparse import NumpySparseBackend
from repro.backends.native import NativeBackend

__all__ = [
    "AUTO_SPARSE_DENSITY",
    "AUTO_SPARSE_MIN_N",
    "BackendFallbackWarning",
    "BackendUnavailableError",
    "ComputeBackend",
    "CudaBackend",
    "GreedyTruncationWarning",
    "INT_SENTINEL",
    "NativeBackend",
    "PreparedProblem",
    "SelectionSpec",
    "NumpyDenseBackend",
    "NumpySparseBackend",
    "auto_backend_name",
    "available_backends",
    "backend_names",
    "fallback_backend",
    "get_backend",
    "masked_argmin",
    "pack_compatibility_key",
    "prepare_problem",
    "register_backend",
    "resolve_backend",
    "validate_backend_name",
]

#: ``auto`` routes dense models at/below this coupling density to CSR.
AUTO_SPARSE_DENSITY = 0.05
#: ... but only from this size on (below it, dense vectorization wins).
AUTO_SPARSE_MIN_N = 256

#: environment variable consulted when no explicit backend is given
_ENV_VAR = "REPRO_BACKEND"

_REGISTRY: dict[str, ComputeBackend] = {}

#: optional backends: name → (module, class); imported on first use so a
#: missing optional dependency never breaks ``import repro``
_LAZY_BACKENDS: dict[str, tuple[str, str]] = {
    "cuda": ("repro.backends.cuda", "CudaBackend"),
}


def register_backend(cls: type[ComputeBackend]) -> type[ComputeBackend]:
    """Register a backend class under ``cls.name`` (usable as a decorator).

    Unavailable backends register too — they surface in :func:`backend_names`
    with a reason, and resolution falls back cleanly.
    """
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty name")
    _REGISTRY[cls.name] = cls()
    return cls


def _lookup(name: str) -> ComputeBackend | None:
    """The singleton for *name*, importing a lazy backend module if needed."""
    backend = _REGISTRY.get(name)
    if backend is not None:
        return backend
    lazy = _LAZY_BACKENDS.get(name)
    if lazy is None:
        return None
    module, attr = lazy
    register_backend(getattr(importlib.import_module(module), attr))
    return _REGISTRY[name]


def backend_names() -> tuple[str, ...]:
    """All registered backend names, available or not (no imports)."""
    return tuple(sorted(set(_REGISTRY) | set(_LAZY_BACKENDS)))


def available_backends() -> tuple[str, ...]:
    """Names of the backends whose runtime dependencies are present."""
    return tuple(
        name for name in backend_names() if _lookup(name).is_available()
    )


def _known_backends_detail() -> str:
    """The parenthetical every unknown/unavailable error carries."""
    return (
        f"registered: {', '.join(backend_names())}; "
        f"available: {', '.join(available_backends())}"
    )


def validate_backend_name(name: str) -> None:
    """Strict check of a backend name (``"auto"`` or a registered name).

    Raises ``ValueError`` with the registry's canonical message — the one
    place the known-name policy lives; the CLI reuses it for eager
    ``REPRO_BACKEND`` validation.
    """
    if name != "auto" and name not in backend_names():
        raise ValueError(
            f"unknown backend {name!r} ({_known_backends_detail()})"
        )


def get_backend(name: str) -> ComputeBackend:
    """Look up a backend by exact name; hard-fails when unavailable."""
    backend = _lookup(name)
    if backend is None:
        raise ValueError(
            f"unknown backend {name!r} ({_known_backends_detail()})"
        )
    if not backend.is_available():
        raise BackendUnavailableError(
            f"backend {name!r} is unavailable: {backend.unavailable_reason()} "
            f"({_known_backends_detail()})"
        )
    return backend


def auto_backend_name(model) -> str:
    """The ``auto`` rule: the native kernels when they build, else pick
    the NumPy kernels by coupling storage and density."""
    if _REGISTRY[NativeBackend.name].is_available():
        return NativeBackend.name
    couplings = model.couplings
    if sp.issparse(couplings):
        return NumpySparseBackend.name
    if model.n >= AUTO_SPARSE_MIN_N:
        possible = model.n * (model.n - 1) // 2
        if possible and model.num_interactions / possible <= AUTO_SPARSE_DENSITY:
            return NumpySparseBackend.name
    return NumpyDenseBackend.name


def resolve_backend(spec, model) -> ComputeBackend:
    """Resolve a backend spec against *model*.

    A fractional-weight *model* raises ``ValueError`` whatever *spec*
    is.  *spec* may be a :class:`ComputeBackend` instance (returned
    as-is), a registered name, ``"auto"``, or ``None`` — which consults
    the ``REPRO_BACKEND`` environment variable and then the ``auto`` rule.
    A named-but-unavailable backend falls back to the ``auto`` choice with
    a :class:`RuntimeWarning`.  Env-derived problems — an unknown name, or
    ``numpy-dense`` on a CSR model too large to densify — also warn and
    fall back rather than raise: the env var is a process-wide hint and
    must not break unrelated consumers.  An explicitly passed unknown name
    still raises ``ValueError``.
    """
    # a function-level import: repro.core imports this package
    from repro.core.qubo import require_integer_weights

    require_integer_weights(model)
    if isinstance(spec, ComputeBackend):
        return spec
    name = spec
    from_env = False
    if name is None:
        env = os.environ.get(_ENV_VAR, "").strip()
        name = env or "auto"
        from_env = bool(env)
    if name == "auto":
        return _lookup(auto_backend_name(model))
    backend = _lookup(name)
    if backend is None:
        if from_env:
            fallback = auto_backend_name(model)
            warnings.warn(
                f"{_ENV_VAR}={name!r} names an unknown backend "
                f"({_known_backends_detail()}); falling back to {fallback!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            return _lookup(fallback)
        raise ValueError(
            f"unknown backend {name!r} ({_known_backends_detail()})"
        )
    if not backend.is_available():
        fallback = auto_backend_name(model)
        warnings.warn(
            f"backend {name!r} is unavailable "
            f"({backend.unavailable_reason()}); falling back to {fallback!r}",
            RuntimeWarning,
            stacklevel=2,
        )
        return _lookup(fallback)
    if from_env and not backend.supports(model):
        fallback = auto_backend_name(model)
        warnings.warn(
            f"{_ENV_VAR}={name!r} would densify model {model.name!r}; "
            f"falling back to {fallback!r}",
            RuntimeWarning,
            stacklevel=2,
        )
        return _lookup(fallback)
    return backend


def fallback_backend(current, model) -> ComputeBackend | None:
    """The backend a failing *current* backend degrades to, or None.

    Candidates, in order: the ``auto`` choice for *model*, then
    ``numpy-dense``, then ``numpy-sparse`` — skipping *current* itself and
    the backends built on it (``native`` inherits ``numpy-sparse``'s
    ``prepare`` and ``flip``, so it would fail as a failing
    ``numpy-sparse`` does), so a failing ``numpy-dense`` can still
    degrade to the CSR kernels.  Only
    available backends that :meth:`~ComputeBackend.supports` *model*
    qualify; the NumPy pair has no runtime dependencies, so in practice a
    fallback always exists unless *current* is the only one (a large CSR
    model on ``numpy-sparse``).
    """
    current_name = getattr(current, "name", None)
    candidates = [
        auto_backend_name(model),
        NumpyDenseBackend.name,
        NumpySparseBackend.name,
    ]
    for name in candidates:
        if name == current_name:
            continue
        backend = _lookup(name)
        if backend is None or isinstance(backend, type(current)):
            continue
        if backend.is_available() and backend.supports(model):
            return backend
    return None


@dataclass(frozen=True)
class PreparedProblem:
    """A backend-resident, ready-to-launch representation of one model.

    The handle bundles the resolved backend with its per-model kernel
    cache (coupling views, ELL padding, device-resident coupling tables
    for the ``cuda`` backend — whatever
    :meth:`ComputeBackend.prepare` built), which is the expensive,
    read-only part of standing a problem up on a device.  Solvers accept
    one via ``DABSSolver(prepared=...)`` and skip preparation entirely;
    the service's content-addressed :class:`~repro.service.ProblemCache`
    stores these keyed by the Q-matrix hash so repeat submissions of the
    same instance reuse the resident matrices (for ``cuda``, a cache hit
    skips the host→device coupling upload).

    The kernel cache is immutable after :meth:`~ComputeBackend.prepare`
    (the backend contract), so one handle is safely shared by any number
    of concurrent solvers and worker threads.
    """

    #: the model this handle was prepared from
    model: object
    #: the resolved (available) backend singleton
    backend: ComputeBackend
    #: the backend's per-model kernel cache (``prepare()``'s result)
    kernel: object

    def matches(self, model) -> bool:
        """True when the handle's kernels evaluate exactly *model*.

        Identity is the fast path; otherwise the canonical coupling and
        linear views are compared by content, so a handle prepared from
        an equivalent model object (e.g. a cache hit) is accepted while
        a same-size different instance is rejected.
        """
        mine = self.model
        if mine is model:
            return True
        if mine.n != model.n:
            return False
        if not np.array_equal(
            np.asarray(mine.linear), np.asarray(model.linear)
        ):
            return False
        a, b = mine.couplings, model.couplings
        if sp.issparse(a) or sp.issparse(b):
            if not (sp.issparse(a) and sp.issparse(b)):
                return False
            return (a != b).nnz == 0
        return np.array_equal(a, b)


def prepare_problem(model, backend=None) -> PreparedProblem:
    """Resolve *backend* against *model* and build its kernel cache once.

    *backend* accepts everything :func:`resolve_backend` does (instance,
    name, ``"auto"``, ``None`` → env var → auto rule).
    """
    resolved = resolve_backend(backend, model)
    return PreparedProblem(model, resolved, resolved.prepare(model))


def pack_compatibility_key(backend, kernel, model, search_config):
    """Key under which launches may be coalesced into one super-launch.

    Two launches are pack-compatible (DESIGN.md §12) when they run the
    same backend singleton over the same prepared kernel cache — i.e. the
    same :class:`PreparedProblem` identity, which the service's problem
    cache shares across cache-hit submissions — with the same ``n`` and
    the same batch-search phase configuration.  Identity (not content)
    comparison is deliberate: distinct kernels never fuse, so a degraded
    device's rebuilt kernel simply stops matching its former pack-mates.
    Every backend's phase runners take a per-row tabu clock, and a
    virtual GPU only holds integer models, so every launch has a key.
    """
    return (id(backend), id(kernel), int(model.n), search_config)


def __getattr__(name: str):
    """Lazy re-export of the optional backend class (PEP 562)."""
    if name == "CudaBackend":
        from repro.backends.cuda import CudaBackend

        return CudaBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


register_backend(NativeBackend)
register_backend(NumpyDenseBackend)
register_backend(NumpySparseBackend)
