"""Native backend: numpy-sparse with each phase one GIL-free C call.

``prepare`` and the stepwise ``flip`` are numpy-sparse's; the Δ/energy
reset and the three phase bodies are one call each into ``native.c``,
which spreads the rows over the CPUs the process may run on (DESIGN.md
§14).  A call's pointer arguments are checked once per state facade and
kept there (:class:`_Binding`), so a call converts only its own arrays.
The library is built on first use, never at ``import repro``,
with ``$CC`` (else ``sysconfig``'s ``CC``) into ``$XDG_CACHE_HOME/repro``
(default ``~/.cache/repro``), keyed by the source, the compiler and its
version, the flags and the host's CPU flags.  A build is moved into place with
``os.replace`` under a file lock, and a sidecar digest is checked before
every load, so a truncated library is rebuilt rather than loaded.
Without a working compiler the backend is unavailable.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.backends.base import BackendUnavailableError, _warn_truncated, greedy_iteration_cap
from repro.backends.numpy_sparse import NumpySparseBackend
from repro.backends.spec import (
    KIND_CYCLIC_WINDOW,
    KIND_FIXED_SEQUENCE,
    KIND_MAXMIN_THRESHOLD,
    KIND_POSITIVE_MIN,
    KIND_RANDOM_CANDIDATE_MIN,
)

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts build unlocked
    fcntl = None

__all__ = ["NativeBackend"]

_SOURCE = Path(__file__).with_name("native.c")
#: never -ffast-math, and no FMA contraction: MaxMin's float64 threshold
#: must round as NumPy's separate multiply and add do; on x86 the row
#: passes use 512-bit vectors where the CPU has them
_FLAGS = (
    "-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared", "-pthread",
    *(("-mprefer-vector-width=512",) if platform.machine() in ("x86_64", "AMD64") else ()),
)
_LIBS = ("-lm",)
#: ``repro_native_abi()`` of the source this module drives
_ABI = 5
#: the main-phase kinds in the order of native.c's kind codes
_KINDS = (KIND_MAXMIN_THRESHOLD, KIND_CYCLIC_WINDOW, KIND_RANDOM_CANDIDATE_MIN,
          KIND_POSITIVE_MIN, KIND_FIXED_SEQUENCE)
#: a search cell's row (native.c): the P_* fields of a main-phase part
#: (rows, the lowered rule's seven, cursor, lanes), then the C_* fields a
#: cell adds: main-phase length, TwoNeighbor flag, and the greedy and main
#: phases, which the search writes
_C_GREEDIES, _C_MAINS = 13, 14

_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
#: rows, n, the CSR triple, x, energy, Δ
_STATE = (_I64, _I64, *[_PTR] * 6)
#: the state's, then stamps, stamp_on, clock, best x/energy
_COMMON = (*_STATE, _PTR, _I64, _PTR, _PTR, _PTR)
#: entry point → (return type, argument types); a reset or phase returns
#: nonzero when it cannot allocate its threads' scratch rows, and
#: ``repro_threads(rows, work)`` is the thread count of a call
_SIGNATURES = {
    "repro_reset": (_I64, (*_STATE, _PTR)),
    "repro_straight": (_I64, (*_COMMON, _PTR, _PTR)),
    "repro_greedy": (_I64, (*_COMMON, _I64, _PTR, _PTR)),
    "repro_main": (_I64, (*_COMMON, _I64, _I64, _PTR)),
    "repro_search": (_I64, (*_COMMON, _PTR, _PTR, _PTR, _I64, _I64, _I64, _I64, _PTR)),
    "repro_threads": (_I64, (_I64, _I64)),
}

_lock = threading.Lock()
#: the environment's raw CC, XDG_CACHE_HOME and HOME → the loaded library,
#: or why there is none; keyed on the raw strings because a served job asks
#: ``is_available()`` several times, and parsing them costs more than the
#: lookup
_libraries: dict[tuple, object] = {}


def _library():
    """The library for the current ``CC`` and cache directory, or a
    string saying why there is none (built once per process and key)."""
    environ = os.environ
    raw = (environ.get("CC"), environ.get("XDG_CACHE_HOME"), environ.get("HOME"))
    lib = _libraries.get(raw)
    if lib is not None:
        return lib
    with _lock:
        if raw not in _libraries:
            cc = tuple(shlex.split(raw[0] or sysconfig.get_config_var("CC") or "cc"))
            base = raw[1] or os.path.join(os.path.expanduser("~"), ".cache")
            try:
                _libraries[raw] = _load(cc, Path(base) / "repro")
            except (OSError, AttributeError, subprocess.SubprocessError) as exc:
                _libraries[raw] = f"cannot build the native kernels with {' '.join(cc)!r}: {exc}"
        return _libraries[raw]


def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            return next((line for line in info if line.startswith(("flags", "Features"))), "")
    except OSError:
        return platform.processor()


def _load(cc: tuple[str, ...], cache: Path):
    version = subprocess.run(
        [*cc, "--version"], capture_output=True, text=True, timeout=60, check=True
    ).stdout
    key = (_SOURCE.read_bytes(), cc, version, _FLAGS, _LIBS, platform.machine(), _cpu_flags())
    path = cache / f"native-{hashlib.sha256(repr(key).encode()).hexdigest()[:32]}.so"
    lib = _open(path)
    if lib is None:
        cache.mkdir(parents=True, exist_ok=True)
        # one build per library across processes; closing releases the lock
        with open(cache / f"{path.name}.lock", "a") as lock:
            if fcntl is not None:
                fcntl.flock(lock, fcntl.LOCK_EX)
            lib = _open(path)
            if lib is None:
                _build(cc, path)
                lib = _open(path)
    if lib is None or lib.repro_native_abi() != _ABI:
        raise OSError(f"{path} does not load")
    for name, (restype, argtypes) in _SIGNATURES.items():
        func = getattr(lib, name)
        func.restype, func.argtypes = restype, argtypes
    return lib


def _digest_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _open(path: Path):
    """The library at *path* if its sidecar digest matches, else None."""
    try:
        if path.with_suffix(".sha256").read_text().strip() != _digest_of(path):
            return None
    except OSError:
        return None
    lib = ctypes.CDLL(str(path))
    lib.repro_native_abi.restype, lib.repro_native_abi.argtypes = _I64, ()
    return lib


def _build(cc: tuple[str, ...], path: Path) -> None:
    """Compile to a temporary file, then move it and its digest into place."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".so")
    os.close(fd)
    try:
        done = subprocess.run(
            [*cc, *_FLAGS, "-o", tmp, str(_SOURCE), *_LIBS],
            capture_output=True, text=True, timeout=300,
        )
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines()
            raise OSError(lines[-1] if lines else f"exit code {done.returncode}")
        digest = _digest_of(Path(tmp))
        os.replace(tmp, path)
        Path(tmp).write_text(digest)
        os.replace(tmp, path.with_suffix(".sha256"))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _ptr(array: np.ndarray, dtype=np.int64, shape=None) -> int:
    """The data address of a C-contiguous *array* of *dtype* (and *shape*)."""
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise TypeError(f"native kernels need C-contiguous {np.dtype(dtype)}, got {array.dtype}")
    if shape is not None and array.shape != shape:
        raise ValueError(f"native kernels need shape {shape}, got {array.shape}")
    return array.ctypes.data


class _Binding:
    """The checked pointer arguments of the native calls over one state
    facade's rows, kept in its ``device`` slot, so they live as long as
    the facade does.

    ``reset`` holds the reset entry's arguments.  ``head`` and ``tail``
    hold a phase entry's common arguments before and after the clock, for
    the tabu and tracker of the last phase call.  The binding holds every
    array it took a pointer from, and :meth:`fits`/:meth:`fits_phase`
    compare them by identity on each call, so a rebound buffer is bound
    again rather than written through a stale pointer.
    """

    __slots__ = ("rows", "held", "state", "reset", "phase", "head", "tail")

    def __init__(self, state) -> None:
        kernel = state.kernel
        self.held = (kernel, state.x, state.energy, state.delta)
        self.rows, n = shape = state.x.shape
        self.state = (
            self.rows,
            n,
            _ptr(kernel.indptr, shape=(n + 1,)),
            _ptr(kernel.indices),
            _ptr(kernel.data),
            _ptr(state.x, np.uint8),
            _ptr(state.energy, shape=shape[:1]),
            _ptr(state.delta, shape=shape),
        )
        self.reset = (*self.state, _ptr(kernel.lin, shape=(n,)))
        self.phase = None

    def fits(self, state) -> bool:
        kernel, x, energy, delta = self.held
        return (
            kernel is state.kernel and x is state.x
            and energy is state.energy and delta is state.delta
        )

    def fits_phase(self, tabu, tracker) -> bool:
        phase = self.phase
        return (
            phase is not None and phase[0] is tabu and phase[1] is tracker
            and phase[2] is tabu.stamps and phase[3] == tabu.period
            and phase[4] is tracker.best_x and phase[5] is tracker.best_energy
        )

    def bind(self, tabu, tracker) -> None:
        shape = (self.rows, self.state[1])
        self.head = (*self.state, _ptr(tabu.stamps, shape=shape), int(tabu.enabled))
        self.tail = (
            _ptr(tracker.best_x, np.uint8, shape),
            _ptr(tracker.best_energy, shape=shape[:1]),
        )
        self.phase = (tabu, tracker, tabu.stamps, tabu.period, tracker.best_x, tracker.best_energy)


class NativeBackend(NumpySparseBackend):
    """numpy-sparse with each phase body one GIL-free C call."""

    name = "native"
    ell_tables = False

    @classmethod
    def is_available(cls) -> bool:
        return not isinstance(_library(), str)

    @classmethod
    def unavailable_reason(cls) -> str | None:
        lib = _library()
        return lib if isinstance(lib, str) else None

    #: the library this instance's phases call, bound by ``prepare`` so a
    #: phase call does not look it up again
    _lib = None

    def prepare(self, model):
        lib = _library()
        if isinstance(lib, str):
            raise BackendUnavailableError(f"backend 'native' is unavailable: {lib}")
        self._lib = lib
        return super().prepare(model)

    @staticmethod
    def _binding(state) -> _Binding:
        bound = state.device
        if type(bound) is not _Binding or not bound.fits(state):
            bound = state.device = _Binding(state)
        return bound

    def _compute_from_x(self, state) -> None:
        """Energies and Δ from ``state.x`` in one GIL-free call."""
        if self._lib.repro_reset(*self._binding(state).reset):
            raise MemoryError("repro_reset could not allocate its threads")

    def _call(self, entry, state, tabu, tracker, *extra) -> None:
        """One native phase call over every row of *state*: the clock goes
        in as a per-row array (packs run a vector clock), and C writes
        ``x``, so the x-derived σ cache drops."""
        bound = self._binding(state)
        if not bound.fits_phase(tabu, tracker):
            bound.bind(tabu, tracker)
        clock = np.ascontiguousarray(np.broadcast_to(tabu.clock, (bound.rows,)), dtype=np.int64)
        failed = getattr(self._lib, entry)(*bound.head, clock.ctypes.data, *bound.tail, *extra)
        self._invalidate_derived(state)
        if failed:
            raise MemoryError(f"{entry} could not allocate its scratch rows")

    def _straight(self, state, targets, tabu, tracker) -> np.ndarray:
        targets = np.ascontiguousarray(targets, dtype=np.uint8)
        flips = np.empty(state.batch, dtype=np.int64)
        self._call(
            "repro_straight", state, tabu, tracker,
            _ptr(targets, np.uint8, state.x.shape), flips.ctypes.data,
        )
        tabu.advance(int(flips.max(initial=0)))
        return flips

    def _greedy(self, state, tabu, tracker, max_iters):
        if max_iters is None:
            max_iters = greedy_iteration_cap(state.x.shape[1])
        flips = np.empty(state.batch, dtype=np.int64)
        truncated = np.empty(state.batch, dtype=bool)
        self._call(
            "repro_greedy", state, tabu, tracker,
            int(max_iters), flips.ctypes.data, truncated.ctypes.data,
        )
        count = int(np.count_nonzero(truncated))
        if count:
            _warn_truncated(count, max_iters)
        tabu.advance(int(flips.max(initial=0)))
        return flips, truncated

    @staticmethod
    def _rule(spec, use_tabu, iterations, n) -> tuple:
        """The ``P_KIND`` to ``P_SEQ_LEN`` fields (native.c) of a lowered
        rule at *iterations* steps."""
        if spec.sequence_end > n:
            raise ValueError("a fixed sequence must name bits of the model")
        sequence = spec.sequence

        def per_step(array, dtype):
            return 0 if array is None else _ptr(array, dtype, (iterations,))

        return (
            _KINDS.index(spec.kind),
            int(spec.supports_tabu and use_tabu),
            per_step(spec.schedule, np.float64),
            per_step(spec.thresholds, np.int64),
            per_step(spec.widths, np.int64),
            0 if sequence is None else _ptr(sequence),
            0 if sequence is None else sequence.size,
        )

    def _main(self, state, spec, iterations, rng, tabu, tracker) -> np.ndarray:
        """All row-range parts in one call, one int64 descriptor row each."""
        parts = self._parts(state, spec, rng)
        n = state.x.shape[1]
        table = np.array([
            (
                lo, hi, *self._rule(part, tabu.enabled, iterations, n),
                0 if part.cursor is None else _ptr(part.cursor, shape=(hi - lo,)),
                _ptr(lanes.state, np.uint64, (hi - lo, n)) if part.uses_rng else 0,
            )
            for lo, hi, part, lanes in parts
        ], dtype=np.int64)
        self._call(
            "repro_main", state, tabu, tracker,
            int(tabu.period), int(iterations), table.ctypes.data,
        )
        tabu.advance(iterations)
        return np.full(state.batch, iterations, dtype=np.int64)

    def run_search(self, cells, budget):
        """The whole search of a pack in one GIL-free call: the wave loop's
        schedule per cell (see :meth:`ComputeBackend.run_search`), each
        cell one table row, into which the call writes the greedy and main
        phases the cell ran.  A cell's RNG lanes and cursor are its rows of
        the pack's, so their addresses are offsets from the pack's."""
        state, tabu, tracker = cells.views(0, cells.total)
        n = state.x.shape[1]
        greedy_cap = greedy_iteration_cap(n)
        lanes = _ptr(cells.lanes, np.uint64, (cells.total, n))
        cursor = _ptr(cells.cursor, shape=(cells.total,))
        use_tabu = tabu.enabled
        rule = self._rule
        table = np.array([
            (
                lo, hi, *rule(spec, use_tabu, iterations, n),
                cursor + 8 * lo if spec.kind == KIND_CYCLIC_WINDOW else 0,
                lanes + 8 * n * lo if spec.uses_rng else 0,
                iterations, two, 0, 0,
            )
            for lo, hi, spec, iterations, two in zip(
                cells.starts.tolist(), cells.stops.tolist(), cells.specs,
                cells.iterations, cells.two.tolist(),
            )
        ], dtype=np.int64)
        bound = self._binding(state)
        if not bound.fits_phase(tabu, tracker):
            bound.bind(tabu, tracker)
        flips = np.empty(cells.total, dtype=np.int64)
        truncated = tracker.greedy_truncated
        failed = self._lib.repro_search(
            *bound.head,
            _ptr(tabu.clock, shape=(bound.rows,)),
            *bound.tail,
            _ptr(cells.targets, np.uint8, state.x.shape),
            flips.ctypes.data,
            _ptr(truncated.view(np.uint8), np.uint8),
            int(tabu.period),
            int(budget),
            int(greedy_cap),
            len(table),
            table.ctypes.data,
        )
        self._invalidate_derived(state)
        if failed:
            raise MemoryError("repro_search could not allocate its scratch")
        count = int(np.count_nonzero(truncated))
        if count:
            _warn_truncated(count, greedy_cap)
        return flips, table[:, _C_GREEDIES].copy(), table[:, _C_MAINS].copy()
