"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.qubo import QUBOModel


def with_native(*names: str) -> tuple[str, ...]:
    """*names*, plus ``native`` when its kernels build on this host."""
    from repro.backends import available_backends

    return (*names, *(("native",) if "native" in available_backends() else ()))


def random_qubo(n: int, seed: int, density: float = 1.0, wmax: int = 9) -> QUBOModel:
    """Random integer QUBO with weights in [-wmax, wmax]."""
    rng = np.random.default_rng(seed)
    mat = rng.integers(-wmax, wmax + 1, size=(n, n))
    if density < 1.0:
        mask = rng.random((n, n)) < density
        mat = np.where(mask, mat, 0)
    return QUBOModel(np.triu(mat))


class KeylessGPU:
    """Proxy device without a pack key.

    Only a real :class:`~repro.gpu.virtual_gpu.VirtualGPU` has one, so the
    service gives each proxy a lane of its own and never packs its
    launches; each launch is still the device's own one-kernel launch.
    """

    def __init__(self, gpu) -> None:
        self._gpu = gpu

    def launch(self, batch):
        return self._gpu.launch(batch)

    def reset(self) -> None:
        self._gpu.reset()

    def __getattr__(self, name):
        return getattr(self._gpu, name)


def keyless(solver, devices=None):
    """Wrap *solver*'s devices (all, or the indices in *devices*) in
    :class:`KeylessGPU` proxies; returns the solver."""
    for i, gpu in enumerate(solver.gpus):
        if devices is None or i in devices:
            solver.gpus[i] = KeylessGPU(gpu)
    return solver


@pytest.fixture
def no_native(monkeypatch, tmp_path):
    """No C compiler and an empty kernel cache: the ``native`` backend is
    unavailable, so ``auto`` keeps the NumPy rule."""
    monkeypatch.setenv("CC", "/nonexistent/cc")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "no-native-cache"))


@pytest.fixture
def small_model() -> QUBOModel:
    """A fixed 8-bit integer QUBO used across unit tests."""
    return random_qubo(8, seed=7)


@pytest.fixture
def medium_model() -> QUBOModel:
    """A fixed 40-bit integer QUBO for batched-engine tests."""
    return random_qubo(40, seed=11)


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

def qubo_models(max_n: int = 12, wmax: int = 8):
    """Strategy: random integer QUBO models with 2..max_n variables."""

    @st.composite
    def _build(draw):
        n = draw(st.integers(min_value=2, max_value=max_n))
        entries = draw(
            st.lists(
                st.integers(min_value=-wmax, max_value=wmax),
                min_size=n * n,
                max_size=n * n,
            )
        )
        mat = np.array(entries, dtype=np.int64).reshape(n, n)
        return QUBOModel(np.triu(mat))

    return _build()


def bit_vectors_for(n: int):
    """Strategy: 0/1 vectors of length n."""
    return st.lists(
        st.integers(min_value=0, max_value=1), min_size=n, max_size=n
    ).map(lambda v: np.array(v, dtype=np.uint8))
