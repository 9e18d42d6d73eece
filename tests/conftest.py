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


@pytest.fixture
def device_hooks(monkeypatch):
    """Per-device hooks on the one launch executor: map a device to a
    callable that every ``SuperLaunch.run`` holding one of the device's
    segments calls first, once per segment, in segment order.  A hook
    that sleeps emulates kernel latency; one that blocks is a hang; one
    that raises is a device fault."""
    from repro.engine.coalesce import SuperLaunch

    hooks = {}
    run = SuperLaunch.run

    def hooked(self, scratch_map):
        for seg in self.segments:
            hook = hooks.get(seg.gpu)
            if hook is not None:
                hook()
        return run(self, scratch_map)

    monkeypatch.setattr(SuperLaunch, "run", hooked)
    return hooks


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
