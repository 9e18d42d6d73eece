"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.qubo import QUBOModel


def random_qubo(n: int, seed: int, density: float = 1.0, wmax: int = 9) -> QUBOModel:
    """Random integer QUBO with weights in [-wmax, wmax]."""
    rng = np.random.default_rng(seed)
    mat = rng.integers(-wmax, wmax + 1, size=(n, n))
    if density < 1.0:
        mask = rng.random((n, n)) < density
        mat = np.where(mask, mat, 0)
    return QUBOModel(np.triu(mat))


def force_group_loop(gpu) -> None:
    """Take *gpu*'s pack key away, so its launches take the group loop.

    Each algorithm is re-typed as a behaviour-identical subclass: a
    non-builtin implementation has no proven packed execution, so the
    device neither packs nor runs its launch as one kernel.
    """
    for alg in gpu.algorithms.values():
        alg.__class__ = type(f"Custom{type(alg).__name__}", (type(alg),), {})


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
