"""One launch kernel: a device's ``launch`` against the stepwise oracle.

Every device runs each launch as a one-segment super-launch (DESIGN.md
§12), whatever each block's algorithm.  The contract under test: that
launch is bit-exact with the stepwise reference schedule
(``run_batch_search``, one ``select → flip → record → fold`` round-trip
per flip, per algorithm group) — results, per-row flips, the persistent
block solutions, RNG lanes and CyclicMin cursor, and every device
counter, over consecutive launches.  The packed-vs-solo pins compare
packs with this launch, so they rest on this test.
"""

from __future__ import annotations

import pytest

import repro.gpu.virtual_gpu as virtual_gpu
from repro.core.packet import MainAlgorithm
from repro.search.batch import BatchSearchConfig
from tests.backends.launch_parity import (
    assert_same,
    make_batch,
    make_gpu,
    observe,
    stepwise_launch,
)
from tests.conftest import random_qubo

M, C, R, P, T = (
    MainAlgorithm.MAXMIN,
    MainAlgorithm.CYCLICMIN,
    MainAlgorithm.RANDOMMIN,
    MainAlgorithm.POSITIVEMIN,
    MainAlgorithm.TWONEIGHBOR,
)
N = 40
#: three launches in a row: all five algorithms, then one batch without
#: CyclicMin (its cursor must survive the launch it sits out), then all
#: five again with CyclicMin on as many rows as the first time
LAUNCHES = [
    [M, C, R, P, T, M, C, R],
    [M, M, R, P, T, T, R, P],
    [C, T, M, P, R, M, C, P],
]


def make_twins(backend, tabu_period):
    density = 0.3 if backend == "numpy-sparse" else 1.0
    model = random_qubo(N, seed=17, density=density)
    config = BatchSearchConfig(
        batch_flip_factor=2.0, tabu_period=tabu_period, cyclicmin_c=8, randommin_c=8
    )
    return [make_gpu(model, len(LAUNCHES[0]), config, backend=backend) for _ in range(2)]


@pytest.fixture
def batch_searches(monkeypatch):
    """Count stepwise ``run_batch_search`` calls made through the device
    module (the name a tracer wraps)."""
    calls = []
    original = virtual_gpu.run_batch_search

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(virtual_gpu, "run_batch_search", counted)
    return calls


@pytest.mark.parametrize("tabu_period", [8, 0], ids=["tabu", "no-tabu"])
@pytest.mark.parametrize("backend", ["numpy-dense", "numpy-sparse"])
def test_launch_matches_stepwise(backend, tabu_period, batch_searches):
    kernel_gpu, stepwise_gpu = make_twins(backend, tabu_period)
    assert kernel_gpu.pack_key is not None
    for i, algs in enumerate(LAUNCHES):
        batch = make_batch(algs, N, seed=i)
        kernel = observe(kernel_gpu, kernel_gpu.launch(batch))
        assert batch_searches == []  # one kernel: no per-group batch search
        stepwise = observe(stepwise_gpu, stepwise_launch(stepwise_gpu, batch))
        assert_same(kernel, stepwise)
    assert kernel_gpu.algorithms[C]._cursor is not None
    assert kernel_gpu.launch_count == len(LAUNCHES)
