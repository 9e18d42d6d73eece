"""Lowered selection tables are shared across algorithm instances.

Every direct solve builds fresh devices, and so fresh algorithm
instances; their per-step tables (CyclicMin's window widths, RandomMin's
key thresholds, MaxMin's annealing schedule, TwoNeighbor's flip
sequence) depend only on the model size, the phase length and the
algorithm's constant, so they are built once per process and shared
read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.delta import BatchDeltaState
from repro.search import cyclicmin, maxmin, randommin, twoneighbor
from repro.search.cyclicmin import CyclicMinSearch
from repro.search.maxmin import MaxMinSearch
from repro.search.randommin import RandomMinSearch
from repro.search.twoneighbor import TwoNeighborSearch
from repro.solver.dabs import DABSConfig, DABSSolver
from tests.conftest import random_qubo

#: (algorithm, the spec field holding its table)
TABLES = [
    (CyclicMinSearch, "widths"),
    (RandomMinSearch, "thresholds"),
    (MaxMinSearch, "schedule"),
    (TwoNeighborSearch, "sequence"),
]


def lowered(cls, field, n=24, iterations=30):
    state = BatchDeltaState(random_qubo(n, seed=1), batch=2)
    return getattr(cls().lower(state, iterations), field)


@pytest.mark.parametrize("cls, field", TABLES, ids=lambda v: getattr(v, "__name__", v))
def test_fresh_instances_share_one_array(cls, field):
    assert lowered(cls, field) is lowered(cls, field)


@pytest.mark.parametrize("cls, field", TABLES, ids=lambda v: getattr(v, "__name__", v))
def test_shared_array_is_read_only(cls, field):
    table = lowered(cls, field)
    with pytest.raises(ValueError, match="read-only"):
        table[0] = table[1]


def test_the_constant_keys_the_table():
    state = BatchDeltaState(random_qubo(64, seed=1), batch=2)
    assert not np.array_equal(
        CyclicMinSearch(c=4).lower(state, 30).widths, CyclicMinSearch(c=32).lower(state, 30).widths
    )
    assert not np.array_equal(
        RandomMinSearch(c=4).lower(state, 30).thresholds,
        RandomMinSearch(c=32).lower(state, 30).thresholds,
    )


def test_solve_results_do_not_depend_on_a_warm_cache():
    """A solve that builds every table afresh and one that finds them all
    built end in the same place."""
    model = random_qubo(40, seed=7)
    cfg = DABSConfig(num_gpus=2, blocks_per_gpu=10, pool_capacity=10)

    def solve():
        result = DABSSolver(model, cfg, seed=3).solve(max_rounds=3)
        return result.best_energy, result.best_vector.tolist(), result.total_flips

    for cache in (cyclicmin._widths, randommin._spec, maxmin._spec, twoneighbor._spec):
        cache.cache_clear()
    cold = solve()
    assert solve() == cold
