"""Cross-module integration tests: full solver runs on each problem family."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.qubo import brute_force
from repro.core.sparse import SparseQUBOModel
from repro.problems.maxcut import cut_value, maxcut_to_qubo, random_complete_graph
from repro.problems.qap import decode_assignment, grid_qap
from repro.problems.qasp import random_qasp
from repro.problems.tsp import random_euclidean_tsp
from repro.search.batch import BatchSearchConfig
from repro.solver.dabs import DABSConfig, DABSSolver

CFG = DABSConfig(
    num_gpus=2,
    blocks_per_gpu=6,
    pool_capacity=12,
    batch=BatchSearchConfig(batch_flip_factor=4.0),
)


class TestEndToEnd:
    def test_maxcut_solution_decodes_to_cut(self):
        adj = random_complete_graph(24, seed=0)
        model = maxcut_to_qubo(adj)
        result = DABSSolver(model, CFG, seed=0).solve(max_rounds=10)
        assert cut_value(adj, result.best_vector) == -result.best_energy
        # brute-force certificate at this size (2^24 is too big; use 20 bits)

    def test_maxcut_optimality_certificate(self):
        adj = random_complete_graph(18, seed=1)
        model = maxcut_to_qubo(adj)
        _, opt = brute_force(model)
        result = DABSSolver(model, CFG, seed=0).solve(
            target_energy=opt, max_rounds=40
        )
        assert result.best_energy == opt

    def test_qap_solution_decodes_to_assignment(self):
        inst = grid_qap(2, 3, seed=2)
        model, p = inst.to_qubo()
        _, opt_cost = inst.brute_force()
        result = DABSSolver(model, CFG, seed=0).solve(
            target_energy=opt_cost - 6 * p, max_rounds=40
        )
        perm = decode_assignment(result.best_vector, 6)
        assert perm is not None
        assert inst.cost(perm) == opt_cost

    def test_tsp_solution_decodes_to_tour(self):
        inst = random_euclidean_tsp(5, seed=3)
        model, p = inst.qap.to_qubo()
        result = DABSSolver(model, CFG, seed=0).solve(max_rounds=25)
        tour = inst.decode_tour(result.best_vector)
        assert tour is not None  # penalties force feasibility

    def test_qasp_sparse_full_stack(self):
        inst = random_qasp(resolution=1, m=2, seed=4, sparse=True)
        assert isinstance(inst.qubo, SparseQUBOModel)
        result = DABSSolver(inst.qubo, CFG, seed=0).solve(max_rounds=5)
        assert inst.qubo.energy(result.best_vector) == result.best_energy

    def test_three_devices_on_qap(self):
        from dataclasses import replace

        inst = grid_qap(2, 2, seed=5)
        model, _ = inst.to_qubo()
        cfg = replace(CFG, num_gpus=3)
        result = DABSSolver(model, cfg, seed=0).solve(max_rounds=6)
        assert model.energy(result.best_vector) == result.best_energy

    def test_improvement_history_strictly_decreasing(self):
        adj = random_complete_graph(30, seed=6)
        model = maxcut_to_qubo(adj)
        result = DABSSolver(model, CFG, seed=1).solve(max_rounds=8)
        energies = [ev.energy for ev in result.history]
        assert all(a > b for a, b in zip(energies, energies[1:]))
