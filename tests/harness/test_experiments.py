"""Smoke tests for the experiment runners at a micro scale.

These verify plumbing and report structure; the benchmarks/ suite runs the
real (SMOKE/FULL) scales.
"""

from __future__ import annotations

import pytest

from repro.harness.experiments import (
    ExperimentScale,
    establish_reference,
    make_abs,
    make_dabs,
    run_fig5,
    run_fig6,
    run_table3,
)
from repro.problems.maxcut import maxcut_to_qubo, random_complete_graph

MICRO = ExperimentScale(
    maxcut_n=16,
    gset_n=20,
    qap_tai_n=4,
    qap_grid_a=(2, 2),
    qap_grid_b=(1, 4),
    qasp_m=2,
    num_gpus=1,
    blocks_per_gpu=4,
    pool_capacity=8,
    batch_flip_factor=3.0,
    dabs_trials=2,
    abs_trials=2,
    tts_time_limit=6.0,
    abs_time_limit=3.0,
    mip_time_limit=0.3,
    hybrid_time_limit=0.2,
    reference_rounds=6,
    fig5_trials=3,
    fig6_runs=2,
    fig6_limits=(0.05, 0.2),
    fig7_trials=2,
)


@pytest.fixture(scope="module")
def maxcut_model():
    return maxcut_to_qubo(random_complete_graph(16, seed=0))


class TestFactories:
    def test_make_dabs_uses_scale(self, maxcut_model):
        solver = make_dabs(maxcut_model, MICRO, seed=0)
        assert solver.config.num_gpus == 1
        assert solver.config.blocks_per_gpu == 4

    def test_make_abs_is_abs(self, maxcut_model):
        from repro.core.packet import MainAlgorithm

        solver = make_abs(maxcut_model, MICRO, seed=0)
        assert solver.config.algorithm_set == (MainAlgorithm.CYCLICMIN,)

    def test_establish_reference_is_optimal_for_tiny(self, maxcut_model):
        from repro.core.qubo import brute_force

        ref, provenance = establish_reference(maxcut_model, MICRO, seed=0)
        _, opt = brute_force(maxcut_model)
        assert ref == opt
        assert provenance in ("optimal (proved)", "potentially optimal")


class TestRunners:
    def test_table3_structure(self):
        report = run_table3(MICRO, seed=0)
        text = report.to_markdown()
        assert "Table III" in text
        assert len(report.data) == 3
        for name, payload in report.data.items():
            # the §II.B identity: reference = optimal cost − n·penalty
            n = int(len(payload["dabs"].records) and 4) or 4
            assert payload["reference"] == payload["optimal_cost"] - 4 * payload["penalty"]
            # DABS must find the proved optimum on 16-bit models
            assert payload["dabs"].best_energy == payload["reference"]

    def test_fig5_structure(self):
        report = run_fig5(MICRO, seed=0)
        assert "Fig. 5" in report.title
        tts = report.data["tts"]
        assert tts.trials == MICRO.fig5_trials
        if tts.successes:
            hist = report.data["histogram"]
            assert hist.total == tts.successes

    def test_fig6_quality_improves_with_time(self):
        report = run_fig6(MICRO, seed=0)
        energies = report.data["energies"]
        limits = sorted(energies)
        best_short = energies[limits[0]].min()
        best_long = energies[limits[-1]].min()
        assert best_long <= best_short

    def test_table4_structure(self):
        from repro.harness.experiments import run_table4

        report = run_table4(MICRO, seed=0)
        assert len(report.data) == 3
        for name, payload in report.data.items():
            assert "QASP" in name
            # annealer and MIP never beat the reference
            assert payload["annealer"] >= payload["reference"]
            assert payload["mip"] >= payload["reference"]

    def test_tables5_and_6_structure(self):
        from repro.harness.experiments import run_tables5_and_6

        t5, t6 = run_tables5_and_6(MICRO, seed=0)
        assert len(t5.data) == 3  # maxcut, qap, qasp
        assert len(t6.data) == 3
        for counters in t5.data.values():
            total = sum(counters.algorithms.values())
            assert total > 0

    def test_fig7_structure(self):
        from repro.harness.experiments import run_fig7

        report = run_fig7(MICRO, seed=0)
        assert len(report.data) == 3
        for payload in report.data.values():
            assert payload["tts"].trials == MICRO.fig7_trials
