"""Per-table/figure experiment runners (paper §VI, scaled).

Each ``run_*`` function regenerates one table or figure of the paper's
evaluation section on *scaled* instances (see DESIGN.md §2: same generator
families, same solver configurations, same statistics — smaller sizes and
trial counts so a pure-Python substrate finishes in bench time).  Every
runner prints its scale in the report notes; nothing is silently capped.

Two presets are provided: :data:`SMOKE` (used by the ``benchmarks/`` suite)
and :data:`FULL` (a longer configuration for manual runs).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.baselines.annealer import QuantumAnnealerSim
from repro.baselines.exact import MipLikeSolver
from repro.baselines.hybrid import HybridSolver
from repro.baselines.sbm import SBMConfig, sbm_solve_qubo
from repro.core.qubo import QUBOModel
from repro.ga.operations import OperationParams
from repro.harness.frequency import FrequencyAggregator
from repro.harness.histogram import Histogram
from repro.harness.reporting import ExperimentReport, format_gap
from repro.harness.tts import TTSResult, measure_tts
from repro.problems.gset import g22_like, g39_like
from repro.problems.maxcut import maxcut_to_qubo, random_complete_graph
from repro.problems.qap import QAPInstance, grid_qap, random_qap
from repro.problems.qasp import QASPInstance, random_qasp
from repro.search.batch import BatchSearchConfig
from repro.solver.abs_solver import ABSSolver
from repro.solver.dabs import DABSConfig, DABSSolver

__all__ = [
    "FULL",
    "SMOKE",
    "ExperimentScale",
    "establish_reference",
    "make_abs",
    "make_dabs",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_tables5_and_6",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Scaling knobs shared by all experiment runners."""

    #: MaxCut complete-graph size (paper: 2000)
    maxcut_n: int = 64
    #: Gset-like sparse graph size (paper: 2000)
    gset_n: int = 96
    #: QAP sizes: Taillard-like n, and two grid shapes (paper: 20/30/30)
    qap_tai_n: int = 6
    qap_grid_a: tuple[int, int] = (2, 3)
    qap_grid_b: tuple[int, int] = (2, 4)
    #: Pegasus size for QASP (paper: 16 → 5627 qubits)
    qasp_m: int = 3
    #: DABS topology (paper: 8 GPUs × 216 blocks)
    num_gpus: int = 2
    blocks_per_gpu: int = 8
    pool_capacity: int = 20
    #: flip factors (paper: s=0.1 with b=10 for MaxCut, b=1 for QAP/QASP —
    #: scaled instances use one setting)
    search_flip_factor: float = 0.1
    batch_flip_factor: float = 6.0
    #: repeated executions for TTS measurement (paper: 1000)
    dabs_trials: int = 3
    abs_trials: int = 3
    #: time limits, seconds (paper: ABS 300 s / 30 s, Gurobi 3600 s)
    tts_time_limit: float = 20.0
    abs_time_limit: float = 8.0
    mip_time_limit: float = 0.8
    hybrid_time_limit: float = 0.4
    #: DABS effort rounds used to establish a potentially optimal reference
    reference_rounds: int = 12
    #: figure trial counts
    fig5_trials: int = 10
    fig6_runs: int = 8
    fig6_limits: tuple[float, ...] = (0.1, 0.3, 0.9)
    fig7_trials: int = 6
    #: trials for the Table V/VI frequency runs
    freq_trials: int = 6


SMOKE = ExperimentScale()
FULL = ExperimentScale(
    maxcut_n=150,
    gset_n=200,
    qap_tai_n=8,
    qap_grid_a=(2, 4),
    qap_grid_b=(3, 3),
    qasp_m=4,
    num_gpus=4,
    blocks_per_gpu=16,
    pool_capacity=100,
    dabs_trials=10,
    abs_trials=10,
    tts_time_limit=120.0,
    abs_time_limit=40.0,
    mip_time_limit=10.0,
    hybrid_time_limit=5.0,
    reference_rounds=40,
    fig5_trials=30,
    fig6_runs=20,
    fig6_limits=(0.5, 1.5, 4.5),
    fig7_trials=20,
    freq_trials=20,
)


# ---------------------------------------------------------------------------
# Solver factories
# ---------------------------------------------------------------------------

def _dabs_config(scale: ExperimentScale, n: int) -> DABSConfig:
    interval_min = max(2, min(32, n // 4))
    return DABSConfig(
        num_gpus=scale.num_gpus,
        blocks_per_gpu=scale.blocks_per_gpu,
        pool_capacity=scale.pool_capacity,
        batch=BatchSearchConfig(
            search_flip_factor=scale.search_flip_factor,
            batch_flip_factor=scale.batch_flip_factor,
        ),
        operations=OperationParams(interval_min=interval_min),
    )


def make_dabs(model: QUBOModel, scale: ExperimentScale, seed: int) -> DABSSolver:
    """A DABS solver configured for *scale*."""
    return DABSSolver(model, _dabs_config(scale, model.n), seed=seed)


def make_abs(model: QUBOModel, scale: ExperimentScale, seed: int) -> ABSSolver:
    """An ABS baseline solver configured for *scale*."""
    return ABSSolver(model, _dabs_config(scale, model.n), seed=seed)


def establish_reference(
    model: QUBOModel, scale: ExperimentScale, seed: int = 0
) -> tuple[int, str]:
    """Potentially optimal reference energy (§VI's circumstantial protocol).

    A DABS effort run plus an independent MIP-like run; the better result is
    the reference.  Callers on tiny models should prefer exact optima.
    """
    effort = make_dabs(model, scale, seed=seed).solve(
        max_rounds=scale.reference_rounds
    )
    mip = MipLikeSolver(time_limit=scale.mip_time_limit, seed=seed).solve(model)
    if mip.proved_optimal and mip.best_energy <= effort.best_energy:
        return int(mip.best_energy), "optimal (proved)"
    return int(min(effort.best_energy, mip.best_energy)), "potentially optimal"


def _tts_cells(result: TTSResult) -> tuple[str, str]:
    if result.mean_tts is not None:
        tts = f"{result.mean_tts:.2f}s/{result.mean_rounds:.1f}r"
    else:
        tts = "n/a"
    prob = f"{100 * result.success_probability:.0f}%"
    return tts, prob


# ---------------------------------------------------------------------------
# Table II — MaxCut
# ---------------------------------------------------------------------------

def table2_instances(scale: ExperimentScale, seed: int = 0):
    """The three MaxCut benchmark families at the current scale."""
    k = random_complete_graph(scale.maxcut_n, seed=seed)
    g22 = g22_like(scale.gset_n, seed=seed + 1)
    g39 = g39_like(scale.gset_n, seed=seed + 2)
    return [
        (f"K{scale.maxcut_n}", maxcut_to_qubo(k, name=f"K{scale.maxcut_n}")),
        (f"G22-like({scale.gset_n})", maxcut_to_qubo(g22, name="g22-like")),
        (f"G39-like({scale.gset_n})", maxcut_to_qubo(g39, name="g39-like")),
    ]


def run_table2(scale: ExperimentScale = SMOKE, seed: int = 0) -> ExperimentReport:
    """Table II: MaxCut — DABS vs ABS vs MIP-like vs Hybrid vs SBM."""
    report = ExperimentReport(
        title="Table II (scaled): MaxCut",
        headers=["Instance", "Solver", "Energy", "Metric"],
    )
    report.add_note(
        f"scaled instances: n={scale.maxcut_n}/{scale.gset_n} "
        f"(paper: 2000); {scale.dabs_trials} trials (paper: 1000)"
    )
    for name, model in table2_instances(scale, seed):
        ref, provenance = establish_reference(model, scale, seed=seed)
        report.add_row(name, f"reference ({provenance})", ref, f"cut={-ref}")
        dabs = measure_tts(
            lambda s: make_dabs(model, scale, s),
            ref,
            scale.dabs_trials,
            scale.tts_time_limit,
            base_seed=seed + 100,
        )
        report.add_row(
            name, "DABS", dabs.best_energy,
            "TTS={} prob={}".format(*_tts_cells(dabs)),
        )
        abs_res = measure_tts(
            lambda s: make_abs(model, scale, s),
            ref,
            scale.abs_trials,
            scale.abs_time_limit,
            base_seed=seed + 200,
        )
        report.add_row(
            name, "ABS", abs_res.best_energy,
            "TTS={} prob={}".format(*_tts_cells(abs_res)),
        )
        mip = MipLikeSolver(time_limit=scale.mip_time_limit, seed=seed).solve(model)
        report.add_row(
            name, "MIP-like (Gurobi sub)", mip.best_energy,
            f"gap={format_gap(mip.best_energy, ref)}",
        )
        hybrid = HybridSolver(seed=seed).sample(model, scale.hybrid_time_limit)
        report.add_row(
            name, "Hybrid (D-Wave sub)", hybrid.energy,
            f"gap={format_gap(hybrid.energy, ref)}",
        )
        _, sbm_energy = sbm_solve_qubo(
            model, SBMConfig(variant="discrete", steps=400, num_replicas=16),
            seed=seed,
        )
        report.add_row(
            name, "dSB (CIM-class sub)", sbm_energy,
            f"gap={format_gap(sbm_energy, ref)}",
        )
        report.data[name] = {
            "reference": ref,
            "dabs": dabs,
            "abs": abs_res,
            "mip": mip.best_energy,
            "hybrid": hybrid.energy,
            "sbm": sbm_energy,
        }
    return report


# ---------------------------------------------------------------------------
# Table III — QAP
# ---------------------------------------------------------------------------

def table3_instances(scale: ExperimentScale, seed: int = 0):
    """Three QAPLIB-family instances at the current scale."""
    return [
        random_qap(scale.qap_tai_n, seed=seed),
        grid_qap(*scale.qap_grid_a, seed=seed + 1),
        grid_qap(*scale.qap_grid_b, seed=seed + 2),
    ]


def run_table3(scale: ExperimentScale = SMOKE, seed: int = 0) -> ExperimentReport:
    """Table III: QAP — exact optima, DABS/ABS TTS, MIP/Hybrid gaps."""
    report = ExperimentReport(
        title="Table III (scaled): QAP",
        headers=["Instance", "Solver", "Energy", "Metric"],
    )
    report.add_note(
        "scaled instances: n=6–8 facilities (paper: 20–30); optima proved "
        "by exhaustive permutation search"
    )
    for inst in table3_instances(scale, seed):
        model, p = inst.to_qubo()
        _, opt_cost = inst.brute_force()
        ref = opt_cost - inst.n * p
        report.add_row(
            inst.name, "QAP optimum (proved)", ref,
            f"cost={opt_cost} penalty={p}",
        )
        dabs = measure_tts(
            lambda s: make_dabs(model, scale, s),
            ref,
            scale.dabs_trials,
            scale.tts_time_limit,
            base_seed=seed + 100,
        )
        report.add_row(
            inst.name, "DABS", dabs.best_energy,
            "TTS={} prob={}".format(*_tts_cells(dabs)),
        )
        abs_res = measure_tts(
            lambda s: make_abs(model, scale, s),
            ref,
            scale.abs_trials,
            scale.abs_time_limit,
            base_seed=seed + 200,
        )
        report.add_row(
            inst.name, "ABS", abs_res.best_energy,
            "TTS={} prob={}".format(*_tts_cells(abs_res)),
        )
        mip = MipLikeSolver(time_limit=scale.mip_time_limit, seed=seed).solve(model)
        report.add_row(
            inst.name, "MIP-like (Gurobi sub)", mip.best_energy,
            f"gap={format_gap(mip.best_energy, ref)}",
        )
        hybrid = HybridSolver(seed=seed).sample(model, scale.hybrid_time_limit)
        report.add_row(
            inst.name, "Hybrid (D-Wave sub)", hybrid.energy,
            f"gap={format_gap(hybrid.energy, ref)}",
        )
        report.data[inst.name] = {
            "reference": ref,
            "optimal_cost": opt_cost,
            "penalty": p,
            "dabs": dabs,
            "abs": abs_res,
            "mip": mip.best_energy,
            "hybrid": hybrid.energy,
        }
    return report


# ---------------------------------------------------------------------------
# Table IV — QASP
# ---------------------------------------------------------------------------

def table4_instances(scale: ExperimentScale, seed: int = 0) -> list[QASPInstance]:
    """QASP instances at resolutions 1, 16, 256 (paper §VI.C)."""
    return [
        random_qasp(resolution=r, m=scale.qasp_m, seed=seed + i)
        for i, r in enumerate((1, 16, 256))
    ]


def run_table4(scale: ExperimentScale = SMOKE, seed: int = 0) -> ExperimentReport:
    """Table IV: QASP — DABS/ABS TTS, MIP gap, quantum annealer gap."""
    report = ExperimentReport(
        title="Table IV (scaled): QASP",
        headers=["Instance", "Solver", "Energy", "Metric"],
    )
    for inst in table4_instances(scale, seed):
        name = f"QASP{inst.resolution} (n={inst.n})"
        model = inst.qubo
        ref, provenance = establish_reference(model, scale, seed=seed)
        report.add_row(
            name, f"reference ({provenance})", ref,
            f"H={inst.hamiltonian_of_energy(ref)}",
        )
        dabs = measure_tts(
            lambda s: make_dabs(model, scale, s),
            ref,
            scale.dabs_trials,
            scale.tts_time_limit,
            base_seed=seed + 100,
        )
        report.add_row(
            name, "DABS", dabs.best_energy,
            "TTS={} prob={}".format(*_tts_cells(dabs)),
        )
        abs_res = measure_tts(
            lambda s: make_abs(model, scale, s),
            ref,
            scale.abs_trials,
            scale.abs_time_limit,
            base_seed=seed + 200,
        )
        report.add_row(
            name, "ABS", abs_res.best_energy,
            "TTS={} prob={}".format(*_tts_cells(abs_res)),
        )
        mip = MipLikeSolver(time_limit=scale.mip_time_limit, seed=seed).solve(model)
        report.add_row(
            name, "MIP-like (Gurobi sub)", mip.best_energy,
            f"gap={format_gap(mip.best_energy, ref)}",
        )
        annealer = QuantumAnnealerSim(inst.ising, inst.resolution, seed=seed)
        best_h, model_time = annealer.best_of_calls(num_calls=2, reads_per_call=500)
        annealer_energy = best_h + inst.offset
        report.add_row(
            name, "Annealer sim (Advantage sub)", annealer_energy,
            f"gap={format_gap(annealer_energy, ref)} "
            f"(model time {model_time:.1f}s)",
        )
        report.data[name] = {
            "reference": ref,
            "dabs": dabs,
            "abs": abs_res,
            "mip": mip.best_energy,
            "annealer": annealer_energy,
        }
    report.add_note(
        f"Pegasus P{scale.qasp_m} working graph (paper: P16, 5627 qubits); "
        "annealer model time uses the paper's 2.7 s/call + 20 µs/read accounting"
    )
    return report


# ---------------------------------------------------------------------------
# Tables V & VI — strategy frequencies
# ---------------------------------------------------------------------------

def run_tables5_and_6(
    scale: ExperimentScale = SMOKE, seed: int = 0
) -> tuple[ExperimentReport, ExperimentReport]:
    """Tables V/VI: executed vs first-found strategy frequencies."""
    problems: list[tuple[str, QUBOModel]] = []
    k = random_complete_graph(scale.maxcut_n, seed=seed)
    problems.append((f"K{scale.maxcut_n}", maxcut_to_qubo(k)))
    inst = random_qap(scale.qap_tai_n, seed=seed + 1)
    problems.append((inst.name, inst.to_qubo()[0]))
    qasp = random_qasp(resolution=1, m=scale.qasp_m, seed=seed + 2)
    problems.append((f"QASP1 (n={qasp.n})", qasp.qubo))

    aggregator = FrequencyAggregator()
    for name, model in problems:
        ref, _ = establish_reference(model, scale, seed=seed)
        results = []
        for trial in range(scale.freq_trials):
            solver = make_dabs(model, scale, seed=seed + 300 + trial)
            results.append(
                solver.solve(target_energy=ref, time_limit=scale.tts_time_limit)
            )
        aggregator.add_problem(name, results)

    def to_report(
        data: dict, title: str
    ) -> ExperimentReport:
        from repro.core.packet import GeneticOp, MainAlgorithm

        report = ExperimentReport(
            title=title,
            headers=["Problem"]
            + [a.name for a in MainAlgorithm]
            + [o.name for o in GeneticOp],
        )
        for name, counters in data.items():
            algs = counters.algorithm_frequencies()
            ops = counters.operation_frequencies()
            report.add_row(
                name,
                *[f"{100 * algs[a]:.1f}%" for a in MainAlgorithm],
                *[f"{100 * ops[o]:.1f}%" for o in GeneticOp],
            )
            report.data[name] = counters
        return report

    table5 = to_report(
        aggregator.executed, "Table V (scaled): executed strategy frequencies"
    )
    table6 = to_report(
        aggregator.first_found,
        "Table VI (scaled): first-found strategy frequencies",
    )
    return table5, table6


# ---------------------------------------------------------------------------
# Figures 5, 6, 7 — histograms
# ---------------------------------------------------------------------------

def run_fig5(scale: ExperimentScale = SMOKE, seed: int = 0) -> ExperimentReport:
    """Fig. 5: histogram of DABS TTS on the complete-graph MaxCut."""
    adj = random_complete_graph(scale.maxcut_n, seed=seed)
    model = maxcut_to_qubo(adj)
    ref, provenance = establish_reference(model, scale, seed=seed)
    tts = measure_tts(
        lambda s: make_dabs(model, scale, s),
        ref,
        scale.fig5_trials,
        scale.tts_time_limit,
        base_seed=seed + 100,
    )
    values = tts.tts_values
    report = ExperimentReport(
        title="Fig. 5 (scaled): DABS TTS histogram, complete-graph MaxCut",
        headers=["TTS bin (s)", "Executions"],
    )
    if values.size:
        width = max(0.05, float(np.ceil(values.max() / 8 * 20) / 20))
        hist = Histogram.from_values(values, bin_width=width, start=0.0)
        for label, count in hist.to_rows():
            report.add_row(label, count)
        report.data["histogram"] = hist
    report.data["tts"] = tts
    report.add_note(
        f"{scale.fig5_trials} executions (paper: 1000), reference={ref} "
        f"({provenance}), success={100 * tts.success_probability:.0f}%"
    )
    return report


def run_fig6(scale: ExperimentScale = SMOKE, seed: int = 0) -> ExperimentReport:
    """Fig. 6: hybrid-solver solution histograms at three time limits."""
    adj = random_complete_graph(scale.maxcut_n, seed=seed)
    model = maxcut_to_qubo(adj)
    ref, _ = establish_reference(model, scale, seed=seed)
    report = ExperimentReport(
        title="Fig. 6 (scaled): Hybrid-solver solutions vs time limit",
        headers=["Time limit", "Best", "Worst", "Hit reference", "Runs"],
    )
    energies_by_limit: dict[float, np.ndarray] = {}
    for limit in scale.fig6_limits:
        energies = np.array(
            [
                HybridSolver(seed=seed + 10 * run).sample(model, limit).energy
                for run in range(scale.fig6_runs)
            ]
        )
        energies_by_limit[limit] = energies
        report.add_row(
            f"T={limit:g}s",
            int(energies.min()),
            int(energies.max()),
            f"{int((energies <= ref).sum())}/{scale.fig6_runs}",
            scale.fig6_runs,
        )
    report.data["reference"] = ref
    report.data["energies"] = energies_by_limit
    report.add_note(
        "longer limits must shift mass toward the reference — the paper's "
        "TTS-estimation methodology for an API without TTS support"
    )
    return report


def run_fig7(scale: ExperimentScale = SMOKE, seed: int = 0) -> ExperimentReport:
    """Fig. 7: DABS running-time histograms for the three QASPs."""
    report = ExperimentReport(
        title="Fig. 7 (scaled): DABS TTS histograms, QASP r=1/16/256",
        headers=["Instance", "TTS bin (s)", "Executions"],
    )
    for inst in table4_instances(scale, seed):
        name = f"QASP{inst.resolution}"
        ref, _ = establish_reference(inst.qubo, scale, seed=seed)
        tts = measure_tts(
            lambda s: make_dabs(inst.qubo, scale, s),
            ref,
            scale.fig7_trials,
            scale.tts_time_limit,
            base_seed=seed + 100,
        )
        values = tts.tts_values
        if values.size:
            width = max(0.05, float(np.ceil(values.max() / 8 * 20) / 20))
            hist = Histogram.from_values(values, bin_width=width, start=0.0)
            for label, count in hist.to_rows():
                report.add_row(name, label, count)
            report.data[name] = {"histogram": hist, "tts": tts}
        else:  # pragma: no cover - only under extreme time pressure
            report.add_row(name, "no successes", 0)
            report.data[name] = {"histogram": None, "tts": tts}
    report.add_note(
        f"{scale.fig7_trials} executions per resolution (paper: 1000)"
    )
    return report
