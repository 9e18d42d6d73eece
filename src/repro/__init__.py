"""repro — Diverse Adaptive Bulk Search (DABS) for QUBO problems.

A from-scratch, NumPy-vectorized reproduction of

    Nakano et al., "Diverse Adaptive Bulk Search: a Framework for Solving
    QUBO Problems on Multiple GPUs", IPDPS Workshops 2023
    (arXiv:2207.03069).

Quickstart::

    import numpy as np
    from repro import QUBOModel, DABSSolver

    model = QUBOModel(np.array([[-3, 2], [0, -3]]))
    result = DABSSolver(model, seed=0).solve(max_rounds=5)
    print(result.best_vector, result.best_energy)

Package layout (see DESIGN.md for the full inventory):

* :mod:`repro.core`      — QUBO/Ising models, incremental Δ engine, RNG, packets
* :mod:`repro.backends`  — pluggable flip-kernel backends (dense/CSR/cuda)
* :mod:`repro.search`    — the 5 main search algorithms + greedy/straight/tabu
* :mod:`repro.ga`        — solution pools, genetic operations, adaptive selection
* :mod:`repro.gpu`       — the virtual-GPU lockstep execution substrate
* :mod:`repro.engine`    — execution lanes, super-launches, virtual-time replay
* :mod:`repro.solver`    — the DABS solver and the ABS baseline
* :mod:`repro.service`   — multi-tenant solve service over one shared fleet
* :mod:`repro.federation` — process-per-island sharding with elite migration
* :mod:`repro.resilience` — retry policies, failure reports, chaos injection
* :mod:`repro.problems`  — MaxCut/QAP/QASP/TSP reductions and generators
* :mod:`repro.topology`  — Pegasus and Chimera annealer graphs
* :mod:`repro.baselines` — SA, tabu, SBM, exact B&B, hybrid, annealer sim
* :mod:`repro.harness`   — TTS measurement and per-table/figure experiments
"""

from repro.backends import (
    ComputeBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.core import (
    BatchDeltaState,
    DeltaState,
    GeneticOp,
    IsingModel,
    MainAlgorithm,
    Packet,
    PacketBatch,
    QUBOModel,
    SparseQUBOModel,
    brute_force,
    ising_to_qubo,
    qubo_to_ising,
    sparse_ising_to_qubo,
)
from repro.federation import Federation, FederationHandle
from repro.resilience import FailureReport, RetryPolicy
from repro.search.batch import BatchSearchConfig
from repro.service import JobHandle, JobStatus, ProblemCache, SolveService
from repro.solver import ABSSolver, DABSConfig, DABSSolver, SolveResult

__version__ = "1.0.0"

__all__ = [
    "ABSSolver",
    "BatchDeltaState",
    "BatchSearchConfig",
    "ComputeBackend",
    "DABSConfig",
    "DABSSolver",
    "DeltaState",
    "FailureReport",
    "Federation",
    "FederationHandle",
    "GeneticOp",
    "IsingModel",
    "JobHandle",
    "JobStatus",
    "MainAlgorithm",
    "Packet",
    "PacketBatch",
    "ProblemCache",
    "QUBOModel",
    "RetryPolicy",
    "SolveResult",
    "SolveService",
    "SparseQUBOModel",
    "__version__",
    "available_backends",
    "brute_force",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "ising_to_qubo",
    "qubo_to_ising",
    "sparse_ising_to_qubo",
]
