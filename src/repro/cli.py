"""Command-line interface: solve benchmark files with any bundled solver.

Usage::

    python -m repro <file> [--format auto|qubo|gset|qaplib]
                           [--solver dabs|abs|sa|tabu|sbm|exact|mip]
                           [--time-limit S] [--rounds N] [--target E]
                           [--seed K] [--gpus G] [--blocks B]
                           [--backend auto|numpy-dense|numpy-sparse|cuda]
                           [--islands N] [--topology ring|all]
                           [--migration-period M] [--migration-k K]

    python -m repro serve [--gpus G] [--blocks B] [--max-queue Q]
                          [--islands N] ...

The file format is inferred from the extension by default (``.qubo``,
``.dat`` for QAPLIB, anything else is tried as Gset).  MaxCut/QAP files are
reduced to QUBO with the paper's constructions; QAP results are decoded
back to an assignment.

``repro serve`` starts the long-lived multi-tenant solve service instead:
JSON-lines requests on stdin, streamed JSON events on stdout (see
:mod:`repro.service.serve` for the wire protocol).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.backends import backend_names, validate_backend_name
from repro.baselines.exact import BranchAndBoundSolver, MipLikeSolver
from repro.baselines.sbm import SBMConfig, sbm_solve_qubo
from repro.baselines.simulated_annealing import SAConfig, simulated_annealing
from repro.baselines.tabu_search import TabuSearchConfig, tabu_search
from repro.core.qubo import QUBOModel, require_integer_weights
from repro.io.formats import load_instance
from repro.problems.maxcut import cut_value
from repro.resilience import chaos
from repro.problems.qap import decode_assignment
from repro.search.batch import BatchSearchConfig
from repro.solver.abs_solver import ABSSolver
from repro.solver.dabs import DABSConfig, DABSSolver

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Solve a QUBO/MaxCut/QAP benchmark file with DABS "
        "or one of the bundled baselines.",
        epilog='Run "repro serve --help" for the multi-tenant solve '
        "service (JSON-lines over stdin/stdout).",
    )
    parser.add_argument("file", help='instance file, or "serve"')
    parser.add_argument(
        "--format",
        choices=("auto", "qubo", "gset", "qaplib"),
        default="auto",
        help="input format (default: by extension)",
    )
    parser.add_argument(
        "--solver",
        choices=("dabs", "abs", "sa", "tabu", "sbm", "exact", "mip"),
        default="dabs",
    )
    parser.add_argument("--time-limit", type=float, default=None, metavar="S")
    parser.add_argument("--rounds", type=int, default=None, metavar="N")
    parser.add_argument("--target", type=int, default=None, metavar="E")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--gpus", type=int, default=2, help="virtual GPUs")
    parser.add_argument("--blocks", type=int, default=8, help="blocks per GPU")
    parser.add_argument(
        "--backend",
        choices=("auto",) + backend_names(),
        default=None,
        help="compute backend for the dabs/abs kernels, every launch one "
        "super-launch; other solvers ignore it (default: the REPRO_BACKEND "
        "env var if set, else auto — chosen by coupling density)",
    )
    parser.add_argument(
        "--batch-flip-factor", type=float, default=4.0, metavar="B",
        help="batch search flip factor b",
    )
    parser.add_argument(
        "--islands", type=int, default=1, metavar="N",
        help="federation islands for dabs/abs: N > 1 shards the solve "
        "over N processes (each a full fleet of --gpus devices) with "
        "periodic elite migration; other solvers ignore it (default: 1, "
        "solve in-process)",
    )
    parser.add_argument(
        "--topology", choices=("ring", "all"), default="ring",
        help="island migration topology (default: ring)",
    )
    parser.add_argument(
        "--migration-period", type=int, default=16, metavar="M",
        help="launches per island between elite migrations; 0 disables "
        "migration (default: 16)",
    )
    parser.add_argument(
        "--migration-k", type=int, default=4, metavar="K",
        help="elites each island publishes per migration (default: 4)",
    )
    return parser


def _load(args) -> tuple[QUBOModel, dict]:
    """Read the instance; returns (model, context for decoding)."""
    return load_instance(args.file, args.format)


def _solve(model: QUBOModel, args) -> tuple[np.ndarray, int, str]:
    """Dispatch to the selected solver; returns (vector, energy, detail)."""
    if args.solver in ("dabs", "abs"):
        config = DABSConfig(
            num_gpus=args.gpus,
            blocks_per_gpu=args.blocks,
            pool_capacity=20,
            batch=BatchSearchConfig(batch_flip_factor=args.batch_flip_factor),
            backend=args.backend,
        )
        cls = DABSSolver if args.solver == "dabs" else ABSSolver
        kwargs = {}
        if args.target is not None:
            kwargs["target_energy"] = args.target
        if args.time_limit is not None:
            kwargs["time_limit"] = args.time_limit
        if args.rounds is not None:
            kwargs["max_rounds"] = args.rounds
        if not kwargs:
            kwargs["max_rounds"] = 20
        if args.islands > 1:
            from repro.federation import Federation

            period = args.migration_period if args.migration_period > 0 else None
            with Federation(
                args.islands,
                topology=args.topology,
                migration_period=period,
                migration_k=args.migration_k,
                default_config=config,
                seed=args.seed,
            ) as federation:
                result = federation.submit(
                    model, solver_cls=cls, seed=args.seed, **kwargs
                ).result()
            detail = (
                f"{result.summary()} "
                f"[{args.islands} islands, {args.topology} topology]"
            )
            return result.best_vector, result.best_energy, detail
        solver = cls(model, config, seed=args.seed)
        result = solver.solve(**kwargs)
        return result.best_vector, result.best_energy, result.summary()
    if args.solver == "sa":
        result = simulated_annealing(model, SAConfig(sweeps=60), seed=args.seed)
        return result.best_vector, result.best_energy, "simulated annealing"
    if args.solver == "tabu":
        result = tabu_search(
            model, TabuSearchConfig(iterations=40 * model.n), seed=args.seed
        )
        return result.best_vector, result.best_energy, "tabu search"
    if args.solver == "sbm":
        vector, energy = sbm_solve_qubo(
            model, SBMConfig(steps=1200, num_replicas=32), seed=args.seed
        )
        return vector, energy, "discrete simulated bifurcation"
    if args.solver == "exact":
        result = BranchAndBoundSolver().solve(model, time_limit=args.time_limit)
        status = "proved optimal" if result.proved_optimal else "NOT proved (budget)"
        return result.best_vector, result.best_energy, status
    result = MipLikeSolver(
        time_limit=args.time_limit or 5.0, seed=args.seed
    ).solve(model)
    status = "proved optimal" if result.proved_optimal else "incumbent at limit"
    return result.best_vector, result.best_energy, status


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:  # pragma: no cover - process entry
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        from repro.service import serve_main

        return serve_main(argv[1:])
    args = build_parser().parse_args(argv)
    try:
        model, context = _load(args)
        # every solver reports an integer energy, so a fractional model
        # is one error for all of them
        require_integer_weights(model)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env_backend = os.environ.get("REPRO_BACKEND", "").strip()
    if args.solver in ("dabs", "abs") and args.backend is None and env_backend:
        try:
            validate_backend_name(env_backend)
        except ValueError as exc:
            print(f"error: REPRO_BACKEND: {exc}", file=sys.stderr)
            return 2
    try:
        chaos.config_from_env(os.environ)
    except ValueError as exc:
        print(f"error: {chaos.ENV_SPEC}: {exc}", file=sys.stderr)
        return 2
    print(f"instance: {model.name} ({model.n} variables, "
          f"{model.num_interactions} interactions)")
    try:
        vector, energy, detail = _solve(model, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"solver  : {args.solver} — {detail}")
    print(f"energy  : {energy}")
    if "adjacency" in context:
        print(f"cut     : {cut_value(context['adjacency'], vector)}")
    if "qap" in context:
        inst = context["qap"]
        perm = decode_assignment(vector, inst.n)
        if perm is None:
            print("decode  : infeasible one-hot vector")
        else:
            print(f"decode  : assignment {perm.tolist()} cost={inst.cost(perm)}")
    print(f"vector  : {''.join(map(str, vector))}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
