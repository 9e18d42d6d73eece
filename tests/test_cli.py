"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.io.formats import write_gset, write_qaplib, write_qubo
from repro.problems.gset import gset_like
from repro.problems.qap import grid_qap
from tests.conftest import random_qubo, with_native


@pytest.fixture
def qubo_file(tmp_path):
    model = random_qubo(10, seed=0)
    path = tmp_path / "model.qubo"
    write_qubo(path, model)
    return path, model


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["x.qubo"])
        assert args.solver == "dabs"
        assert args.format == "auto"
        assert args.backend is None  # defer to REPRO_BACKEND, then auto

    def test_rejects_unknown_solver(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["x", "--solver", "gurobi"])

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["x", "--backend", "fpga"])

    def test_accepts_optional_backends(self):
        # registered even when the package is missing; availability is
        # resolved (with fallback) at solve time, not at parse time
        args = build_parser().parse_args(["x", "--backend", "cuda"])
        assert args.backend == "cuda"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["x", "--backend", "numba"])

    def test_rejects_engine_flag(self):
        # a direct solve has one engine; --engine is not an option
        with pytest.raises(SystemExit):
            build_parser().parse_args(["x", "--engine", "async"])

    def test_federation_defaults(self):
        args = build_parser().parse_args(["x.qubo"])
        assert args.islands == 1  # in-process solve by default
        assert args.topology == "ring"
        assert args.migration_period == 16
        assert args.migration_k == 4

    def test_rejects_unknown_topology(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["x", "--topology", "torus"])


class TestMain:
    def test_solves_qubo_file(self, qubo_file, capsys):
        path, model = qubo_file
        rc = main([str(path), "--rounds", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "energy" in out
        assert f"{model.n} variables" in out

    def test_islands_flag_runs_a_federation(self, qubo_file, capsys):
        path, model = qubo_file
        rc = main(
            [
                str(path),
                "--islands", "2",
                "--migration-period", "4",
                "--rounds", "4",
                "--gpus", "1",
                "--blocks", "4",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 islands, ring topology" in out
        energy = int(out.split("energy  : ")[1].splitlines()[0])
        vector_line = out.split("vector  : ")[1].splitlines()[0]
        vector = np.array([int(c) for c in vector_line], dtype=np.uint8)
        assert model.energy(vector) == energy

    def test_backend_flag_is_bit_exact(self, qubo_file, capsys):
        path, _ = qubo_file
        outputs = []
        for backend in with_native("numpy-dense", "numpy-sparse"):
            rc = main([str(path), "--rounds", "5", "--backend", backend])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
        for prefix in ("energy", "vector"):
            lines = [[l for l in out.splitlines() if l.startswith(prefix)] for out in outputs]
            assert all(found == lines[0] for found in lines)

    def test_env_backend_honoured_and_bad_value_rejected(
        self, qubo_file, capsys, monkeypatch
    ):
        import repro.solver.dabs as dabs_mod

        path, _ = qubo_file
        resolved = []
        original = dabs_mod.resolve_backend

        def spy(spec, model):
            backend = original(spec, model)
            resolved.append(backend.name)
            return backend

        monkeypatch.setattr(dabs_mod, "resolve_backend", spy)
        monkeypatch.setenv("REPRO_BACKEND", "numpy-sparse")
        assert main([str(path), "--rounds", "2"]) == 0
        assert "numpy-sparse" in resolved  # the env choice actually ran
        capsys.readouterr()
        monkeypatch.setenv("REPRO_BACKEND", "tpu")
        assert main([str(path), "--rounds", "2"]) == 2
        assert "unknown backend" in capsys.readouterr().err
        # baseline solvers degrade to auto (with a warning) instead of dying
        with pytest.warns(RuntimeWarning, match="unknown backend"):
            assert main([str(path), "--rounds", "2", "--solver", "sa"]) == 0

    def test_fractional_weights_are_one_error_line(self, tmp_path, capsys):
        from repro.core.qubo import QUBOModel

        path = tmp_path / "frac.qubo"
        write_qubo(path, QUBOModel.from_dict(2, {(0, 0): -3.5, (0, 1): 2}))
        assert main([str(path), "--rounds", "2"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "integer weights" in err[0]

    @pytest.mark.parametrize("solver", ["sa", "tabu", "sbm", "exact", "mip"])
    def test_baselines_refuse_fractional_weights(self, tmp_path, capsys, solver):
        """Every baseline reports an integer energy, so a fractional model
        (whose vector 11 has energy -2.5) is refused up front instead of
        printed truncated."""
        from repro.core.qubo import QUBOModel

        model = QUBOModel.from_dict(2, {(0, 0): -1.5, (0, 1): 0.25, (1, 1): -1.25})
        assert model.energy([1, 1]) == -2.5
        path = tmp_path / "frac.qubo"
        write_qubo(path, model)
        assert main([str(path), "--solver", solver]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ") and "integer weights" in err

    def test_fractional_weights_are_one_error_line_over_islands(self, tmp_path, capsys):
        """Federation.submit refuses the model before any island solves."""
        from repro.core.qubo import QUBOModel

        path = tmp_path / "frac.qubo"
        write_qubo(path, QUBOModel.from_dict(2, {(0, 0): -3.5, (0, 1): 2}))
        assert main([str(path), "--rounds", "2", "--islands", "2"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "integer weights" in err[0]

    def test_gset_reports_cut(self, tmp_path, capsys):
        adj = gset_like(12, 20, seed=1)
        path = tmp_path / "g12.txt"
        write_gset(path, adj)
        rc = main([str(path), "--rounds", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cut     :" in out

    def test_qaplib_decodes_assignment(self, tmp_path, capsys):
        inst = grid_qap(2, 2, seed=2)
        path = tmp_path / "nug4.dat"
        write_qaplib(path, inst)
        rc = main([str(path), "--rounds", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "assignment" in out

    @pytest.mark.parametrize("solver", ["abs", "sa", "tabu", "sbm", "exact", "mip"])
    def test_all_solvers_run(self, qubo_file, capsys, solver):
        path, model = qubo_file
        rc = main([str(path), "--solver", solver, "--time-limit", "2", "--rounds", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "energy" in out

    def test_exact_solver_proves_small(self, qubo_file, capsys):
        path, model = qubo_file
        from repro.core.qubo import brute_force

        rc = main([str(path), "--solver", "exact"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "proved optimal" in out
        _, opt = brute_force(model)
        assert f"energy  : {opt}" in out

    def test_missing_file_errors(self, capsys):
        rc = main(["/nonexistent/path.qubo"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_file_errors(self, tmp_path, capsys):
        path = tmp_path / "bad.qubo"
        path.write_text("2\n0 1\n")
        rc = main([str(path)])
        assert rc == 2
