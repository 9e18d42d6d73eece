"""Tests for backend registration, selection and fallback."""

from __future__ import annotations

import warnings

import pytest

from repro.backends import (
    BackendUnavailableError,
    ComputeBackend,
    auto_backend_name,
    available_backends,
    backend_names,
    get_backend,
    prepare_problem,
    resolve_backend,
)
from repro.baselines.simulated_annealing import simulated_annealing
from repro.core.delta import BatchDeltaState
from repro.core.sparse import SparseQUBOModel
from repro.core.qubo import QUBOModel
from repro.solver.dabs import DABSConfig
from tests.conftest import random_qubo


class TestRegistry:
    def test_numpy_backends_registered_and_available(self):
        assert {"numpy-dense", "numpy-sparse"} <= set(backend_names())
        assert {"numpy-dense", "numpy-sparse"} <= set(available_backends())

    def test_optional_backends_registered_even_when_missing(self):
        """The cuda name is always known (lazily imported on use)."""
        assert set(backend_names()) == {"cuda", "numpy-dense", "numpy-sparse"}

    def test_get_backend_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("fpga")

    def test_unknown_backend_error_lists_known_backends(self):
        """Errors name the request and list registered + available names."""
        with pytest.raises(ValueError, match="registered:.*available:"):
            get_backend("fpga")
        with pytest.raises(ValueError, match="'fpga'"):
            get_backend("fpga")

    def test_optional_backends_never_break_import(self):
        """`import repro` must not import numba; the lazy registry defers
        the optional modules until a backend function first needs them."""
        import subprocess
        import sys

        code = (
            "import sys\n"
            "sys.modules['numba'] = None  # poison: any import attempt fails\n"
            "import repro\n"
            "from repro.backends import backend_names\n"
            "assert 'cuda' in backend_names()\n"
            "print('ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_get_backend_returns_singleton(self):
        assert get_backend("numpy-dense") is get_backend("numpy-dense")

    def test_numba_is_not_a_backend(self):
        """numba is only the cuda backend's runtime, not a backend name."""
        with pytest.raises(ValueError, match="unknown backend 'numba'"):
            get_backend("numba")


class TestAutoRule:
    def test_sparse_model_routes_to_csr(self):
        model = SparseQUBOModel(10, {(0, 1): -2, (2, 2): 3})
        assert auto_backend_name(model) == "numpy-sparse"

    def test_small_dense_model_routes_to_dense(self):
        assert auto_backend_name(random_qubo(16, seed=0)) == "numpy-dense"

    def test_low_density_dense_model_routes_to_csr(self):
        model = random_qubo(300, seed=1, density=0.01)
        assert auto_backend_name(model) == "numpy-sparse"

    def test_high_density_large_model_stays_dense(self):
        model = random_qubo(300, seed=2, density=0.5)
        assert auto_backend_name(model) == "numpy-dense"


class TestFractionalRefusal:
    """The kernels are int64 only: every kernel consumer resolves a
    backend, and resolution refuses a fractional model with one error."""

    MODEL = QUBOModel.from_dict(2, {(0, 0): -1.5, (0, 1): 0.25, (1, 1): -1.25})

    @pytest.mark.parametrize(
        "consumer",
        ["numpy-dense", "numpy-sparse", "cuda", "prepare_problem", "simulated_annealing"],
    )
    def test_one_value_error_naming_integer_weights(self, consumer, monkeypatch):
        """``BatchDeltaState`` on each backend (cuda on the stub when no
        runtime is present), ``prepare_problem`` and the SA baseline."""
        import repro.backends.cuda as cuda_mod
        from tests.backends import cuda_stub

        if not cuda_mod.CudaBackend.is_available():
            monkeypatch.setattr(cuda_mod, "cuda", cuda_stub)
            monkeypatch.setattr(cuda_mod, "_CUDA_IMPORT_ERROR", None)
        calls = {
            "prepare_problem": lambda: prepare_problem(self.MODEL),
            "simulated_annealing": lambda: simulated_annealing(self.MODEL, seed=0),
        }
        call = calls.get(consumer, lambda: BatchDeltaState(self.MODEL, 2, backend=consumer))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no fallback warning either
            with pytest.raises(ValueError, match="integer weights"):
                call()


class TestResolve:
    def test_instance_passthrough(self):
        backend = get_backend("numpy-dense")
        assert resolve_backend(backend, random_qubo(8, seed=0)) is backend

    def test_name_lookup(self):
        model = random_qubo(8, seed=0)
        assert resolve_backend("numpy-sparse", model).name == "numpy-sparse"

    def test_none_uses_auto(self):
        model = random_qubo(8, seed=0)
        assert resolve_backend(None, model).name == "numpy-dense"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("tpu", random_qubo(8, seed=0))

    def test_env_var_consulted(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy-sparse")
        model = random_qubo(8, seed=0)
        assert resolve_backend(None, model).name == "numpy-sparse"
        # explicit spec wins over the environment
        assert resolve_backend("numpy-dense", model).name == "numpy-dense"

    def test_unknown_env_backend_falls_back(self, monkeypatch):
        """A stale/typo'd REPRO_BACKEND warns and degrades to auto; only an
        explicitly passed unknown name raises."""
        monkeypatch.setenv("REPRO_BACKEND", "gpu")
        model = random_qubo(8, seed=0)
        with pytest.warns(RuntimeWarning, match="unknown backend"):
            assert resolve_backend(None, model).name == "numpy-dense"

    def test_env_dense_backend_falls_back_on_huge_sparse_model(self, monkeypatch):
        """An env hint must not implicitly densify annealer-scale CSR models."""
        from repro.backends.numpy_dense import DENSIFY_MAX_N

        n = DENSIFY_MAX_N + 1
        model = SparseQUBOModel(n, {(0, 1): -2, (1, 2): 3})
        monkeypatch.setenv("REPRO_BACKEND", "numpy-dense")
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert resolve_backend(None, model).name == "numpy-sparse"
        # small sparse models may still be densified on request
        small = SparseQUBOModel(8, {(0, 1): -2})
        assert resolve_backend(None, small).name == "numpy-dense"

    def test_unavailable_cuda_falls_back_with_warning(self):
        from repro.backends import CudaBackend

        if CudaBackend.is_available():
            pytest.skip("cuda runtime present — no fallback to exercise")
        model = random_qubo(8, seed=0)
        with pytest.warns(RuntimeWarning, match="falling back"):
            backend = resolve_backend("cuda", model)
        assert backend.name == "numpy-dense"
        with pytest.raises(BackendUnavailableError, match="'cuda'"):
            get_backend("cuda")

    def test_custom_backend_registration(self):
        class _Probe(ComputeBackend):
            name = "probe-test"

            def prepare(self, model):  # pragma: no cover - never kernel-run
                return None

            def flip(self, state, idx, active=None):  # pragma: no cover
                raise NotImplementedError

            def _compute_from_x(self, state):  # pragma: no cover
                raise NotImplementedError

        from repro.backends import _REGISTRY, register_backend

        register_backend(_Probe)
        try:
            assert get_backend("probe-test").name == "probe-test"
        finally:
            _REGISTRY.pop("probe-test")


class TestConfigValidation:
    def test_config_accepts_known_backends(self):
        for name in ("auto", "numpy-dense", "numpy-sparse", "cuda", None):
            assert DABSConfig(backend=name).backend == name

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            DABSConfig(backend="fpga")
