"""Quadratic-system formulation of the squared spectral norm."""

import os
import subprocess
import sys

import numpy as np
import pytest

import tensornorms
from tensornorms import (
    OracleInconclusive,
    QuadSystemInstance,
    Tensor3,
    constructive_solution,
    gen_gaussian,
    residuals,
    spectral_norm_fptas,
    threshold_bisection,
)


class TestInstance:
    def test_dimension_validation(self):
        T = gen_gaussian(2, 3, 3, seed=0)
        with pytest.raises(ValueError):
            QuadSystemInstance(T, 1.0, 1.0, np.ones(2), np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            QuadSystemInstance(T, -1.0, 1.0, np.ones(3), np.ones(3), np.ones(2))

    def test_residual_length(self):
        T = gen_gaussian(3, 2, 4, seed=1)
        inst = QuadSystemInstance(T, 1.0, 1.0, np.ones(2), np.ones(4), np.ones(3))
        assert residuals(inst).shape == (3 + 3,)


class TestConstructiveSolution:
    def test_exact_residuals(self):
        # [PAPER] Lemma 2.1, constructive direction: any unit (y, z) yields an
        # exact solution at the alpha it achieves
        rng = np.random.default_rng(2)
        for seed in range(5):
            T = gen_gaussian(3, 4, 4, seed=seed)
            inst = constructive_solution(
                T, rng.standard_normal(4), rng.standard_normal(4)
            )
            np.testing.assert_allclose(residuals(inst), 0.0, atol=1e-12)

    def test_alpha_bounded_by_norm_squared(self):
        rng = np.random.default_rng(3)
        T = gen_gaussian(2, 3, 3, seed=4)
        sigma = spectral_norm_fptas(T, 1e-6).upper
        for _ in range(10):
            inst = constructive_solution(
                T, rng.standard_normal(3), rng.standard_normal(3)
            )
            assert inst.alpha <= sigma**2 + 1e-9

    def test_optimal_pair_attains_norm_squared(self):
        T = gen_gaussian(2, 3, 3, seed=5)
        est = spectral_norm_fptas(T, 1e-8)
        _, y, z = est.witness
        inst = constructive_solution(T, y, z)
        assert inst.alpha == pytest.approx(est.value**2, rel=1e-6)


class TestThresholdBisection:
    def test_rank_one(self):
        x = np.array([0.6, 0.8])
        y = np.array([1.0, 0.0])
        z = np.array([0.0, 1.0])
        T = Tensor3(2.5 * np.einsum("i,j,k->ijk", x, y, z))
        # sigma = 2.5, so the feasibility threshold is 6.25
        assert threshold_bisection(T) == pytest.approx(6.25, abs=1e-3)

    def test_matches_grid_scheme(self):
        # [DERIVED] cross-check against the independent enumeration scheme
        for seed in (0, 1):
            T = gen_gaussian(2, 2, 2, seed=seed)
            sigma2 = spectral_norm_fptas(T, 1e-8).value ** 2
            assert threshold_bisection(T) == pytest.approx(sigma2, abs=2e-3)

    def test_size_and_tol_validation(self):
        with pytest.raises(ValueError):
            threshold_bisection(gen_gaussian(4, 2, 2, seed=0))
        with pytest.raises(ValueError):
            threshold_bisection(gen_gaussian(2, 5, 2, seed=0))
        with pytest.raises(ValueError):
            threshold_bisection(gen_gaussian(2, 2, 2, seed=0), tol=0.0)


class TestOracleInconclusive:
    def test_reports_interval(self):
        exc = OracleInconclusive(1.5, 1e-4, (1e-6, 1e-3), (1.4, 1.6))
        assert exc.alpha == 1.5
        assert exc.interval == (1.4, 1.6)
        assert "confined to" in str(exc)


def test_package_import_leaves_scipy_optimize_unloaded():
    # only the brute-force oracle needs it, and it costs every import ~20 MB
    code = "import sys, tensornorms; print('scipy.optimize' in sys.modules)"
    src = os.path.dirname(os.path.dirname(tensornorms.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
