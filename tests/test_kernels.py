"""Matrix factorization primitives."""

import numpy as np
import pytest

from tensornorms import (
    nuclear_norm,
    spectral_norm,
    top_sigma,
    top_singular_pair,
)
from tensornorms.kernels import _CHUNK_DOUBLES
from tensornorms.nuclear import _batched_project_spectral_ball

rng = np.random.default_rng(42)


class TestNorms:
    def test_spectral_matches_operator_norm(self):
        # [DERIVED] independent oracle: numpy's 2-norm
        A = rng.standard_normal((5, 6))
        assert spectral_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-13)

    def test_nuclear_matches_trace_norm(self):
        A = rng.standard_normal((4, 7))
        assert nuclear_norm(A) == pytest.approx(
            np.linalg.svd(A, compute_uv=False).sum(), rel=1e-13
        )

    def test_duality_on_matrices(self):
        # |<A, B>| <= ||A||_sigma ||B||_* (matrix Hoelder)
        for _ in range(10):
            A = rng.standard_normal((4, 5))
            B = rng.standard_normal((4, 5))
            assert abs((A * B).sum()) <= spectral_norm(A) * nuclear_norm(B) + 1e-12

    def test_top_singular_pair_attains(self):
        A = rng.standard_normal((6, 3))
        sigma, u, v = top_singular_pair(A)
        assert u @ A @ v == pytest.approx(sigma, rel=1e-12)
        assert np.linalg.norm(u) == pytest.approx(1.0)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_rejects_bad_input(self):
        for norm in (spectral_norm, nuclear_norm):
            with pytest.raises(ValueError):
                norm(np.zeros(3))
            with pytest.raises(ValueError):
                norm(np.array([[1.0, np.nan]]))


class TestTopSigma:
    def test_values_and_first_index_ties_across_chunks(self):
        ell, m, n = 3, 40, 40
        chunk = _CHUNK_DOUBLES // (m * n)
        slices = rng.standard_normal((ell, m, n))
        points = rng.standard_normal((2 * chunk + 5, ell))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        # the same scaled axis point in the first and the last chunk gives
        # bit-identical matrices, larger than at any unit point
        points[3] = points[-2] = [5.0, 0.0, 0.0]
        sigmas = top_sigma(slices, points)
        expected = [np.linalg.norm(np.tensordot(x, slices, axes=(0, 0)), 2)
                    for x in points]
        np.testing.assert_allclose(sigmas, expected, rtol=1e-12)
        assert sigmas[3] == sigmas[-2]
        assert int(np.argmax(sigmas)) == 3


def _stack_with_feasible(count, m, n, scale):
    """Random matrices, every other one scaled inside the spectral ball."""
    mats = scale * rng.standard_normal((count, m, n))
    for A in mats[::2]:
        A *= 0.5 / spectral_norm(A)
    return mats


class TestProjection:
    def test_feasible_point_fixed(self):
        mats = _stack_with_feasible(6, 4, 4, 3.0)
        P = _batched_project_spectral_ball(mats)
        np.testing.assert_array_equal(P[::2], mats[::2])

    def test_projection_is_feasible(self):
        P = _batched_project_spectral_ball(_stack_with_feasible(6, 5, 3, 5.0))
        for A in P:
            assert spectral_norm(A) <= 1.0 + 1e-12

    def test_projection_is_nearest(self):
        # [DERIVED] optimality check against random feasible competitors
        mats = _stack_with_feasible(4, 4, 4, 3.0)
        P = _batched_project_spectral_ball(mats)
        for A, PA in zip(mats, P):
            dist = np.linalg.norm(A - PA)
            for _ in range(50):
                B = rng.standard_normal((4, 4))
                B = B / max(spectral_norm(B), 1.0)
                assert np.linalg.norm(A - B) >= dist - 1e-10
