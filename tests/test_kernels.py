"""Matrix factorization primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _sigma_reference(slices, points):
    """[DERIVED] per-point matrix 2-norm, by SVD, independent of top_sigma."""
    return np.array([np.linalg.norm(np.tensordot(x, slices, axes=(0, 0)), 2)
                     for x in points])


def _unit_rows(count, ell):
    points = rng.standard_normal((count, ell))
    return points / np.linalg.norm(points, axis=1, keepdims=True)


class TestTopSigma:
    def test_values_and_first_index_ties_across_chunks(self):
        ell, m, n = 3, 40, 40
        # every point holds at least its m x n Gram matrix, so this many
        # points span more than two chunks on either Gram route
        chunk = _CHUNK_DOUBLES // (m * n)
        slices = rng.standard_normal((ell, m, n))
        points = _unit_rows(2 * chunk + 5, ell)
        # the same scaled axis point in the first and the last chunk gives
        # bit-identical matrices, larger than at any unit point
        points[3] = points[-2] = [5.0, 0.0, 0.0]
        sigmas = top_sigma(slices, points)
        np.testing.assert_allclose(sigmas, _sigma_reference(slices, points),
                                   rtol=1e-12)
        assert sigmas[3] == sigmas[-2]
        assert int(np.argmax(sigmas)) == 3

    @pytest.mark.parametrize("shape", [
        (3, 5, 9),    # m < n, quadratic-form Gram
        (3, 9, 5),    # m > n, quadratic-form Gram
        (4, 6, 6),    # m = n, quadratic-form Gram
        (16, 4, 4),   # m = n, contract-then-square Gram
        (16, 3, 7),   # m < n, contract-then-square Gram
        (16, 7, 3),   # m > n, contract-then-square Gram
    ])
    def test_matches_svd_on_both_gram_routes(self, shape):
        slices = rng.standard_normal(shape)
        points = _unit_rows(200, shape[0])
        np.testing.assert_allclose(top_sigma(slices, points),
                                   _sigma_reference(slices, points),
                                   rtol=1e-12)

    @pytest.mark.parametrize("shape", [(3, 5, 9), (16, 4, 4)])
    def test_zero_and_rank_deficient_slices(self, shape):
        ell, m, n = shape
        slices = rng.standard_normal(shape)
        slices[0] = 0.0
        slices[1] = np.outer(rng.standard_normal(m), rng.standard_normal(n))
        points = np.vstack([np.eye(ell), _unit_rows(50, ell)])
        sigmas = top_sigma(slices, points)
        assert np.all(np.isfinite(sigmas))
        assert sigmas[0] == 0.0
        np.testing.assert_allclose(sigmas, _sigma_reference(slices, points),
                                   rtol=1e-12)
        assert np.array_equal(top_sigma(np.zeros(shape), points),
                              np.zeros(len(points)))

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("shape", [(3, 5, 9), (16, 4, 4)])
    def test_extreme_entry_scales(self, shape, scale):
        slices = scale * rng.standard_normal(shape)
        points = _unit_rows(50, shape[0])
        np.testing.assert_allclose(top_sigma(slices, points),
                                   _sigma_reference(slices, points),
                                   rtol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ell=st.integers(1, 6), m=st.integers(1, 12), n=st.integers(1, 12),
           log_scale=st.floats(-250, 250), seed=st.integers(0, 2**32 - 1))
    def test_property_matches_svd(self, ell, m, n, log_scale, seed):
        draw = np.random.default_rng(seed)
        slices = 10.0**log_scale * draw.standard_normal((ell, m, n))
        points = draw.standard_normal((20, ell))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        np.testing.assert_allclose(top_sigma(slices, points),
                                   _sigma_reference(slices, points),
                                   rtol=1e-12)


def _stack_with_feasible(count, m, n, scale):
    """Random matrices, every other one scaled inside the spectral ball."""
    mats = scale * rng.standard_normal((count, m, n))
    for A in mats[::2]:
        A *= 0.5 / spectral_norm(A)
    return mats


class TestProjection:
    @pytest.mark.parametrize("shape", [(4, 4), (5, 3), (3, 5), (1, 6)])
    def test_matches_svd_reference(self, shape):
        # [DERIVED] the SVD form of the projection: U min(s, 1) V'
        mats = _stack_with_feasible(8, *shape, 3.0)
        u, s, vt = np.linalg.svd(mats, full_matrices=False)
        expected = np.einsum("pij,pj,pjk->pik", u, np.minimum(s, 1.0), vt)
        np.testing.assert_allclose(_batched_project_spectral_ball(mats),
                                   expected, rtol=0, atol=1e-12)

    def test_feasible_point_fixed(self):
        for shape in [(4, 4), (5, 3), (3, 5)]:
            mats = _stack_with_feasible(6, *shape, 3.0)
            # a feasible matrix with Frobenius norm above 1 goes through the
            # eigensolve and must still come back as it was
            mats[0] = np.eye(*shape)
            P = _batched_project_spectral_ball(mats)
            np.testing.assert_array_equal(P[2::2], mats[2::2])
            np.testing.assert_allclose(P[0], mats[0], rtol=0, atol=1e-14)

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
