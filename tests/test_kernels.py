"""Matrix factorization primitives."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensornorms import (
    build_hemisphere_grid,
    gen_gaussian,
    nuclear_norm,
    resolution_for_error,
    spectral_norm,
    top_sigma,
    top_sigma_argmax,
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


def _assert_same_argmax(slices, points):
    """top_sigma_argmax is bit for bit top_sigma followed by np.argmax."""
    sigmas = top_sigma(slices, points)
    i = int(np.argmax(sigmas))
    index, value = top_sigma_argmax(slices, points)
    assert (index, value.hex()) == (i, float(sigmas[i]).hex())
    return index


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
        assert _assert_same_argmax(slices, points) == 3
        # a flat spectrum gives the last point the largest bound but a
        # smaller sigma, so the last chunk, with the later tie, comes first
        slices[1] = np.linalg.qr(rng.standard_normal((m, n)))[0]
        points[-1] = [0.0, 0.95 * 5.0 * spectral_norm(slices[0]), 0.0]
        assert _assert_same_argmax(slices, points) == 3

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
        _assert_same_argmax(slices, points)

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
        _assert_same_argmax(slices, points)
        # only the zero slice's axis point: every sigma is 0, the first wins
        _assert_same_argmax(slices, np.tile(np.eye(ell)[0], (5, 1)))
        assert top_sigma_argmax(np.zeros(shape), points) == (0, 0.0)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("shape", [(3, 5, 9), (16, 4, 4)])
    def test_extreme_entry_scales(self, shape, scale):
        slices = scale * rng.standard_normal(shape)
        points = _unit_rows(50, shape[0])
        np.testing.assert_allclose(top_sigma(slices, points),
                                   _sigma_reference(slices, points),
                                   rtol=1e-12)
        _assert_same_argmax(slices, points)

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


class TestTopSigmaArgmax:
    @pytest.mark.parametrize("shape", [(3, 5, 9), (16, 4, 4)])
    def test_maximum_far_below_the_largest_entry(self, shape):
        # every point misses the big first slice, so each lambda^8 of the
        # scaled Gram matrices underflows and bounds nothing
        slices = 1e-30 * rng.standard_normal(shape)
        slices[0] = 1.0
        points = _unit_rows(300, shape[0])
        points[:, 0] = 0.0
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        _assert_same_argmax(slices, points)

    @pytest.mark.parametrize("shape", [(3, 5, 9), (16, 4, 4)])
    def test_non_unit_rows(self, shape):
        points = _unit_rows(300, shape[0]) * rng.uniform(0.1, 10.0, (300, 1))
        _assert_same_argmax(rng.standard_normal(shape), points)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ell=st.integers(1, 6), m=st.integers(1, 12), n=st.integers(1, 12),
           count=st.integers(1, 300), log_scale=st.floats(-250, 250),
           seed=st.integers(0, 2**32 - 1))
    def test_property_matches_the_full_scan(self, ell, m, n, count, log_scale, seed):
        draw = np.random.default_rng(seed)
        slices = 10.0**log_scale * draw.standard_normal((ell, m, n))
        points = draw.standard_normal((count, ell))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        points[draw.integers(count, size=count // 10)] = points[0]  # ties
        _assert_same_argmax(slices, points)

    def test_eigensolves_few_grid_points(self, monkeypatch):
        T = gen_gaussian(4, 50, 50, seed=3)
        grid = build_hemisphere_grid(4, resolution_for_error(4, 1e-2, 1.0))
        assert len(grid) == 7240
        index = _assert_same_argmax(T.slices, grid.points)
        eigvalsh, solved = np.linalg.eigvalsh, []

        def counting(a, *args, **kwargs):
            solved.append(a.shape[0] if a.ndim == 3 else 1)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert top_sigma_argmax(T.slices, grid.points)[0] == index
        assert sum(solved) < 0.05 * len(grid)


def _stack_with_feasible(count, m, n, scale):
    """Random matrices, every other one scaled inside the spectral ball."""
    mats = scale * rng.standard_normal((count, m, n))
    for A in mats[::2]:
        A *= 0.5 / spectral_norm(A)
    return mats


def _with_sigmas(m, n, sigmas):
    """A random m x n matrix with the given singular values."""
    k = min(m, n)
    u = np.linalg.qr(rng.standard_normal((m, k)))[0]
    v = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return (u * sigmas) @ v.T


def _mixed_stack(m, n):
    """(stack, number of leading matrices inside the spectral ball)."""
    k = min(m, n)
    inside = [
        np.zeros((m, n)),
        _with_sigmas(m, n, np.full(k, 0.9 / np.sqrt(k))),  # Frobenius norm 0.9
        # Frobenius norm above 1: sum s^16 <= 1 for the first two, so the
        # eigensolve is skipped; 0.9 I_6 has sum s^16 = 1.11 and is not
        0.8 * np.eye(m, n),
        _with_sigmas(m, n, np.linspace(0.99, 0.3, k)),
        0.9 * np.eye(m, n),
    ]
    outside = [
        _with_sigmas(m, n, np.linspace(1.0 + 1e-9, 0.2, k)),
        _with_sigmas(m, n, np.linspace(3.0, 0.5, k)),
        3.0 * rng.standard_normal((m, n)),
    ]
    return np.array(inside + outside), len(inside)


class TestProjection:
    @pytest.mark.parametrize("shape", [(6, 6), (7, 4), (4, 7)])
    def test_mixed_stack(self, shape):
        mats, n_in = _mixed_stack(*shape)
        P = _batched_project_spectral_ball(mats)
        # inside the ball: returned bit for bit, skipped or eigensolved
        np.testing.assert_array_equal(P[:n_in], mats[:n_in])
        # [DERIVED] outside: the SVD form U min(s, 1) V'
        u, s, vt = np.linalg.svd(mats[n_in:], full_matrices=False)
        expected = np.einsum("pij,pj,pjk->pik", u, np.minimum(s, 1.0), vt)
        np.testing.assert_allclose(P[n_in:], expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(P[n_in:], 2, axis=(1, 2)), 1.0,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(6, 6), (7, 4), (4, 7)])
    def test_in_ball_bound_skips_the_eigensolve(self, shape, monkeypatch):
        mats, _ = _mixed_stack(*shape)
        certified = mats[[0, 1, 2, 3]]

        def eigh(*args):
            raise AssertionError("eigensolve on a matrix proved inside the ball")

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        np.testing.assert_array_equal(_batched_project_spectral_ball(certified),
                                      certified)

    @pytest.mark.parametrize("shape", [(6, 6), (7, 4), (4, 7)])
    def test_overflowing_bound_is_not_skipped(self, shape):
        # entries near 1e100 overflow G^4 to inf; the matrix is eigensolved
        mats = 1e100 * rng.standard_normal((3, *shape))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = _batched_project_spectral_ball(mats)
        assert np.all(np.isfinite(P))
        assert np.all(np.linalg.norm(P, axis=(1, 2)) < np.linalg.norm(mats, axis=(1, 2)))

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
