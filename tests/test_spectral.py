"""Grid-enumeration spectral norm scheme, bounds, and witnesses."""

import math

import numpy as np
import pytest

from tensornorms import (
    NormEstimate,
    Tensor3,
    TensorD,
    UnitPointSet,
    best_rank_one,
    build_hemisphere_grid,
    evaluate,
    gen_gaussian,
    gen_orthogonal_test,
    gen_orthogonal_test_order4,
    lower_bound_alpha1,
    nuclear_lower_bound_flatten,
    nuclear_norm_fptas,
    product_point_set,
    sample_uniform,
    spectral_norm_fptas,
    spectral_norm_fptas_d,
    upper_bound_alpha2,
)
from tensornorms.spectral import estimate_from_dict, estimate_to_dict


def _circle_sweep(T, n_angles=20000):
    """Brute-force oracle for first dim 2: dense sweep of x = (cos a, sin a).

    [DERIVED] independent of the grid code; only a hemisphere of angles is
    needed because sigma_max is even in x.
    """
    angles = np.linspace(0.0, math.pi, n_angles, endpoint=False)
    xs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    mats = np.tensordot(xs, T.slices, axes=(1, 0))
    return float(np.linalg.svd(mats, compute_uv=False)[:, 0].max())


class TestBounds:
    def test_alpha_bracket(self):
        # alpha1 <= ||T||_sigma <= alpha2, with the true value from the
        # brute-force circle sweep
        for seed in range(5):
            T = gen_gaussian(2, 4, 5, seed=seed)
            truth = _circle_sweep(T)
            a1, witness = lower_bound_alpha1(T)
            a2 = upper_bound_alpha2(T)
            assert a1 <= truth + 1e-9
            assert a2 >= truth - 1e-9
            # the witness attains the reported bound
            assert evaluate(T, *witness) == pytest.approx(a1, rel=1e-10)

    def test_alpha1_exact_on_orthogonal(self):
        # [PAPER] Eq. (13) class: the spectral norm is the largest weight
        T, dec = gen_orthogonal_test(3, 6, 6, 3, seed=0)
        truth = max(t[0] for t in dec.terms)
        assert lower_bound_alpha1(T)[0] == pytest.approx(truth, rel=1e-10)


class TestFptas:
    def test_certified_interval_orthogonal(self):
        for seed in range(5):
            T, dec = gen_orthogonal_test(4, 8, 8, 4, seed=seed)
            truth = max(t[0] for t in dec.terms)
            est = spectral_norm_fptas(T, 1e-2)
            assert est.certified
            assert est.lower <= truth + 1e-9 <= est.upper + 2e-9
            assert (est.upper - est.lower) / est.upper <= 1e-2 + 1e-12
            # relative error within the requested epsilon
            assert abs(est.value - truth) / truth <= 1e-2

    def test_matches_circle_sweep(self):
        T = gen_gaussian(2, 4, 4, seed=7)
        truth = _circle_sweep(T)
        est = spectral_norm_fptas(T, 1e-5)
        assert est.value == pytest.approx(truth, rel=1e-4)
        assert est.lower <= truth <= est.upper * (1 + 1e-12)

    def test_witness_attains_value(self):
        T = gen_gaussian(3, 5, 6, seed=8)
        est = spectral_norm_fptas(T, 1e-2)
        assert evaluate(T, *est.witness) == pytest.approx(est.value, rel=1e-10)

    def test_witness_owns_its_memory(self):
        # a view into the grid would keep the whole grid alive with the estimate
        T = gen_gaussian(3, 5, 6, seed=8)
        grid = build_hemisphere_grid(3, 20)
        est = spectral_norm_fptas(T, 1e-2, point_set=grid)
        assert not np.shares_memory(est.witness[0], grid.points)
        assert all(v.base is None for v in est.witness)

    def test_first_dim_one_is_exact_svd(self):
        T = gen_gaussian(1, 5, 7, seed=9)
        est = spectral_norm_fptas(T, 1e-3)
        assert est.value == pytest.approx(
            np.linalg.norm(T.slices[0], 2), rel=1e-12
        )
        assert est.lower == est.upper == est.value

    def test_grid_reuse(self):
        # passing a prebuilt grid must agree with the internally built one
        T = gen_gaussian(3, 4, 4, seed=10)
        est_auto = spectral_norm_fptas(T, 1e-2)
        grid = build_hemisphere_grid(3, est_auto.q)
        est_manual = spectral_norm_fptas(T, 1e-2, point_set=grid)
        assert est_manual.value == pytest.approx(est_auto.value, rel=1e-14)

    def test_random_grid_uncertified(self):
        T = gen_gaussian(3, 4, 4, seed=11)
        est = spectral_norm_fptas(T, 1e-2, point_set=sample_uniform(3, 500, seed=1))
        assert not est.certified
        assert est.theta is None
        assert est.lower <= est.upper
        # upper bound falls back to the flattening bound
        assert est.upper == pytest.approx(upper_bound_alpha2(T), rel=1e-14)

    def test_absolute_mode(self):
        T, dec = gen_orthogonal_test(3, 5, 5, 3, seed=12)
        truth = max(t[0] for t in dec.terms)
        est = spectral_norm_fptas(T, 0.05, mode="absolute")
        assert est.upper - est.lower <= 0.05 + 1e-12
        assert abs(est.value - truth) <= 0.05

    def test_absolute_mode_zero_tensor_at_large_ell(self):
        # the zero norm bound gives the coarsest grid, q = 2: ell points
        est = spectral_norm_fptas(Tensor3(np.zeros((30, 3, 3))), 1e-2, mode="absolute")
        assert est.q == 2 and est.grid_points_used == 30
        assert est.lower == est.upper == 0.0

    def test_validation(self):
        T = gen_gaussian(2, 3, 3, seed=0)
        # nan <= 0 is False, so a NaN epsilon once reached the grid sizing
        for eps in (0.0, math.nan):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                spectral_norm_fptas(T, eps)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            spectral_norm_fptas_d(TensorD(np.ones((2, 2, 3, 3))), math.nan)
        with pytest.raises(ValueError):
            spectral_norm_fptas(T, 1e-2, mode="l2")
        with pytest.raises(ValueError):
            spectral_norm_fptas(T, 1e-2, point_set=sample_uniform(4, 10, seed=0))

    def test_rejects_point_set_of_the_wrong_dim(self):
        T = gen_gaussian(3, 4, 4, seed=0)
        for dim in (2, 4):
            with pytest.raises(ValueError, match="point set dim"):
                spectral_norm_fptas(T, 1e-2, point_set=build_hemisphere_grid(dim, 5))
        with pytest.raises(ValueError, match="point set is empty"):
            spectral_norm_fptas(T, 1e-2, point_set=UnitPointSet(3, np.empty((0, 3)), None))

    def test_nonpositive_theta_uncertified(self):
        # eps so large that the coarsest grid has theta <= 0: no covering
        # certificate, so both schemes fall back to their uncertified bounds
        T = gen_gaussian(10, 4, 4, 0)
        est = spectral_norm_fptas(T, 10.0)
        assert est.theta <= 0
        assert not est.certified
        assert 0 < est.lower <= est.upper
        assert est.upper == pytest.approx(upper_bound_alpha2(T), rel=1e-14)

        T = gen_gaussian(6, 3, 3, 0)
        est, _ = nuclear_norm_fptas(T, 10.0)
        assert est.theta <= 0
        assert not est.certified
        assert 0 < est.lower <= est.upper
        assert est.lower == pytest.approx(nuclear_lower_bound_flatten(T), rel=1e-12)


class TestHigherOrder:
    def test_order4_orthogonal(self):
        T, dec = gen_orthogonal_test_order4((2, 3, 6, 7), 2, seed=13)
        truth = max(t[0] for t in dec.terms)
        est = spectral_norm_fptas_d(T, 1e-2)
        assert est.certified
        assert est.lower <= truth + 1e-9 <= est.upper + 2e-9
        assert abs(est.value - truth) / truth <= 1e-2

    def test_order4_witness(self):
        vals = np.random.default_rng(14).standard_normal((2, 2, 4, 5))
        T = TensorD(vals)
        est = spectral_norm_fptas_d(T, 5e-2)
        x1, x2, y, z = est.witness
        attained = float(np.einsum("abjk,a,b,j,k->", vals, x1, x2, y, z))
        assert attained == pytest.approx(est.value, rel=1e-10)

    def test_rejects_product_set_in_the_wrong_mode_order(self):
        # sets for modes of sizes 3 and 2 on a tensor whose small modes are
        # 2 and 3 once certified an upper bound below the attained value
        T = TensorD(np.random.default_rng(0).standard_normal((2, 3, 8, 8)))
        swapped = product_point_set(
            [build_hemisphere_grid(3, 20), build_hemisphere_grid(2, 20)])
        with pytest.raises(ValueError, match="small tensor modes"):
            spectral_norm_fptas_d(T, 1e-2, point_set=swapped)
        ordered = product_point_set(
            [build_hemisphere_grid(2, 20), build_hemisphere_grid(3, 20)])
        est = spectral_norm_fptas_d(T, 1e-2, point_set=ordered)
        assert [len(w) for w in est.witness] == [2, 3, 8, 8]
        assert est.upper >= spectral_norm_fptas_d(T, 1e-2).lower

    def test_product_of_non_certifying_sets_certifies_nothing(self):
        # two thetas of -1 once multiplied to a theta of 1 and a "certified"
        # bracket [2.842, 2.842] below the 4.703 the default grid attains
        T = TensorD(np.random.default_rng(0).standard_normal((2, 2, 5, 5)))
        single = UnitPointSet(2, [[1.0, 0.0]], theta=-1.0)
        both = product_point_set([single, single])
        est = spectral_norm_fptas_d(T, 1e-3, point_set=both)
        assert est.theta <= 0
        assert not est.certified
        assert est.upper >= spectral_norm_fptas_d(T, 1e-3).lower

    def test_size_one_mode(self):
        # a size-1 mode gets the single point [1.0]: the same bracket as the
        # order-3 call on the squeezed tensor, and the exact path when every
        # small mode has size 1
        vals = np.random.default_rng(15).standard_normal((2, 1, 5, 5))
        est = spectral_norm_fptas_d(TensorD(vals), 1e-2)
        est3 = spectral_norm_fptas(Tensor3(vals[:, 0]), 1e-2)
        assert (est.lower, est.upper) == (est3.lower, est3.upper)
        assert [len(w) for w in est.witness] == [2, 1, 5, 5]
        np.testing.assert_array_equal(est.witness[1], [1.0])
        for shape in ((1, 5, 5), (1, 1, 5, 5)):
            est = spectral_norm_fptas_d(TensorD(vals[0, 0].reshape(shape)), 1e-2)
            assert est.lower == est.upper == pytest.approx(
                np.linalg.norm(vals[0, 0], 2), rel=1e-12)
            assert est.grid_points_used == 0


class TestRankOne:
    def test_residual_identity(self):
        # [PAPER] Eq. (2): residual^2 = ||T||_F^2 - lambda^2 at unit factors
        for seed in range(10):
            T = gen_gaussian(3, 4, 4, seed=seed)
            est = spectral_norm_fptas(T, 1e-3)
            lam, x, y, z, resid = best_rank_one(T, est)
            expected = math.sqrt(max(T.frobenius_norm() ** 2 - lam**2, 0.0))
            assert resid == pytest.approx(expected, rel=1e-10)


class TestSerialization:
    def test_round_trip(self):
        T = gen_gaussian(3, 4, 4, seed=16)
        est = spectral_norm_fptas(T, 1e-2)
        back = estimate_from_dict(estimate_to_dict(est))
        assert isinstance(back, NormEstimate)
        assert back.value == est.value
        assert back.lower == est.lower and back.upper == est.upper
        assert back.certified == est.certified and back.q == est.q
        for a, b in zip(back.witness, est.witness):
            np.testing.assert_array_equal(a, b)
