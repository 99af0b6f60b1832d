"""Grid-relaxed convex program for the nuclear norm and its certificates."""

import numpy as np
import pytest

from tensornorms import (
    RankOneDecomposition,
    SolverError,
    Tensor3,
    TensorD,
    UnitPointSet,
    assemble,
    build_hemisphere_grid,
    certificate_to_dict,
    extract_nuclear_decomposition,
    gen_gaussian,
    gen_orthogonal_test,
    gen_orthogonal_test_order4,
    gen_sequence_example,
    nuclear_lower_bound_flatten,
    nuclear_norm,
    nuclear_norm_fptas,
    nuclear_norm_fptas_d,
    nuclear_upper_bound_slices,
    product_point_set,
    sample_uniform,
    solve_relaxation,
)


def _feasibility_violation(Z, points):
    """[DERIVED] direct re-check of every spectral-ball constraint."""
    mats = np.tensordot(points.points, Z.slices, axes=(1, 0))
    return float(np.linalg.svd(mats, compute_uv=False)[:, 0].max()) - 1.0


class TestBounds:
    def test_flatten_below_slices(self):
        for seed in range(5):
            T = gen_gaussian(3, 4, 5, seed=seed)
            assert nuclear_lower_bound_flatten(T) <= \
                nuclear_upper_bound_slices(T) + 1e-10

    def test_bracket_truth_on_orthogonal(self):
        # [PAPER] Eq. (13) class: the nuclear norm is the sum of weights
        T, dec = gen_orthogonal_test(3, 5, 5, 3, seed=0)
        truth = sum(t[0] for t in dec.terms)
        assert nuclear_lower_bound_flatten(T) <= truth + 1e-9
        assert nuclear_upper_bound_slices(T) >= truth - 1e-9


class TestSolveRelaxation:
    def test_feasible_and_sandwiched(self):
        T, dec = gen_orthogonal_test(3, 5, 5, 3, seed=1)
        truth = sum(t[0] for t in dec.terms)
        grid = build_hemisphere_grid(3, 6)
        Z, value, lam, info = solve_relaxation(T, grid)
        # returned Z is rescaled to exact feasibility
        assert _feasibility_violation(Z, grid) <= 1e-9
        # value = <T, Z> at feasible Z lower-bounds the relaxation optimum,
        # the dual value upper-bounds it; truth sits inside after theta
        assert value == pytest.approx(
            float(np.tensordot(T.slices, Z.slices, axes=3)), rel=1e-12
        )
        assert grid.theta * value <= truth + 1e-6
        assert info["dual_value"] >= truth - 1e-6
        assert info["gap"] <= 1e-3

    def test_dual_identity(self):
        # T = sum_x x (outer) Lambda_x holds to near round-off
        T = gen_gaussian(3, 4, 4, seed=2)
        grid = build_hemisphere_grid(3, 5)
        _, _, lam, info = solve_relaxation(T, grid)
        resid = np.linalg.norm(
            T.slices - np.einsum("pi,pjk->ijk", grid.points, lam)
        )
        assert resid <= 1e-8 * T.frobenius_norm()
        assert info["stationarity_residual"] <= 1e-8

    def test_zero_tensor(self):
        grid = build_hemisphere_grid(3, 4)
        Z, value, lam, info = solve_relaxation(Tensor3(np.zeros((3, 2, 2))), grid)
        assert value == 0.0
        assert info["converged"]
        assert info["stop"] == "zero tensor"

    def test_stops_mid_burst_once_the_gap_closes(self):
        # without gap checks inside a burst this solve ran 1,860 iterations:
        # its last 1,500-iteration burst ran on after the gap had closed
        T, dec = gen_orthogonal_test_order4((2, 2, 4, 4), 2, seed=0)
        truth = sum(t[0] for t in dec.terms)
        est, cert = nuclear_norm_fptas_d(T, 1e-1)
        assert cert.solver_iterations < 1860
        assert cert.stop == "gap" and cert.converged
        assert cert.gap <= cert.gap_tol
        assert est.lower <= truth <= est.upper

    def test_published_sequence_value(self):
        # [PAPER] ||i + j + k||_* = 33.6749 (4 decimals)
        est, cert = nuclear_norm_fptas(gen_sequence_example(), 3e-3)
        assert cert.converged and cert.stop == "gap"
        assert est.lower <= 33.6749 <= est.upper

    def test_nonspanning_points_rejected(self):
        # all constraints along one direction leave the program unbounded
        pts = UnitPointSet(2, np.tile([1.0, 0.0], (4, 1)), None)
        with pytest.raises(SolverError):
            solve_relaxation(gen_gaussian(2, 3, 3, seed=3), pts)


class TestFptas:
    def test_orthogonal_instances(self):
        for seed in range(3):
            T, dec = gen_orthogonal_test(3, 5, 5, 3, seed=seed)
            truth = sum(t[0] for t in dec.terms)
            est, cert = nuclear_norm_fptas(T, 1e-1)
            assert est.certified
            assert est.lower <= truth + 1e-6 <= est.upper + 2e-6
            assert abs(est.value - truth) / truth <= 1e-1
            # sandwich: theta * primal <= dual up to solver tolerance
            assert est.lower <= cert.dual_value + 1e-6
            assert cert.converged

    def test_rank_one_tensor(self):
        # nuclear and spectral norms coincide at rank one
        x = np.array([0.6, 0.8])
        T = Tensor3(3.0 * np.einsum("i,j,k->ijk", x, [1.0, 0.0], [0.0, 1.0]))
        est, _ = nuclear_norm_fptas(T, 1e-2)
        assert est.lower <= 3.0 <= est.upper
        assert est.value == pytest.approx(3.0, rel=1e-2)

    def test_first_dim_one_is_exact_svd(self):
        T = gen_gaussian(1, 4, 6, seed=4)
        est, cert = nuclear_norm_fptas(T, 1e-3)
        assert est.value == pytest.approx(nuclear_norm(T.slices[0]), rel=1e-12)
        assert est.lower == est.upper == est.value
        resid = (T - assemble(cert.dual_decomposition, T.dims)).frobenius_norm()
        assert resid <= 1e-10 * T.frobenius_norm()

    def test_decomposition_reconstructs(self):
        T, dec = gen_orthogonal_test(3, 4, 4, 3, seed=5)
        est, cert = nuclear_norm_fptas(T, 1e-1)
        resid = (T - assemble(cert.dual_decomposition, T.dims)).frobenius_norm()
        assert resid <= 1e-5 * T.frobenius_norm()
        # total weight itself estimates the nuclear norm from above
        wsum = cert.dual_decomposition.weight_sum()
        assert est.lower - 1e-6 <= wsum <= est.upper / est.theta + 1e-6

    def test_random_grid_uncertified(self):
        T = gen_gaussian(3, 4, 4, seed=6)
        est, cert = nuclear_norm_fptas(
            T, 1e-1, point_set=sample_uniform(3, 200, seed=0)
        )
        assert not est.certified
        assert est.theta is None
        # fallback lower bound is the flattening nuclear norm
        assert est.lower == pytest.approx(nuclear_lower_bound_flatten(T), rel=1e-12)
        assert est.upper == pytest.approx(cert.dual_value, rel=1e-12)

    def test_rejects_point_set_of_the_wrong_dim(self):
        T = gen_gaussian(3, 4, 4, seed=0)
        for dim in (2, 4):
            with pytest.raises(ValueError, match="point set dim"):
                nuclear_norm_fptas(T, 1e-1, point_set=build_hemisphere_grid(dim, 5))
        # checked before the solve, so ValueError rather than SolverError
        with pytest.raises(ValueError, match="point set is empty"):
            nuclear_norm_fptas(T, 1e-1, point_set=UnitPointSet(3, np.empty((0, 3)), None))

    def test_absolute_mode_zero_tensor_at_large_ell(self):
        est, _ = nuclear_norm_fptas(Tensor3(np.zeros((30, 3, 3))), 1e-2, mode="absolute")
        assert est.q == 2 and est.grid_points_used == 30
        assert est.lower == est.upper == 0.0

    def test_validation(self):
        T = gen_gaussian(2, 3, 3, seed=0)
        with pytest.raises(ValueError):
            nuclear_norm_fptas(T, -1.0)
        with pytest.raises(ValueError):
            nuclear_norm_fptas(T, 1e-2, mode="weird")
        # a NaN gap tolerance once ran the solver to 7,340 iterations unconverged
        with pytest.raises(ValueError, match="epsilon must be positive"):
            nuclear_norm_fptas(T, np.nan, point_set=build_hemisphere_grid(2, 6))
        with pytest.raises(ValueError, match="epsilon must be positive"):
            nuclear_norm_fptas_d(TensorD(np.ones((2, 2, 3, 3))), np.nan)


class TestHigherOrder:
    def test_order4_orthogonal(self):
        T, dec = gen_orthogonal_test_order4((2, 2, 4, 5), 2, seed=7)
        truth = sum(t[0] for t in dec.terms)
        est, cert = nuclear_norm_fptas_d(T, 1e-1)
        assert est.certified
        assert est.lower <= truth + 1e-6 <= est.upper + 2e-6
        assert abs(est.value - truth) / truth <= 1e-1

    def test_rejects_product_set_in_the_wrong_mode_order(self):
        T = TensorD(np.random.default_rng(0).standard_normal((2, 3, 8, 8)))
        swapped = product_point_set(
            [build_hemisphere_grid(3, 20), build_hemisphere_grid(2, 20)])
        with pytest.raises(ValueError, match="small tensor modes"):
            nuclear_norm_fptas_d(T, 1e-2, point_set=swapped)

    def test_size_one_mode(self):
        # a size-1 mode gets the single point [1.0]: the same bracket as the
        # order-3 call on the squeezed tensor, and the exact path when every
        # small mode has size 1
        vals = np.random.default_rng(15).standard_normal((2, 1, 5, 5))
        est, _ = nuclear_norm_fptas_d(TensorD(vals), 1e-1)
        est3, _ = nuclear_norm_fptas(Tensor3(vals[:, 0]), 1e-1)
        assert (est.lower, est.upper) == (est3.lower, est3.upper)
        for shape in ((1, 5, 5), (1, 1, 5, 5)):
            est, cert = nuclear_norm_fptas_d(TensorD(vals[0, 0].reshape(shape)), 1e-1)
            assert est.lower == est.upper == pytest.approx(nuclear_norm(vals[0, 0]),
                                                           rel=1e-12)
            assert cert.solver_iterations == 0


class TestExtraction:
    def test_stationarity_gate(self):
        lam = np.zeros((2, 2, 2))
        pts = build_hemisphere_grid(2, 3)
        with pytest.raises(SolverError):
            extract_nuclear_decomposition(
                lam[: len(pts)], pts, stationarity_residual=1.0,
                max_stationarity=1e-6,
            )

    def test_terms_in_point_then_singular_value_order(self):
        pts = build_hemisphere_grid(2, 3)  # three points
        lam = np.zeros((3, 2, 2))
        lam[1] = np.diag([3.0, 1e-9])  # 1e-9 is below 1e-8 of the total weight
        lam[2] = [[0.0, 2.0], [-0.5, 0.0]]  # rank two, singular values 2 and 0.5
        dec = extract_nuclear_decomposition(lam, pts)
        assert [t[0] for t in dec.terms] == [3.0, 2.0, 0.5]
        for (_, x, _, _), p in zip(dec.terms, [1, 2, 2]):
            np.testing.assert_array_equal(x, pts.points[p])
        for p in (1, 2):
            parts = [w * np.outer(y, z) for w, x, y, z in dec.terms
                     if np.array_equal(x, pts.points[p])]
            np.testing.assert_allclose(sum(parts), lam[p], atol=2e-9)
        assert len(extract_nuclear_decomposition(np.zeros((3, 2, 2)), pts)) == 0

    def test_terms_are_unit_factors(self):
        T, _ = gen_orthogonal_test(3, 4, 4, 2, seed=8)
        _, cert = nuclear_norm_fptas(T, 1e-1)
        dec = cert.dual_decomposition
        assert isinstance(dec, RankOneDecomposition)
        for lam_w, x, y, z in dec.terms:
            assert lam_w > 0
            for v in (x, y, z):
                assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


class TestSerialization:
    def test_certificate_dict(self):
        T, _ = gen_orthogonal_test(2, 3, 3, 2, seed=9)
        _, cert = nuclear_norm_fptas(T, 1e-1)
        d = certificate_to_dict(cert)
        assert d["primal_value"] == cert.primal_value
        assert d["dual_value"] == cert.dual_value
        assert d["converged"] is True
        assert len(d["decomposition"]) == len(cert.dual_decomposition.terms)
        first = d["decomposition"][0]
        assert set(first) == {"lambda", "x", "y", "z"}
