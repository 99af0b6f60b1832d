"""Sphere and hemisphere discretizations and their covering guarantees."""

import itertools
import math

import numpy as np
import pytest

from tensornorms import (
    ProductPointSet,
    UnitPointSet,
    build_hemisphere_grid,
    covering_coefficient,
    hemisphere_point_count,
    product_point_set,
    resolution_for_error,
    sample_uniform,
    spherical_to_cartesian,
)


class TestSphericalCoordinates:
    def test_cardinal_directions(self):
        np.testing.assert_allclose(spherical_to_cartesian([0.0]), [1.0, 0.0],
                                   atol=1e-15)
        np.testing.assert_allclose(spherical_to_cartesian([math.pi / 2]),
                                   [0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(
            spherical_to_cartesian([math.pi / 2, math.pi / 2]),
            [0.0, 0.0, 1.0], atol=1e-15,
        )

    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = rng.integers(1, 5)
            phi = rng.uniform(0, math.pi, size=k)
            phi[-1] = rng.uniform(0, 2 * math.pi)
            assert np.linalg.norm(spherical_to_cartesian(phi)) == pytest.approx(1.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            spherical_to_cartesian([4.0, 1.0])  # first angle beyond pi
        with pytest.raises(ValueError):
            spherical_to_cartesian([1.0, -0.5])


class TestHemisphereGrid:
    def test_point_count_formula(self):
        # [PAPER] Table 2 row for ell=4: 156, 400, 820, 1885
        assert len(build_hemisphere_grid(4, 6)) == 156
        assert len(build_hemisphere_grid(4, 8)) == 400
        assert len(build_hemisphere_grid(4, 10)) == 820
        assert len(build_hemisphere_grid(4, 13)) == 1885

    def test_count_matches_closed_form(self):
        for ell, q in itertools.product(range(2, 6), range(2, 9)):
            grid = build_hemisphere_grid(ell, q)
            assert len(grid) == hemisphere_point_count(ell, q)

    def test_q2_degenerates_to_basis(self):
        # at q=2 the grid is the ell standard basis vectors
        grid = build_hemisphere_grid(3, 2)
        assert len(grid) == 3
        np.testing.assert_allclose(grid.points, np.eye(3), atol=1e-15)

    def test_q2_at_high_dim_stays_linear(self):
        # only the kept rows are built, so a long q=2 grid costs ell points
        # (a full q^(ell-1) index cube here would need terabytes)
        grid = build_hemisphere_grid(40, 2)
        assert len(grid) == 40
        np.testing.assert_allclose(grid.points, np.eye(40), atol=1e-15)

    def test_points_unit_and_distinct(self):
        grid = build_hemisphere_grid(4, 7)
        norms = np.linalg.norm(grid.points, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        gram = grid.points @ grid.points.T
        np.fill_diagonal(gram, 0.0)
        assert gram.max() < 1.0 - 1e-9  # no duplicated directions

    def test_no_antipodal_pairs(self):
        # hemisphere dedup: x and -x never both present
        grid = build_hemisphere_grid(3, 8)
        gram = grid.points @ grid.points.T
        assert gram.min() > -1.0 + 1e-9

    def test_covering_bound(self):
        # [PAPER] Lemma 3.1: max_x |u'x| >= theta over the hemisphere grid
        rng = np.random.default_rng(1)
        for ell, q in [(2, 5), (3, 6), (4, 6), (5, 4)]:
            grid = build_hemisphere_grid(ell, q)
            theta = covering_coefficient(q, ell)
            us = rng.standard_normal((2000, ell))
            us /= np.linalg.norm(us, axis=1, keepdims=True)
            cover = np.abs(us @ grid.points.T).max(axis=1)
            assert cover.min() >= theta - 1e-12

    def test_order_matches_independent_reference(self):
        # rows follow the lexicographic order of the angle indices whose
        # zeros trail; spectral ties go to the first point and the nuclear
        # spanning seed follows grid order, so the order is part of the API
        for ell, q in itertools.product(range(2, 7), (2, 3, 7)):
            rows = [r for r in itertools.product(range(q), repeat=ell - 1)
                    if 0 not in r[:len(r) - r.count(0)]]
            expected = np.array([spherical_to_cartesian(np.array(r) * (math.pi / q))
                                 for r in rows])
            np.testing.assert_array_equal(build_hemisphere_grid(ell, q).points,
                                          expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_hemisphere_grid(1, 5)
        with pytest.raises(ValueError):
            build_hemisphere_grid(3, 1)


class TestResolution:
    def test_formula_anchor(self):
        # [PAPER] ell=4, eps=1e-3 relative -> q = 61 (Section 4.2 example)
        assert resolution_for_error(4, 1e-3) == 61

    def test_post_condition(self):
        # returned q certifies the requested error through theta
        for ell in (2, 3, 4):
            for eps in (0.3, 1e-1, 1e-2, 1e-3):
                q = resolution_for_error(ell, eps)
                assert 1.0 - covering_coefficient(q, ell) <= eps + 1e-15
                if q > 2:
                    assert 1.0 - covering_coefficient(q - 1, ell) > eps

    def test_absolute_scale(self):
        # absolute targets scale epsilon by the norm bound
        assert resolution_for_error(3, 1e-2, scale=4.0) == \
            resolution_for_error(3, 1e-2 / 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            resolution_for_error(3, 0.0)


class TestUniformSampling:
    def test_unit_and_reproducible(self):
        a = sample_uniform(4, 100, seed=3)
        b = sample_uniform(4, 100, seed=3)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_allclose(np.linalg.norm(a.points, axis=1), 1.0)
        assert a.theta is None


class TestProductPointSet:
    def test_len_theta_and_iteration(self):
        s1 = build_hemisphere_grid(2, 4)
        s2 = build_hemisphere_grid(3, 5)
        prod = ProductPointSet([s1, s2])
        assert len(prod) == len(s1) * len(s2)
        assert prod.theta == pytest.approx(s1.theta * s2.theta)
        # flattened rows iterate the product in itertools.product order
        flat = prod.flattened().points
        for row, (a, b) in zip(flat, itertools.product(s1.points, s2.points)):
            np.testing.assert_array_equal(row, np.einsum("a,b->ab", a, b).ravel())

    def test_flattened_is_kron(self):
        s1 = build_hemisphere_grid(2, 3)
        s2 = build_hemisphere_grid(3, 3)
        flat = ProductPointSet([s1, s2]).flattened()
        assert flat.points.shape == (len(s1) * len(s2), 6)
        # row p*|s2| + r equals kron(s1[p], s2[r]); all rows stay unit
        np.testing.assert_allclose(
            flat.points[1 * len(s2) + 2],
            np.kron(s1.points[1], s2.points[2]), atol=1e-14,
        )
        np.testing.assert_allclose(np.linalg.norm(flat.points, axis=1), 1.0)

    def test_mixed_theta_none(self):
        prod = ProductPointSet([build_hemisphere_grid(2, 4),
                                sample_uniform(2, 5, seed=0)])
        assert prod.theta is None

    def test_non_positive_member_theta_certifies_nothing(self):
        # the product of two negative thetas is positive, but neither member
        # covers anything
        neg = UnitPointSet(2, [[1.0, 0.0]], theta=-1.0)
        assert ProductPointSet([neg, neg]).theta <= 0
        assert ProductPointSet([build_hemisphere_grid(2, 4), neg]).theta <= 0
        assert product_point_set([build_hemisphere_grid(2, 2)] * 2).theta > 0


class TestUnitPointSetValidation:
    def test_rejects_bad_points_and_theta(self):
        # each once gave certified=True on gen_gaussian(3, 4, 4, seed=0),
        # whose true bracket is [3.656, 3.692]: doubled points (lower 7.325)
        # and theta 5 (upper 0.732, below lower 3.662); NaN points reached
        # LAPACK instead
        grid = build_hemisphere_grid(3, 20)
        with pytest.raises(ValueError, match="unit norm"):
            UnitPointSet(3, 2 * grid.points, grid.theta, grid.q)
        with pytest.raises(ValueError, match="finite"):
            UnitPointSet(3, np.full_like(grid.points, np.nan), grid.theta)
        for theta in (5.0, 1.0 + 1e-12, math.nan):
            with pytest.raises(ValueError, match="theta"):
                UnitPointSet(3, grid.points, theta, grid.q)
        with pytest.raises(ValueError, match="unit norm"):
            UnitPointSet(2, [[1.0, 1e-4]], None)  # 5e-9 off unit norm
        UnitPointSet(2, [[1.0, 0.0]], 1.0)
        UnitPointSet(2, [[1.0, 0.0]], -3.0)

    def test_library_sets_pass(self):
        # the largest hemisphere grid the default path builds at l = 4,
        # a flattened product grid and uniform samples
        assert len(build_hemisphere_grid(4, 61)) == hemisphere_point_count(4, 61)
        grids = [build_hemisphere_grid(3, 16), build_hemisphere_grid(3, 16)]
        assert len(product_point_set(grids).flattened()) == 241 ** 2
        sample_uniform(5, 10000, seed=0)
