"""Tensor storage, evaluation, generators, and file formats."""

import json

import numpy as np
import pytest

from tensornorms import (
    RankOneDecomposition,
    Tensor3,
    TensorD,
    assemble,
    contract_first,
    evaluate,
    flatten,
    gen_gaussian,
    gen_orthogonal_test,
    gen_orthogonal_test_order4,
    gen_sequence_example,
    read_tensor,
    write_tensor,
)


class TestTensor3:
    def test_dims_and_entries(self):
        T = Tensor3(np.arange(24, dtype=float).reshape(2, 3, 4))
        assert T.dims == (2, 3, 4)
        # entry (i, j, k) equals entry (j, k) of slice i
        assert T.slices[1, 2, 3] == 23.0

    def test_frobenius_norm(self):
        # [DERIVED] direct recomputation from the definition
        T = gen_gaussian(3, 4, 5, seed=0)
        assert T.frobenius_norm() == pytest.approx(
            np.sqrt((T.slices**2).sum()), rel=1e-14
        )

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Tensor3(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            Tensor3(np.zeros((0, 2, 2)))

    def test_rejects_non_finite(self):
        vals = np.zeros((3, 4, 4))
        vals[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Tensor3(vals)

    def test_slices_read_only(self):
        T = gen_gaussian(2, 2, 2, seed=1)
        with pytest.raises(ValueError):
            T.slices[0, 0, 0] = 5.0

    def test_arithmetic(self):
        A = gen_gaussian(2, 3, 4, seed=2)
        B = gen_gaussian(2, 3, 4, seed=3)
        np.testing.assert_allclose((A + B).slices, A.slices + B.slices)
        np.testing.assert_allclose((A - B).slices, A.slices - B.slices)
        np.testing.assert_allclose((A * 2.5).slices, 2.5 * A.slices)


class TestTensorD:
    def test_order_and_norm(self):
        vals = np.random.default_rng(0).standard_normal((2, 3, 4, 5))
        T = TensorD(vals)
        assert T.order == 4
        assert T.dims == (2, 3, 4, 5)
        assert T.frobenius_norm() == pytest.approx(np.linalg.norm(vals.ravel()))

    def test_rejects_matrices(self):
        with pytest.raises(ValueError):
            TensorD(np.zeros((3, 4)))

    def test_rejects_non_finite(self):
        vals = np.ones((2, 2, 3, 3))
        vals[0, 1, 2, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            TensorD(vals)


class TestEvaluate:
    def test_matches_triple_loop(self):
        # [DERIVED] independent oracle: explicit summation over all entries
        rng = np.random.default_rng(4)
        T = gen_gaussian(3, 4, 5, seed=4)
        x, y, z = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(5)
        direct = sum(
            T.slices[i, j, k] * x[i] * y[j] * z[k]
            for i in range(3) for j in range(4) for k in range(5)
        )
        assert evaluate(T, x, y, z) == pytest.approx(direct, rel=1e-12)

    def test_dimension_mismatch(self):
        T = gen_gaussian(2, 3, 4, seed=0)
        with pytest.raises(ValueError):
            evaluate(T, np.ones(3), np.ones(3), np.ones(4))


class TestContractFlatten:
    def test_contract_first_is_slice_combination(self):
        T = gen_gaussian(3, 4, 5, seed=5)
        x = np.array([2.0, -1.0, 0.5])
        expected = 2.0 * T.slices[0] - 1.0 * T.slices[1] + 0.5 * T.slices[2]
        np.testing.assert_allclose(contract_first(T, x), expected, atol=1e-13)

    def test_flatten_shape_and_norm(self):
        T = gen_gaussian(3, 4, 5, seed=6)
        M = flatten(T)
        assert M.shape == (12, 5)
        # flattening is an isometry for the Frobenius norm
        assert np.linalg.norm(M) == pytest.approx(T.frobenius_norm(), rel=1e-14)

    def test_trilinear_consistency(self):
        # y' (x . T) z == <T, x x y x z> for random vectors
        rng = np.random.default_rng(7)
        T = gen_gaussian(4, 3, 6, seed=7)
        for _ in range(5):
            x, y, z = (rng.standard_normal(4), rng.standard_normal(3),
                       rng.standard_normal(6))
            assert evaluate(T, x, y, z) == pytest.approx(
                y @ contract_first(T, x) @ z, rel=1e-12
            )


class TestRankOneDecomposition:
    def test_unit_factor_enforcement(self):
        bad = ((1.0, np.array([2.0, 0.0]), np.array([1.0, 0.0]),
                np.array([1.0, 0.0])),)
        with pytest.raises(ValueError):
            RankOneDecomposition(bad)

    def test_terms_own_their_factors(self):
        source = np.eye(3)
        dec = RankOneDecomposition(((2.0, source[0], source[1], source[2]),))
        source[:] = 0.0
        np.testing.assert_array_equal(dec.terms[0][1], [1.0, 0.0, 0.0])
        assert not any(v.flags.writeable for v in dec.terms[0][1:])

    def test_weight_sum_and_assemble(self):
        T, dec = gen_orthogonal_test(3, 5, 5, 3, seed=8)
        assert dec.weight_sum() == pytest.approx(sum(t[0] for t in dec.terms))
        resid = (T - assemble(dec, T.dims)).frobenius_norm()
        assert resid < 1e-12 * T.frobenius_norm()


class TestGenerators:
    def test_orthogonal_structure(self):
        # Orthogonality pattern: (x_i'x_j)(y_i'y_j) = 0 and z_i'z_j = 0, i != j
        _, dec = gen_orthogonal_test(4, 6, 7, 4, seed=9)
        for i in range(4):
            for j in range(i + 1, 4):
                _, xi, yi, zi = dec.terms[i]
                _, xj, yj, zj = dec.terms[j]
                assert abs((xi @ xj) * (yi @ yj)) < 1e-12
                assert abs(zi @ zj) < 1e-12

    def test_orthogonal_flattening_svd(self):
        # [DERIVED] for this class the flattening has singular values equal
        # to the weights, so matrix SVD is an independent oracle
        T, dec = gen_orthogonal_test(3, 6, 6, 3, seed=10)
        weights = sorted((t[0] for t in dec.terms), reverse=True)
        svals = np.linalg.svd(flatten(T), compute_uv=False)[:3]
        np.testing.assert_allclose(svals, weights, rtol=1e-10)

    def test_orthogonal_wide_r(self):
        # r > m exercises the grouped construction
        T, dec = gen_orthogonal_test(3, 2, 6, 5, seed=11)
        assert len(dec.terms) == 5
        resid = (T - assemble(dec, T.dims)).frobenius_norm()
        assert resid < 1e-10 * T.frobenius_norm()

    def test_orthogonal_infeasible_r(self):
        with pytest.raises(ValueError):
            gen_orthogonal_test(2, 2, 3, 7, seed=0)

    def test_order4_structure(self):
        T, dec = gen_orthogonal_test_order4((2, 3, 5, 6), 3, seed=12)
        assert T.dims == (2, 3, 5, 6)
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(dec.terms[i][3] @ dec.terms[j][3]) < 1e-12
                assert abs(dec.terms[i][4] @ dec.terms[j][4]) < 1e-12

    def test_sequence_entries(self):
        # [PAPER] t_ijk = i + j + k with 1-based indices
        T = gen_sequence_example()
        assert T.dims == (3, 3, 3)
        assert T.slices[0, 0, 0] == 3.0
        assert T.slices[2, 2, 2] == 9.0
        assert T.slices[1, 0, 2] == 6.0

    def test_gaussian_reproducible(self):
        A = gen_gaussian(2, 3, 4, seed=13)
        B = gen_gaussian(2, 3, 4, seed=13)
        np.testing.assert_array_equal(A.slices, B.slices)


class TestFileFormats:
    def test_json_round_trip(self, tmp_path):
        T = gen_gaussian(2, 3, 4, seed=14)
        path = str(tmp_path / "t.json")
        write_tensor(T, path)
        with open(path) as f:
            payload = json.load(f)
        assert payload["dims"] == [2, 3, 4]
        assert len(payload["values"]) == 24
        # row-major: values[k + 4*j + 12*i]
        assert payload["values"][12 + 4 + 2] == T.slices[1, 1, 2]
        np.testing.assert_array_equal(read_tensor(path).slices, T.slices)

    def test_binary_round_trip(self, tmp_path):
        T = gen_gaussian(3, 5, 2, seed=15)
        path = str(tmp_path / "t.bin")
        write_tensor(T, path, binary=True)
        np.testing.assert_array_equal(read_tensor(path).slices, T.slices)

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("ell", [91, 123])
    def test_round_trip_first_dim_looking_like_json(self, tmp_path, binary, ell):
        # 91 and 123 are the bytes "[" and "{", which once sent a binary
        # file to the JSON reader
        T = gen_gaussian(ell, 2, 2, seed=16)
        path = str(tmp_path / "t")
        write_tensor(T, path, binary=binary)
        np.testing.assert_array_equal(read_tensor(path).slices, T.slices)

    def test_bad_file(self, tmp_path):
        path = str(tmp_path / "junk.json")
        with open(path, "w") as f:
            f.write('{"dims": [2, 2, 2], "values": [1, 2, 3]}')
        with pytest.raises(ValueError):
            read_tensor(path)
