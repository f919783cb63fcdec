import numpy as np
import pytest

from salientpref import DimensionError, FeatureMatrix, center_columns


class TestFeatureMatrix:
    def test_shape_accessors(self, rng):
        fm = FeatureMatrix(rng.normal(size=(3, 5)))
        assert fm.d == 3 and fm.n == 5

    def test_rejects_nonfinite(self):
        with pytest.raises(DimensionError):
            FeatureMatrix(np.array([[0.0, np.nan]]))

    def test_rejects_single_item(self):
        with pytest.raises(DimensionError):
            FeatureMatrix(np.array([[1.0]]))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(DimensionError):
            FeatureMatrix(np.zeros((1, 2)), ("a", "a"))

    def test_rejects_id_count_mismatch(self):
        with pytest.raises(DimensionError):
            FeatureMatrix(np.zeros((1, 3)), ("a", "b"))

    def test_immutable(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 3)))
        with pytest.raises(ValueError):
            fm.matrix[0, 0] = 1.0

    def test_index_of(self):
        fm = FeatureMatrix(np.zeros((1, 3)), ("x", "y", "z"))
        assert fm.index_of("y") == 1
        with pytest.raises(KeyError):
            fm.index_of("w")


class TestCenterColumns:
    def test_mean_subtraction(self):
        fm = FeatureMatrix(np.array([[1.0, 3.0], [0.0, 0.0]]))
        out = center_columns(fm)
        np.testing.assert_allclose(out.matrix, [[-1.0, 1.0], [0.0, 0.0]])
        assert out.item_ids == fm.item_ids

    def test_idempotent(self, rng):
        fm = center_columns(FeatureMatrix(rng.normal(size=(4, 7))))
        again = center_columns(fm)
        np.testing.assert_allclose(again.matrix, fm.matrix, atol=1e-15)

    def test_one_dimensional(self):
        fm = FeatureMatrix(np.array([[2.0, 4.0, 6.0]]))
        np.testing.assert_allclose(center_columns(fm).matrix, [[-2.0, 0.0, 2.0]])

    def test_column_sums_vanish(self, rng):
        fm = FeatureMatrix(rng.normal(size=(6, 40)) * 100.0)
        out = center_columns(fm)
        bound = 1e-12 * out.n * np.abs(out.matrix).max()
        assert np.all(np.abs(out.matrix.sum(axis=1)) <= bound)

    def test_pairwise_differences_preserved(self, rng):
        # a common-vector subtraction; each float entry moves by <= 1 ulp,
        # so differences agree to within 2 ulp of the entry scale
        fm = FeatureMatrix(rng.normal(size=(3, 6)))
        out = center_columns(fm)
        tol = 2 * np.finfo(np.float64).eps * np.abs(fm.matrix).max()
        for i in range(fm.n):
            for j in range(fm.n):
                np.testing.assert_allclose(
                    out.matrix[:, i] - out.matrix[:, j],
                    fm.matrix[:, i] - fm.matrix[:, j],
                    rtol=0.0,
                    atol=tol,
                )
