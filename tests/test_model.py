import numpy as np
import pytest

import oracles
from conftest import count_lists, make_instance
from salientpref import (
    ComparisonDataset,
    FeatureMatrix,
    InvalidPairError,
    Provenance,
    SelectionSpec,
    nll,
    nll_gradient,
    nll_hessian,
    realize,
    sample_comparisons,
    win_probability,
)
from salientpref._kernels import logistic_curvature

# log(1 + e^50) - 50 evaluated at 50 decimal digits, rounded to float64
SOFTPLUS_50_TAIL = 1.9287498479639178e-22


def fm_from_columns(*cols):
    return FeatureMatrix(np.column_stack([np.asarray(c, float) for c in cols]))


def single_pair_dataset(x_pairs, n_items):
    """Dataset given explicit (i, j, y) records."""
    return ComparisonDataset.from_records(x_pairs, n_items, Provenance.synthetic(0))


class TestComparisonDataset:
    def test_canonicalizes_orientation(self):
        data = single_pair_dataset([(1, 0, 1)], 2)
        assert count_lists(data) == ([0], [1], [0], [1])

    def test_rejects_self_pairs(self):
        with pytest.raises(InvalidPairError):
            single_pair_dataset([(1, 1, 1)], 3)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidPairError):
            single_pair_dataset([(0, 5, 1)], 3)

    def test_multiplicity_kept(self):
        data = single_pair_dataset([(0, 1, 1)] * 3 + [(0, 1, 0)], 2)
        assert len(data) == 4
        assert count_lists(data) == ([0], [1], [3], [4])


class TestWinProbability:
    def test_orthogonal_weights_give_half(self):
        fm = fm_from_columns([1.0, 0.0], [0.0, 0.0])
        sel = realize(SelectionSpec.full(), fm)
        assert win_probability(fm, np.array([0.0, 5.0]), sel, 0, 1) == 0.5

    def test_log_three_quarters(self):
        fm = fm_from_columns([1.0], [0.0])
        sel = realize(SelectionSpec.full(), fm)
        p = win_probability(fm, np.array([np.log(3.0)]), sel, 0, 1)
        assert p == pytest.approx(0.75, abs=1e-15)

    def test_masking_silences_heavy_coordinate(self):
        # the large-weight coordinate has the smaller difference, so top-1
        # masks it out and only the log-3 coordinate matters
        fm = fm_from_columns([1.0, 9.0], [0.0, 9.0])
        sel = realize(SelectionSpec.top_t(1), fm)
        p = win_probability(fm, np.array([np.log(3.0), 100.0]), sel, 0, 1)
        assert p == pytest.approx(0.75, abs=1e-15)

    def test_antisymmetry(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(2, 8))
            fm, sel = make_instance(rng, d, n)
            w = rng.normal(size=d)
            i, j = sorted(rng.choice(n, size=2, replace=False))
            p = win_probability(fm, w, sel, i, j)
            q = win_probability(fm, w, sel, j, i)
            assert abs(p + q - 1.0) <= 1e-15

    def test_self_pair_rejected(self, rng):
        fm, sel = make_instance(rng, 2, 3)
        with pytest.raises(InvalidPairError):
            win_probability(fm, np.zeros(2), sel, 1, 1)


class TestSampleComparisons:
    def test_zero_weights_balanced_per_pair(self, rng):
        fm = FeatureMatrix(rng.normal(size=(3, 4)))
        sel = realize(SelectionSpec.full(), fm)
        data = sample_comparisons(fm, np.zeros(3), sel, 100_000, seed=4)
        for i, j, wins, total in zip(*count_lists(data)):
            assert abs(wins / total - 0.5) <= 0.02, (i, j)

    def test_deterministic(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 6)))
        sel = realize(SelectionSpec.top_t(1), fm)
        a = sample_comparisons(fm, np.ones(2), sel, 500, seed=9)
        b = sample_comparisons(fm, np.ones(2), sel, 500, seed=9)
        for name in ("pair_i", "pair_j", "wins", "total"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_strong_preference_dominates(self):
        fm = fm_from_columns([0.0], [1.0])
        sel = realize(SelectionSpec.full(), fm)
        data = sample_comparisons(fm, np.array([10.0]), sel, 10_000, seed=0)
        # stored pair is (0, 1); item 1 wins nearly always, so item 0 almost never
        assert data.wins.sum() / len(data) <= 0.001

    def test_provenance_records_seed(self, rng):
        fm, sel = make_instance(rng, 2, 4, spec=SelectionSpec.full())
        data = sample_comparisons(fm, np.zeros(2), sel, 10, seed=123)
        assert data.provenance == Provenance.synthetic(123)


class TestNll:
    def test_single_sample_at_zero_margin(self):
        fm = fm_from_columns([1.0], [0.0])
        sel = realize(SelectionSpec.full(), fm)
        data = single_pair_dataset([(0, 1, 1)], 2)
        assert nll(fm, np.zeros(1), sel, data) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_large_margin_tail(self):
        fm = fm_from_columns([0.0], [50.0])
        sel = realize(SelectionSpec.full(), fm)
        data = single_pair_dataset([(0, 1, 1)], 2)  # y = 1 with margin u = 50
        # softplus(50) - 50, frozen from a 50-digit evaluation
        assert nll(fm, np.array([-1.0]), sel, data) == pytest.approx(
            SOFTPLUS_50_TAIL, rel=1e-12
        )

    def test_zero_weights_give_m_log_two(self, rng):
        fm, sel = make_instance(rng, 4, 9)
        data = sample_comparisons(fm, rng.normal(size=4), sel, 57, seed=3)
        assert nll(fm, np.zeros(4), sel, data) == pytest.approx(
            57 * np.log(2.0), rel=1e-12
        )

    def test_ridge_term(self, rng):
        fm, sel = make_instance(rng, 3, 5)
        data = sample_comparisons(fm, np.zeros(3), sel, 11, seed=1)
        w = rng.normal(size=3)
        assert nll(fm, w, sel, data, mu=2.5) == pytest.approx(
            nll(fm, w, sel, data) + 2.5 * w @ w, rel=1e-12
        )

    def test_negative_ridge_rejected(self, rng):
        from salientpref import PreconditionError

        fm, sel = make_instance(rng, 2, 4)
        data = sample_comparisons(fm, np.zeros(2), sel, 5, seed=1)
        with pytest.raises(PreconditionError):
            nll(fm, np.zeros(2), sel, data, mu=-0.1)

    def test_convexity(self, rng):
        for _ in range(30):
            d = int(rng.integers(1, 5))
            fm, sel = make_instance(rng, d, int(rng.integers(2, 7)))
            data = sample_comparisons(fm, rng.normal(size=d), sel, 40, seed=7)
            w1 = rng.normal(size=d) * 3
            w2 = rng.normal(size=d) * 3
            alpha = float(rng.uniform(0.05, 0.95))
            mid = nll(fm, alpha * w1 + (1 - alpha) * w2, sel, data)
            chord = alpha * nll(fm, w1, sel, data) + (1 - alpha) * nll(fm, w2, sel, data)
            assert mid <= chord + 1e-12


class TestGradient:
    def test_single_sample_at_zero(self):
        fm = fm_from_columns([1.0, 0.0], [0.0, 0.0])
        sel = realize(SelectionSpec.full(), fm)
        data = single_pair_dataset([(0, 1, 1)], 2)
        np.testing.assert_allclose(
            nll_gradient(fm, np.zeros(2), sel, data), [-0.5, 0.0], atol=1e-15
        )

    def test_balanced_labels_cancel(self):
        fm = fm_from_columns([1.0, 2.0], [0.0, 0.0])
        sel = realize(SelectionSpec.full(), fm)
        data = single_pair_dataset([(0, 1, 1), (0, 1, 0)], 2)
        np.testing.assert_allclose(
            nll_gradient(fm, np.zeros(2), sel, data), [0.0, 0.0], atol=1e-15
        )

    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 7))
            fm, sel = make_instance(rng, d, int(rng.integers(2, 9)))
            data = sample_comparisons(fm, rng.normal(size=d), sel, 25, seed=5)
            w = rng.normal(size=d)
            mu = float(rng.uniform(0, 0.5))
            got = nll_gradient(fm, w, sel, data, mu)
            want = oracles.fd_gradient(lambda v: nll(fm, v, sel, data, mu), w)
            assert np.linalg.norm(got - want) <= 1e-5 * max(1.0, np.linalg.norm(want))


class TestHessian:
    def test_single_sample_at_zero(self):
        fm = fm_from_columns([1.0, 0.0], [0.0, 0.0])
        sel = realize(SelectionSpec.full(), fm)
        data = single_pair_dataset([(0, 1, 1)], 2)
        np.testing.assert_allclose(
            nll_hessian(fm, np.zeros(2), sel, data),
            [[0.25, 0.0], [0.0, 0.0]],
            atol=1e-15,
        )

    def test_curvature_symmetric_bounded_decreasing(self):
        grid = np.linspace(0.0, 30.0, 400)
        h = logistic_curvature(grid)
        np.testing.assert_allclose(logistic_curvature(-grid), h, rtol=1e-14)
        assert np.all(h > 0.0) and np.all(h <= 0.25)
        assert np.all(np.diff(h) <= 0.0)

    def test_psd_and_symmetric(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 6))
            fm, sel = make_instance(rng, d, int(rng.integers(2, 7)))
            data = sample_comparisons(fm, rng.normal(size=d), sel, 30, seed=2)
            H = nll_hessian(fm, rng.normal(size=d), sel, data, mu=0.0)
            np.testing.assert_allclose(H, H.T, atol=1e-14)
            assert np.linalg.eigvalsh(H)[0] >= -1e-10

    def test_matches_gradient_differences(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 7))
            fm, sel = make_instance(rng, d, int(rng.integers(2, 9)))
            data = sample_comparisons(fm, rng.normal(size=d), sel, 25, seed=8)
            w = rng.normal(size=d)
            mu = float(rng.uniform(0, 0.5))
            got = nll_hessian(fm, w, sel, data, mu)
            want = oracles.fd_hessian(
                lambda v: nll_gradient(fm, v, sel, data, mu), w
            )
            scale = max(1.0, np.linalg.norm(want))
            assert np.linalg.norm(got - want) <= 1e-5 * scale


class TestFullSelectionTransitivityStructure:
    def test_strong_stochastic_transitivity(self, rng):
        # with every coordinate in play, probabilities come from one utility
        # scale, so chained majorities can never weaken
        for _ in range(10):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(3, 7))
            fm = FeatureMatrix(rng.normal(size=(d, n)))
            sel = realize(SelectionSpec.full(), fm)
            w = rng.normal(size=d)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if len({i, j, k}) < 3:
                            continue
                        pij = win_probability(fm, w, sel, i, j)
                        pjk = win_probability(fm, w, sel, j, k)
                        pik = win_probability(fm, w, sel, i, k)
                        if pij >= 0.5 and pjk >= 0.5:
                            assert pik >= max(pij, pjk) - 1e-12
