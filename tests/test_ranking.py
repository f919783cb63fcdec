import itertools

import numpy as np
import pytest

import oracles
from conftest import make_instance
from salientpref import (
    ComparisonDataset,
    DimensionError,
    FeatureMatrix,
    PreconditionError,
    Ranking,
    SelectionSpec,
    UndefinedMetricError,
    center_columns,
    kendall_correlation,
    kendall_distance,
    pairwise_accuracy,
    rank_from_weights,
    realize,
    subset_kendall,
    utility_gaps,
)


def fm_from_columns(*cols):
    return FeatureMatrix(np.column_stack([np.asarray(c, float) for c in cols]))


class TestRankingType:
    def test_requires_permutation(self):
        with pytest.raises(DimensionError):
            Ranking(np.array([1, 1, 3]))
        with pytest.raises(DimensionError):
            Ranking(np.array([0, 1, 2]))

    def test_order_round_trip(self):
        r = Ranking.from_order([2, 0, 1])
        np.testing.assert_array_equal(r.order(), [2, 0, 1])
        np.testing.assert_array_equal(r.positions, [2, 3, 1])

    @pytest.mark.parametrize(
        "build, name",
        [
            # the floats used to truncate to the ranking [1, 2, 3], True to [1]
            (lambda: Ranking([1.5, 2.2, 3.9]), "positions"),
            (lambda: Ranking([True]), "positions"),
            (lambda: Ranking.from_order([0.5, 1.9, 2.2]), "order"),
            (lambda: Ranking.from_order(["0", "1", "2"]), "order"),
        ],
        ids=["float_positions", "bool_positions", "float_order", "string_order"],
    )
    def test_positions_and_order_must_be_integers(self, build, name):
        with pytest.raises(PreconditionError, match=f"{name} must be an integer array"):
            build()

    @pytest.mark.parametrize("flag", [True, np.True_], ids=["python", "numpy"])
    def test_a_bool_among_integer_positions(self, flag):
        # numpy reads [True, 2, 3] as int64: it used to give positions [1, 2, 3]
        with pytest.raises(PreconditionError, match="positions must be .* got a bool"):
            Ranking([flag, 2, 3])


class TestRankFromWeights:
    def test_sorts_by_utility(self):
        fm = fm_from_columns([3.0], [1.0], [2.0])
        r = rank_from_weights(fm, np.array([1.0]))
        np.testing.assert_array_equal(r.positions, [1, 3, 2])

    def test_zero_weights_identity_by_index(self):
        fm = fm_from_columns([3.0], [1.0], [2.0])
        r = rank_from_weights(fm, np.zeros(1))
        np.testing.assert_array_equal(r.positions, [1, 2, 3])

    def test_negated_weights_reverse(self, rng):
        fm = FeatureMatrix(rng.normal(size=(3, 6)))
        w = rng.normal(size=3)
        fwd = rank_from_weights(fm, w)
        rev = rank_from_weights(fm, -w)
        # distinct utilities almost surely: full reversal
        np.testing.assert_array_equal(rev.positions, fm.n + 1 - fwd.positions)

    def test_positive_scaling_invariant(self, rng):
        fm = FeatureMatrix(rng.normal(size=(4, 7)))
        w = rng.normal(size=4)
        a = rank_from_weights(fm, w)
        b = rank_from_weights(fm, 17.5 * w)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_centering_invariant(self, rng):
        fm = FeatureMatrix(rng.normal(size=(4, 7)))
        w = rng.normal(size=4)
        a = rank_from_weights(fm, w)
        b = rank_from_weights(center_columns(fm), w)
        np.testing.assert_array_equal(a.positions, b.positions)


class TestKendall:
    def test_identity_and_reversal(self):
        a = Ranking(np.array([1, 2, 3]))
        b = Ranking(np.array([3, 2, 1]))
        assert kendall_distance(a, a) == 0
        assert kendall_distance(a, b) == 3
        assert kendall_correlation(a, a) == 1.0
        assert kendall_correlation(a, b) == -1.0

    def test_single_swap(self):
        a = Ranking(np.array([1, 2, 3]))
        b = Ranking(np.array([2, 1, 3]))
        assert kendall_distance(a, b) == 1

    def test_quarter_point(self):
        # n = 4 with three discordant pairs sits exactly at zero correlation
        a = Ranking(np.array([1, 2, 3, 4]))
        b = Ranking(np.array([2, 4, 1, 3]))
        assert kendall_distance(a, b) == 3
        assert kendall_correlation(a, b) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            kendall_distance(Ranking(np.array([1, 2])), Ranking(np.array([1, 2, 3])))

    def test_exhaustive_small_permutations(self):
        for n in (2, 3, 4):
            for pa in itertools.permutations(range(1, n + 1)):
                for pb in itertools.permutations(range(1, n + 1)):
                    a = Ranking(np.array(pa))
                    b = Ranking(np.array(pb))
                    want = oracles.kendall_distance_enum(pa, pb)
                    assert kendall_distance(a, b) == want
                    assert kendall_correlation(a, b) == pytest.approx(
                        1.0 - 2.0 * want / (n * (n - 1) / 2)
                    )

    def test_metric_properties(self, rng):
        for _ in range(40):
            n = int(rng.integers(2, 9))
            perms = [
                Ranking(rng.permutation(n) + 1),
                Ranking(rng.permutation(n) + 1),
                Ranking(rng.permutation(n) + 1),
            ]
            a, b, c = perms
            assert kendall_distance(a, b) == kendall_distance(b, a)
            assert kendall_distance(a, c) <= kendall_distance(a, b) + kendall_distance(b, c)
            if np.array_equal(a.positions, b.positions):
                assert kendall_distance(a, b) == 0

    def test_correlation_distance_relation(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 10))
            a = Ranking(rng.permutation(n) + 1)
            b = Ranking(rng.permutation(n) + 1)
            npairs = n * (n - 1) // 2
            assert kendall_correlation(a, b) == 1.0 - 2.0 * kendall_distance(a, b) / npairs


class TestSubsetKendall:
    def test_agreement_and_reversal(self):
        full = Ranking(np.array([1, 2, 3, 4]))
        assert subset_kendall(full, [0, 1, 3]) == 1.0
        assert subset_kendall(full, [3, 1, 0]) == -1.0

    @pytest.mark.parametrize("items", [[0, -1], [0, 4], [0, 2, 0]])
    def test_items_outside_or_repeated_rejected(self, items):
        # -1 used to wrap to the last item, and a repeat to count as a tie
        full = Ranking(np.array([1, 2, 3, 4]))
        with pytest.raises(DimensionError, match="items must"):
            subset_kendall(full, items)

    @pytest.mark.parametrize(
        "items", [[0.2, 2.7], [False, True], ["0", "2"]], ids=["float", "bool", "string"]
    )
    def test_items_must_be_integers(self, items):
        # [0.2, 2.7] used to read as items [0, 2] and return 1.0
        with pytest.raises(PreconditionError, match="items must be an integer array"):
            subset_kendall(Ranking([1, 2, 3]), items)

    def test_a_bool_among_integer_items(self):
        # [False, 2] used to read as the items [0, 2]
        with pytest.raises(PreconditionError, match="items must be an integer array, got a bool"):
            subset_kendall(Ranking([1, 2, 3]), [False, 2])


class TestPairwiseAccuracy:
    def _fixture(self, rng):
        fm, sel = make_instance(rng, 3, 6, spec=SelectionSpec.full())
        w = rng.normal(size=3) * 2
        return fm, sel, w

    def test_perfect_model(self, rng):
        fm, sel, w = self._fixture(rng)
        data = ComparisonDataset.from_records(
            [
                (i, j, 1 if np.dot(w, fm.matrix[:, i] - fm.matrix[:, j]) > 0 else 0)
                for i in range(6)
                for j in range(i + 1, 6)
            ],
            6,
        )
        assert pairwise_accuracy(sel, w, data) == 1.0

    def test_adversarial_model(self, rng):
        fm, sel, w = self._fixture(rng)
        data = ComparisonDataset.from_records(
            [
                (i, j, 1 if np.dot(w, fm.matrix[:, i] - fm.matrix[:, j]) > 0 else 0)
                for i in range(6)
                for j in range(i + 1, 6)
            ],
            6,
        )
        assert pairwise_accuracy(sel, -w, data) == 0.0

    def test_single_majority_pair(self):
        fm = fm_from_columns([1.0], [0.0])
        sel = realize(SelectionSpec.full(), fm)
        data = ComparisonDataset.from_records([(0, 1, 1)] * 3 + [(0, 1, 0)] * 2, 2)
        # model gives P = sigma(0.405) ~ 0.6 in favor of the majority winner
        assert pairwise_accuracy(sel, np.array([0.405]), data) == 1.0

    def test_tied_pairs_excluded(self):
        fm = fm_from_columns([1.0], [0.0], [2.0])
        sel = realize(SelectionSpec.full(), fm)
        data = ComparisonDataset.from_records([(0, 1, 1), (0, 1, 0), (0, 2, 0)], 3)
        # pair (0,1) is empirically tied and drops out; only (0,2) counts,
        # where the model's sigma(-1) < 1/2 matches the majority winner
        assert pairwise_accuracy(sel, np.array([1.0]), data) == 1.0
        # flipped weights disagree on that single eligible pair
        assert pairwise_accuracy(sel, np.array([-1.0]), data) == 0.0

    def test_no_eligible_pairs(self):
        fm = fm_from_columns([1.0], [0.0])
        sel = realize(SelectionSpec.full(), fm)
        data = ComparisonDataset.from_records([(0, 1, 1), (0, 1, 0)], 2)
        with pytest.raises(UndefinedMetricError):
            pairwise_accuracy(sel, np.array([1.0]), data)

    def test_dataset_of_another_item_count_rejected(self, rng):
        # scoring pairs of a 6- or 10-item dataset against an 8-item selection
        # would read the wrong rows of its table
        fm = FeatureMatrix(rng.normal(size=(3, 8)))
        sel = realize(SelectionSpec.top_t(2), fm)
        for n_items in (6, 10):
            data = ComparisonDataset.from_records([(0, 1, 1), (4, 5, 0)], n_items)
            with pytest.raises(DimensionError, match=f"dataset indexes {n_items} items"):
                pairwise_accuracy(sel, np.ones(3), data)

    def test_half_probability_excluded(self):
        fm = fm_from_columns([1.0], [0.0], [2.0])
        sel = realize(SelectionSpec.full(), fm)
        data = ComparisonDataset.from_records([(0, 1, 1), (0, 1, 1), (0, 2, 0)], 3)
        # zero weights give exactly 1/2 everywhere: nothing is eligible
        with pytest.raises(UndefinedMetricError):
            pairwise_accuracy(sel, np.zeros(1), data)


class TestUtilityGaps:
    def test_zero_weights(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 5)))
        gaps, _ = utility_gaps(fm, np.zeros(2))
        np.testing.assert_array_equal(gaps, np.zeros(10))

    def test_line_of_items(self):
        fm = fm_from_columns([0.0], [1.0], [3.0])
        gaps, M = utility_gaps(fm, np.array([1.0]))
        np.testing.assert_allclose(gaps, [1.0, 2.0, 3.0])
        assert M == 3.0

    def test_norm_of_items(self):
        fm = fm_from_columns([3.0, 4.0], [0.0, 0.0])
        _, M = utility_gaps(fm, np.zeros(2))
        assert M == 5.0

    def test_sorted_nondecreasing(self, rng):
        fm = FeatureMatrix(rng.normal(size=(3, 8)))
        gaps, _ = utility_gaps(fm, rng.normal(size=3))
        assert np.all(np.diff(gaps) >= 0.0)
        assert gaps.shape == (28,)
