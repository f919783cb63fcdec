import tracemalloc

import numpy as np
import pytest

from conftest import count_lists
from salientpref import (
    ComparisonDataset,
    FeatureMatrix,
    ParseError,
    PreconditionError,
    UnknownItemError,
)
from salientpref.dataio import (
    FeatureStats,
    load_comparisons,
    load_features,
    load_rankings,
    load_weights_json,
    read_json,
    save_comparisons,
    save_features,
    write_json,
)


@pytest.fixture
def features_csv(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text(
        "item_id,f1,f2\n"
        "alpha,0.0,1.0\n"
        "beta,2.0,1.0\n"
        "gamma,4.0,1.0\n",
        encoding="utf-8",
    )
    return str(path)


class TestFeaturesFile:
    def test_round_trip(self, tmp_path, rng):
        fm = FeatureMatrix(rng.normal(size=(3, 5)) * 1e3, tuple("abcde"))
        path = str(tmp_path / "f.csv")
        save_features(path, fm)
        loaded, stats = load_features(path)
        np.testing.assert_array_equal(loaded.matrix, fm.matrix)
        assert loaded.item_ids == fm.item_ids
        assert stats is None

    def test_standardize_population_convention(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("item_id,f1\na,0.0\nb,2.0\n", encoding="utf-8")
        loaded, stats = load_features(str(path), standardize=True)
        np.testing.assert_allclose(loaded.matrix, [[-1.0, 1.0]])
        np.testing.assert_allclose(stats.mean, [1.0])
        np.testing.assert_allclose(stats.std, [1.0])

    def test_no_standardize_passthrough(self, features_csv):
        loaded, _ = load_features(features_csv)
        np.testing.assert_array_equal(loaded.matrix, [[0.0, 2.0, 4.0], [1.0, 1.0, 1.0]])

    def test_constant_feature_flagged(self, features_csv):
        with pytest.warns(UserWarning, match="zero variance"):
            loaded, stats = load_features(features_csv, standardize=True)
        assert stats.constant_features == (1,)
        np.testing.assert_allclose(loaded.matrix[1], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(loaded.matrix[0], [-1.22474487, 0.0, 1.22474487])

    def test_stats_from_training_file(self, tmp_path, features_csv):
        eval_path = tmp_path / "eval.csv"
        eval_path.write_text("item_id,f1,f2\nx,2.0,3.0\ny,6.0,5.0\n", encoding="utf-8")
        with pytest.warns(UserWarning):
            loaded, stats = load_features(
                str(eval_path), standardize=True, stats_from=features_csv
            )
        # training mean 2, training (population) std sqrt(8/3)
        np.testing.assert_allclose(stats.mean, [2.0, 1.0])
        np.testing.assert_allclose(loaded.matrix[0], [0.0, np.sqrt(6.0)])

    def test_standardize_idempotent_on_source(self, tmp_path, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 6)))
        path = str(tmp_path / "f.csv")
        save_features(path, fm)
        loaded, stats = load_features(path, standardize=True, stats_from=path)
        own, own_stats = load_features(path, standardize=True)
        np.testing.assert_array_equal(loaded.matrix, own.matrix)
        np.testing.assert_array_equal(stats.mean, own_stats.mean)

    def test_duplicate_id_with_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("item_id,f1\na,1.0\na,2.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":3"):
            load_features(str(path))

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("item_id,f1\na,1.0\nb,oops\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":3"):
            load_features(str(path))

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("item_id,f1,f2\na,1.0,2.0\nb,1.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":3"):
            load_features(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,f1\na,1.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1"):
            load_features(str(path))


class TestComparisonsFile:
    def test_expansion_and_orientation(self, tmp_path, features_csv):
        fm, _ = load_features(features_csv)
        path = tmp_path / "c.csv"
        path.write_text(
            "winner_id,loser_id,count\nalpha,beta,3\nbeta,alpha,1\n", encoding="utf-8"
        )
        data = load_comparisons(str(path), fm)
        assert len(data) == 4
        assert count_lists(data) == ([0], [1], [3], [4])

    def test_reverse_orientation_single(self, tmp_path, features_csv):
        fm, _ = load_features(features_csv)
        path = tmp_path / "c.csv"
        path.write_text("winner_id,loser_id,count\nbeta,alpha,1\n", encoding="utf-8")
        data = load_comparisons(str(path), fm)
        assert count_lists(data) == ([0], [1], [0], [1])

    def test_min_count_drops_sparse_pairs(self, tmp_path, features_csv):
        fm, _ = load_features(features_csv)
        path = tmp_path / "c.csv"
        path.write_text(
            "winner_id,loser_id,count\nalpha,beta,4\nalpha,gamma,5\n", encoding="utf-8"
        )
        data = load_comparisons(str(path), fm, min_count=5)
        assert count_lists(data) == ([0], [2], [5], [5])

    def test_unknown_id_reported(self, tmp_path, features_csv):
        fm, _ = load_features(features_csv)
        path = tmp_path / "c.csv"
        path.write_text("winner_id,loser_id,count\nalpha,delta,1\n", encoding="utf-8")
        with pytest.raises(UnknownItemError, match="delta"):
            load_comparisons(str(path), fm)

    def test_self_comparison_rejected(self, tmp_path, features_csv):
        fm, _ = load_features(features_csv)
        path = tmp_path / "c.csv"
        path.write_text("winner_id,loser_id,count\nalpha,alpha,1\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_comparisons(str(path), fm)

    def test_round_trip_aggregates(self, tmp_path, features_csv, rng):
        fm, _ = load_features(features_csv)
        records = []
        for _ in range(40):
            i, j = sorted(rng.choice(3, size=2, replace=False))
            records.append((int(i), int(j), int(rng.integers(0, 2))))
        data = ComparisonDataset.from_records(records, 3)
        path = str(tmp_path / "c.csv")
        save_comparisons(path, data, fm)
        loaded = load_comparisons(path, fm)
        assert count_lists(loaded) == count_lists(data)
        # a second round trip is byte-stable
        path2 = str(tmp_path / "c2.csv")
        save_comparisons(path2, loaded, fm)
        assert open(path).read() == open(path2).read()

    def test_huge_count_is_not_expanded(self, tmp_path, features_csv):
        fm, _ = load_features(features_csv)
        path = tmp_path / "c.csv"
        path.write_text(
            "winner_id,loser_id,count\nbeta,alpha,100000000\n", encoding="utf-8"
        )
        tracemalloc.start()
        try:
            data = load_comparisons(str(path), fm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(data) == 10**8
        assert count_lists(data) == ([0], [1], [0], [10**8])
        assert peak < 2_000_000

    def test_count_beyond_exact_range_rejected(self, tmp_path, features_csv):
        fm, _ = load_features(features_csv)
        path = tmp_path / "c.csv"
        path.write_text(
            f"winner_id,loser_id,count\nalpha,gamma,1\nalpha,beta,{2**53 + 1}\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match=r"c\.csv:3:"):
            load_comparisons(str(path), fm)

    def test_pair_total_beyond_exact_range_rejected(self, tmp_path, features_csv):
        fm, _ = load_features(features_csv)
        path = tmp_path / "c.csv"
        path.write_text(
            "winner_id,loser_id,count\n"
            f"alpha,beta,{2**53 - 1}\nalpha,gamma,{2**53}\nbeta,alpha,1\nalpha,beta,1\n",
            encoding="utf-8",
        )
        # the running total of (alpha, beta) reaches 2**53 on line 4, then
        # exceeds it on line 5; (alpha, gamma) at exactly 2**53 is allowed
        with pytest.raises(ParseError, match=r"c\.csv:5:"):
            load_comparisons(str(path), fm)
        path.write_text(
            f"winner_id,loser_id,count\nalpha,beta,{2**53 - 1}\nbeta,alpha,1\n",
            encoding="utf-8",
        )
        assert count_lists(load_comparisons(str(path), fm)) == ([0], [1], [2**53 - 1], [2**53])


class TestRankingsFile:
    def test_basic_ranking(self, tmp_path, features_csv):
        fm, _ = load_features(features_csv)
        path = tmp_path / "r.csv"
        path.write_text(
            "ranker_id,rank,item_id\nr1,1,gamma\nr1,2,alpha\nr1,3,beta\n",
            encoding="utf-8",
        )
        (ranking,) = load_rankings(str(path), fm)
        assert ranking.ranker_id == "r1"
        assert ranking.items == (2, 0, 1)

    def test_unknown_item_dropped_and_compacted(self, tmp_path, features_csv):
        fm, _ = load_features(features_csv)
        path = tmp_path / "r.csv"
        path.write_text(
            "ranker_id,rank,item_id\nr1,1,gamma\nr1,2,missing\nr1,3,beta\n",
            encoding="utf-8",
        )
        (ranking,) = load_rankings(str(path), fm)
        assert ranking.items == (2, 1)

    def test_short_ranker_dropped_with_warning(self, tmp_path, features_csv):
        fm, _ = load_features(features_csv)
        path = tmp_path / "r.csv"
        path.write_text(
            "ranker_id,rank,item_id\n"
            "r1,1,gamma\nr1,2,missing\n"
            "r2,1,alpha\nr2,2,beta\n",
            encoding="utf-8",
        )
        with pytest.warns(UserWarning, match="r1"):
            rankings = load_rankings(str(path), fm)
        assert [r.ranker_id for r in rankings] == ["r2"]

    def test_duplicate_rank_rejected(self, tmp_path, features_csv):
        fm, _ = load_features(features_csv)
        path = tmp_path / "r.csv"
        path.write_text(
            "ranker_id,rank,item_id\nr1,1,alpha\nr1,1,beta\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="r1"):
            load_rankings(str(path), fm)

    def test_gapped_ranks_rejected(self, tmp_path, features_csv):
        fm, _ = load_features(features_csv)
        path = tmp_path / "r.csv"
        path.write_text(
            "ranker_id,rank,item_id\nr1,1,alpha\nr1,3,beta\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="r1"):
            load_rankings(str(path), fm)


class TestJsonHelpers:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "out.json")
        payload = {"b": [1.5, 2.0], "a": {"x": True, "y": None}}
        write_json(path, payload)
        assert read_json(path) == payload

    def test_weights_from_fit_result(self, tmp_path):
        path = str(tmp_path / "w.json")
        write_json(path, {"w_hat": [0.25, -1.0], "converged": True})
        np.testing.assert_array_equal(load_weights_json(path), [0.25, -1.0])

    def test_weights_from_truth_file(self, tmp_path):
        path = str(tmp_path / "w.json")
        write_json(path, {"w": [0.5]})
        np.testing.assert_array_equal(load_weights_json(path), [0.5])

    @pytest.mark.parametrize(
        "payload",
        [{"w": [True, False]}, {"w": ["1.5", "2"]}, {"w": {"a": 1}}, {"w": 1.0},
         {"w_hat": [0.5, None]}, {"w": [[1.0]]}],
    )
    def test_weights_must_be_array_of_numbers(self, tmp_path, payload):
        path = str(tmp_path / "w.json")
        write_json(path, payload)
        with pytest.raises(PreconditionError, match="w.json"):
            load_weights_json(path)


class TestFeatureStats:
    def test_apply_matches_manual(self, rng):
        matrix = rng.normal(size=(3, 9))
        stats = FeatureStats.from_matrix(matrix)
        out = stats.apply(matrix)
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-12)
