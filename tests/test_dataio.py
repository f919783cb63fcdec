import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import count_lists
from salientpref import (
    ComparisonDataset,
    FeatureMatrix,
    ParseError,
    PreconditionError,
    UnknownItemError,
)
from salientpref.dataio import (
    CHUNK_ROWS,
    Column,
    FeatureStats,
    Records,
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
        loaded = load_features(path)
        assert isinstance(loaded, FeatureMatrix)
        np.testing.assert_array_equal(loaded.matrix, fm.matrix)
        assert loaded.item_ids == fm.item_ids

    def test_standardize_population_convention(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("item_id,f1\na,0.0\nb,2.0\n", encoding="utf-8")
        raw = load_features(str(path)).matrix
        stats = FeatureStats.from_matrix(raw)
        np.testing.assert_allclose(stats.apply(raw), [[-1.0, 1.0]])
        np.testing.assert_allclose(stats.mean, [1.0])
        np.testing.assert_allclose(stats.std, [1.0])

    def test_no_standardize_passthrough(self, features_csv):
        loaded = load_features(features_csv)
        np.testing.assert_array_equal(loaded.matrix, [[0.0, 2.0, 4.0], [1.0, 1.0, 1.0]])

    def test_constant_feature_flagged(self, features_csv):
        raw = load_features(features_csv).matrix
        stats = FeatureStats.from_matrix(raw)
        assert stats.constant_features == (1,)
        standardized = stats.apply(raw)
        np.testing.assert_allclose(standardized[1], [0.0, 0.0, 0.0])
        np.testing.assert_allclose(standardized[0], [-1.22474487, 0.0, 1.22474487])

    def test_training_stats_applied_to_evaluation_file(self, tmp_path, features_csv):
        eval_path = tmp_path / "eval.csv"
        eval_path.write_text("item_id,f1,f2\nx,2.0,3.0\ny,6.0,5.0\n", encoding="utf-8")
        stats = FeatureStats.from_matrix(load_features(features_csv).matrix)
        standardized = stats.apply(load_features(str(eval_path)).matrix)
        # training mean 2, training (population) std sqrt(8/3); the training
        # file's constant second feature is shifted by its mean only
        np.testing.assert_allclose(stats.mean, [2.0, 1.0])
        assert stats.constant_features == (1,)
        np.testing.assert_allclose(standardized[0], [0.0, np.sqrt(6.0)])
        np.testing.assert_allclose(standardized[1], [2.0, 4.0])

    def test_standardize_idempotent_on_source(self, tmp_path, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 6)))
        path = str(tmp_path / "f.csv")
        save_features(path, fm)
        own = load_features(path).matrix
        stats = FeatureStats.from_matrix(load_features(path).matrix)
        own_stats = FeatureStats.from_matrix(own)
        np.testing.assert_array_equal(stats.apply(own), own_stats.apply(own))
        np.testing.assert_array_equal(stats.mean, own_stats.mean)
        once = own_stats.apply(own)
        np.testing.assert_allclose(FeatureStats.from_matrix(once).apply(once), once, atol=1e-12)

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
        fm = load_features(features_csv)
        path = tmp_path / "c.csv"
        path.write_text(
            "winner_id,loser_id,count\nalpha,beta,3\nbeta,alpha,1\n", encoding="utf-8"
        )
        data = load_comparisons(str(path), fm)
        assert len(data) == 4
        assert count_lists(data) == ([0], [1], [3], [4])

    def test_reverse_orientation_single(self, tmp_path, features_csv):
        fm = load_features(features_csv)
        path = tmp_path / "c.csv"
        path.write_text("winner_id,loser_id,count\nbeta,alpha,1\n", encoding="utf-8")
        data = load_comparisons(str(path), fm)
        assert count_lists(data) == ([0], [1], [0], [1])

    def test_min_count_drops_sparse_pairs(self, tmp_path, features_csv):
        fm = load_features(features_csv)
        path = tmp_path / "c.csv"
        path.write_text(
            "winner_id,loser_id,count\nalpha,beta,4\nalpha,gamma,5\n", encoding="utf-8"
        )
        data = load_comparisons(str(path), fm, min_count=5)
        assert count_lists(data) == ([0], [2], [5], [5])

    def test_unknown_id_reported(self, tmp_path, features_csv):
        fm = load_features(features_csv)
        path = tmp_path / "c.csv"
        path.write_text("winner_id,loser_id,count\nalpha,delta,1\n", encoding="utf-8")
        with pytest.raises(UnknownItemError, match="delta"):
            load_comparisons(str(path), fm)

    def test_self_comparison_rejected(self, tmp_path, features_csv):
        fm = load_features(features_csv)
        path = tmp_path / "c.csv"
        path.write_text("winner_id,loser_id,count\nalpha,alpha,1\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_comparisons(str(path), fm)

    def test_round_trip_aggregates(self, tmp_path, features_csv, rng):
        fm = load_features(features_csv)
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
        fm = load_features(features_csv)
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
        fm = load_features(features_csv)
        path = tmp_path / "c.csv"
        path.write_text(
            f"winner_id,loser_id,count\nalpha,gamma,1\nalpha,beta,{2**53 + 1}\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError, match=r"c\.csv:3:"):
            load_comparisons(str(path), fm)

    def test_pair_total_beyond_exact_range_rejected(self, tmp_path, features_csv):
        fm = load_features(features_csv)
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


# one bad row each, after a good row: (row, error type, message after "path:line: ")
ROW_FAULTS = {
    "ragged": ("alpha,beta", ParseError, "expected 3 cells, got 2"),
    "long": ("alpha,beta,1,2", ParseError, "expected 3 cells, got 4"),
    "non_integer": ("alpha,beta,1.5", ParseError, "bad count '1.5'"),
    "empty_count": ("alpha,beta,", ParseError, "bad count ''"),
    "zero": ("alpha,beta,0", ParseError, "count must be >= 1, got 0"),
    "negative": ("alpha,beta,-3", ParseError, "count must be >= 1, got -3"),
    "far_below": (f"alpha,beta,{-(2**70)}", ParseError, f"count must be >= 1, got {-(2**70)}"),
    "above_exact": (f"alpha,beta,{2**53 + 1}", ParseError, f"count {2**53 + 1} exceeds 2**53"),
    "far_above": (f"alpha,beta,{2**70}", ParseError, f"count {2**70} exceeds 2**53"),
    "self": ("beta,beta,1", ParseError, "item 'beta' compared with itself"),
    "unknown_self": ("delta,delta,1", ParseError, "item 'delta' compared with itself"),
    "unknown_winner": ("delta,beta,1", UnknownItemError, "unknown item id 'delta'"),
    "unknown_loser": ("beta,delta,1", UnknownItemError, "unknown item id 'delta'"),
    "both_unknown": ("delta,omega,1", UnknownItemError, "unknown item id 'delta'"),
    "count_before_id": ("delta,beta,0", ParseError, "count must be >= 1, got 0"),
}


class TestComparisonsFileErrors:
    @pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
    def test_fault_after_a_good_row(self, tmp_path, features_csv, fault):
        fm = load_features(features_csv)
        row, kind, message = ROW_FAULTS[fault]
        path = tmp_path / "c.csv"
        path.write_text(
            f"winner_id,loser_id,count\nalpha,gamma,2\n{row}\nbeta,gamma,1\n", encoding="utf-8"
        )
        with pytest.raises(kind) as info:
            load_comparisons(str(path), fm)
        assert str(info.value) == f"{path}:3: {message}"
        if kind is ParseError:
            assert info.value.line == 3

    def test_blank_lines_keep_their_numbers(self, tmp_path, features_csv):
        fm = load_features(features_csv)
        path = tmp_path / "c.csv"
        path.write_text(
            "winner_id,loser_id,count\n\nalpha,gamma,2\n\nbeta,beta,1\n", encoding="utf-8"
        )
        with pytest.raises(ParseError) as info:
            load_comparisons(str(path), fm)
        assert str(info.value) == f"{path}:5: item 'beta' compared with itself"

    @pytest.mark.parametrize(
        "faults",
        [
            ("unknown_loser", "ragged", "non_integer"),
            ("self", "zero", "ragged"),
            ("non_integer", "unknown_winner", "above_exact"),
            ("far_above", "non_integer", "unknown_loser"),
        ],
    )
    def test_first_of_three_faults_is_reported(self, tmp_path, features_csv, faults):
        fm = load_features(features_csv)
        rows = "".join(ROW_FAULTS[f][0] + "\n" for f in faults)
        path = tmp_path / "c.csv"
        path.write_text(f"winner_id,loser_id,count\nalpha,gamma,2\n{rows}", encoding="utf-8")
        _, kind, message = ROW_FAULTS[faults[0]]
        with pytest.raises(kind) as info:
            load_comparisons(str(path), fm)
        assert str(info.value) == f"{path}:3: {message}"


class TestPhysicalLineNumbers:
    # a quoted field spanning lines 2-3 must not shift the line of a later fault

    def test_comparisons(self, tmp_path, features_csv):
        fm = load_features(features_csv)
        path = tmp_path / "c.csv"
        path.write_text(
            'winner_id,loser_id,count\nalpha,beta,"1\n"\ngamma,zz,1\n', encoding="utf-8"
        )
        with pytest.raises(UnknownItemError) as info:
            load_comparisons(str(path), fm)
        assert str(info.value) == f"{path}:4: unknown item id 'zz'"

    def test_features(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text('item_id,f1\n"a\nb",1.0\nc,x\n', encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_features(str(path))
        assert str(info.value) == f"{path}:4: non-numeric feature cell"

    def test_rankings(self, tmp_path, features_csv):
        fm = load_features(features_csv)
        path = tmp_path / "r.csv"
        path.write_text('ranker_id,rank,item_id\n"r\n1",1,alpha\nr2,x,beta\n', encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_rankings(str(path), fm)
        assert str(info.value) == f"{path}:4: bad rank 'x'"


class TestRankingsFile:
    def test_basic_ranking(self, tmp_path, features_csv):
        fm = load_features(features_csv)
        path = tmp_path / "r.csv"
        path.write_text(
            "ranker_id,rank,item_id\nr1,1,gamma\nr1,2,alpha\nr1,3,beta\n",
            encoding="utf-8",
        )
        (ranking,) = load_rankings(str(path), fm)
        assert ranking.ranker_id == "r1"
        assert ranking.items == (2, 0, 1)

    def test_unknown_item_dropped_and_compacted(self, tmp_path, features_csv):
        fm = load_features(features_csv)
        path = tmp_path / "r.csv"
        path.write_text(
            "ranker_id,rank,item_id\nr1,1,gamma\nr1,2,missing\nr1,3,beta\n",
            encoding="utf-8",
        )
        (ranking,) = load_rankings(str(path), fm)
        assert ranking.items == (2, 1)

    def test_short_ranker_dropped_with_warning(self, tmp_path, features_csv):
        fm = load_features(features_csv)
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
        fm = load_features(features_csv)
        path = tmp_path / "r.csv"
        path.write_text(
            "ranker_id,rank,item_id\nr1,1,alpha\nr1,1,beta\n", encoding="utf-8"
        )
        with pytest.raises(ParseError, match="r1"):
            load_rankings(str(path), fm)

    def test_repeated_item_rejected_at_its_line(self, tmp_path, features_csv):
        fm = load_features(features_csv)
        path = tmp_path / "r.csv"
        path.write_text(
            "ranker_id,rank,item_id\nr1,1,alpha\nr1,2,beta\nr1,3,alpha\n"
            "r2,1,alpha\nr2,2,beta\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as info:
            load_rankings(str(path), fm)
        assert str(info.value) == f"{path}:4: ranker 'r1' repeats item 'alpha'"

    def test_repeated_rank_rejected_at_its_line(self, tmp_path, features_csv):
        fm = load_features(features_csv)
        path = tmp_path / "r.csv"
        path.write_text(
            "ranker_id,rank,item_id\nr1,1,alpha\nr1,2,beta\nr1,2,gamma\n", encoding="utf-8"
        )
        with pytest.raises(ParseError) as info:
            load_rankings(str(path), fm)
        assert str(info.value) == f"{path}:4: ranker 'r1' repeats a rank"

    def test_gapped_ranks_rejected(self, tmp_path, features_csv):
        fm = load_features(features_csv)
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


TRIPLE = {
    "moderate": Column(3, boolean=True),
    "strong": True,
    "triple": [Column(0), Column(1), Column(2)],
    "weak": Column(4, boolean=True),
}
# literal text that looks like %-format placeholders, quotes and unicode
TRICKY = ["%s", "%d", "%%", "%(x)s", '"%s"', "\\%s", "é ☃ %", "\n%s\t", "[", "{}", ""]
TEMPLATES = [
    TRIPLE,
    [Column(0), Column(1)],
    Column(2),
    {"a %s": [Column(4), {"b": Column(1, boolean=True)}], "c": "%d \"%s\" é", "d": None},
    [[], {}, Column(0), -1.5, math.inf],
]


@st.composite
def records(draw):
    k = draw(st.sampled_from([0, 1, 2, 5, CHUNK_ROWS, CHUNK_ROWS + 1]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = gen.integers(-(2**62), 2**62, size=(k, 5))
    rows[:, 3:] = gen.integers(0, 2, size=(k, 2)) * gen.integers(1, 3, size=(k, 2))
    return Records(rows, draw(st.sampled_from(TEMPLATES)))


text = st.text() | st.sampled_from(TRICKY)
leaves = (
    st.none() | st.booleans() | st.integers() | st.floats() | text
    | st.sampled_from([math.inf, -math.inf, math.nan])
)
payloads = st.recursive(
    st.booleans().flatmap(lambda listed: records() if listed else leaves),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3),
    max_leaves=6,
)


def plain(obj):
    """The payload with every Records replaced by its list."""
    if isinstance(obj, Records):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: plain(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [plain(value) for value in obj]
    return obj


class TestRecords:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=payloads)
    def test_write_json_bytes_equal_json_dump(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("json") / "out.json"
        write_json(str(path), payload)
        want = json.dumps(plain(payload), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("k", [0, 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS - 1])
    def test_chunk_edges_inside_a_report(self, tmp_path, k):
        rows = np.arange(5 * k, dtype=np.int64).reshape(k, 5) % 7
        listed = Records(rows, TRIPLE)
        payload = {"item_ids": ["a", "%s"], "r": {"rows": listed, "x": [listed, None]}}
        write_json(str(tmp_path / "o.json"), payload)
        want = json.dumps(plain(payload), indent=2, sort_keys=True) + "\n"
        assert (tmp_path / "o.json").read_bytes() == want.encode("utf-8")

    def test_tolist_fills_the_template(self):
        rows = np.array([[4, 2, 9, 1, 0], [1, 3, 5, 0, 2]])
        assert Records(rows, TRIPLE).tolist() == [
            {"moderate": True, "strong": True, "triple": [4, 2, 9], "weak": False},
            {"moderate": False, "strong": True, "triple": [1, 3, 5], "weak": True},
        ]
        assert Records(rows[:, :2], (Column(1), Column(0))).tolist() == [[2, 4], [3, 1]]
        listed = Records(rows, TRIPLE).tolist()
        assert all(type(r["weak"]) is bool and type(r["triple"][0]) is int for r in listed)

    def test_rows_are_read_only_int64_without_a_copy(self):
        rows = np.zeros((3, 2), dtype=np.int64)
        held = Records(rows, [Column(0), Column(1)]).rows
        assert held.dtype == np.int64 and not held.flags.writeable
        assert np.shares_memory(held, rows) and rows.flags.writeable

    def test_bad_shape_or_column_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            Records(np.zeros(3, dtype=np.int64), [Column(0)])
        with pytest.raises(ValueError, match="column 2"):
            Records(np.zeros((1, 2), dtype=np.int64), {"x": [Column(2)]})

    def test_non_str_key_around_records_rejected(self, tmp_path):
        listed = Records(np.zeros((1, 1), dtype=np.int64), [Column(0)])
        with pytest.raises(TypeError, match="str"):
            write_json(str(tmp_path / "o.json"), {1: listed})


class TestFeatureStats:
    def test_apply_matches_manual(self, rng):
        matrix = rng.normal(size=(3, 9))
        stats = FeatureStats.from_matrix(matrix)
        out = stats.apply(matrix)
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-12)
