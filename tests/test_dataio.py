import csv
import functools
import io
import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import count_lists, piped, traced_peak, triple_objects
from salientpref import (
    ComparisonDataset,
    FeatureMatrix,
    InconsistencyReport,
    ParseError,
    PreconditionError,
    TransitivityReport,
    UnknownItemError,
    count_transitivity_violations,
    dataio,
    pairwise_inconsistency,
)
from salientpref.dataio import (
    CHUNK_ROWS,
    FeatureStats,
    load_comparisons,
    load_features,
    load_rankings,
    load_weights_json,
    read_json,
    save_comparisons,
    save_features,
    save_ranking_csv,
    write_json,
)
from salientpref.diagnostics import ViolationRows


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

    @pytest.mark.parametrize("min_count", [2.5, True, "x", -1])
    def test_min_count_must_be_an_integer(self, tmp_path, features_csv, min_count):
        # 2.5 used to filter as 3 and True as 1
        fm = load_features(features_csv)
        path = tmp_path / "c.csv"
        path.write_text("winner_id,loser_id,count\nalpha,beta,2\n", encoding="utf-8")
        with pytest.raises(PreconditionError, match="min_count must be an integer >= 0"):
            load_comparisons(str(path), fm, min_count=min_count)

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
        data, peak = traced_peak(load_comparisons, str(path), fm)
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


GOOD_ROWS = ("alpha,gamma,2", "beta,gamma,1", "gamma,alpha,3")  # no (alpha, beta) pair


def later_chunk_text(row, at, first='alpha,gamma,"1\n"', end="\n"):
    """Comparisons text whose record ``at`` (from 1) is ``row``, then one good
    record.  Record 1 is ``first``, whose quoted count spans two lines, and a
    blank line follows it and precedes ``row``.  Returns the text and the
    physical line of ``row``: ``at + 4``."""
    middle = [GOOD_ROWS[k % 3] for k in range(at - 2)]
    lines = ["winner_id,loser_id,count", first, "", *middle, "", row, "beta,gamma,1", ""]
    return "\n".join(lines).replace("\n", end), at + 4


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

    @pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
    def test_fault_in_a_later_chunk(self, tmp_path, features_csv, fault):
        fm = load_features(features_csv)
        row, kind, message = ROW_FAULTS[fault]
        text, line = later_chunk_text(row, 2500)
        path = tmp_path / "c.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(kind) as info:
            load_comparisons(str(path), fm)
        assert str(info.value) == f"{path}:2504: {message}" and line == 2504
        with pytest.raises(kind) as want:
            oracles.read_comparisons(str(path), fm.item_ids)
        assert str(want.value) == str(info.value)

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

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("fault", sorted(ROW_FAULTS))
    def test_comparisons_in_a_later_chunk(self, tmp_path, features_csv, fault, end):
        fm = load_features(features_csv)
        row, kind, message = ROW_FAULTS[fault]
        text, line = later_chunk_text(row, 2500, end=end)
        path = tmp_path / "c.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(kind) as info:
            load_comparisons(str(path), fm)
        assert str(info.value) == f"{path}:{line}: {message}"

    def test_pair_total_crossing_in_a_later_chunk(self, tmp_path, features_csv):
        fm = load_features(features_csv)
        # (alpha, beta) holds 2**53 - 1 from record 1 and crosses 2**53 at record 2500
        text, line = later_chunk_text("beta,alpha,2", 2500, first=f'alpha,beta,"{2**53 - 1}\n"')
        path = tmp_path / "c.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_comparisons(str(path), fm)
        assert str(info.value) == f"{path}:2504: pair total exceeds 2**53" and line == 2504
        with pytest.raises(ParseError) as want:
            oracles.read_comparisons(str(path), fm.item_ids)
        assert str(want.value) == str(info.value)

    @pytest.mark.parametrize("fault", ["ragged", "far_above", "unknown_loser", "pair_total"])
    def test_comparisons_through_a_pipe(self, features_csv, fault):
        fm = load_features(features_csv)
        if fault == "pair_total":
            row, kind, message = "beta,alpha,2", ParseError, "pair total exceeds 2**53"
            text, line = later_chunk_text(row, 2500, first=f'alpha,beta,"{2**53 - 1}\n"')
        else:
            row, kind, message = ROW_FAULTS[fault]
            text, line = later_chunk_text(row, 2500)
        with piped(text) as path, pytest.raises(kind) as info:
            load_comparisons(path, fm)
        assert str(info.value) == f"{path}:{line}: {message}"

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


ID_CHARS = st.sampled_from([",", '"', "\r", "\n", "é", "☃", "a", "b", " "])
item_id_lists = st.lists(
    st.text(ID_CHARS, max_size=4) | st.text(st.characters(codec="utf-8"), max_size=3),
    min_size=2, max_size=7, unique=True,
)
chunk_sizes = st.sampled_from([1, 2, 3, dataio._CSV_CHUNK])
# text files: ids that need quoting or are empty; counts int() accepts however written
TEXT_IDS = ("alpha", "beta", 'q"x', "a,b", "é\r\n", "")
COUNT_TEXTS = ("1", "+5", " 5", "5 ", "1_000", "007", "\t2\n", str(2**53))
BAD_ROWS = (("alpha", "beta"), ("alpha", "beta", "1", "2"), ("alpha", "beta", "1.5"),
            ("alpha", "beta", "0"), ("beta", "beta", "1"), ("delta", "beta", "1"),
            ("alpha", "beta", str(2**70)))


def outcome(load):
    """What ``load()`` returns, or the type and message of the error it raises."""
    try:
        return load()
    except (ParseError, UnknownItemError) as exc:
        return type(exc), str(exc)


def written(records, end, blanks):
    """CSV text of ``records`` ended by ``end``, a blank line before record k when blanks[k]."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator=end)
    for record, blank in zip(records, blanks):
        if blank:
            buf.write(end)
        writer.writerow(record)
    return buf.getvalue()


class TestChunkedCsv:
    """The chunked comparisons reader and the writers against the record-at-a-time oracles."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ids=item_id_lists, chunk=chunk_sizes, data=st.data())
    def test_writers_match_oracle_and_read_back(self, tmp_path_factory, ids, chunk, data):
        n = len(ids)
        d = data.draw(st.integers(1, 3))
        values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=d * n, max_size=d * n))
        fm = FeatureMatrix(np.array(values).reshape(d, n), tuple(ids))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        kept = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        total = [data.draw(st.integers(1, 2**53)) for _ in kept]
        wins = [data.draw(st.integers(0, t)) for t in total]
        cd = ComparisonDataset([a for a, _ in kept], [b for _, b in kept], wins, total, n)
        order = data.draw(st.permutations(range(n)))
        utilities = fm.matrix[-1]
        min_count = data.draw(st.sampled_from([0, 1, 2**52]))
        tmp = tmp_path_factory.mktemp("csv")
        with mock.patch.object(dataio, "_CSV_CHUNK", chunk):
            save_features(str(tmp / "f.csv"), fm)
            save_comparisons(str(tmp / "c.csv"), cd, fm)
            save_ranking_csv(str(tmp / "r.csv"), fm, np.array(order), utilities)
            loaded = load_features(str(tmp / "f.csv"))
            data_back = load_comparisons(str(tmp / "c.csv"), fm, min_count)
        oracles.write_features(str(tmp / "of.csv"), fm.matrix, fm.item_ids)
        oracles.write_comparisons(str(tmp / "oc.csv"), cd.pair_i, cd.pair_j, cd.wins, cd.total,
                                  fm.item_ids)
        oracles.write_ranking(str(tmp / "or.csv"), fm.item_ids, order, utilities)
        for name in ("f.csv", "c.csv", "r.csv"):
            assert (tmp / name).read_bytes() == (tmp / f"o{name}").read_bytes(), name
        want_ids, want_matrix = oracles.read_features(str(tmp / "f.csv"))
        assert loaded.item_ids == want_ids == fm.item_ids
        assert loaded.matrix.tobytes() == want_matrix.tobytes() == fm.matrix.tobytes()
        want = oracles.read_comparisons(str(tmp / "c.csv"), fm.item_ids, min_count)
        assert count_lists(data_back) == tuple(a.tolist() for a in want)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(chunk=chunk_sizes, end=st.sampled_from(["\n", "\r\n", "\r"]), data=st.data())
    def test_comparisons_text_matches_oracle(self, tmp_path_factory, chunk, end, data):
        good = st.tuples(st.sampled_from(TEXT_IDS), st.sampled_from(TEXT_IDS),
                         st.sampled_from(COUNT_TEXTS)).filter(lambda r: r[0] != r[1])
        records = data.draw(st.lists(good | st.sampled_from(BAD_ROWS), max_size=12)
                            if data.draw(st.booleans()) else st.lists(good, max_size=12))
        blanks = data.draw(st.lists(st.booleans(), min_size=len(records), max_size=len(records)))
        min_count = data.draw(st.sampled_from([0, 2, 6]))
        fm = FeatureMatrix(np.zeros((1, len(TEXT_IDS))), TEXT_IDS)
        path = str(tmp_path_factory.mktemp("csv") / "c.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(written([("winner_id", "loser_id", "count"), *records], end, [False, *blanks]))
        with mock.patch.object(dataio, "_CSV_CHUNK", chunk):
            got = outcome(lambda: count_lists(load_comparisons(path, fm, min_count)))
        want = outcome(lambda: tuple(
            a.tolist() for a in oracles.read_comparisons(path, fm.item_ids, min_count)))
        assert got == want

    def test_header_only_file(self, tmp_path, features_csv):
        fm = load_features(features_csv)
        for end in ("\n", "\r\n", "\r", ""):
            path = tmp_path / "c.csv"
            path.write_text("winner_id,loser_id,count" + end, encoding="utf-8", newline="")
            assert count_lists(load_comparisons(str(path), fm)) == ([], [], [], [])

    def test_clean_file_never_reaches_the_per_row_code(self, tmp_path, monkeypatch, rng):
        n, rows = 50, 3 * dataio._CSV_CHUNK + 5
        fm = FeatureMatrix(rng.normal(size=(2, n)), tuple(f"id {k}" for k in range(n)))
        winner = rng.integers(0, n, rows)
        loser = (winner + rng.integers(1, n, rows)) % n
        lines = [f"id {a},id {b},{c}\n" for a, b, c in zip(winner, loser, rng.integers(1, 9, rows))]
        (tmp_path / "c.csv").write_text("winner_id,loser_id,count\n" + "".join(lines))
        calls = []
        monkeypatch.setattr(dataio, "_read_rows", lambda *args: calls.append("_read_rows"))
        monkeypatch.setattr(dataio, "_row_error", lambda *args: calls.append("_row_error"))
        got = count_lists(load_comparisons(str(tmp_path / "c.csv"), fm))
        assert calls == []
        want = oracles.read_comparisons(str(tmp_path / "c.csv"), fm.item_ids)
        assert got == tuple(a.tolist() for a in want)

    def test_memory_per_record(self, tmp_path, rng):
        # 50,000 records: 32 bytes each in the columns built (line, winner,
        # loser, count), so at most one chunk's per-record objects and the
        # pair grouping's arrays on top
        n, rows = 400, 50_000
        fm = FeatureMatrix(rng.normal(size=(3, n)))
        winner = rng.integers(0, n, rows)
        loser = (winner + rng.integers(1, n, rows)) % n
        path = tmp_path / "c.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("winner_id,loser_id,count\n")
            fh.writelines(f"item{a},item{b},{c}\n"
                          for a, b, c in zip(winner, loser, rng.integers(1, 9, rows)))
        fm._id_index  # built once per features, not per file
        data, peak = traced_peak(load_comparisons, str(path), fm)
        assert int(data.total.sum()) > rows
        assert peak / rows < 200


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


# literal text that looks like %-format placeholders, quotes and unicode
TRICKY = ["%s", "%d", "%%", "%(x)s", '"%s"', "\\%s", "é ☃ %", "\n%s\t", "[", "{}", ""]
BASES = (0, 10**6 - 3, 2 * 10**6, 2**62 - 40)


@functools.cache
def dense_report(base):
    """A transitivity report over 40 sparse ids from ``base``, listing more
    than three chunks of rows."""
    gen = np.random.default_rng(base % 2**32)
    n = 40
    ids = base + np.cumsum(gen.integers(1, 9, size=n))
    i, j = np.triu_indices(n, k=1)
    kept = gen.random(i.size) < 0.95
    pair_i, pair_j, prob = ids[i[kept]], ids[j[kept]], gen.random(int(kept.sum()))
    return ids, (pair_i, pair_j, prob), count_transitivity_violations(pair_i, pair_j, prob)


def first_rows(report, k):
    """The report with its listing cut to the first ``k`` rows."""
    keys, items = report.violations._keys[:k], report.violations._items
    moderate, weak = (int(np.count_nonzero(keys & bit)) for bit in (2, 1))
    return TransitivityReport(report.triples_checked, k, moderate, weak, ViolationRows(keys, items))


def triple_listing(base, k):
    """The first ``k`` violating triples of ``dense_report(base)``: the
    listing and the ``oracles.Rows`` of its row objects."""
    cut = first_rows(dense_report(base)[2], k)
    return cut.to_dict()["violating_triples"], oracles.Rows(triple_objects(cut.violations))


def pair_listing(base, k, seed):
    """``k`` canonical pairs of the report's ids: the listing and its rows."""
    ids = dense_report(base)[0]
    gen = np.random.default_rng(seed)
    i = gen.integers(0, ids.size - 1, size=k)
    pairs = np.column_stack([ids[i], ids[gen.integers(i + 1, ids.size)]])
    listing = InconsistencyReport(k, k, pairs).to_dict()["disagreeing_pairs"]
    return listing, oracles.Rows(pairs.tolist())


@st.composite
def listings(draw):
    k = draw(st.sampled_from([0, 1, 2, 5, CHUNK_ROWS, CHUNK_ROWS + 1]))
    base = draw(st.sampled_from(BASES))
    if draw(st.booleans()):
        return triple_listing(base, k)
    return pair_listing(base, k, draw(st.integers(0, 2**32 - 1)))


def both(values):
    """(payloads, plain payloads) from a list or dict of such pairs."""
    if isinstance(values, dict):
        return tuple({key: pair[side] for key, pair in values.items()} for side in (0, 1))
    return tuple([pair[side] for pair in values] for side in (0, 1))


text = st.text() | st.sampled_from(TRICKY)
leaves = (
    st.none() | st.booleans() | st.integers() | st.floats() | text
    | st.sampled_from([math.inf, -math.inf, math.nan])
).map(lambda leaf: (leaf, leaf))
# (payload, the same payload with each listing replaced by its rows)
payloads = st.recursive(
    st.booleans().flatmap(lambda listed: listings() if listed else leaves),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3)
    ).map(both),
    max_leaves=6,
)


def assert_written_as_oracle(path, payload, plain):
    """``write_json`` writes the bytes of ``oracles.json_text``, which load
    as ``plain``: the dumps are compared so that a NaN equals itself."""
    write_json(str(path), payload)
    assert path.read_bytes() == oracles.json_text(plain).encode("utf-8")
    loaded = json.loads(path.read_text(encoding="utf-8"))
    assert json.dumps(loaded, sort_keys=True) == json.dumps(plain, sort_keys=True)


class TestRecords:
    """Listed records, triples and pairs, through ``write_json`` at any depth:
    ``json.dumps(indent=2)`` around one-line rows."""

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(payload=payloads)
    def test_write_json_bytes_equal_json_dump(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("json") / "out.json"
        assert_written_as_oracle(path, *payload)

    @pytest.mark.parametrize("k", [0, 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS - 1])
    def test_chunk_edges_inside_a_report(self, tmp_path, k):
        (triples, triple_list), (pairs, pair_list) = triple_listing(0, k), pair_listing(0, k, k)
        payload = {"item_ids": ["a", "%s"], "r": {"rows": triples, "x": [pairs, None]}}
        plain = {"item_ids": ["a", "%s"], "r": {"rows": triple_list, "x": [pair_list, None]}}
        assert_written_as_oracle(tmp_path / "o.json", payload, plain)

    def test_non_str_key_around_records_rejected(self, tmp_path):
        listed, _ = pair_listing(0, 1, 0)
        with pytest.raises(TypeError, match="str"):
            write_json(str(tmp_path / "o.json"), {1: listed})


class TestReportListings:
    """Real diagnostics reports through ``write_json``: the bytes of
    ``oracles.json_text`` over their rows, for sparse large ids and listings
    on either side of a chunk edge."""

    @pytest.mark.parametrize("base", BASES)
    def test_reports_write_as_json_dumps(self, tmp_path, base):
        ids, (pair_i, pair_j, prob), report = dense_report(base)
        assert len(report.violations) > CHUNK_ROWS + 1
        gen = np.random.default_rng(base % 2**32)
        inconsistency = pairwise_inconsistency(pair_i, pair_j, prob, gen.random(prob.size))
        assert inconsistency.inconsistent > 0
        for k in (0, 1, CHUNK_ROWS, CHUNK_ROWS + 1, len(report.violations)):
            cut = first_rows(report, k)
            payload = {
                "item_ids": ids.tolist(),
                "empirical": cut.to_dict(),
                "inconsistency": inconsistency.to_dict(),
            }
            plain = {
                "item_ids": ids.tolist(),
                "empirical": {
                    **cut.to_dict(),
                    "violating_triples": oracles.Rows(triple_objects(cut.violations)),
                },
                "inconsistency": {
                    **inconsistency.to_dict(),
                    "disagreeing_pairs": oracles.Rows(inconsistency.disagreeing_pairs.tolist()),
                },
            }
            assert_written_as_oracle(tmp_path / f"{k}.json", payload, plain)
            assert len(plain["empirical"]["violating_triples"]) == k


class TestFeatureStats:
    def test_apply_matches_manual(self, rng):
        matrix = rng.normal(size=(3, 9))
        stats = FeatureStats.from_matrix(matrix)
        out = stats.apply(matrix)
        np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-12)
