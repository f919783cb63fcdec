import itertools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import model_report, traced_peak, written
from salientpref import (
    ComparisonDataset,
    DimensionError,
    FeatureMatrix,
    InvalidPairError,
    PreconditionError,
    Ranking,
    SelectionSpec,
    TransitivityReport,
    all_pair_probabilities,
    count_transitivity_violations,
    pairwise_inconsistency,
    realize,
)
from salientpref import _kernels, cli, dataio
from salientpref.dataio import load_comparisons, save_features, write_json
from salientpref.diagnostics import ViolationRows
from salientpref.selection import pair_index


def dataset(records, n):
    return ComparisonDataset.from_records(records, n)


def arrays(probs):
    """Aligned (pair_i, pair_j, prob) arrays from a canonical pair->prob dict."""
    pairs = np.array(list(probs), dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1], np.array(list(probs.values()), dtype=np.float64)


def empirical(data):
    """The (pair_i, pair_j, prob) arrays a dataset gives the diagnostics."""
    return data.pair_i, data.pair_j, data.wins / data.total


def random_edge_map(rng, n, density):
    """Partial pair->prob dict whose values include 0, 1/2 and 1 often."""
    values = (0.0, 0.5, 1.0)
    return {
        (i, j): float(rng.choice(values)) if rng.random() < 0.3 else float(rng.random())
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() <= density
    }


def random_prob_map(rng, n, density=1.0):
    probs = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() <= density:
                probs[(i, j)] = float(rng.random())
    return probs


class TestEmpiricalPairStats:
    def test_counts_and_probability(self):
        i, j, p = empirical(dataset([(0, 1, 1)] * 3 + [(0, 1, 0)], 2))
        assert (i.tolist(), j.tolist(), p.tolist()) == ([0], [1], [0.75])

    def test_empty(self):
        i, j, p = empirical(dataset([], 2))
        assert i.size == j.size == p.size == 0
        assert count_transitivity_violations(i, j, p).triples_checked == 0

    def test_reverse_orientation_normalized(self):
        i, j, p = empirical(dataset([(1, 0, 1)], 2))
        assert (i.tolist(), j.tolist(), p.tolist()) == ([0], [1], [0.0])

    def test_min_count_filter(self, tmp_path):
        fm = FeatureMatrix(np.zeros((1, 3)), ("a", "b", "c"))
        path = tmp_path / "c.csv"
        path.write_text("winner_id,loser_id,count\na,b,4\na,c,5\n", encoding="utf-8")
        i, j, p = empirical(load_comparisons(str(path), fm, min_count=5))
        assert (i.tolist(), j.tolist(), p.tolist()) == ([0], [2], [1.0])


class TestCountTransitivityViolations:
    def test_textbook_district_triple(self):
        # a chain with a perfect first leg: strong broken, moderate and weak fine
        probs = {(0, 1): 1.00, (1, 2): 0.67, (0, 2): 0.70}
        report = count_transitivity_violations(*arrays(probs))
        assert report.triples_checked == 1
        assert report.strong_violations == 1
        assert report.moderate_violations == 0
        assert report.weak_violations == 0

    def test_clean_chain(self):
        probs = {(0, 1): 0.9, (1, 2): 0.8, (0, 2): 0.95}
        report = count_transitivity_violations(*arrays(probs))
        assert report.triples_checked == 1
        assert report.strong_violations == 0

    def test_cycle_breaks_everything(self):
        probs = {(0, 1): 0.9, (1, 2): 0.8, (0, 2): 0.4}
        report = count_transitivity_violations(*arrays(probs))
        assert report.strong_violations == 1
        assert report.moderate_violations == 1
        assert report.weak_violations == 1

    def test_exact_half_never_chains(self):
        probs = {(0, 1): 0.5, (1, 2): 0.5, (0, 2): 0.5}
        report = count_transitivity_violations(*arrays(probs))
        assert report.triples_checked == 0

    def test_missing_pair_excludes_triple(self):
        probs = {(0, 1): 0.9, (1, 2): 0.8}
        report = count_transitivity_violations(*arrays(probs))
        assert report.triples_checked == 0

    def test_listed_rows_match_oracle_on_sparse_items(self, rng, tmp_path):
        items = (2, 5, 7, 11, 13)
        grid = (0.0, 0.3, 0.5, 0.7, 1.0)
        listed = 0
        for _ in range(40):
            probs = {
                pair: float(rng.choice(grid))
                for pair in itertools.combinations(items, 2)
                if rng.random() < 0.9
            }
            listing = count_transitivity_violations(*arrays(probs)).to_dict()["violating_triples"]
            got = written(tmp_path / "d.json", listing)
            want = [
                {"triple": [x, y, z], "strong": True, "moderate": m, "weak": w}
                for x, y, z, m, w in oracles.transitivity_rows(probs)
            ]
            assert got == want
            assert all(type(r["moderate"]) is bool and type(r["weak"]) is bool for r in got)
            listed += len(got)
        assert listed > 0

    def test_memory_does_not_grow_with_triples(self):
        # a strict utility tournament: every triple is checked, none violated
        n = 200
        utility = np.random.default_rng(3).permutation(n)
        i, j = np.triu_indices(n, k=1)
        prob = (utility[i] > utility[j]).astype(np.float64)
        report, peak = traced_peak(count_transitivity_violations, i, j, prob)
        assert report.triples_checked == math.comb(n, 3)
        assert report.strong_violations == 0
        assert peak < 16e6

    def test_writing_the_listing_keeps_memory_bounded(self, tmp_path):
        # 200,000 listed rows: as dicts they alone take tens of MB
        k, m = 200_000, 1000
        gen = np.random.default_rng(5)
        rows = gen.integers(0, m, size=(k, 5))
        rows[:, 3] = 1
        rows[:, 4] = gen.integers(0, 2, size=k)
        weak = int(rows[:, 4].sum())
        keys = ((rows[:, 0] * m + rows[:, 1]) * m + rows[:, 2]) * 4 + 2 * rows[:, 3] + rows[:, 4]
        items = np.arange(m, dtype=np.int64)
        report = TransitivityReport(k, k, k, weak, ViolationRows(keys, items))
        path = tmp_path / "diagnose.json"
        _, peak = traced_peak(write_json, str(path), {"model": report.to_dict()})
        assert peak < 4e6
        with open(path, encoding="utf-8") as fh:
            listed = json.load(fh)["model"]["violating_triples"]
        assert len(listed) == k and sum(r["weak"] for r in listed) == weak
        for r in (0, dataio.CHUNK_ROWS - 1, dataio.CHUNK_ROWS, k - 1):
            x, y, z, _, w = rows[r].tolist()
            assert listed[r] == {"moderate": True, "strong": True, "triple": [x, y, z], "weak": w == 1}

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            count_transitivity_violations(*arrays({(0, 1): 1.2}))

    def test_rejects_non_canonical_pair(self):
        with pytest.raises(ValueError):
            count_transitivity_violations(*arrays({(1, 0): 0.5}))

    def test_nesting_invariant(self, rng):
        for _ in range(30):
            probs = random_prob_map(rng, int(rng.integers(3, 7)), density=0.8)
            r = count_transitivity_violations(*arrays(probs))
            assert r.weak_violations <= r.moderate_violations <= r.strong_violations

    def test_matches_bruteforce(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 7))
            probs = random_prob_map(rng, n, density=float(rng.uniform(0.5, 1.0)))
            r = count_transitivity_violations(*arrays(probs))
            want = oracles.transitivity_counts(probs)
            got = (
                r.triples_checked,
                r.strong_violations,
                r.moderate_violations,
                r.weak_violations,
            )
            assert got == want


def dense_instance(seed, n=100):
    """Uniform probabilities on every pair of n items."""
    i, j = np.triu_indices(n, k=1)
    return i, j, np.random.default_rng(seed).random(i.size)


class TestPackedListing:
    """The rows held one int64 key each, against the enumeration oracle."""

    @staticmethod
    def _check(probs):
        report = count_transitivity_violations(*arrays(probs))
        want = oracles.transitivity_rows(probs)
        rows = np.asarray(report.violations)
        assert rows.dtype == np.int64 and rows.shape == (len(want), 5)
        assert rows.tolist() == [[x, y, z, int(m), int(w)] for x, y, z, m, w in want]
        assert len(report.violations) == len(want)
        np.testing.assert_array_equal(report.violations[1:4], rows[1:4])
        with tempfile.TemporaryDirectory() as tmp:
            listed = written(Path(tmp) / "d.json", report.to_dict()["violating_triples"])
        assert listed == [
            {"triple": [x, y, z], "strong": True, "moderate": m, "weak": w}
            for x, y, z, m, w in want
        ]
        return len(want)

    def test_dense_instances_with_exact_ties(self, rng):
        assert sum(self._check(random_edge_map(rng, 3 + k % 8, 1.0)) for k in range(40)) > 0

    def test_sparse_instances(self, rng):
        assert sum(self._check(random_edge_map(rng, 12, 0.5)) for _ in range(30)) > 0

    def test_all_ties_list_nothing(self):
        probs = {pair: 0.5 for pair in itertools.combinations(range(6), 2)}
        assert self._check(probs) == 0

    @pytest.mark.parametrize("base", [10**6 - 3, 2 * 10**6, 2**62 - 40])
    def test_large_sparse_ids(self, rng, base):
        # with every id a key digit, 4 (max id + 1)**3 would pass 2**63 for the
        # last two bases: the key digits are the scan's own item indices
        ids = base + np.array([0, 3, 4, 9, 17, 30])
        listed = 0
        for _ in range(20):
            probs = random_edge_map(rng, ids.size, 0.9)
            listed += self._check({(int(ids[a]), int(ids[b])): p for (a, b), p in probs.items()})
        assert listed > 0

    @pytest.mark.parametrize("block", [1, 7, "n**3"])
    def test_listing_does_not_depend_on_the_block(self, rng, monkeypatch, block):
        n = 14
        monkeypatch.setattr(_kernels, "_TRIPLE_BLOCK", n**3 if block == "n**3" else block)
        assert sum(self._check(random_edge_map(rng, n, 0.8)) for _ in range(5)) > 0

    def test_rows_decode_a_chunk_at_a_time(self, tmp_path, monkeypatch):
        # the writer decodes keys into scan indices, one chunk at a time, and
        # reads item ids from its tables: it never builds rows of item ids
        report = count_transitivity_violations(*dense_instance(0, n=60))
        decoded = []
        unpack = _kernels.unpack
        monkeypatch.setattr(_kernels, "unpack", lambda keys, m: decoded.append((keys.size, m))
                            or unpack(keys, m))
        payload = {"model": report.to_dict()}
        assert sum(size for size, _ in decoded) == 0
        decoded.clear()

        def item_rows(self, index):
            raise AssertionError("rows decoded into item ids")

        monkeypatch.setattr(ViolationRows, "__getitem__", item_rows)
        write_json(str(tmp_path / "d.json"), payload)
        sizes = [size for size, _ in decoded]
        assert len(report.violations) > 2 * dataio.CHUNK_ROWS
        assert max(sizes) == dataio.CHUNK_ROWS and sum(sizes) == len(report.violations)
        assert {m for _, m in decoded} == {60}

    def test_key_overflow_refused_before_any_square_allocation(self, monkeypatch):
        m = 1_321_123  # the fewest items with 4 m**3 >= 2**63
        assert 4 * m**3 >= 2**63 > 4 * (m - 1) ** 3
        k = np.arange((m + 1) // 2, dtype=np.int64)
        i, j, prob = 2 * k, 2 * k + 1, np.full(k.size, 0.75)

        def refuse_square(make):
            def guarded(shape, *args, **kwargs):
                assert math.prod(np.atleast_1d(shape).tolist()) < m * m, "an n x n allocation"
                return make(shape, *args, **kwargs)
            return guarded

        monkeypatch.setattr(np, "full", refuse_square(np.full))
        monkeypatch.setattr(np, "zeros", refuse_square(np.zeros))

        def refused():
            with pytest.raises(PreconditionError, match=f"{2 * k.size} items.*int64 keys"):
                count_transitivity_violations(i, j, prob)

        _, peak = traced_peak(refused)
        assert peak < 100e6  # O(pairs); an n x n bool matrix would be 1.7 TB


class TestListingMemory:
    """Memory bounds stated from the design: one int64 key per listed row,
    kept in per-block arrays and their concatenation (16 bytes a row at the
    scan's peak), plus the scan's working set of a few blocks."""

    def test_scan_keeps_one_key_per_listed_row(self):
        i, j, prob = dense_instance(0)
        report, peak = traced_peak(count_transitivity_violations, i, j, prob)
        rows = len(report.violations)
        assert rows >= 90_000
        assert peak < 16 * rows + 2e6

    def test_scan_releases_its_block_arrays(self):
        # the keys twice (the per-block arrays and their concatenation, 16
        # bytes a row) plus 0.6 MB for the per-pair arrays and one block's
        # working set, which must be gone before the concatenation
        i, j, prob = dense_instance(0)
        P = np.full((100, 100), 0.5)
        P[i, j], P[j, i] = prob, 1.0 - prob
        (_, keys), peak = traced_peak(_kernels.transitivity_scan, P, i, j)
        assert keys.size == 121_248
        assert peak < 16 * keys.size + 0.6e6

    def test_diagnose_two_reports_in_bounded_memory(self, tmp_path):
        path = str(tmp_path / "diagnose.json")

        def diagnose():
            reports = {
                name: count_transitivity_violations(*dense_instance(seed))
                for name, seed in (("empirical", 1), ("model", 2))
            }
            payload = {name: report.to_dict() for name, report in reports.items()}
            write_json(path, payload)
            return reports, payload

        (reports, payload), peak = traced_peak(diagnose)
        rows = [len(report.violations) for report in reports.values()]
        assert min(rows) >= 90_000
        # the first listing held while the second scan peaks
        assert peak < 24 * max(rows) + 2e6
        # writing alone: a chunk's decoded rows and text, whatever the listing
        _, peak = traced_peak(write_json, path, payload)
        assert peak < 3e6
        with open(path, encoding="utf-8") as fh:
            written = json.load(fh)
        for name in payload:
            listed = np.asarray(reports[name].violations)
            assert len(written[name]["violating_triples"]) == len(listed)
            for r in (0, dataio.CHUNK_ROWS - 1, dataio.CHUNK_ROWS, len(listed) - 1):
                x, y, z, m, w = listed[r].tolist()
                assert written[name]["violating_triples"][r] == {
                    "moderate": m == 1, "strong": True, "triple": [x, y, z], "weak": w == 1
                }


class TestScanInvariants:
    """Counts the scan must give whatever its layout: the cyclic-triad count
    of a tournament, and the transitivity of a model whose pairs of a triple
    share one subset."""

    def test_tournament_weak_violations_are_its_cyclic_triads(self, rng):
        # Kendall & Babington Smith (1940): a tournament with scores s_i holds
        # C(n,3) - sum_i C(s_i, 2) cyclic triads; every triple has a chain
        for n in range(3, 41):
            i, j = np.triu_indices(n, k=1)
            prob = rng.random(i.size)
            prob[prob == 0.5] = 0.25  # every pair links one way
            wins = prob > 0.5
            scores = np.bincount(i[wins], minlength=n) + np.bincount(j[~wins], minlength=n)
            report = count_transitivity_violations(i, j, prob)
            assert report.triples_checked == math.comb(n, 3)
            assert report.weak_violations == math.comb(n, 3) - sum(
                math.comb(s, 2) for s in scores.tolist()
            )

    @staticmethod
    def _instance(n, d=10):
        gen = np.random.default_rng(n)
        fm = FeatureMatrix(gen.normal(0.0, 1.0 / np.sqrt(d), size=(d, n)))
        return fm, gen.normal(0.0, 1.0 / np.sqrt(d), size=d)

    @pytest.mark.parametrize("n", [3, 50, 120])
    def test_full_selection_model_violates_nothing(self, n):
        # Bradley-Terry on <w, U_i>: P(x > z) exceeds both links of a chain
        fm, w = self._instance(n)
        report = model_report(realize(SelectionSpec.full(), fm), w)
        assert report.triples_checked == math.comb(n, 3)
        assert (report.strong_violations, report.moderate_violations,
                report.weak_violations) == (0, 0, 0)

    def test_no_violation_shares_one_mask_on_its_three_pairs(self):
        # a triple whose three pairs keep the same coordinates is Bradley-Terry
        # on those coordinates, so it cannot violate strong transitivity
        n, d = 60, 10
        fm, w = self._instance(n, d)
        sel = realize(SelectionSpec.top_t(2), fm)
        masks = np.unpackbits(sel.keep_bits(), axis=1, count=d)

        def same_mask(x, y, z):
            def mask(u, v):
                return masks[pair_index(np.minimum(u, v), np.maximum(u, v), n)]
            xy, yz, xz = mask(x, y), mask(y, z), mask(x, z)
            return (xy == yz).all(axis=1) & (yz == xz).all(axis=1)

        rows = np.asarray(model_report(sel, w).violations)
        assert len(rows) > 0
        assert not same_mask(rows[:, 0], rows[:, 1], rows[:, 2]).any()
        # the relation is not vacuous: some triples do share one mask
        triples = np.array(list(itertools.combinations(range(n), 3)))
        assert same_mask(*triples.T).any()


class TestModelTransitivityReport:
    """The model section of ``diagnose --weights``: ``all_pair_probabilities``
    over ``all_pairs(n)``, scanned by ``count_transitivity_violations``."""

    def test_full_selection_never_violates(self, rng):
        for _ in range(10):
            fm = FeatureMatrix(rng.normal(size=(4, 8)))
            sel = realize(SelectionSpec.full(), fm)
            report = model_report(sel, rng.normal(size=4))
            assert report.strong_violations == 0

    def test_one_dimension_never_violates(self, rng):
        for spec in (
            SelectionSpec.top_t(1),
            SelectionSpec.random_bernoulli(0.7, seed=1),
        ):
            fm = FeatureMatrix(rng.normal(size=(1, 8)))
            sel = realize(spec, fm)
            report = model_report(sel, rng.normal(size=1))
            assert report.strong_violations == 0

    def test_aggressive_masking_violates(self):
        # top-1 masking on a spread-out instance produces intransitivity
        found = False
        for seed in range(10):
            gen = np.random.default_rng(seed)
            fm = FeatureMatrix(gen.normal(0.0, 1.0 / np.sqrt(10), size=(10, 30)))
            w = gen.normal(0.0, 1.0 / np.sqrt(10), size=10)
            sel = realize(SelectionSpec.top_t(1), fm)
            if model_report(sel, w).strong_violations > 0:
                found = True
                break
        assert found

    def test_matches_pure_python_path(self, rng, tmp_path):
        for _ in range(8):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(3, 9))
            fm = FeatureMatrix(rng.normal(size=(d, n)))
            sel = realize(SelectionSpec.top_t(1), fm)
            w = rng.normal(size=d) * 3
            fast = model_report(sel, w)
            probs = all_pair_probabilities(sel, w)
            ii, jj = np.triu_indices(n, k=1)
            pmap = {
                (int(a), int(b)): float(p) for a, b, p in zip(ii, jj, probs)
            }
            slow = count_transitivity_violations(*arrays(pmap))
            fast_dict, slow_dict = fast.to_dict(), slow.to_dict()
            np.testing.assert_array_equal(np.asarray(fast.violations), np.asarray(slow.violations))
            fast_json = written(tmp_path / "fast.json", fast_dict)
            assert fast_json == written(tmp_path / "slow.json", slow_dict)
            assert (
                fast.triples_checked,
                fast.strong_violations,
                fast.moderate_violations,
                fast.weak_violations,
            ) == oracles.transitivity_counts(pmap)

    def test_needs_three_items(self, rng, tmp_path, capsys):
        save_features(str(tmp_path / "f.csv"), FeatureMatrix(rng.normal(size=(2, 2))))
        (tmp_path / "w.json").write_text('{"w": [0.0, 0.0]}', encoding="utf-8")
        argv = ["diagnose", "--features", str(tmp_path / "f.csv"),
                "--weights", str(tmp_path / "w.json"), "--selection", '{"kind":"full"}',
                "--out", str(tmp_path / "d.json")]
        assert cli.main(argv) == 1
        assert "transitivity needs at least 3 items" in capsys.readouterr().err

    def test_rates(self, rng):
        fm = FeatureMatrix(rng.normal(size=(4, 8)))
        sel = realize(SelectionSpec.full(), fm)
        report = model_report(sel, rng.normal(size=4))
        assert report.rate("strong") == 0.0
        assert report.triples_checked > 0


class TestPairwiseInconsistency:
    def test_sign_disagreement(self):
        out = pairwise_inconsistency(*arrays({(0, 1): 0.6}), [0.4])
        assert out.inconsistent == 1 and out.rate == 1.0

    def test_sign_agreement(self):
        out = pairwise_inconsistency(*arrays({(0, 1): 0.6}), [0.9])
        assert out.inconsistent == 0

    def test_exact_half_not_counted(self):
        out = pairwise_inconsistency(*arrays({(0, 1): 0.5}), [0.9])
        assert out.inconsistent == 0

    def test_ranking_reference(self, tmp_path):
        ranking = Ranking(np.array([2, 1, 3]))  # item 1 best
        p = {(0, 1): 0.7, (0, 2): 0.7, (1, 2): 0.2}
        out = pairwise_inconsistency(*arrays(p), ranking)
        # ranking says 1 above 0 (p2=0), 0 above 2 (p2=1), 1 above 2 (p2=1)
        assert out.pairs_compared == 3
        assert out.inconsistent == 2
        assert out.disagreeing_pairs.tolist() == [[0, 1], [1, 2]]
        assert out.disagreeing_pairs.dtype == np.int64 and not out.disagreeing_pairs.flags.writeable
        assert written(tmp_path / "d.json", out.to_dict())["disagreeing_pairs"] == [[0, 1], [1, 2]]

    def test_empty_overlap(self):
        for reference in ([], Ranking(np.array([1, 2]))):
            out = pairwise_inconsistency(*arrays({}), reference)
            assert (out.pairs_compared, out.inconsistent) == (0, 0)
            assert out.disagreeing_pairs.shape == (0, 2)
            assert out.rate is None
            assert out.to_dict()["inconsistency_rate"] is None

    def test_matches_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 9))
            p_map = random_edge_map(rng, n, float(rng.uniform(0.3, 1.0)))
            q_map = random_edge_map(rng, n, float(rng.uniform(0.3, 1.0)))
            # the caller aligns the reference with the pairs, in any order
            common = [pair for pair in p_map if pair in q_map]
            if not common:
                continue
            common = [common[k] for k in rng.permutation(len(common))]
            i, j, p = arrays({pair: p_map[pair] for pair in common})
            out = pairwise_inconsistency(i, j, p, np.array([q_map[pair] for pair in common]))
            pairs = tuple(map(tuple, out.disagreeing_pairs.tolist()))
            got = (out.pairs_compared, out.inconsistent, out.rate, pairs)
            assert got == oracles.inconsistent_pairs(p_map, q_map)

    def test_ranking_reference_matches_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 9))
            ranking = Ranking.from_order(rng.permutation(n))
            pos = ranking.positions.tolist()
            q_map = {
                (a, b): 1.0 if pos[a] < pos[b] else 0.0
                for a in range(n)
                for b in range(a + 1, n)
            }
            p_map = random_edge_map(rng, n, float(rng.uniform(0.3, 1.0)))
            if not p_map:
                continue
            shuffled = list(p_map)
            shuffled = [shuffled[k] for k in rng.permutation(len(shuffled))]
            out = pairwise_inconsistency(*arrays({pair: p_map[pair] for pair in shuffled}), ranking)
            pairs = tuple(map(tuple, out.disagreeing_pairs.tolist()))
            got = (out.pairs_compared, out.inconsistent, out.rate, pairs)
            assert got == oracles.inconsistent_pairs(p_map, q_map)


def transitivity(i, j, p):
    return count_transitivity_violations(i, j, p)


def inconsistency(i, j, p):
    return pairwise_inconsistency(i, j, p, np.full(np.shape(p), 0.5))


def inconsistency_vs_ranking(i, j, p):
    return pairwise_inconsistency(i, j, p, Ranking(np.arange(1, 6)))


@pytest.mark.parametrize("call", [transitivity, inconsistency, inconsistency_vs_ranking])
class TestPairArrayChecks:
    def test_unequal_lengths(self, call):
        with pytest.raises(DimensionError):
            call([0, 1], [1, 2], [0.5])

    def test_not_one_dimensional(self, call):
        with pytest.raises(DimensionError):
            call([[0]], [[1]], [[0.5]])

    def test_probability_outside_unit_interval(self, call):
        with pytest.raises(ValueError, match=r"pair \(1, 2\) outside \[0, 1\]: -0.1"):
            call([0, 1], [1, 2], [0.5, -0.1])

    def test_nan_probability(self, call):
        with pytest.raises(ValueError, match=r"pair \(0, 2\) outside \[0, 1\]: nan"):
            call([0, 0], [1, 2], [0.5, np.nan])

    def test_non_canonical_pair(self, call):
        for i, j in ((2, 1), (1, 1), (-1, 2)):
            with pytest.raises(ValueError, match="not canonical"):
                call([0, i], [1, j], [0.5, 0.5])

    def test_repeated_pair(self, call):
        with pytest.raises(ValueError, match=r"pair \(0, 2\) is repeated"):
            call([0, 1, 0], [2, 2, 2], [0.5, 0.5, 0.7])

    @pytest.mark.parametrize(
        "i, j",
        [([0.9, 0.2, 1.7], [1.2, 2.9, 2.1]), (["0", "0", "1"], ["1", "2", "2"]),
         ([False, False, True], [True, True, True]), ([0, 0, 1], [1.0, 2.0, 2.0])],
    )
    def test_pair_ids_must_be_integers(self, call, i, j):
        # the floats used to be truncated to the pairs (0, 1), (0, 2), (1, 2)
        with pytest.raises(InvalidPairError, match="integer arrays"):
            call(i, j, [0.7, 0.6, 0.8])

    def test_a_bool_inside_a_list_of_pair_ids(self, call):
        # numpy reads [0, 0, True] as int64: it used to be checked as the
        # pairs (0, 1), (0, 2), (1, 2)
        with pytest.raises(InvalidPairError, match="got a bool"):
            call([0, 0, True], [True, 2, 2], [0.9, 0.1, 0.9])

    def test_integer_ndarray_pair_ids_pass(self, call, tmp_path):
        i, j = np.array([0, 0, 1], dtype=np.int32), np.array([1, 2, 2], dtype=np.uint8)
        got = written(tmp_path / "a.json", call(i, j, [0.9, 0.1, 0.9]).to_dict())
        assert got == written(tmp_path / "b.json", call([0, 0, 1], [1, 2, 2], [0.9, 0.1, 0.9]).to_dict())


class TestReferenceChecks:
    def test_reference_length_must_match(self):
        with pytest.raises(DimensionError):
            pairwise_inconsistency([0, 1], [1, 2], [0.6, 0.6], [0.4])

    def test_reference_probability_checked(self):
        with pytest.raises(ValueError, match=r"pair \(1, 2\) outside \[0, 1\]"):
            pairwise_inconsistency([0, 1], [1, 2], [0.6, 0.6], [0.4, np.nan])

    def test_ranking_must_cover_every_pair(self):
        ranking = Ranking(np.array([1, 2, 3]))
        with pytest.raises(ValueError, match=r"pair \(1, 3\) is outside a ranking of 3 items"):
            pairwise_inconsistency([0, 1], [2, 3], [0.6, 0.6], ranking)
