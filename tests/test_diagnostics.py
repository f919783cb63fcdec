import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from salientpref import (
    ComparisonDataset,
    DimensionError,
    FeatureMatrix,
    PreconditionError,
    Ranking,
    SelectionSpec,
    TransitivityReport,
    all_pair_probabilities,
    count_transitivity_violations,
    model_transitivity_report,
    pairwise_inconsistency,
    realize,
)
from salientpref.dataio import load_comparisons, write_json


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

    def test_listed_rows_match_oracle_on_sparse_items(self, rng):
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
            got = listing.tolist()
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
        tracemalloc.start()
        try:
            report = count_transitivity_violations(i, j, prob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.triples_checked == math.comb(n, 3)
        assert report.strong_violations == 0
        assert peak < 16e6

    def test_writing_the_listing_keeps_memory_bounded(self, tmp_path):
        # 200,000 listed rows: as dicts they alone take tens of MB
        k = 200_000
        gen = np.random.default_rng(5)
        rows = gen.integers(0, 1000, size=(k, 5))
        rows[:, 3] = 1
        rows[:, 4] = gen.integers(0, 2, size=k)
        weak = int(rows[:, 4].sum())
        report = TransitivityReport(k, k, k, weak, rows)
        path = tmp_path / "diagnose.json"
        tracemalloc.start()
        try:
            write_json(str(path), {"model": report.to_dict()})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        with open(path, encoding="utf-8") as fh:
            listed = json.load(fh)["model"]["violating_triples"]
        assert len(listed) == k and sum(r["weak"] for r in listed) == weak
        for r in (0, 4095, 4096, k - 1):
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


class TestModelTransitivityReport:
    def test_full_selection_never_violates(self, rng):
        for _ in range(10):
            fm = FeatureMatrix(rng.normal(size=(4, 8)))
            sel = realize(SelectionSpec.full(), fm)
            report = model_transitivity_report(fm, rng.normal(size=4), sel)
            assert report.strong_violations == 0

    def test_one_dimension_never_violates(self, rng):
        for spec in (
            SelectionSpec.top_t(1),
            SelectionSpec.random_bernoulli(0.7, seed=1),
        ):
            fm = FeatureMatrix(rng.normal(size=(1, 8)))
            sel = realize(spec, fm)
            report = model_transitivity_report(fm, rng.normal(size=1), sel)
            assert report.strong_violations == 0

    def test_aggressive_masking_violates(self):
        # top-1 masking on a spread-out instance produces intransitivity
        found = False
        for seed in range(10):
            gen = np.random.default_rng(seed)
            fm = FeatureMatrix(gen.normal(0.0, 1.0 / np.sqrt(10), size=(10, 30)))
            w = gen.normal(0.0, 1.0 / np.sqrt(10), size=10)
            sel = realize(SelectionSpec.top_t(1), fm)
            if model_transitivity_report(fm, w, sel).strong_violations > 0:
                found = True
                break
        assert found

    def test_matches_pure_python_path(self, rng):
        for _ in range(8):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(3, 9))
            fm = FeatureMatrix(rng.normal(size=(d, n)))
            sel = realize(SelectionSpec.top_t(1), fm)
            w = rng.normal(size=d) * 3
            fast = model_transitivity_report(fm, w, sel)
            probs = all_pair_probabilities(fm, w, sel)
            ii, jj = np.triu_indices(n, k=1)
            pmap = {
                (int(a), int(b)): float(p) for a, b, p in zip(ii, jj, probs)
            }
            slow = count_transitivity_violations(*arrays(pmap))
            fast_dict, slow_dict = fast.to_dict(), slow.to_dict()
            listed = fast_dict.pop("violating_triples").tolist()
            assert listed == slow_dict.pop("violating_triples").tolist()
            assert fast_dict == slow_dict
            assert (
                fast.triples_checked,
                fast.strong_violations,
                fast.moderate_violations,
                fast.weak_violations,
            ) == oracles.transitivity_counts(pmap)

    def test_needs_three_items(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 2)))
        sel = realize(SelectionSpec.full(), fm)
        with pytest.raises(PreconditionError):
            model_transitivity_report(fm, np.zeros(2), sel)

    def test_rates(self, rng):
        fm = FeatureMatrix(rng.normal(size=(4, 8)))
        sel = realize(SelectionSpec.full(), fm)
        report = model_transitivity_report(fm, rng.normal(size=4), sel)
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

    def test_ranking_reference(self):
        ranking = Ranking(np.array([2, 1, 3]))  # item 1 best
        p = {(0, 1): 0.7, (0, 2): 0.7, (1, 2): 0.2}
        out = pairwise_inconsistency(*arrays(p), ranking)
        # ranking says 1 above 0 (p2=0), 0 above 2 (p2=1), 1 above 2 (p2=1)
        assert out.pairs_compared == 3
        assert out.inconsistent == 2
        assert out.disagreeing_pairs.tolist() == [[0, 1], [1, 2]]
        assert out.disagreeing_pairs.dtype == np.int64 and not out.disagreeing_pairs.flags.writeable
        assert out.to_dict()["disagreeing_pairs"].tolist() == [[0, 1], [1, 2]]

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
