import numpy as np
import pytest

import oracles
from conftest import count_lists, gradient, hessian, make_instance, traced_peak
from salientpref import (
    ComparisonDataset,
    FeatureMatrix,
    InvalidPairError,
    PreconditionError,
    SelectionSpec,
    all_pair_probabilities,
    nll,
    realize,
    sample_comparisons,
)
from salientpref._kernels import logistic_curvature
from salientpref.selection import pair_index

# log(1 + e^50) - 50 evaluated at 50 decimal digits, rounded to float64
SOFTPLUS_50_TAIL = 1.9287498479639178e-22


def fm_from_columns(*cols):
    return FeatureMatrix(np.column_stack([np.asarray(c, float) for c in cols]))


def single_pair_dataset(x_pairs, n_items):
    """Dataset given explicit (i, j, y) records."""
    return ComparisonDataset.from_records(x_pairs, n_items)


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

    @pytest.mark.parametrize(
        "i, j", [([0.9], [1.7]), (["0"], ["1"]), ([False], [True]), ([0], [1.0])]
    )
    def test_pair_ids_must_be_integers(self, i, j):
        # ([0.9], [1.7]) used to hold the pair (0, 1) with wins 1 and total 2
        with pytest.raises(InvalidPairError, match="integer arrays"):
            ComparisonDataset(i, j, [1.5], [2.9], 3)

    def test_a_bool_inside_a_list_of_pair_ids(self):
        # numpy reads [True, 0] as int64: it used to hold the pairs (1, 2) and (0, 2)
        with pytest.raises(InvalidPairError, match="got a bool"):
            ComparisonDataset([True, 0], [2, 2], [1, 1], [1, 1], 3)
        with pytest.raises(InvalidPairError, match="got a bool"):
            ComparisonDataset([1, 0], [2, np.True_], [1, 1], [1, 1], 3)

    def test_integer_ndarray_pair_ids_pass(self):
        data = ComparisonDataset(np.array([1, 0], dtype=np.int32), np.array([2, 2]), [1, 1],
                                 [1, 1], 3)
        assert count_lists(data) == ([0, 1], [2, 2], [1, 1], [1, 1])

    @pytest.mark.parametrize(
        "wins, total, name",
        [([1.5], [2.9], "wins"), ([True], [1], "wins"), ([0], [True], "total"),
         ([0], ["1"], "total")],
        ids=["float_wins", "bool_wins", "bool_total", "string_total"],
    )
    def test_counts_must_be_integers(self, wins, total, name):
        # ([1.5], [2.9]) used to hold wins 1 and total 2, and True to count as 1
        with pytest.raises(PreconditionError, match=f"{name} must be an integer array"):
            ComparisonDataset([0], [1], wins, total, 3)

    @pytest.mark.parametrize("n_items", [3.5, True, "3", -1])
    def test_n_items_must_be_an_integer(self, n_items):
        # 3.5 used to be stored as the item count
        with pytest.raises(PreconditionError, match="n_items must be an integer >= 0"):
            ComparisonDataset([0], [1], [1], [1], n_items)

    def test_records_must_be_integers(self):
        # (0, 1.7, 1) used to be stored as the pair (0, 1)
        with pytest.raises(PreconditionError, match="records must be an integer array"):
            ComparisonDataset.from_records([(0, 1.7, 1)], 3)

    def test_a_bool_in_a_record(self):
        # (0, 1, True) used to be stored as a win of item 0
        with pytest.raises(PreconditionError, match="records must be an integer array, got a bool"):
            ComparisonDataset.from_records([(0, 1, True)], 3)

    def test_empty_ids_of_any_dtype(self):
        data = ComparisonDataset([], [], [], [], 3)
        assert len(data) == 0 and data.pair_i.dtype == np.int64

    def test_multiplicity_kept(self):
        data = single_pair_dataset([(0, 1, 1)] * 3 + [(0, 1, 0)], 2)
        assert len(data) == 4
        assert count_lists(data) == ([0], [1], [3], [4])

    def test_total_count_must_fit_len(self):
        # each pair may hold 2**53; 1,023 such pairs sum below 2**63 - 1,
        # all 1,225 pairs of 50 items sum above it
        i, j = np.triu_indices(50, k=1)
        total = np.full(i.size, 2**53)
        data = ComparisonDataset(i[:1023], j[:1023], total[:1023], total[:1023], 50)
        assert len(data) == 1023 * 2**53
        with pytest.raises(PreconditionError, match="total comparison count"):
            ComparisonDataset(i, j, total, total, 50)


class TestWinProbability:
    """P(i beats j) for the canonical pairs, from ``all_pair_probabilities``."""

    def test_orthogonal_weights_give_half(self):
        fm = fm_from_columns([1.0, 0.0], [0.0, 0.0])
        sel = realize(SelectionSpec.full(), fm)
        assert all_pair_probabilities(sel, np.array([0.0, 5.0])).tolist() == [0.5]

    def test_log_three_quarters(self):
        fm = fm_from_columns([1.0], [0.0])
        sel = realize(SelectionSpec.full(), fm)
        (p,) = all_pair_probabilities(sel, np.array([np.log(3.0)]))
        assert p == pytest.approx(0.75, abs=1e-15)

    def test_masking_silences_heavy_coordinate(self):
        # the large-weight coordinate has the smaller difference, so top-1
        # masks it out and only the log-3 coordinate matters
        fm = fm_from_columns([1.0, 9.0], [0.0, 9.0])
        sel = realize(SelectionSpec.top_t(1), fm)
        (p,) = all_pair_probabilities(sel, np.array([np.log(3.0), 100.0]))
        assert p == pytest.approx(0.75, abs=1e-15)

    def test_antisymmetry(self, rng):
        # P(j beats i) is the logistic of the negated margin <-w, x_ij>
        for _ in range(25):
            d = int(rng.integers(1, 6))
            n = int(rng.integers(2, 8))
            fm, sel = make_instance(rng, d, n)
            w = rng.normal(size=d)
            p = all_pair_probabilities(sel, w)
            q = all_pair_probabilities(sel, -w)
            assert np.abs(p + q - 1.0).max() <= 1e-15

    def test_self_pair_rejected(self, rng):
        fm, sel = make_instance(rng, 2, 3)
        with pytest.raises(InvalidPairError):
            sel.rows([1], [1])


class TestSampleComparisons:
    def test_zero_weights_balanced_per_pair(self, rng):
        fm = FeatureMatrix(rng.normal(size=(3, 4)))
        sel = realize(SelectionSpec.full(), fm)
        data = sample_comparisons(sel, np.zeros(3), 100_000, seed=4)
        for i, j, wins, total in zip(*count_lists(data)):
            assert abs(wins / total - 0.5) <= 0.02, (i, j)

    def test_deterministic(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 6)))
        sel = realize(SelectionSpec.top_t(1), fm)
        a = sample_comparisons(sel, np.ones(2), 500, seed=9)
        b = sample_comparisons(sel, np.ones(2), 500, seed=9)
        for name in ("pair_i", "pair_j", "wins", "total"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("bad", [100.0, True, "100"])
    def test_m_must_be_an_integer(self, bad):
        sel = realize(SelectionSpec.full(), fm_from_columns([0.0], [1.0]))
        with pytest.raises(PreconditionError, match="m must be an integer >= 1"):
            sample_comparisons(sel, np.ones(1), bad, seed=0)

    def test_m_beyond_the_count_range_is_refused(self):
        sel = realize(SelectionSpec.full(), fm_from_columns([0.0], [1.0]))
        with pytest.raises(PreconditionError, match="m must be at most"):
            sample_comparisons(sel, np.ones(1), 2**63, seed=0)

    @pytest.mark.parametrize("bad", [True, 1.5, -1, "3"])
    def test_seed_must_be_an_integer(self, bad):
        # True used to run as seed 1; the others escaped as numpy errors
        sel = realize(SelectionSpec.full(), fm_from_columns([0.0], [1.0]))
        with pytest.raises(PreconditionError, match="seed must be an integer >= 0"):
            sample_comparisons(sel, np.ones(1), 100, seed=bad)

    def test_strong_preference_dominates(self):
        fm = fm_from_columns([0.0], [1.0])
        sel = realize(SelectionSpec.full(), fm)
        data = sample_comparisons(sel, np.array([10.0]), 10_000, seed=0)
        # stored pair is (0, 1); item 1 wins nearly always, so item 0 almost never
        assert data.wins.sum() / len(data) <= 0.001


def win_probs(sel, w, ii, jj):
    """P(ii beats jj) under the model, straight from the logistic formula."""
    return 1.0 / (1.0 + np.exp(-(sel.rows(ii, jj) @ w)))


def wilson_hilferty_z(stat, df):
    """The normal score of a chi-square statistic with ``df`` degrees of freedom."""
    return ((stat / df) ** (1 / 3) - (1 - 2 / (9 * df))) / np.sqrt(2 / (9 * df))


class TestSampleComparisonsBlocks:
    """Binomial splits of the pair index into blocks: the draw against its
    oracle, its distribution and its memory."""

    SPECS = (
        SelectionSpec.full(),
        SelectionSpec.top_t(2),
        SelectionSpec.random_exactly_k(2, 11),
        SelectionSpec.random_bernoulli(0.4, 5),
    )
    W = np.array([1.5, -2.0, 0.7])

    def _check(self, spec, n, m, seed):
        fm = FeatureMatrix(np.random.default_rng(n).normal(size=(3, n)))
        sel = realize(spec, fm)
        data = sample_comparisons(sel, self.W, m, seed)
        want = oracles.sample_comparisons_counts(
            lambda ii, jj: win_probs(sel, self.W, ii, jj), n, m, seed)
        assert count_lists(data) == want, (spec, n, m, seed)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("b", [1, 7, 4096, None])
    def test_counts_match_one_call_draws(self, b, spec):
        # m straddles the scale b (None stands for 2**16): 1, b - 1, b, b + 1, 3b + 5
        b = 2**16 if b is None else b
        for seed in (0, 2**40 + 3):
            for n in (2, 3, 60):
                for m in sorted({1, b - 1, b, b + 1, 3 * b + 5} - {0}):
                    self._check(spec, n, m, seed)
            # far more pairs than draws
            self._check(spec, 3000, 50, seed)

    @pytest.mark.parametrize("n, m, seeds", [(12, 3300, 40), (40, 780, 40), (40, 30, 400)])
    def test_totals_are_uniform_over_pairs(self, n, m, seeds):
        # pooled over seeds the totals are Multinomial(seeds * m, uniform)
        sel = realize(SelectionSpec.full(), FeatureMatrix(np.random.default_rng(1).normal(size=(2, n))))
        npairs = n * (n - 1) // 2
        pooled = np.zeros(npairs)
        for seed in range(seeds):
            data = sample_comparisons(sel, np.ones(2), m, seed)
            pooled[pair_index(data.pair_i, data.pair_j, n)] += data.total
        expected = seeds * m / npairs
        stat = float(((pooled - expected) ** 2).sum() / expected)
        assert abs(wilson_hilferty_z(stat, npairs - 1)) <= 4.0, stat

    def test_wins_are_binomial_in_the_total(self):
        rng = np.random.default_rng(8)
        fm, sel = make_instance(rng, 3, 30, SelectionSpec.top_t(2))
        w = rng.normal(size=3) * 2
        excess = variance = 0.0
        for seed in range(20):
            data = sample_comparisons(sel, w, 20_000, seed)
            p = win_probs(sel, w, data.pair_i, data.pair_j)
            excess += float((data.wins - data.total * p).sum())
            variance += float((data.total * p * (1 - p)).sum())
        assert abs(excess / np.sqrt(variance)) <= 4.0, excess

    def test_huge_m_over_few_pairs(self):
        # 10**12 comparisons over 6 pairs cost a few dozen binomial draws
        sel = realize(SelectionSpec.full(), fm_from_columns([0.0, 1.0], [1.0, 0.5], [0.3, -1.0], [2.0, 0.0]))
        w = np.array([0.8, -0.4])
        m = 10**12
        data = sample_comparisons(sel, w, m, seed=3)
        assert len(data) == m
        assert data.total.size == 6
        assert np.abs(data.total - m / 6).max() <= 10 * np.sqrt(m * (1 / 6) * (5 / 6))
        p = win_probs(sel, w, data.pair_i, data.pair_j)
        sd = np.sqrt(data.total * p * (1 - p))
        assert np.all(np.abs(data.wins - data.total * p) <= 10 * sd)

    def test_memory_follows_the_draws_not_the_pairs(self):
        # C(8000, 2) int64 counts would be 256 MB; 20,000 draws need a few MB
        fm = FeatureMatrix(np.random.default_rng(3).normal(size=(3, 8000)))
        sel = realize(SelectionSpec.top_t(2), fm)
        w = np.random.default_rng(4).normal(size=3)
        data, peak = traced_peak(lambda: sample_comparisons(sel, w, 20_000, seed=5))
        assert len(data) == 20_000
        assert peak <= 32e6

    def test_memory_does_not_grow_with_m(self):
        fm = FeatureMatrix(np.random.default_rng(3).normal(size=(10, 100)))
        sel = realize(SelectionSpec.top_t(2), fm)
        w = np.random.default_rng(4).normal(size=10)
        data, peak = traced_peak(lambda: sample_comparisons(sel, w, 1_000_000, seed=5))
        assert len(data) == 1_000_000
        assert data.total.size == 4950
        assert peak <= 4e6

    @pytest.mark.parametrize(
        "spec", [SelectionSpec.random_exactly_k(8, 8), SelectionSpec.top_t(2)], ids=lambda s: s.kind
    )
    def test_memory_stays_below_the_drawn_pairs_table(self, spec):
        # m = 10^6 draws every one of the 79,800 pairs; their masked
        # difference table would be 30.6 MB, and the sampler holds half of it
        d, n = 48, 400
        fm = FeatureMatrix(np.random.default_rng(3).normal(size=(d, n)))
        sel = realize(spec, fm)
        w = np.random.default_rng(4).normal(size=d)
        data, peak = traced_peak(lambda: sample_comparisons(sel, w, 1_000_000, seed=5))
        assert data.total.size == n * (n - 1) // 2
        assert peak <= data.total.size * d * 8 / 2


class TestNll:
    def test_single_sample_at_zero_margin(self):
        fm = fm_from_columns([1.0], [0.0])
        sel = realize(SelectionSpec.full(), fm)
        data = single_pair_dataset([(0, 1, 1)], 2)
        assert nll(sel, np.zeros(1), data) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_large_margin_tail(self):
        fm = fm_from_columns([0.0], [50.0])
        sel = realize(SelectionSpec.full(), fm)
        data = single_pair_dataset([(0, 1, 1)], 2)  # y = 1 with margin u = 50
        # softplus(50) - 50, frozen from a 50-digit evaluation
        assert nll(sel, np.array([-1.0]), data) == pytest.approx(
            SOFTPLUS_50_TAIL, rel=1e-12
        )

    def test_zero_weights_give_m_log_two(self, rng):
        fm, sel = make_instance(rng, 4, 9)
        data = sample_comparisons(sel, rng.normal(size=4), 57, seed=3)
        assert nll(sel, np.zeros(4), data) == pytest.approx(
            57 * np.log(2.0), rel=1e-12
        )

    def test_ridge_term(self, rng):
        fm, sel = make_instance(rng, 3, 5)
        data = sample_comparisons(sel, np.zeros(3), 11, seed=1)
        w = rng.normal(size=3)
        assert nll(sel, w, data, mu=2.5) == pytest.approx(
            nll(sel, w, data) + 2.5 * w @ w, rel=1e-12
        )

    def test_negative_ridge_rejected(self, rng):
        # the same rule and message as fit: mu finite and >= 0
        fm, sel = make_instance(rng, 2, 4)
        data = sample_comparisons(sel, np.zeros(2), 5, seed=1)
        for mu in (-0.1, np.nan, np.inf):
            with pytest.raises(PreconditionError, match="mu must be finite and >= 0"):
                nll(sel, np.zeros(2), data, mu=mu)

    def test_non_real_ridge_rejected(self, rng):
        # SelectionSpec's rule for p: a real number, never a bool or a string
        fm, sel = make_instance(rng, 2, 4)
        data = sample_comparisons(sel, np.zeros(2), 5, seed=1)
        for mu in (True, False, "0.1", None, 1j):
            with pytest.raises(PreconditionError, match="mu must be a real number"):
                nll(sel, np.zeros(2), data, mu=mu)
        # numpy scalars and integers are real numbers
        for mu in (np.float32(0.5), np.int64(2), 3):
            assert nll(sel, np.ones(2), data, mu=mu) == nll(sel, np.ones(2), data, mu=float(mu))

    def test_convexity(self, rng):
        for _ in range(30):
            d = int(rng.integers(1, 5))
            fm, sel = make_instance(rng, d, int(rng.integers(2, 7)))
            data = sample_comparisons(sel, rng.normal(size=d), 40, seed=7)
            w1 = rng.normal(size=d) * 3
            w2 = rng.normal(size=d) * 3
            alpha = float(rng.uniform(0.05, 0.95))
            mid = nll(sel, alpha * w1 + (1 - alpha) * w2, data)
            chord = alpha * nll(sel, w1, data) + (1 - alpha) * nll(sel, w2, data)
            assert mid <= chord + 1e-12


class TestGradient:
    def test_single_sample_at_zero(self):
        fm = fm_from_columns([1.0, 0.0], [0.0, 0.0])
        sel = realize(SelectionSpec.full(), fm)
        data = single_pair_dataset([(0, 1, 1)], 2)
        np.testing.assert_allclose(
            gradient(sel, np.zeros(2), data), [-0.5, 0.0], atol=1e-15
        )

    def test_balanced_labels_cancel(self):
        fm = fm_from_columns([1.0, 2.0], [0.0, 0.0])
        sel = realize(SelectionSpec.full(), fm)
        data = single_pair_dataset([(0, 1, 1), (0, 1, 0)], 2)
        np.testing.assert_allclose(
            gradient(sel, np.zeros(2), data), [0.0, 0.0], atol=1e-15
        )

    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 7))
            fm, sel = make_instance(rng, d, int(rng.integers(2, 9)))
            data = sample_comparisons(sel, rng.normal(size=d), 25, seed=5)
            w = rng.normal(size=d)
            mu = float(rng.uniform(0, 0.5))
            got = gradient(sel, w, data, mu)
            want = oracles.fd_gradient(lambda v: nll(sel, v, data, mu), w)
            assert np.linalg.norm(got - want) <= 1e-5 * max(1.0, np.linalg.norm(want))


class TestHessian:
    def test_single_sample_at_zero(self):
        fm = fm_from_columns([1.0, 0.0], [0.0, 0.0])
        sel = realize(SelectionSpec.full(), fm)
        data = single_pair_dataset([(0, 1, 1)], 2)
        np.testing.assert_allclose(
            hessian(sel, np.zeros(2), data),
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
            data = sample_comparisons(sel, rng.normal(size=d), 30, seed=2)
            H = hessian(sel, rng.normal(size=d), data, mu=0.0)
            np.testing.assert_allclose(H, H.T, atol=1e-14)
            assert np.linalg.eigvalsh(H)[0] >= -1e-10

    def test_matches_gradient_differences(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 7))
            fm, sel = make_instance(rng, d, int(rng.integers(2, 9)))
            data = sample_comparisons(sel, rng.normal(size=d), 25, seed=8)
            w = rng.normal(size=d)
            mu = float(rng.uniform(0, 0.5))
            got = hessian(sel, w, data, mu)
            want = oracles.fd_hessian(
                lambda v: gradient(sel, v, data, mu), w
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
            ii, jj = np.triu_indices(n, k=1)
            P = np.zeros((n, n))
            P[ii, jj] = all_pair_probabilities(sel, w)
            P[jj, ii] = all_pair_probabilities(sel, -w)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        if len({i, j, k}) < 3:
                            continue
                        pij, pjk, pik = P[i, j], P[j, k], P[i, k]
                        if pij >= 0.5 and pjk >= 0.5:
                            assert pik >= max(pij, pjk) - 1e-12
