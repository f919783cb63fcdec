import numpy as np
import pytest

import oracles
from conftest import count_lists, make_instance
from salientpref import _kernels
from salientpref import (
    ComparisonDataset,
    FeatureMatrix,
    FitConfig,
    NumericalFailureError,
    PreconditionError,
    SelectionSpec,
    fit,
    max_abs_margin,
    nll,
    realize,
    sample_comparisons,
    sample_complexity_report,
)
from salientpref.selection import all_pairs


def fm_from_columns(*cols):
    return FeatureMatrix(np.column_stack([np.asarray(c, float) for c in cols]))


def per_sample(fm, spec, data):
    """One oracle design row and one 0/1 outcome per comparison."""
    _, table = oracles.masked_diff_table(fm.matrix, spec.to_dict())
    n = fm.n
    rows, y = [], []
    for a, b, wins, total in zip(*count_lists(data)):
        rows += [table[a * (2 * n - a - 1) // 2 + (b - a - 1)]] * total
        y += [1.0] * wins + [0.0] * (total - wins)
    return np.array(rows), np.array(y)


def rank4_features(rotate):
    """d=5, n=30 features whose coordinate 0 is constant, so no pair's
    difference has a component there; ``rotate`` turns that unobserved
    direction into a random unit vector, returned alongside."""
    gen = np.random.default_rng(0)
    U = gen.normal(0.0, 1.0 / np.sqrt(5), size=(5, 30))
    U[0] = 0.3
    R = np.linalg.qr(gen.normal(size=(5, 5)))[0] if rotate else np.eye(5)
    return FeatureMatrix(R @ U), gen.normal(size=5), R[:, 0]


def separable_instance(seed):
    """200 single-count pairs (d=5, n=30, top_t(2)) whose outcomes follow
    sign(<w, x>): the likelihood keeps rising along w, so no MLE exists."""
    gen = np.random.default_rng(seed)
    fm = FeatureMatrix(gen.normal(0.0, 1.0 / np.sqrt(5), size=(5, 30)))
    sel = realize(SelectionSpec.top_t(2), fm)
    w = gen.normal(size=5)
    ii, jj = all_pairs(30)
    pick = np.sort(gen.choice(ii.size, 200, replace=False))
    wins = sel.diff_table()[pick] @ w > 0
    records = [(int(a), int(b), int(y)) for a, b, y in zip(ii[pick], jj[pick], wins)]
    return fm, sel, ComparisonDataset.from_records(records, 30)


class TestFit:
    def test_balanced_pair_stays_at_zero(self):
        fm = fm_from_columns([1.0, -2.0], [0.0, 0.0])
        sel = realize(SelectionSpec.full(), fm)
        data = ComparisonDataset.from_records([(0, 1, 1), (0, 1, 0)] * 4, 2)
        res = fit(fm, sel, data)
        assert res.converged
        np.testing.assert_array_equal(res.w_hat, np.zeros(2))
        assert res.final_grad_norm <= 1e-8

    def test_huge_ridge_crushes_weights(self, rng):
        fm, sel = make_instance(rng, 3, 6, spec=SelectionSpec.full())
        data = sample_comparisons(fm, rng.normal(size=3), sel, 200, seed=2)
        res = fit(fm, sel, data, FitConfig(mu=1e8))
        assert res.converged
        assert np.linalg.norm(res.w_hat) <= 1e-4

    def test_deterministic(self, rng):
        fm, sel = make_instance(rng, 4, 8, spec=SelectionSpec.top_t(2))
        data = sample_comparisons(fm, rng.normal(size=4), sel, 300, seed=5)
        a = fit(fm, sel, data)
        b = fit(fm, sel, data)
        np.testing.assert_array_equal(a.w_hat, b.w_hat)
        assert a.iterations == b.iterations

    def test_objective_monotone(self, rng):
        fm, sel = make_instance(rng, 5, 10, spec=SelectionSpec.full())
        data = sample_comparisons(fm, rng.normal(size=5) * 2, sel, 400, seed=6)
        trace: list = []
        fit(fm, sel, data, trace=trace)
        trace = np.array(trace)
        # nonincreasing up to the line search's machine-precision slack
        assert np.all(np.diff(trace) <= 1e-12 * (1.0 + np.abs(trace[:-1])))

    def test_beats_reference_vectors(self, rng):
        for _ in range(5):
            d = int(rng.integers(1, 6))
            fm, sel = make_instance(rng, d, int(rng.integers(3, 9)))
            w_star = rng.normal(size=d)
            data = sample_comparisons(fm, w_star, sel, 500, seed=11)
            res = fit(fm, sel, data)
            best = nll(fm, res.w_hat, sel, data)
            assert best <= nll(fm, w_star, sel, data) + 1e-9
            assert best <= nll(fm, np.zeros(d), sel, data) + 1e-9

    def test_given_init_same_optimum(self, rng):
        fm, sel = make_instance(rng, 3, 7, spec=SelectionSpec.full())
        data = sample_comparisons(fm, rng.normal(size=3), sel, 400, seed=3)
        a = fit(fm, sel, data)
        b = fit(fm, sel, data, FitConfig(init=rng.normal(size=3)))
        assert a.converged and b.converged
        np.testing.assert_allclose(a.w_hat, b.w_hat, atol=1e-7)

    def test_nonconvergence_reported_not_raised(self, rng):
        fm, sel = make_instance(rng, 3, 7, spec=SelectionSpec.full())
        data = sample_comparisons(fm, rng.normal(size=3) * 3, sel, 400, seed=4)
        res = fit(fm, sel, data, FitConfig(max_iters=1))
        assert not res.converged
        assert res.iterations == 1

    def test_nan_init_raises(self, rng):
        fm, sel = make_instance(rng, 2, 4, spec=SelectionSpec.full())
        data = sample_comparisons(fm, np.zeros(2), sel, 20, seed=1)
        with pytest.raises(NumericalFailureError):
            fit(fm, sel, data, FitConfig(init=np.array([1e308, 1e308])))

    def test_empty_dataset_rejected(self, rng):
        fm, sel = make_instance(rng, 2, 4, spec=SelectionSpec.full())
        empty = ComparisonDataset.from_records([], 4)
        with pytest.raises(PreconditionError):
            fit(fm, sel, empty)

    def test_bad_config_rejected(self):
        for bad in (
            {"mu": -1.0}, {"mu": float("nan")}, {"mu": float("inf")},
            {"tol_grad": 0.0}, {"tol_grad": float("nan")}, {"tol_grad": float("inf")},
            {"max_iters": 0},
        ):
            with pytest.raises(PreconditionError):
                FitConfig(**bad)

    def test_synthetic_recovery(self, rng):
        # d=5, n=40, full selection, m=50k: the estimate lands within 0.1 of
        # the truth in at least 18 of 20 seeded trials
        hits = 0
        master = np.random.default_rng(77)
        for trial in range(20):
            gen = np.random.default_rng(master.integers(1 << 63))
            fm = FeatureMatrix(gen.normal(0.0, 1.0 / np.sqrt(5), size=(5, 40)))
            w_star = gen.normal(0.0, 1.0 / np.sqrt(5), size=5)
            sel = realize(SelectionSpec.full(), fm)
            data = sample_comparisons(fm, w_star, sel, 50_000, seed=trial)
            res = fit(fm, sel, data)
            assert res.converged
            if np.linalg.norm(res.w_hat - w_star) <= 0.1:
                hits += 1
        assert hits >= 18

    def test_newton_converges_on_wide_problem(self, rng):
        # wide problem (d=70): the objective falls and the fit converges
        d, n = 70, 80
        fm = FeatureMatrix(rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, n)))
        sel = realize(SelectionSpec.full(), fm)
        w_star = rng.normal(0.0, 1.0 / np.sqrt(d), size=d)
        data = sample_comparisons(fm, w_star, sel, 2000, seed=9)
        trace: list = []
        res = fit(fm, sel, data, FitConfig(tol_grad=1e-3, max_iters=4000), trace=trace)
        assert trace[-1] < trace[0]
        assert res.converged
        assert res.final_grad_norm <= 1e-3

    def test_newton_converges_at_wide_d(self):
        # d=80 is beyond where a gradient-descent fallback used to take over
        # (and stop unconverged after 5000 iterations); Newton needs a few
        gen = np.random.default_rng(80)
        d, n = 80, 100
        fm = FeatureMatrix(gen.normal(0.0, 1.0 / np.sqrt(d), size=(d, n)))
        sel = realize(SelectionSpec.full(), fm)
        w_star = gen.normal(0.0, 1.0 / np.sqrt(d), size=d)
        data = sample_comparisons(fm, w_star, sel, 50_000, seed=1)
        res = fit(fm, sel, data)
        assert res.converged and res.stop_reason == "converged"
        assert res.final_grad_norm <= FitConfig().tol_grad
        assert res.iterations <= 20

    def test_stop_reasons(self, rng, monkeypatch):
        fm, sel = make_instance(rng, 3, 7, spec=SelectionSpec.full())
        data = sample_comparisons(fm, rng.normal(size=3), sel, 400, seed=4)
        assert fit(fm, sel, data).to_dict()["stop_reason"] == "converged"
        capped = fit(fm, sel, data, FitConfig(max_iters=1))
        assert capped.stop_reason == "max_iters" and not capped.converged
        # an objective that is infinite away from the start passes no line search
        real = _kernels.nll_value
        monkeypatch.setattr(
            _kernels, "nll_value", lambda X, t, y, w, mu: np.inf if w.any() else real(X, t, y, w, mu)
        )
        stuck = fit(fm, sel, data)
        assert stuck.stop_reason == "stalled" and not stuck.converged
        assert stuck.iterations == 1 and not stuck.w_hat.any()

    def test_counts_and_samples_give_same_fit(self, rng):
        fm, sel = make_instance(rng, 4, 9, spec=SelectionSpec.top_t(2))
        data = sample_comparisons(fm, rng.normal(size=4), sel, 3000, seed=12)
        # each pair's wins, then its losses
        records = [
            record
            for a, b, wins, total in zip(*count_lists(data))
            for record in [(a, b, 1)] * wins + [(a, b, 0)] * (total - wins)
        ]
        order = rng.permutation(len(records))
        # one record per comparison, shuffled, half of them stated as (j, i)
        shuffled = [
            (b, a, 1 - yy) if k % 2 else (a, b, yy)
            for k, (a, b, yy) in enumerate(records[r] for r in order)
        ]
        one_each = ComparisonDataset.from_records(shuffled, 9)
        counted = ComparisonDataset(data.pair_i, data.pair_j, data.wins, data.total, 9)
        a, b = fit(fm, sel, one_each), fit(fm, sel, counted)
        assert a.converged and b.converged
        np.testing.assert_allclose(a.w_hat, b.w_hat, rtol=1e-12, atol=0.0)
        # and the per-sample Newton oracle, on one design row per comparison
        want = oracles.logistic_newton(*per_sample(fm, SelectionSpec.top_t(2), data))
        np.testing.assert_allclose(b.w_hat, want, rtol=1e-10, atol=1e-12)


class TestDegenerateData:
    """Designs that leave w partly unobserved, and data that no finite w
    fits best: the fit says which, in a few Newton steps."""

    @pytest.mark.parametrize(
        "rotate, spec", [(False, SelectionSpec.top_t(2)), (True, SelectionSpec.full())]
    )
    def test_rank_deficient_design_converges_on_its_span(self, rotate, spec):
        fm, w_star, null = rank4_features(rotate)
        sel = realize(spec, fm)
        data = sample_comparisons(fm, w_star, sel, 3000, seed=1)
        res = fit(fm, sel, data)
        assert res.converged and res.iterations <= 10
        assert res.data_rank == 4
        if not rotate:
            assert res.w_hat[0] == 0.0
        assert abs(res.w_hat @ null) <= 1e-12 * np.linalg.norm(res.w_hat)
        want = oracles.logistic_newton_on_span(*per_sample(fm, spec, data))
        np.testing.assert_allclose(res.w_hat, want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_separated_data_reported(self, seed):
        fm, sel, data = separable_instance(seed)
        res = fit(fm, sel, data)
        assert res.stop_reason == "separated" and not res.converged
        assert res.to_dict()["stop_reason"] == "separated"
        # the fitted direction certifies it: the objective keeps falling
        v = res.w_hat / np.linalg.norm(res.w_hat)
        along = [nll(fm, t * v, sel, data) for t in np.logspace(0, 3, 61)]
        assert np.all(np.diff(along) <= 0.0)

    def test_ridge_skips_the_separation_test(self):
        fm, sel, data = separable_instance(0)
        res = fit(fm, sel, data, FitConfig(mu=1e-3))
        assert res.converged and np.linalg.norm(res.w_hat) < 100

    @pytest.mark.parametrize(
        "spec",
        [SelectionSpec.full(), SelectionSpec.top_t(1), SelectionSpec.top_t(2),
         SelectionSpec.random_exactly_k(2, 5)],
    )
    def test_data_rank_is_certificate_rank_when_every_pair_is_observed(self, spec):
        for fm in (rank4_features(False)[0], FeatureMatrix(
                np.random.default_rng(3).normal(size=(5, 30)))):
            sel = realize(spec, fm)
            ii, jj = all_pairs(fm.n)
            records = [(int(a), int(b), k % 2) for k, (a, b) in enumerate(zip(ii, jj))]
            res = fit(fm, sel, ComparisonDataset.from_records(records, fm.n))
            assert res.data_rank == sample_complexity_report(fm, sel).rank
            assert res.to_dict()["data_rank"] == res.data_rank


class TestMarginBand:
    """``max_abs_margin`` is the widest |<w, masked difference>| over pairs."""

    def test_zero_weights_always_inside(self, rng):
        fm, sel = make_instance(rng, 3, 5)
        assert max_abs_margin(fm, sel, np.zeros(3)) == 0.0

    def test_own_margin_is_inside(self, rng):
        for spec in (SelectionSpec.full(), SelectionSpec.top_t(2),
                     SelectionSpec.random_exactly_k(2, 5)):
            fm, sel = make_instance(rng, 4, 6, spec)
            w = rng.normal(size=4)
            _, table = oracles.masked_diff_table(fm.matrix, spec.to_dict())
            assert max_abs_margin(fm, sel, w) == pytest.approx(
                np.abs(table @ w).max(), rel=1e-12
            )
