import numpy as np
import pytest

import oracles
from conftest import all_rows, count_lists, make_instance
from salientpref import _kernels, estimator
from salientpref import (
    ComparisonDataset,
    FeatureMatrix,
    NumericalFailureError,
    PreconditionError,
    SelectionSpec,
    fit,
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
    wins = all_rows(sel)[pick] @ w > 0
    records = [(int(a), int(b), int(y)) for a, b, y in zip(ii[pick], jj[pick], wins)]
    return fm, sel, ComparisonDataset.from_records(records, 30)


def stopped_fit(reason, rng, monkeypatch):
    """A fit that stops for ``reason``: capped at one Newton step, stalled by
    an objective that is infinite away from the start, or separated."""
    if reason == "separated":
        return separable_instance(0)[1:]
    fm, sel = make_instance(rng, 3, 7, spec=SelectionSpec.full())
    data = sample_comparisons(sel, rng.normal(size=3), 400, seed=4)
    if reason == "max_iters":
        monkeypatch.setattr(estimator, "_MAX_ITERS", 1)
    elif reason == "stalled":
        real = _kernels.nll_value
        monkeypatch.setattr(
            _kernels, "nll_value",
            lambda X, t, y, w, mu: np.inf if w.any() else real(X, t, y, w, mu),
        )
    return sel, data


class TestFit:
    def test_balanced_pair_stays_at_zero(self):
        fm = fm_from_columns([1.0, -2.0], [0.0, 0.0])
        sel = realize(SelectionSpec.full(), fm)
        data = ComparisonDataset.from_records([(0, 1, 1), (0, 1, 0)] * 4, 2)
        res = fit(sel, data)
        assert res.converged
        np.testing.assert_array_equal(res.w_hat, np.zeros(2))
        assert res.final_grad_norm <= 1e-8

    def test_huge_ridge_crushes_weights(self, rng):
        fm, sel = make_instance(rng, 3, 6, spec=SelectionSpec.full())
        data = sample_comparisons(sel, rng.normal(size=3), 200, seed=2)
        res = fit(sel, data, mu=1e8)
        assert res.converged
        assert np.linalg.norm(res.w_hat) <= 1e-4

    def test_deterministic(self, rng):
        fm, sel = make_instance(rng, 4, 8, spec=SelectionSpec.top_t(2))
        data = sample_comparisons(sel, rng.normal(size=4), 300, seed=5)
        a = fit(sel, data)
        b = fit(sel, data)
        np.testing.assert_array_equal(a.w_hat, b.w_hat)
        assert a.iterations == b.iterations

    def test_objective_monotone(self, rng):
        fm, sel = make_instance(rng, 5, 10, spec=SelectionSpec.full())
        data = sample_comparisons(sel, rng.normal(size=5) * 2, 400, seed=6)
        objectives = np.array([record[0] for record in fit(sel, data).history])
        # nonincreasing up to the line search's machine-precision slack
        assert np.all(np.diff(objectives) <= 1e-12 * (1.0 + np.abs(objectives[:-1])))

    def test_beats_reference_vectors(self, rng):
        for _ in range(5):
            d = int(rng.integers(1, 6))
            fm, sel = make_instance(rng, d, int(rng.integers(3, 9)))
            w_star = rng.normal(size=d)
            data = sample_comparisons(sel, w_star, 500, seed=11)
            res = fit(sel, data)
            best = nll(sel, res.w_hat, data)
            assert best <= nll(sel, w_star, data) + 1e-9
            assert best <= nll(sel, np.zeros(d), data) + 1e-9

    def test_nonconvergence_reported_not_raised(self, rng, monkeypatch):
        fm, sel = make_instance(rng, 3, 7, spec=SelectionSpec.full())
        data = sample_comparisons(sel, rng.normal(size=3) * 3, 400, seed=4)
        monkeypatch.setattr(estimator, "_MAX_ITERS", 1)
        res = fit(sel, data)
        assert not res.converged
        assert res.iterations == 1

    def test_overflowing_design_raises(self):
        # finite features whose difference 1e308 - (-1e308) overflows to inf
        fm = FeatureMatrix(np.array([[1e308, -1e308, 0.0]]))
        sel = realize(SelectionSpec.full(), fm)
        data = ComparisonDataset.from_records([(0, 1, 1), (1, 2, 0)], 3)
        with np.errstate(over="ignore"), pytest.raises(
            NumericalFailureError, match="design second moment"
        ):
            fit(sel, data)

    def test_empty_dataset_rejected(self, rng):
        fm, sel = make_instance(rng, 2, 4, spec=SelectionSpec.full())
        empty = ComparisonDataset.from_records([], 4)
        with pytest.raises(PreconditionError):
            fit(sel, empty)

    def test_bad_config_rejected(self, rng, monkeypatch):
        fm, sel = make_instance(rng, 2, 4, spec=SelectionSpec.full())
        data = sample_comparisons(sel, np.zeros(2), 20, seed=1)
        # both are checked before the design matrix is built
        monkeypatch.setattr(estimator, "design_matrix", None)
        for bad in (
            {"mu": -1.0}, {"mu": float("nan")}, {"mu": float("inf")},
            {"tol_grad": 0.0}, {"tol_grad": float("nan")}, {"tol_grad": float("inf")},
        ):
            with pytest.raises(PreconditionError, match=next(iter(bad))):
                fit(sel, data, **bad)

    @pytest.mark.parametrize("name", ["mu", "tol_grad"])
    @pytest.mark.parametrize("value", [True, False, "0.1", None, 1j])
    def test_non_real_config_rejected(self, rng, monkeypatch, name, value):
        # SelectionSpec's rule for p: a bool is not taken as 1.0 or 0.0, and a
        # string raises PreconditionError rather than a bare TypeError
        fm, sel = make_instance(rng, 2, 4, spec=SelectionSpec.full())
        data = sample_comparisons(sel, np.zeros(2), 20, seed=1)
        monkeypatch.setattr(estimator, "design_matrix", None)
        with pytest.raises(PreconditionError, match=f"{name} must be a real number"):
            fit(sel, data, **{name: value})

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
            data = sample_comparisons(sel, w_star, 50_000, seed=trial)
            res = fit(sel, data)
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
        data = sample_comparisons(sel, w_star, 2000, seed=9)
        res = fit(sel, data, tol_grad=1e-3)
        assert res.history[-1][0] < res.history[0][0]
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
        data = sample_comparisons(sel, w_star, 50_000, seed=1)
        res = fit(sel, data)
        assert res.converged and res.stop_reason == "converged"
        assert res.final_grad_norm <= 1e-8
        assert res.iterations <= 20

    def test_stop_reasons(self, rng, monkeypatch):
        for reason in ("converged", "max_iters", "stalled"):
            res = fit(*stopped_fit(reason, rng, monkeypatch))
            assert res.to_dict()["stop_reason"] == reason
            assert res.converged == (reason == "converged")
            monkeypatch.undo()
        # the stalled fit never left the start
        assert res.iterations == 1 and not res.w_hat.any()

    def test_counts_and_samples_give_same_fit(self, rng):
        fm, sel = make_instance(rng, 4, 9, spec=SelectionSpec.top_t(2))
        data = sample_comparisons(sel, rng.normal(size=4), 3000, seed=12)
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
        a, b = fit(sel, one_each), fit(sel, counted)
        assert a.converged and b.converged
        np.testing.assert_allclose(a.w_hat, b.w_hat, rtol=1e-12, atol=0.0)
        # and the per-sample Newton oracle, on one design row per comparison
        want = oracles.logistic_newton(*per_sample(fm, SelectionSpec.top_t(2), data))
        np.testing.assert_allclose(b.w_hat, want, rtol=1e-10, atol=1e-12)


class TestHistory:
    """``history``: one (objective, grad_norm, step, backtracks) record per
    iterate, from the zero start to the returned one."""

    @pytest.mark.parametrize("reason", ["converged", "max_iters", "stalled", "separated"])
    def test_records_run_from_the_start_to_the_result(self, reason, rng, monkeypatch):
        sel, data = stopped_fit(reason, rng, monkeypatch)
        res = fit(sel, data)
        assert res.stop_reason == reason
        assert res.history == fit(sel, data).history
        assert "history" not in res.to_dict()
        assert all(
            [type(v) for v in record] == [float, float, float, int] for record in res.history
        )
        objective, grad_norm, step, backtracks = res.history[0]
        assert objective == pytest.approx(np.log(2.0) * data.total.sum(), rel=1e-12)
        assert (step, backtracks) == (0.0, 0)
        assert res.history[-1][:2] == (res.final_objective, res.final_grad_norm)
        objectives = np.array([record[0] for record in res.history])
        assert np.all(np.diff(objectives) <= 1e-12 * (1.0 + np.abs(objectives[:-1])))
        # a stalled step is attempted but never reached, so it has no record
        accepted = res.iterations - (reason == "stalled")
        assert len(res.history) == accepted + 1
        assert all(record[2] > 0.0 for record in res.history[1:])

    def test_step_is_the_length_of_the_move(self, rng, monkeypatch):
        sel, data = stopped_fit("max_iters", rng, monkeypatch)
        res = fit(sel, data)
        assert res.history[1][2] == pytest.approx(np.linalg.norm(res.w_hat), rel=1e-12)

    def test_backtracks_are_counted(self, rng, monkeypatch):
        # an objective that is infinite beyond |w| = 1e-3 rejects full steps
        fm, sel = make_instance(rng, 3, 7, spec=SelectionSpec.full())
        data = sample_comparisons(sel, rng.normal(size=3) * 3, 400, seed=4)
        real = _kernels.nll_value
        monkeypatch.setattr(
            _kernels, "nll_value",
            lambda X, t, y, w, mu: np.inf if np.linalg.norm(w) > 1e-3 else real(X, t, y, w, mu),
        )
        monkeypatch.setattr(estimator, "_MAX_ITERS", 1)
        res = fit(sel, data)
        (_, _, step, backtracks) = res.history[1]
        assert backtracks > 0 and step <= 1e-3


class TestDegenerateData:
    """Designs that leave w partly unobserved, and data that no finite w
    fits best: the fit says which, in a few Newton steps."""

    @pytest.mark.parametrize(
        "rotate, spec", [(False, SelectionSpec.top_t(2)), (True, SelectionSpec.full())]
    )
    def test_rank_deficient_design_converges_on_its_span(self, rotate, spec):
        fm, w_star, null = rank4_features(rotate)
        sel = realize(spec, fm)
        data = sample_comparisons(sel, w_star, 3000, seed=1)
        res = fit(sel, data)
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
        res = fit(sel, data)
        assert res.stop_reason == "separated" and not res.converged
        assert res.to_dict()["stop_reason"] == "separated"
        # the fitted direction certifies it: the objective keeps falling
        v = res.w_hat / np.linalg.norm(res.w_hat)
        along = [nll(sel, t * v, data) for t in np.logspace(0, 3, 61)]
        assert np.all(np.diff(along) <= 0.0)

    def test_ridge_skips_the_separation_test(self):
        fm, sel, data = separable_instance(0)
        res = fit(sel, data, mu=1e-3)
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
            res = fit(sel, ComparisonDataset.from_records(records, fm.n))
            assert res.data_rank == sample_complexity_report(sel).rank
            assert res.to_dict()["data_rank"] == res.data_rank


class TestMarginBand:
    """A certificate's ``b_star`` is the widest |<w, masked difference>| over
    pairs."""

    def test_zero_weights_always_inside(self, rng):
        fm, sel = make_instance(rng, 3, 5)
        assert sample_complexity_report(sel, w_star=np.zeros(3)).b_star == 0.0

    def test_own_margin_is_inside(self, rng):
        for spec in (SelectionSpec.full(), SelectionSpec.top_t(2),
                     SelectionSpec.random_exactly_k(2, 5)):
            fm, sel = make_instance(rng, 4, 6, spec)
            w = rng.normal(size=4)
            _, table = oracles.masked_diff_table(fm.matrix, spec.to_dict())
            assert sample_complexity_report(sel, w_star=w).b_star == pytest.approx(
                np.abs(table @ w).max(), rel=1e-12
            )
