"""Kernel checks: the count-form likelihood folds against a per-sample
oracle, and the zeta and triple scans against enumeration oracles.
"""

import numpy as np
import pytest

import oracles
from salientpref import _kernels


class TestScalarHelpers:
    def test_sigmoid_range_and_symmetry(self, rng):
        u = rng.uniform(-700, 700, size=1000)
        s = _kernels.sigmoid(u)
        assert np.all((s >= 0.0) & (s <= 1.0))
        np.testing.assert_allclose(s + _kernels.sigmoid(-u), 1.0, atol=1e-15)

    def test_curvature_peak(self):
        assert _kernels.logistic_curvature(0.0) == pytest.approx(0.25)


class TestNllKernels:
    def test_extreme_margins_stay_finite(self, rng):
        X = rng.normal(size=(50, 3)) * 200
        total = rng.integers(1, 6, size=50).astype(np.float64)
        wins = np.floor(rng.random(50) * (total + 1))
        w = np.array([3.0, -2.0, 1.0])
        assert np.isfinite(_kernels.nll_value(X, total, wins, w, 0.0))
        assert np.all(np.isfinite(_kernels.nll_grad(X, total, wins, w, 0.0)))
        assert np.all(np.isfinite(_kernels.nll_hess(X, total, wins, w, 0.0)))

    def test_count_form_matches_expanded_samples(self, rng):
        # every pair expanded into total rows, wins of them labelled 1
        X = rng.normal(size=(40, 4))
        total = rng.integers(1, 9, size=40)
        wins = rng.integers(0, total + 1)
        w = rng.normal(size=4)
        rows = np.repeat(X, total, axis=0)
        y = np.concatenate([[1.0] * a + [0.0] * (t - a) for a, t in zip(wins, total)])
        args = (X, total.astype(float), wins.astype(float), w, 0.3)
        assert _kernels.nll_value(*args) == pytest.approx(
            oracles.logistic_nll(rows, y, w, 0.3), rel=1e-12
        )
        np.testing.assert_allclose(
            _kernels.nll_grad(*args), oracles.logistic_gradient(rows, y, w, 0.3), rtol=1e-12
        )
        np.testing.assert_allclose(
            _kernels.nll_hess(*args), oracles.logistic_hessian(rows, y, w, 0.3), rtol=1e-12
        )


class TestZetaScan:
    def test_matches_oracle(self, rng):
        X = rng.normal(size=(120, 5))
        EZ = X.T @ X / X.shape[0]
        _, _, want, _ = oracles.certificate_quantities(X)
        assert _kernels.zeta_scan(np.linalg.eigh(EZ), X) == pytest.approx(want, rel=1e-10)


class TestTransitivityScan:
    def _dense(self, rng, n):
        probs = rng.random(n * (n - 1) // 2)
        P = np.full((n, n), 0.5)
        ii, jj = np.triu_indices(n, k=1)
        P[ii, jj] = probs
        P[jj, ii] = 1.0 - probs
        present = ~np.eye(n, dtype=bool)
        return P, present, {
            (int(a), int(b)): float(p) for a, b, p in zip(ii, jj, probs)
        }

    def test_matches_enumeration_oracle(self, rng):
        for n in (3, 4, 5, 6):
            P, present, probs = self._dense(rng, n)
            want = oracles.transitivity_counts(probs)
            checked, viol = _kernels.transitivity_scan(P, present)
            got = (
                checked,
                viol.shape[0],
                int(viol[:, 3].sum()),
                int(viol[:, 4].sum()),
            )
            assert got == want

    def test_missing_pairs_respected(self, rng):
        n = 6
        P, present, probs = self._dense(rng, n)
        present[0, 1] = present[1, 0] = False
        del probs[(0, 1)]
        checked, viol = _kernels.transitivity_scan(P, present)
        want = oracles.transitivity_counts(probs)
        assert (checked, viol.shape[0]) == want[:2]
        # no surviving triple may involve the missing pair
        for row in viol:
            assert {0, 1} - set(row[:3].tolist()) != set()

    def test_rows_match_oracle_with_ties_and_gaps(self, rng):
        # exact 0, 1/2 and 1, and few enough values that ties are common
        grid = np.array([0.0, 0.25, 0.5, 0.6, 0.75, 1.0])
        listed = 0
        for trial in range(60):
            n = 3 + trial % 10
            ii, jj = np.triu_indices(n, k=1)
            probs = grid[rng.integers(0, grid.size, ii.size)]
            kept = rng.random(ii.size) >= (0.25 if trial % 2 else 0.0)
            P = np.full((n, n), 0.5)
            P[ii, jj] = probs
            P[jj, ii] = 1.0 - probs
            present = np.zeros((n, n), dtype=bool)
            present[ii[kept], jj[kept]] = present[jj[kept], ii[kept]] = True
            prob_map = {
                (int(a), int(b)): float(p) for a, b, p in zip(ii[kept], jj[kept], probs[kept])
            }
            checked, viol = _kernels.transitivity_scan(P, present)
            assert viol.dtype == np.int64 and viol.shape[1] == 5
            got = [(x, y, z, bool(m), bool(w)) for x, y, z, m, w in viol.tolist()]
            assert got == oracles.transitivity_rows(prob_map)
            assert checked == oracles.transitivity_counts(prob_map)[0]
            listed += len(got)
        assert listed > 0

    @staticmethod
    def _from_map(n, prob_map):
        # as diagnostics builds them: P[j, i] = 1 - P[i, j]
        P = np.full((n, n), 0.5)
        present = np.zeros((n, n), dtype=bool)
        for (a, b), p in prob_map.items():
            P[a, b], P[b, a] = p, 1.0 - p
            present[a, b] = present[b, a] = True
        return P, present

    def _assert_matches_oracle(self, n, prob_map):
        checked, viol = _kernels.transitivity_scan(*self._from_map(n, prob_map))
        assert viol.dtype == np.int64 and viol.shape[1] == 5
        got = [(x, y, z, bool(m), bool(w)) for x, y, z, m, w in viol.tolist()]
        assert got == oracles.transitivity_rows(prob_map)
        assert checked == oracles.transitivity_counts(prob_map)[0]
        return checked, viol

    def test_roundoff_tie_is_no_link(self, rng):
        p = 0.5 - 2.0**-54
        assert p < 0.5 and 1.0 - p == 0.5
        # (0, 1) links neither way, so no orientation of {0, 1, 2} chains
        checked, _ = self._assert_matches_oracle(3, {(0, 1): p, (1, 2): 0.9, (0, 2): 0.9})
        assert checked == 0
        # the same pair in the other direction, and near-ties among other values
        checked, _ = self._assert_matches_oracle(3, {(0, 1): 1.0 - p, (1, 2): 0.9, (0, 2): 0.9})
        assert checked == 0
        grid = np.array([p, 0.5, 0.5 + 2.0**-53, 0.3, 0.7, 0.0, 1.0])
        for trial in range(40):
            n = 3 + trial % 6
            ii, jj = np.triu_indices(n, k=1)
            probs = grid[rng.integers(0, grid.size, ii.size)]
            self._assert_matches_oracle(
                n, {(int(a), int(b)): float(q) for a, b, q in zip(ii, jj, probs)}
            )

    def test_exact_ties_check_nothing(self):
        n = 6
        ii, jj = np.triu_indices(n, k=1)
        checked, viol = self._assert_matches_oracle(
            n, {(int(a), int(b)): 0.5 for a, b in zip(ii, jj)}
        )
        assert checked == 0 and viol.shape == (0, 5)

    def test_sparse_presence_and_items_in_no_pair(self, rng):
        listed = 0
        for trial in range(30):
            n = 12
            ii, jj = np.triu_indices(n, k=1)
            used = rng.random(n) < 0.7  # the other items occur in no pair
            kept = used[ii] & used[jj] & (rng.random(ii.size) < 0.6)
            probs = rng.random(ii.size)
            prob_map = {
                (int(a), int(b)): float(q) for a, b, q in zip(ii[kept], jj[kept], probs[kept])
            }
            listed += len(self._assert_matches_oracle(n, prob_map)[1])
        assert listed > 0

    def test_zero_pairs(self):
        for n in (0, 1, 2, 5):
            checked, viol = _kernels.transitivity_scan(
                np.full((n, n), 0.5), np.zeros((n, n), dtype=bool)
            )
            assert checked == 0
            assert viol.dtype == np.int64 and viol.shape == (0, 5)

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_edges_inside_a_run(self, rng, monkeypatch, block):
        n = 30
        ii, jj = np.triu_indices(n, k=1)
        kept = rng.random(ii.size) < 0.5
        probs = rng.random(ii.size)
        P, present = self._from_map(
            n, {(int(a), int(b)): float(q) for a, b, q in zip(ii[kept], jj[kept], probs[kept])}
        )
        monkeypatch.setattr(_kernels, "_TRIPLE_BLOCK", n**3)
        checked, viol = _kernels.transitivity_scan(P, present)
        assert len(viol) > 0
        monkeypatch.setattr(_kernels, "_TRIPLE_BLOCK", block)
        checked_blocked, viol_blocked = _kernels.transitivity_scan(P, present)
        assert checked_blocked == checked
        np.testing.assert_array_equal(viol_blocked, viol)


class TestSymEigvals:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(_kernels.sym_eigvals(np.zeros((3, 3))), np.zeros(3))

    def test_diagonal_matrix(self):
        A = np.diag([3.0, -1.0, 2.0])
        np.testing.assert_allclose(_kernels.sym_eigvals(A), [-1.0, 2.0, 3.0])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            _kernels.sym_eigvals(np.zeros((2, 3)))
