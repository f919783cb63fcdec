"""Kernel checks: the count-form likelihood folds against a per-sample
oracle, and the zeta and triple scans against enumeration oracles.
"""

import numpy as np
import pytest

import oracles
from conftest import random_features, traced_peak
from salientpref import FeatureMatrix, SelectionSpec, _kernels, realize, sample_complexity_report


class TestScalarHelpers:
    def test_sigmoid_range_and_symmetry(self, rng):
        u = rng.uniform(-700, 700, size=1000)
        s = _kernels.sigmoid(u)
        assert np.all((s >= 0.0) & (s <= 1.0))
        np.testing.assert_allclose(s + _kernels.sigmoid(-u), 1.0, atol=1e-15)

    def test_curvature_peak(self):
        assert _kernels.logistic_curvature(0.0) == pytest.approx(0.25)

    def test_zero_off_is_bitwise_copyto(self, rng):
        table = rng.normal(size=(40, 7))
        table.flat[:6] = [np.inf, -np.inf, np.nan, -0.0, 0.0, -5e-324]
        keep = rng.random(table.shape) < 0.4
        keep.flat[:6] = False
        want = table.copy()
        np.copyto(want, 0.0, where=~keep)
        got = _kernels.zero_off(table, keep)
        assert got is table
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


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


SECULAR_ROOTS = _kernels._secular_roots  # unspied, for the reference


def zeta_every_row(spectrum, X):
    """zeta from the secular root of every row, block by block as the scan
    forms z: what the scan gave before it pruned rows."""
    lam, Q = spectrum
    gaps = lam[-1] - lam[:-1]
    d = X.shape[1]
    step = _kernels.block_rows(d)
    t_min = np.inf
    for lo in range(0, X.shape[0], step):
        z2 = (X[lo : lo + step] @ Q) ** 2
        zd2 = z2[:, -1]
        if d > 1:
            zd2 = SECULAR_ROOTS(z2[:, :-1], zd2, gaps, np.minimum(zd2, gaps[-1]))
        t_min = min(t_min, float(zd2.min()))
    return float(lam[-1] - t_min)


def zeta_scan(spectrum, X):
    """``ZetaScan`` over the rows of ``X`` in blocks of ``block_rows(d)``, as
    the certificate hands them over."""
    scan = _kernels.ZetaScan(spectrum)
    step = _kernels.block_rows(X.shape[1])
    for lo in range(0, X.shape[0], step):
        scan.add(X[lo : lo + step])
    return scan.zeta()


def spectrum_of(X):
    return np.linalg.eigh(X.T @ X / X.shape[0])


def every_kind(d):
    return (
        SelectionSpec.full(),
        SelectionSpec.top_t(max(1, d // 2)),
        SelectionSpec.random_exactly_k(max(1, d // 3), 11),
        SelectionSpec.random_bernoulli(0.5, 12),
    )


@pytest.fixture(scope="module")
def wide_table():
    # the certify_wide shape: d=48, n=120 (7,140 pairs), random_exactly_k(8)
    fm = FeatureMatrix(np.random.default_rng(7).normal(size=(48, 120)))
    return realize(SelectionSpec.random_exactly_k(8, 8), fm).diff_table()


@pytest.fixture
def solved_rows(monkeypatch):
    """The row counts the scan hands to the secular solver, call by call."""
    seen = []

    def spy(zk2, zd2, gaps, hi):
        seen.append(zd2.shape[0])
        return SECULAR_ROOTS(zk2, zd2, gaps, hi)

    monkeypatch.setattr(_kernels, "_secular_roots", spy)
    return seen


def synthetic_spectrum(rng, lam):
    Q, _ = np.linalg.qr(rng.normal(size=(len(lam), len(lam))))
    return np.asarray(lam, dtype=np.float64), Q


@pytest.mark.filterwarnings("error")
class TestZetaScan:
    def test_matches_oracle(self, rng):
        X = rng.normal(size=(120, 5))
        EZ = X.T @ X / X.shape[0]
        _, _, want, _ = oracles.certificate_quantities(X)
        assert zeta_scan(np.linalg.eigh(EZ), X) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 5, 48])
    def test_bit_identical_to_every_row_every_kind(self, rng, d):
        for spec in every_kind(d):
            X = realize(spec, random_features(rng, d, 40)).diff_table()
            spectrum = spectrum_of(X)
            assert zeta_scan(spectrum, X) == zeta_every_row(spectrum, X)

    @pytest.mark.parametrize("d", [2, 5, 48])
    def test_bound_carries_across_blocks(self, rng, monkeypatch, solved_rows, d):
        monkeypatch.setattr(_kernels, "FLOAT_BLOCK", 7 * d)
        for spec in every_kind(d):
            X = realize(spec, random_features(rng, d, 30)).diff_table()
            spectrum = spectrum_of(X)
            solved_rows.clear()
            assert zeta_scan(spectrum, X) == zeta_every_row(spectrum, X)
            # a root of exactly 0 (top_t(1), random_exactly_k(1)) may end the
            # scan before any solve; every other kind solves at least once
            lam, Q = spectrum
            zero_root = lam[-1] == lam[-2] or not ((X @ Q)[:, -1] ** 2).all()
            assert (0 if zero_root else 1) <= len(solved_rows) <= -(-X.shape[0] // 7)

    def test_later_blocks_solve_nothing_past_the_bound(self, rng, monkeypatch, solved_rows):
        # the smallest root is in the first block; every later row is far above it
        lam, Q = synthetic_spectrum(rng, [1.0, 2.0, 3.0, 4.0])
        z = rng.uniform(1.0, 2.0, size=(40, 4))
        z[:, -1] *= 0.5
        z[0, -1] = 1e-3
        X = z @ Q.T
        monkeypatch.setattr(_kernels, "FLOAT_BLOCK", 4 * 10)
        assert zeta_scan((lam, Q), X) == zeta_every_row((lam, Q), X)
        assert len(solved_rows) == 1 and solved_rows[0] >= 1

    def test_held_rows_are_solved_in_batches(self, rng, monkeypatch, solved_rows):
        # nothing prunes (as in test_every_lower_end_zero_solves_every_row):
        # float blocks of 12 entries, 4 rows; the first block is solved at
        # once, since no root is known, then one call per two blocks, whose
        # 8 held rows of 2 entries below the top fill a float block, and the
        # last 2 rows at the end
        lam, Q = synthetic_spectrum(rng, [0.5, 1.0 - 1e-6, 1.0])
        X = (rng.uniform(1.0, 2.0, size=(30, 3)) * [0.1, 0.1, 1.0]) @ Q.T
        monkeypatch.setattr(_kernels, "FLOAT_BLOCK", 4 * 3)
        assert zeta_scan((lam, Q), X) == zeta_every_row((lam, Q), X)
        assert solved_rows == [4, 8, 8, 8, 2]

    def test_smallest_upper_end_need_not_hold_the_smallest_root(self, solved_rows):
        # row 1's root is its upper end, 0.4; row 0's upper end is 0.45 but
        # its pole term pulls its root to about 0.354, below 0.4
        lam, Q = np.array([1.0, 2.0, 3.0]), np.eye(3)
        X = np.array([[0.0, 1.0, np.sqrt(0.9)], [0.0, 0.0, np.sqrt(0.4)]])
        zeta = zeta_scan((lam, Q), X)
        assert zeta == zeta_every_row((lam, Q), X)
        assert zeta == pytest.approx(3.0 - 0.354, abs=1e-3)
        assert solved_rows == [2]

    def test_nan_row_is_solved(self, rng, solved_rows):
        lam, Q = synthetic_spectrum(rng, [1.0, 2.0, 3.0])
        X = rng.normal(size=(25, 3))
        X[4, 0] = np.nan
        assert zeta_scan((lam, Q), X) == zeta_every_row((lam, Q), X)
        assert solved_rows[0] >= 1

    def test_zero_rows(self, rng):
        for d in (1, 3):
            spectrum = synthetic_spectrum(rng, np.arange(1.0, d + 1))
            assert zeta_scan(spectrum, np.empty((0, d))) == -np.inf

    def test_row_orthogonal_to_top_eigenvector(self, rng):
        lam, Q = synthetic_spectrum(rng, [1.0, 2.0, 3.0])
        z = rng.normal(size=(25, 3))
        z[9, -1] = 0.0
        X = z @ Q.T
        zeta = zeta_scan((lam, Q), X)
        assert zeta == zeta_every_row((lam, Q), X)
        assert zeta == pytest.approx(3.0, rel=1e-12)

    def test_repeated_top_eigenvalue(self, rng):
        lam, Q = synthetic_spectrum(rng, [1.0, 3.0, 3.0])
        X = rng.normal(size=(25, 3))
        assert zeta_scan((lam, Q), X) == zeta_every_row((lam, Q), X) == 3.0

    def test_every_lower_end_zero_solves_every_row(self, rng, solved_rows):
        # the top two eigenvalues 1e-6 apart and rows along the top
        # eigenvector: every bracket reaches the pole, so nothing is pruned
        lam, Q = synthetic_spectrum(rng, [0.5, 1.0 - 1e-6, 1.0])
        z = rng.uniform(1.0, 2.0, size=(30, 3)) * [0.1, 0.1, 1.0]
        X = z @ Q.T
        z2 = (X @ Q) ** 2
        gaps = lam[-1] - lam[:-1]
        lower, upper = _kernels._root_brackets(z2[:, :-1], z2[:, -1], gaps)
        assert np.all(upper == gaps[-1]) and np.all(lower == 0.0)
        assert zeta_scan((lam, Q), X) == zeta_every_row((lam, Q), X)
        assert solved_rows == [30]

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_single_coordinate_certificate_solves_no_row(self, solved_rows, d):
        # top_t(1) makes E[Z] diagonal: a pair off the top coordinate has
        # z_d = 0, a root of exactly 0, so no secular equation is solved
        fm = FeatureMatrix(np.random.default_rng(d).normal(size=(d, 40)))
        sel = realize(SelectionSpec.top_t(1), fm)
        zeta = sample_complexity_report(sel).zeta
        assert solved_rows == []
        X = sel.diff_table()
        assert zeta == zeta_every_row(spectrum_of(X), X)

    def test_wide_table_solves_few_pairs(self, wide_table, solved_rows):
        spectrum = spectrum_of(wide_table)
        assert zeta_scan(spectrum, wide_table) == zeta_every_row(spectrum, wide_table)
        assert sum(solved_rows) <= 0.05 * wide_table.shape[0]

    def test_memory_stays_within_a_few_tables(self, wide_table):
        spectrum = spectrum_of(wide_table)
        _, peak = traced_peak(zeta_scan, spectrum, wide_table)
        assert wide_table.shape == (7140, 48)
        assert peak <= 4 * wide_table.nbytes


def scan_rows(P, present):
    """The scan's count and its keys decoded by ``unpack`` over item indices."""
    checked, keys = _kernels.transitivity_scan(P, present)
    assert keys.dtype == np.int64 and keys.ndim == 1
    return checked, _kernels.unpack(keys, P.shape[0])


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
            checked, viol = scan_rows(P, present)
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
        checked, viol = scan_rows(P, present)
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
            checked, viol = scan_rows(P, present)
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
        checked, viol = scan_rows(*self._from_map(n, prob_map))
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
            checked, viol = scan_rows(np.full((n, n), 0.5), np.zeros((n, n), dtype=bool))
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
        checked, keys = _kernels.transitivity_scan(P, present)
        assert len(keys) > 0
        monkeypatch.setattr(_kernels, "_TRIPLE_BLOCK", block)
        checked_blocked, keys_blocked = _kernels.transitivity_scan(P, present)
        assert checked_blocked == checked
        np.testing.assert_array_equal(keys_blocked, keys)

    def test_unpack_inverts_the_key(self, rng):
        # keys over m scan indices, up to the largest m whose keys fit int64
        for m in (1000, 1_321_122):
            rows = rng.integers(0, m, size=(500, 5))
            rows[:, 3:] = rng.integers(0, 2, size=(500, 2))
            keys = ((rows[:, 0] * m + rows[:, 1]) * m + rows[:, 2]) * 4 + 2 * rows[:, 3] + rows[:, 4]
            got = _kernels.unpack(keys, m)
            assert got.dtype == np.int64 and got.shape == (500, 5)
            np.testing.assert_array_equal(got, rows)
            assert _kernels.unpack(keys[:0], m).shape == (0, 5)


class TestSymEigvals:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(_kernels.sym_eigvals(np.zeros((3, 3))), np.zeros(3))

    def test_diagonal_matrix(self):
        A = np.diag([3.0, -1.0, 2.0])
        np.testing.assert_allclose(_kernels.sym_eigvals(A), [-1.0, 2.0, 3.0])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            _kernels.sym_eigvals(np.zeros((2, 3)))
