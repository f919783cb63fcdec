import math

import numpy as np
import pytest

import oracles
from conftest import traced_peak
from salientpref import (
    FeatureMatrix,
    NotSingleCoordinateError,
    PreconditionError,
    RealizedSelection,
    SelectionSpec,
    center_columns,
    full_selection_report,
    ranking_recovery_report,
    realize,
    sample_complexity_report,
    single_coordinate_report,
)
from salientpref import _kernels, selection
from salientpref._kernels import sym_eigvals
from salientpref.cli import _simulate_instance


def fm_from_columns(*cols):
    return FeatureMatrix(np.column_stack([np.asarray(c, float) for c in cols]))


def hexagon_instance():
    ang = np.arange(6) * np.pi / 3
    fm = FeatureMatrix(np.vstack([np.cos(ang), np.sin(ang)]))
    return fm, realize(SelectionSpec.full(), fm)


class TestSymEigvals:
    def test_matches_quadratic_formula_2x2(self, rng):
        for _ in range(200):
            A = rng.normal(size=(2, 2))
            A = A + A.T
            want = oracles.char_poly_eigvals_2x2(A)
            np.testing.assert_allclose(sym_eigvals(A), want, atol=1e-10)

    def test_matches_char_poly_3x3(self, rng):
        for _ in range(200):
            A = rng.normal(size=(3, 3))
            A = A + A.T
            want = oracles.char_poly_eigvals_3x3(A)
            np.testing.assert_allclose(sym_eigvals(A), want, atol=1e-10)

    def test_matches_lapack(self, rng):
        for d in (1, 2, 4, 8, 16):
            A = rng.normal(size=(d, d))
            A = A @ A.T
            np.testing.assert_allclose(
                sym_eigvals(A), np.linalg.eigvalsh(A), atol=1e-10 * max(1, np.abs(A).max())
            )

    def test_small_eigenvalue_of_psd(self, rng):
        # near-singular PSD matrices: the small eigenvalue must not go negative big
        v = rng.normal(size=4)
        A = np.outer(v, v)  # rank one
        eigs = sym_eigvals(A)
        assert abs(eigs[0]) <= 1e-12 * eigs[-1]


class TestIdentifiability:
    """The certificate's ``identifiable`` and ``rank``."""

    def test_standard_basis_loses_a_direction(self):
        for d in (2, 3, 5):
            fm = FeatureMatrix(np.eye(d))
            sel = realize(SelectionSpec.full(), fm)
            res = sample_complexity_report(sel)
            assert not res.identifiable
            assert res.rank == d - 1

    def test_spanning_triangle(self):
        fm = fm_from_columns([0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        sel = realize(SelectionSpec.full(), fm)
        assert sample_complexity_report(sel).identifiable

    def test_starved_coordinate(self):
        # second coordinate constant: top-1 never selects it, so its weight
        # is invisible and the rank drops
        fm = fm_from_columns([0.0, 5.0], [1.0, 5.0], [3.0, 5.0])
        sel = realize(SelectionSpec.top_t(1), fm)
        res = sample_complexity_report(sel)
        assert not res.identifiable
        assert res.rank <= 1

    def test_matches_lambda_sign(self, rng):
        # the verdict is the rank test of an independently built E[Z]
        for _ in range(10):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d + 1, 9))
            fm = FeatureMatrix(rng.normal(size=(d, n)))
            for spec in (SelectionSpec.full(), SelectionSpec.top_t(1)):
                rep = sample_complexity_report(realize(spec, fm))
                _, table = oracles.masked_diff_table(fm.matrix, spec.to_dict())
                assert rep.identifiable == (oracles.moment_rank(table) == d)
        # a second feature 1e-7 the scale of the first: singular values 1e-7
        # apart, eigenvalues of E[Z] 1e-14 apart, below the zero tolerance
        M = rng.normal(size=(2, 8))
        M[1] *= 1e-7
        fm = FeatureMatrix(M)
        res = sample_complexity_report(realize(SelectionSpec.full(), fm))
        _, table = oracles.masked_diff_table(M, SelectionSpec.full().to_dict())
        assert oracles.moment_rank(table) == 1
        assert not res.identifiable
        assert res.rank == 1

    def test_rank_counts_eigenvalues_above_trace_tolerance(self, rng):
        # scales whose squares straddle the 1e-10 relative tolerance
        M = rng.normal(size=(2, 8))
        for scale in np.logspace(-4, -6, 21):
            fm = FeatureMatrix(M * [[1.0], [scale]])
            sel = realize(SelectionSpec.full(), fm)
            EZ = oracles.expected_outer(sel.diff_table())
            want = int(np.sum(np.linalg.eigvalsh(EZ) > 1e-10 * np.trace(EZ) / 2))
            assert sample_complexity_report(sel).rank == want


ALL_KINDS = (
    SelectionSpec.full(),
    SelectionSpec.top_t(2),
    SelectionSpec.random_exactly_k(2, 5),
    SelectionSpec.random_bernoulli(0.4, 6),
)


class TestStreamedCertificate:
    """The certificate over pair blocks against the dense oracle, with both
    block constants set to B pairs and P = C(n,2) pairs equal to 1, B - 1, B
    or B + 1, or spread over several blocks."""

    @pytest.mark.parametrize(
        "n, block",
        [(2, 1), (2, 3), (6, 16), (6, 15), (6, 14), (6, 4)],
        ids=["P=1=B", "P=1,B=3", "P=B-1", "P=B", "P=B+1", "P=15,B=4"],
    )
    @pytest.mark.parametrize("spec", ALL_KINDS, ids=lambda s: s.kind)
    def test_matches_dense_oracle(self, rng, monkeypatch, spec, n, block):
        d = 3
        monkeypatch.setattr(_kernels, "FLOAT_BLOCK", block * d)
        monkeypatch.setattr(selection, "_DRAW_BLOCK", block)
        fm = FeatureMatrix(rng.normal(size=(d, n)))
        w = rng.normal(size=d)
        rep = sample_complexity_report(realize(spec, fm), w_star=w)
        _, table = oracles.masked_diff_table(fm.matrix, spec.to_dict())
        lam, eta, zeta, beta = oracles.certificate_quantities(table)
        assert rep.lambda_ == pytest.approx(lam, abs=1e-10)
        assert rep.eta == pytest.approx(eta, rel=1e-8, abs=1e-10)
        assert rep.zeta == pytest.approx(zeta, rel=1e-8, abs=1e-10)
        assert rep.beta == beta
        assert rep.b_star == pytest.approx(float(np.abs(table @ w).max()), rel=1e-12)
        assert rep.rank == oracles.moment_rank(table)


class TestSampleComplexityReport:
    def test_two_items_closed_form(self):
        a, b = 1.5, -0.5
        fm = fm_from_columns([a], [b])
        sel = realize(SelectionSpec.full(), fm)
        rep = sample_complexity_report(sel)
        assert rep.lambda_ == pytest.approx((a - b) ** 2, rel=1e-12)
        assert rep.zeta == pytest.approx(0.0, abs=1e-12)
        assert rep.eta == pytest.approx(0.0, abs=1e-12)
        assert rep.beta == pytest.approx(abs(a - b), rel=1e-15)

    def test_identity_features_degenerate(self):
        fm = FeatureMatrix(np.eye(3))
        sel = realize(SelectionSpec.full(), fm)
        rep = sample_complexity_report(sel)
        assert rep.lambda_ <= 1e-10
        assert not rep.identifiable
        assert math.isinf(rep.m2)

    def test_matches_bruteforce(self, rng):
        for _ in range(8):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(d + 1, 10))
            fm = FeatureMatrix(rng.normal(size=(d, n)))
            for spec in (SelectionSpec.full(), SelectionSpec.top_t(1)):
                sel = realize(spec, fm)
                rep = sample_complexity_report(sel)
                lam, eta, zeta, beta = oracles.certificate_quantities(sel.diff_table())
                assert rep.lambda_ == pytest.approx(lam, abs=1e-10)
                assert rep.eta == pytest.approx(eta, rel=1e-8, abs=1e-10)
                assert rep.zeta == pytest.approx(zeta, rel=1e-8, abs=1e-10)
                assert rep.beta == beta

    def test_matches_bruteforce_centered_medium(self, rng):
        fm = center_columns(FeatureMatrix(rng.normal(size=(4, 25))))
        sel = realize(SelectionSpec.full(), fm)
        rep = sample_complexity_report(sel)
        lam, _, _, _ = oracles.certificate_quantities(sel.diff_table())
        assert abs(rep.lambda_ - lam) <= 1e-10

    @pytest.mark.parametrize(
        "spec", [SelectionSpec.random_exactly_k(8, 8), SelectionSpec.top_t(2)], ids=lambda s: s.kind
    )
    def test_memory_stays_below_a_quarter_pair_table(self, spec):
        # the C(400,2) x 48 masked difference table would be 30.6 MB; the
        # certificate streams pair blocks and holds a quarter of it at most
        d, n = 48, 400
        fm, w = _simulate_instance(d, n, 7)
        rep, peak = traced_peak(lambda: sample_complexity_report(realize(spec, fm), w_star=w))
        assert rep.identifiable
        assert peak <= n * (n - 1) // 2 * d * 8 / 4

    def test_expectation_two_routes(self, rng):
        fm = FeatureMatrix(rng.normal(size=(4, 25)))
        sel = realize(SelectionSpec.full(), fm)
        X = sel.diff_table()
        incremental = X.T @ X / X.shape[0]
        explicit = oracles.expected_outer(X)
        np.testing.assert_allclose(incremental, explicit, atol=1e-12)

    def test_threshold_formulas(self):
        fm, sel = hexagon_instance()
        delta = 0.1
        rep = sample_complexity_report(sel, delta=delta)
        d = 2
        log4 = math.log(4 * d / delta)
        log2 = math.log(2 * d / delta)
        m1 = (3 * rep.beta**2 * log4 * d + 4 * math.sqrt(d) * rep.beta * log4) / 6
        m2 = 8 * log2 * (6 * rep.eta + rep.lambda_ * rep.zeta) / (3 * rep.lambda_**2)
        assert rep.m1 == pytest.approx(m1, rel=1e-12)
        assert rep.m2 == pytest.approx(m2, rel=1e-12)

    def test_b_star_needs_weights(self):
        fm, sel = hexagon_instance()
        rep = sample_complexity_report(sel)
        assert rep.b_star is None
        with pytest.raises(PreconditionError):
            rep.error_bound(100)

    def test_error_bound_refuses_nan(self):
        fm, sel = hexagon_instance()
        rep = sample_complexity_report(sel, w_star=np.array([0.4, 0.1]))
        with pytest.raises(PreconditionError, match="sample size"):
            rep.error_bound(float("nan"))

    def test_error_bound_quarter_sample_halves_exactly(self):
        fm, sel = hexagon_instance()
        rep = sample_complexity_report(sel, w_star=np.array([0.4, 0.1]))
        for m in (7, 100, 12345):
            assert rep.error_bound(4 * m) == rep.error_bound(m) / 2.0

    def test_error_bound_decreasing(self):
        fm, sel = hexagon_instance()
        rep = sample_complexity_report(sel, w_star=np.array([0.4, 0.1]))
        ms = np.array([10, 100, 1000, 10000])
        vals = [rep.error_bound(m) for m in ms]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_bad_delta(self):
        fm, sel = hexagon_instance()
        for delta in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(PreconditionError):
                sample_complexity_report(sel, delta=delta)

    @pytest.mark.parametrize("delta", ["0.1", True, "x"])
    @pytest.mark.parametrize(
        "report, spec",
        [(sample_complexity_report, SelectionSpec.full()),
         (full_selection_report, None),
         (single_coordinate_report, SelectionSpec.top_t(1))],
        ids=["sample_complexity", "full_selection", "single_coordinate"],
    )
    def test_delta_must_be_a_real_number(self, report, spec, delta):
        # "0.1" used to be read as 0.1
        fm, _ = hexagon_instance()
        with pytest.raises(PreconditionError, match="delta must be a real number"):
            report(fm if spec is None else realize(spec, fm), delta=delta)


def assert_zeta_matches_oracle(sel):
    X = sel.diff_table()
    want = oracles.certificate_quantities(X)[2]
    got = sample_complexity_report(sel).zeta
    # absolute slack only for a zeta at roundoff distance from zero
    assert got == pytest.approx(want, rel=1e-10, abs=1e-12 * float(np.abs(X).max()) ** 2)


class TestZetaEdgeCases:
    def test_one_feature(self, rng):
        fm = FeatureMatrix(rng.normal(size=(1, 9)))
        assert_zeta_matches_oracle(realize(SelectionSpec.full(), fm))

    def test_one_pair(self, rng):
        fm = FeatureMatrix(rng.normal(size=(3, 2)))
        assert_zeta_matches_oracle(realize(SelectionSpec.full(), fm))

    def test_difference_orthogonal_to_top_eigenvector(self):
        # E[Z] = diag(16, 4) / 6; items 0, 1 differ along e2 only, so z_d = 0
        fm = fm_from_columns([0.0, 0.0], [0.0, 1.0], [2.0, 0.0], [2.0, 1.0])
        sel = realize(SelectionSpec.full(), fm)
        X = sel.diff_table()
        np.testing.assert_allclose(X.T @ X / X.shape[0], np.diag([16.0, 4.0]) / 6.0)
        assert_zeta_matches_oracle(sel)

    def test_repeated_top_eigenvalue(self):
        fm, sel = hexagon_instance()
        eigs = np.linalg.eigvalsh(oracles.expected_outer(sel.diff_table()))
        assert eigs[-1] - eigs[-2] <= 1e-12 * eigs[-1]
        assert_zeta_matches_oracle(sel)

    def test_tied_items(self, rng):
        M = rng.normal(size=(3, 8))
        M[:, 5] = M[:, 2]
        M[:, 7] = M[:, 2]
        fm = FeatureMatrix(M)
        for spec in (SelectionSpec.full(), SelectionSpec.top_t(2)):
            sel = realize(spec, fm)
            assert not np.abs(sel.diff_table()).sum(axis=1).all()
            assert_zeta_matches_oracle(sel)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_scaled_features(self, rng, scale):
        fm = FeatureMatrix(rng.normal(size=(4, 12)) * scale)
        for spec in (SelectionSpec.full(), SelectionSpec.top_t(2)):
            assert_zeta_matches_oracle(realize(spec, fm))

    @pytest.mark.parametrize("d", [2, 5, 30])
    def test_random_instances_every_selection_kind(self, rng, d):
        n = d + 12
        specs = (
            SelectionSpec.full(),
            SelectionSpec.top_t(max(1, d // 2)),
            SelectionSpec.random_exactly_k(max(1, d // 3), int(rng.integers(0, 2**32))),
            SelectionSpec.random_bernoulli(0.5, int(rng.integers(0, 2**32))),
        )
        for spec in specs:
            fm = FeatureMatrix(rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, n)))
            assert_zeta_matches_oracle(realize(spec, fm))


class TestFullSelectionReport:
    def test_closed_form_matches_direct(self, rng):
        for _ in range(5):
            fm = center_columns(FeatureMatrix(rng.normal(size=(4, 20))))
            sel = realize(SelectionSpec.full(), fm)
            direct = sample_complexity_report(sel)
            closed = full_selection_report(fm)
            assert abs(closed.lambda_closed - direct.lambda_) <= 1e-8 * max(
                1.0, direct.lambda_
            )
            assert direct.zeta <= closed.zeta_upper + 1e-8
            assert direct.eta <= closed.eta_upper + 1e-8

    def test_nu_floors_at_one(self):
        fm = fm_from_columns([0.0], [0.1], [0.2])
        rep = full_selection_report(fm)
        assert rep.nu == 1.0

    def test_requires_more_items_than_features(self, rng):
        fm = FeatureMatrix(rng.normal(size=(3, 3)))
        with pytest.raises(PreconditionError):
            full_selection_report(fm)

    def test_centering_is_internal(self, rng):
        raw = FeatureMatrix(rng.normal(size=(3, 12)) + 7.0)
        shifted = full_selection_report(raw)
        centered = full_selection_report(center_columns(raw))
        assert shifted.lambda_closed == pytest.approx(centered.lambda_closed, rel=1e-9)
        assert shifted.beta == pytest.approx(centered.beta, rel=1e-9)

    def test_error_bound_with_weights(self, rng):
        fm = center_columns(FeatureMatrix(rng.normal(size=(3, 12))))
        w = rng.normal(size=3) * 0.2
        rep = full_selection_report(fm, w_star=w, delta=0.1)
        assert rep.b_star is not None
        assert rep.error_bound(4 * 900) == rep.error_bound(900) / 2.0

    def test_constants_match_pairwise_oracle(self, rng):
        cases = [rng.normal(size=(d, int(rng.integers(d + 1, 25)))) for d in (1, 2, 4, 5)]
        M = rng.normal(size=(3, 15))
        cases += [M + 7.0, M * 1e-6, M * 1e6]
        clusters = rng.normal(size=(3, 16))
        clusters[:, :8] += 1e4  # two far clusters
        constant = rng.normal(size=(3, 10))
        constant[1] = -2.5  # a constant feature row
        cases += [clusters, constant, np.array([[0.0, 0.1, 0.2]])]
        for M in cases:
            w = rng.normal(size=M.shape[0])
            rep = full_selection_report(FeatureMatrix(M), w_star=w)
            nu, beta, b_star = oracles.full_selection_constants(M, w)
            assert rep.beta == beta
            assert (rep.nu, rep.b_star) == pytest.approx((nu, b_star), rel=1e-12)
        assert rep.nu == 1.0  # the last case floors nu at one

    def test_builds_no_pair_table(self, rng, monkeypatch):
        calls = []
        rule = RealizedSelection._keep_mask

        def counting(self, *args):
            calls.append(self.spec)
            return rule(self, *args)

        monkeypatch.setattr(RealizedSelection, "_keep_mask", counting)
        d, n = 48, 600  # the C(n,2) x d table alone would be 138 MB
        fm = FeatureMatrix(rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, n)))
        w = rng.normal(0.0, 1.0 / np.sqrt(d), size=d)
        _, peak = traced_peak(lambda: full_selection_report(fm, w_star=w))
        assert calls == []
        assert peak < 16 * 2**20

    def test_ones_in_rowspace_degenerates(self, rng):
        # plant the all-ones vector in the row space: centering annihilates it
        base = rng.normal(size=(2, 6))
        planted = np.vstack([base, np.ones(6) - base.sum(axis=0)])
        v = np.linalg.lstsq(planted.T, np.ones(6), rcond=None)[0]
        assert np.allclose(planted.T @ v, 1.0)
        rep = full_selection_report(FeatureMatrix(planted), w_star=np.ones(3))
        assert rep.lambda_closed <= 1e-10
        assert math.isinf(rep.m_lower) and math.isinf(rep.error_bound_coefficient)


class TestSingleCoordinateReport:
    def test_one_dimension_exact(self, rng):
        fm = FeatureMatrix(rng.normal(size=(1, 6)))
        sel = realize(SelectionSpec.top_t(1), fm)
        rep = single_coordinate_report(sel)
        assert rep.partition_sizes == (15,)
        assert rep.lambda_lower == pytest.approx(rep.epsilon**2, rel=1e-12)

    def test_partition_example(self):
        fm = fm_from_columns([0.0, 0.0], [1.0, 0.0], [1.0, 5.0])
        sel = realize(SelectionSpec.top_t(1), fm)
        rep = single_coordinate_report(sel)
        assert rep.partition_sizes == (1, 2)

    def test_lower_bound_below_direct_lambda(self, rng):
        for _ in range(8):
            fm = FeatureMatrix(rng.normal(size=(5, 20)))
            sel = realize(SelectionSpec.top_t(1), fm)
            direct = sample_complexity_report(sel)
            rep = single_coordinate_report(sel)
            assert direct.lambda_ >= rep.lambda_lower - 1e-10
            assert direct.zeta <= rep.zeta_upper + 1e-8
            assert direct.eta <= rep.eta_upper + 1e-8

    def test_rejects_wide_subsets(self, rng):
        fm = FeatureMatrix(rng.normal(size=(3, 5)))
        sel = realize(SelectionSpec.full(), fm)
        with pytest.raises(NotSingleCoordinateError):
            single_coordinate_report(sel)

    def test_starved_coordinate_degenerates(self):
        fm = fm_from_columns([0.0, 5.0], [1.0, 5.0], [3.0, 5.0])
        sel = realize(SelectionSpec.top_t(1), fm)
        rep = single_coordinate_report(sel)
        assert rep.partition_sizes == (3, 0)
        assert rep.lambda_lower == 0.0
        assert math.isinf(rep.m3)


class TestThresholdOracle:
    """Each specialization's thresholds against the formulas written out."""

    def test_full_selection(self, rng):
        infinite = []
        for trial in range(12):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(d + 1, 12))
            M = rng.normal(size=(d, n))
            if trial == 0:
                M[-1] = 3.0  # constant feature: the centered Gram is singular
            w = rng.normal(size=d)
            delta = float(rng.uniform(0.01, 0.5))
            want = oracles.full_selection_thresholds(M, delta, w)
            infinite.append(math.isinf(want[1]))
            rep = full_selection_report(FeatureMatrix(M), w_star=w, delta=delta)
            assert full_selection_report(FeatureMatrix(M), w, delta) == rep
            got = (rep.m1, rep.m_lower, rep.error_bound_coefficient)
            assert got == pytest.approx(want, rel=1e-12)
        assert infinite[0] and not all(infinite)

    def test_single_coordinate(self, rng):
        infinite = []
        for trial in range(12):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(3, 12))
            M = rng.normal(size=(d, n))
            if trial == 0:
                M[-1] = 3.0  # never the largest difference: an empty part
            w = rng.normal(size=d)
            delta = float(rng.uniform(0.01, 0.5))
            want = oracles.single_coordinate_thresholds(M, delta, w)
            infinite.append(math.isinf(want[1]))
            fm = FeatureMatrix(M)
            sel = realize(SelectionSpec.top_t(1), fm)
            rep = single_coordinate_report(sel, w_star=w, delta=delta)
            assert single_coordinate_report(sel, w, delta) == rep
            got = (rep.m1, rep.m3, rep.m_lower, rep.error_bound_coefficient)
            assert got == pytest.approx(want, rel=1e-12)
        assert infinite[0] and not all(infinite)


_CERTIFICATE_KEYS = [
    "lambda", "eta", "zeta", "beta", "b_star", "identifiable", "rank", "delta",
    "m1", "m2", "d", "n", "error_bound_coefficient",
]
_FULL_KEYS = [
    "nu", "lambda_closed", "zeta_upper", "eta_upper", "beta", "b_star", "delta",
    "m1", "m_lower", "d", "n", "error_bound_coefficient",
]
_SINGLE_KEYS = [
    "partition_sizes", "epsilon", "lambda_lower", "zeta_upper", "eta_upper", "beta",
    "b_star", "delta", "m1", "m3", "m_lower", "d", "n", "error_bound_coefficient",
]
_RECOVERY_KEYS = [
    "M", "k", "alpha_k", "m_terms", "m_lower", "delta", "c5", "b_star", "lambda",
    "predicted", "guarantee",
]


@pytest.mark.parametrize(
    "build, keys",
    [
        (lambda fm, sel: sample_complexity_report(sel, w_star=np.ones(3)), _CERTIFICATE_KEYS),
        (lambda fm, sel: full_selection_report(fm, w_star=np.ones(3)), _FULL_KEYS),
        (lambda fm, sel: single_coordinate_report(sel, w_star=np.ones(3)), _SINGLE_KEYS),
        (
            lambda fm, sel: ranking_recovery_report(
                sample_complexity_report(sel, w_star=np.ones(3)), k=1
            ),
            _RECOVERY_KEYS,
        ),
    ],
    ids=["certificate", "full_selection", "single_coordinate", "ranking_recovery"],
)
def test_report_schema(rng, build, keys):
    fm = FeatureMatrix(rng.normal(size=(3, 9)))
    out = build(fm, realize(SelectionSpec.top_t(1), fm)).to_dict()
    assert list(out) == keys
    for key in ("partition_sizes", "m_terms"):
        if key in out:
            assert isinstance(out[key], list)


def test_certificate_carries_its_instance(rng):
    fm = FeatureMatrix(rng.normal(size=(3, 9)))
    sel = realize(SelectionSpec.top_t(2), fm)
    w = rng.normal(size=3)
    cert = sample_complexity_report(sel, w_star=w)
    assert cert.sel is sel and np.array_equal(cert.w_star, w)
    assert not cert.w_star.flags.writeable
    w[0] += 1.0  # the caller's array is copied, not held
    assert not np.array_equal(cert.w_star, w)
    assert sample_complexity_report(sel, w_star=w) != cert
    assert "w_star" not in repr(cert) and sample_complexity_report(sel).w_star is None


def test_feature_units_move_m1_but_not_m2_or_b_star():
    # features x s with w* / s give the same probabilities: m2 and b* are
    # unit-free, while m1 (through beta) and the error bound follow the units
    fm, w = _simulate_instance(6, 40, 7)
    reps = [
        sample_complexity_report(
            realize(SelectionSpec.top_t(2), FeatureMatrix(fm.matrix * s)), w_star=w / s
        )
        for s in (1e-3, 1.0, 1e3)
    ]
    for rep in reps:
        assert rep.m2 == pytest.approx(reps[1].m2, rel=1e-12)
        assert rep.b_star == pytest.approx(reps[1].b_star, rel=1e-12)
    assert reps[0].m1 < reps[1].m1 < reps[2].m1
    coefficients = [rep.error_bound_coefficient for rep in reps]
    assert coefficients == sorted(coefficients, reverse=True)


def recovery(sel, w, k, delta=0.05):
    cert = sample_complexity_report(sel, w_star=w, delta=delta)
    return ranking_recovery_report(cert, k=k)


class TestRankingRecoveryReport:
    def test_zero_weights_vacuous(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 5)))
        sel = realize(SelectionSpec.full(), fm)
        rep = recovery(sel, np.zeros(2), k=1)
        assert rep.alpha_k == 0.0
        assert math.isinf(rep.m_terms[2])

    def test_smallest_gap_at_k_one(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 5)))
        sel = realize(SelectionSpec.full(), fm)
        w = rng.normal(size=2)
        rep = recovery(sel, w, k=1)
        gaps = np.abs(
            (fm.matrix.T @ w)[:, None] - (fm.matrix.T @ w)[None, :]
        )[np.triu_indices(5, k=1)]
        assert rep.alpha_k == pytest.approx(gaps.min(), rel=1e-12)
        assert np.isfinite(rep.m_terms[2])

    def test_line_of_items(self):
        fm = fm_from_columns([0.0], [1.0], [3.0])
        sel = realize(SelectionSpec.full(), fm)
        rep = recovery(sel, np.array([1.0]), k=2)
        assert rep.alpha_k == 2.0

    def test_k_out_of_range(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 4)))
        sel = realize(SelectionSpec.full(), fm)
        with pytest.raises(PreconditionError):
            recovery(sel, np.zeros(2), k=7)

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, "1"])
    def test_k_must_be_an_integer(self, rng, bad):
        fm = FeatureMatrix(rng.normal(size=(2, 4)))
        sel = realize(SelectionSpec.full(), fm)
        with pytest.raises(PreconditionError, match="k must be an integer"):
            recovery(sel, np.ones(2), k=bad)

    def test_k_is_stored_as_a_plain_int(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 4)))
        rep = recovery(realize(SelectionSpec.full(), fm), np.ones(2), k=np.int64(2))
        assert rep.k == 2 and type(rep.k) is int and type(rep.to_dict()["k"]) is int

    def test_reads_the_certificate(self, rng):
        fm = FeatureMatrix(rng.normal(size=(3, 7)))
        sel = realize(SelectionSpec.top_t(2), fm)
        w = rng.normal(size=3)
        reps = {}
        for delta in (0.05, 0.1):
            cert = sample_complexity_report(sel, w_star=w, delta=delta)
            assert sample_complexity_report(sel, w, delta) == cert
            rep = reps[delta] = ranking_recovery_report(cert, k=3)
            assert (rep.delta, rep.lambda_, rep.b_star) == (delta, cert.lambda_, cert.b_star)
            assert rep.c5 == rep.to_dict()["c5"] == 1.0
            assert rep.m_terms[:2] == (cert.m1, cert.m2)
        # only the log(4d/delta) factor of the third term depends on delta
        ratio = reps[0.1].m_terms[2] / reps[0.05].m_terms[2]
        assert ratio == pytest.approx(math.log(4 * 3 / 0.1) / math.log(4 * 3 / 0.05), rel=1e-12)

    def test_mismatched_certificate_rejected(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 5)))
        sel = realize(SelectionSpec.full(), fm)
        without_weights = sample_complexity_report(sel, delta=0.05)
        with pytest.raises(PreconditionError):
            ranking_recovery_report(without_weights, k=1)


@pytest.mark.parametrize("b", [400.0, 800.0])
class TestHugeMargin:
    """Past b* of about 355 the exponential terms overflow a float; they are
    infinite, so the bound promises nothing, and nothing raises."""

    @staticmethod
    def line(b):
        # three items on a line, centered, whose widest margin under w = 1 is b
        return fm_from_columns([-b / 2], [0.0], [b / 2]), np.array([1.0])

    def test_certificate(self, b):
        fm, w = self.line(b)
        rep = sample_complexity_report(realize(SelectionSpec.full(), fm), w_star=w)
        assert rep.b_star == b and rep.identifiable
        assert math.isfinite(rep.m2) and math.isinf(rep.error_bound_coefficient)
        assert math.isinf(rep.error_bound(10**6))

    def test_full_selection(self, b):
        fm, w = self.line(b)
        rep = full_selection_report(fm, w_star=w)
        assert rep.b_star == b and math.isfinite(rep.m_lower)
        assert math.isinf(rep.error_bound_coefficient)

    def test_single_coordinate(self, b):
        fm, w = self.line(b)
        rep = single_coordinate_report(realize(SelectionSpec.top_t(1), fm), w_star=w)
        assert rep.b_star == b and math.isfinite(rep.m_lower)
        assert math.isinf(rep.error_bound_coefficient)

    def test_ranking_recovery(self, b):
        fm, w = self.line(b)
        rep = recovery(realize(SelectionSpec.full(), fm), w, k=1)
        assert rep.b_star == b and rep.alpha_k == b / 2
        assert math.isinf(rep.m_terms[2]) and math.isinf(rep.m_lower)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e77, 1e160, 1e300])
class TestOverflowingScale:
    """Finite features whose squares or fourth powers overflow float64 make
    the certificate terms inf or nan: each certificate refuses them."""

    @staticmethod
    def features(scale):
        return FeatureMatrix(np.random.default_rng(4).normal(size=(2, 6)) * scale)

    def test_certificate(self, scale):
        fm = self.features(scale)
        with pytest.raises(PreconditionError, match="overflows float64"):
            sample_complexity_report(realize(SelectionSpec.top_t(1), fm))

    def test_full_selection(self, scale):
        with pytest.raises(PreconditionError, match="overflows float64"):
            full_selection_report(self.features(scale))

    def test_single_coordinate(self, scale):
        fm = self.features(scale)
        with pytest.raises(PreconditionError, match="overflows float64"):
            single_coordinate_report(realize(SelectionSpec.top_t(1), fm))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_overflow_refused_before_eigendecomposition(monkeypatch):
    # LAPACK's answer on inf or nan depends on the build; it is never asked
    def finite_only(solver):
        def checked(M, *args, **kwargs):
            assert np.isfinite(M).all(), "eigensolver called on a non-finite matrix"
            return solver(M, *args, **kwargs)
        return checked

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, finite_only(getattr(np.linalg, name)))
    fm = TestOverflowingScale.features(1e160)
    sel = realize(SelectionSpec.top_t(1), fm)
    for certify in (
        lambda: sample_complexity_report(sel),
        lambda: full_selection_report(fm),
        lambda: single_coordinate_report(sel),
    ):
        with pytest.raises(PreconditionError, match="overflows float64"):
            certify()


@pytest.mark.parametrize("scale", [1e-100, 1e-160])
class TestUnderflowingScale:
    """Features so small that a certified lambda**2 leaves the normal float64
    range (eta has lost its digits too): m2 cannot be trusted, so each
    certificate refuses them rather than divide by zero."""

    @staticmethod
    def features(scale):
        return FeatureMatrix(np.random.default_rng(4).normal(size=(2, 6)) * scale)

    def test_certificate(self, scale):
        fm = self.features(scale)
        with pytest.raises(PreconditionError, match="underflows float64"):
            sample_complexity_report(realize(SelectionSpec.top_t(1), fm))

    def test_full_selection(self, scale):
        with pytest.raises(PreconditionError, match="underflows float64"):
            full_selection_report(self.features(scale))


def test_underflowed_moment_is_refused():
    # x1e-200: every square underflows, so E[Z] and U U^T are exactly zero
    # although the differences are not; x1 the same features are identifiable
    base = np.random.default_rng(4).normal(size=(2, 6))
    fm = FeatureMatrix(base * 1e-200)
    sel = realize(SelectionSpec.top_t(1), fm)
    for certify in (
        lambda: sample_complexity_report(sel),
        lambda: full_selection_report(fm),
    ):
        with pytest.raises(PreconditionError, match="underflows float64"):
            certify()
    ok = FeatureMatrix(base)
    assert sample_complexity_report(realize(SelectionSpec.top_t(1), ok)).identifiable


def test_identical_features_are_unidentifiable_not_refused():
    # all differences are zero: E[Z] is rightly zero, so no scale is at fault
    fm = FeatureMatrix(np.full((2, 6), 1e-200))
    sel = realize(SelectionSpec.top_t(1), fm)
    rep = sample_complexity_report(sel)
    assert rep.rank == 0 and not rep.identifiable and rep.m2 == math.inf
    _, table = oracles.masked_diff_table(fm.matrix, SelectionSpec.top_t(1).to_dict())
    assert oracles.moment_rank(table) == 0
    assert full_selection_report(fm).m_lower == math.inf


def test_smallest_normal_scale_still_certifies():
    # 1e-60: lambda near 1e-120 squares to about 1e-240, still a normal float
    base = FeatureMatrix(np.random.default_rng(4).normal(size=(2, 6)))
    fm = FeatureMatrix(base.matrix * 1e-60)
    rep = sample_complexity_report(realize(SelectionSpec.top_t(1), fm))
    ref = sample_complexity_report(realize(SelectionSpec.top_t(1), base))
    assert rep.identifiable and math.isfinite(rep.m2)
    assert rep.m2 == pytest.approx(ref.m2, rel=1e-9)
    assert math.isfinite(full_selection_report(fm).m_lower)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_infinite_b_star_gives_infinite_coefficient():
    # b* overflows to inf: exp(inf) raises nothing, and (1 + inf)**2 / inf
    # would be nan, but an infinite margin means an infinite bound
    fm = FeatureMatrix(np.random.default_rng(4).normal(size=(2, 6)))
    rep = sample_complexity_report(realize(SelectionSpec.full(), fm), w_star=[1e308, 1e308])
    assert rep.b_star == math.inf
    assert rep.error_bound_coefficient == math.inf
    assert rep.error_bound(100) == math.inf


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_overflowing_margins_give_infinite_coefficient():
    # each pair's margin sums products of +-2e308: inf, or nan where BLAS adds
    # an inf to a -inf; either way the bound is infinite, never finite
    fm = FeatureMatrix(np.array([[0.0, 1.0, 2.0]] * 4))
    rep = sample_complexity_report(realize(SelectionSpec.full(), fm), w_star=[1e308, -1e308] * 2)
    assert not math.isfinite(rep.b_star)
    assert rep.error_bound_coefficient == math.inf


@pytest.mark.parametrize("rows", [1, 3])
def test_nan_margin_in_one_block_stays_nan(monkeypatch, rows):
    # a nan margin in the first block survives the finite margins after it
    monkeypatch.setattr(_kernels, "FLOAT_BLOCK", rows * 2)
    margins = iter([math.nan, 1.0, 2.0])
    monkeypatch.setattr(_kernels, "largest_margin", lambda X, w: next(margins))
    fm = fm_from_columns([0.0, 1.0], [1.0, 0.0], [2.0, 2.0])
    rep = sample_complexity_report(realize(SelectionSpec.full(), fm), w_star=[1.0, 1.0])
    assert math.isnan(rep.b_star)
    assert rep.error_bound_coefficient == math.inf


def test_largest_finite_scale_still_certifies():
    # 1e60: fourth powers near 1e240 stay finite, so every term is a number
    fm = FeatureMatrix(np.random.default_rng(4).normal(size=(2, 6)) * 1e60)
    rep = sample_complexity_report(realize(SelectionSpec.top_t(1), fm))
    full = full_selection_report(fm)
    assert all(math.isfinite(v) for v in (rep.eta, rep.m1, rep.m2, full.nu, full.m_lower))
