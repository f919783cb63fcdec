"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines as they complete.
"""

import contextlib
import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

import oracles
from conftest import gradient, hessian, model_report
from salientpref import (
    FeatureMatrix,
    Ranking,
    SelectionSpec,
    center_columns,
    count_transitivity_violations,
    fit,
    full_selection_report,
    kendall_correlation,
    kendall_distance,
    nll,
    realize,
    sample_comparisons,
    sample_complexity_report,
    single_coordinate_report,
)
from salientpref.dataio import (
    load_comparisons,
    load_features,
    load_rankings,
    read_json,
    save_comparisons,
    save_features,
    write_json,
)


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label}")


def arrays(probs):
    """Aligned (pair_i, pair_j, prob) arrays from a canonical pair->prob dict."""
    pairs = np.array(list(probs), dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1], np.array(list(probs.values()), dtype=np.float64)


def mixed_selection(gen, d):
    roll = int(gen.integers(0, 4))
    if roll == 0:
        return SelectionSpec.full()
    if roll == 1:
        return SelectionSpec.top_t(int(gen.integers(1, d + 1)))
    if roll == 2:
        return SelectionSpec.random_exactly_k(
            int(gen.integers(1, d + 1)), int(gen.integers(0, 2**32))
        )
    return SelectionSpec.random_bernoulli(
        float(gen.uniform(0.2, 1.0)), int(gen.integers(0, 2**32))
    )


def test_criterion_1_gradient_hessian_vs_finite_differences():
    with criterion(1, "gradient/Hessian match central finite differences"):
        start = time.time()
        gen = np.random.default_rng(101)
        for _ in range(100):
            d = int(gen.integers(1, 11))
            n = int(gen.integers(2, 31))
            fm = FeatureMatrix(gen.normal(size=(d, n)))
            sel = realize(mixed_selection(gen, d), fm)
            data = sample_comparisons(
                sel, gen.normal(size=d), int(gen.integers(5, 40)), seed=3
            )
            w = gen.normal(size=d)
            mu = float(gen.uniform(0.0, 0.5))

            got_g = gradient(sel, w, data, mu)
            want_g = oracles.fd_gradient(lambda v: nll(sel, v, data, mu), w)
            assert np.linalg.norm(got_g - want_g) <= 1e-5 * max(
                1.0, np.linalg.norm(want_g)
            )

            got_h = hessian(sel, w, data, mu)
            want_h = oracles.fd_hessian(
                lambda v: gradient(sel, v, data, mu), w
            )
            assert np.linalg.norm(got_h - want_h) <= 1e-5 * max(
                1.0, np.linalg.norm(want_h)
            )
        elapsed = time.time() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"


def test_criterion_2_transitivity_ground_truth():
    with criterion(2, "transitivity classification and intransitivity existence"):
        # the observed district triple: strong broken, moderate and weak intact
        report = count_transitivity_violations(
            *arrays({(0, 1): 1.00, (1, 2): 0.67, (0, 2): 0.70})
        )
        assert report.triples_checked == 1
        assert report.strong_violations == 1
        assert report.moderate_violations == 0
        assert report.weak_violations == 0

        # full selection: a single utility scale can never violate
        gen = np.random.default_rng(202)
        for _ in range(50):
            fm = FeatureMatrix(gen.normal(size=(5, 15)))
            sel = realize(SelectionSpec.full(), fm)
            rep = model_report(sel, gen.normal(size=5))
            assert rep.strong_violations == 0

        # top-1 masking creates intransitive preferences for some seed
        found = False
        for seed in range(10):
            g = np.random.default_rng(seed)
            fm = FeatureMatrix(g.normal(0.0, 1.0 / np.sqrt(10), size=(10, 100)))
            w = g.normal(0.0, 1.0 / np.sqrt(10), size=10)
            sel = realize(SelectionSpec.top_t(1), fm)
            if model_report(sel, w).strong_violations > 0:
                found = True
                break
        assert found

        # small-n reports agree with an independent exhaustive triple scan
        for _ in range(40):
            n = int(gen.integers(3, 7))
            probs = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if gen.random() < 0.85:
                        probs[(i, j)] = float(gen.random())
            rep = count_transitivity_violations(*arrays(probs))
            assert (
                rep.triples_checked,
                rep.strong_violations,
                rep.moderate_violations,
                rep.weak_violations,
            ) == oracles.transitivity_counts(probs)


def test_criterion_3_full_selection_identity():
    with criterion(3, "full-selection closed form equals enumerated lambda"):
        gen = np.random.default_rng(303)
        for _ in range(20):
            fm = center_columns(FeatureMatrix(gen.normal(size=(4, 20))))
            sel = realize(SelectionSpec.full(), fm)
            direct = sample_complexity_report(sel)
            closed = full_selection_report(fm)
            assert abs(closed.lambda_closed - direct.lambda_) <= 1e-8 * max(
                1.0, direct.lambda_
            )
            assert direct.zeta <= closed.zeta_upper + 1e-8
            assert direct.eta <= closed.eta_upper + 1e-8

        for d in (2, 3, 6):
            fm = FeatureMatrix(np.eye(d))
            sel = realize(SelectionSpec.full(), fm)
            assert sample_complexity_report(sel).lambda_ <= 1e-10


def test_criterion_4_single_coordinate_bounds():
    with criterion(4, "single-coordinate partition bounds hold"):
        gen = np.random.default_rng(404)
        for _ in range(20):
            fm = FeatureMatrix(gen.normal(size=(5, 20)))
            sel = realize(SelectionSpec.top_t(1), fm)
            direct = sample_complexity_report(sel)
            bounds = single_coordinate_report(direct)
            assert direct.lambda_ >= bounds.lambda_lower - 1e-10
            assert direct.zeta <= bounds.zeta_upper + 1e-8
            assert direct.eta <= bounds.eta_upper + 1e-8


def test_criterion_5_identifiability_equivalence():
    with criterion(5, "certified identifiability agrees with an oracle rank test on 40 instances"):
        gen = np.random.default_rng(505)
        cases = []
        for _ in range(14):  # generic identifiable instances
            d = int(gen.integers(2, 7))
            n = int(gen.integers(d + 1, 14))
            fm = FeatureMatrix(gen.normal(size=(d, n)))
            cases.append((fm, realize(SelectionSpec.full(), fm), True))
        for k in range(13):  # standard-basis features: centered rank d-1
            d = 2 + k % 5
            fm = FeatureMatrix(np.eye(d))
            cases.append((fm, realize(SelectionSpec.full(), fm), False))
        for _ in range(13):  # one coordinate constant: top-1 never selects it
            d = int(gen.integers(2, 6))
            n = int(gen.integers(4, 12))
            matrix = gen.normal(size=(d, n))
            matrix[int(gen.integers(0, d))] = 3.14
            fm = FeatureMatrix(matrix)
            cases.append((fm, realize(SelectionSpec.top_t(1), fm), False))
        assert len(cases) == 40
        for fm, sel, expect in cases:
            _, table = oracles.masked_diff_table(fm.matrix, sel.spec.to_dict())
            rank_says = oracles.moment_rank(table) == fm.d
            certificate_says = sample_complexity_report(sel).identifiable
            assert rank_says == certificate_says == expect


def test_criterion_6_estimation_rate():
    with criterion(6, "estimation error decays at the square-root rate"):
        start = time.time()
        ms = [1000, 4000, 16000, 64000]
        errors = {m: [] for m in ms}
        for seed in range(20):
            g = np.random.default_rng(seed)
            fm = FeatureMatrix(g.normal(0.0, 1.0 / np.sqrt(5), size=(5, 40)))
            w_star = g.normal(0.0, 1.0 / np.sqrt(5), size=5)
            sel = realize(SelectionSpec.full(), fm)
            for k, m in enumerate(ms):
                data = sample_comparisons(sel, w_star, m, seed=seed * 10 + k)
                res = fit(sel, data)
                assert res.converged
                errors[m].append(float(np.linalg.norm(res.w_hat - w_star)))
        medians = [float(np.median(errors[m])) for m in ms]
        assert all(a > b for a, b in zip(medians, medians[1:])), medians
        slope = float(np.polyfit(np.log(ms), np.log(medians), 1)[0])
        assert -0.65 <= slope <= -0.35, (slope, medians)
        elapsed = time.time() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s, budget is 5 min"


def test_criterion_7_guarantee_soundness():
    with criterion(7, "certified bound holds in every trial above the threshold"):
        ang = np.arange(6) * np.pi / 3
        fm = FeatureMatrix(np.vstack([np.cos(ang), np.sin(ang)]))
        sel = realize(SelectionSpec.full(), fm)
        w_star = np.array([0.3, -0.2])
        delta = 0.2
        rep = sample_complexity_report(sel, w_star=w_star, delta=delta)
        assert rep.identifiable
        m = int(np.ceil(max(rep.m1, rep.m2)))
        assert m == 80 and m >= max(rep.m1, rep.m2)
        bound = rep.error_bound(m)
        for t in range(20):
            trial_seed = int(np.random.SeedSequence([7, t]).generate_state(1)[0])
            res = fit(sel, sample_comparisons(sel, w_star, m, trial_seed))
            assert res.converged, (t, res.stop_reason)
            error = float(np.linalg.norm(res.w_hat - w_star))
            assert error <= bound, (t, error, bound)


def test_criterion_8_ranking_metrics_and_bound_scaling():
    with criterion(8, "kendall metrics exact; error bound scales as 1/sqrt(m)"):
        n = 5
        ident = Ranking(np.arange(1, n + 1))
        rev = Ranking(np.arange(n, 0, -1))
        assert kendall_distance(ident, ident) == 0
        assert kendall_correlation(ident, ident) == 1.0
        assert kendall_distance(ident, rev) == n * (n - 1) // 2
        assert kendall_correlation(ident, rev) == -1.0

        for size in (2, 3, 4):
            for pa in itertools.permutations(range(1, size + 1)):
                for pb in itertools.permutations(range(1, size + 1)):
                    a, b = Ranking(np.array(pa)), Ranking(np.array(pb))
                    want = oracles.kendall_distance_enum(pa, pb)
                    assert kendall_distance(a, b) == want
                    npairs = size * (size - 1) // 2
                    assert kendall_correlation(a, b) == 1.0 - 2.0 * want / npairs

        gen = np.random.default_rng(808)
        fm = FeatureMatrix(gen.normal(size=(3, 9)))
        sel = realize(SelectionSpec.top_t(2), fm)
        rep = sample_complexity_report(sel, w_star=gen.normal(size=3))
        for m in (1, 8, 117, 4096, 123456):
            assert rep.error_bound(4 * m) == rep.error_bound(m) / 2.0


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "seeded pipeline is byte-identical and schemas round-trip"):
        selection = '{"kind":"top_t","t":2}'

        def chain(root):
            root.mkdir()
            run = lambda *a: subprocess.run(
                [sys.executable, "-m", "salientpref.cli", *map(str, a)],
                check=True,
                capture_output=True,
            )
            sim = root / "sim"
            run(
                "simulate", "--d", 4, "--n", 15, "--m", 4000,
                "--selection", selection, "--seed", 42, "--out-dir", sim,
            )
            run(
                "fit",
                "--features", sim / "features.csv",
                "--comparisons", sim / "comparisons.csv",
                "--selection", selection,
                "--mu", 0.001,
                "--out", root / "fit.json",
            )
            run(
                "rank",
                "--features", sim / "features.csv",
                "--weights", root / "fit.json",
                "--out", root / "ranking.csv",
            )
            run(
                "evaluate",
                "--features", sim / "features.csv",
                "--weights", root / "fit.json",
                "--comparisons", sim / "comparisons.csv",
                "--selection", selection,
                "--out", root / "eval.json",
            )
            run(
                "theory",
                "--features", sim / "features.csv",
                "--selection", selection,
                "--weights", sim / "truth_weights.json",
                "--delta", 0.1,
                "--out", root / "theory.json",
            )
            return [
                sim / "features.csv",
                sim / "comparisons.csv",
                sim / "truth_weights.json",
                root / "fit.json",
                root / "ranking.csv",
                root / "eval.json",
                root / "theory.json",
            ]

        first = chain(tmp_path / "run1")
        second = chain(tmp_path / "run2")
        for f1, f2 in zip(first, second):
            assert f1.read_bytes() == f2.read_bytes(), f1.name

        # schema round trips on the artifacts just produced
        sim = tmp_path / "run1" / "sim"
        fm = load_features(str(sim / "features.csv"))
        back = tmp_path / "features_back.csv"
        save_features(str(back), fm)
        assert back.read_bytes() == (sim / "features.csv").read_bytes()

        data = load_comparisons(str(sim / "comparisons.csv"), fm)
        back_c = tmp_path / "comparisons_back.csv"
        save_comparisons(str(back_c), data, fm)
        assert back_c.read_bytes() == (sim / "comparisons.csv").read_bytes()

        rankings_path = tmp_path / "rankings.csv"
        rankings_path.write_text(
            "ranker_id,rank,item_id\n"
            + "".join(f"r0,{k+1},{fm.item_ids[k]}\n" for k in range(5)),
            encoding="utf-8",
        )
        (loaded,) = load_rankings(str(rankings_path), fm)
        assert loaded.items == (0, 1, 2, 3, 4)

        for name in ("fit.json", "eval.json", "theory.json"):
            payload = read_json(str(tmp_path / "run1" / name))
            copy_path = tmp_path / f"copy_{name}"
            write_json(str(copy_path), payload)
            assert read_json(str(copy_path)) == payload
