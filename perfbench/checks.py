"""Correctness checks on a session's outputs, run outside the timed region.

The oracles use numpy and the csv module only, never salientpref, and
compare with tolerances rather than bytes: outputs move at roundoff with the
BLAS thread count and with any change of summation order.  Each check
returns a list of failure messages per stage; an empty list is a pass.

Oracles:
* fit: ``converged`` and a gradient norm recomputed from the per-pair counts
  (the binomial form of the likelihood), so it never expands samples;
* rank: the written order and utilities against U^T w;
* evaluate: pairwise accuracy recomputed from the counts;
* theory: lambda, eta and zeta against batched ``np.linalg.eigvalsh``,
  b_star against max |X w|, and identifiability rank = d;
* diagnose: weak violations equal the number of strict directed 3-cycles,
  trace(A^3)/3; for the model, whose preferences form a complete tournament,
  ``triples_checked == C(n,3)`` and the cycles equal the cyclic-triad count
  C(n,3) - sum_i C(s_i, 2) (Kendall & Babington Smith 1940); violation
  counts are nested and agree with the listed triples;
* sweep: cells x 8 rows and ``converged == 1.0`` in every cell.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Gradient norm of the count-form likelihood at the fitted w.  The fit stops
# at 1e-8 on the per-sample sum; summing per pair instead moves it by
# roundoff of order m * eps * |term|, far below this.
GRAD_TOL = 1e-6
# Relative tolerance between the package's eigenvalues and LAPACK's.
EIG_RTOL = 1e-9
SWEEP_METRICS = ("converged", "inconsistency_rate", "kendall_distance", "kendall_tau",
                 "moderate_rate", "strong_rate", "w_error", "weak_rate")


def _sigmoid(u):
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def read_features(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    ids = [r[0] for r in rows[1:]]
    U = np.array([[float(v) for v in r[1:]] for r in rows[1:]]).T
    return ids, U


def read_wins(path, index):
    """W[a, b] = times item a beat item b."""
    n = len(index)
    W = np.zeros((n, n), dtype=np.int64)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for winner, loser, count in reader:
            W[index[winner], index[loser]] += int(count)
    return W


def diff_table(U, sel):
    """Masked differences per canonical pair, from the selection's definition."""
    d, n = U.shape
    ii, jj = np.triu_indices(n, k=1)
    diffs = U[:, ii].T - U[:, jj].T
    keep = np.zeros_like(diffs, dtype=bool)
    if sel["kind"] == "full":
        keep[:] = True
    elif sel["kind"] == "top_t":
        order = np.argsort(-np.abs(diffs), axis=1, kind="stable")[:, : sel["t"]]
        np.put_along_axis(keep, order, True, axis=1)
    elif sel["kind"] == "random_exactly_k":
        for r, (a, b) in enumerate(zip(ii.tolist(), jj.tolist())):
            rng = np.random.default_rng(np.random.SeedSequence([sel["seed"], a, b]))
            keep[r, rng.permutation(d)[: sel["k"]]] = True
    else:
        raise ValueError(f"no oracle for selection {sel['kind']!r}")
    return np.where(keep, diffs, 0.0)


def _close(name, got, want, rtol, atol=0.0):
    if got is None or not math.isclose(float(got), float(want), rel_tol=rtol, abs_tol=atol):
        return [f"{name}: got {got!r}, oracle {want!r}"]
    return []


def _pair_matrix(n, p):
    """P[a, b] = P(a beats b) from the canonical-pair vector."""
    ii, jj = np.triu_indices(n, k=1)
    P = np.full((n, n), 0.5)
    P[ii, jj] = p
    P[jj, ii] = 1.0 - p
    return P


def _check_transitivity(rep, A, n, tournament):
    """``A[a, b]`` is True when a is strictly preferred to b."""
    fails = []
    listed = rep["violating_triples"]
    strong, moderate, weak = rep["strong_violations"], rep["moderate_violations"], rep["weak_violations"]
    if not weak <= moderate <= strong <= rep["triples_checked"] <= math.comb(n, 3):
        fails.append(f"violation counts not nested: {weak} {moderate} {strong} {rep['triples_checked']}")
    if strong != len(listed) or not all(v["strong"] for v in listed):
        fails.append(f"strong_violations {strong} != {len(listed)} listed strong triples")
    if moderate != sum(v["moderate"] for v in listed):
        fails.append("moderate_violations disagrees with the listed flags")
    if weak != sum(v["weak"] for v in listed):
        fails.append("weak_violations disagrees with the listed flags")
    Ai = A.astype(np.int64)
    cycles = int(np.trace(Ai @ Ai @ Ai)) // 3
    if weak != cycles:
        fails.append(f"weak_violations {weak} != {cycles} directed 3-cycles")
    if tournament:
        s = Ai.sum(axis=1)
        cyclic_triads = math.comb(n, 3) - int(sum(math.comb(int(k), 2) for k in s))
        if cycles != cyclic_triads:
            fails.append(f"3-cycles {cycles} != cyclic triads {cyclic_triads}")
        if rep["triples_checked"] != math.comb(n, 3):
            fails.append(f"triples_checked {rep['triples_checked']} != C(n,3) = {math.comb(n, 3)}")
    return fails


def _theory_fails(th, X, w_star, d, delta):
    fails = []
    cert = th["certificate"]
    P = X.shape[0]
    EZ = X.T @ X / P
    sq = (X**2).sum(axis=1)
    V = (X * sq[:, None]).T @ X / P - EZ @ EZ
    V = 0.5 * (V + V.T)
    scale = float(np.linalg.norm(EZ, 2))
    lam = max(float(np.linalg.eigvalsh(EZ)[0]), 0.0)
    eta = max(float(np.linalg.eigvalsh(V)[-1]), 0.0)
    zeta = -np.inf
    for lo in range(0, P, 2048):
        blk = X[lo : lo + 2048]
        zeta = max(zeta, float(np.linalg.eigvalsh(EZ[None] - blk[:, :, None] * blk[:, None, :])[:, -1].max()))
    fails += _close("lambda", cert.get("lambda"), lam, EIG_RTOL, EIG_RTOL * scale)
    fails += _close("eta", cert.get("eta"), eta, EIG_RTOL, EIG_RTOL * scale**2)
    fails += _close("zeta", cert.get("zeta"), zeta, EIG_RTOL, EIG_RTOL * scale)
    fails += _close("b_star", cert.get("b_star"), float(np.abs(X @ w_star).max()), 1e-12)
    fails += _close("delta", cert.get("delta"), delta, 0.0)
    rank = int(np.linalg.matrix_rank(X))
    ident = th["identifiability"]
    if rank != d or ident.get("rank") != d or ident.get("identifiable") is not True:
        fails.append(f"identifiability {ident} but oracle rank {rank}, d={d}")
    return fails


def _fit_fails(fit, X, W, m, ii, jj):
    fails = []
    if fit.get("converged") is not True:
        fails.append(f"fit did not converge: {fit.get('final_grad_norm')}")
    if fit.get("m") != m:
        fails.append(f"fit m {fit.get('m')} != {m}")
    w = np.asarray(fit["w_hat"])
    wins, total = W[ii, jj], W[ii, jj] + W[jj, ii]
    g = X.T @ (total * _sigmoid(X @ w) - wins)
    norm = float(np.linalg.norm(g))
    if not norm <= GRAD_TOL:
        fails.append(f"count-form gradient norm {norm:.3e} > {GRAD_TOL:g}")
    return fails


_READ_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError)


def _guard(fails, stage, fn, *args):
    """Run one stage's checks; an unreadable output fails that stage only."""
    try:
        fails[stage] += fn(*args)
    except _READ_ERRORS as exc:
        fails[stage].append(f"outputs unreadable: {exc!r}")


def _rank_fails(out, index, U, w, n):
    with open(out / "ranking.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    utilities = U.T @ w
    ranked = [index[r[1]] for r in rows]
    written = np.array([float(r[2]) for r in rows])
    if [int(r[0]) for r in rows] != list(range(1, n + 1)) or sorted(ranked) != list(range(n)):
        return ["ranking.csv is not a 1..n ranking of every item"]
    if np.any(np.diff(written) > 0) or not np.allclose(written, utilities[ranked], rtol=1e-12, atol=1e-14):
        return ["ranking.csv utilities are not U^T w in descending order"]
    return []


def _diagnose_fails(dg, ids, W, prob, n):
    fails = []
    if dg.get("item_ids") != ids:
        fails.append("item_ids differ from the features file")
    fails += ["model: " + f for f in _check_transitivity(dg["model"], _pair_matrix(n, prob) > 0.5, n, True)]
    ii, jj = np.triu_indices(n, k=1)
    wi, wj = W[ii, jj], W[jj, ii]
    seen = wi + wj > 0
    emp = np.where(seen, wi / np.maximum(wi + wj, 1), 0.5)
    present = np.zeros((n, n), dtype=bool)
    present[ii[seen], jj[seen]] = present[jj[seen], ii[seen]] = True
    A = (_pair_matrix(n, emp) > 0.5) & present
    fails += ["empirical: " + f for f in _check_transitivity(dg["empirical"], A, n, False)]
    inc = dg["inconsistency"]
    bad = int(np.count_nonzero((0.5 - emp[seen]) * (0.5 - prob[seen]) < 0.0))
    if inc["pairs_compared"] != int(seen.sum()) or inc["inconsistent"] != bad:
        fails.append(f"inconsistency {inc['pairs_compared']}/{inc['inconsistent']}, "
                     f"oracle {int(seen.sum())}/{bad}")
    return fails


def _read(out, name):
    return json.loads((out / name).read_text(encoding="utf-8"))


def check_pipeline(plan, out: Path) -> dict:
    p = plan.params
    d, n, m = p["d"], p["n"], p["m"]
    fails = {s.name: [] for s in plan.stages}
    try:
        ids, U = read_features(out / "features.csv")
        index = {item: k for k, item in enumerate(ids)}
        W = read_wins(out / "comparisons.csv", index)
        w_star = np.asarray(_read(out, "truth_weights.json")["w"])
    except _READ_ERRORS as exc:
        return {s.name: [f"simulate outputs unreadable: {exc!r}"] for s in plan.stages}
    if U.shape != (d, n) or int(W.sum()) != m or w_star.shape != (d,):
        fails["simulate"].append(f"features {U.shape}, {int(W.sum())} comparisons, |w*| {w_star.shape}; "
                                 f"want d={d} n={n} m={m}")
        return fails
    X = diff_table(U, p["selection"])
    ii, jj = np.triu_indices(n, k=1)
    try:
        fit = _read(out, "fit.json")
        w = np.asarray(fit["w_hat"], dtype=np.float64)
    except _READ_ERRORS as exc:
        for stage in ("fit", "rank", "evaluate", "diagnose"):
            fails[stage].append(f"fit.json unreadable: {exc!r}")
        _guard(fails, "theory", lambda: _theory_fails(_read(out, "theory.json"), X, w_star, d, p["delta"]))
        return fails
    prob = _sigmoid(X @ w)
    wi, wj = W[ii, jj], W[jj, ii]
    eligible = (wi != wj) & (prob != 0.5)
    accuracy = float(np.mean((prob[eligible] > 0.5) == (wi[eligible] > wj[eligible])))
    _guard(fails, "fit", _fit_fails, fit, X, W, m, ii, jj)
    _guard(fails, "rank", _rank_fails, out, index, U, w, n)
    _guard(fails, "evaluate", lambda: _close("pairwise accuracy", _read(out, "eval.json").get("value"),
                                             accuracy, 1e-12))
    _guard(fails, "theory", lambda: _theory_fails(_read(out, "theory.json"), X, w_star, d, p["delta"]))
    _guard(fails, "diagnose", lambda: _diagnose_fails(_read(out, "diagnose.json"), ids, W, prob, n))
    return fails


def check_certify_wide(plan, out: Path) -> dict:
    p = plan.params
    fails = {s.name: [] for s in plan.stages}
    try:
        _, U = read_features(out / "features.csv")
        w_star = np.asarray(_read(out, "truth_weights.json")["w"])
    except _READ_ERRORS as exc:
        return {s.name: [f"simulate outputs unreadable: {exc!r}"] for s in plan.stages}
    if U.shape != (p["d"], p["n"]) or w_star.shape != (p["d"],):
        fails["simulate"].append(f"features {U.shape}, |w*| {w_star.shape}; want d={p['d']} n={p['n']}")
        return fails
    X = diff_table(U, p["selection"])
    _guard(fails, "theory", lambda: _theory_fails(_read(out, "theory.json"), X, w_star, p["d"], p["delta"]))
    return fails


def check_sweep_small(plan, out: Path) -> dict:
    spec = plan.params
    fails = {"sweep": []}
    _guard(fails, "sweep", _sweep_fails, spec, out / "sweep" / "sweep.csv")
    return fails


def _sweep_fails(spec, path):
    fails = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    cells = len(spec["selections"]) * len(spec["m_grid"]) * len(spec["seeds"])
    if rows[0] != ["selection", "m", "seed", "metric", "value"] or len(rows) - 1 != cells * 8:
        return [f"sweep.csv has {len(rows) - 1} rows, want {cells} cells x 8"]
    by_cell: dict = {}
    for sel, m, seed, metric, value in rows[1:]:
        by_cell.setdefault((sel, m, seed), {})[metric] = float(value)
    if len(by_cell) != cells:
        fails.append(f"{len(by_cell)} distinct cells, want {cells}")
    for cell, vals in sorted(by_cell.items()):
        if tuple(sorted(vals)) != SWEEP_METRICS or not all(map(math.isfinite, vals.values())):
            fails.append(f"{cell}: metrics {sorted(vals)}")
        elif vals["converged"] != 1.0:
            fails.append(f"{cell}: converged = {vals['converged']}")
        elif not 0.0 <= vals["weak_rate"] <= vals["moderate_rate"] <= vals["strong_rate"] <= 1.0:
            fails.append(f"{cell}: violation rates not nested")
    return fails


CHECKS = {"pipeline": check_pipeline, "certify_wide": check_certify_wide,
          "sweep_small": check_sweep_small}


def check(plan, out: Path) -> dict:
    """Failure messages per stage name; an empty list is a pass."""
    return CHECKS[plan.workload](plan, out)
