"""The benchmark's workloads: inputs made from the seed, and the CLI stages run.

Each workload is a list of CLI invocations (``salientpref.cli.main(argv)``)
plus the files staged before them.  Stages marked ``timed=False`` are input
staging and count toward ``setup_s``; the timed stages make ``pipeline_s``.
Every input is a function of the workload seed alone, so one seed always
gives the same inputs.  The shapes are fixed; only the seed varies.

Why each workload exists (the layer each one loads is in README.md):

pipeline
    A full CLI session at d=10, n=100 (4,950 pairs), top_t(2), m=1,000,000.
    m is about 200x the number of distinct pairs, so count expansion in
    ``dataio.load_comparisons``, ``ComparisonDataset.aggregate`` and the
    per-sample likelihood folds dominate ``fit`` and ``evaluate``.
    ``diagnose`` at n=100 runs both triple classifiers and writes a ~31 MB
    JSON.  ``theory`` at d=10 is the small-d case, so a zeta change that only
    wins at large d shows here as a regression.  n=200 is ruled out: its
    ``diagnose`` alone takes ~111 s and writes 251 MB.
certify_wide
    ``simulate`` at d=48, n=120 (7,140 pairs), random_exactly_k(k=8),
    m=20,000 as staging, then the timed ``theory --weights truth``.  The
    pure-Python Jacobi ``sym_eigvals``, the per-pair ``zeta_scan``, the SVD in
    ``identifiability_check`` and the second ``sample_complexity_report``
    inside ``ranking_recovery_report`` make up nearly all of it; fit, dataio
    and diagnostics do almost nothing.
sweep_small
    ``salientpref sweep`` at d=10, n=60 (1,770 pairs), four selections,
    m_grid [2000, 20000], 8 seeds: 64 small in-memory cells with m close to
    the number of distinct pairs.  Per-call overhead, the diff-table build,
    the triple scan and the per-violation lists dominate.  Count-native
    fitting cannot win much here, so it is the bypass workload for that
    change and catches per-call cost that a large-m optimisation adds.
    ``workers`` is set to 1: the CLI passes it to the process pool unclamped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 7


@dataclass(frozen=True)
class Stage:
    name: str  # the CLI subcommand
    argv: tuple[str, ...]
    timed: bool
    outputs: tuple[str, ...]  # primary outputs: manifests are not listed


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    params: dict
    stages: tuple[Stage, ...]
    files: dict = field(default_factory=dict)  # relative name -> text, staged first


WHY = {
    "pipeline": "simulate, fit, rank, evaluate, theory, diagnose at d=10 n=100 m=1M: "
    "count expansion, per-sample folds and the triple scans dominate",
    "certify_wide": "theory at d=48 n=120 random_exactly_k(8): Jacobi eigenvalues, "
    "per-pair zeta scan and the identifiability SVD dominate; fit does nothing",
    "sweep_small": "sweep of 64 small cells at d=10 n=60, m near the pair count: "
    "per-call overhead; bypass case for count-native fitting",
}


def _pipeline(out: Path, seed: int) -> Plan:
    d, n, m = 10, 100, 1_000_000
    sel = {"kind": "top_t", "t": 2}
    sel_json = json.dumps(sel)
    f, c, t = str(out / "features.csv"), str(out / "comparisons.csv"), str(out / "truth_weights.json")
    fit, rank, ev, th, dg = (str(out / x) for x in ("fit.json", "ranking.csv", "eval.json", "theory.json", "diagnose.json"))
    stages = (
        Stage("simulate", ("simulate", "--d", str(d), "--n", str(n), "--m", str(m), "--selection",
                           sel_json, "--seed", str(seed), "--out-dir", str(out)), True, (f, c, t)),
        Stage("fit", ("fit", "--features", f, "--comparisons", c, "--selection", sel_json,
                      "--out", fit), True, (fit,)),
        Stage("rank", ("rank", "--features", f, "--weights", fit, "--out", rank), True, (rank,)),
        Stage("evaluate", ("evaluate", "--features", f, "--weights", fit, "--comparisons", c,
                           "--selection", sel_json, "--out", ev), True, (ev,)),
        Stage("theory", ("theory", "--features", f, "--selection", sel_json, "--weights", t,
                         "--out", th), True, (th,)),
        Stage("diagnose", ("diagnose", "--features", f, "--comparisons", c, "--weights", fit,
                           "--selection", sel_json, "--out", dg), True, (dg,)),
    )
    return Plan("pipeline", seed, {"d": d, "n": n, "m": m, "selection": sel, "delta": 0.05}, stages)


def _certify_wide(out: Path, seed: int) -> Plan:
    d, n, m = 48, 120, 20_000
    sel = {"kind": "random_exactly_k", "k": 8, "seed": seed + 1}
    sel_json = json.dumps(sel)
    f, c, t = str(out / "features.csv"), str(out / "comparisons.csv"), str(out / "truth_weights.json")
    th = str(out / "theory.json")
    stages = (
        Stage("simulate", ("simulate", "--d", str(d), "--n", str(n), "--m", str(m), "--selection",
                           sel_json, "--seed", str(seed), "--out-dir", str(out)), False, (f, c, t)),
        Stage("theory", ("theory", "--features", f, "--selection", sel_json, "--weights", t,
                         "--out", th), True, (th,)),
    )
    return Plan("certify_wide", seed, {"d": d, "n": n, "m": m, "selection": sel, "delta": 0.05}, stages)


def _sweep_small(out: Path, seed: int) -> Plan:
    spec = {
        "d": 10,
        "n": 60,
        "selections": [
            {"kind": "top_t", "t": 1},
            {"kind": "top_t", "t": 3},
            {"kind": "full"},
            {"kind": "random_exactly_k", "k": 3, "seed": seed + 1},
        ],
        "m_grid": [2000, 20000],
        "seeds": [seed * 8 + k for k in range(8)],
        "workers": 1,
    }
    spec_path = out / "spec.json"
    sweep_dir = out / "sweep"
    stages = (
        Stage("sweep", ("sweep", "--spec", str(spec_path), "--out-dir", str(sweep_dir)), True,
              (str(sweep_dir / "sweep.csv"),)),
    )
    return Plan("sweep_small", seed, spec, stages, {"spec.json": json.dumps(spec, indent=2)})


PLANS = {"pipeline": _pipeline, "certify_wide": _certify_wide, "sweep_small": _sweep_small}


def plan(workload: str, out: Path, seed: int) -> Plan:
    """The stages and staged files of one workload session writing into ``out``."""
    return PLANS[workload](out, seed)
