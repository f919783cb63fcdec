"""Command-line entry point: reproducible simulate / fit / evaluate pipelines.

Every subcommand writes its primary outputs plus a run manifest (subcommand,
flags, seed, library version, input digests) sufficient to reproduce the run;
identical flags and inputs produce byte-identical primary outputs, while
timestamps live only in the manifest.  Exit codes: 0 success, 1 runtime
failure, 2 usage error.

All simulation randomness flows from the single ``--seed`` through numpy
SeedSequence chains: [seed, 0] draws the features, [seed, 1] the true
weights, [seed, 2] the comparisons; random selection functions draw each
pair's subset from SeedSequence([spec_seed, i, j]).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import datetime
import hashlib
import json
import math
import numbers
import os
import pathlib
import sys

import numpy as np

from . import __version__, dataio, diagnostics, theory
from .errors import NotSingleCoordinateError, PreconditionError, SalientPrefError
from .estimator import FitConfig, fit
from .features import FeatureMatrix
from .model import all_pair_probabilities, sample_comparisons
from .ranking import (
    kendall_correlation,
    kendall_distance,
    pairwise_accuracy,
    rank_from_weights,
    subset_kendall,
)
from .selection import SelectionSpec, all_pairs, pair_index, realize

SEED_SCHEME = (
    "numpy SeedSequence chains rooted at --seed: [seed,0] features, "
    "[seed,1] weights, [seed,2] comparisons; random selections use "
    "SeedSequence([spec_seed, i, j]) per pair"
)


def _selection_arg(text: str) -> SelectionSpec:
    try:
        return SelectionSpec.from_json(text)
    except (ValueError, json.JSONDecodeError) as exc:
        raise argparse.ArgumentTypeError(f"bad selection spec: {exc}") from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path, subcommand: str, args: argparse.Namespace, inputs: list[str]):
    flags = {}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command"):
            continue
        if isinstance(value, SelectionSpec):
            value = value.to_dict()
        elif isinstance(value, pathlib.Path):
            value = str(value)
        flags[key] = value
    manifest = {
        "subcommand": subcommand,
        "flags": flags,
        "seed": flags.get("seed"),
        "library_version": __version__,
        "input_digests": {p: _sha256(p) for p in inputs},
        "seed_scheme": SEED_SCHEME,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    dataio.write_json(path, manifest)


def _derived_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


def _simulate_instance(d: int, n: int, seed: int) -> tuple[FeatureMatrix, np.ndarray]:
    """Features and true weights with N(0, 1/sqrt(d)) coordinates."""
    scale = 1.0 / math.sqrt(d)
    rng_u = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    rng_w = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    matrix = rng_u.normal(0.0, scale, size=(d, n))
    w_star = rng_w.normal(0.0, scale, size=d)
    width = max(3, len(str(n - 1)))
    ids = tuple(f"item{k:0{width}d}" for k in range(n))
    return FeatureMatrix(matrix, ids), w_star


def cmd_simulate(args) -> int:
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    fm, w_star = _simulate_instance(args.d, args.n, args.seed)
    sel = realize(args.selection, fm)
    data = sample_comparisons(fm, w_star, sel, args.m, _derived_seed(args.seed, 2))
    dataio.save_features(str(out / "features.csv"), fm)
    dataio.save_comparisons(str(out / "comparisons.csv"), data, fm)
    dataio.write_json(
        str(out / "truth_weights.json"),
        {
            "w": [float(v) for v in w_star],
            "d": args.d,
            "n": args.n,
            "seed": args.seed,
            "selection": args.selection.to_dict(),
        },
    )
    _write_manifest(str(out / "manifest.json"), "simulate", args, [])
    return 0


def cmd_fit(args) -> int:
    fm, _ = dataio.load_features(args.features)
    data = dataio.load_comparisons(args.comparisons, fm)
    sel = realize(args.selection, fm)
    result = fit(fm, sel, data, FitConfig(mu=args.mu, tol_grad=args.tol))
    payload = result.to_dict()
    payload["m"] = len(data)
    payload["mu"] = args.mu
    payload["selection"] = args.selection.to_dict()
    dataio.write_json(args.out, payload)
    _write_manifest(args.out + ".manifest.json", "fit", args, [args.features, args.comparisons])
    return 0


def cmd_rank(args) -> int:
    fm, _ = dataio.load_features(args.features)
    w = dataio.load_weights_json(args.weights)
    ranking = rank_from_weights(fm, w)
    utilities = fm.matrix.T @ w
    dataio.save_ranking_csv(args.out, fm, ranking.order(), utilities)
    _write_manifest(args.out + ".manifest.json", "rank", args, [args.features, args.weights])
    return 0


def cmd_evaluate(args) -> int:
    fm, _ = dataio.load_features(args.features)
    w = dataio.load_weights_json(args.weights)
    inputs = [args.features, args.weights]
    if args.rankings:
        est = rank_from_weights(fm, w)
        rankings = dataio.load_rankings(args.rankings, fm)
        per = [
            {"ranker_id": r.ranker_id, "kendall_tau": subset_kendall(est, r.items), "k": len(r)}
            for r in rankings
        ]
        taus = [p["kendall_tau"] for p in per]
        payload = {
            "metric": "kendall_tau",
            "per_ranker": per,
            "mean": float(np.mean(taus)) if taus else None,
            "std": float(np.std(taus)) if taus else None,
            "rankers": len(per),
        }
        inputs.append(args.rankings)
    else:
        if args.selection is None:
            raise PreconditionError("--comparisons evaluation needs --selection")
        data = dataio.load_comparisons(args.comparisons, fm)
        sel = realize(args.selection, fm)
        payload = {
            "metric": "pairwise_accuracy",
            "value": pairwise_accuracy(fm, w, sel, data),
            "m": len(data),
            "selection": args.selection.to_dict(),
        }
        inputs.append(args.comparisons)
    dataio.write_json(args.out, payload)
    _write_manifest(args.out + ".manifest.json", "evaluate", args, inputs)
    return 0


def cmd_diagnose(args) -> int:
    fm, _ = dataio.load_features(args.features)
    payload: dict = {"item_ids": list(fm.item_ids)}
    inputs = [args.features]
    empirical = None
    model_probs = None
    if args.comparisons:
        data = dataio.load_comparisons(args.comparisons, fm, min_count=args.min_count)
        empirical = (data.pair_i, data.pair_j, data.wins / data.total)
        payload["empirical"] = diagnostics.count_transitivity_violations(*empirical).to_dict()
        inputs.append(args.comparisons)
    if args.weights:
        if args.selection is None:
            raise PreconditionError("model diagnostics need --selection with --weights")
        w = dataio.load_weights_json(args.weights)
        if fm.n < 3:
            raise PreconditionError("transitivity needs at least 3 items")
        model_probs = all_pair_probabilities(fm, w, realize(args.selection, fm))
        payload["model"] = diagnostics.count_transitivity_violations(
            *all_pairs(fm.n), model_probs
        ).to_dict()
        inputs.append(args.weights)
    if empirical is None and model_probs is None:
        raise PreconditionError("diagnose needs --comparisons or --weights/--selection")
    if empirical is not None and model_probs is not None:
        aligned = model_probs[pair_index(data.pair_i, data.pair_j, fm.n)]
        payload["inconsistency"] = diagnostics.pairwise_inconsistency(
            *empirical, aligned
        ).to_dict()
    dataio.write_json(args.out, payload)
    _write_manifest(args.out + ".manifest.json", "diagnose", args, inputs)
    return 0


def cmd_theory(args) -> int:
    fm, _ = dataio.load_features(args.features)
    sel = realize(args.selection, fm)
    inputs = [args.features]
    w = None
    if args.weights:
        w = dataio.load_weights_json(args.weights)
        inputs.append(args.weights)
    certificate = theory.sample_complexity_report(fm, sel, w_star=w, delta=args.delta)
    payload: dict = {
        "selection": args.selection.to_dict(),
        "identifiability": theory.IdentifiabilityResult(
            certificate.identifiable, certificate.rank, certificate.d
        ).to_dict(),
        "certificate": certificate.to_dict(),
    }
    if args.selection.kind == "full" and fm.n > fm.d:
        payload["full_selection"] = theory.full_selection_report(
            fm, delta=args.delta, w_star=w
        ).to_dict()
    try:
        payload["single_coordinate"] = theory.single_coordinate_report(
            fm, sel, delta=args.delta, w_star=w
        ).to_dict()
    except NotSingleCoordinateError:
        pass
    if w is not None:
        payload["b_star"] = certificate.b_star
        payload["ranking_recovery"] = theory.ranking_recovery_report(
            fm, w, certificate, k=1, c5=1.0
        ).to_dict()
    dataio.write_json(args.out, payload)
    _write_manifest(args.out + ".manifest.json", "theory", args, inputs)
    return 0


def _sweep_cell(task: tuple) -> list[tuple]:
    d, n, sel_json, m, seed, mu = task
    spec = SelectionSpec.from_json(sel_json)
    fm, w_star = _simulate_instance(d, n, seed)
    sel = realize(spec, fm)
    data = sample_comparisons(fm, w_star, sel, m, _derived_seed(seed, 2))
    result = fit(fm, sel, data, FitConfig(mu=mu))
    true_rank = rank_from_weights(fm, w_star)
    est_rank = rank_from_weights(fm, result.w_hat)
    if n < 3:
        raise PreconditionError("transitivity needs at least 3 items")
    pairs, probs = all_pairs(n), all_pair_probabilities(fm, w_star, sel)
    report = diagnostics.count_transitivity_violations(*pairs, probs)
    inconsistency = diagnostics.pairwise_inconsistency(*pairs, probs, true_rank)
    metrics = {
        "w_error": float(np.linalg.norm(result.w_hat - w_star)),
        "kendall_tau": kendall_correlation(true_rank, est_rank),
        "kendall_distance": float(kendall_distance(true_rank, est_rank)),
        "strong_rate": report.rate("strong") or 0.0,
        "moderate_rate": report.rate("moderate") or 0.0,
        "weak_rate": report.rate("weak") or 0.0,
        "inconsistency_rate": inconsistency.rate,
        "converged": float(result.converged),
    }
    return [(sel_json, m, seed, name, value) for name, value in metrics.items()]


def _spec_number(key: str, value, kind=numbers.Integral):
    """A sweep-spec value by SelectionSpec's rule: never a bool, never coerced."""
    if isinstance(value, bool) or not isinstance(value, kind):
        noun = "an integer" if kind is numbers.Integral else "a real number"
        raise PreconditionError(f"sweep spec {key} must be {noun}, got {value!r}")
    return int(value) if kind is numbers.Integral else float(value)


def cmd_sweep(args) -> int:
    spec = dataio.read_json(args.spec)
    if not isinstance(spec, dict):
        raise PreconditionError(f"sweep spec must be a JSON object, got {type(spec).__name__}")
    for key in ("d", "n", "selections", "m_grid", "seeds"):
        if key not in spec:
            raise PreconditionError(f"sweep spec missing key {key!r}")
    for key in ("selections", "m_grid", "seeds"):
        if not isinstance(spec[key], list):
            raise PreconditionError(
                f"sweep spec {key} must be an array, got {type(spec[key]).__name__}"
            )
    d, n = _spec_number("d", spec["d"]), _spec_number("n", spec["n"])
    if d < 1:
        raise PreconditionError(f"sweep spec d must be >= 1, got {d}")
    mu = _spec_number("mu", spec.get("mu", 0.0), numbers.Real)
    workers = _spec_number("workers", spec.get("workers", 1))
    if workers < 1:
        raise PreconditionError(f"sweep spec workers must be >= 1, got {workers}")
    selections = [SelectionSpec.from_dict(s).to_json() for s in spec["selections"]]
    m_grid = [_spec_number("m_grid entry", m) for m in spec["m_grid"]]
    if any(m < 1 for m in m_grid):
        raise PreconditionError(f"sweep spec m_grid entries must be >= 1, got {min(m_grid)}")
    seeds = [_spec_number("seeds entry", seed) for seed in spec["seeds"]]
    if any(seed < 0 for seed in seeds):
        raise PreconditionError(f"sweep spec seeds entries must be >= 0, got {min(seeds)}")
    tasks = [
        (d, n, sel_json, m, seed, mu)
        for sel_json in selections
        for m in m_grid
        for seed in seeds
    ]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sweep_cell, tasks))
    else:
        chunks = [_sweep_cell(t) for t in tasks]
    rows = sorted(row for chunk in chunks for row in chunk)
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["selection", "m", "seed", "metric", "value"])
        for sel_json, m, seed, metric, value in rows:
            writer.writerow([sel_json, str(m), str(seed), metric, repr(float(value))])
    _write_manifest(str(out / "manifest.json"), "sweep", args, [args.spec])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="salientpref",
        description="Context-dependent pairwise preference modeling toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a synthetic instance and comparisons")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--selection", type=_selection_arg, required=True)
    p.add_argument("--seed", type=_nonnegative_int, required=True)
    p.add_argument("--out-dir", type=pathlib.Path, required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="maximum likelihood fit of the judgment weights")
    p.add_argument("--features", required=True)
    p.add_argument("--comparisons", required=True)
    p.add_argument("--selection", type=_selection_arg, required=True)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("rank", help="write the ranking implied by fitted weights")
    p.add_argument("--features", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("evaluate", help="kendall tau against rankings, or pairwise accuracy")
    p.add_argument("--features", required=True)
    p.add_argument("--weights", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rankings")
    group.add_argument("--comparisons")
    p.add_argument("--selection", type=_selection_arg)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("diagnose", help="transitivity violations and inconsistencies")
    p.add_argument("--features", required=True)
    p.add_argument("--comparisons")
    p.add_argument("--weights")
    p.add_argument("--selection", type=_selection_arg)
    p.add_argument("--min-count", type=_nonnegative_int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("theory", help="identifiability and sample-complexity report")
    p.add_argument("--features", required=True)
    p.add_argument("--selection", type=_selection_arg, required=True)
    p.add_argument("--weights")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("sweep", help="grid of simulate+fit cells, long-format CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--out-dir", type=pathlib.Path, required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SalientPrefError, OSError, ValueError, KeyError) as exc:
        print(f"salientpref {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
