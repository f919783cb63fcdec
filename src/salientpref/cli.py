"""Command-line entry point: reproducible simulate / fit / evaluate pipelines.

Every subcommand writes its primary outputs plus a run manifest (subcommand,
flags, seed, library, numpy and Python versions, input digests) sufficient to
reproduce the run; identical flags and inputs produce byte-identical primary
outputs, while timestamps and the process's peak resident memory
(``peak_rss_mb``) live only in the manifest.  An input that is not a regular
file, such as a pipe, has digest null: it has been read once and is not
opened again.  Exit codes: 0 success, 1 runtime failure, 2 usage error.

All simulation randomness flows from the single ``--seed`` through numpy
SeedSequence chains: [seed, 0] draws the features, [seed, 1] the true
weights, [seed, 2] the comparisons; random selection functions draw each
pair's subset from SeedSequence([spec_seed, i, j]).

``sweep`` runs one task per (selection, seed) instance.  A task simulates the
instance, realizes its selection and computes the true ranking and the true
model's transitivity and inconsistency rates once; then, for each m of the
grid, it samples m comparisons from stream [seed, 2], fits and ranks.  The
four rates are repeated on every m row.  ``workers`` processes map over the
instances, at most one per instance and one per CPU.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import functools
import hashlib
import inspect
import json
import math
import os
import pathlib
import platform
import stat
import sys

import numpy as np

from . import __version__, dataio, diagnostics, theory
from .errors import NotSingleCoordinateError, PreconditionError, SalientPrefError
from .estimator import fit
from .features import FeatureMatrix, check_int
from .model import all_pair_probabilities, check_ridge, sample_comparisons
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
    "[seed,1] weights, [seed,2] comparisons as counts per pair (binomial "
    "splits of the pair index level by level, then the pair of each "
    "single-comparison node, then the wins per pair); random selections use "
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


def _sha256(path: str) -> str | None:
    """The sha256 of a regular file.  None for anything else, such as a pipe
    or a FIFO: the stage has already read it, and it cannot be read again."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _peak_rss_mb() -> float:
    """This process's peak resident set in MB: VmHWM from /proc/self/status,
    else ``ru_maxrss``, which on Linux also covers the spawning process."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource  # POSIX only

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


def _write_manifest(path, subcommand: str, args: argparse.Namespace, inputs: list[str],
                    data_shape: dict | None = None):
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
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "input_digests": {p: _sha256(p) for p in inputs},
        "peak_rss_mb": _peak_rss_mb(),
        "seed_scheme": SEED_SCHEME,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if data_shape is not None:
        manifest["data_shape"] = data_shape
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
    data = sample_comparisons(sel, w_star, args.m, _derived_seed(args.seed, 2))
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
    shape = {"n": args.n, "d": args.d, "m": args.m, "distinct_pairs": int(data.total.size)}
    _write_manifest(str(out / "manifest.json"), "simulate", args, [], shape)
    return 0


def cmd_fit(args) -> int:
    fm = dataio.load_features(args.features)
    data = dataio.load_comparisons(args.comparisons, fm)
    sel = realize(args.selection, fm)
    result = fit(sel, data, mu=args.mu, tol_grad=args.tol)
    payload = result.to_dict()
    payload["m"] = len(data)
    payload["mu"] = args.mu
    payload["selection"] = args.selection.to_dict()
    dataio.write_json(args.out, payload)
    _write_manifest(args.out + ".manifest.json", "fit", args, [args.features, args.comparisons])
    return 0


def cmd_rank(args) -> int:
    fm = dataio.load_features(args.features)
    w = dataio.load_weights_json(args.weights)
    ranking = rank_from_weights(fm, w)
    utilities = fm.matrix.T @ w
    dataio.save_ranking_csv(args.out, fm, ranking.order(), utilities)
    _write_manifest(args.out + ".manifest.json", "rank", args, [args.features, args.weights])
    return 0


def cmd_evaluate(args) -> int:
    fm = dataio.load_features(args.features)
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
            "value": pairwise_accuracy(sel, w, data),
            "m": len(data),
            "selection": args.selection.to_dict(),
        }
        inputs.append(args.comparisons)
    dataio.write_json(args.out, payload)
    _write_manifest(args.out + ".manifest.json", "evaluate", args, inputs)
    return 0


def cmd_diagnose(args) -> int:
    fm = dataio.load_features(args.features)
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
        model_probs = all_pair_probabilities(realize(args.selection, fm), w)
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
    fm = dataio.load_features(args.features)
    sel = realize(args.selection, fm)
    inputs = [args.features]
    w = None
    if args.weights:
        w = dataio.load_weights_json(args.weights)
        inputs.append(args.weights)
    certificate = theory.sample_complexity_report(sel, w_star=w, delta=args.delta)
    payload: dict = {
        "selection": args.selection.to_dict(),
        "identifiability": {
            "identifiable": certificate.identifiable,
            "rank": certificate.rank,
            "d": certificate.d,
        },
        "certificate": certificate.to_dict(),
    }
    if args.selection.kind == "full" and fm.n > fm.d:
        payload["full_selection"] = theory.full_selection_report(
            fm, w_star=w, delta=args.delta
        ).to_dict()
    try:
        payload["single_coordinate"] = theory.single_coordinate_report(
            sel, w_star=w, delta=args.delta
        ).to_dict()
    except NotSingleCoordinateError:
        pass
    if w is not None:
        payload["b_star"] = certificate.b_star
        payload["ranking_recovery"] = theory.ranking_recovery_report(certificate, k=1).to_dict()
    dataio.write_json(args.out, payload)
    _write_manifest(args.out + ".manifest.json", "theory", args, inputs)
    return 0


def _sweep_instance(task: tuple) -> list[tuple]:
    d, n, sel_json, m_grid, seed, mu = task
    fm, w_star = _simulate_instance(d, n, seed)
    sel = realize(SelectionSpec.from_json(sel_json), fm)
    true_rank = rank_from_weights(fm, w_star)
    pairs, probs = all_pairs(n), all_pair_probabilities(sel, w_star)
    report = diagnostics.count_transitivity_violations(*pairs, probs)
    rates = {
        "strong_rate": report.rate("strong") or 0.0,
        "moderate_rate": report.rate("moderate") or 0.0,
        "weak_rate": report.rate("weak") or 0.0,
        "inconsistency_rate": diagnostics.pairwise_inconsistency(*pairs, probs, true_rank).rate,
    }
    rows = []
    for m in m_grid:
        result = fit(sel, sample_comparisons(sel, w_star, m, _derived_seed(seed, 2)), mu=mu)
        est_rank = rank_from_weights(fm, result.w_hat)
        metrics = {
            "w_error": float(np.linalg.norm(result.w_hat - w_star)),
            "kendall_tau": kendall_correlation(true_rank, est_rank),
            "kendall_distance": float(kendall_distance(true_rank, est_rank)),
            "converged": float(result.converged),
            **rates,
        }
        rows += [(sel_json, m, seed, name, value) for name, value in metrics.items()]
    return rows


def _distinct(key: str, values: list) -> list:
    """A sweep-spec array whose entries appear once each: a repeat would repeat rows."""
    seen = set()
    for value in values:
        if value in seen:
            raise PreconditionError(f"sweep spec {key} repeats {value!r}")
        seen.add(value)
    return values


def cmd_sweep(args) -> int:
    spec = dataio.read_json(args.spec)
    if not isinstance(spec, dict):
        raise PreconditionError(f"sweep spec must be a JSON object, got {type(spec).__name__}")
    extra = set(spec) - {"d", "n", "selections", "m_grid", "seeds", "mu", "workers"}
    if extra:
        raise PreconditionError(f"unknown sweep spec keys: {sorted(extra)}")
    for key in ("d", "n", "selections", "m_grid", "seeds"):
        if key not in spec:
            raise PreconditionError(f"sweep spec missing key {key!r}")
    for key in ("selections", "m_grid", "seeds"):
        if not isinstance(spec[key], list):
            raise PreconditionError(
                f"sweep spec {key} must be an array, got {type(spec[key]).__name__}"
            )
        if not spec[key]:
            raise PreconditionError(f"sweep spec {key} must not be empty")
    d = check_int("sweep spec d", spec["d"], 1)
    n = check_int("sweep spec n", spec["n"], 3)
    mu = check_ridge(spec.get("mu", 0.0), "sweep spec mu")
    workers = check_int("sweep spec workers", spec.get("workers", 1), 1)
    selections = [SelectionSpec.from_dict(s).to_json() for s in spec["selections"]]
    selections = _distinct("selections", selections)
    m_grid = [check_int("sweep spec m_grid entry", m, 1) for m in spec["m_grid"]]
    m_grid = _distinct("m_grid", m_grid)
    seeds = [check_int("sweep spec seeds entry", seed, 0) for seed in spec["seeds"]]
    seeds = _distinct("seeds", seeds)
    tasks = [(d, n, sel_json, m_grid, seed, mu) for sel_json in selections for seed in seeds]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_sweep_instance, tasks))
    else:
        chunks = [_sweep_instance(t) for t in tasks]
    rows = sorted(row for chunk in chunks for row in chunk)
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    columns = [np.array(c, dtype=object) for c in zip(*rows)]
    columns[-1] = columns[-1].astype(np.float64)  # csv writes a float by repr
    header = ["selection", "m", "seed", "metric", "value"]
    dataio._write_rows(str(out / "sweep.csv"), header, columns)
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
    p.add_argument(
        "--tol", type=float, default=inspect.signature(fit).parameters["tol_grad"].default
    )
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: ``main`` runs once per
    stage, and a caller may run many stages in one process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (SalientPrefError, OSError, ValueError, KeyError) as exc:
        print(f"salientpref {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
