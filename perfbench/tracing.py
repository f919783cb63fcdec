"""Spans and counts around the calls into each salientpref layer.

The tracer wraps module functions from outside the package: each wrapper is
installed under every name a caller looks it up by (``cli`` does ``from
.estimator import fit``, so ``salientpref.cli.fit`` is replaced along with
``estimator.fit``), and ``_kernels`` attributes are replaced in that module
because the package calls them through it.  A target missing from the
source (a kernel a later change deleted) is reported as absent, not as a
failure.

A span is (name, start, end, parent, run id).  Counting work done at a
boundary (for example distinct pairs in a design matrix) costs time of its
own; that bookkeeping is timed and taken out of every enclosing span, so a
span's self time is its duration minus its children and minus bookkeeping.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import Counter

import numpy as np


def _count_load_comparisons(counts, result, args, kwargs):
    with open(args[0], encoding="utf-8") as fh:
        counts["dataio.comparison_rows"] += sum(1 for line in fh if line.strip()) - 1
    counts["dataio.samples_expanded"] += len(result)


def _count_write_json(counts, result, args, kwargs):
    counts["dataio.json_bytes"] += os.path.getsize(args[0])


def _count_design_matrix(counts, result, args, kwargs):
    data = args[1]
    n = int(data.n_items)
    counts["model.design_rows"] += int(result.shape[0])
    flat = data.i * n + data.j
    counts["model.distinct_pairs"] += int(np.count_nonzero(np.bincount(flat, minlength=1)))


def _count_fit(counts, result, args, kwargs):
    counts["estimator.fit_iterations"] += int(result.iterations)
    counts["estimator.fit_converged"] += int(bool(result.converged))


def _count_fold(counts, result, args, kwargs):
    rows, d = args[0].shape
    counts["kernels.fold_rows"] += rows
    counts["kernels.fold_mb_computed"] += rows * d * 8 / 1e6


def _count_zeta(counts, result, args, kwargs):
    counts["kernels.zeta_pairs"] += int(args[1].shape[0])


def _count_triples(counts, result, args, kwargs):
    counts["kernels.triples_scanned"] += math.comb(int(args[0].shape[0]), 3)


def _count_diff_table(counts, result, args, kwargs):
    counts["selection.pairs"] += int(result.shape[0])


def _count_report(counts, result, args, kwargs):
    counts["diagnostics.triples_checked"] += int(result.triples_checked)
    counts["diagnostics.violations_listed"] += len(result.violations)


# (span name, module under salientpref, attribute path, counter or None)
TARGETS = (
    ("dataio.load_features", "dataio", "load_features", None),
    ("dataio.load_comparisons", "dataio", "load_comparisons", _count_load_comparisons),
    ("dataio.save_features", "dataio", "save_features", None),
    ("dataio.save_comparisons", "dataio", "save_comparisons", None),
    ("dataio.write_json", "dataio", "write_json", _count_write_json),
    ("dataio.read_json", "dataio", "read_json", None),
    ("dataio.load_weights_json", "dataio", "load_weights_json", None),
    ("dataio.save_ranking_csv", "dataio", "save_ranking_csv", None),
    ("selection.diff_table", "selection", "RealizedSelection._build_diff_table", _count_diff_table),
    ("model.sample_comparisons", "model", "sample_comparisons", None),
    ("model.aggregate", "model", "ComparisonDataset.aggregate", None),
    ("model.design_matrix", "model", "design_matrix", _count_design_matrix),
    ("model.all_pair_probabilities", "model", "all_pair_probabilities", None),
    ("estimator.fit", "estimator", "fit", _count_fit),
    ("estimator.max_abs_margin", "estimator", "max_abs_margin", None),
    ("kernels.nll_value", "_kernels", "nll_value", _count_fold),
    ("kernels.nll_grad", "_kernels", "nll_grad", _count_fold),
    ("kernels.nll_hess", "_kernels", "nll_hess", _count_fold),
    ("kernels.sym_eigvals", "_kernels", "sym_eigvals", None),
    ("kernels.zeta_scan", "_kernels", "zeta_scan", _count_zeta),
    ("kernels.transitivity_scan", "_kernels", "transitivity_scan", _count_triples),
    ("theory.identifiability_check", "theory", "identifiability_check", None),
    ("theory.sample_complexity_report", "theory", "sample_complexity_report", None),
    ("theory.ranking_recovery_report", "theory", "ranking_recovery_report", None),
    ("theory.full_selection_report", "theory", "full_selection_report", None),
    ("theory.single_coordinate_report", "theory", "single_coordinate_report", None),
    ("diagnostics.empirical_pair_stats", "diagnostics", "empirical_pair_stats", None),
    ("diagnostics.count_transitivity_violations", "diagnostics", "count_transitivity_violations",
     _count_report),
    ("diagnostics.model_transitivity_report", "diagnostics", "model_transitivity_report",
     _count_report),
    ("diagnostics.pairwise_inconsistency", "diagnostics", "pairwise_inconsistency", None),
    ("diagnostics.report_to_dict", "diagnostics", "TransitivityReport.to_dict", None),
    ("ranking.rank_from_weights", "ranking", "rank_from_weights", None),
    ("ranking.pairwise_accuracy", "ranking", "pairwise_accuracy", None),
    ("ranking.kendall", "ranking", "kendall_distance", None),
    ("ranking.kendall", "ranking", "kendall_correlation", None),
    ("ranking.utility_gaps", "ranking", "utility_gaps", None),
    ("cli.manifest", "cli", "_write_manifest", None),
)


class Tracer:
    """Spans kept in memory for one session; written out when the run ends."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.bookkeeping = 0.0  # seconds spent recording, taken out of spans
        self.absent: list[str] = []

    def call(self, name, fn, counter, args, kwargs):
        t_in = time.perf_counter()
        span = {"name": name, "parent": self.stack[-1] if self.stack else None,
                "run_id": self.run_id}
        self.stack.append(len(self.spans))
        self.spans.append(span)
        book0 = self.bookkeeping
        t0 = time.perf_counter()
        self.bookkeeping += t0 - t_in
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:  # recorded on the span, then re-raised
            span["error"] = repr(exc)
            raise
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            span["start"] = t0 - self.origin
            span["end"] = t1 - self.origin
            span["net_s"] = (t1 - t0) - (self.bookkeeping - book0)
        if counter is not None:
            counter(self.counts, result, args, kwargs)
        self.bookkeeping += time.perf_counter() - t1
        return result

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, counter, args, kwargs)

        return traced

    def install(self) -> None:
        """Replace every target under each name the package binds it to."""
        loaded = [m for k, m in sys.modules.items() if k == "salientpref" or k.startswith("salientpref.")]
        for name, module, path, counter in TARGETS:
            *cls_path, attr = path.split(".")
            try:
                owner = importlib.import_module(f"salientpref.{module}")
                for part in cls_path:
                    owner = getattr(owner, part)
            except (ImportError, AttributeError):
                owner = None
            orig = vars(owner).get(attr) if owner is not None else None
            if orig is None:
                self.absent.append(f"{module}.{path}")
                continue
            traced = self.wrap(name, orig, counter)
            setattr(owner, attr, traced)
            if cls_path:
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)

    def self_times(self) -> None:
        """Fill each span's ``self_s``: its net time minus its children's."""
        for span in self.spans:
            span["self_s"] = span["net_s"]
        for span in self.spans:
            if span["parent"] is not None:
                self.spans[span["parent"]]["self_s"] -= span["net_s"]

    def layer_metrics(self) -> dict:
        """``<name>_s`` (summed self time) and ``<name>_calls`` per span name."""
        self.self_times()
        out: dict = {}
        for span in self.spans:
            out[span["name"] + "_s"] = out.get(span["name"] + "_s", 0.0) + span["self_s"]
            out[span["name"] + "_calls"] = out.get(span["name"] + "_calls", 0) + 1
        out.update(self.counts)
        return out
