"""CSV and JSON file formats.

Three CSV schemas, UTF-8 with ``.`` decimals and no locale handling:

* features: header ``item_id,f1,...,fd``, one row per item;
* comparisons: header ``winner_id,loser_id,count``, count >= 1 adds that
  many outcomes to the pair's counts;
* rankings: header ``ranker_id,rank,item_id``, each ranker listing a strict
  gapless 1..k ranking of a subset of items.

Reports are written as JSON with sorted keys so identical runs produce
identical bytes.  Feature standardization is (x - mean) / std per feature
with the population convention (divisor n); a zero-variance feature is
shifted but not scaled, and flagged.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, PreconditionError, UnknownItemError
from .features import FeatureMatrix
from .model import MAX_COUNT, ComparisonDataset, sum_counts


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature mean/std used for standardization; constant features keep
    divisor 1 and are listed in ``constant_features``."""

    mean: np.ndarray
    std: np.ndarray
    constant_features: tuple[int, ...]

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "FeatureStats":
        mean = matrix.mean(axis=1)
        std = matrix.std(axis=1)
        constant = tuple(int(k) for k in np.nonzero(std == 0.0)[0])
        safe = std.copy()
        safe[std == 0.0] = 1.0
        return cls(mean, safe, constant)

    def apply(self, matrix: np.ndarray) -> np.ndarray:
        return (matrix - self.mean[:, None]) / self.std[:, None]


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_rows(path: str, expected_header: list[str] | None = None):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(str(path), 1, "empty file") from None
        rows = [(lineno, row) for lineno, row in enumerate(reader, start=2) if row]
    return header, rows


def save_features(path: str, fm: FeatureMatrix) -> None:
    d = fm.d
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_id"] + [f"f{k + 1}" for k in range(d)])
        for j, item in enumerate(fm.item_ids):
            writer.writerow([item] + [_fmt(v) for v in fm.matrix[:, j]])


def load_features(
    path: str,
    standardize: bool = False,
    stats_from: str | None = None,
) -> tuple[FeatureMatrix, FeatureStats | None]:
    """Read a features CSV; optionally standardize.

    With ``stats_from``, the mean/std come from that file (train-set stats
    applied to an evaluation set) instead of from ``path``.  Returns the
    matrix together with the stats actually applied (None when raw).
    """
    header, rows = _read_rows(path)
    if len(header) < 2 or header[0] != "item_id":
        raise ParseError(str(path), 1, "expected header item_id,f1,...,fd")
    d = len(header) - 1
    ids: list[str] = []
    seen: set[str] = set()
    cols: list[list[float]] = []
    for lineno, row in rows:
        if len(row) != d + 1:
            raise ParseError(str(path), lineno, f"expected {d + 1} cells, got {len(row)}")
        item = row[0]
        if item in seen:
            raise ParseError(str(path), lineno, f"duplicate item id {item!r}")
        seen.add(item)
        try:
            vals = [float(c) for c in row[1:]]
        except ValueError:
            raise ParseError(str(path), lineno, "non-numeric feature cell") from None
        if not all(np.isfinite(vals)):
            raise ParseError(str(path), lineno, "non-finite feature value")
        ids.append(item)
        cols.append(vals)
    matrix = np.asarray(cols, dtype=np.float64).T  # rows are items on disk
    stats = None
    if standardize:
        if stats_from is not None:
            source, _ = load_features(stats_from, standardize=False)
            stats = FeatureStats.from_matrix(source.matrix)
        else:
            stats = FeatureStats.from_matrix(matrix)
        if stats.constant_features:
            warnings.warn(
                f"features {list(stats.constant_features)} have zero variance; "
                "shifted but not scaled",
                stacklevel=2,
            )
        matrix = stats.apply(matrix)
    return FeatureMatrix(matrix, tuple(ids)), stats


def save_comparisons(path: str, data: ComparisonDataset, fm: FeatureMatrix) -> None:
    """Canonical ``winner_id,loser_id,count`` rows, one per pair and winner
    with a nonzero count, sorted."""
    ids = fm.item_ids
    pairs = list(zip(data.pair_i.tolist(), data.pair_j.tolist()))
    losses = (data.total - data.wins).tolist()
    rows = [(ids[a], ids[b], c) for (a, b), c in zip(pairs, data.wins.tolist()) if c]
    rows += [(ids[b], ids[a], c) for (a, b), c in zip(pairs, losses) if c]
    rows.sort()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["winner_id", "loser_id", "count"])
        for winner, loser, count in rows:
            writer.writerow([winner, loser, str(count)])


def load_comparisons(
    path: str,
    fm: FeatureMatrix,
    min_count: int = 0,
) -> ComparisonDataset:
    """Read comparisons; drop pairs observed fewer than ``min_count`` times.

    Each row's count is added to its canonical pair (i < j): to the pair's
    total, and to its wins when the winner is i.  The pair total for the
    filter sums both orientations.  A row's count and each pair's total may
    be at most 2**53, the largest count held exactly.
    """
    header, rows = _read_rows(path)
    if header != ["winner_id", "loser_id", "count"]:
        raise ParseError(str(path), 1, "expected header winner_id,loser_id,count")
    n = fm.n
    keys: list[int] = []
    won: list[bool] = []
    counts: list[int] = []
    lines: list[int] = []
    for lineno, row in rows:
        if len(row) != 3:
            raise ParseError(str(path), lineno, f"expected 3 cells, got {len(row)}")
        winner, loser, count_text = row
        try:
            count = int(count_text)
        except ValueError:
            raise ParseError(str(path), lineno, f"bad count {count_text!r}") from None
        if count < 1:
            raise ParseError(str(path), lineno, f"count must be >= 1, got {count}")
        if count > MAX_COUNT:
            raise ParseError(str(path), lineno, f"count {count} exceeds 2**53")
        if winner == loser:
            raise ParseError(str(path), lineno, f"item {winner!r} compared with itself")
        try:
            wi = fm.index_of(winner)
        except KeyError:
            raise UnknownItemError(f"{path}:{lineno}: unknown item id {winner!r}") from None
        try:
            li = fm.index_of(loser)
        except KeyError:
            raise UnknownItemError(f"{path}:{lineno}: unknown item id {loser!r}") from None
        keys.append(min(wi, li) * n + max(wi, li))
        won.append(wi < li)
        counts.append(count)
        lines.append(lineno)
    count = np.asarray(counts, dtype=np.int64)
    pairs, groups = np.unique(np.asarray(keys, dtype=np.int64), return_inverse=True)
    total, over = sum_counts(groups, count, pairs.size)
    if over is not None:
        raise ParseError(str(path), lines[over], "pair total exceeds 2**53")
    wins, _ = sum_counts(groups, np.where(won, count, 0), pairs.size)
    keep = total >= min_count
    pairs = pairs[keep]
    return ComparisonDataset(pairs // n, pairs % n, wins[keep], total[keep], n)


@dataclass(frozen=True)
class SubsetRanking:
    """One ranker's strict ordering (best to worst) of a subset of items."""

    ranker_id: str
    items: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.items)


def load_rankings(path: str, fm: FeatureMatrix) -> list[SubsetRanking]:
    """Read k-wise rankings, restricted to items the feature file knows.

    Per ranker the stated ranks must be exactly 1..k with no ties or gaps.
    Items missing from the features are dropped and ranks re-compacted;
    rankers left with fewer than 2 items are dropped with a warning.
    """
    header, rows = _read_rows(path)
    if header != ["ranker_id", "rank", "item_id"]:
        raise ParseError(str(path), 1, "expected header ranker_id,rank,item_id")
    by_ranker: dict[str, list[tuple[int, str, int]]] = {}
    order: list[str] = []
    for lineno, row in rows:
        if len(row) != 3:
            raise ParseError(str(path), lineno, f"expected 3 cells, got {len(row)}")
        ranker, rank_text, item = row
        try:
            rank = int(rank_text)
        except ValueError:
            raise ParseError(str(path), lineno, f"bad rank {rank_text!r}") from None
        if ranker not in by_ranker:
            by_ranker[ranker] = []
            order.append(ranker)
        by_ranker[ranker].append((rank, item, lineno))
    out: list[SubsetRanking] = []
    for ranker in order:
        entries = sorted(by_ranker[ranker])
        ranks = [r for r, _, _ in entries]
        if len(set(ranks)) != len(ranks):
            raise ParseError(str(path), entries[0][2], f"ranker {ranker!r} repeats a rank")
        if ranks != list(range(1, len(ranks) + 1)):
            raise ParseError(
                str(path), entries[0][2], f"ranker {ranker!r} has gapped ranks {ranks}"
            )
        items = []
        for _, item, lineno in entries:
            try:
                items.append(fm.index_of(item))
            except KeyError:
                continue  # unknown item: drop, later ranks close the gap
        if len(items) < 2:
            warnings.warn(
                f"ranker {ranker!r} has fewer than 2 items with features; dropped",
                stacklevel=2,
            )
            continue
        out.append(SubsetRanking(ranker, tuple(items)))
    return out


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save_ranking_csv(path: str, fm: FeatureMatrix, order, utilities) -> None:
    """Estimated ranking output: ``rank,item_id,utility`` best first."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "item_id", "utility"])
        for r, item_idx in enumerate(order, start=1):
            writer.writerow([str(r), fm.item_ids[item_idx], _fmt(utilities[item_idx])])


def load_weights_json(path: str) -> np.ndarray:
    """Accept either a fit-result JSON (key ``w_hat``) or a plain ``w`` list.

    The weights must be a JSON array of JSON numbers; bools and strings are
    rejected, not coerced.
    """
    obj = read_json(path)
    if isinstance(obj, dict) and "w_hat" in obj:
        w = obj["w_hat"]
    elif isinstance(obj, dict) and "w" in obj:
        w = obj["w"]
    else:
        raise PreconditionError(f"{path}: expected a JSON object with 'w_hat' or 'w'")
    if not isinstance(w, list) or any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in w
    ):
        raise PreconditionError(f"{path}: weights must be a JSON array of numbers")
    return np.asarray(w, dtype=np.float64)
