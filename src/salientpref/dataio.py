"""CSV and JSON file formats.

Three CSV schemas, UTF-8 with ``.`` decimals and no locale handling:

* features: header ``item_id,f1,...,fd``, one row per item;
* comparisons: header ``winner_id,loser_id,count``, count >= 1 adds that
  many outcomes to the pair's counts;
* rankings: header ``ranker_id,rank,item_id``, each ranker listing a strict
  gapless 1..k ranking of a subset of items.

Reports are written by ``write_json``, whose bytes are always those of
``json.dump(payload, fh, indent=2, sort_keys=True)`` followed by a newline,
with every ``Records`` in the payload written as its ``tolist()``; identical
runs therefore produce identical bytes.  A ``Records`` holds listed rows
(violating triples, disagreeing pairs) as an int64 array plus a per-row
template.  Its rows stream from the array in chunks of ``CHUNK_ROWS``: per
chunk and column, one string is made for each distinct value (the template
text before the column, then the value), and the chunk is written as one
join of those strings.  No dict or list is built per row, and memory is
bounded by the chunk, not by the listing.

Feature standardization is (x - mean) / std per feature with the population
convention (divisor n); a zero-variance feature is shifted but not scaled,
and flagged.
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


def _read_rows(path: str):
    """The header and the non-empty records, each with its first physical line
    (a quoted field may span lines)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(str(path), 1, "empty file") from None
        rows = []
        lineno = reader.line_num + 1
        for row in reader:
            if row:
                rows.append((lineno, row))
            lineno = reader.line_num + 1
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


def _row_error(path: str, lineno: int, row: list[str], index: dict) -> Exception | None:
    """The error of the first check that one comparisons row fails, or None."""
    if len(row) != 3:
        return ParseError(str(path), lineno, f"expected 3 cells, got {len(row)}")
    winner, loser, count_text = row
    try:
        count = int(count_text)
    except ValueError:
        return ParseError(str(path), lineno, f"bad count {count_text!r}")
    if count < 1:
        return ParseError(str(path), lineno, f"count must be >= 1, got {count}")
    if count > MAX_COUNT:
        return ParseError(str(path), lineno, f"count {count} exceeds 2**53")
    if winner == loser:
        return ParseError(str(path), lineno, f"item {winner!r} compared with itself")
    for item in (winner, loser):
        if item not in index:
            return UnknownItemError(f"{path}:{lineno}: unknown item id {item!r}")
    return None


def _checked_columns(rows: list, index: dict):
    """The winner indices, loser indices and counts of rows that all pass, else None."""
    try:
        count = np.array([int(text) for _, (_, _, text) in rows], dtype=np.int64)
    except (ValueError, OverflowError):  # a ragged row, a bad count, or beyond int64
        return None
    wi = np.array([index.get(row[0], -1) for _, row in rows], dtype=np.int64)
    li = np.array([index.get(row[1], -1) for _, row in rows], dtype=np.int64)
    if np.any((count < 1) | (count > MAX_COUNT) | (wi == li) | (wi < 0) | (li < 0)):
        return None
    return wi, li, count


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
    # the rows are checked column-wise; if any fails, the first bad row in
    # file order is found by the per-row checks, for its message and line
    columns = _checked_columns(rows, fm._id_index)
    if columns is None:
        for lineno, row in rows:
            error = _row_error(path, lineno, row, fm._id_index)
            if error is not None:
                raise error
    wi, li, count = columns
    pairs, groups = np.unique(np.minimum(wi, li) * n + np.maximum(wi, li), return_inverse=True)
    total, over = sum_counts(groups, count, pairs.size)
    if over is not None:
        raise ParseError(str(path), rows[over][0], "pair total exceeds 2**53")
    wins, _ = sum_counts(groups, np.where(wi < li, count, 0), pairs.size)
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


CHUNK_ROWS = 4096


@dataclass(frozen=True)
class Column:
    """A ``Records`` template leaf: column ``index`` of the row, written as a
    JSON int, or as ``true``/``false`` (nonzero/zero) when ``boolean``."""

    index: int
    boolean: bool = False


@dataclass(frozen=True, eq=False)
class Records:
    """Rows of a read-only 2-d int64 array, each listed as ``template`` with
    every ``Column`` filled in from the row.

    The template is JSON data (dicts with str keys, lists, scalars) whose
    ``Column`` leaves name the array's columns.
    """

    rows: np.ndarray
    template: object

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.int64)
        if rows.ndim != 2:
            raise ValueError(f"records need a 2-d array, got ndim={rows.ndim}")
        if rows.flags.writeable:
            rows = rows.view()
            rows.setflags(write=False)
        for token in _frame(self.template, 0, Column):
            if not isinstance(token, str) and not 0 <= token[0].index < rows.shape[1]:
                raise ValueError(f"template column {token[0].index} outside {rows.shape[1]} columns")
        object.__setattr__(self, "rows", rows)

    def tolist(self) -> list:
        """The rows as plain JSON data: one filled-in template per row."""
        return [_fill(self.template, row) for row in self.rows.tolist()]

    def _write(self, fh, level: int) -> None:
        """Write the list as ``json.dump`` would at nesting ``level``."""
        if not len(self.rows):
            fh.write("[]")
            return
        # each run of template text becomes the prefix of the Column after it
        prefixes, columns, text = [], [], "\n" + "  " * (level + 1)
        for token in _frame(self.template, level + 1, Column):
            if isinstance(token, str):
                text += token
            else:
                prefixes.append(text)
                columns.append(token[0])
                text = ""
        width = len(columns) + 1
        for start in range(0, len(self.rows), CHUNK_ROWS):
            chunk = self.rows[start : start + CHUNK_ROWS]
            # a row's pieces: one string per column, then the text after the
            # last column and, for every row but the chunk's last, a comma
            pieces = [text + ","] * (len(chunk) * width)
            pieces[-1] = text
            for k, (prefix, column) in enumerate(zip(prefixes, columns)):
                cells = chunk[:, column.index]
                if column.boolean:
                    values, which = ("false", "true"), (cells != 0).astype(np.intp)
                else:
                    values, which = np.unique(cells, return_inverse=True)
                strings = np.array([prefix + str(v) for v in values], dtype=object)
                pieces[k::width] = strings[which].tolist()
            fh.write(("," if start else "[") + "".join(pieces))
        fh.write("\n" + "  " * level + "]")


def _fill(template, row: list):
    if isinstance(template, Column):
        value = row[template.index]
        return value != 0 if template.boolean else value
    if isinstance(template, dict):
        return {key: _fill(value, row) for key, value in template.items()}
    if isinstance(template, (list, tuple)):
        return [_fill(value, row) for value in template]
    return template


def _holds(obj, kind: type) -> bool:
    if isinstance(obj, kind):
        return True
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return False
    return any(_holds(value, kind) for value in obj)


def _frame(obj, level: int, kind: type):
    """The text ``json.dumps(obj, indent=2, sort_keys=True)`` writes for
    ``obj`` nested at ``level``, as tokens: ``(node, level)`` in place of each
    node of type ``kind``, text otherwise.

    Every subtree without such a node is written by ``json.dumps``, whose
    output holds no raw newline inside a string, so indenting it is safe;
    only the dicts and lists that hold such a node are framed here, as
    ``json`` frames them.
    """
    if isinstance(obj, kind):
        yield obj, level
    elif not _holds(obj, kind):
        yield json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + "  " * level)
    else:
        inner = "\n" + "  " * (level + 1)
        is_dict = isinstance(obj, dict)
        yield "{" if is_dict else "["
        for k, item in enumerate(sorted(obj.items()) if is_dict else obj):
            yield "," + inner if k else inner
            if is_dict:
                key, item = item
                if not isinstance(key, str):
                    raise TypeError(f"keys around listed records must be str, got {key!r}")
                yield json.dumps(key) + ": "
            yield from _frame(item, level + 1, kind)
        yield "\n" + "  " * level + ("}" if is_dict else "]")


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as ``json.dump(indent=2, sort_keys=True)`` plus a
    newline would, each ``Records`` in it written as its ``tolist()``.

    The ``Records`` are found by walking the payload, so no string in it can
    stand in for one.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for token in _frame(payload, 0, Records):
            if isinstance(token, str):
                fh.write(token)
            else:
                token[0]._write(fh, token[1])
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
