"""CSV and JSON file formats.

Three CSV schemas, UTF-8 with ``.`` decimals and no locale handling:

* features: header ``item_id,f1,...,fd``, one row per item;
* comparisons: header ``winner_id,loser_id,count``, count >= 1 adds that
  many outcomes to the pair's counts;
* rankings: header ``ranker_id,rank,item_id``, each ranker listing a strict
  gapless 1..k ranking of a subset of items.

Comparisons are read by ``csv.reader`` in chunks of at most ``_CSV_CHUNK``
non-empty records, each record with the physical line it began on.  Each
chunk is checked and converted a column at a time (row lengths, ``int`` of
the counts, item ids through the id index, then one numpy check of the
values), and only its int64 column arrays, its line numbers among them,
outlive it.  When a chunk fails a check, its records are checked one at a
time (``_row_error``) to raise the first bad one with its line; a pair total
beyond 2**53 takes its line from the kept line numbers.  The file is read
once, so a pipe serves as well as a regular file.  The writers order rows
with numpy and hand them to ``csv.writer`` a chunk at a time.  Features and
rankings keep the per-record reader: their files are small, and the
rankings' checks are per ranker.

Reports are written by ``write_json`` as ``json.dump(payload, fh, indent=2,
sort_keys=True)`` followed by a newline would write them, except for each
``Listing`` in the payload (violating triples, disagreeing pairs): its rows go
one to a line, each ``json.dumps(row, sort_keys=True)`` with the indent that
``indent=2`` gives an element at its depth, so ``json.load`` reads the same
values and a row takes one line where ``indent=2`` spreads it over up to ten.
Identical runs produce identical bytes.  A listing is written in chunks of
``CHUNK_ROWS`` rows: its owner gives a few tables of row text, made once, and
each chunk's rows as indices into them, so a chunk is one join of one gather
per table.  No dict or list is built per row; the writer's memory is the
tables plus one chunk's codes and text, not the listing.

Features are read as written.  ``FeatureStats`` is the one standardization
rule: (x - mean) / std per feature with the population convention (divisor
n), where a zero-variance feature is shifted but not scaled and listed in
``constant_features``.  Stats taken from training features by ``from_matrix``
can be applied to evaluation features by ``apply``.
"""

from __future__ import annotations

import csv
import json
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ParseError, PreconditionError, UnknownItemError
from .features import FeatureMatrix, check_int
from .model import MAX_COUNT, ComparisonDataset, merge_pairs


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


# Records per chunk.  A constant: the chunk's records and line numbers are the
# comparisons loader's only per-record objects, and a larger chunk puts more
# of them in the high-water mark.
_CSV_CHUNK = 1024


def _csv_header(reader, path: str) -> list[str]:
    try:
        return next(reader)
    except StopIteration:
        raise ParseError(str(path), 1, "empty file") from None


def _chunks(reader):
    """The non-empty records left in ``reader``, at most ``_CSV_CHUNK`` at a
    time and in file order, as a list of their first physical lines (a quoted
    field may span lines) and a list of the records."""
    lines, rows = [], []
    lineno = reader.line_num + 1
    for row in reader:
        if row:
            lines.append(lineno)
            rows.append(row)
            if len(rows) == _CSV_CHUNK:
                yield lines, rows
                lines, rows = [], []
        lineno = reader.line_num + 1
    if rows:
        yield lines, rows


def _read_rows(path: str):
    """The header and the (first physical line, record) pairs of a whole file."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = _csv_header(reader, path)
        return header, [record for chunk in _chunks(reader) for record in zip(*chunk)]


def _write_rows(path: str, header: list[str], columns) -> None:
    """``header``, then one record per position of the equal-length 1-d arrays
    ``columns``, a chunk at a time: ``csv.writer`` writes a str as it is (quoted
    when it must be), an int by ``str`` and a float by ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, len(columns[0]), _CSV_CHUNK):
            writer.writerows(zip(*(c[start : start + _CSV_CHUNK].tolist() for c in columns)))


def save_features(path: str, fm: FeatureMatrix) -> None:
    header = ["item_id"] + [f"f{k + 1}" for k in range(fm.d)]
    _write_rows(path, header, (np.asarray(fm.item_ids, dtype=object), *fm.matrix))


def load_features(path: str) -> FeatureMatrix:
    """Read a features CSV; the values are returned as written."""
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
    return FeatureMatrix(matrix, tuple(ids))


def save_comparisons(path: str, data: ComparisonDataset, fm: FeatureMatrix) -> None:
    """Canonical ``winner_id,loser_id,count`` rows, one per pair and winner
    with a nonzero count, sorted by winner id, then loser id, in Python's
    string order."""
    losses = data.total - data.wins
    won, lost = data.wins > 0, losses > 0
    winner = np.concatenate([data.pair_i[won], data.pair_j[lost]])
    loser = np.concatenate([data.pair_j[won], data.pair_i[lost]])
    count = np.concatenate([data.wins[won], losses[lost]])
    ids = np.asarray(fm.item_ids, dtype=object)
    rank = np.empty(fm.n, dtype=np.int64)
    rank[np.argsort(ids)] = np.arange(fm.n)  # an object array sorts by Python's <
    order = np.lexsort((rank[loser], rank[winner]))
    header = ["winner_id", "loser_id", "count"]
    _write_rows(path, header, (ids[winner[order]], ids[loser[order]], count[order]))


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


def _comparison_block(lines: list, rows: list, index: dict):
    """The lines, winner indices, loser indices and counts of a chunk whose
    records all pass ``_row_error``, else None."""
    if set(map(len, rows)) != {3}:
        return None
    winners, losers, counts = zip(*rows)
    k = len(rows)
    try:
        count = np.fromiter(map(int, counts), np.int64, k)
    except (ValueError, OverflowError):  # a bad count, or one beyond int64
        return None
    wi = np.fromiter(map(index.get, winners, repeat(-1)), np.int64, k)
    li = np.fromiter(map(index.get, losers, repeat(-1)), np.int64, k)
    if np.any((count < 1) | (count > MAX_COUNT) | (wi == li) | (wi < 0) | (li < 0)):
        return None
    return np.fromiter(lines, np.int64, k), wi, li, count


def load_comparisons(
    path: str,
    fm: FeatureMatrix,
    min_count: int = 0,
) -> ComparisonDataset:
    """Read comparisons; drop pairs observed fewer than ``min_count`` times.

    Each row's count is added to its canonical pair (i < j): to the pair's
    total, and to its wins when the winner is i.  The pair total for the
    filter sums both orientations.  A row's count and each pair's total may
    be at most 2**53, the largest count held exactly.  ``min_count`` is an
    integer >= 0.
    """
    min_count = check_int("min_count", min_count, 0)
    n, index = fm.n, fm._id_index
    empty = np.empty(0, dtype=np.int64)
    blocks = [(empty, empty, empty, empty)]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if _csv_header(reader, path) != ["winner_id", "loser_id", "count"]:
            raise ParseError(str(path), 1, "expected header winner_id,loser_id,count")
        for lines, rows in _chunks(reader):
            block = _comparison_block(lines, rows, index)
            if block is None:  # raise the chunk's first bad record
                raise next(filter(None, map(_row_error, repeat(path), lines, rows, repeat(index))))
            blocks.append(block)
    line, wi, li, count = map(np.concatenate, zip(*blocks))
    del blocks  # copied into the columns: free them before the grouping peaks
    pairs, wins, total, over = merge_pairs(
        np.minimum(wi, li) * n + np.maximum(wi, li), np.where(wi < li, count, 0), count
    )
    if over is not None:
        raise ParseError(str(path), int(line[over]), "pair total exceeds 2**53")
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

    Per ranker the stated ranks must be exactly 1..k with no ties or gaps,
    and no item may be listed twice.
    Items missing from the features are dropped and ranks re-compacted;
    rankers left with fewer than 2 items are dropped with a warning.
    """
    header, rows = _read_rows(path)
    if header != ["ranker_id", "rank", "item_id"]:
        raise ParseError(str(path), 1, "expected header ranker_id,rank,item_id")
    by_ranker: dict[str, list[tuple[int, str, int]]] = {}
    order: list[str] = []
    listed: set[tuple[str, str]] = set()
    ranked: set[tuple[str, int]] = set()
    for lineno, row in rows:
        if len(row) != 3:
            raise ParseError(str(path), lineno, f"expected 3 cells, got {len(row)}")
        ranker, rank_text, item = row
        try:
            rank = int(rank_text)
        except ValueError:
            raise ParseError(str(path), lineno, f"bad rank {rank_text!r}") from None
        if (ranker, item) in listed:
            raise ParseError(str(path), lineno, f"ranker {ranker!r} repeats item {item!r}")
        if (ranker, rank) in ranked:
            raise ParseError(str(path), lineno, f"ranker {ranker!r} repeats a rank")
        listed.add((ranker, item))
        ranked.add((ranker, rank))
        if ranker not in by_ranker:
            by_ranker[ranker] = []
            order.append(ranker)
        by_ranker[ranker].append((rank, item, lineno))
    out: list[SubsetRanking] = []
    for ranker in order:
        entries = sorted(by_ranker[ranker])
        ranks = [r for r, _, _ in entries]
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


# Rows per chunk of a listing.  A chunk's text and its UTF-8 copy are the
# writer's largest objects, about 165 KB each for one-line triple rows; twice
# as many rows wrote no faster and raised the write's traced peak from 0.5 to
# 1.0 MB.
CHUNK_ROWS = 2048


@dataclass(frozen=True, eq=False)
class Listing:
    """Listed rows that ``write_json`` writes as a JSON list, one row a line.

    ``rows`` is the number of rows.  ``tables`` holds a few object arrays of
    strings: a row's text, ``json.dumps(row, sort_keys=True)``, is one string
    from each table, in order.  ``codes(index)`` gives the rows of the slice
    ``index`` as an int array with one column of table indices per table.
    """

    rows: int
    tables: tuple[np.ndarray, ...]
    codes: Callable[[slice], np.ndarray]

    def _write(self, fh, level: int) -> None:
        """Write the list nested at ``level``, each row on its own line with
        the indent ``json.dump(indent=2)`` gives an element there, a chunk of
        ``CHUNK_ROWS`` rows at a time, each chunk as one join of one gather
        per table."""
        if not self.rows:
            fh.write("[]")
            return
        inner = "\n" + "  " * (level + 1)
        width = len(self.tables) + 1  # a row's pieces, then what follows it
        fh.write("[" + inner)
        for start in range(0, self.rows, CHUNK_ROWS):
            codes = self.codes(slice(start, start + CHUNK_ROWS))
            pieces = ["," + inner] * (len(codes) * width)
            for k, table in enumerate(self.tables):
                pieces[k::width] = table[codes[:, k]].tolist()
            if start + CHUNK_ROWS >= self.rows:
                pieces[-1] = "\n" + "  " * level + "]"
            fh.write("".join(pieces))


def _holds(obj) -> bool:
    if isinstance(obj, Listing):
        return True
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return False
    return any(map(_holds, obj))


def _frame(fh, obj, level: int) -> None:
    """Write ``obj`` nested at ``level`` as ``json.dumps(obj, indent=2,
    sort_keys=True)`` would, each ``Listing`` in it as its list of one-line
    rows.

    Every subtree without a listing is written by ``json.dumps``, whose
    output holds no raw newline inside a string, so indenting it is safe;
    only the dicts and lists that hold a listing are framed here, as
    ``json`` frames them.
    """
    if isinstance(obj, Listing):
        obj._write(fh, level)
    elif not _holds(obj):
        fh.write(json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + "  " * level))
    else:
        inner = "\n" + "  " * (level + 1)
        is_dict = isinstance(obj, dict)
        fh.write("{" if is_dict else "[")
        for k, item in enumerate(sorted(obj.items()) if is_dict else obj):
            fh.write("," + inner if k else inner)
            if is_dict:
                key, item = item
                if not isinstance(key, str):
                    raise TypeError(f"keys around a listing must be str, got {key!r}")
                fh.write(json.dumps(key) + ": ")
            _frame(fh, item, level + 1)
        fh.write("\n" + "  " * level + ("}" if is_dict else "]"))


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as ``json.dump(indent=2, sort_keys=True)`` plus a
    newline would, except that each ``Listing`` in it is written one row a
    line, as ``json.dumps(row, sort_keys=True)``: ``json.load`` of the file
    gives the payload with each listing as the list of its rows.

    The listings are found by walking the payload, so no string in it can
    stand in for one.
    """
    with open(path, "w", encoding="utf-8") as fh:
        _frame(fh, payload, 0)
        fh.write("\n")


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save_ranking_csv(path: str, fm: FeatureMatrix, order, utilities) -> None:
    """Estimated ranking output: ``rank,item_id,utility`` best first."""
    order = np.asarray(order)
    columns = (np.arange(1, order.size + 1), np.asarray(fm.item_ids, dtype=object)[order],
               np.asarray(utilities, dtype=np.float64)[order])
    _write_rows(path, ["rank", "item_id", "utility"], columns)


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
