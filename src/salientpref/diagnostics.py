"""Stochastic-transitivity checks and inconsistency between probability sources.

Both diagnostics read pairwise probabilities as three aligned 1-d arrays
``(pair_i, pair_j, prob)``: canonical pairs ``pair_i < pair_j``, each listed
once, with ``prob`` = P(pair_i beats pair_j) and ``1 - prob`` = P(pair_j
beats pair_i).  A dataset gives ``data.pair_i, data.pair_j`` and each pair's
win rate, rounded once from its winner's count (``cli.cmd_diagnose``); a
model gives them for every pair as ``all_pairs(n)`` and ``all_pair_probabilities``.

Strong stochastic transitivity demands that whenever P(i>j) > 1/2 and
P(j>k) > 1/2, also P(i>k) >= max(P(i>j), P(j>k)); the moderate form asks
>= min of the two and the weak form asks >= 1/2.  Plain feature-utility
comparisons always satisfy all three; context-dependent masking can break
them, and these reports count how often.

An unordered triple is checked once: of its six orientations (x, y, z), the
first in lexicographic order whose two chained probabilities P(x>y) and
P(y>z) strictly exceed 1/2 is classified.  Probabilities equal to exactly 1/2
never qualify as a chain link.  The scan takes the given pairs, sorted, as
its pair list, enumerates the triples a < b < c whose three pairs are listed,
in lexicographic order, and finds each one's orientation by a single table
lookup on the directions of its three links, so violating rows come out in
listing order with no sort.  A triple that violates the weak form also
violates the moderate and strong forms, so the three counters are nested.

A report holds its listed rows as one int64 key each, 8 bytes per row, and
reads its counts from the key bits.  ``ViolationRows`` decodes the keys into
``(x, y, z, moderate, weak)`` rows in item ids only on request.  Each
report's ``to_dict`` gives its listing to ``dataio.write_json`` as a few
tables of row text, which put together give a row's one-line
``json.dumps(row, sort_keys=True)``, and, a chunk at a time, each row's
indices into them: a chunk of triple keys decodes into the scan's own item
indices, which index the tables directly, so the writer never builds any row
of item ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionError, PreconditionError
from .ranking import Ranking
from .selection import check_pairs


def _pair_arrays(pair_i, pair_j, *probs) -> list[np.ndarray]:
    """Checked int64 pairs and aligned float64 probabilities, all 1-d, sorted
    into lexicographic pair order.  The pairs as given are checked by
    ``selection.check_pairs``: integers, a list's items too, canonical."""
    i, j = np.asarray(pair_i), np.asarray(pair_j)
    probs = [np.asarray(p, dtype=np.float64) for p in probs]
    if i.ndim != 1 or any(a.shape != i.shape for a in (j, *probs)):
        raise DimensionError("pair and probability arrays must be 1-d and of equal length")
    i, j = check_pairs(pair_i, pair_j, canonical=True)
    for p in probs:
        bad = np.nonzero(~((p >= 0.0) & (p <= 1.0)))[0]
        if bad.size:
            k = bad[0]
            raise ValueError(f"probability for pair {(int(i[k]), int(j[k]))} outside [0, 1]: {p[k]}")
    order = np.lexsort((j, i))
    repeat = np.nonzero((np.diff(i[order]) == 0) & (np.diff(j[order]) == 0))[0]
    if repeat.size:
        k = order[repeat[0]]
        raise ValueError(f"pair {(int(i[k]), int(j[k]))} is repeated")
    return [a[order] for a in (i, j, *probs)]


class ViolationRows:
    """The rows ``(x, y, z, moderate, weak)`` of a transitivity report, held
    as one int64 key each (8 bytes per row; see ``_kernels.transitivity_scan``)
    over the scan's item indices, and decoded only on request: ``len()`` is
    the number of rows, a slice is a ``(k, 5)`` int64 array of those rows in
    item ids and ``np.asarray`` decodes them all.
    """

    __slots__ = ("_keys", "_items")

    def __init__(self, keys: np.ndarray, items: np.ndarray):
        self._keys, self._items = keys, items

    def __len__(self) -> int:
        return self._keys.size

    def __getitem__(self, index: slice) -> np.ndarray:
        if not isinstance(index, slice):
            raise TypeError("violation rows are read a slice at a time")
        rows = _kernels.unpack(self._keys[index], self._items.size)
        rows[:, :3] = self._items[rows[:, :3]]
        return rows

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("violation rows are decoded into a new array")
        return self[:] if dtype is None else self[:].astype(dtype, copy=False)


def _triple_tables(items: np.ndarray) -> tuple[np.ndarray, ...]:
    """The one-line text of a listed triple in three tables: the moderate
    flag with x, then y, then z with the weak flag."""
    ids, flags = items.tolist(), ("false", "true")
    tables = (
        [f'{{"moderate": {f}, "strong": true, "triple": [{x}, ' for f in flags for x in ids],
        [f"{y}, " for y in ids],
        [f'{z}], "weak": {f}}}' for z in ids for f in flags],
    )
    return tuple(np.array(table, dtype=object) for table in tables)


def _triple_codes(keys: np.ndarray, m: int) -> np.ndarray:
    """The rows of ``keys`` as indices into ``_triple_tables``."""
    rows = _kernels.unpack(keys, m)
    rows[:, 0] += rows[:, 3] * m
    rows[:, 2] = 2 * rows[:, 2] + rows[:, 4]
    return rows[:, :3]


@dataclass(frozen=True, eq=False)
class TransitivityReport:
    """Counts of violating triples and the rows listing them.

    ``violations`` holds one row ``(x, y, z, moderate, weak)`` per checked
    orientation that violates strong transitivity, in lexicographic order of
    the sorted triple; ``np.asarray(report.violations)`` decodes them into a
    ``(k, 5)`` int64 array.
    """

    triples_checked: int
    strong_violations: int
    moderate_violations: int
    weak_violations: int
    violations: ViolationRows

    def __post_init__(self):
        if not (
            self.weak_violations
            <= self.moderate_violations
            <= self.strong_violations
            <= self.triples_checked
        ):
            raise ValueError("violation counts must be nested")

    def rate(self, level: str) -> float | None:
        """Violations per checked triple; None when nothing was checked."""
        if self.triples_checked == 0:
            return None
        return {
            "strong": self.strong_violations,
            "moderate": self.moderate_violations,
            "weak": self.weak_violations,
        }[level] / self.triples_checked

    def to_dict(self) -> dict:
        """Counts and rates; ``violating_triples`` is a ``dataio.Listing``
        that ``dataio.write_json`` writes as one ``{"moderate", "strong",
        "triple", "weak"}`` object per row, a row a line."""
        from .dataio import Listing  # the CLI's module: not loaded at package import

        keys, items = self.violations._keys, self.violations._items
        return {
            "triples_checked": self.triples_checked,
            "strong_violations": self.strong_violations,
            "moderate_violations": self.moderate_violations,
            "weak_violations": self.weak_violations,
            "strong_rate": self.rate("strong"),
            "moderate_rate": self.rate("moderate"),
            "weak_rate": self.rate("weak"),
            "violating_triples": Listing(
                keys.size,
                _triple_tables(items),
                lambda index: _triple_codes(keys[index], items.size),
            ),
        }


def count_transitivity_violations(pair_i, pair_j, prob) -> TransitivityReport:
    """Classify every triple whose three pairwise probabilities are present.

    ``prob[k]`` is P(pair_i[k] beats pair_j[k]) for canonical pairs, each
    given once and in any order, and ``1 - prob[k]`` is P(pair_j[k] beats
    pair_i[k]).  Missing pairs simply exclude their triples from the scan.
    """
    i, j, probs = _pair_arrays(pair_i, pair_j, prob)
    # dense P over the items that occur, in increasing item order: the monotone
    # remap keeps (a, b) lexicographic, so triples come out as over item indices
    items, idx = np.unique(np.concatenate([i, j]), return_inverse=True)
    if 4 * items.size**3 >= 2**63:
        raise PreconditionError(
            f"triple scan over {items.size} items: its int64 keys need 4 * m**3 < 2**63"
        )
    a, b = idx[: i.size], idx[i.size :]
    P = np.full((items.size, items.size), 0.5)
    P[a, b] = probs
    P[b, a] = 1.0 - probs
    checked, keys = _kernels.transitivity_scan(P, a, b)
    keys.setflags(write=False)
    items.setflags(write=False)
    return TransitivityReport(
        triples_checked=int(checked),
        strong_violations=keys.size,
        moderate_violations=int(np.count_nonzero(keys & 2)),
        weak_violations=int(np.count_nonzero(keys & 1)),
        violations=ViolationRows(keys, items),
    )


def _pair_tables(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The one-line text of a listed pair in two tables: i, then j, each
    over the pairs' distinct ``values``."""
    ids = values.tolist()
    tables = [f"[{i}, " for i in ids], [f"{j}]" for j in ids]
    return tuple(np.array(table, dtype=object) for table in tables)


@dataclass(frozen=True, eq=False)
class InconsistencyReport:
    """Pairs whose two probability sources disagree about the likely winner.

    ``disagreeing_pairs`` is a read-only ``(k, 2)`` int64 array of canonical
    pairs ``(i, j)``, in lexicographic order.
    """

    pairs_compared: int
    inconsistent: int
    disagreeing_pairs: np.ndarray

    @property
    def rate(self) -> float | None:
        """Inconsistent pairs per compared pair; None when none were compared."""
        if self.pairs_compared == 0:
            return None
        return self.inconsistent / self.pairs_compared

    def to_dict(self) -> dict:
        """Counts and rate; ``disagreeing_pairs`` is a ``dataio.Listing``
        that ``dataio.write_json`` writes as one ``[i, j]`` list per pair, a
        pair a line."""
        from .dataio import Listing  # the CLI's module: not loaded at package import

        pairs = self.disagreeing_pairs
        values = np.unique(pairs)
        return {
            "pairs_compared": self.pairs_compared,
            "inconsistent": self.inconsistent,
            "inconsistency_rate": self.rate,
            "disagreeing_pairs": Listing(
                len(pairs),
                _pair_tables(values),
                lambda index: np.searchsorted(values, pairs[index]),
            ),
        }


def pairwise_inconsistency(
    pair_i, pair_j, prob, reference: "Ranking | np.ndarray"
) -> InconsistencyReport:
    """Count pairs with (1/2 - p)(1/2 - q) < 0, where p = ``prob``.

    ``q`` is ``reference`` itself when it is an array aligned with ``prob``.
    When ``reference`` is a ranking, which must cover every pair's items, q is
    1 if it places pair_i above pair_j and 0 otherwise.  A probability of
    exactly 1/2 on either side makes the product zero, which never counts as
    inconsistent.  Disagreeing pairs are listed in lexicographic order.  With
    no pairs the report compares none and its rate is None.
    """
    if isinstance(reference, Ranking):
        i, j, p = _pair_arrays(pair_i, pair_j, prob)
        outside = np.nonzero(j >= reference.n)[0]
        if outside.size:
            k = outside[0]
            raise ValueError(
                f"pair {(int(i[k]), int(j[k]))} is outside a ranking of {reference.n} items"
            )
        q = (reference.positions[i] < reference.positions[j]).astype(np.float64)
    else:
        i, j, p, q = _pair_arrays(pair_i, pair_j, prob, reference)
    bad = (0.5 - p) * (0.5 - q) < 0.0
    disagreeing = np.column_stack([i[bad], j[bad]])
    disagreeing.setflags(write=False)
    return InconsistencyReport(
        pairs_compared=int(i.size),
        inconsistent=int(bad.sum()),
        disagreeing_pairs=disagreeing,
    )
