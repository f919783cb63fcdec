"""Stochastic-transitivity checks and inconsistency between probability sources.

Both diagnostics read pairwise probabilities as three aligned 1-d arrays
``(pair_i, pair_j, prob)``: canonical pairs ``pair_i < pair_j``, each listed
once, with ``prob`` = P(pair_i beats pair_j).  A dataset gives them as
``data.pair_i, data.pair_j, data.wins / data.total``; a model gives them for
every pair as ``all_pairs(n)`` and ``all_pair_probabilities``.

Strong stochastic transitivity demands that whenever P(i>j) > 1/2 and
P(j>k) > 1/2, also P(i>k) >= max(P(i>j), P(j>k)); the moderate form asks
>= min of the two and the weak form asks >= 1/2.  Plain feature-utility
comparisons always satisfy all three; context-dependent masking can break
them, and these reports count how often.

An unordered triple is checked once: of its six orientations (x, y, z), the
first in lexicographic order whose two chained probabilities P(x>y) and
P(y>z) strictly exceed 1/2 is classified.  Probabilities equal to exactly 1/2
never qualify as a chain link.  The scan realises this by enumerating the
chains x -> y -> z through each middle item y.  A triple has one chain, or
three when it is a cycle; of a cycle's three, the one starting at its
smallest item is the first in lexicographic order and the only one kept.  A
triple that violates the weak form also violates the moderate and strong
forms, so the three counters are nested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionError, PreconditionError
from .features import FeatureMatrix
from .model import all_pair_probabilities
from .ranking import Ranking
from .selection import RealizedSelection, all_pairs


def _pair_arrays(pair_i, pair_j, *probs) -> list[np.ndarray]:
    """Checked int64 pairs and aligned float64 probabilities, all 1-d, sorted
    into lexicographic pair order."""
    i = np.asarray(pair_i, dtype=np.int64)
    j = np.asarray(pair_j, dtype=np.int64)
    probs = [np.asarray(p, dtype=np.float64) for p in probs]
    if i.ndim != 1 or any(a.shape != i.shape for a in (j, *probs)):
        raise DimensionError("pair and probability arrays must be 1-d and of equal length")
    for p in probs:
        bad = np.nonzero(~((p >= 0.0) & (p <= 1.0)))[0]
        if bad.size:
            k = bad[0]
            raise ValueError(f"probability for pair {(int(i[k]), int(j[k]))} outside [0, 1]: {p[k]}")
    bad = np.nonzero((i < 0) | (i >= j))[0]
    if bad.size:
        raise ValueError(f"pair {(int(i[bad[0]]), int(j[bad[0]]))} is not canonical (need 0 <= i < j)")
    order = np.lexsort((j, i))
    repeat = np.nonzero((np.diff(i[order]) == 0) & (np.diff(j[order]) == 0))[0]
    if repeat.size:
        k = order[repeat[0]]
        raise ValueError(f"pair {(int(i[k]), int(j[k]))} is repeated")
    return [a[order] for a in (i, j, *probs)]


@dataclass(frozen=True, eq=False)
class TransitivityReport:
    """Counts of violating triples and the rows listing them.

    ``violations`` is a read-only ``(k, 5)`` int64 array with one row
    ``(x, y, z, moderate, weak)`` per checked orientation that violates strong
    transitivity, in lexicographic order of the sorted triple.
    """

    triples_checked: int
    strong_violations: int
    moderate_violations: int
    weak_violations: int
    violations: np.ndarray

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
        """Counts and rates; ``violating_triples`` is a ``dataio.Records``
        whose ``tolist()`` gives one ``{"triple", "strong", "moderate",
        "weak"}`` dict per row, and which ``dataio.write_json`` streams."""
        from .dataio import Column, Records  # the CLI's module: not loaded at package import

        return {
            "triples_checked": self.triples_checked,
            "strong_violations": self.strong_violations,
            "moderate_violations": self.moderate_violations,
            "weak_violations": self.weak_violations,
            "strong_rate": self.rate("strong"),
            "moderate_rate": self.rate("moderate"),
            "weak_rate": self.rate("weak"),
            "violating_triples": Records(
                self.violations,
                {
                    "moderate": Column(3, boolean=True),
                    "strong": True,
                    "triple": [Column(0), Column(1), Column(2)],
                    "weak": Column(4, boolean=True),
                },
            ),
        }


def count_transitivity_violations(pair_i, pair_j, prob) -> TransitivityReport:
    """Classify every triple whose three pairwise probabilities are present.

    ``prob[k]`` is P(pair_i[k] beats pair_j[k]) for canonical pairs, each
    given once and in any order.  Missing pairs simply exclude their triples
    from the scan.
    """
    i, j, probs = _pair_arrays(pair_i, pair_j, prob)
    # dense (P, present) over the items that occur, in increasing item order,
    # so the scan enumerates and orients triples exactly as over item indices
    items, idx = np.unique(np.concatenate([i, j]), return_inverse=True)
    a, b = idx[: i.size], idx[i.size :]
    P = np.full((items.size, items.size), 0.5)
    present = np.zeros((items.size, items.size), dtype=bool)
    P[a, b] = probs
    P[b, a] = 1.0 - probs
    present[a, b] = present[b, a] = True
    checked, viol = _kernels.transitivity_scan(P, present)
    viol[:, :3] = items[viol[:, :3]]
    viol.setflags(write=False)
    return TransitivityReport(
        triples_checked=int(checked),
        strong_violations=len(viol),
        moderate_violations=int(viol[:, 3].sum()),
        weak_violations=int(viol[:, 4].sum()),
        violations=viol,
    )


def model_transitivity_report(
    features: FeatureMatrix, w, sel: RealizedSelection
) -> TransitivityReport:
    """Exact model probabilities for all pairs, scanned for violations."""
    if features.n < 3:
        raise PreconditionError("transitivity needs at least 3 items")
    return count_transitivity_violations(
        *all_pairs(features.n), all_pair_probabilities(features, w, sel)
    )


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
        """Counts and rate; ``disagreeing_pairs`` is a ``dataio.Records`` of
        ``[i, j]`` lists."""
        from .dataio import Column, Records  # the CLI's module: not loaded at package import

        return {
            "pairs_compared": self.pairs_compared,
            "inconsistent": self.inconsistent,
            "inconsistency_rate": self.rate,
            "disagreeing_pairs": Records(self.disagreeing_pairs, [Column(0), Column(1)]),
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
