"""Empirical pair statistics, stochastic-transitivity checks, inconsistency.

Strong stochastic transitivity demands that whenever P(i>j) > 1/2 and
P(j>k) > 1/2, also P(i>k) >= max(P(i>j), P(j>k)); the moderate form asks
>= min of the two and the weak form asks >= 1/2.  Plain feature-utility
comparisons always satisfy all three; context-dependent masking can break
them, and these reports count how often.

An unordered triple is checked once: the six chain orientations are tried in
lexicographic order and the first whose two chained probabilities strictly
exceed 1/2 is classified.  Probabilities equal to exactly 1/2 never qualify
as a chain link.  A triple that violates the weak form also violates the
moderate and strong forms, so the three counters are nested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from . import _kernels
from .errors import PreconditionError, UndefinedMetricError
from .features import FeatureMatrix
from .model import ComparisonDataset, all_pair_probabilities
from .ranking import Ranking
from .selection import RealizedSelection


@dataclass(frozen=True)
class PairStats:
    """Win counts per observed canonical pair (i < j), read from a dataset."""

    data: ComparisonDataset

    @property
    def counts(self) -> dict[tuple[int, int], tuple[int, int]]:
        """(wins for i, wins for j) per pair."""
        return self.data.aggregate()

    def total(self, pair: tuple[int, int]) -> int:
        wi, wj = self.counts[pair]
        return wi + wj

    def probabilities(self, min_count: int = 0):
        """Arrays (i, j, empirical P(i beats j)) over the pairs observed at
        least ``min_count`` times, in lexicographic pair order."""
        d = self.data
        keep = d.total >= min_count
        return d.pair_i[keep], d.pair_j[keep], d.wins[keep] / d.total[keep]

    def p_hat(self, min_count: int = 0) -> dict[tuple[int, int], float]:
        """Empirical P(i beats j) per pair, dropping pairs observed fewer
        than ``min_count`` times."""
        i, j, p = self.probabilities(min_count)
        return dict(zip(zip(i.tolist(), j.tolist()), p.tolist()))


def empirical_pair_stats(data: ComparisonDataset) -> PairStats:
    return PairStats(data)


class TripleViolation(NamedTuple):
    """A checked orientation (i, j, k) that violates strong transitivity."""

    i: int
    j: int
    k: int
    moderate: bool
    weak: bool


@dataclass(frozen=True)
class TransitivityReport:
    triples_checked: int
    strong_violations: int
    moderate_violations: int
    weak_violations: int
    violations: tuple[TripleViolation, ...]

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
        return {
            "triples_checked": self.triples_checked,
            "strong_violations": self.strong_violations,
            "moderate_violations": self.moderate_violations,
            "weak_violations": self.weak_violations,
            "strong_rate": self.rate("strong"),
            "moderate_rate": self.rate("moderate"),
            "weak_rate": self.rate("weak"),
            "violating_triples": [
                {
                    "triple": [v.i, v.j, v.k],
                    "strong": True,
                    "moderate": v.moderate,
                    "weak": v.weak,
                }
                for v in self.violations
            ],
        }


def _report_from_scan(checked: int, viol: np.ndarray) -> TransitivityReport:
    columns = [viol[:, k].tolist() for k in range(3)]
    columns += [viol[:, k].astype(bool).tolist() for k in (3, 4)]
    rows = list(map(TripleViolation._make, zip(*columns)))
    return TransitivityReport(
        triples_checked=int(checked),
        strong_violations=len(rows),
        moderate_violations=int(viol[:, 3].sum()),
        weak_violations=int(viol[:, 4].sum()),
        violations=tuple(rows),
    )


def count_transitivity_violations(
    p: "Mapping[tuple[int, int], float] | PairStats",
    min_count: int | None = None,
) -> TransitivityReport:
    """Classify every triple whose three pairwise probabilities are present.

    ``p`` maps canonical pairs (i < j) to P(i beats j); passing a
    :class:`PairStats` applies the optional ``min_count`` filter first.
    Missing pairs simply exclude their triples from the scan.
    """
    if isinstance(p, PairStats):
        i, j, probs = p.probabilities(min_count or 0)
    else:
        if min_count is not None:
            raise ValueError("min_count requires PairStats input (counts needed)")
        pairs = np.asarray(list(p), dtype=np.int64).reshape(-1, 2)
        i, j = pairs[:, 0], pairs[:, 1]
        probs = np.asarray(list(p.values()), dtype=np.float64)
    bad = np.nonzero(~((probs >= 0.0) & (probs <= 1.0)))[0]
    if bad.size:
        k = bad[0]
        raise ValueError(f"probability for pair {(int(i[k]), int(j[k]))} outside [0, 1]: {probs[k]}")
    bad = np.nonzero((i < 0) | (i >= j))[0]
    if bad.size:
        raise ValueError(f"pair {(int(i[bad[0]]), int(j[bad[0]]))} is not canonical (need i < j)")

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
    return _report_from_scan(checked, viol)


def model_transitivity_report(
    features: FeatureMatrix, w, sel: RealizedSelection
) -> TransitivityReport:
    """Exact model probabilities for all pairs, scanned for violations."""
    n = features.n
    if n < 3:
        raise PreconditionError("transitivity needs at least 3 items")
    probs = all_pair_probabilities(features, w, sel)
    P = np.full((n, n), 0.5)
    ii, jj = np.triu_indices(n, k=1)
    P[ii, jj] = probs
    P[jj, ii] = 1.0 - probs
    present = ~np.eye(n, dtype=bool)
    checked, viol = _kernels.transitivity_scan(P, present)
    return _report_from_scan(checked, viol)


@dataclass(frozen=True)
class InconsistencyReport:
    """Pairs whose two probability sources disagree about the likely winner."""

    pairs_compared: int
    inconsistent: int
    disagreeing_pairs: tuple[tuple[int, int], ...]

    @property
    def rate(self) -> float:
        return self.inconsistent / self.pairs_compared

    def to_dict(self) -> dict:
        return {
            "pairs_compared": self.pairs_compared,
            "inconsistent": self.inconsistent,
            "inconsistency_rate": self.rate,
            "disagreeing_pairs": [list(p) for p in self.disagreeing_pairs],
        }


def pairwise_inconsistency(
    p: Mapping[tuple[int, int], float],
    reference: "Ranking | Mapping[tuple[int, int], float]",
) -> InconsistencyReport:
    """Count pairs with (1/2 - p1)(1/2 - p2) < 0 over the common support.

    When ``reference`` is a ranking, its implied probability is 1 if it
    places i above j and 0 otherwise.  A probability of exactly 1/2 on either
    side makes the product zero, which never counts as inconsistent.
    """
    if isinstance(reference, Ranking):
        ref = {}
        for (a, b) in p:
            if 0 <= a < reference.n and 0 <= b < reference.n:
                ref[(a, b)] = 1.0 if reference.positions[a] < reference.positions[b] else 0.0
    else:
        ref = dict(reference)
    common = sorted(set(p) & set(ref))
    if not common:
        raise UndefinedMetricError("probability sources share no pairs")
    bad = [
        pair for pair in common if (0.5 - p[pair]) * (0.5 - ref[pair]) < 0.0
    ]
    return InconsistencyReport(
        pairs_compared=len(common),
        inconsistent=len(bad),
        disagreeing_pairs=tuple(bad),
    )
