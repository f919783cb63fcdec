"""Rankings from utilities, Kendall tau metrics, and utility gap profiles.

A ranking assigns each item a position in 1..n (1 = best).  Items are ranked
by their full-feature utility ``<w, U_i>`` in descending order; ties break
toward the lower item index so output is deterministic.  The Kendall tau
distance between two rankings counts discordant pairs,

    K(a, b) = #{(i, j), i < j : (a_i - a_j) * (b_i - b_j) < 0},

and the correlation is 1 - 2 K / C(n, 2), which for strict rankings equals
(concordant - discordant) / C(n, 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionError, UndefinedMetricError
from .features import FeatureMatrix, check_int_array, check_weights, read_only
from .model import ComparisonDataset, design_matrix
from .selection import RealizedSelection, all_pairs


@dataclass(frozen=True)
class Ranking:
    """Positions over items: ``positions[item] = rank`` with rank 1 best."""

    positions: np.ndarray

    def __post_init__(self):
        pos = check_int_array("positions", self.positions)
        if pos.ndim != 1 or pos.shape[0] < 1:
            raise DimensionError("positions must be a nonempty 1-d array")
        n = pos.shape[0]
        if not np.array_equal(np.sort(pos), np.arange(1, n + 1)):
            raise DimensionError("positions must be a permutation of 1..n")
        object.__setattr__(self, "positions", read_only(pos))

    @property
    def n(self) -> int:
        return int(self.positions.shape[0])

    @classmethod
    def from_order(cls, order) -> "Ranking":
        """Build from a best-to-worst item ordering."""
        order = check_int_array("order", order)
        pos = np.empty_like(order)
        pos[order] = np.arange(1, order.shape[0] + 1)
        return cls(pos)

    def order(self) -> np.ndarray:
        """Items best to worst."""
        return np.argsort(self.positions, kind="stable")


def rank_from_weights(features: FeatureMatrix, w) -> Ranking:
    """Sort items by full-feature utility, descending; ties by item index.

    Invariant under positive rescaling of ``w`` and under column centering of
    the features (utilities shift by a common constant).
    """
    w = check_weights(w, features.d)
    utilities = features.matrix.T @ w
    order = np.argsort(-utilities, kind="stable")
    return Ranking.from_order(order)


def kendall_distance(a: Ranking, b: Ranking) -> int:
    """Number of discordant pairs between two rankings of the same items."""
    if a.n != b.n:
        raise DimensionError(f"rankings have different sizes: {a.n} vs {b.n}")
    ii, jj = all_pairs(a.n)
    da = a.positions[ii] - a.positions[jj]
    db = b.positions[ii] - b.positions[jj]
    return int(np.count_nonzero(da * db < 0))


def kendall_correlation(a: Ranking, b: Ranking) -> float:
    """1 - 2 K / C(n, 2); +1 for identical rankings, -1 for full reversal."""
    if a.n != b.n:
        raise DimensionError(f"rankings have different sizes: {a.n} vs {b.n}")
    if a.n < 2:
        raise DimensionError("kendall correlation needs n >= 2")
    npairs = a.n * (a.n - 1) // 2
    return 1.0 - 2.0 * kendall_distance(a, b) / npairs


def pairwise_accuracy(sel: RealizedSelection, w, data: ComparisonDataset) -> float:
    """Fraction of majority-decided pairs whose majority the model predicts.

    A pair is eligible when its empirical outcome counts have a strict
    majority and the model probability is not exactly 1/2; ineligible pairs
    enter neither numerator nor denominator.
    """
    if data.total.size == 0:
        raise UndefinedMetricError("dataset contains no pairs")
    w = check_weights(w, sel.features.d)
    p = _kernels.sigmoid(design_matrix(sel, data) @ w)
    losses = data.total - data.wins
    eligible = (data.wins != losses) & (p != 0.5)
    n_eligible = int(np.count_nonzero(eligible))
    if n_eligible == 0:
        raise UndefinedMetricError("no pair has both a strict majority and a non-tied model probability")
    agree = int(np.count_nonzero(eligible & ((p > 0.5) == (data.wins > losses))))
    return agree / n_eligible


def subset_kendall(full: Ranking, items) -> float:
    """Kendall correlation between a full ranking restricted to ``items`` and
    the best-to-worst order in which ``items`` are listed.  The items must be
    distinct indices in [0, n)."""
    items = check_int_array("items", items)
    k = items.shape[0]
    if k < 2:
        raise DimensionError("need at least 2 items to correlate")
    if items.min() < 0 or items.max() >= full.n:
        raise DimensionError(f"items must lie in [0, {full.n}), got {items.tolist()}")
    if np.unique(items).size != k:
        raise DimensionError(f"items must be distinct, got {items.tolist()}")
    pos = full.positions[items]
    induced = np.empty(k, dtype=np.int64)
    induced[np.argsort(pos, kind="stable")] = np.arange(1, k + 1)
    return kendall_correlation(Ranking(induced), Ranking(np.arange(1, k + 1)))


def utility_gaps(features: FeatureMatrix, w_star) -> tuple[np.ndarray, float]:
    """Sorted |utility difference| over all pairs, plus the largest item norm.

    Returns the nondecreasing list of |<w*, U_i - U_j>| over the C(n, 2)
    pairs and M = max_i ||U_i||_2.  The k-th smallest gap is the margin that
    controls how many samples exact recovery of the top ranks needs.
    """
    w_star = check_weights(w_star, features.d)
    U = features.matrix
    utilities = U.T @ w_star
    ii, jj = all_pairs(features.n)
    gaps = np.sort(np.abs(utilities[ii] - utilities[jj]))
    M = float(np.max(np.linalg.norm(U, axis=0)))
    return gaps, M
