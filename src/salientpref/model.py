"""The context-dependent pairwise comparison model and its likelihood.

Item ``i`` beats item ``j`` with probability ``sigma(<w, x_ij>)`` where
``sigma`` is the logistic function and ``x_ij`` is the feature difference
``U_i - U_j`` masked to the coordinates the selection function picks for the
pair.  Independent outcomes of one pair share ``x_ij``, so a dataset is
summarized exactly by its counts per distinct pair ``p``: ``N_p`` comparisons,
of which the first item won ``W_p``.  The negative log-likelihood is the
binomial form of the logistic-regression loss,

    L(w) = sum_p [ N_p log(1 + exp(u_p)) - W_p u_p ],    u_p = <w, x_p>,

which equals, term by term, the sum of the per-outcome losses; an optional
ridge term ``mu * ||w||^2`` is added on top.  The gradient and Hessian are
closed form:

    grad L = sum_p (N_p sigma(u_p) - W_p) * x_p + 2 mu w
    hess L = sum_p N_p h(u_p) * x_p x_p^T + 2 mu I,   h(u) = e^u / (1 + e^u)^2.

``h`` is symmetric, positive, at most 1/4, and nonincreasing in |u|, so the
Hessian is symmetric positive semidefinite and L is convex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _kernels
from .errors import DimensionError, InvalidPairError, PreconditionError
from .features import FeatureMatrix, check_weights
from .selection import RealizedSelection, all_pairs, pair_index


@dataclass(frozen=True)
class Provenance:
    """Where a dataset came from: a simulation seed or a file path."""

    kind: str  # "synthetic" | "file"
    seed: int | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("synthetic", "file"):
            raise ValueError(f"unknown provenance kind {self.kind!r}")

    @classmethod
    def synthetic(cls, seed: int) -> "Provenance":
        return cls("synthetic", seed=int(seed))

    @classmethod
    def file(cls, path: str) -> "Provenance":
        return cls("file", path=str(path))


# Largest count a pair may hold: float64 represents every integer up to it
# exactly, so the likelihood folds and the bincount sums below are exact.
MAX_COUNT = 2**53


def sum_counts(groups: np.ndarray, counts: np.ndarray, size: int):
    """Exact per-group sums of nonnegative int64 ``counts``, each <= MAX_COUNT.

    Returns ``(sums, first)``, where ``first`` is the position in ``counts`` at
    which some group's running sum first exceeds MAX_COUNT, or None.  A
    float64 bincount is exact while every running sum stays at or below 2**53;
    only a group whose float sum reaches that is summed again in int64, where
    no running sum can wrap before it crosses MAX_COUNT.
    """
    sums = np.bincount(groups, weights=counts, minlength=size)
    first = None
    for g in np.nonzero(sums >= MAX_COUNT)[0]:
        rows = np.nonzero(groups == g)[0]
        over = np.nonzero(np.cumsum(counts[rows]) > MAX_COUNT)[0]
        if over.size and (first is None or rows[over[0]] < first):
            first = int(rows[over[0]])
    return sums.astype(np.int64), first


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ComparisonDataset:
    """Pairwise comparison outcomes as counts per distinct canonical pair.

    ``pair_i[p] < pair_j[p]`` list the distinct pairs observed, in
    lexicographic order; item ``pair_i[p]`` beat ``pair_j[p]`` in ``wins[p]``
    of the ``total[p] >= 1`` comparisons of that pair.  The constructor also
    accepts pairs in either orientation, in any order and repeated: a pair
    given as (j, i) with j > i has its wins and losses swapped, and repeats
    are summed.  The order of individual outcomes carries no information
    under the likelihood, so the counts are all a dataset stores.
    """

    pair_i: np.ndarray
    pair_j: np.ndarray
    wins: np.ndarray
    total: np.ndarray
    n_items: int
    provenance: Provenance

    def __post_init__(self):
        i, j, wins, total = (
            np.asarray(a, dtype=np.int64)
            for a in (self.pair_i, self.pair_j, self.wins, self.total)
        )
        if not (i.shape == j.shape == wins.shape == total.shape) or i.ndim != 1:
            raise DimensionError("pair_i, pair_j, wins, total must be 1-d arrays of equal length")
        if np.any(i == j):
            raise InvalidPairError("a sample compares an item with itself")
        if i.size and (min(i.min(), j.min()) < 0 or max(i.max(), j.max()) >= self.n_items):
            raise InvalidPairError("sample indices out of range")
        if np.any((total < 1) | (total > MAX_COUNT) | (wins < 0) | (wins > total)):
            raise ValueError("each pair needs 1 <= total <= 2**53 and 0 <= wins <= total")
        swap = i > j
        i, j = np.where(swap, j, i), np.where(swap, i, j)
        wins = np.where(swap, total - wins, wins)
        key = i * self.n_items + j
        if np.any(np.diff(key) <= 0):  # unsorted or repeated pairs: merge them
            key, groups = np.unique(key, return_inverse=True)
            total, over = sum_counts(groups, total, key.size)
            if over is not None:
                raise PreconditionError("a pair's total count exceeds 2**53")
            wins, _ = sum_counts(groups, wins, key.size)
            i, j = key // self.n_items, key % self.n_items
        for name, arr in (("pair_i", i), ("pair_j", j), ("wins", wins), ("total", total)):
            object.__setattr__(self, name, _read_only(arr))

    def __len__(self) -> int:
        """Number of comparisons: the sum of the pair totals."""
        return sum(self.total.tolist())

    # Per-comparison item indices, expanded from the counts on each access.
    # Unused by the package; kept only because perfbench/tracing.py reads them.

    @property
    def i(self) -> np.ndarray:
        return _read_only(np.repeat(self.pair_i, self.total))

    @property
    def j(self) -> np.ndarray:
        return _read_only(np.repeat(self.pair_j, self.total))

    @classmethod
    def from_records(
        cls,
        records: Iterable[tuple[int, int, int]],
        n_items: int,
        provenance: Provenance,
    ) -> "ComparisonDataset":
        """One (i, j, y) record per comparison, y = 1 iff item i won."""
        rec = np.asarray(list(records), dtype=np.int64).reshape(-1, 3)
        ones = np.ones(rec.shape[0], dtype=np.int64)
        return cls(rec[:, 0], rec[:, 1], rec[:, 2], ones, n_items, provenance)


def design_matrix(sel: RealizedSelection, data: ComparisonDataset) -> np.ndarray:
    """Masked feature differences per distinct pair of ``data``, shape (P, d)."""
    n = sel.features.n
    if data.n_items != n:
        raise DimensionError(
            f"dataset indexes {data.n_items} items, features have {n}"
        )
    return sel.diff_table()[pair_index(data.pair_i, data.pair_j, n)]


def win_probability(
    features: FeatureMatrix,
    w,
    sel: RealizedSelection,
    i: int,
    j: int,
) -> float:
    """P(item i beats item j) under weights ``w``.

    Exactly antisymmetric: swapping i and j negates the masked difference, so
    the two probabilities sum to 1.
    """
    w = check_weights(w, features.d)
    x = sel.masked_diff(i, j)
    return float(_kernels.sigmoid(float(x @ w)))


def all_pair_probabilities(features: FeatureMatrix, w, sel: RealizedSelection):
    """P(i beats j) for every canonical pair, in lexicographic pair order."""
    w = check_weights(w, features.d)
    return _kernels.sigmoid(sel.diff_table() @ w)


def sample_comparisons(
    features: FeatureMatrix,
    w_star,
    sel: RealizedSelection,
    m: int,
    seed: int,
) -> ComparisonDataset:
    """Draw ``m`` independent comparisons: uniform pairs, logistic outcomes.

    Each sample picks a pair uniformly at random (with replacement) from all
    C(n,2) pairs, then flips a coin with the model's win probability; the
    draws are then counted per pair.  Fully deterministic given ``seed``.
    """
    if m < 1:
        raise PreconditionError(f"need m >= 1 samples, got {m}")
    n = features.n
    if n < 2:
        raise PreconditionError("need at least 2 items to compare")
    w_star = check_weights(w_star, features.d)
    probs = all_pair_probabilities(features, w_star, sel)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    flat = rng.integers(0, probs.shape[0], size=m)
    won = rng.random(m) < probs[flat]
    total = np.bincount(flat, minlength=probs.shape[0])
    wins = np.bincount(flat[won], minlength=probs.shape[0])
    seen = np.nonzero(total)[0]
    ii, jj = all_pairs(n)
    return ComparisonDataset(
        ii[seen], jj[seen], wins[seen], total[seen], n, Provenance.synthetic(seed)
    )


def _prepared(features, w, sel, data, mu):
    if mu < 0:
        raise PreconditionError("ridge weight mu must be nonnegative")
    w = check_weights(w, features.d)
    X = design_matrix(sel, data)
    return X, data.total.astype(np.float64), data.wins.astype(np.float64), w, float(mu)


def nll(features, w, sel, data: ComparisonDataset, mu: float = 0.0) -> float:
    """Ridge-regularized negative log-likelihood of ``w``."""
    return float(_kernels.nll_value(*_prepared(features, w, sel, data, mu)))


def nll_gradient(features, w, sel, data: ComparisonDataset, mu: float = 0.0):
    return _kernels.nll_grad(*_prepared(features, w, sel, data, mu))


def nll_hessian(features, w, sel, data: ComparisonDataset, mu: float = 0.0):
    return _kernels.nll_hess(*_prepared(features, w, sel, data, mu))
