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

The likelihood realizes ``x_p`` only for the pairs a dataset holds, and the
sampler only for the pairs it draws (``RealizedSelection.rows``).  The sampler
draws each pair's count, not each comparison, so it holds nothing m long or
C(n,2) long: its memory is O(min(m, C(n,2))).  ``all_pair_probabilities``
realizes all C(n,2).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _kernels
from .errors import DimensionError, PreconditionError
from .features import check_int, check_int_array, check_real, check_weights, read_only
from .selection import RealizedSelection, check_pairs, pair_index


# Largest count a pair may hold: float64 represents every integer up to it
# exactly, so the likelihood folds and the bincount sums below are exact.
MAX_COUNT = 2**53


def merge_pairs(keys: np.ndarray, wins: np.ndarray, total: np.ndarray):
    """Exact sums of the counts of repeated pairs.

    ``keys`` holds one int64 key per entry, ``i * n + j``, in any order and
    repeated; the entries' int64 counts satisfy 0 <= wins <= total <=
    MAX_COUNT.  Returns ``(keys, wins, total, first)``: the distinct keys in
    increasing order, each one's summed wins and totals, and the position of
    the entry at which some pair's running total first exceeds MAX_COUNT, or
    None.  A float64 bincount is exact while every running sum stays at or
    below 2**53, and a pair's wins never exceed its total; only a pair whose
    float total reaches 2**53 is summed again in int64, where no running sum
    can wrap before it crosses MAX_COUNT.
    """
    keys, groups = np.unique(keys, return_inverse=True)
    sums = np.bincount(groups, weights=total, minlength=keys.size)
    first = None
    for g in np.nonzero(sums >= MAX_COUNT)[0]:
        rows = np.nonzero(groups == g)[0]
        over = np.nonzero(np.cumsum(total[rows]) > MAX_COUNT)[0]
        if over.size and (first is None or rows[over[0]] < first):
            first = int(rows[over[0]])
    wins = np.bincount(groups, weights=wins, minlength=keys.size)
    return keys, wins.astype(np.int64), sums.astype(np.int64), first


@dataclass(frozen=True, eq=False)
class ComparisonDataset:
    """Pairwise comparison outcomes as counts per distinct canonical pair.

    ``pair_i[p] < pair_j[p]`` list the distinct pairs observed, in
    lexicographic order; item ``pair_i[p]`` beat ``pair_j[p]`` in ``wins[p]``
    of the ``total[p] >= 1`` comparisons of that pair.  The constructor also
    accepts pairs in either orientation, in any order and repeated: a pair
    given as (j, i) with j > i has its wins and losses swapped, and repeats
    are summed.  The order of individual outcomes carries no information
    under the likelihood, so the counts are all a dataset stores.  The
    totals may sum to at most ``sys.maxsize``, so ``len()`` is defined.
    """

    pair_i: np.ndarray
    pair_j: np.ndarray
    wins: np.ndarray
    total: np.ndarray
    n_items: int

    def __post_init__(self):
        n = check_int("n_items", self.n_items, 0)
        i, j, wins, total = map(np.asarray, (self.pair_i, self.pair_j, self.wins, self.total))
        if not (i.shape == j.shape == wins.shape == total.shape) or i.ndim != 1:
            raise DimensionError("pair_i, pair_j, wins, total must be 1-d arrays of equal length")
        # integers, a list's items too; canonical once oriented below
        i, j = check_pairs(self.pair_i, self.pair_j)
        wins, total = check_int_array("wins", wins), check_int_array("total", total)
        swap = i > j
        lo, hi = np.where(swap, j, i), np.where(swap, i, j)
        i, j = check_pairs(lo, hi, canonical=True, n=n)
        if np.any((total < 1) | (total > MAX_COUNT) | (wins < 0) | (wins > total)):
            raise ValueError("each pair needs 1 <= total <= 2**53 and 0 <= wins <= total")
        wins = np.where(swap, total - wins, wins)
        key = i * n + j
        if np.any(np.diff(key) <= 0):  # unsorted or repeated pairs: merge them
            key, wins, total, over = merge_pairs(key, wins, total)
            if over is not None:
                raise PreconditionError("a pair's total count exceeds 2**53")
            i, j = key // n, key % n
        if sum(total.tolist()) > sys.maxsize:
            raise PreconditionError(f"the total comparison count exceeds {sys.maxsize}")
        for name, arr in (("pair_i", i), ("pair_j", j), ("wins", wins), ("total", total)):
            object.__setattr__(self, name, read_only(arr))
        object.__setattr__(self, "n_items", n)

    def __len__(self) -> int:
        """Number of comparisons: the sum of the pair totals."""
        return sum(self.total.tolist())

    # Per-comparison item indices, expanded from the counts on each access.
    # Unused by the package; kept only because perfbench/tracing.py reads them.

    @property
    def i(self) -> np.ndarray:
        return read_only(np.repeat(self.pair_i, self.total))

    @property
    def j(self) -> np.ndarray:
        return read_only(np.repeat(self.pair_j, self.total))

    @classmethod
    def from_records(
        cls, records: Iterable[tuple[int, int, int]], n_items: int
    ) -> "ComparisonDataset":
        """One (i, j, y) record per comparison, y = 1 iff item i won."""
        rec = check_int_array("records", list(records)).reshape(-1, 3)
        ones = np.ones(rec.shape[0], dtype=np.int64)
        return cls(rec[:, 0], rec[:, 1], rec[:, 2], ones, n_items)


def design_matrix(sel: RealizedSelection, data: ComparisonDataset) -> np.ndarray:
    """Masked feature differences per distinct pair of ``data``, shape (P, d)."""
    n = sel.features.n
    if data.n_items != n:
        raise DimensionError(
            f"dataset indexes {data.n_items} items, features have {n}"
        )
    return sel.rows(data.pair_i, data.pair_j)


def all_pair_probabilities(sel: RealizedSelection, w):
    """P(i beats j) for every canonical pair, in lexicographic pair order."""
    w = check_weights(w, sel.features.d)
    return _kernels.sigmoid(sel.diff_table() @ w)


def sample_comparisons(sel: RealizedSelection, w_star, m: int, seed: int) -> ComparisonDataset:
    """Draw ``m`` independent comparisons: uniform pairs, logistic outcomes.

    Each comparison picks a pair uniformly at random (with replacement) from
    all C(n,2) pairs and is won by the pair's first item with the model's
    probability.  Only the counts per pair are drawn, exactly: the totals of
    m uniform picks are Multinomial(m, uniform), and given its total a pair's
    wins are Binomial(total, p).

    The totals come from binomial splitting over the lexicographic pair index.
    A node ``(start, size, count)`` holds ``count`` comparisons among the
    ``size`` pairs from ``start``.  Starting from ``(0, C(n,2), m)``, each level
    splits every node with ``size > 1`` and ``count > 1``, in pair order, into
    a left half of ``size // 2`` pairs holding Binomial(count, (size // 2) /
    size) of its comparisons and a right half holding the rest.  Empty halves
    are dropped; the other nodes are finished and set aside, and are put in
    pair order once at the end.  Each finished node with one comparison among
    several pairs then picks its pair uniformly, in pair order.  The model is
    evaluated only at the pairs drawn, whose wins are drawn last, in pair
    order.  So the stream holds the splits level by level, then the
    single-comparison picks, then the wins; the draw is fully deterministic
    given ``seed``.  Memory is O(min(m, C(n,2)) + n), and time is
    O(min(m, C(n,2)) log C(n,2)): once m >= C(n,2) it no longer grows with m.
    """
    m = check_int("m", m, 1)
    if m > sys.maxsize:
        raise PreconditionError(f"m must be at most {sys.maxsize}, got {m}")
    seed = check_int("seed", seed, 0)
    n = sel.features.n
    if n < 2:
        raise PreconditionError("need at least 2 items to compare")
    w_star = check_weights(w_star, sel.features.d)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    nodes = np.array([[0], [n * (n - 1) // 2], [m]], dtype=np.int64)  # rows start, size, count
    finished = []
    while nodes.shape[1]:
        size, count = nodes[1], nodes[2]
        split = (size > 1) & (count > 1)
        finished.append(nodes.compress((count > 0) & ~split, axis=1))
        start, size, count = nodes.compress(split, axis=1)
        half = size // 2
        left = rng.binomial(count, half / size)
        # each split node becomes its left child, then its right child
        nodes = np.empty((3, start.size, 2), dtype=np.int64)
        nodes[:, :, 0] = start, half, left
        nodes[:, :, 1] = start + half, size - half, count - left
        nodes = nodes.reshape(3, -1)
    nodes = np.concatenate(finished, axis=1)
    start, size, count = nodes.take(np.argsort(nodes[0]), axis=1)
    single = size > 1  # one comparison among several pairs
    start[single] += rng.integers(0, size[single])
    items = np.arange(n)
    starts = pair_index(items, items + 1, n)  # each item's first pair (i, i + 1)
    ii = np.searchsorted(starts, start, side="right") - 1
    jj = start - starts[ii] + ii + 1
    probs = _kernels.sigmoid(sel.rows(ii, jj) @ w_star)
    return ComparisonDataset(ii, jj, rng.binomial(count, probs), count, n)


def check_ridge(mu, name: str = "ridge weight mu") -> float:
    """Validate the ridge weight: a finite, nonnegative real number."""
    mu = check_real(name, mu)
    if not (np.isfinite(mu) and mu >= 0):
        raise PreconditionError(f"{name} must be finite and >= 0, got {mu}")
    return mu


def _prepared(sel, w, data, mu):
    mu = check_ridge(mu)
    w = check_weights(w, sel.features.d)
    X = design_matrix(sel, data)
    return X, data.total.astype(np.float64), data.wins.astype(np.float64), w, mu


def nll(sel: RealizedSelection, w, data: ComparisonDataset, mu: float = 0.0) -> float:
    """Ridge-regularized negative log-likelihood of ``w``."""
    return float(_kernels.nll_value(*_prepared(sel, w, data, mu)))


def nll_gradient(sel: RealizedSelection, w, data: ComparisonDataset, mu: float = 0.0):
    return _kernels.nll_grad(*_prepared(sel, w, data, mu))


def nll_hessian(sel: RealizedSelection, w, data: ComparisonDataset, mu: float = 0.0):
    return _kernels.nll_hess(*_prepared(sel, w, data, mu))
