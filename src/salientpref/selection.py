"""Selection functions: which coordinates a pair of items is compared on.

A selection function maps each unordered item pair to a nonempty coordinate
subset.  Four kinds are supported:

``full``
    every coordinate, for every pair (the plain feature-utility model).
``top_t``
    the ``t`` coordinates where the two items differ most.  Ranking by the
    two-point sample variance ((a - mu)^2 + (b - mu)^2) / 2 with mu = (a+b)/2
    equals ranking by |a - b| (the variance is |a - b|^2 / 4), so the
    implementation ranks by absolute difference; ties break toward the lower
    coordinate index.
``random_exactly_k``
    a uniformly random k-subset per pair.
``random_bernoulli``
    each coordinate kept independently with probability p; an all-empty draw
    is redrawn so the subset is never empty.

Random subsets are drawn per pair from a stream seeded by ``(seed, i, j)``
(canonical ``i < j``), so the realized map is a fixed deterministic function
of (spec, features): the same pair always yields the same subset, across
calls, process runs, and realization orders.  Each kind's rule is coded once,
batched over pairs, and serves single-pair lookups and the all-pairs table
alike; nothing is memoized per pair.
"""

from __future__ import annotations

import json
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidPairError, NotSingleCoordinateError
from .features import FeatureMatrix

# parameters each kind takes, in to_dict order
_PARAMS = {
    "full": (),
    "top_t": ("t",),
    "random_exactly_k": ("k", "seed"),
    "random_bernoulli": ("p", "seed"),
}


@dataclass(frozen=True)
class SelectionSpec:
    """Parameter record for one selection function.

    ``t``, ``k`` and ``seed`` must be integers and ``p`` a real number (never
    a bool); a parameter the kind does not use must be left unset.
    """

    kind: str
    t: int | None = None
    k: int | None = None
    p: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in _PARAMS:
            raise ValueError(f"unknown selection kind {self.kind!r}")
        used = _PARAMS[self.kind]
        for name in ("t", "k", "p", "seed"):
            value = getattr(self, name)
            if name not in used:
                if value is not None:
                    raise ValueError(f"{self.kind} takes no parameter {name!r}")
            elif value is None:
                raise ValueError(f"{self.kind} requires {name!r}")
            elif name == "p":
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise ValueError(f"p must be a real number, got {value!r}")
                object.__setattr__(self, name, float(value))
            else:
                if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                    raise ValueError(f"{name} must be an integer, got {value!r}")
                object.__setattr__(self, name, int(value))
        if self.kind == "top_t" and self.t < 1:
            raise ValueError("top_t requires an integer t >= 1")
        if self.kind == "random_exactly_k" and self.k < 1:
            raise ValueError("random_exactly_k requires an integer k >= 1")
        if self.kind == "random_bernoulli" and not 0.0 < self.p <= 1.0:
            raise ValueError("random_bernoulli requires p in (0, 1]")
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")

    @classmethod
    def full(cls) -> "SelectionSpec":
        return cls("full")

    @classmethod
    def top_t(cls, t: int) -> "SelectionSpec":
        return cls("top_t", t=t)

    @classmethod
    def random_exactly_k(cls, k: int, seed: int) -> "SelectionSpec":
        return cls("random_exactly_k", k=k, seed=seed)

    @classmethod
    def random_bernoulli(cls, p: float, seed: int) -> "SelectionSpec":
        return cls("random_bernoulli", p=p, seed=seed)

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        out.update((name, getattr(self, name)) for name in _PARAMS[self.kind])
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, obj: dict) -> "SelectionSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError("selection spec must be an object with a 'kind' key")
        known = {"kind", "t", "k", "p", "seed"}
        extra = set(obj) - known
        if extra:
            raise ValueError(f"unknown selection spec keys: {sorted(extra)}")
        return cls(
            obj["kind"],
            t=obj.get("t"),
            k=obj.get("k"),
            p=obj.get("p"),
            seed=obj.get("seed"),
        )

    @classmethod
    def from_json(cls, text: str) -> "SelectionSpec":
        return cls.from_dict(json.loads(text))


def pair_index(i: int, j: int, n: int) -> int:
    """Flat index of canonical pair (i < j) in lexicographic pair order."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def all_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of all canonical pairs in lexicographic order."""
    return np.triu_indices(n, k=1)


class RealizedSelection:
    """A selection spec bound to a feature matrix.

    Subsets are recomputed on demand by :meth:`select` and
    :meth:`masked_diff`; :meth:`diff_table` builds the keep mask and the
    masked-difference table for all pairs once, under a lock, and caches both
    read-only, so concurrent readers see identical results.
    """

    def __init__(self, spec: SelectionSpec, features: FeatureMatrix):
        d = features.d
        if spec.kind == "top_t" and spec.t > d:
            raise DimensionError(f"top_t with t={spec.t} exceeds d={d}")
        if spec.kind == "random_exactly_k" and spec.k > d:
            raise DimensionError(f"random_exactly_k with k={spec.k} exceeds d={d}")
        self.spec = spec
        self.features = features
        self._lock = threading.Lock()
        self._keep: np.ndarray | None = None
        self._diffs: np.ndarray | None = None

    @property
    def n_pairs(self) -> int:
        n = self.features.n
        return n * (n - 1) // 2

    def _canonical(self, i: int, j: int) -> tuple[int, int]:
        n = self.features.n
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidPairError(f"pair ({i}, {j}) out of range for n={n}")
        if i == j:
            raise InvalidPairError(f"item compared with itself: {i}")
        return (i, j) if i < j else (j, i)

    def _keep_mask(self, ii: np.ndarray, jj: np.ndarray, diffs: np.ndarray) -> np.ndarray:
        """The subset rule: keep mask (len(ii), d) for canonical pairs (ii, jj).

        ``diffs`` holds the raw differences U_i - U_j, one row per pair.
        """
        spec = self.spec
        npairs, d = diffs.shape
        if spec.kind == "full":
            return np.ones((npairs, d), dtype=bool)
        keep = np.zeros((npairs, d), dtype=bool)
        if spec.kind == "top_t":
            order = np.argsort(-np.abs(diffs), axis=1, kind="stable")
            np.put_along_axis(keep, order[:, : spec.t], True, axis=1)
            return keep
        for r, (a, b) in enumerate(zip(ii.tolist(), jj.tolist())):
            rng = np.random.default_rng(np.random.SeedSequence([spec.seed, a, b]))
            if spec.kind == "random_exactly_k":
                keep[r, rng.permutation(d)[: spec.k]] = True
            else:
                # random_bernoulli: redraw until at least one coordinate survives
                while not keep[r].any():
                    keep[r] = rng.random(d) < spec.p
        return keep

    def _pair_keep(self, i: int, j: int) -> np.ndarray:
        a, b = self._canonical(i, j)
        U = self.features.matrix
        return self._keep_mask(
            np.array([a]), np.array([b]), (U[:, a] - U[:, b])[None, :]
        )[0]

    def select(self, i: int, j: int) -> tuple[int, ...]:
        """Realized coordinate subset for the pair; symmetric in (i, j)."""
        return tuple(np.flatnonzero(self._pair_keep(i, j)).tolist())

    def masked_diff(self, i: int, j: int) -> np.ndarray:
        """Masked feature difference U_i - U_j on the pair's subset."""
        keep = self._pair_keep(i, j)
        U = self.features.matrix
        return np.where(keep, U[:, i] - U[:, j], 0.0)

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        with self._lock:
            if self._diffs is None:
                self._diffs = self._build_diff_table()
            return self._keep, self._diffs

    def diff_table(self) -> np.ndarray:
        """Masked differences for all canonical pairs, shape (C(n,2), d).

        Row order is lexicographic in (i, j); rows are U_i - U_j masked to the
        pair's subset.  Built once and cached read-only.
        """
        return self._tables()[1]

    def _build_diff_table(self) -> np.ndarray:
        U = self.features.matrix
        ii, jj = all_pairs(U.shape[1])
        diffs = U[:, ii].T - U[:, jj].T  # (npairs, d)
        keep = self._keep_mask(ii, jj, diffs)
        keep.setflags(write=False)
        self._keep = keep
        out = np.where(keep, diffs, 0.0)
        out.setflags(write=False)
        return out

    def partition_by_coordinate(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Group all pairs by their single selected coordinate.

        Requires every realized subset to be a singleton; returns one pair
        tuple per coordinate (possibly empty), a partition of all C(n,2)
        pairs, each part in lexicographic pair order.
        """
        keep = self._tables()[0]
        ii, jj = all_pairs(self.features.n)
        sizes = keep.sum(axis=1)
        bad = np.flatnonzero(sizes != 1)
        if bad.size:
            r = bad[0]
            raise NotSingleCoordinateError(
                f"pair ({ii[r]}, {jj[r]}) selects {sizes[r]} coordinates, need 1"
            )
        coord = keep.argmax(axis=1)
        return tuple(
            tuple(zip(ii[coord == k].tolist(), jj[coord == k].tolist()))
            for k in range(self.features.d)
        )


def realize(spec: SelectionSpec, features: FeatureMatrix) -> RealizedSelection:
    return RealizedSelection(spec, features)
