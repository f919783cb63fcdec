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
calls, process runs, and realization orders.  The stream is numpy's
``default_rng(SeedSequence([seed, i, j]))`` (PCG64): ``random_exactly_k``
keeps the first k entries of its ``permutation(d)``, ``random_bernoulli`` the
coordinates where ``random(d) < p``, drawing again while none is kept.
``_kernels.PairStreams`` computes those streams for a block of pairs at once,
bit for bit; a test pins it to the installed numpy.  Each kind's rule is
coded once, batched over all pairs, and runs once, when :func:`realize` builds
the keep mask and the masked-difference table; single-pair lookups index
that table.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionError, InvalidPairError, NotSingleCoordinateError
from .features import FeatureMatrix

# parameters each kind takes, in to_dict order
_PARAMS = {
    "full": (),
    "top_t": ("t",),
    "random_exactly_k": ("k", "seed"),
    "random_bernoulli": ("p", "seed"),
}

# pairs whose random streams are drawn together; bounds the draw's working set
_DRAW_BLOCK = 4096


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
    """A selection spec bound to a feature matrix, realized once.

    The constructor runs the subset rule for all pairs and keeps the keep
    mask and the masked-difference table, both read-only; every reader
    indexes them, so concurrent readers see identical results.
    """

    def __init__(self, spec: SelectionSpec, features: FeatureMatrix):
        d = features.d
        if spec.kind == "top_t" and spec.t > d:
            raise DimensionError(f"top_t with t={spec.t} exceeds d={d}")
        if spec.kind == "random_exactly_k" and spec.k > d:
            raise DimensionError(f"random_exactly_k with k={spec.k} exceeds d={d}")
        self.spec = spec
        self.features = features
        self._diffs = self._build_diff_table()

    def _row(self, i: int, j: int) -> int:
        n = self.features.n
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidPairError(f"pair ({i}, {j}) out of range for n={n}")
        if i == j:
            raise InvalidPairError(f"item compared with itself: {i}")
        return pair_index(min(i, j), max(i, j), n)

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
        for lo in range(0, npairs, _DRAW_BLOCK):
            block = slice(lo, lo + _DRAW_BLOCK)
            streams = _kernels.PairStreams.seeded(spec.seed, ii[block], jj[block])
            if spec.kind == "random_exactly_k":
                np.put_along_axis(keep[block], streams.permutation(d)[:, : spec.k], True, axis=1)
                continue
            # random_bernoulli: redraw the empty rows until each keeps a coordinate
            rows = np.arange(npairs)[block]
            while rows.size:
                draw = streams.random(d) < spec.p
                keep[rows] = draw
                empty = ~draw.any(axis=1)
                rows, streams = rows[empty], streams.take(empty)
        return keep

    def select(self, i: int, j: int) -> tuple[int, ...]:
        """Realized coordinate subset for the pair; symmetric in (i, j)."""
        return tuple(np.flatnonzero(self._keep[self._row(i, j)]).tolist())

    def masked_diff(self, i: int, j: int) -> np.ndarray:
        """Masked feature difference U_i - U_j on the pair's subset."""
        U = self.features.matrix
        return np.where(self._keep[self._row(i, j)], U[:, i] - U[:, j], 0.0)

    def diff_table(self) -> np.ndarray:
        """Masked differences for all canonical pairs, shape (C(n,2), d).

        Row order is lexicographic in (i, j); rows are U_i - U_j masked to the
        pair's subset.  The table is C-contiguous and read-only.
        """
        return self._diffs

    def _build_diff_table(self) -> np.ndarray:
        UT = self.features.matrix.T
        ii, jj = all_pairs(UT.shape[0])
        table = UT[ii]  # (npairs, d), a fresh C-contiguous copy
        table -= UT[jj]
        keep = self._keep_mask(ii, jj, table)
        np.copyto(table, 0.0, where=~keep)
        keep.setflags(write=False)
        table.setflags(write=False)
        self._keep = keep
        return table

    def partition_by_coordinate(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Group all pairs by their single selected coordinate.

        Requires every realized subset to be a singleton; returns one pair
        tuple per coordinate (possibly empty), a partition of all C(n,2)
        pairs, each part in lexicographic pair order.
        """
        keep = self._keep
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
