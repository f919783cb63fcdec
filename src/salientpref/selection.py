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
coded once, batched over pairs.  :func:`realize` only binds the spec to the
features; ``RealizedSelection.rows`` and ``keep`` run the rule on the pairs a
reader asks for, so fitting and scoring a dataset reads its distinct pairs
only, and ``diff_table`` reads all C(n,2) of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DimensionError, InvalidPairError, NotSingleCoordinateError, PreconditionError
from .features import FeatureMatrix, check_int, check_int_array, check_real

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

    ``t``, ``k`` and ``seed`` must be integers and ``p`` a real number, by
    ``features.check_int`` and ``check_real``; a parameter the kind does not
    use must be left unset.
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
            else:
                check = check_real if name == "p" else check_int
                object.__setattr__(self, name, check(name, value))
        if self.kind == "top_t" and self.t < 1:
            raise PreconditionError("top_t requires an integer t >= 1")
        if self.kind == "random_exactly_k" and self.k < 1:
            raise PreconditionError("random_exactly_k requires an integer k >= 1")
        if self.kind == "random_bernoulli" and not 0.0 < self.p <= 1.0:
            raise PreconditionError("random_bernoulli requires p in (0, 1]")
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise PreconditionError("seed must fit in 64 unsigned bits")

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


def check_pairs(ii, jj, canonical: bool = False, n: int | None = None):
    """``ii`` and ``jj`` as int64 arrays of item indices, one pair per position.

    They must be equal-length 1-d integer arrays by
    ``features.check_int_array`` (an empty one may have any dtype); bools,
    floats and strings are refused, never cast, and so is a bool inside a
    list.  With ``canonical``, each pair must also have 0 <= i < j, and
    j < n when ``n`` is given.  Any failure raises ``InvalidPairError``.
    """
    rule = "pairs must be given as equal-length 1-d integer arrays"
    try:
        ii, jj = check_int_array("pair_i", ii), check_int_array("pair_j", jj)
    except PreconditionError as exc:
        raise InvalidPairError(f"{rule}: {exc}") from None
    if ii.ndim != 1 or ii.shape != jj.shape:
        raise InvalidPairError(rule)
    if canonical:
        bad = np.flatnonzero((ii < 0) | (ii >= jj) | (n is not None and jj >= n))
        if bad.size:
            need = "0 <= i < j" + ("" if n is None else f" < n={n}")
            i, j = ii[bad[0]], jj[bad[0]]
            raise InvalidPairError(f"pair ({i}, {j}) is not canonical: need {need}")
    return ii, jj


class RealizedSelection:
    """A selection spec bound to a feature matrix; the constructor builds
    nothing.  ``keep`` and ``rows`` run the one subset rule, ``_keep_mask``,
    on the pairs they are given.  A pair's subset depends on (spec, features,
    i, j) alone, so any order, subset or repetition of pairs reads the same
    rows, and readers share no state."""

    def __init__(self, spec: SelectionSpec, features: FeatureMatrix):
        d = features.d
        if spec.kind == "top_t" and spec.t > d:
            raise DimensionError(f"top_t with t={spec.t} exceeds d={d}")
        if spec.kind == "random_exactly_k" and spec.k > d:
            raise DimensionError(f"random_exactly_k with k={spec.k} exceeds d={d}")
        self.spec = spec
        self.features = features

    def _raw_diffs(self, ii, jj):
        """Checked int64 pairs and their raw differences U_i - U_j, fresh rows."""
        ii, jj = check_pairs(ii, jj, canonical=True, n=self.features.n)
        UT = self.features.matrix.T
        diffs = UT[ii]
        diffs -= UT[jj]
        return ii, jj, diffs

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

    def keep(self, ii, jj) -> np.ndarray:
        """Read-only bool mask (len(ii), d) of each pair's selected coordinates.

        ``ii``, ``jj``: equal-length 1-d integer arrays of canonical pairs
        ``0 <= i < j < n``, in any order, repeats allowed; else ``InvalidPairError``.
        """
        mask = self._keep_mask(*self._raw_diffs(ii, jj))
        mask.setflags(write=False)
        return mask

    def rows(self, ii, jj) -> np.ndarray:
        """Read-only, C-contiguous masked differences U_i - U_j, zero off each
        pair's subset, shape (len(ii), d); the pairs are taken as by ``keep``."""
        ii, jj, table = self._raw_diffs(ii, jj)
        np.copyto(table, 0.0, where=~self._keep_mask(ii, jj, table))
        table.setflags(write=False)
        return table

    def diff_table(self) -> np.ndarray:
        """``rows`` of all C(n,2) pairs in lexicographic order, built per call."""
        return self.rows(*all_pairs(self.features.n))

    def single_coordinate(self) -> np.ndarray:
        """Each pair's one selected coordinate, in lexicographic pair order.

        Requires every realized subset to be a singleton; returns a read-only
        int64 array of length C(n,2).  A kind whose subset size is fixed and
        not 1 is refused from the spec, without realizing any pair.
        """
        spec, n = self.spec, self.features.n
        size = {"full": self.features.d, "top_t": spec.t, "random_exactly_k": spec.k}.get(spec.kind)
        if size not in (None, 1) and n >= 2:
            raise NotSingleCoordinateError(f"pair (0, 1) selects {size} coordinates, need 1")
        ii, jj = all_pairs(n)
        keep = self.keep(ii, jj)
        sizes = keep.sum(axis=1)
        bad = np.flatnonzero(sizes != 1)
        if bad.size:
            r = bad[0]
            raise NotSingleCoordinateError(
                f"pair ({ii[r]}, {jj[r]}) selects {sizes[r]} coordinates, need 1"
            )
        coords = keep.argmax(axis=1).astype(np.int64, copy=False)
        coords.setflags(write=False)
        return coords


def realize(spec: SelectionSpec, features: FeatureMatrix) -> RealizedSelection:
    return RealizedSelection(spec, features)
