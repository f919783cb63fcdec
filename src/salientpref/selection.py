"""Selection functions: which coordinates a pair of items is compared on.

A selection function maps each unordered item pair to a nonempty coordinate
subset.  Four kinds are supported:

``full``
    every coordinate, for every pair (the plain feature-utility model): no
    rule runs, and its rows are the raw differences.
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

Random subsets are drawn per pair from a stream seeded by ``(seed, i, j)``,
``i < j`` the items' 0-based positions (their rows in ``features.csv``, so
reordering the items moves the subsets).  The realized map is a fixed
deterministic function of (spec, features): the same pair always yields the
same subset across calls, process runs and realization orders.  The stream is
numpy's ``default_rng(SeedSequence([seed, i, j]))`` (PCG64): ``random_exactly_k``
keeps the first k entries of its ``permutation(d)``, ``random_bernoulli`` the
coordinates where ``random(d) < p`` (each column compared with p as drawn),
drawing again while none is kept.
``_kernels.PairStreams`` computes those streams for a block of pairs at once,
bit for bit; a test pins it to the installed numpy.  Each kind's rule is
coded once, batched over pairs.  :func:`realize` only binds the spec to the
features; ``RealizedSelection.rows`` runs the rule on the pairs a reader asks
for, so fitting and scoring a dataset reads its distinct pairs only.

Readers of many pairs never hold their table.  ``row_blocks`` yields the rows
of given pairs, or of all C(n,2), a float block at a time (at most
``_kernels.FLOAT_BLOCK`` entries), running the rule once per pair.  A reader
that passes over all C(n,2) pairs twice calls ``keep_bits``, which runs the
rule once and keeps its masks as ``np.packbits`` bits, d/8 bytes a pair;
``mask_blocks`` unpacks them a float block at a time beside the block's pairs,
and ``blocks`` rebuilds each float block from those as
``where(keep, U_i - U_j, 0)``, so the rule does not run twice.  The
random kinds run the rule ``_DRAW_BLOCK`` pairs at a time, since each block
seeds its streams at a fixed cost of a few milliseconds; ``top_t`` reads the
differences, so it runs on float blocks.  Only this module lays out pairs:
``pairs_at`` decodes sorted flat pair indices, and ``pair_blocks`` enumerates
index ranges through it without building anything C(n,2) long.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from itertools import starmap

import numpy as np

from . import _kernels
from .errors import DimensionError, InvalidPairError, PreconditionError
from .features import FeatureMatrix, check_int, check_int_array, check_real, read_only

# parameters each kind takes, in to_dict order
_PARAMS = {
    "full": (),
    "top_t": ("t",),
    "random_exactly_k": ("k", "seed"),
    "random_bernoulli": ("p", "seed"),
}

# pairs whose random streams are drawn together: a PairStreams block costs
# about 3 ms of Python overhead, so smaller blocks are slower
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


def _pair_at(k: int, n: int) -> int:
    """The first item of the pair at flat index ``k`` (0 <= k < C(n,2)): the
    largest i with pair_index(i, i + 1, n) <= k, in exact integer arithmetic."""
    return n - 2 - (math.isqrt(4 * n * (n - 1) - 8 * k - 7) - 1) // 2


def pairs_at(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The int64 pairs (i, j) at the flat indices ``k``, a nonempty, sorted
    int64 array in [0, C(n,2)): one search of ``k`` among the first pairs of
    the items it spans, the first and last decoded exactly by ``_pair_at``."""
    first = _pair_at(int(k[0]), n)
    items = np.arange(first, _pair_at(int(k[-1]), n) + 1)
    starts = pair_index(items, items + 1, n)
    ii = np.searchsorted(starts, k, side="right") - 1 + first
    return ii, k - starts[ii - first] + ii + 1


def pair_blocks(n: int, rows: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``all_pairs(n)`` as consecutive int64 ranges of at most ``rows`` pairs,
    so no array is longer than ``rows``."""
    npairs = n * (n - 1) // 2
    for lo in range(0, npairs, rows):
        yield pairs_at(np.arange(lo, min(lo + rows, npairs)), n)


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
        check_canonical(ii, jj, n)
    return ii, jj


def check_canonical(ii: np.ndarray, jj: np.ndarray, n: int | None = None) -> None:
    """The canonical half of ``check_pairs`` on int64 arrays it has passed:
    ``InvalidPairError`` unless each pair has 0 <= i < j, and j < n when
    ``n`` is given."""
    bad = np.flatnonzero((ii < 0) | (ii >= jj) | (n is not None and jj >= n))
    if bad.size:
        need = "0 <= i < j" + ("" if n is None else f" < n={n}")
        i, j = ii[bad[0]], jj[bad[0]]
        raise InvalidPairError(f"pair ({i}, {j}) is not canonical: need {need}")


class RealizedSelection:
    """A selection spec bound to a feature matrix; the constructor builds
    nothing, and the first read keeps one read-only copy of the features,
    item by item.  ``rows`` runs the one subset rule, ``_keep_mask``, on the
    pairs it is given; ``full`` runs none.  A pair's subset depends on
    (spec, features, i, j) alone, so any order, subset or repetition of pairs
    reads the same rows, and readers share no other state."""

    def __init__(self, spec: SelectionSpec, features: FeatureMatrix):
        d = features.d
        if spec.kind == "top_t" and spec.t > d:
            raise DimensionError(f"top_t with t={spec.t} exceeds d={d}")
        if spec.kind == "random_exactly_k" and spec.k > d:
            raise DimensionError(f"random_exactly_k with k={spec.k} exceeds d={d}")
        self.spec = spec
        self.features = features

    @cached_property
    def _items(self) -> np.ndarray:
        """One C-contiguous row per item: a pair's two rows are read whole."""
        return read_only(self.features.matrix.T)

    def _diffs(self, ii, jj):
        """Raw differences U_i - U_j of int64 canonical pairs, fresh rows."""
        diffs = self._items[ii]
        diffs -= self._items[jj]
        return diffs

    def _keep_mask(self, ii: np.ndarray, jj: np.ndarray, diffs) -> np.ndarray:
        """The subset rule: keep mask (len(ii), d) for canonical pairs (ii, jj).

        ``diffs`` holds their raw differences U_i - U_j, one row per pair;
        ``top_t`` forms them when they are not given, the random kinds never
        read them; ``full`` has no rule.
        """
        spec = self.spec
        npairs, d = ii.size, self.features.d
        keep = np.zeros((npairs, d), dtype=bool)
        if spec.kind == "top_t":
            magnitude = np.abs(self._diffs(ii, jj) if diffs is None else diffs)
            order = np.argsort(np.negative(magnitude, out=magnitude), axis=1, kind="stable")
            np.put_along_axis(keep, order[:, : spec.t], True, axis=1)
            return keep
        for lo in range(0, npairs, _DRAW_BLOCK):
            block = slice(lo, lo + _DRAW_BLOCK)
            streams = _kernels.PairStreams.seeded(spec.seed, ii[block], jj[block])
            if spec.kind == "random_exactly_k":
                first = streams.permutation(d, spec.k)[:, : spec.k]
                np.put_along_axis(keep[block], first, True, axis=1)
                continue
            # random_bernoulli: redraw the empty rows until each keeps a coordinate
            rows = np.arange(npairs)[block]
            while rows.size:
                draw = np.column_stack([streams.random(1)[:, 0] < spec.p for _ in range(d)])
                keep[rows] = draw
                empty = ~draw.any(axis=1)
                rows, streams = rows[empty], streams.take(empty)
        return keep

    def _rule_rows(self) -> int:
        """Pairs per run of the rule in a streamed pass: the random kinds draw
        ``_DRAW_BLOCK`` pairs' streams at once; ``top_t`` reads the pairs'
        differences, so it runs on one float block."""
        if self.spec.kind.startswith("random"):
            return _DRAW_BLOCK
        return _kernels.block_rows(self.features.d)

    def _masked(self, ii, jj, keep=None) -> np.ndarray:
        """Fresh rows of int64 canonical pairs: U_i - U_j, zero off ``keep``,
        the rule's mask when it is not given (none for ``full``)."""
        table = self._diffs(ii, jj)
        if self.spec.kind == "full":
            return table
        if keep is None:
            keep = self._keep_mask(ii, jj, table)
        return _kernels.zero_off(table, keep)

    def rows(self, ii, jj) -> np.ndarray:
        """Read-only, C-contiguous masked differences U_i - U_j, zero off each
        pair's subset, shape (len(ii), d).

        ``ii``, ``jj``: equal-length 1-d integer arrays of canonical pairs
        ``0 <= i < j < n``, in any order, repeats allowed; else ``InvalidPairError``.
        """
        table = self._masked(*check_pairs(ii, jj, canonical=True, n=self.features.n))
        table.setflags(write=False)
        return table

    def _rule_chunks(self, ii=None, jj=None):
        """``(ii, jj, keep)`` over consecutive chunks of ``_rule_rows()`` of
        the given int64 canonical pairs, or of all C(n,2) in lexicographic
        order when none are given: the rule runs once per chunk (``keep`` is
        None for ``full``)."""
        rule = self._rule_rows()
        if ii is None:
            chunks = pair_blocks(self.features.n, rule)
        else:
            chunks = ((ii[lo : lo + rule], jj[lo : lo + rule]) for lo in range(0, ii.size, rule))
        for i, j in chunks:
            yield i, j, None if self.spec.kind == "full" else self._keep_mask(i, j, None)

    def row_blocks(self, ii=None, jj=None) -> Iterator[np.ndarray]:
        """``rows(ii, jj)``, or ``rows`` of all C(n,2) pairs when none are
        given, in consecutive blocks of at most ``_kernels.FLOAT_BLOCK``
        entries (one row at least), in pair order.  A reader that passes
        over the pairs once needs nothing else; the rule runs on each pair
        once."""
        if ii is not None:
            ii, jj = check_pairs(ii, jj, canonical=True, n=self.features.n)
        step = _kernels.block_rows(self.features.d)
        for i, j, keep in self._rule_chunks(ii, jj):
            for at in range(0, i.size, step):
                rows = slice(at, at + step)
                yield self._masked(i[rows], j[rows], None if keep is None else keep[rows])

    def keep_bits(self) -> np.ndarray | None:
        """The keep masks of all C(n,2) pairs in lexicographic order, each
        row packed by ``np.packbits``: read-only uint8, shape (C(n,2),
        ceil(d/8)), for a reader that passes over the pairs twice.  The rule
        runs once per pair.  None for ``full``, whose mask keeps every
        coordinate."""
        if self.spec.kind == "full":
            return None
        n, d = self.features.n, self.features.d
        bits = np.empty((n * (n - 1) // 2, -(-d // 8)), dtype=np.uint8)
        lo = 0
        for ii, _, keep in self._rule_chunks():
            bits[lo : lo + ii.size] = np.packbits(keep, axis=1)
            lo += ii.size
        bits.setflags(write=False)
        return bits

    def mask_blocks(self, bits: np.ndarray | None) -> Iterator[tuple]:
        """``(ii, jj, keep)`` over ``pair_blocks(n, block_rows(d))``: each
        float block's pairs and their keep masks, unpacked from ``bits``, the
        result of ``keep_bits()``; ``keep`` is None for ``full``."""
        n, d = self.features.n, self.features.d
        step = _kernels.block_rows(d)
        pairs = pair_blocks(n, step)
        for lo in range(0, n * (n - 1) // 2, step):
            # one expression per block: nothing of it stays bound here between yields
            yield *next(pairs), None if bits is None else np.unpackbits(
                bits[lo : lo + step], axis=1, count=d
            ).view(bool)

    def blocks(self, bits: np.ndarray | None) -> Iterator[np.ndarray]:
        """``row_blocks()``, each block rebuilt from ``bits``, the result of
        ``keep_bits()``; the rule does not run."""
        return starmap(self._masked, self.mask_blocks(bits))


def realize(spec: SelectionSpec, features: FeatureMatrix) -> RealizedSelection:
    return RealizedSelection(spec, features)
