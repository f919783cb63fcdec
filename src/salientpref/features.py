"""Item feature matrices and judgment weights.

Items live in a d-dimensional feature space.  The feature matrix stores one
column per item (shape ``(d, n)``); a judgment weight vector ``w`` assigns a
full-feature utility ``<w, U_j>`` to item ``j``.  A comparison between two
items may only see a coordinate subset, chosen per pair by a selection
function (see :mod:`salientpref.selection`).

Conventions: item and coordinate indices are 0-based throughout the library;
subsets are strictly increasing tuples of coordinate indices.  The scalar
input rule, ``check_int`` and ``check_real``, and its array form,
``check_int_array``, live here too: every module can import this one.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, PreconditionError


def check_int(name: str, value, minimum: int | None = None) -> int:
    """``value`` as a plain int: an integer (never a bool, never coerced from
    a float or a string), at least ``minimum`` when one is given."""
    rule = "an integer" if minimum is None else f"an integer >= {minimum}"
    integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not integer or (minimum is not None and value < minimum):
        raise PreconditionError(f"{name} must be {rule}, got {value!r}")
    return int(value)


def check_real(name: str, value) -> float:
    """``value`` as a float: a real number, never a bool and never coerced
    from a string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise PreconditionError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_int_array(name: str, a) -> np.ndarray:
    """``a`` as an int64 array by the array form of the integer rule: an
    integer dtype, or an empty array of any dtype; bool, float and string
    arrays are refused, never cast.  Input that is not an array may hold no
    bool either: numpy reads ``[True, 2]`` as int64."""
    given, a = a, np.asarray(a)
    if not (a.dtype.kind in "iu" or a.size == 0):
        raise PreconditionError(f"{name} must be an integer array, got dtype {a.dtype}")
    if not isinstance(given, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(given, dtype=object).flat
    ):
        raise PreconditionError(f"{name} must be an integer array, got a bool")
    return a.astype(np.int64, copy=False)


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` as a C-contiguous array marked read-only."""
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FeatureMatrix:
    """Known item features: column ``j`` of ``matrix`` is item ``j``.

    Invariants enforced on construction: all entries finite, n >= 2, d >= 1,
    and item identifiers unique with one per column.  Instances are immutable
    (the array is marked read-only) and safe to share across threads.
    """

    matrix: np.ndarray
    item_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2:
            raise DimensionError(f"feature matrix must be 2-d, got ndim={m.ndim}")
        d, n = m.shape
        if d < 1 or n < 2:
            raise DimensionError(f"need d >= 1 and n >= 2, got d={d}, n={n}")
        if not np.all(np.isfinite(m)):
            raise DimensionError("feature matrix contains non-finite entries")
        if self.item_ids is None:
            ids = tuple(f"item{k}" for k in range(n))
        else:
            ids = tuple(str(s) for s in self.item_ids)
        if len(ids) != n:
            raise DimensionError(f"{len(ids)} item ids for {n} items")
        if len(set(ids)) != n:
            raise DimensionError("item ids must be pairwise distinct")
        object.__setattr__(self, "matrix", read_only(m))
        object.__setattr__(self, "item_ids", ids)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def _id_index(self) -> dict[str, int]:
        return {s: k for k, s in enumerate(self.item_ids)}

    def index_of(self, item_id: str) -> int:
        try:
            return self._id_index[item_id]
        except KeyError:
            raise KeyError(f"unknown item id {item_id!r}") from None


def check_weights(w, d: int) -> np.ndarray:
    """Validate a judgment weight vector against feature dimension ``d``."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (d,):
        raise DimensionError(f"weight vector shape {w.shape} does not match d={d}")
    if not np.all(np.isfinite(w)):
        raise DimensionError("weight vector contains non-finite entries")
    return w


def center_columns(fm: FeatureMatrix) -> FeatureMatrix:
    """Subtract the column mean from every column.

    Pairwise differences ``U_i - U_j`` are unchanged up to rounding (a common
    vector is subtracted), so pairwise comparison probabilities are unaffected.
    """
    centered = fm.matrix - fm.matrix.mean(axis=1, keepdims=True)
    return FeatureMatrix(centered, fm.item_ids)
