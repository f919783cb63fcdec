import contextlib
import json
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import salientpref
from salientpref import (
    FeatureMatrix,
    SelectionSpec,
    all_pair_probabilities,
    count_transitivity_violations,
    dataio,
    realize,
)
from salientpref import _kernels
from salientpref.model import design_matrix
from salientpref.selection import all_pairs

# CLI tests run ``python -m salientpref.cli`` in child processes: let them
# import the same package this process imported.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(salientpref.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def random_features(rng, d, n, scale=None):
    scale = scale if scale is not None else 1.0 / np.sqrt(d)
    return FeatureMatrix(rng.normal(0.0, scale, size=(d, n)))


def random_selection(rng, d):
    """One of the four selection kinds, parameters drawn at random."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return SelectionSpec.full()
    if kind == 1:
        return SelectionSpec.top_t(int(rng.integers(1, d + 1)))
    if kind == 2:
        return SelectionSpec.random_exactly_k(
            int(rng.integers(1, d + 1)), int(rng.integers(0, 2**32))
        )
    return SelectionSpec.random_bernoulli(
        float(rng.uniform(0.2, 1.0)), int(rng.integers(0, 2**32))
    )


def make_instance(rng, d, n, spec=None):
    fm = random_features(rng, d, n)
    spec = spec or random_selection(rng, d)
    return fm, realize(spec, fm)


def all_rows(sel):
    """``sel.rows`` of all C(n,2) pairs in lexicographic order, as one table."""
    return sel.rows(*all_pairs(sel.features.n))


def model_report(sel, w):
    """The transitivity report of the model, from the two calls ``diagnose
    --weights`` makes: every pair's probability, then the triple scan."""
    n = sel.features.n
    return count_transitivity_violations(*all_pairs(n), all_pair_probabilities(sel, w))


def _folds(sel, data):
    """What ``fit`` hands its likelihood kernels: ``data``'s design and float counts."""
    return design_matrix(sel, data), data.total.astype(np.float64), data.wins.astype(np.float64)


def gradient(sel, w, data, mu=0.0):
    """The likelihood's gradient at ``w``, by the kernel ``fit`` runs."""
    return _kernels.nll_grad(*_folds(sel, data), np.asarray(w, dtype=np.float64), mu)


def hessian(sel, w, data, mu=0.0):
    """The likelihood's Hessian at ``w``, by the kernel ``fit`` runs."""
    return _kernels.nll_hess(*_folds(sel, data), np.asarray(w, dtype=np.float64), mu)


def count_lists(data):
    """A dataset's four count arrays as lists: pair_i, pair_j, wins, total."""
    return tuple(a.tolist() for a in (data.pair_i, data.pair_j, data.wins, data.total))


def written(path, payload):
    """``payload`` as ``dataio.write_json`` writes it to ``path``, read back."""
    dataio.write_json(str(path), payload)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def triple_objects(rows) -> list[dict]:
    """The JSON objects ``diagnose`` lists for ``(x, y, z, moderate, weak)`` rows."""
    return [
        {"moderate": m == 1, "strong": True, "triple": [x, y, z], "weak": w == 1}
        for x, y, z, m, w in np.asarray(rows).tolist()
    ]


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes traced by ``tracemalloc`` while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@contextlib.contextmanager
def piped(text):
    """A path that reads ``text`` once, through a pipe, and is empty when
    opened again (as a shell's ``<(gunzip -c file)`` is)."""
    read_fd, write_fd = os.pipe()

    def write():
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(text.encode("utf-8"))

    writer = threading.Thread(target=write)
    writer.start()
    try:
        yield f"/dev/fd/{read_fd}"
    finally:
        os.close(read_fd)
        writer.join()
