import os
from pathlib import Path

import numpy as np
import pytest

import salientpref
from salientpref import FeatureMatrix, SelectionSpec, realize

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


def count_lists(data):
    """A dataset's four count arrays as lists: pair_i, pair_j, wins, total."""
    return tuple(a.tolist() for a in (data.pair_i, data.pair_j, data.wins, data.total))
