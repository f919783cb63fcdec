"""Each stage runs the subset rule on the pairs it reads and no others.

A spy on ``RealizedSelection._keep_mask``, the one rule every row comes
from, records how many pairs each call asks for.  Fitting and scoring a
dataset ask for its distinct pairs, sampling asks for the pairs it drew,
and the certificate and the all-pairs probabilities realize all C(n,2)
pairs once.
"""

import numpy as np
import pytest

from salientpref import (
    ComparisonDataset,
    FeatureMatrix,
    SelectionSpec,
    cli,
    fit,
    nll,
    nll_gradient,
    nll_hessian,
    pairwise_accuracy,
    realize,
    sample_comparisons,
)
from salientpref.model import all_pair_probabilities, design_matrix
from salientpref.selection import RealizedSelection

N, D, PAIRS = 2000, 4, 50


@pytest.fixture
def asked(monkeypatch):
    """Lengths of the pair arrays the subset rule is asked for, in call order."""
    calls = []
    rule = RealizedSelection._keep_mask

    def spy(self, ii, jj, diffs):
        calls.append(len(ii))
        return rule(self, ii, jj, diffs)

    monkeypatch.setattr(RealizedSelection, "_keep_mask", spy)
    return calls


SPECS = [SelectionSpec.top_t(2), SelectionSpec.random_bernoulli(0.5, seed=3)]


def sparse_instance():
    """n=2000 items, and 50 distinct pairs compared 3 times each."""
    rng = np.random.default_rng(11)
    features = FeatureMatrix(rng.normal(size=(D, N)))
    flat = rng.choice(N * (N - 1) // 2, size=PAIRS, replace=False)
    ii, jj = np.triu_indices(N, k=1)
    total = np.full(PAIRS, 3)
    data = ComparisonDataset(ii[flat], jj[flat], rng.integers(0, 4, PAIRS), total, N)
    return features, data, rng.normal(size=D)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_dataset_stages_read_only_its_pairs(asked, spec):
    features, data, w = sparse_instance()
    sel = realize(spec, features)
    assert asked == []
    stages = {
        "design_matrix": lambda: design_matrix(sel, data),
        "fit": lambda: fit(sel, data),
        "nll": lambda: nll(sel, w, data),
        "nll_gradient": lambda: nll_gradient(sel, w, data),
        "nll_hessian": lambda: nll_hessian(sel, w, data),
        "pairwise_accuracy": lambda: pairwise_accuracy(sel, w, data),
    }
    for name, stage in stages.items():
        asked.clear()
        stage()
        assert sum(asked) == PAIRS, name


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_sampling_reads_only_the_pairs_drawn(asked, spec):
    features, _, w = sparse_instance()
    data = sample_comparisons(realize(spec, features), w, 100, seed=4)
    assert sum(asked) == data.pair_i.size <= 100


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_all_pair_probabilities_realize_every_pair_once(asked, spec):
    n = 40
    features = FeatureMatrix(np.random.default_rng(2).normal(size=(D, n)))
    all_pair_probabilities(realize(spec, features), np.ones(D))
    assert sum(asked) == n * (n - 1) // 2


def test_simulate_and_theory_realize_every_pair_once(asked, tmp_path):
    n, spec = 9, '{"kind":"random_exactly_k","k":3,"seed":5}'
    argv = ["simulate", "--d", "5", "--n", str(n), "--m", "5000",
            "--selection", spec, "--seed", "2", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert asked == [n * (n - 1) // 2]
    asked.clear()
    argv = ["theory", "--features", str(tmp_path / "features.csv"), "--selection", spec,
            "--weights", str(tmp_path / "truth_weights.json"),
            "--out", str(tmp_path / "theory.json")]
    assert cli.main(argv) == 0
    assert asked == [n * (n - 1) // 2]
