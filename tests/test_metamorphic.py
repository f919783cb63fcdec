"""Metamorphic relations: the pipeline's answer is a property of the data,
not of how its files are written (Chen, Cheung & Yiu, "Metamorphic testing:
a new approach for generating next test cases", HKUST-CS98-01, 1998; Segura
et al., IEEE TSE 2016).

Each test simulates one small instance, runs ``fit``, ``rank``,
``evaluate``, ``theory`` and ``diagnose`` in process on its files and on the
same data written another way, and compares the outputs.  The tolerances
were fixed before the tests first ran.

1. Reordering the rows of ``features.csv``, ids travelling with their rows,
   leaves ``w_hat`` equal within 1e-12 max(1, ||w_hat||), the numbers of
   ``theory.json`` equal at relative 1e-12, ``ranking.csv`` as a map from id
   to utility equal within 1e-12 max(1, max |utility|), ``eval.json`` equal
   and the counts of each ``diagnose.json`` section exactly equal.  The
   random kinds key each pair's draw by the items' row positions, so their
   subsets, and with them every output, move: those cases are expected to
   fail until the draw is keyed by item id.
2. Splitting each comparisons row ``(a, b, c)`` into ``(a, b, c1)`` and
   ``(a, b, c - c1)`` and shuffling the rows leaves every primary output
   byte-identical, since the loader sums the rows into the same counts.
3. Permuting the feature columns, and the true weights with them, permutes
   ``w_hat`` with the columns within 1e-12 max(1, ||w_hat||), and leaves the
   numbers of ``theory.json`` equal at relative 1e-12 and the counts of the
   ``empirical`` section of ``diagnose.json`` exactly equal.  Only top_t and
   ``full`` are tested: the random kinds draw coordinate indices, so a
   permuted column is drawn with another probability and the subsets do not
   permute with the columns.
6. Swapping winner and loser in every comparisons row negates ``w_hat``
   within 1e-12 max(1, ||w_hat||) and leaves the counts of the ``empirical``
   section of ``diagnose.json`` exactly equal: each rate becomes one minus
   itself exactly, so P becomes its transpose and a reversed chain is
   classified as the chain was.
"""

import json

import math

import numpy as np
import pytest

from salientpref import cli
from salientpref.dataio import read_json

SPECS = {
    "top_t": '{"kind":"top_t","t":2}',
    "full": '{"kind":"full"}',
    "random_exactly_k": '{"kind":"random_exactly_k","k":3,"seed":4}',
    "random_bernoulli": '{"kind":"random_bernoulli","p":0.3,"seed":4}',
}
OUTPUTS = ("fit.json", "ranking.csv", "eval.json", "theory.json", "diagnose.json")
KEYED_BY_POSITION = pytest.mark.xfail(
    strict=True, reason="random draws are keyed by row position, not item id (ROADMAP item 5)"
)


def run(*argv):
    assert cli.main([str(a) for a in argv]) == 0


def simulate(where, spec):
    run("simulate", "--d", 8, "--n", 40, "--m", 20000, "--selection", spec,
        "--seed", 3, "--out-dir", where)


def pipeline(where, features, comparisons, spec, truth):
    """Every command that reads the data, with outputs in ``where``."""
    where.mkdir()
    fitted = where / "fit.json"
    run("fit", "--features", features, "--comparisons", comparisons, "--selection", spec,
        "--out", fitted)
    run("rank", "--features", features, "--weights", fitted, "--out", where / "ranking.csv")
    run("evaluate", "--features", features, "--weights", fitted, "--comparisons", comparisons,
        "--selection", spec, "--out", where / "eval.json")
    run("theory", "--features", features, "--selection", spec, "--weights", truth,
        "--out", where / "theory.json")
    run("diagnose", "--features", features, "--comparisons", comparisons, "--weights", truth,
        "--selection", spec, "--out", where / "diagnose.json")


def shuffled_lines(path, rng, split=None):
    """The lines of a CSV file after its header, each passed through
    ``split`` (to one or more lines) and then shuffled, header first."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    if split is not None:
        rows = [line for row in rows for line in split(row)]
    rows = [rows[k] for k in rng.permutation(len(rows))]
    return "\n".join([header, *rows]) + "\n"


def utilities(path):
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    assert header == "rank,item_id,utility"
    return {item: float(value) for _, item, value in (row.split(",") for row in rows)}


def assert_close_numbers(a, b, path="theory"):
    """Equal JSON values, numbers within relative 1e-12."""
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            assert_close_numbers(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, list):
        assert len(a) == len(b), path
        for k, (x, y) in enumerate(zip(a, b)):
            assert_close_numbers(x, y, f"{path}[{k}]")
    elif isinstance(a, float) and not isinstance(a, bool):
        assert a == b or math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0), (path, a, b)
    else:
        assert a == b, path


def counts(section):
    return {key: value for key, value in section.items()
            if isinstance(value, int) and not isinstance(value, bool)}


@pytest.mark.parametrize(
    "kind",
    ["top_t", "full",
     pytest.param("random_exactly_k", marks=KEYED_BY_POSITION),
     pytest.param("random_bernoulli", marks=KEYED_BY_POSITION)],
)
def test_reordering_the_features_rows(tmp_path, kind):
    spec, sim = SPECS[kind], tmp_path / "sim"
    simulate(sim, spec)
    moved = tmp_path / "moved.csv"
    moved.write_text(shuffled_lines(sim / "features.csv", np.random.default_rng(1)),
                     encoding="utf-8")
    args = (sim / "comparisons.csv", spec, sim / "truth_weights.json")
    pipeline(tmp_path / "a", sim / "features.csv", *args)
    pipeline(tmp_path / "b", moved, *args)
    a, b = tmp_path / "a", tmp_path / "b"

    w_a = np.array(read_json(str(a / "fit.json"))["w_hat"])
    w_b = np.array(read_json(str(b / "fit.json"))["w_hat"])
    assert np.max(np.abs(w_a - w_b)) <= 1e-12 * max(1.0, np.linalg.norm(w_a))

    assert_close_numbers(read_json(str(a / "theory.json")), read_json(str(b / "theory.json")))

    u_a, u_b = utilities(a / "ranking.csv"), utilities(b / "ranking.csv")
    assert u_a.keys() == u_b.keys()
    scale = max(1.0, max(abs(v) for v in u_a.values()))
    assert max(abs(u_a[item] - u_b[item]) for item in u_a) <= 1e-12 * scale

    assert read_json(str(a / "eval.json")) == read_json(str(b / "eval.json"))

    d_a, d_b = read_json(str(a / "diagnose.json")), read_json(str(b / "diagnose.json"))
    for section in ("empirical", "model", "inconsistency"):
        assert counts(d_a[section]) == counts(d_b[section]), section


@pytest.mark.parametrize("kind", list(SPECS))
def test_splitting_and_shuffling_the_comparisons_rows(tmp_path, kind):
    spec, sim = SPECS[kind], tmp_path / "sim"
    simulate(sim, spec)
    rng = np.random.default_rng(2)

    def split(row):
        a, b, c = row.split(",")
        c = int(c)
        if c < 2:
            return [row]
        c1 = int(rng.integers(1, c))
        return [f"{a},{b},{c1}", f"{a},{b},{c - c1}"]

    split_rows = tmp_path / "split.csv"
    split_rows.write_text(shuffled_lines(sim / "comparisons.csv", rng, split), encoding="utf-8")
    assert len(split_rows.read_text().splitlines()) > len(
        (sim / "comparisons.csv").read_text().splitlines())
    pipeline(tmp_path / "a", sim / "features.csv", sim / "comparisons.csv", spec,
             sim / "truth_weights.json")
    pipeline(tmp_path / "b", sim / "features.csv", split_rows, spec, sim / "truth_weights.json")
    for name in OUTPUTS:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def fitted_weights(where):
    return np.array(read_json(str(where / "fit.json"))["w_hat"])


@pytest.mark.parametrize("kind", ["top_t", "full"])
def test_permuting_the_feature_columns(tmp_path, kind):
    spec, sim = SPECS[kind], tmp_path / "sim"
    simulate(sim, spec)
    perm = np.random.default_rng(5).permutation(8)  # new column k is old column perm[k]
    lines = (sim / "features.csv").read_text(encoding="utf-8").splitlines()
    permuted = []
    for line in lines:
        item, *cells = line.split(",")
        permuted.append(",".join([item, *(cells[k] for k in perm)]))
    features = tmp_path / "permuted.csv"
    features.write_text("\n".join(permuted) + "\n", encoding="utf-8")
    truth = read_json(str(sim / "truth_weights.json"))
    truth["w"] = [truth["w"][k] for k in perm]
    weights = tmp_path / "permuted_weights.json"
    weights.write_text(json.dumps(truth), encoding="utf-8")
    pipeline(tmp_path / "a", sim / "features.csv", sim / "comparisons.csv", spec,
             sim / "truth_weights.json")
    pipeline(tmp_path / "b", features, sim / "comparisons.csv", spec, weights)
    a, b = tmp_path / "a", tmp_path / "b"

    w_a, w_b = fitted_weights(a), fitted_weights(b)
    assert np.max(np.abs(w_a[perm] - w_b)) <= 1e-12 * max(1.0, np.linalg.norm(w_a))

    assert_close_numbers(read_json(str(a / "theory.json")), read_json(str(b / "theory.json")))

    d_a, d_b = read_json(str(a / "diagnose.json")), read_json(str(b / "diagnose.json"))
    assert counts(d_a["empirical"]) == counts(d_b["empirical"])


@pytest.mark.parametrize("kind", list(SPECS))
def test_swapping_winner_and_loser(tmp_path, kind):
    spec, sim = SPECS[kind], tmp_path / "sim"
    simulate(sim, spec)
    header, *rows = (sim / "comparisons.csv").read_text(encoding="utf-8").splitlines()
    swapped = [",".join([loser, winner, count])
               for winner, loser, count in (row.split(",") for row in rows)]
    comparisons = tmp_path / "swapped.csv"
    comparisons.write_text("\n".join([header, *swapped]) + "\n", encoding="utf-8")
    truth = sim / "truth_weights.json"
    pipeline(tmp_path / "a", sim / "features.csv", sim / "comparisons.csv", spec, truth)
    pipeline(tmp_path / "b", sim / "features.csv", comparisons, spec, truth)
    a, b = tmp_path / "a", tmp_path / "b"

    w_a, w_b = fitted_weights(a), fitted_weights(b)
    assert np.max(np.abs(w_a + w_b)) <= 1e-12 * max(1.0, np.linalg.norm(w_a))

    d_a, d_b = read_json(str(a / "diagnose.json")), read_json(str(b / "diagnose.json"))
    assert counts(d_a["empirical"]) == counts(d_b["empirical"])
