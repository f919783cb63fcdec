import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from salientpref import (
    DimensionError,
    FeatureMatrix,
    InvalidPairError,
    NotSingleCoordinateError,
    SelectionSpec,
    realize,
)


def fm_from_columns(*cols):
    return FeatureMatrix(np.column_stack([np.asarray(c, float) for c in cols]))


class TestSelectionSpec:
    def test_json_round_trip(self):
        specs = [
            SelectionSpec.full(),
            SelectionSpec.top_t(3),
            SelectionSpec.random_exactly_k(2, seed=11),
            SelectionSpec.random_bernoulli(0.4, seed=5),
        ]
        for spec in specs:
            assert SelectionSpec.from_json(spec.to_json()) == spec

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SelectionSpec("best_t", t=1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SelectionSpec.top_t(0)
        with pytest.raises(ValueError):
            SelectionSpec.random_bernoulli(0.0, seed=1)
        with pytest.raises(ValueError):
            SelectionSpec.random_bernoulli(1.5, seed=1)

    def test_random_kinds_need_seed(self):
        with pytest.raises(ValueError):
            SelectionSpec("random_exactly_k", k=2)
        with pytest.raises(ValueError):
            SelectionSpec("random_bernoulli", p=0.5)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            SelectionSpec.from_dict({"kind": "full", "threshold": 1})

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "top_t", "t": 1.7},
            {"kind": "top_t", "t": 2.0},
            {"kind": "top_t", "t": True},
            {"kind": "top_t", "t": "2"},
            {"kind": "random_exactly_k", "k": "3", "seed": 1},
            {"kind": "random_exactly_k", "k": 3, "seed": 1.9},
            {"kind": "random_exactly_k", "k": 3, "seed": False},
            {"kind": "random_bernoulli", "p": True, "seed": 1},
            {"kind": "random_bernoulli", "p": "0.5", "seed": 1},
            {"kind": "random_bernoulli", "p": 0.5, "seed": -1},
            {"kind": "random_bernoulli", "p": 0.5, "seed": 2**64},
        ],
    )
    def test_rejects_non_integer_and_non_real_parameters(self, obj):
        with pytest.raises(ValueError):
            SelectionSpec.from_dict(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {"kind": "full", "t": 1},
            {"kind": "full", "seed": 0},
            {"kind": "top_t", "t": 1, "k": 1},
            {"kind": "top_t", "t": 1, "seed": 3},
            {"kind": "random_exactly_k", "k": 2, "seed": 1, "p": 0.5},
            {"kind": "random_bernoulli", "p": 0.5, "seed": 1, "t": 1},
        ],
    )
    def test_rejects_parameters_the_kind_does_not_use(self, obj):
        with pytest.raises(ValueError):
            SelectionSpec.from_dict(obj)

    def test_accepts_numpy_scalars(self):
        assert SelectionSpec.top_t(np.int64(2)).t == 2
        spec = SelectionSpec.random_bernoulli(np.float32(0.5), seed=np.uint64(2**64 - 1))
        assert spec.p == 0.5 and spec.seed == 2**64 - 1
        assert type(spec.p) is float and type(spec.seed) is int
        assert SelectionSpec.random_bernoulli(1, seed=0).p == 1.0


class TestTopT:
    def test_picks_only_differing_coordinate(self):
        fm = fm_from_columns([1.0, 0.0], [0.0, 0.0])
        sel = realize(SelectionSpec.top_t(1), fm)
        assert sel.select(0, 1) == (0,)

    def test_t_equals_d_selects_everything(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 4)))
        sel = realize(SelectionSpec.top_t(2), fm)
        for i in range(4):
            for j in range(i + 1, 4):
                assert sel.select(i, j) == (0, 1)

    def test_tie_breaks_to_lower_coordinate(self):
        fm = fm_from_columns([2.0, 5.0], [4.0, 3.0])
        sel = realize(SelectionSpec.top_t(1), fm)
        assert sel.select(0, 1) == (0,)

    def test_tie_break_identical_in_bulk_table(self):
        # every coordinate differs by the same amount: the table row must
        # keep the lazy path's lower-index tie rule
        fm = fm_from_columns([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [2.0, 2.0, 2.0])
        lazy = realize(SelectionSpec.top_t(2), fm)
        subsets = {(i, j): lazy.select(i, j) for i in range(3) for j in range(i + 1, 3)}
        bulk = realize(SelectionSpec.top_t(2), fm)
        table = bulk.diff_table()
        assert subsets == {
            (i, j): bulk.select(i, j) for i in range(3) for j in range(i + 1, 3)
        }
        assert subsets[(0, 1)] == (0, 1)
        np.testing.assert_array_equal(table[0], [1.0, 1.0, 0.0])

    def test_cardinality_always_t(self, rng):
        fm = FeatureMatrix(rng.normal(size=(6, 8)))
        for t in (1, 3, 6):
            sel = realize(SelectionSpec.top_t(t), fm)
            for i in range(8):
                for j in range(i + 1, 8):
                    assert len(sel.select(i, j)) == t

    def test_equals_full_at_t_d(self, rng):
        fm = FeatureMatrix(rng.normal(size=(4, 6)))
        top = realize(SelectionSpec.top_t(4), fm)
        full = realize(SelectionSpec.full(), fm)
        for i in range(6):
            for j in range(i + 1, 6):
                assert top.select(i, j) == full.select(i, j)

    def test_maximizes_two_point_variance(self, rng):
        # ranking by |difference| is ranking by the two-point sample variance
        fm = FeatureMatrix(rng.normal(size=(5, 6)))
        sel = realize(SelectionSpec.top_t(2), fm)
        for i in range(6):
            for j in range(i + 1, 6):
                variances = [
                    oracles.two_point_variance(fm.matrix[k, i], fm.matrix[k, j])
                    for k in range(5)
                ]
                order = sorted(range(5), key=lambda k: (-variances[k], k))
                assert sel.select(i, j) == tuple(sorted(order[:2]))

    def test_t_above_d_rejected(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 3)))
        with pytest.raises(DimensionError):
            realize(SelectionSpec.top_t(3), fm)


class TestFull:
    def test_all_coordinates(self, rng):
        fm = FeatureMatrix(rng.normal(size=(3, 4)))
        sel = realize(SelectionSpec.full(), fm)
        assert sel.select(2, 0) == (0, 1, 2)


class TestRandomKinds:
    def test_exactly_k_cardinality(self, rng):
        fm = FeatureMatrix(rng.normal(size=(7, 9)))
        sel = realize(SelectionSpec.random_exactly_k(3, seed=1), fm)
        for i in range(9):
            for j in range(i + 1, 9):
                assert len(sel.select(i, j)) == 3

    def test_bernoulli_never_empty(self, rng):
        fm = FeatureMatrix(rng.normal(size=(3, 14)))
        sel = realize(SelectionSpec.random_bernoulli(0.05, seed=3), fm)
        for i in range(14):
            for j in range(i + 1, 14):
                assert len(sel.select(i, j)) >= 1

    def test_deterministic_across_instances(self, rng):
        fm = FeatureMatrix(rng.normal(size=(5, 10)))
        for spec in (
            SelectionSpec.random_exactly_k(2, seed=9),
            SelectionSpec.random_bernoulli(0.5, seed=9),
        ):
            a = realize(spec, fm)
            b = realize(spec, fm)
            for i in range(10):
                for j in range(i + 1, 10):
                    assert a.select(i, j) == b.select(i, j)

    def test_order_of_realization_irrelevant(self, rng):
        fm = FeatureMatrix(rng.normal(size=(4, 6)))
        spec = SelectionSpec.random_exactly_k(2, seed=77)
        forward = realize(spec, fm)
        backward = realize(spec, fm)
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        got_fwd = {p: forward.select(*p) for p in pairs}
        got_bwd = {p: backward.select(*p) for p in reversed(pairs)}
        assert got_fwd == got_bwd


class TestRealizedSelection:
    def test_symmetry(self, rng):
        fm = FeatureMatrix(rng.normal(size=(4, 5)))
        sel = realize(SelectionSpec.top_t(2), fm)
        for i in range(5):
            for j in range(i + 1, 5):
                assert sel.select(i, j) == sel.select(j, i)

    def test_self_pair_rejected(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 3)))
        sel = realize(SelectionSpec.full(), fm)
        with pytest.raises(InvalidPairError):
            sel.select(1, 1)

    def test_out_of_range_rejected(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 3)))
        sel = realize(SelectionSpec.full(), fm)
        with pytest.raises(InvalidPairError):
            sel.select(0, 3)

    def test_diff_table_matches_per_pair(self, rng):
        fm = FeatureMatrix(rng.normal(size=(5, 7)))
        for spec in (
            SelectionSpec.full(),
            SelectionSpec.top_t(2),
            SelectionSpec.random_exactly_k(2, seed=4),
            SelectionSpec.random_bernoulli(0.6, seed=4),
        ):
            sel = realize(spec, fm)
            table = sel.diff_table()
            row = 0
            for i in range(7):
                for j in range(i + 1, 7):
                    np.testing.assert_array_equal(table[row], sel.masked_diff(i, j))
                    row += 1

    def test_bulk_and_lazy_subsets_agree(self, rng):
        fm = FeatureMatrix(rng.normal(size=(6, 8)))
        spec = SelectionSpec.top_t(3)
        lazy = realize(spec, fm)
        lazy_subsets = {
            (i, j): lazy.select(i, j) for i in range(8) for j in range(i + 1, 8)
        }
        bulk = realize(spec, fm)
        bulk_subsets = {
            (i, j): bulk.select(i, j) for i in range(8) for j in range(i + 1, 8)
        }
        assert lazy_subsets == bulk_subsets

    def test_masked_diff_antisymmetric(self, rng):
        fm = FeatureMatrix(rng.normal(size=(3, 4)))
        sel = realize(SelectionSpec.top_t(1), fm)
        np.testing.assert_array_equal(sel.masked_diff(0, 2), -sel.masked_diff(2, 0))


class TestConcurrency:
    def test_concurrent_reads_are_consistent(self, rng):
        import concurrent.futures

        fm = FeatureMatrix(rng.normal(size=(6, 16)))
        sel = realize(SelectionSpec.random_bernoulli(0.4, seed=21), fm)
        pairs = [(i, j) for i in range(16) for j in range(i + 1, 16)]

        def read_all(_):
            return {p: sel.select(*p) for p in pairs}

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read_all, range(8)))
        reference = realize(sel.spec, fm)
        expected = {p: reference.select(*p) for p in pairs}
        for got in results:
            assert got == expected

    def test_subset_rule_runs_once(self, rng, monkeypatch):
        import concurrent.futures

        from salientpref.selection import RealizedSelection

        calls = []
        rule = RealizedSelection._keep_mask

        def counting_rule(self, *args):
            calls.append(1)
            return rule(self, *args)

        monkeypatch.setattr(RealizedSelection, "_keep_mask", counting_rule)
        fm = FeatureMatrix(rng.normal(size=(5, 30)))
        sel = realize(SelectionSpec.random_exactly_k(1, seed=5), fm)
        pairs = [(i, j) for i in range(30) for j in range(30) if i != j]

        def read_all(_):
            return (
                [sel.select(*p) for p in pairs],
                np.array([sel.masked_diff(*p) for p in pairs]),
                sel.diff_table(),
                sel.single_coordinate(),
            )

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read_all, range(8), timeout=60))
        assert len(calls) == 1
        subsets, diffs, table, coords = results[0]
        for got in results[1:]:
            assert got[0] == subsets
            np.testing.assert_array_equal(got[1], diffs)
            assert got[2] is table
            np.testing.assert_array_equal(got[3], coords)
        assert table.flags.c_contiguous
        assert not table.flags.writeable


def assert_single_coordinates(sel, expected):
    """``single_coordinate()`` is ``expected``: read-only int64, one entry per
    pair in lexicographic pair order."""
    coords = sel.single_coordinate()
    assert coords.dtype == np.int64
    assert not coords.flags.writeable
    np.testing.assert_array_equal(coords, np.asarray(expected, dtype=np.int64))


class TestPartition:
    """The pairs partition by their one selected coordinate."""

    def test_single_dimension_collects_everything(self, rng):
        fm = FeatureMatrix(rng.normal(size=(1, 5)))
        assert_single_coordinates(realize(SelectionSpec.top_t(1), fm), [0] * 10)

    def test_three_item_example(self):
        fm = fm_from_columns([0.0, 0.0], [1.0, 0.0], [1.0, 5.0])
        # pairs (0, 1), (0, 2), (1, 2)
        assert_single_coordinates(realize(SelectionSpec.top_t(1), fm), [0, 1, 1])

    def test_full_selection_rejected(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 4)))
        sel = realize(SelectionSpec.full(), fm)
        with pytest.raises(NotSingleCoordinateError):
            sel.single_coordinate()

    def test_partition_is_disjoint_cover(self, rng):
        fm = FeatureMatrix(rng.normal(size=(4, 9)))
        sel = realize(SelectionSpec.random_exactly_k(1, seed=2), fm)
        coords = sel.single_coordinate()
        assert coords.shape == (36,)
        assert ((coords >= 0) & (coords < 4)).all()
        np.testing.assert_array_equal(sel.diff_table() != 0, np.eye(4, dtype=bool)[coords])


def oracle_features(rng):
    """Random features with an identical pair (2, 5) and an all-tie pair (0, 7)."""
    U = rng.normal(size=(4, 9))
    U[:, 5] = U[:, 2]
    U[:, 0] = [0.0, 2.0, 0.0, 1.0]
    U[:, 7] = [0.5, 1.5, -0.5, 0.5]  # |difference| 0.5 on every coordinate
    return U


class TestAgainstOracle:
    PAIRS = [(i, j) for i in range(9) for j in range(i + 1, 9)]
    SPECS = (
        SelectionSpec.full(),
        SelectionSpec.top_t(1),
        SelectionSpec.top_t(3),
        SelectionSpec.random_exactly_k(1, seed=8),
        SelectionSpec.random_exactly_k(3, seed=2**64 - 1),
        SelectionSpec.random_bernoulli(0.3, seed=12),
        SelectionSpec.random_bernoulli(1.0, seed=0),
    )

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.to_json())
    def test_table_select_and_masked_diff(self, rng, spec):
        U = oracle_features(rng)
        subsets, table = oracles.masked_diff_table(U, spec.to_dict())
        sel = realize(spec, FeatureMatrix(U))
        np.testing.assert_array_equal(sel.diff_table(), table)
        for (i, j), subset, row in zip(self.PAIRS, subsets, table):
            assert sel.select(i, j) == subset
            assert sel.select(j, i) == subset
            np.testing.assert_array_equal(sel.masked_diff(i, j), row)
            np.testing.assert_array_equal(sel.masked_diff(j, i), -row)
        # identical items still select a nonempty subset, on zero differences
        same = subsets[self.PAIRS.index((2, 5))]
        assert same and not table[self.PAIRS.index((2, 5))].any()
        if spec.kind == "top_t":
            assert same == tuple(range(spec.t))
            assert subsets[self.PAIRS.index((0, 7))] == tuple(range(spec.t))

    @pytest.mark.parametrize(
        "spec",
        [SelectionSpec.top_t(1), SelectionSpec.random_exactly_k(1, seed=8)],
        ids=lambda s: s.kind,
    )
    def test_partition(self, rng, spec):
        U = oracle_features(rng)
        subsets, _ = oracles.masked_diff_table(U, spec.to_dict())
        expected = [k for (k,) in subsets]
        assert_single_coordinates(realize(spec, FeatureMatrix(U)), expected)

    def test_partition_names_first_non_singleton_pair(self, rng):
        U = oracle_features(rng)
        spec = SelectionSpec.random_bernoulli(0.3, seed=12)
        subsets, _ = oracles.masked_diff_table(U, spec.to_dict())
        first = next(p for p, s in zip(self.PAIRS, subsets) if len(s) != 1)
        with pytest.raises(NotSingleCoordinateError, match=rf"pair \({first[0]}, {first[1]}\)"):
            realize(spec, FeatureMatrix(U)).single_coordinate()


def assert_matches_numpy_rule(spec, n, d):
    """The batched draw reproduces the per-pair np.random rule exactly."""
    U = np.random.default_rng(n * 100 + d).normal(size=(d, n))
    subsets, table = oracles.masked_diff_table(U, spec.to_dict())
    sel = realize(spec, FeatureMatrix(U))
    np.testing.assert_array_equal(sel.diff_table(), table)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert [sel.select(i, j) for i, j in pairs] == subsets


# one- and two-word seed entropy, and the seed 0 that SeedSequence reads as [0]
STREAM_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)


class TestStreamsMatchNumpy:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize(
        "d, k",
        # d = 1 shuffles nothing; at d = 34 the step i = 32 draws under mask 63
        # and rejects almost half its draws; k = d keeps every coordinate
        [(1, 1), (2, 1), (2, 2), (34, 3), (34, 34)],
    )
    def test_exactly_k(self, seed, d, k):
        assert_matches_numpy_rule(SelectionSpec.random_exactly_k(k, seed=seed), 9, d)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    @pytest.mark.parametrize(
        "d, p",
        # p = 0.01 at d = 3 redraws most rows for many rounds; p = 1 keeps all
        [(3, 0.01), (3, 1.0), (34, 0.3)],
    )
    def test_bernoulli(self, seed, d, p):
        assert_matches_numpy_rule(SelectionSpec.random_bernoulli(p, seed=seed), 9, d)

    @pytest.mark.parametrize(
        "spec",
        [SelectionSpec.random_exactly_k(2, seed=3), SelectionSpec.random_bernoulli(0.2, seed=3)],
        ids=lambda s: s.kind,
    )
    def test_pair_count_not_a_block_multiple(self, spec):
        from salientpref.selection import _DRAW_BLOCK

        n = 92  # C(92, 2) = 4186 pairs: one full block and a partial one
        assert _DRAW_BLOCK < n * (n - 1) // 2 < 2 * _DRAW_BLOCK
        assert_matches_numpy_rule(spec, n, 5)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        n=st.integers(2, 12),
        d=st.integers(1, 40),
        data=st.data(),
    )
    def test_property_matches_installed_numpy(self, seed, n, d, data):
        # pins the port to this numpy's Generator: a change to its seeding,
        # shuffle or float draw fails here instead of moving selections
        if data.draw(st.booleans(), label="exactly_k"):
            spec = SelectionSpec.random_exactly_k(data.draw(st.integers(1, d), label="k"), seed)
        else:
            spec = SelectionSpec.random_bernoulli(data.draw(st.floats(0.05, 1.0), label="p"), seed)
        assert_matches_numpy_rule(spec, n, d)
