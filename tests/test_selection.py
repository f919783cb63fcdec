import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import traced_peak
from salientpref import (
    DimensionError,
    FeatureMatrix,
    InvalidPairError,
    NotSingleCoordinateError,
    SelectionSpec,
    realize,
    sample_complexity_report,
    single_coordinate_report,
)
from salientpref import _kernels, selection
from salientpref.selection import RealizedSelection, all_pairs, pair_blocks, pair_index


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


def canonical_pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def pair_arrays(pairs):
    ii, jj = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return ii, jj


def subsets(sel, pairs):
    """Each pair's selected coordinates, read from ``keep``."""
    return [tuple(np.flatnonzero(row).tolist()) for row in sel.keep(*pair_arrays(pairs))]


def subset(sel, i, j):
    return subsets(sel, [(i, j)])[0]


def assert_reads_match_table(sel, order, reference=None):
    """``rows`` and ``keep`` of the pairs listed by ``order`` (positions in
    lexicographic pair order, in any order, possibly repeated) equal the
    matching rows of ``diff_table()`` and of the all-pairs keep mask, read
    from ``reference`` (``sel`` itself by default)."""
    reference = reference or sel
    ii, jj = all_pairs(sel.features.n)
    order = np.asarray(order, dtype=np.int64)
    np.testing.assert_array_equal(sel.rows(ii[order], jj[order]), reference.diff_table()[order])
    np.testing.assert_array_equal(sel.keep(ii[order], jj[order]), reference.keep(ii, jj)[order])


class TestTopT:
    def test_picks_only_differing_coordinate(self):
        fm = fm_from_columns([1.0, 0.0], [0.0, 0.0])
        sel = realize(SelectionSpec.top_t(1), fm)
        assert subset(sel, 0, 1) == (0,)

    def test_t_equals_d_selects_everything(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 4)))
        sel = realize(SelectionSpec.top_t(2), fm)
        assert subsets(sel, canonical_pairs(4)) == [(0, 1)] * 6

    def test_tie_breaks_to_lower_coordinate(self):
        fm = fm_from_columns([2.0, 5.0], [4.0, 3.0])
        sel = realize(SelectionSpec.top_t(1), fm)
        assert subset(sel, 0, 1) == (0,)

    def test_tie_break_identical_in_bulk_table(self):
        # every coordinate differs by the same amount: the lower-index tie
        # rule holds in the table and in reads of the pairs in reverse order
        fm = fm_from_columns([1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [2.0, 2.0, 2.0])
        sel = realize(SelectionSpec.top_t(2), fm)
        assert subsets(sel, canonical_pairs(3)) == [(0, 1)] * 3
        np.testing.assert_array_equal(sel.diff_table()[0], [1.0, 1.0, 0.0])
        assert_reads_match_table(sel, [2, 1, 0])

    def test_cardinality_always_t(self, rng):
        fm = FeatureMatrix(rng.normal(size=(6, 8)))
        for t in (1, 3, 6):
            sel = realize(SelectionSpec.top_t(t), fm)
            assert [len(s) for s in subsets(sel, canonical_pairs(8))] == [t] * 28

    def test_equals_full_at_t_d(self, rng):
        fm = FeatureMatrix(rng.normal(size=(4, 6)))
        top = realize(SelectionSpec.top_t(4), fm)
        full = realize(SelectionSpec.full(), fm)
        assert subsets(top, canonical_pairs(6)) == subsets(full, canonical_pairs(6))

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
                assert subset(sel, i, j) == tuple(sorted(order[:2]))

    def test_t_above_d_rejected(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 3)))
        with pytest.raises(DimensionError):
            realize(SelectionSpec.top_t(3), fm)


class TestFull:
    def test_all_coordinates(self, rng):
        fm = FeatureMatrix(rng.normal(size=(3, 4)))
        sel = realize(SelectionSpec.full(), fm)
        assert subset(sel, 0, 2) == (0, 1, 2)


class TestRandomKinds:
    def test_exactly_k_cardinality(self, rng):
        fm = FeatureMatrix(rng.normal(size=(7, 9)))
        sel = realize(SelectionSpec.random_exactly_k(3, seed=1), fm)
        assert [len(s) for s in subsets(sel, canonical_pairs(9))] == [3] * 36

    def test_bernoulli_never_empty(self, rng):
        fm = FeatureMatrix(rng.normal(size=(3, 14)))
        sel = realize(SelectionSpec.random_bernoulli(0.05, seed=3), fm)
        assert all(len(s) >= 1 for s in subsets(sel, canonical_pairs(14)))

    def test_deterministic_across_instances(self, rng):
        # a shuffled read of one instance equals the table of another
        fm = FeatureMatrix(rng.normal(size=(5, 10)))
        for spec in (
            SelectionSpec.random_exactly_k(2, seed=9),
            SelectionSpec.random_bernoulli(0.5, seed=9),
        ):
            a = realize(spec, fm)
            b = realize(spec, fm)
            assert_reads_match_table(b, rng.permutation(45), reference=a)

    def test_order_of_realization_irrelevant(self, rng):
        fm = FeatureMatrix(rng.normal(size=(4, 6)))
        sel = realize(SelectionSpec.random_exactly_k(2, seed=77), fm)
        assert_reads_match_table(sel, np.arange(15)[::-1])


class TestRealizedSelection:
    def test_symmetry(self, rng):
        # the pair (i, j) of the features is (n-1-j, n-1-i) of the features
        # with their items reversed: the same subset, the negated row
        fm = FeatureMatrix(rng.normal(size=(4, 5)))
        sel = realize(SelectionSpec.top_t(2), fm)
        flipped = realize(SelectionSpec.top_t(2), FeatureMatrix(fm.matrix[:, ::-1]))
        ii, jj = all_pairs(5)
        np.testing.assert_array_equal(flipped.keep(4 - jj, 4 - ii), sel.keep(ii, jj))

    def test_self_pair_rejected(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 3)))
        sel = realize(SelectionSpec.full(), fm)
        with pytest.raises(InvalidPairError):
            sel.keep([1], [1])
        with pytest.raises(InvalidPairError):
            sel.rows([1], [1])

    def test_out_of_range_rejected(self, rng):
        fm = FeatureMatrix(rng.normal(size=(2, 3)))
        sel = realize(SelectionSpec.full(), fm)
        with pytest.raises(InvalidPairError):
            sel.keep([0], [3])
        with pytest.raises(InvalidPairError):
            sel.rows([0], [3])

    @pytest.mark.parametrize(
        "ii, jj",
        [
            ([0, 2], [1, 2]),  # i == j
            ([0, 2], [1, 1]),  # i > j
            ([-1], [1]),
            ([0], [4]),
            ([0, 1], [2]),  # mismatched lengths
            ([[0]], [[1]]),  # not 1-d
            ([0.0], [1.0]),  # not integers
        ],
    )
    def test_non_canonical_pairs_rejected(self, rng, ii, jj):
        sel = realize(SelectionSpec.top_t(1), FeatureMatrix(rng.normal(size=(2, 4))))
        for read in (sel.rows, sel.keep):
            with pytest.raises(InvalidPairError):
                read(np.asarray(ii), np.asarray(jj))

    def test_no_pairs_read_no_rows(self, rng):
        sel = realize(SelectionSpec.random_exactly_k(1, seed=3), FeatureMatrix(rng.normal(size=(3, 4))))
        empty = np.array([], dtype=np.int64)
        assert sel.rows(empty, empty).shape == (0, 3)
        assert sel.keep(empty, empty).shape == (0, 3)

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
            for row, (i, j) in enumerate(canonical_pairs(7)):
                np.testing.assert_array_equal(table[row], sel.rows([i], [j])[0])

    def test_bulk_and_lazy_subsets_agree(self, rng):
        # a read that repeats pairs gives each repeat the same row
        fm = FeatureMatrix(rng.normal(size=(6, 8)))
        sel = realize(SelectionSpec.top_t(3), fm)
        assert_reads_match_table(sel, [5, 5, 0, 27, 5, 0, 13])

    def test_masked_diff_antisymmetric(self, rng):
        fm = FeatureMatrix(rng.normal(size=(3, 4)))
        sel = realize(SelectionSpec.top_t(1), fm)
        flipped = realize(SelectionSpec.top_t(1), FeatureMatrix(fm.matrix[:, ::-1]))
        np.testing.assert_array_equal(flipped.rows([1], [3]), -sel.rows([0], [2]))


class TestConcurrency:
    def test_concurrent_reads_are_consistent(self, rng):
        import concurrent.futures

        fm = FeatureMatrix(rng.normal(size=(6, 16)))
        sel = realize(SelectionSpec.random_bernoulli(0.4, seed=21), fm)
        pairs = canonical_pairs(16)

        def read_all(_):
            return subsets(sel, pairs)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read_all, range(8), timeout=60))
        expected = subsets(realize(sel.spec, fm), pairs)
        for got in results:
            assert got == expected

    def test_concurrent_reads_are_read_only_and_contiguous(self, rng):
        import concurrent.futures

        fm = FeatureMatrix(rng.normal(size=(5, 30)))
        sel = realize(SelectionSpec.random_exactly_k(1, seed=5), fm)
        ii, jj = all_pairs(30)
        order = np.random.default_rng(5).permutation(ii.size)

        def read_all(_):
            return (
                sel.keep(ii[order], jj[order]),
                sel.rows(ii[order], jj[order]),
                sel.diff_table(),
                sel.keep_bits(),
            )

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(read_all, range(8), timeout=60))
        keep, rows, table, bits = results[0]
        np.testing.assert_array_equal(rows, table[order])
        for got in results:
            for arr, want in zip(got, (keep, rows, table, bits)):
                np.testing.assert_array_equal(arr, want)
                assert arr.flags.c_contiguous
                assert not arr.flags.writeable


def certified_coordinates(sel):
    """The single-coordinate report of ``sel``'s certificate, and each pair's
    one coordinate in lexicographic pair order, read from the certificate's
    read-only keep bits; the report's partition sizes count them, and its
    epsilon and beta are those of the one-table rows."""
    cert = sample_complexity_report(sel)
    report = single_coordinate_report(cert)
    assert not cert.bits.flags.writeable
    keep = np.unpackbits(cert.bits, axis=1, count=sel.features.d)
    assert (keep.sum(axis=1) == 1).all()
    coords = keep.argmax(axis=1)
    assert report.partition_sizes == tuple(np.bincount(coords, minlength=sel.features.d))
    # each row's one entry is its largest: epsilon is the smallest of them
    magnitude = np.abs(sel.diff_table())
    assert (report.epsilon, report.beta) == (magnitude.max(axis=1).min(), magnitude.max())
    return report, coords


def assert_single_coordinates(sel, expected):
    """The certificate's pairs select the coordinates ``expected``, one entry
    per pair in lexicographic pair order."""
    _, coords = certified_coordinates(sel)
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
            single_coordinate_report(sample_complexity_report(sel))

    @pytest.mark.parametrize(
        "spec, size",
        [
            (SelectionSpec.full(), 3),
            (SelectionSpec.top_t(2), 2),
            (SelectionSpec.random_exactly_k(3, seed=1), 3),
        ],
        ids=lambda v: v.kind if isinstance(v, SelectionSpec) else str(v),
    )
    def test_fixed_size_refused_without_realizing(self, rng, monkeypatch, spec, size):
        def rule_must_not_run(*args):
            raise AssertionError("the subset rule ran")

        cert = sample_complexity_report(realize(spec, FeatureMatrix(rng.normal(size=(3, 5)))))
        monkeypatch.setattr(RealizedSelection, "_keep_mask", rule_must_not_run)
        with pytest.raises(
            NotSingleCoordinateError, match=rf"pair \(0, 1\) selects {size} coordinates, need 1"
        ):
            single_coordinate_report(cert)

    def test_blocks_name_the_first_non_singleton_pair(self, monkeypatch):
        # pairs 0..11 of 36 select one coordinate each, pair 12, (1, 6), three
        fm = FeatureMatrix(np.random.default_rng(9).normal(size=(3, 9)))
        sel = realize(SelectionSpec.random_bernoulli(0.2, seed=20), fm)
        monkeypatch.setattr(selection, "_DRAW_BLOCK", 5)
        monkeypatch.setattr(_kernels, "FLOAT_BLOCK", 5 * 3)
        cert = sample_complexity_report(sel)
        with pytest.raises(NotSingleCoordinateError,
                           match=r"pair \(1, 6\) selects 3 coordinates, need 1"):
            single_coordinate_report(cert)

    def test_blocks_give_the_one_table_coordinates(self, rng, monkeypatch):
        fm = FeatureMatrix(rng.normal(size=(4, 9)))
        sel = realize(SelectionSpec.top_t(1), fm)
        want = sel.keep(*all_pairs(9)).argmax(axis=1)
        monkeypatch.setattr(_kernels, "FLOAT_BLOCK", 5 * 4)
        assert_single_coordinates(sel, want)

    def test_partition_is_disjoint_cover(self, rng):
        fm = FeatureMatrix(rng.normal(size=(4, 9)))
        sel = realize(SelectionSpec.random_exactly_k(1, seed=2), fm)
        report, coords = certified_coordinates(sel)
        assert coords.shape == (36,) and sum(report.partition_sizes) == 36
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
        want, table = oracles.masked_diff_table(U, spec.to_dict())
        sel = realize(spec, FeatureMatrix(U))
        np.testing.assert_array_equal(sel.diff_table(), table)
        assert subsets(sel, self.PAIRS) == want
        for (i, j), row in zip(self.PAIRS, table):
            np.testing.assert_array_equal(sel.rows([i], [j])[0], row)
        # identical items still select a nonempty subset, on zero differences
        same = want[self.PAIRS.index((2, 5))]
        assert same and not table[self.PAIRS.index((2, 5))].any()
        assert subset(sel, 2, 5) == same and not sel.rows([2], [5]).any()
        if spec.kind == "top_t":
            assert same == tuple(range(spec.t))
            assert want[self.PAIRS.index((0, 7))] == tuple(range(spec.t))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.to_json())
    def test_rows_and_keep_of_shuffled_subset(self, rng, spec):
        U = oracle_features(rng)
        want, table = oracles.masked_diff_table(U, spec.to_dict())
        sel = realize(spec, FeatureMatrix(U))
        # a dozen pairs, the identical pair (2, 5) and a repeat, shuffled
        order = rng.permutation(len(self.PAIRS))[:12]
        order = rng.permutation(np.append(order, [self.PAIRS.index((2, 5)), order[0]]))
        pairs = [self.PAIRS[k] for k in order]
        np.testing.assert_array_equal(sel.rows(*pair_arrays(pairs)), table[order])
        assert subsets(sel, pairs) == [want[k] for k in order]

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
            single_coordinate_report(sample_complexity_report(realize(spec, FeatureMatrix(U))))


def assert_matches_numpy_rule(spec, n, d, order=()):
    """The batched draw reproduces the per-pair np.random rule exactly, on
    the table and on a read of the pairs at positions ``order``."""
    U = np.random.default_rng(n * 100 + d).normal(size=(d, n))
    want, table = oracles.masked_diff_table(U, spec.to_dict())
    sel = realize(spec, FeatureMatrix(U))
    np.testing.assert_array_equal(sel.diff_table(), table)
    assert subsets(sel, canonical_pairs(n)) == want
    order = np.asarray(order, dtype=np.int64)
    pairs = [canonical_pairs(n)[k] for k in order]
    np.testing.assert_array_equal(sel.rows(*pair_arrays(pairs)), table[order])
    assert subsets(sel, pairs) == [want[k] for k in order]


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
        npairs = n * (n - 1) // 2
        order = data.draw(st.lists(st.integers(0, npairs - 1), max_size=2 * npairs), label="order")
        assert_matches_numpy_rule(spec, n, d, order)


def every_kind(d):
    return (
        SelectionSpec.full(),
        SelectionSpec.top_t(max(1, d // 2)),
        SelectionSpec.random_exactly_k(max(1, d // 3), 11),
        SelectionSpec.random_bernoulli(0.3, 12),
    )


class TestPairBlocks:
    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 64, 10**6])
    def test_matches_triu_indices(self, rows):
        for n in range(61):
            blocks = list(pair_blocks(n, rows))
            assert all(0 < ii.size <= rows and ii.dtype == jj.dtype == np.int64
                       for ii, jj in blocks)
            ii = np.concatenate([b[0] for b in blocks] or [np.empty(0, np.int64)])
            jj = np.concatenate([b[1] for b in blocks] or [np.empty(0, np.int64)])
            want_i, want_j = np.triu_indices(n, k=1)
            np.testing.assert_array_equal(ii, want_i)
            np.testing.assert_array_equal(jj, want_j)

    def test_large_n_range_starts(self):
        # 4,498,500 pairs in five ranges: each starts at its flat index and
        # is lexicographic within
        n, rows = 3000, 1_000_000
        lo = 0
        for ii, jj in pair_blocks(n, rows):
            assert pair_index(int(ii[0]), int(jj[0]), n) == lo
            flat = pair_index(ii, jj, n)
            np.testing.assert_array_equal(flat, np.arange(lo, lo + ii.size))
            assert np.all(ii < jj) and jj.max() < n
            lo += ii.size
        assert lo == n * (n - 1) // 2

    def test_closed_form_decode_at_2_to_32_items(self):
        # the first item of a flat index near each row boundary, where a float
        # square root would round the wrong way
        n = 2**32
        for i in (0, 1, 2, 12345, n // 3, n - 3, n - 2):
            for j in (i + 1, i + 2, n - 1):
                if i < j < n:
                    assert selection._pair_at(pair_index(i, j, n), n) == i


class TestKeepBits:
    @pytest.mark.parametrize("d", [1, 7, 8, 9])
    def test_round_trip_against_keep(self, rng, d):
        fm = FeatureMatrix(rng.normal(size=(d, 15)))
        for spec in every_kind(d):
            sel = realize(spec, fm)
            bits = sel.keep_bits()
            if spec.kind == "full":
                assert bits is None
                continue
            assert bits.shape == (105, -(-d // 8)) and bits.dtype == np.uint8
            assert not bits.flags.writeable
            keep = np.unpackbits(bits, axis=1, count=d).astype(bool)
            np.testing.assert_array_equal(keep, sel.keep(*all_pairs(15)))
            # padding bits past d stay zero
            assert not np.unpackbits(bits, axis=1)[:, d:].any()

    def test_bernoulli_draws_a_column_at_a_time(self):
        # a redraw round that held its (4096, d) uniforms as floats traced
        # 41.8 MB here; comparing each column with p as drawn holds a byte
        fm = FeatureMatrix(np.random.default_rng(3).normal(size=(1000, 100)))
        sel = realize(SelectionSpec.random_bernoulli(0.01, seed=4), fm)
        bits, peak = traced_peak(sel.keep_bits)
        assert bits.shape == (4950, 125)
        assert peak <= 41.8e6 / 2


class TestBlocks:
    @pytest.mark.parametrize("d", [1, 5, 9])
    def test_blocks_and_row_blocks_rebuild_the_table(self, rng, monkeypatch, d):
        # blocks of 4 pairs, and rule blocks of 3, over 36 pairs
        monkeypatch.setattr(_kernels, "FLOAT_BLOCK", 4 * d)
        monkeypatch.setattr(selection, "_DRAW_BLOCK", 3)
        fm = FeatureMatrix(rng.normal(size=(d, 9)))
        order = rng.permutation(36)
        ii, jj = all_pairs(9)
        for spec in every_kind(d):
            sel = realize(spec, fm)
            _, want = oracles.masked_diff_table(fm.matrix, spec.to_dict())
            streamed = list(sel.blocks(sel.keep_bits()))
            assert [len(X) for X in streamed] == [4] * 9
            np.testing.assert_array_equal(np.concatenate(streamed), want)
            rows = list(sel.row_blocks(ii[order], jj[order]))
            assert all(len(X) <= 4 for X in rows)
            np.testing.assert_array_equal(np.concatenate(rows), want[order])
            every = list(sel.row_blocks())
            assert all(len(X) <= 4 for X in every)
            np.testing.assert_array_equal(np.concatenate(every), want)

    def test_row_blocks_checks_its_pairs(self, rng):
        sel = realize(SelectionSpec.full(), FeatureMatrix(rng.normal(size=(2, 5))))
        with pytest.raises(InvalidPairError):
            next(sel.row_blocks([2], [1]))
