import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabtext.core import (
    MISSING,
    ClassTooSmall,
    Column,
    ColumnRole,
    Table,
    TaskKind,
    TooFewRows,
    k_fold_split,
    subsample_rows,
)


def make_regression_table(n, seed=0, name="reg"):
    rng = np.random.default_rng(seed)
    x = [float(v) for v in rng.standard_normal(n)]
    y = [float(v) for v in rng.standard_normal(n)]
    return Table(
        name,
        [Column("x", ColumnRole.NUMERICAL, x), Column("y", None, y)],
        "y",
        TaskKind.REGRESSION,
    )


def make_binary_table(n_pos, n_neg, seed=0, labels=("a", "b")):
    rng = np.random.default_rng(seed)
    y = [labels[0]] * n_pos + [labels[1]] * n_neg
    order = rng.permutation(len(y))
    y = [y[i] for i in order]
    x = [float(v) for v in rng.standard_normal(len(y))]
    return Table(
        "bin",
        [Column("x", ColumnRole.NUMERICAL, x), Column("y", None, y)],
        "y",
        TaskKind.BINARY,
    )


class TestKFoldSplit:
    def test_equal_partition_regression(self):
        table = make_regression_table(10)
        fold = k_fold_split(table, 5, seed=1)
        sizes = [len(fold.fold_rows(f)) for f in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_stratified_balanced_binary(self):
        table = make_binary_table(50, 50)
        fold = k_fold_split(table, 5, seed=3)
        y = table.target_column.values
        for f in range(5):
            rows = fold.fold_rows(f)
            assert len(rows) == 20
            assert sum(1 for i in rows if y[i] == "a") == 10
            assert sum(1 for i in rows if y[i] == "b") == 10

    def test_deterministic(self):
        table = make_binary_table(30, 20)
        a = k_fold_split(table, 5, seed=7)
        b = k_fold_split(table, 5, seed=7)
        assert a.fold_of_row == b.fold_of_row
        c = k_fold_split(table, 5, seed=8)
        assert a.fold_of_row != c.fold_of_row

    def test_partition_property(self):
        for seed in range(5):
            table = make_regression_table(23, seed=seed)
            fold = k_fold_split(table, 4, seed=seed)
            seen = sorted(i for f in range(4) for i in fold.fold_rows(f))
            assert seen == list(range(23))

    def test_stratification_within_one(self):
        table = make_binary_table(33, 14)
        fold = k_fold_split(table, 5, seed=0)
        y = table.target_column.values
        for f in range(5):
            rows = fold.fold_rows(f)
            for label, total in (("a", 33), ("b", 14)):
                count = sum(1 for i in rows if y[i] == label)
                assert abs(count - total / 5) <= 1

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            k_fold_split(make_regression_table(3), 5, seed=0)

    def test_class_too_small(self):
        with pytest.raises(ClassTooSmall):
            k_fold_split(make_binary_table(3, 40), 5, seed=0)


def make_class_table(counts, seed):
    """A classification table with counts[c] rows of label c, shuffled."""
    y = [f"c{c}" for c, n in enumerate(counts) for _ in range(n)]
    y = [y[i] for i in np.random.default_rng(seed).permutation(len(y))]
    x = [float(i) for i in range(len(y))]
    return Table(
        "cls",
        [Column("x", ColumnRole.NUMERICAL, x), Column("y", None, y)],
        "y",
        TaskKind.MULTICLASS,
    )


class TestSplitProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(2, 6),
        extra=st.lists(st.integers(0, 25), min_size=2, max_size=4),
        seed=st.integers(0, 2**16),
    )
    def test_stratified_folds_partition_and_balance(self, k, extra, seed):
        table = make_class_table([k + e for e in extra], seed)
        fold = k_fold_split(table, k, seed)
        rows = [i for f in range(k) for i in fold.fold_rows(f)]
        assert sorted(rows) == list(range(table.n_rows))
        y = table.target_column.values
        for label in set(y):
            sizes = [sum(1 for i in fold.fold_rows(f) if y[i] == label) for f in range(k)]
            assert max(sizes) - min(sizes) <= 1

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(2, 8), extra=st.integers(0, 100), seed=st.integers(0, 2**16))
    def test_regression_folds_partition_and_balance(self, k, extra, seed):
        table = make_regression_table(k + extra, seed=seed)
        fold = k_fold_split(table, k, seed)
        rows = [i for f in range(k) for i in fold.fold_rows(f)]
        assert sorted(rows) == list(range(table.n_rows))
        sizes = [len(fold.fold_rows(f)) for f in range(k)]
        assert max(sizes) - min(sizes) <= 1

    @settings(max_examples=100, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 60), min_size=2, max_size=5),
        cap_share=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**16),
    )
    def test_subsample_keeps_class_shares_within_one_over_cap(self, counts, cap_share, seed):
        table = make_class_table(counts, seed)
        n = table.n_rows
        cap = max(1, int(cap_share * n))
        out = subsample_rows(table, cap, seed)
        assert out.n_rows == cap
        kept = out.target_column.values
        for c, count in enumerate(counts):
            assert abs(kept.count(f"c{c}") / cap - count / n) <= 1 / cap


class TestSubsampleRows:
    def test_under_cap_unchanged(self):
        table = make_regression_table(2914, seed=2)
        assert subsample_rows(table, 3000, seed=0) is table

    def test_cap_enforced(self):
        table = make_regression_table(5000, seed=2)
        out = subsample_rows(table, 3000, seed=0)
        assert out.n_rows == 3000

    def test_order_preserved(self):
        table = make_regression_table(100, seed=4)
        out = subsample_rows(table, 40, seed=1)
        x = table.column("x").values
        kept_positions = [x.index(v) for v in out.column("x").values]
        assert kept_positions == sorted(kept_positions)

    def test_stratified_ratio_over_seeds(self):
        # 90/10 imbalance, cap 1000: kept ratio stays within 1% of 90/10
        table = make_binary_table(9000, 1000, seed=5)
        for seed in range(20):
            out = subsample_rows(table, 1000, seed=seed)
            frac_a = out.target_column.values.count("a") / 1000
            assert abs(frac_a - 0.9) <= 0.01

    def test_deterministic(self):
        table = make_regression_table(500, seed=6)
        a = subsample_rows(table, 100, seed=3)
        b = subsample_rows(table, 100, seed=3)
        assert a.column("x").values == b.column("x").values


class TestTableValidate:
    def test_missing_target_rejected(self):
        table = Table(
            "t",
            [Column("x", ColumnRole.NUMERICAL, [1.0]), Column("y", None, [MISSING])],
            "y",
            TaskKind.REGRESSION,
        )
        with pytest.raises(ValueError):
            table.validate()

    def test_binary_arity(self):
        table = Table(
            "t",
            [
                Column("x", ColumnRole.NUMERICAL, [1.0, 2.0, 3.0]),
                Column("y", None, ["a", "b", "c"]),
            ],
            "y",
            TaskKind.BINARY,
        )
        with pytest.raises(ValueError):
            table.validate()

    def test_numeric_role_enforced(self):
        table = Table(
            "t",
            [Column("x", ColumnRole.NUMERICAL, ["oops"]), Column("y", None, [1.0])],
            "y",
            TaskKind.REGRESSION,
        )
        with pytest.raises(ValueError):
            table.validate()
