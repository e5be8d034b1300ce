"""In-memory tables, task typing and deterministic splitting/subsampling."""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class TabTextError(Exception):
    """Base class for all errors raised by this package."""


class TooFewRows(TabTextError):
    pass


class ClassTooSmall(TabTextError):
    pass


class MemoryBudgetExceeded(TabTextError):
    pass


# The largest single array the pipeline may allocate (a densified feature
# matrix, a ridge system); larger requests fail fast instead of exhausting RAM.
MEMORY_BUDGET_BYTES = 2 << 30


def require_memory(nbytes: int, what: str) -> None:
    """Raise MemoryBudgetExceeded, before allocating, when `what` needs more
    than MEMORY_BUDGET_BYTES."""
    if nbytes > MEMORY_BUDGET_BYTES:
        raise MemoryBudgetExceeded(
            f"{what} needs {nbytes / 2**20:.1f} MiB, over the "
            f"{MEMORY_BUDGET_BYTES / 2**20:.1f} MiB memory budget"
        )


class _Missing:
    """Singleton marker for a missing cell. Falsy, hashable, reprs as MISSING."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MISSING"

    def __bool__(self):
        return False


MISSING = _Missing()


class ColumnRole(enum.Enum):
    NUMERICAL = "numerical"
    CATEGORICAL = "categorical"
    TEXTUAL = "textual"


class TaskKind(enum.Enum):
    REGRESSION = "regression"
    BINARY = "binary"
    MULTICLASS = "multiclass"

    @property
    def is_classification(self) -> bool:
        return self is not TaskKind.REGRESSION


_TASK_ALIASES = {
    "regression": TaskKind.REGRESSION,
    "reg": TaskKind.REGRESSION,
    "binary": TaskKind.BINARY,
    "b-clf": TaskKind.BINARY,
    "multiclass": TaskKind.MULTICLASS,
    "m-clf": TaskKind.MULTICLASS,
}


def parse_task(name: str) -> TaskKind:
    try:
        return _TASK_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown task kind: {name!r}") from None


@dataclass
class Column:
    """A named column: role plus a list of cells (numbers, strings or MISSING)."""

    name: str
    role: ColumnRole | None
    values: list

    def non_missing(self) -> list:
        return [v for v in self.values if v is not MISSING]

    def missing_fraction(self) -> float:
        if not self.values:
            return 0.0
        return sum(1 for v in self.values if v is MISSING) / len(self.values)


@dataclass
class Table:
    """An immutable-by-convention table with a declared prediction target.

    Columns keep their load order; the target column is included in
    `columns` and excluded from `feature_columns`.
    """

    name: str
    columns: list[Column]
    target: str
    task: TaskKind
    meta: dict = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return len(self.columns[0].values) if self.columns else 0

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def target_column(self) -> Column:
        return self.column(self.target)

    @property
    def feature_columns(self) -> list[Column]:
        return [c for c in self.columns if c.name != self.target]

    def class_labels(self) -> list:
        """Sorted distinct target labels (classification only)."""
        return sorted(set(self.target_column.values), key=str)

    def validate(self) -> "Table":
        names = self.column_names
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names in table {self.name!r}")
        if self.target not in names:
            raise ValueError(f"target column {self.target!r} not present")
        n = self.n_rows
        for c in self.columns:
            if len(c.values) != n:
                raise ValueError(f"column {c.name!r} has {len(c.values)} cells, expected {n}")
            if c.role is ColumnRole.NUMERICAL:
                for v in c.values:
                    if v is not MISSING and not isinstance(v, (int, float)):
                        raise ValueError(f"non-numeric cell {v!r} in numerical column {c.name!r}")
        if any(v is MISSING for v in self.target_column.values):
            raise ValueError("target column contains MISSING after validation")
        if self.task is TaskKind.BINARY and len(set(self.target_column.values)) != 2:
            raise ValueError("binary task requires exactly 2 distinct labels")
        if self.task is TaskKind.MULTICLASS and len(set(self.target_column.values)) < 3:
            raise ValueError("multiclass task requires at least 3 distinct labels")
        return self

    def subset(self, rows: list[int] | np.ndarray) -> "Table":
        """New table containing the given rows, in the given order. A
        subsample's meta "row_source" follows them to its source's rows."""
        cols = [Column(c.name, c.role, [c.values[i] for i in rows]) for c in self.columns]
        meta = dict(self.meta)
        if "row_source" in meta:
            source, kept = meta["row_source"]
            meta["row_source"] = (source, kept[rows])
        return Table(self.name, cols, self.target, self.task, meta)


@dataclass
class FoldAssignment:
    fold_of_row: list[int]

    def fold_rows(self, fold: int) -> list[int]:
        return [i for i, f in enumerate(self.fold_of_row) if f == fold]

    def train_rows(self, test_fold: int) -> list[int]:
        return [i for i, f in enumerate(self.fold_of_row) if f != test_fold]


def k_fold_split(table: Table, k: int, seed: int) -> FoldAssignment:
    """Deterministic k-fold assignment: stratified for classification,
    shuffled for regression.
    """
    n = table.n_rows
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise TooFewRows(f"{n} rows cannot fill {k} folds")
    fold_of_row = [0] * n
    rng = np.random.default_rng([seed, k, 0xF0])
    if table.task.is_classification:
        y = table.target_column.values
        for ci, label in enumerate(sorted(set(y), key=str)):
            rows = [i for i, v in enumerate(y) if v == label]
            if len(rows) < k:
                raise ClassTooSmall(f"class {label!r} has {len(rows)} rows, needs >= {k}")
            rows = list(rng.permutation(rows))
            # rotate the starting fold per class so small classes don't all pile
            # their remainder into fold 0
            for j, r in enumerate(rows):
                fold_of_row[r] = (j + ci) % k
    else:
        order = rng.permutation(n)
        for j, r in enumerate(order):
            fold_of_row[int(r)] = j % k
    return FoldAssignment(fold_of_row)


def subsample_rows(table: Table, cap: int, seed: int) -> Table:
    """Cap the row count: seeded uniform subsample, stratified for
    classification, original row order preserved among kept rows.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    n = table.n_rows
    if n <= cap:
        return table
    rng = np.random.default_rng([seed, cap, 0x5B])
    if table.task.is_classification:
        y = table.target_column.values
        labels = sorted(set(y), key=str)
        rows_of = {lab: [i for i, v in enumerate(y) if v == lab] for lab in labels}
        # largest-remainder allocation keeps kept-class ratios within 1/cap
        exact = {lab: len(rows_of[lab]) * cap / n for lab in labels}
        take = {lab: int(exact[lab]) for lab in labels}
        short = cap - sum(take.values())
        for lab in sorted(labels, key=lambda l: (-(exact[l] - take[l]), str(l)))[:short]:
            take[lab] += 1
        keep: list[int] = []
        for lab in labels:
            chosen = rng.choice(len(rows_of[lab]), size=take[lab], replace=False)
            keep.extend(rows_of[lab][i] for i in chosen)
    else:
        keep = list(rng.choice(n, size=cap, replace=False))
    rows = sorted(int(i) for i in keep)
    sub = table.subset(rows)
    # the table the rows came from and their rows there, for files aligned
    # with it (see embed.load_external_embeddings)
    sub.meta.setdefault("row_source", (table, np.array(rows)))
    return sub
