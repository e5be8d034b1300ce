"""In-memory tables, task typing, config values and deterministic splitting/subsampling."""
from __future__ import annotations

import enum
import typing
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


def as_int(value, what: str) -> int:
    """int(value) for an integral value; a boolean, a non-integral number or
    a value int() refuses (null, a list, an object, a non-numeric string)
    raises ValueError naming `what`, so 2.9 is refused rather than truncated."""
    if not isinstance(value, bool) and (not isinstance(value, float) or value.is_integer()):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{what} must be a JSON integer, got {value!r}")


def check_count(name: str, value, minimum: int) -> None:
    """Refuse a config field that is not an int of at least `minimum`; a
    boolean or a float such as 2.0 is refused, not converted."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")


def from_spec(spec, kinds, what: str):
    """Build the class of the union `kinds` whose tag is spec["kind"] from
    the rest of a config mapping, e.g. {"kind": "ridge", "alpha": 2.0}; a
    malformed spec raises ValueError naming `what` ("model", "embedder")."""
    if not isinstance(spec, dict):
        raise ValueError(f"{what} spec must be a JSON object, got {spec!r}")
    params = dict(spec)
    kind = params.pop("kind", None)
    by_tag = {cls.tag: cls for cls in typing.get_args(kinds)}
    if not isinstance(kind, str) or kind not in by_tag:
        raise ValueError(f"unknown {what} kind: {kind!r}")
    try:
        return by_tag[kind](**params)
    except TypeError as exc:  # an unknown or mistyped parameter
        raise ValueError(f"{what} {kind!r}: {exc}") from None


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
        return self.values.count(MISSING) / len(self.values)


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
            if c.role is ColumnRole.NUMERICAL and not all(
                issubclass(t, (int, float, _Missing)) for t in set(map(type, c.values))
            ):
                v = next(v for v in c.values if not isinstance(v, (int, float, _Missing)))
                raise ValueError(f"non-numeric cell {v!r} in numerical column {c.name!r}")
        if MISSING in self.target_column.values:
            raise ValueError("target column contains MISSING after validation")
        if self.task is TaskKind.BINARY and len(set(self.target_column.values)) != 2:
            raise ValueError("binary task requires exactly 2 distinct labels")
        if self.task is TaskKind.MULTICLASS and len(set(self.target_column.values)) < 3:
            raise ValueError("multiclass task requires at least 3 distinct labels")
        return self

    def subset(self, rows: list[int] | np.ndarray) -> "Table":
        """New table containing the given rows, in the given order. A
        subsample's meta "row_source" follows them to its source's rows."""
        index = rows.tolist() if isinstance(rows, np.ndarray) else rows
        cols = [Column(c.name, c.role, [c.values[i] for i in index]) for c in self.columns]
        meta = dict(self.meta)
        if "row_source" in meta:
            source, kept = meta["row_source"]
            meta["row_source"] = (source, kept[rows])
        return Table(self.name, cols, self.target, self.task, meta)


@dataclass
class FoldAssignment:
    """Each row's fold. The rows of a fold are found in an array copy of
    `fold_of_row` made at construction, so the list is not to be changed."""

    fold_of_row: list[int]
    _folds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._folds = np.asarray(self.fold_of_row)

    def fold_rows(self, fold: int) -> np.ndarray:
        """The rows of `fold`, ascending."""
        return np.flatnonzero(self._folds == fold)

    def train_rows(self, test_fold: int) -> np.ndarray:
        """The rows outside `test_fold`, ascending."""
        return np.flatnonzero(self._folds != test_fold)


def _rows_by_label(y: list) -> list[tuple[object, np.ndarray]]:
    """Each distinct label of y, in str order, with its rows, ascending."""
    labels = sorted(set(y), key=str)
    index = {label: i for i, label in enumerate(labels)}
    codes = np.fromiter(map(index.__getitem__, y), np.intp, len(y))
    ends = np.cumsum(np.bincount(codes, minlength=len(labels)))
    return list(zip(labels, np.split(np.argsort(codes, kind="stable"), ends[:-1])))


def k_fold_split(table: Table, k: int, seed: int) -> FoldAssignment:
    """Deterministic k-fold assignment: stratified for classification,
    shuffled for regression.
    """
    n = table.n_rows
    if k < 2:
        raise ValueError("k must be at least 2")
    if n < k:
        raise TooFewRows(f"{n} rows cannot fill {k} folds")
    fold_of_row = np.empty(n, dtype=np.intp)
    rng = np.random.default_rng([seed, k, 0xF0])
    if table.task.is_classification:
        for ci, (label, rows) in enumerate(_rows_by_label(table.target_column.values)):
            if rows.size < k:
                raise ClassTooSmall(f"class {label!r} has {rows.size} rows, needs >= {k}")
            # rotate the starting fold per class so small classes don't all pile
            # their remainder into fold 0
            fold_of_row[rng.permutation(rows)] = (np.arange(rows.size) + ci) % k
    else:
        fold_of_row[rng.permutation(n)] = np.arange(n) % k
    return FoldAssignment(fold_of_row.tolist())


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
        by_label = _rows_by_label(table.target_column.values)
        # largest-remainder allocation keeps kept-class ratios within 1/cap
        exact = [rows.size * cap / n for _, rows in by_label]
        take = [int(e) for e in exact]
        short = cap - sum(take)
        ranked = sorted(
            range(len(by_label)), key=lambda j: (-(exact[j] - take[j]), str(by_label[j][0]))
        )
        for j in ranked[:short]:
            take[j] += 1
        keep = np.concatenate([
            rows[rng.choice(rows.size, size=t, replace=False)]
            for (_, rows), t in zip(by_label, take)
        ])
    else:
        keep = rng.choice(n, size=cap, replace=False)
    rows = np.sort(keep)
    sub = table.subset(rows)
    # the table the rows came from and their rows there, for files aligned
    # with it (see embed.load_external_embeddings)
    sub.meta.setdefault("row_source", (table, rows))
    return sub
