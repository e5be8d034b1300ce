"""CSV loading, table cleaning and heuristic column-role classification."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
import tempfile
from collections import Counter, deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import count, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from .core import (
    MISSING,
    Column,
    ColumnRole,
    TabTextError,
    Table,
    TaskKind,
    as_int,
    parse_task,
)


class ParseError(TabTextError):
    pass


class MissingTargetColumn(TabTextError):
    pass


class EmptyTable(TabTextError):
    pass


class CoercionFailure(TabTextError):
    pass


DEFAULT_ROW_CAP = 100_000

_MISSING_MARKERS = {"", "NaN", "nan"}
# a cell's load value: MISSING for a marker, else the cell, via get(cell, cell)
_LOADED = dict.fromkeys(_MISSING_MARKERS, MISSING).get


# number with an optional short non-numeric prefix/suffix ("ABV 12%", "15s");
# a number starts with a dot only after a non-word character, so "ABV .5"
# is 0.5 while the dot of "Rs.500" or "No.12" stays in the prefix
_AFFIX_RE = re.compile(
    r"(.{0,5}?)([+-]?(?:\d+(?:\.\d+)?|(?<!\w)\.\d+))(.{0,5})\Z", re.DOTALL
)

_TIMESTAMP_RE = re.compile(r"\d{4}-\d{2}-\d{2}([T ]\d{2}:\d{2}(:\d{2}(\.\d+)?)?)?\Z")

NUMERIC_PARSE_FRACTION = 0.9
MAX_COERCION_FAILURES = 0.1


@dataclass
class DatasetManifest:
    name: str
    csv_path: str
    target_column: str
    task: TaskKind
    role_overrides: dict[str, ColumnRole] = field(default_factory=dict)
    row_cap: int = DEFAULT_ROW_CAP
    delimiter: str = ","


def manifest_from_dict(raw: dict) -> DatasetManifest:
    """The manifest a JSON object describes; a missing key raises KeyError,
    a value of the wrong type ValueError."""
    if not isinstance(raw, dict):
        raise ValueError(f"manifest must be a JSON object, got {raw!r}")
    fields = {key: raw[key] for key in ("name", "csv_path", "target_column", "task")}
    fields["delimiter"] = raw.get("delimiter", ",")
    for key, value in fields.items():
        if not isinstance(value, str):
            raise ValueError(f"manifest {key!r} must be a string, got {value!r}")
    if len(fields["delimiter"]) != 1:
        raise ValueError(f"manifest 'delimiter' must be one character, got {fields['delimiter']!r}")
    overrides = raw.get("role_overrides", {})
    if not isinstance(overrides, dict) or not all(isinstance(r, str) for r in overrides.values()):
        raise ValueError(f"manifest 'role_overrides' must map columns to roles, got {overrides!r}")
    fields["task"] = parse_task(fields["task"])
    return DatasetManifest(
        **fields,
        role_overrides={col: ColumnRole(role.lower()) for col, role in overrides.items()},
        row_cap=as_int(raw.get("row_cap", DEFAULT_ROW_CAP), "manifest 'row_cap'"),
    )


def load_manifest(path: str | Path) -> DatasetManifest:
    """Read a manifest file (JSON key/value tree, UTF-8 with or without a BOM)."""
    return manifest_from_dict(json.loads(Path(path).read_text(encoding="utf-8-sig")))


# the CSV that ingest_dataset has open and hashed, as (manifest, binary
# handle, sha256), for the load_csv call it makes on a snapshot miss
_OPENED_CSV: ContextVar[tuple | None] = ContextVar("_OPENED_CSV", default=None)


def load_csv(manifest: DatasetManifest) -> Table:
    """Load a header-full delimited file into an all-string table.

    Empty cells and the NaN markers become MISSING; blank lines are skipped.
    The first `row_cap` records are kept; the records past it are checked
    for width and counted but never held. A record whose width is not the
    header's is a ParseError naming its physical line, and so is a record
    the csv module refuses (a field over its size limit). A leading UTF-8
    byte-order mark is dropped from the text. The sha256 of the file's bytes,
    BOM included, read through the same open handle, goes into the table's
    meta as "csv_sha256". Called by `ingest_dataset` on a snapshot miss, it
    parses the handle that call opened and hashed.
    """
    path = Path(manifest.csv_path)
    opened = _OPENED_CSV.get()
    if opened is not None and opened[0] is manifest:
        _, raw, csv_sha256 = opened
        header, rows, over_cap = _read_records(raw, manifest)
    else:
        with _csv_file(manifest).open("rb") as raw:
            csv_sha256 = _sha256_of(raw)
            header, rows, over_cap = _read_records(raw, manifest)
    if header is None:
        raise ParseError("file has no header row")
    width = len(header)
    if set(map(len, rows)).union(over_cap) - {width}:
        raise ParseError(_ragged_record(path, manifest.delimiter, width))
    if manifest.target_column not in header:
        raise MissingTargetColumn(manifest.target_column)
    columns = [
        Column(name, None, [_LOADED(cell, cell) for cell in map(itemgetter(i), rows)])
        for i, name in enumerate(header)
    ]
    meta = {"rows_over_cap": sum(over_cap.values()), "csv_sha256": csv_sha256}
    return Table(manifest.name, columns, manifest.target_column, manifest.task, meta)


def _csv_file(manifest: DatasetManifest) -> Path:
    path = Path(manifest.csv_path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    return path


def _read_records(raw, manifest: DatasetManifest) -> tuple[list | None, list, Counter]:
    """The header (None for an empty file), the first row_cap records and
    the widths of the records past them, read from the start of the binary
    handle `raw`, which stays open. The records are kept as tuples of str,
    which the cyclic garbage collector stops tracking on its first pass, so
    no later full pass walks them while the columns are built."""
    raw.seek(0)
    fh = io.TextIOWrapper(raw, encoding="utf-8-sig", newline="")
    reader = csv.reader(fh, delimiter=manifest.delimiter)
    try:
        header = next(reader, None)
        records = filter(None, reader)  # a blank line reads as an empty record
        rows = list(map(tuple, islice(records, max(manifest.row_cap, 0))))
        over_cap = Counter(map(len, records))  # width -> records past the cap
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(f"line {reader.line_num}: {exc}") from None
    finally:
        fh.detach()
    return header, rows, over_cap


def _sha256_of(fh) -> str:
    """The sha256 hex digest of a binary file's remaining bytes."""
    digest = hashlib.sha256()
    for chunk in iter(lambda: fh.read(1 << 20), b""):
        digest.update(chunk)
    return digest.hexdigest()


def _ragged_record(path: Path, delimiter: str, width: int) -> str:
    """The message for the first record of the file whose width is not
    `width`, naming the physical line it ends on."""
    with path.open(encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        for rec in reader:
            if rec and len(rec) != width:
                return f"line {reader.line_num}: expected {width} fields, got {len(rec)}"
    return f"a record does not have {width} fields"


@dataclass
class PreprocessReport:
    dataset: str
    dropped_columns: list[tuple[str, str]] = field(default_factory=list)
    dropped_rows: dict[str, int] = field(default_factory=dict)
    role_assignments: dict[str, ColumnRole] = field(default_factory=dict)
    n_rows: int = 0
    target: str = ""

    def role_counts(self) -> dict[str, int]:
        counts = {"categorical": 0, "numerical": 0, "textual": 0}
        for role in self.role_assignments.values():
            counts[role.value] += 1
        return counts

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "n_rows": self.n_rows,
            "target": self.target,
            "dropped_columns": [{"name": n, "reason": r} for n, r in self.dropped_columns],
            "dropped_rows": dict(self.dropped_rows),
            "role_assignments": {c: r.value for c, r in self.role_assignments.items()},
        }

    def to_text(self) -> str:
        counts = self.role_counts()
        lines = [
            f"dataset: {self.dataset}",
            f"rows: {self.n_rows} (dropped: duplicate={self.dropped_rows.get('duplicate', 0)},"
            f" missing-target={self.dropped_rows.get('missing-target', 0)},"
            f" row-cap={self.dropped_rows.get('row-cap', 0)})",
            f"target: {self.target}",
            f"roles: {counts['categorical']} Cat / {counts['numerical']} Num / {counts['textual']} Text",
            "dropped columns:",
        ]
        if self.dropped_columns:
            lines += [f"  - {name} ({reason})" for name, reason in self.dropped_columns]
        else:
            lines.append("  (none)")
        lines.append("role assignments:")
        lines += [f"  - {col}: {role.value}" for col, role in self.role_assignments.items()]
        return "\n".join(lines) + "\n"


def _clean(cell: str) -> str:
    """The cell without surrounding whitespace, commas, currency symbols and
    percent signs, as parsed for a number (str.replace runs in C per call;
    str.translate looks each character up in a Python mapping)."""
    return (
        cell.strip()
        .replace(",", "").replace("$", "").replace("€", "").replace("£", "").replace("%", "")
    )


def _direct_number(cell: str) -> float | None:
    try:
        return float(_clean(cell))
    except ValueError:
        return None


def categoricity_threshold(n_rows: int) -> int:
    small = math.ceil(0.05 * n_rows) if n_rows < 1000 else 50
    return max(50, small)


class _ColumnRead(NamedTuple):
    role: ColumnRole
    # each distinct string's direct or affix number, None when it has
    # neither; complete only when the walk did not stop early
    numbers: dict[str, float | None]
    timestamps: bool


def _read_column(col: Column, n_rows: int, stop_early: bool = True) -> _ColumnRead:
    """Classify a column in one pass over its distinct non-missing strings,
    in order of first occurrence. Each string is tested once for a
    timestamp's shape; any other is cleaned and parsed once, as a direct
    number or as a number wearing a short affix.

    Cell-weighted hits decide the role: numerical when at least 90% of the
    cells are direct numbers, or direct or the dominant affix, or
    timestamps; otherwise categorical up to the categoricity threshold of
    distinct values, textual above it. Once so many cells are none of the
    three that 90% is out of reach, no numeric test can pass and the walk
    stops, unless `stop_early` is false.
    """
    vals = col.non_missing()
    if not vals:
        return _ColumnRead(ColumnRole.TEXTUAL, {}, False)
    if all(isinstance(v, (int, float)) for v in vals):
        return _ColumnRead(ColumnRole.NUMERICAL, {}, False)
    counts = Counter(map(str, vals))
    n = len(vals)
    need = NUMERIC_PARSE_FRACTION * n
    direct = stamps = misses = 0
    # (prefix, suffix) -> cells, inserted at each pair's first cell, so
    # most_common breaks ties towards the earliest pair; affix_only counts
    # only the cells of a pair that are not direct numbers
    affixes: Counter = Counter()
    affix_only: Counter = Counter()
    numbers: dict[str, float | None] = {}
    for s, k in counts.items():
        # a timestamp is no number, and digits flank every number in it, so
        # it has no affix either; the cheap shape test spares cleaning it and
        # float() raising
        stripped = s.strip()
        if stripped[4:5] == "-" and _TIMESTAMP_RE.fullmatch(stripped):
            stamps += k
            numbers[s] = None
            continue
        cleaned = _clean(s)
        try:
            num = float(cleaned)
        except ValueError:
            num = None
        pair = None
        # a run of digits wears the empty affix, which counts for nothing
        m = None if num is not None and cleaned.isdecimal() else _AFFIX_RE.fullmatch(cleaned)
        if m is not None:
            prefix, digits, suffix = m.groups()
            if not any(ch.isdigit() for ch in prefix + suffix):
                pair = (prefix, suffix)
                if pair != ("", ""):
                    affixes[pair] += k
        if num is not None:
            direct += k
        elif pair is not None:
            num = float(digits)
            affix_only[pair] += k
        else:
            misses += k
            if stop_early and n - misses < need:
                break
        numbers[s] = num
    else:
        # a cell counts once towards the dominant affix, direct or not
        dominant = affixes.most_common(1)[0][0] if affixes else None
        if (
            direct >= need
            or direct + affix_only[dominant] >= need
            or stamps >= need
        ):
            return _ColumnRead(ColumnRole.NUMERICAL, numbers, stamps >= need)
    if len(counts) <= categoricity_threshold(n_rows):
        return _ColumnRead(ColumnRole.CATEGORICAL, numbers, False)
    return _ColumnRead(ColumnRole.TEXTUAL, numbers, False)


_EPOCH = datetime(1970, 1, 1)
_UTC_EPOCH = _EPOCH.replace(tzinfo=timezone.utc)
_SECOND = timedelta(seconds=1)


def _parse_timestamp(cell: str) -> float | None:
    """Seconds since the epoch, a naive time read as UTC; the arithmetic
    of datetime.timestamp()."""
    try:
        dt = datetime.fromisoformat(cell.strip())
    except ValueError:
        return None
    return (dt - (_EPOCH if dt.tzinfo is None else _UTC_EPOCH)) / _SECOND


def _numbers_of(values: list, numbers: dict) -> list:
    """Each cell as a number: MISSING stays, a number cell becomes a float,
    a string cell gets its entry in `numbers`."""
    if set(map(type, values)) <= {str, type(MISSING)}:
        return list(map(numbers.get, values, repeat(MISSING)))
    return [
        v if v is MISSING else float(v) if isinstance(v, (int, float)) else numbers[str(v)]
        for v in values
    ]


def _coerced(col: Column, read: _ColumnRead) -> Column:
    """The numerical column built from a full read: every cell becomes a
    number or MISSING. More than 10% parse failures means the classifier was
    wrong.
    """
    numbers = read.numbers
    if read.timestamps:
        numbers = {s: _parse_timestamp(s) for s in numbers}
    out = _numbers_of(col.values, numbers)
    failures = out.count(None)
    if failures:
        n = len(col.non_missing())
        if failures > MAX_COERCION_FAILURES * n:
            raise CoercionFailure(
                f"column {col.name!r}: {failures}/{n} cells failed numeric coercion"
            )
        out = [MISSING if v is None else v for v in out]
    return Column(col.name, ColumnRole.NUMERICAL, out)


def _typed_column(col: Column, n_rows: int) -> Column:
    """The column with its heuristic role, coerced when numerical."""
    read = _read_column(col, n_rows)
    if read.role is ColumnRole.NUMERICAL:
        return _coerced(col, read)
    return Column(col.name, read.role, col.values)


def coerce_numeric_column(col: Column) -> Column:
    """Turn every cell of a numerically-classified column into a number or
    MISSING. More than 10% parse failures means the classifier was wrong.
    """
    return _coerced(col, _read_column(col, len(col.values), stop_early=False))


def _drop_columns(cols, target, report, reason, drops) -> list[Column]:
    """The columns kept: the target, and each column for which drops(column)
    is false; a dropped column is reported with `reason`."""
    kept = []
    for c in cols:
        if c.name != target and drops(c):
            report.dropped_columns.append((c.name, reason))
        else:
            kept.append(c)
    return kept


def _is_constant(col: Column) -> bool:
    """Whether the column holds one distinct non-missing value."""
    distinct = set(col.values)
    return len(distinct) - (MISSING in distinct) == 1


def _first_rows(cols: list[Column]) -> list[int]:
    """The index of each distinct row's first occurrence, in order; the row
    keys are dropped on return, before the columns are typed."""
    first: dict = {}  # row -> its first index, via one setdefault per row
    deque(map(first.setdefault, zip(*(c.values for c in cols)), count()), maxlen=0)
    return list(first.values())


def general_preprocess(
    table: Table, role_overrides: dict[str, ColumnRole] | None = None
) -> tuple[Table, PreprocessReport]:
    """The standard cleaning pass, in fixed order: drop mostly-missing
    columns, drop constant columns, drop duplicate rows, drop rows with a
    missing target, drop 'Unnamed' columns; then classify and coerce the
    survivors.
    """
    overrides = role_overrides or {}
    target = table.target
    report = PreprocessReport(dataset=table.name, target=target)
    report.dropped_rows["row-cap"] = int(table.meta.get("rows_over_cap", 0))

    # an explicit role override is a curator's keep decision: it exempts
    # the column from the mostly-missing drop
    cols = _drop_columns(
        table.columns, target, report, "missing>50%",
        lambda c: c.name not in overrides and c.missing_fraction() > 0.5,
    )
    cols = _drop_columns(cols, target, report, "constant", _is_constant)

    unique = _first_rows(cols)
    report.dropped_rows["duplicate"] = table.n_rows - len(unique)

    tvals = next(c for c in cols if c.name == target).values
    if table.task is TaskKind.REGRESSION:
        distinct = dict.fromkeys(tvals)  # in order of first occurrence
        distinct.pop(MISSING, None)
        numbers = {}  # each distinct target string is parsed once
        for s in map(str, distinct):
            num = _direct_number(s)
            numbers[s] = num if num is not None else MISSING
        tvals = _numbers_of(tvals, numbers)
    keep = [i for i in unique if tvals[i] is not MISSING]
    report.dropped_rows["missing-target"] = len(unique) - len(keep)

    cols = _drop_columns(cols, target, report, "unnamed", lambda c: c.name.startswith("Unnamed"))
    n_rows = len(keep)
    if n_rows == 0 or len(cols) < 2:
        raise EmptyTable(
            f"table {table.name!r} has no usable rows or feature columns after cleaning"
        )

    out_cols = []
    for c in cols:
        values = tvals if c.name == target else c.values
        if n_rows < table.n_rows:
            values = [values[i] for i in keep]
        c = Column(c.name, c.role, values)
        if c.name != target:
            role = overrides.get(c.name)
            if role is None:
                c = _typed_column(c, n_rows)
            elif role is ColumnRole.NUMERICAL:
                c = coerce_numeric_column(c)
            else:
                c.role = role
            report.role_assignments[c.name] = c.role
        out_cols.append(c)

    report.n_rows = n_rows
    cleaned = Table(table.name, out_cols, target, table.task, dict(table.meta))
    return cleaned.validate(), report


def ingest_dataset(manifest: DatasetManifest) -> tuple[Table, PreprocessReport]:
    """The cleaned table and its report: read from the snapshot `tabtext
    ingest` left for this manifest when its key still matches (see
    read_snapshot), else loaded and cleaned afresh. The CSV is opened and
    hashed once: the digest keys the snapshot and, on a miss, `load_csv`
    parses the same handle, so the table's "csv_sha256" is the digest of
    the bytes it was parsed from."""
    with _csv_file(manifest).open("rb") as raw:
        csv_sha256 = _sha256_of(raw)
        snapshot = read_snapshot(manifest, csv_sha256)
        if snapshot is not None:
            return snapshot
        handed = _OPENED_CSV.set((manifest, raw, csv_sha256))
        try:
            table = load_csv(manifest)
        finally:
            _OPENED_CSV.reset(handed)
    return general_preprocess(table, manifest.role_overrides)


# where `tabtext ingest` leaves its snapshots, relative to the working
# directory, as pytest leaves .pytest_cache
SNAPSHOT_DIR = Path(".tabtext-cache")
# the code that turns a CSV into a cleaned table: its bytes are part of
# every snapshot key, so a change to it makes every snapshot stale
_KEYED_SOURCES = (Path(__file__), Path(__file__).with_name("core.py"))
_NULL_OF = {MISSING: None}.get  # get(cell, cell): MISSING is stored as null
_MISSING_OF = {None: MISSING}.get
_CELL_TYPES = {str, float, type(None)}  # a cleaned cell, as JSON reads it


def _snapshot_key(manifest: DatasetManifest, csv_sha256: str) -> str:
    """The sha256 over all a cleaned table depends on: the CSV's bytes, the
    manifest's fields except the CSV's path, and the cleaning code."""
    sources = []
    for path in _KEYED_SOURCES:
        with path.open("rb") as fh:
            sources.append(_sha256_of(fh))
    overrides = sorted((col, role.value) for col, role in manifest.role_overrides.items())
    parts = [csv_sha256, manifest.name, manifest.target_column, manifest.task.value,
             overrides, manifest.row_cap, manifest.delimiter, sources]
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def _file_safe(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)[:64]


def _snapshot_path(name: str, key: str) -> Path:
    """The snapshot file of a dataset name and key; the name is kept to
    file-safe characters and the key shortened, as the file holds it whole."""
    return SNAPSHOT_DIR / f"{_file_safe(name)}-{key[:16]}.json"


def write_table_cache(manifest: DatasetManifest, table: Table, report: PreprocessReport) -> Path:
    """Store the table `manifest` was cleaned into, and its report, under
    SNAPSHOT_DIR, keyed by the CSV bytes it was parsed from, and return the
    file's path. MISSING is stored as null and a float by its repr, so both
    read back exactly. The file is written aside and renamed into place, so
    a reader sees it whole or not at all. Then the other snapshots of the
    dataset's name are removed, so each name keeps its newest."""
    key = _snapshot_key(manifest, table.meta["csv_sha256"])
    doc = {
        "key": key,
        "meta": table.meta,
        "columns": [
            [c.name, c.role.value if c.role else None, list(map(_NULL_OF, c.values, c.values))]
            for c in table.columns
        ],
        "report": report.to_dict(),
    }
    text = json.dumps(doc, separators=(",", ":"))
    SNAPSHOT_DIR.mkdir(exist_ok=True)
    path = _snapshot_path(manifest.name, key)
    fd, tmp = tempfile.mkstemp(dir=SNAPSHOT_DIR, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    # other names' snapshots and a concurrent writer's temporary file do not
    # match; a removal that fails leaves a stale file, which is never read
    same_name = re.compile(re.escape(_file_safe(manifest.name)) + r"-[0-9a-f]{16}\.json")
    for other in SNAPSHOT_DIR.iterdir():
        if other.name != path.name and same_name.fullmatch(other.name):
            try:
                other.unlink()
            except OSError:
                pass
    return path


def read_snapshot(
    manifest: DatasetManifest, csv_sha256: str | None = None
) -> tuple[Table, PreprocessReport] | None:
    """The cleaned table and report of the snapshot for `manifest` whose key
    matches the CSV's bytes as they are now (`csv_sha256`, when the caller
    has hashed them), the manifest and this code. None when there is no
    such file, or it does not parse as a snapshot with that key: the caller
    then ingests afresh, so a stale or damaged snapshot is never read."""
    if not SNAPSHOT_DIR.is_dir():
        return None
    try:
        if csv_sha256 is None:
            with open(manifest.csv_path, "rb") as fh:
                csv_sha256 = _sha256_of(fh)
        key = _snapshot_key(manifest, csv_sha256)
        doc = json.loads(_snapshot_path(manifest.name, key).read_bytes())
        if doc["key"] != key:
            return None
        return _from_snapshot(manifest, doc)
    except (OSError, ValueError, LookupError, TypeError, AttributeError):
        return None


def _from_snapshot(manifest: DatasetManifest, doc: dict) -> tuple[Table, PreprocessReport]:
    """The table and report a snapshot document holds; a document of another
    shape raises ValueError, LookupError, TypeError or AttributeError."""
    columns = []
    for name, role, values in doc["columns"]:
        if type(values) is not list or not set(map(type, values)) <= _CELL_TYPES:
            raise ValueError(f"column {name!r} is not a list of cleaned cells")
        role = None if role is None else ColumnRole(role)
        columns.append(Column(name, role, list(map(_MISSING_OF, values, values))))
    meta = dict(doc["meta"])
    table = Table(manifest.name, columns, manifest.target_column, manifest.task, meta)
    raw = doc["report"]
    report = PreprocessReport(
        dataset=raw["dataset"],
        dropped_columns=[(d["name"], d["reason"]) for d in raw["dropped_columns"]],
        dropped_rows=dict(raw["dropped_rows"]),
        role_assignments={c: ColumnRole(r) for c, r in raw["role_assignments"].items()},
        n_rows=raw["n_rows"],
        target=raw["target"],
    )
    return table.validate(), report
