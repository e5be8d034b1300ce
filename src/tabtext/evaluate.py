"""Cross-validated with-text vs. without-text experiments and their reports."""
from __future__ import annotations

import csv
import hashlib
import io
import json
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import select
from .core import ColumnRole, TabTextError, Table, TaskKind, k_fold_split, subsample_rows
from .embed import (
    EmbedderKind,
    FeatureMatrix,
    TableEncoding,
    assemble_features,
    embedder_key,
    text_corpora,
)
from .ingest import DatasetManifest, ingest_dataset
from .models import External, ModelKind, fit, run_external


class LengthMismatch(TabTextError):
    pass


class ConstantTarget(TabTextError):
    pass


class DuplicateDatasetName(TabTextError):
    pass


class ExperimentError(TabTextError):
    def __init__(self, message: str, fold: int):
        super().__init__(f"fold {fold}: {message}")
        self.fold = fold


def metric_accuracy(y_true, y_pred) -> float:
    if len(y_true) != len(y_pred):
        raise LengthMismatch(f"{len(y_true)} labels vs {len(y_pred)} predictions")
    if len(y_true) == 0:
        raise LengthMismatch("empty label lists")
    hits = sum(1 for t, p in zip(y_true, y_pred) if str(t) == str(p))
    return hits / len(y_true)


def metric_r2(y_true, y_pred) -> float:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if len(y_true) != len(y_pred):
        raise LengthMismatch(f"{len(y_true)} targets vs {len(y_pred)} predictions")
    if len(y_true) < 2:
        raise LengthMismatch("r2 needs at least 2 rows")
    ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
    if ss_tot == 0.0:
        raise ConstantTarget("target variance is zero")
    ss_res = float(((y_true - y_pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class ExperimentSpec:
    manifest: DatasetManifest
    embedder: EmbedderKind
    selector: str | None
    model: ModelKind
    with_text: bool
    k_folds: int = 5
    feature_cap: int = 300
    row_cap: int = 3000
    seed: int = 0

    def __post_init__(self):
        if self.k_folds < 2 or self.feature_cap < 1 or self.row_cap < 1:
            raise ValueError("k_folds must be >= 2 and caps positive")

    @property
    def dataset_name(self) -> str:
        return self.manifest.name

    @property
    def task(self) -> TaskKind:
        return self.manifest.task

    def condition(self) -> tuple[str, str, str, bool]:
        return (self.model.tag, self.embedder.tag, self.selector or "all", self.with_text)

    def spec_hash(self, csv_sha256: str | None = None) -> str:
        """Hash of everything that changes a score. `csv_sha256` is the
        digest of the dataset CSV's bytes as ingested (see `load_csv`); an
        in-memory table has none, and its spec hashes without it."""
        fields = {
            "dataset": self.dataset_name,
            "target_column": self.manifest.target_column,
            "task": self.task.value,
            "role_overrides": {
                col: role.value for col, role in self.manifest.role_overrides.items()
            },
            "manifest_row_cap": self.manifest.row_cap,
            "delimiter": self.manifest.delimiter,
            "embedder": embedder_key(self.embedder),
            "selector": self.selector,
            "model": repr(self.model),
            "with_text": self.with_text,
            "k_folds": self.k_folds,
            "feature_cap": self.feature_cap,
            "row_cap": self.row_cap,
            "seed": self.seed,
        }
        if csv_sha256 is not None:
            fields["csv_sha256"] = csv_sha256
        payload = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class EvalResult:
    spec: ExperimentSpec
    per_fold: list[float]
    mean: float
    std: float
    metric_name: str
    selector_applied: bool = False
    # digest of the CSV the table was read from, None for an in-memory table
    csv_sha256: str | None = None


def _fold_inputs(spec: ExperimentSpec, table: Table, fold, test_fold: int, encoding):
    """One fold's train and test inputs for the specs that share `spec`'s
    feature key: the assembled features, or for a raw-table External model
    the fold's rows of the table, without its text columns when the spec
    has no text."""
    if isinstance(spec.model, External) and spec.model.raw_table:
        if not spec.with_text:
            kept = [c for c in table.columns if c.role is not ColumnRole.TEXTUAL]
            table = replace(table, columns=kept)
        return table.subset(fold.train_rows(test_fold)), table.subset(fold.fold_rows(test_fold))
    return assemble_features(
        table, spec.embedder, spec.with_text, fold, test_fold, encoding=encoding
    )


def _feature_key(spec: ExperimentSpec) -> tuple:
    """Specs with equal keys get equal fold inputs from `_fold_inputs`."""
    raw = isinstance(spec.model, External) and spec.model.raw_table
    return (raw, spec.embedder if spec.with_text and not raw else None, spec.with_text)


def _score_fold(spec: ExperimentSpec, train, test) -> tuple[float, bool]:
    """Select (assembled features over the cap only), fit and score one
    fold; returns the score and whether the selector fired."""
    applied = False
    if (
        isinstance(train, FeatureMatrix)
        and spec.selector is not None
        and train.width > spec.feature_cap
    ):
        n_non_text = sum(1 for _, tag, _ in train.provenance if tag in ("num", "cat"))
        k = select.default_k(spec.feature_cap, n_non_text)
        result = select.run_selector(
            spec.selector, train.X, train.y, spec.task, k, spec.seed
        )
        train = select.apply_selection(train, result)
        test = select.apply_selection(test, result)
        applied = True

    if isinstance(spec.model, External):
        preds = run_external(spec.model.command, train, test, timeout=spec.model.timeout)
    else:
        preds = fit(spec.model, train.X, train.y, spec.task).predict(test.X)
    y_true = test.target_column.values if isinstance(test, Table) else test.y
    # metric_r2 parses an External model's CSV prediction strings as floats
    if spec.task is TaskKind.REGRESSION:
        return metric_r2(y_true, preds), applied
    return metric_accuracy(y_true, preds), applied


def _fold_error(exc: Exception, test_fold: int) -> ExperimentError:
    # the kept traceback keeps its lines but not the fold's matrices
    traceback.clear_frames(exc.__traceback__)
    err = ExperimentError(str(exc), test_fold)
    err.__cause__ = exc
    return err


def _run_specs(
    specs: list[ExperimentSpec], tables: dict[str, Table] | None = None
) -> list[EvalResult | Exception]:
    """Run every spec; the one loop behind `run_experiment`, `run_grid` and
    the CLI's eval. Returns each spec's EvalResult, or the exception that
    stopped it, in spec order.

    Specs that share a split key (dataset, row cap, folds, seed) share one
    ingest, subsample, split and encoding of every column (a TableEncoding,
    text corpora included). Those that also share a feature key share each
    fold's assembled features, then select, fit and score on them one by
    one. A failure in a fold stops the spec there with an ExperimentError;
    a failed assembly stops every spec of its key.
    """
    tables = dict(tables or {})
    manifests: dict[str, DatasetManifest] = {}
    outcomes: list = [None] * len(specs)
    splits: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        if manifests.setdefault(spec.dataset_name, spec.manifest) != spec.manifest:
            raise DuplicateDatasetName(
                f"two different manifests are named {spec.dataset_name!r}"
            )
        if spec.selector is not None and not select.applicable(spec.selector, spec.task):
            outcomes[i] = select.SelectorNotApplicable(
                f"{spec.selector} does not support {spec.task.value}"
            )
            continue
        key = (spec.dataset_name, spec.row_cap, spec.k_folds, spec.seed)
        splits.setdefault(key, []).append(i)

    for (name, row_cap, k_folds, seed), members in splits.items():
        try:
            if tables.get(name) is None:
                tables[name], _ = ingest_dataset(manifests[name])
            table = subsample_rows(tables[name], row_cap, seed)
            fold = k_fold_split(table, k_folds, seed)
            # encoded and tokenized once, shared by the folds
            encoding = TableEncoding(table, text_corpora(table))
        except Exception as exc:  # noqa: BLE001 - recorded per spec
            for i in members:
                outcomes[i] = exc
            continue
        groups: dict[tuple, list[int]] = {}
        for i in members:
            groups.setdefault(_feature_key(specs[i]), []).append(i)
        per_fold: dict[int, list[float]] = {i: [] for i in members}
        applied: set[int] = set()
        for test_fold in range(k_folds):
            for group in groups.values():
                live = [i for i in group if outcomes[i] is None]
                if not live:
                    continue
                try:
                    train, test = _fold_inputs(specs[live[0]], table, fold, test_fold, encoding)
                except Exception as exc:  # noqa: BLE001 - recorded per spec
                    for i in live:
                        outcomes[i] = _fold_error(exc, test_fold)
                    continue
                for i in live:
                    try:
                        score, fired = _score_fold(specs[i], train, test)
                    except Exception as exc:  # noqa: BLE001 - recorded per spec
                        outcomes[i] = _fold_error(exc, test_fold)
                        continue
                    per_fold[i].append(score)
                    if fired:
                        applied.add(i)
                del train, test  # freed before the next assembly
        for i in members:
            if outcomes[i] is None:
                spec = specs[i]
                outcomes[i] = EvalResult(
                    spec,
                    per_fold[i],
                    float(np.mean(per_fold[i])),
                    float(np.std(per_fold[i])),
                    "r2" if spec.task is TaskKind.REGRESSION else "accuracy",
                    i in applied,
                    table.meta.get("csv_sha256"),
                )
    return outcomes


def _raise_first_failure(outcomes: list) -> list[EvalResult]:
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes


def run_experiment(spec: ExperimentSpec, table: Table | None = None) -> EvalResult:
    """Run one grid cell: subsample rows, split folds, and per fold embed,
    (maybe) select, fit and score. Deterministic for a fixed spec seed."""
    tables = None if table is None else {spec.dataset_name: table}
    return _raise_first_failure(_run_specs([spec], tables))[0]


def run_grid(
    specs: list[ExperimentSpec], tables: dict[str, Table] | None = None
) -> list[EvalResult]:
    """Run the specs, sharing folds where they agree; raises the first
    failure in spec order."""
    return _raise_first_failure(_run_specs(specs, tables))


# ---------------------------------------------------------------------------
# Reports


def _cell(mean: float, std: float) -> str:
    return f"{mean:.3f}±{std:.3f}"


CSV_COLUMNS = [
    "dataset", "task", "metric", "model", "embedder", "selector",
    "with_text", "selector_applied", "mean", "std", "folds", "seed",
]


def format_csv(rows) -> str:
    r"""CSV text that `csv.reader` reads back field for field, whatever the
    cells hold: minimal quoting, "\n" line endings, and a row with a "\r"
    in any cell quoted in full."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    # QUOTE_MINIMAL quotes the line terminator's characters but not a lone
    # "\r", which the reader takes for a line break
    quoted = csv.writer(buf, quoting=csv.QUOTE_ALL, lineterminator="\n")
    for row in rows:
        (quoted if any("\r" in cell for cell in row) else writer).writerow(row)
    return buf.getvalue()


def format_results_csv(results: list[EvalResult]) -> str:
    return format_csv(
        [CSV_COLUMNS]
        + [
            [
                r.spec.dataset_name,
                r.spec.task.value,
                r.metric_name,
                r.spec.model.tag,
                r.spec.embedder.tag,
                r.spec.selector or "all",
                str(r.spec.with_text).lower(),
                str(r.selector_applied).lower(),
                repr(r.mean),
                repr(r.std),
                "|".join(repr(v) for v in r.per_fold),
                str(r.spec.seed),
            ]
            for r in results
        ]
    )


def parse_results_csv(text: str) -> list[dict]:
    records = [r for r in csv.reader(io.StringIO(text)) if "".join(r).strip()]
    if not records or records[0] != CSV_COLUMNS:
        raise TabTextError("unrecognized results.csv header")
    rows = []
    for i, parts in enumerate(records[1:], start=1):
        if len(parts) != len(CSV_COLUMNS):
            raise TabTextError(
                f"results.csv row {i} has {len(parts)} fields, expected {len(CSV_COLUMNS)}"
            )
        rows.append(
            {
                "dataset": parts[0],
                "task": parts[1],
                "metric": parts[2],
                "model": parts[3],
                "embedder": parts[4],
                "selector": parts[5],
                "with_text": parts[6] == "true",
                "selector_applied": parts[7] == "true",
                "mean": float(parts[8]),
                "std": float(parts[9]),
                "folds": [float(v) for v in parts[10].split("|") if v],
                "seed": int(parts[11]),
            }
        )
    return rows


def format_rows_text(rows: list[dict]) -> str:
    """Aligned table: one row per dataset, a with/without-text column pair per
    (model, embedder, selector) condition. '*' marks the better half of each
    pair; '--' marks conditions without a result (inapplicable selector, or
    selection skipped because the matrix was under the feature cap)."""
    datasets = sorted({row["dataset"] for row in rows})
    conditions = sorted({(row["model"], row["embedder"], row["selector"]) for row in rows})
    by_key: dict = {}
    for row in rows:
        sel = row["selector"]
        # a configured selector that never fired is a no-selection result
        if sel != "all" and not row["selector_applied"]:
            sel = "all"
        by_key[(row["dataset"], row["model"], row["embedder"], sel, row["with_text"])] = row

    headers = ["dataset"]
    for mo, emb, sel in conditions:
        headers.append(f"{mo}/{emb}/{sel}:text")
        headers.append(f"{mo}/{emb}/{sel}:no-text")
    table = [headers]
    for ds in datasets:
        line = [ds]
        for mo, emb, sel in conditions:
            pair = {wt: by_key.get((ds, mo, emb, sel, wt)) for wt in (True, False)}
            best = None
            if pair[True] and pair[False]:
                best = pair[True]["mean"] >= pair[False]["mean"]
            for wt in (True, False):
                row = pair[wt]
                if row is None:
                    line.append("--")
                    continue
                mark = "*" if best is not None and wt == best else ""
                line.append(_cell(row["mean"], row["std"]) + mark)
        table.append(line)

    widths = [max(len(line[i]) for line in table) for i in range(len(headers))]
    out = []
    for line in table:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())

    # best-embedding reduction, clearly tagged, never applied silently
    out.append("")
    out.append("[best-embedding reduction: max over embedders]")
    for ds in datasets:
        for mo in sorted({c[0] for c in conditions}):
            for wt in (True, False):
                cands = [
                    row
                    for row in rows
                    if row["dataset"] == ds and row["model"] == mo and row["with_text"] == wt
                ]
                if not cands:
                    continue
                best_row = max(cands, key=lambda row: row["mean"])
                label = "with-text" if wt else "no-text"
                out.append(
                    f"  {ds} {mo} {label}: {_cell(best_row['mean'], best_row['std'])}"
                    f" ({best_row['embedder']}/{best_row['selector']})"
                )
    return "\n".join(out) + "\n"


def format_results_text(results: list[EvalResult]) -> str:
    return format_rows_text(parse_results_csv(format_results_csv(results)))


def emit_report(results: list[EvalResult], out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "results.csv"
    txt_path = out / "results.txt"
    lock_path = out / "manifest-lock"
    csv_text = format_results_csv(results)
    csv_path.write_text(csv_text, encoding="utf-8")
    # rendered from the CSV, as `tabtext report` renders it
    txt_path.write_text(format_rows_text(parse_results_csv(csv_text)), encoding="utf-8")
    lock = {
        "results": [
            {
                "dataset": r.spec.dataset_name,
                "spec_hash": r.spec.spec_hash(r.csv_sha256),
                "seed": r.spec.seed,
                "metric": r.metric_name,
                "mean": r.mean,
            }
            for r in results
        ]
    }
    lock_path.write_text(json.dumps(lock, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"csv": csv_path, "txt": txt_path, "lock": lock_path}
