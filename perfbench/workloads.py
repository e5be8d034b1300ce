"""Seeded input generators and runners for the four benchmark workloads.

Each generator takes the workload seed and nothing else; the program only
ever sees what it returns. Each runner calls the program's public functions
through their module attributes (``evaluate.run_experiment``,
``cli.main``, ...), so the traced run's wrappers see every call, and times
each unit of work a user waits for: one grid cell, one CLI command, or one
break-suite base table.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tabtext import breaklab, cli, evaluate, vetting
from tabtext.core import Column, ColumnRole, Table, TaskKind
from tabtext.embed import HashedNgram, TfIdf, WordVecAvg
from tabtext.evaluate import ExperimentSpec
from tabtext.ingest import DatasetManifest
from tabtext.models import Gbdt, Logistic, Ridge

_ONSETS = "b d f g k l m n p r s t v z".split()
_VOWELS = "a e i o u".split()


def word_pool(n: int, offset: int = 0) -> list[str]:
    """n distinct pseudo-words (consonant-vowel-consonant-vowel), fixed and
    independent of any seed and of the program's own word lists."""
    words = []
    i = offset
    while len(words) < n:
        a, b, c, d = (
            i % 14,
            (i // 14) % 5,
            (i // 70) % 14,
            (i // 980) % 5,
        )
        words.append(_ONSETS[a] + _VOWELS[b] + _ONSETS[c] + _VOWELS[d] + "x")
        i += 1
    return words


# ---------------------------------------------------------------------------
# Generators


def grid_ridge_table(seed: int, n: int = 3500) -> Table:
    """Criterion-6-style regression table: y = 3x + noise, plus a 3-word
    text column drawn from a 120-word pool that carries no signal."""
    rng = np.random.default_rng([seed, 0x61])
    pool = word_pool(120)
    x = rng.standard_normal(n)
    picks = rng.integers(0, len(pool), size=(n, 3))
    text = [" ".join(pool[j] for j in row) for row in picks]
    y = 3.0 * x + 0.1 * rng.standard_normal(n)
    return Table(
        "grid-ridge",
        [
            Column("x", ColumnRole.NUMERICAL, [float(v) for v in x]),
            Column("txt", ColumnRole.TEXTUAL, text),
            Column("y", None, [float(v) for v in y]),
        ],
        "y",
        TaskKind.REGRESSION,
    ).validate()


CLS_LABELS = ["amber", "cobalt", "scarlet"]
CLS_CUES = ["sunny", "rainy", "windy"]


def cls_boost_table(seed: int, n: int = 1000) -> Table:
    """3-class table: four numeric columns (n0 weakly label-shifted), a
    4-level categorical, and a 9-word text holding one label cue (right
    three times in four) among 8 filler words."""
    rng = np.random.default_rng([seed, 0x62])
    fillers = word_pool(60, offset=200)
    label_idx = rng.integers(0, 3, n)
    nums = rng.standard_normal((4, n))
    nums[0] += 0.3 * label_idx
    levels = np.array(["low", "mid", "high", "top"])
    grade = levels[rng.integers(0, 4, n)]
    cue_ok = rng.random(n) < 0.75
    cue_other = rng.integers(0, 3, n)
    filler_idx = rng.integers(0, len(fillers), size=(n, 8))
    positions = rng.integers(0, 9, n)
    texts = []
    for i in range(n):
        words = [fillers[j] for j in filler_idx[i]]
        cue = CLS_CUES[label_idx[i] if cue_ok[i] else cue_other[i]]
        words.insert(int(positions[i]), cue)
        texts.append(" ".join(words))
    cols = [Column(f"n{k}", ColumnRole.NUMERICAL, [float(v) for v in nums[k]]) for k in range(4)]
    cols.append(Column("grade", ColumnRole.CATEGORICAL, [str(v) for v in grade]))
    cols.append(Column("note", ColumnRole.TEXTUAL, texts))
    cols.append(Column("label", None, [CLS_LABELS[i] for i in label_idx]))
    return Table("cls-boost", cols, "label", TaskKind.MULTICLASS).validate()


INGEST_HEADER = [
    "Unnamed: 0", "style", "abv", "price", "brewed_at",
    "review", "source", "notes", "rating",
]
INGEST_STYLES = [
    "pale ale", "stout", "porter", "pilsner", "lager", "saison",
    "wheat", "sour", "bock", "amber", "ipa", "barleywine",
]


INGEST_LINES = 20_000


@dataclass
class IngestInput:
    rows: list[list[str]]
    expected_report: dict


def ingest_rows(seed: int, n_lines: int = INGEST_LINES, dup_share: float = 0.02) -> IngestInput:
    """A raw CSV body that trips every cleaning rule, and the
    PreprocessReport the cleaning pass must produce for it.

    Rules tripped: an 'Unnamed: 0' index, a constant column ('source'), a
    >50%-missing column ('notes'), ''/'NaN' missing markers, missing
    targets, exact duplicate lines, affix numbers ('ABV 5.2%', '$1,200') and
    ISO timestamps. 'style' is categorical, 'review' free text, 'rating' the
    numeric target.
    """
    rng = np.random.default_rng([seed, 0x63])
    n_dup = int(round(n_lines * dup_share))
    n_unique = n_lines - n_dup
    words = word_pool(300, offset=400)
    style_idx = rng.integers(0, len(INGEST_STYLES), n_unique)
    abv = np.round(rng.uniform(3.0, 12.0, n_unique), 1)
    price = rng.integers(200, 20000, n_unique)
    stamp = 1_500_000_000 + rng.integers(0, 200_000_000, n_unique)
    review_len = rng.integers(6, 13, n_unique)
    review_words = rng.integers(0, len(words), size=(n_unique, 12))
    abv_missing = rng.random(n_unique) < 0.03
    price_missing = rng.random(n_unique) < 0.02
    notes_present = rng.random(n_unique) < 0.35
    target_missing = rng.random(n_unique) < 0.005
    rating = (
        1.0 + 0.3 * abv + 0.1 * style_idx + 0.5 * (review_words[:, 0] % 2)
        + rng.standard_normal(n_unique) * 0.3
    )
    rows = []
    for i in range(n_unique):
        ts = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(int(stamp[i])))
        rows.append([
            str(i),
            INGEST_STYLES[style_idx[i]],
            ("NaN" if i % 2 else "") if abv_missing[i] else f"ABV {abv[i]:.1f}%",
            "" if price_missing[i] else f"${int(price[i]):,}",
            ts,
            " ".join(words[j] for j in review_words[i, : review_len[i]]),
            "web",
            words[int(review_words[i, 1])] if notes_present[i] else "",
            ("NaN" if i % 2 else "") if target_missing[i] else f"{rating[i]:.3f}",
        ])
    # exact duplicate lines, each placed after its original
    originals = np.sort(rng.choice(n_unique, size=n_dup, replace=False))
    dup_at = set(int(i) for i in originals)
    lines = []
    for i, row in enumerate(rows):
        lines.append(row)
        if i in dup_at:
            lines.append(list(row))
    missing_targets = int(target_missing.sum())
    expected = {
        "dataset": "brewlog",
        "n_rows": n_unique - missing_targets,
        "target": "rating",
        "dropped_columns": [
            {"name": "notes", "reason": "missing>50%"},
            {"name": "source", "reason": "constant"},
            {"name": "Unnamed: 0", "reason": "unnamed"},
        ],
        "dropped_rows": {"row-cap": 0, "duplicate": n_dup, "missing-target": missing_targets},
        "role_assignments": {
            "style": "categorical",
            "abv": "numerical",
            "price": "numerical",
            "brewed_at": "numerical",
            "review": "textual",
        },
    }
    return IngestInput(lines, expected)


def write_ingest_inputs(seed: int, directory: Path, n_lines: int = INGEST_LINES) -> dict:
    """Write the raw CSV, its manifest, the eval config and the two vetting
    tables with their manifests into directory; return the expected
    PreprocessReport of the raw CSV."""
    data = ingest_rows(seed, n_lines)
    with (directory / "brewlog.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(INGEST_HEADER)
        writer.writerows(data.rows)
    _write_manifest(directory, "brewlog", "rating")
    config = {
        "manifests": ["brewlog.json"],
        "embedders": [{"kind": "hashed", "buckets": 64}],
        "models": [{"kind": "ridge"}],
        "with_text": [True, False],
        "row_cap": 2000,
        "seed": seed,
    }
    (directory / "eval.json").write_text(json.dumps(config, indent=2) + "\n")
    for table in vet_pair_tables(seed):
        with (directory / f"{table.name}.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(table.column_names)
            writer.writerows(zip(*(c.values for c in table.columns)))
        _write_manifest(directory, table.name, table.target)
    return data.expected_report


def _write_manifest(directory: Path, name: str, target: str) -> None:
    manifest = {
        "name": name,
        "csv_path": f"{name}.csv",
        "target_column": target,
        "task": "regression",
    }
    (directory / f"{name}.json").write_text(json.dumps(manifest, indent=2) + "\n")


def break_tables(seed: int) -> list[Table]:
    """Six break-suite base tables with distinct seeds."""
    return [
        breaklab.make_break_table(seed=6 * seed + i, name=f"break-{i}") for i in range(6)
    ]


VET_SCHEMAS = {
    "bikedekho": ["bike_name", "price", "year", "city", "fuel", "brand",
                  "engine_cc", "kms_driven", "owner_count"],
    "cars_24": ["car_name", "listed_price", "make_year", "location", "fuel_type",
                "make", "engine_capacity", "insurance_validity"],
}


def vet_pair_tables(seed: int, n: int = 20) -> list[Table]:
    """Two listing tables whose schemas match the bundled coverage fixture."""
    rng = np.random.default_rng([seed, 0x64])
    tables = []
    for name, names in VET_SCHEMAS.items():
        cols = [
            Column(c, ColumnRole.CATEGORICAL, [f"{c}-{int(v)}" for v in rng.integers(0, 5, n)])
            for c in names[1:]
        ]
        cols.insert(0, Column(names[0], ColumnRole.TEXTUAL, [f"model {i}" for i in range(n)]))
        cols.append(Column("target", None, [float(v) for v in rng.standard_normal(n)]))
        tables.append(Table(name, cols, "target", TaskKind.REGRESSION))
    return tables


# ---------------------------------------------------------------------------
# Runners


@dataclass
class Outcome:
    """What one workload run produced: per-unit wall times, failures, the
    scores checked against the references, and failed correctness checks."""

    unit_s: list[float] = field(default_factory=list)
    unit_failures: list[str] = field(default_factory=list)
    scores: dict[str, float] = field(default_factory=dict)
    check_failures: list[str] = field(default_factory=list)
    checks: int = 0

    @contextlib.contextmanager
    def unit(self, label: str):
        t0 = time.perf_counter()
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - a failing unit is counted, not fatal
            self.unit_failures.append(f"{label}: {type(exc).__name__}: {exc}")
        finally:
            self.unit_s.append(time.perf_counter() - t0)

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.check_failures.append(message)


def _cell_key(i: int, result) -> str:
    spec = result.spec
    text = "text" if spec.with_text else "no-text"
    return f"{i:02d}:{spec.model.tag}/{spec.embedder.tag}/{spec.selector or 'all'}/{text}"


def _run_cells(specs, table: Table, out: Path, outcome: Outcome) -> None:
    results = []
    for i, spec in enumerate(specs):
        with outcome.unit(f"cell {i}"):
            results.append((i, evaluate.run_experiment(spec, table)))
    for i, result in results:
        for f, score in enumerate(result.per_fold):
            outcome.scores[f"{_cell_key(i, result)}/fold{f}"] = score
    evaluate.emit_report([r for _, r in results], out)


@dataclass
class Prepared:
    """A workload's generated inputs, ready to run."""

    name: str
    seed: int
    tables: list[Table] = field(default_factory=list)
    expected_report: dict | None = None


def prepare(name: str, seed: int, directory: Path) -> Prepared:
    """Generate a workload's inputs (tables in memory, files in directory)."""
    if name == "grid-ridge":
        return Prepared(name, seed, [grid_ridge_table(seed)])
    if name == "cls-boost":
        return Prepared(name, seed, [cls_boost_table(seed)])
    if name == "ingest-cli":
        return Prepared(name, seed, expected_report=write_ingest_inputs(seed, directory))
    if name == "break-vet":
        return Prepared(name, seed, break_tables(seed) + vet_pair_tables(seed))
    raise ValueError(f"unknown workload: {name!r}")


def run_grid_ridge(p: Prepared, out: Path, outcome: Outcome) -> None:
    (table,) = p.tables
    manifest = DatasetManifest(table.name, "unused.csv", table.target, table.task)
    specs = [
        ExperimentSpec(manifest, embedder, selector, Ridge(), with_text,
                       feature_cap=300, row_cap=3000, seed=p.seed)
        for embedder in (TfIdf(), HashedNgram())
        for selector in ("variance", None)
        for with_text in (True, False)
    ]
    _run_cells(specs, table, out, outcome)
    # y = 3x + small noise: every cell, text or not, must fit it
    low = {k: v for k, v in outcome.scores.items() if not v > 0.99}
    outcome.check(not low, f"grid-ridge folds with r2 <= 0.99: {low}")


def run_cls_boost(p: Prepared, out: Path, outcome: Outcome) -> None:
    (table,) = p.tables
    manifest = DatasetManifest(table.name, "unused.csv", table.target, table.task)
    specs = [
        ExperimentSpec(manifest, HashedNgram(buckets=64), None, Gbdt(4, 0.3, 30), wt,
                       feature_cap=300, seed=p.seed)
        for wt in (True, False)
    ] + [
        # every fold runs the solver to its cap, so the cell's work does not
        # depend on how soon the seed's data would let it converge
        ExperimentSpec(manifest, HashedNgram(), "shap", Logistic(max_iter=300), wt,
                       feature_cap=300, seed=p.seed)
        for wt in (True, False)
    ]
    _run_cells(specs, table, out, outcome)
    # the label cue is right 3 times in 4; numeric signal alone is near chance
    low = {k: v for k, v in outcome.scores.items() if "/text/" in k and not v > 0.6}
    outcome.check(not low, f"cls-boost text folds at or below 0.6 accuracy: {low}")


def _results_scores(text: str) -> dict[str, float]:
    """Fold scores from a results.csv, keyed like the in-process grids."""
    scores = {}
    lines = text.splitlines()
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        text_key = "text" if parts[6] == "true" else "no-text"
        key = f"{i:02d}:{parts[3]}/{parts[4]}/{parts[5]}/{text_key}"
        for f, v in enumerate(parts[10].split("|")):
            scores[f"{key}/fold{f}"] = float(v)
    return scores


def _break_cells(text: str) -> dict[str, float]:
    """Break-matrix cells from a break_matrix.csv, keyed like break-vet's;
    the per-scenario Average rows are left out."""
    lines = text.splitlines()
    embedders = lines[0].split(",")[2:]
    cells = {}
    for line in lines[1:]:
        scenario, table, *values = line.split(",")
        if table != "Average":
            for embedder, v in zip(embedders, values):
                cells[f"break/{scenario}/{table}/{embedder}"] = float(v)
    return cells


def _coverage_values(text: str) -> dict[str, float]:
    """The two directed coverages from the vet command's coverage.csv."""
    rows = [line.split(",") for line in text.splitlines()]
    names = rows[0][1:]
    return {
        f"coverage/{row[0]}->{names[j]}": float(v)
        for row in rows[1:]
        for j, v in enumerate(row[1:])
        if v
    }


def run_ingest_cli(p: Prepared, out: Path, outcome: Outcome) -> None:
    """Every CLI command once: ingest, eval and report on the generated CSV,
    the default break suite, then vet on the CSV and the two listing tables.
    The caller runs them with the inputs' directory as working directory and
    a relative `out`, so every path the program prints is the same in every
    run."""
    seed = ["--seed", str(p.seed)]
    commands = [
        ("ingest", ["--out", str(out / "ingest"), "ingest", "brewlog.json"]),
        ("eval", ["--out", str(out / "run"), "eval", "eval.json"]),
        ("report", ["--out", str(out / "report"), "report", str(out / "run" / "results.csv")]),
        ("break", seed + ["--out", str(out / "break"), "break"]),
        ("vet", seed + ["--out", str(out / "vet"), "vet", "brewlog.json", "bikedekho.json",
                        "cars_24.json", "--pair", "bikedekho", "cars_24"]),
    ]
    for label, argv in commands:
        buf, err = io.StringIO(), io.StringIO()
        code = None
        with outcome.unit(label), contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code not in (0, None):  # None: it raised, already counted by unit()
            outcome.unit_failures.append(f"{label}: exit {code}: {err.getvalue()[-300:]}")
        (out / f"{label}.stdout").write_text(buf.getvalue())
    report_path = out / "ingest" / "brewlog.report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    outcome.check(
        report == p.expected_report,
        f"PreprocessReport differs from the generated file's: {report} != {p.expected_report}",
    )
    results_path = out / "run" / "results.csv"
    if results_path.exists():
        outcome.scores.update(_results_scores(results_path.read_text()))
    # rating is mostly abv and style, which survive cleaning as numbers
    low = {k: v for k, v in outcome.scores.items() if not v > 0.5}
    outcome.check(len(outcome.scores) == 10 and not low,
                  f"ingest-cli eval: expected 10 folds with r2 > 0.5, low: {low}")
    matrix_path = out / "break" / "break_matrix.csv"
    if matrix_path.exists():
        cells = _break_cells(matrix_path.read_text())
        outcome.scores.update(cells)
        leak = {k: v for k, v in cells.items() if "/complete_leak/" in k}
        outcome.check(len(leak) == 3 and set(leak.values()) == {100.0},
                      f"complete-leak cells below 100: {leak}")
    coverage_path = out / "vet" / "coverage.csv"
    coverage = _coverage_values(coverage_path.read_text()) if coverage_path.exists() else {}
    outcome.scores.update(coverage)
    expected = {k: round(v, 3) for k, v in FIXTURE_COVERAGE.items()}  # printed to 3 places
    outcome.check(coverage == expected, f"coverage {coverage} != {expected}")


BREAK_MODEL = Gbdt(4, 0.3, 30)
# the bundled fixture matches 7 column pairs and leaves 2 bikedekho and
# 1 cars_24 columns unmatched
FIXTURE_COVERAGE = {
    "coverage/bikedekho->cars_24": 7 / 9,
    "coverage/cars_24->bikedekho": 7 / 8,
}


def run_break_vet(p: Prepared, out: Path, outcome: Outcome) -> None:
    """The `tabtext break` default suite, called once per base table (each
    table's cells depend on that table alone) so each is a timed unit; then
    curation checks on noise-injected tables and one coverage matrix."""
    bases, pair = p.tables[:6], p.tables[6:]
    embedders = [TfIdf(), WordVecAvg(str(breaklab.toy_vector_file())), HashedNgram()]
    merged = None
    for base in bases:
        with outcome.unit(f"break {base.name}"):
            matrix = breaklab.run_break_suite([base], embedders, BREAK_MODEL, p.seed)
            if merged is None:
                merged = matrix
            else:
                merged.tables.extend(matrix.tables)
                merged.values.update(matrix.values)
    if merged is not None:
        (out / "break_matrix.csv").write_text(merged.to_csv())
        (out / "break_matrix.txt").write_text(merged.to_text())
        for (scenario, table, embedder), v in merged.values.items():
            outcome.scores[f"break/{scenario}/{table}/{embedder}"] = v
        leak = {k: v for k, v in merged.values.items() if k[0] == "complete_leak"}
        outcome.check(
            len(leak) == 18 and set(leak.values()) == {100.0},
            f"complete-leak cells below 100: {leak}",
        )

    all_checks = {}
    for base in bases:
        noisy = breaklab.inject(base, breaklab.NoiseDilution(), "train", p.seed)
        checks = vetting.run_curation_checks(noisy, seed=p.seed)
        all_checks[base.name] = [[c.rule, c.verdict, c.detail] for c in checks]
    (out / "checks.json").write_text(json.dumps(all_checks, indent=1) + "\n")

    client = vetting.ReplayLlmClient(vetting.default_fixture_dir())
    coverage = vetting.coverage_matrix(pair, client)
    vetting.export_coverage(coverage, out)
    values = {
        "coverage/bikedekho->cars_24": float(coverage.coverage[0, 1]),
        "coverage/cars_24->bikedekho": float(coverage.coverage[1, 0]),
    }
    outcome.scores.update(values)
    outcome.check(values == FIXTURE_COVERAGE, f"coverage {values} != {FIXTURE_COVERAGE}")


RUNNERS = {
    "grid-ridge": run_grid_ridge,
    "cls-boost": run_cls_boost,
    "ingest-cli": run_ingest_cli,
    "break-vet": run_break_vet,
}
