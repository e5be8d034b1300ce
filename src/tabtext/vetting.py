"""Dataset-curation analytics: inclusion-rule checks, schema-coverage math,
and prompt construction/parsing behind a mockable LLM client."""
from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import ColumnRole, FoldAssignment, MISSING, TabTextError, Table, TaskKind, k_fold_split
from .embed import TfIdf, assemble_features
from .evaluate import format_csv, metric_accuracy, metric_r2
from .models import Logistic, Ridge, fit


class EmptySchema(TabTextError):
    pass


class MalformedResponse(TabTextError):
    pass


# ---------------------------------------------------------------------------
# Inclusion-rule checks


@dataclass
class CurationCheck:
    rule: str
    verdict: str  # pass | fail | manual
    detail: str


def _single_column_score(table: Table, col_name: str, fold: FoldAssignment) -> float:
    """Cross-checked score of a one-column model (text columns get embedded)
    on fold 0 of `fold`, a split of the whole table."""
    sub = Table(
        table.name,
        [table.column(col_name), table.target_column],
        table.target,
        table.task,
    )
    model_kind = Ridge() if table.task is TaskKind.REGRESSION else Logistic(max_iter=200)
    train_fm, test_fm = assemble_features(sub, TfIdf(1, 1, 2000), True, fold, 0)
    model = fit(model_kind, train_fm.X, train_fm.y, table.task)
    preds = model.predict(test_fm.X)
    if table.task is TaskKind.REGRESSION:
        return metric_r2(test_fm.y, preds)
    return metric_accuracy(test_fm.y, preds)


def _chance_level(table: Table) -> float:
    if table.task is TaskKind.REGRESSION:
        return 0.0
    y = table.target_column.values
    top = max(y.count(v) for v in set(y))
    return top / len(y)


# how far both best single-column scores must clear chance for DualSignalProxy
DUAL_SIGNAL_MARGIN = 0.02


def run_curation_checks(table: Table, seed: int = 0) -> list[CurationCheck]:
    checks = []
    text_cols = [c.name for c in table.feature_columns if c.role is ColumnRole.TEXTUAL]
    checks.append(
        CurationCheck(
            "HasFreeText",
            "pass" if text_cols else "fail",
            f"text columns: {', '.join(text_cols) if text_cols else 'none'}",
        )
    )
    target_ok = table.target in table.column_names
    distinct = len(set(table.target_column.values))
    task_ok = (
        (table.task is TaskKind.REGRESSION and distinct > 1)
        or (table.task is TaskKind.BINARY and distinct == 2)
        or (table.task is TaskKind.MULTICLASS and distinct >= 3)
    )
    checks.append(
        CurationCheck(
            "PredictiveTask",
            "pass" if target_ok and task_ok else "fail",
            f"task={table.task.value}, target={table.target!r}, {distinct} distinct values",
        )
    )

    chance = _chance_level(table)
    non_text = [
        c.name
        for c in table.feature_columns
        if c.role in (ColumnRole.NUMERICAL, ColumnRole.CATEGORICAL)
    ]
    detail = "heuristic: single-column models vs chance"
    verdict = "fail"
    if text_cols and non_text:
        # the split reads only the target, so every one-column table shares it
        fold = k_fold_split(table, 5, seed)
        best_text = max(_single_column_score(table, c, fold) for c in text_cols)
        best_other = max(_single_column_score(table, c, fold) for c in non_text)
        bar = chance + DUAL_SIGNAL_MARGIN
        verdict = "pass" if best_text > bar and best_other > bar else "fail"
        detail += (
            f"; best text={best_text:.3f}, best non-text={best_other:.3f},"
            f" chance={chance:.3f}"
        )
    else:
        detail += "; needs at least one text and one non-text column"
    checks.append(CurationCheck("DualSignalProxy", verdict, detail))

    checks.append(CurationCheck("Accessible", "manual", "requires human review of the source"))
    checks.append(
        CurationCheck("DomainDiversity", "manual", "requires human review across the corpus")
    )
    return checks


# ---------------------------------------------------------------------------
# Directional schema coverage


@dataclass
class FeatureMatchReport:
    dataset_a: str
    dataset_b: str
    similar_pairs: list[tuple[str, str, str]] = field(default_factory=list)
    dissimilar_a: list[str] = field(default_factory=list)
    dissimilar_b: list[str] = field(default_factory=list)


def directional_coverage(report: FeatureMatchReport) -> tuple[float, float]:
    """(a_to_b, b_to_a): matched features over the source schema size."""
    n_sim = len(report.similar_pairs)
    denom_a = n_sim + len(report.dissimilar_a)
    denom_b = n_sim + len(report.dissimilar_b)
    if denom_a == 0 or denom_b == 0:
        raise EmptySchema("no features on one side of the comparison")
    return n_sim / denom_a, n_sim / denom_b


@dataclass
class CoverageMatrix:
    names: list[str]
    coverage: np.ndarray  # n x n, nan diagonal
    binary: np.ndarray  # n x n int, diagonal untouched (-1)


COVERAGE_THRESHOLD = 0.5  # a directed coverage at or above it binarizes to 1


def binarize(matrix: CoverageMatrix) -> CoverageMatrix:
    binary = np.full(matrix.coverage.shape, -1, dtype=int)
    n = len(matrix.names)
    for i in range(n):
        for j in range(n):
            if i != j and not np.isnan(matrix.coverage[i, j]):
                binary[i, j] = int(matrix.coverage[i, j] >= COVERAGE_THRESHOLD)
    return CoverageMatrix(matrix.names, matrix.coverage, binary)


def export_coverage(matrix: CoverageMatrix, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def render(values, fmt):
        rows = [["", *matrix.names]]
        for i, name in enumerate(matrix.names):
            cells = [fmt(values[i, j]) if i != j else "" for j in range(len(matrix.names))]
            rows.append([name, *cells])
        return format_csv(rows)

    cont = out / "coverage.csv"
    binf = out / "coverage_binary.csv"
    cont.write_text(
        render(matrix.coverage, lambda v: "" if np.isnan(v) else f"{v:.3f}"), encoding="utf-8"
    )
    binf.write_text(render(matrix.binary, lambda v: str(int(v))), encoding="utf-8")
    return {"coverage": cont, "binary": binf}


# ---------------------------------------------------------------------------
# Prompt construction and response parsing


_FORMAT_TEMPLATE = """{
    "similar_features": [
        {
            "dataset1_col_name": {"<column>": "<example value>"},
            "dataset2_col_name": {"<column>": "<example value>"},
            "reason": "<why these columns align>"
        }
    ],
    "dissimilar_features": {
        "dataset1": [{"col_name": "<column>"}],
        "dataset2": [{"col_name": "<column>"}]
    }
}"""

SIMILARITY_PROMPT_TEMPLATE = """
    Analyze and compare the feature space of two datasets: {dataset1_name} and {dataset2_name}.
    Identify relationships between feature names using semantic reasoning.

    **Your Task:**
    1. **Find Similar Features**: Identify columns that represent the same concept, even if their names differ.
       - Match based on **data type, structure, and naming conventions**, rather than relying solely on example values.
       - Consider cases where **one feature in a dataset maps to multiple features** in the other dataset.
       - Note: When a column represents an inherent property of the entity (such as its name, title, or composition/build/materials), treat it as similar across datasets unless context clearly indicates a different meaning.

    2. **Identify Dissimilar Features**: Columns that do not have a meaningful equivalent in the other dataset.
       - Consider **data type mismatches** (e.g., numeric vs. categorical).
       - Features that belong to completely different contexts should be classified as dissimilar.
       - For instance, even if the same term (e.g., "location") is used in both datasets, they should only be considered similar if their contexts align.

    ### Additional Guidelines:
    - **Return column names, with original example values.** Do not assume or generate example values.
    - Consider **semantic similarity** beyond direct string matching.
    - Account for **differences in feature naming conventions** (e.g., "price" vs. "cost", "region" vs. "province").
    - **Preserve structured output strictly in JSON format** - avoid any additional text or explanations.
    - Make sure you always return a pair of features for the "similar_features" section.

    ### Expected Output:
    {format_template}

    ### Dataset 1: {dataset1_name}
    {dataset1_values}

    ### Dataset 2: {dataset2_name}
    {dataset2_values}
"""

SCHEMA_SAMPLE_ROWS = 3  # example rows shown to the LLM per table


def schema_sample(table: Table) -> str:
    n = min(SCHEMA_SAMPLE_ROWS, table.n_rows)
    lines = []
    for col in table.columns:
        vals = ["<missing>" if col.values[i] is MISSING else str(col.values[i]) for i in range(n)]
        lines.append(f"{col.name}: [{', '.join(vals)}]")
    return "\n".join(lines)


def build_similarity_prompt(a: Table, b: Table) -> str:
    return SIMILARITY_PROMPT_TEMPLATE.format(
        dataset1_name=a.name,
        dataset2_name=b.name,
        format_template=_FORMAT_TEMPLATE,
        dataset1_values=schema_sample(a),
        dataset2_values=schema_sample(b),
    )


def _extract_json(raw: str) -> dict:
    text = raw.strip()
    fence = re.search(r"```(?:json)?\s*(.*?)```", text, re.DOTALL)
    if fence:
        text = fence.group(1).strip()
    start = text.find("{")
    if start < 0:
        raise MalformedResponse("no JSON object in response")
    decoder = json.JSONDecoder()
    try:
        obj, _ = decoder.raw_decode(text[start:])
    except json.JSONDecodeError as exc:
        raise MalformedResponse(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MalformedResponse("response JSON is not an object")
    return obj


def _col_name(entry) -> str:
    """A column name: the entry itself, or an object's "col_name" (the first
    key or item of a non-string one) or, without one, its first key."""
    name = entry
    if isinstance(name, dict):
        name = name.get("col_name", next(iter(name), None))
        if isinstance(name, (dict, list)):
            name = next(iter(name), None)
    if not isinstance(name, str):
        raise MalformedResponse(f"cannot read a column name from {entry!r}")
    return name


def parse_match_response(raw: str, dataset_a: str = "", dataset_b: str = "") -> FeatureMatchReport:
    """Tolerant parse of a similarity response: code fences and leading prose
    are stripped, unknown keys ignored."""
    obj = _extract_json(raw)
    if "similar_features" not in obj:
        # responses may wrap the payload in a single "<a> vs <b>" key
        wrapped = [v for v in obj.values() if isinstance(v, dict) and "similar_features" in v]
        if len(wrapped) != 1:
            raise MalformedResponse("no similar_features section found")
        obj = wrapped[0]
    report = FeatureMatchReport(dataset_a, dataset_b)
    similar = obj.get("similar_features", [])
    if not isinstance(similar, list):
        raise MalformedResponse("similar_features must be a list")
    for item in similar:
        if not isinstance(item, dict):
            raise MalformedResponse("similar_features entries must be objects")
        report.similar_pairs.append(
            (
                _col_name(item.get("dataset1_col_name")),
                _col_name(item.get("dataset2_col_name")),
                str(item.get("reason", "")),
            )
        )
    dissimilar = obj.get("dissimilar_features", {})
    if not isinstance(dissimilar, dict):
        raise MalformedResponse("dissimilar_features must be an object")
    sides = [dissimilar.get("dataset1", []), dissimilar.get("dataset2", [])]
    if not all(isinstance(side, list) for side in sides):
        raise MalformedResponse("dissimilar_features entries must be lists")
    report.dissimilar_a, report.dissimilar_b = ([_col_name(e) for e in s] for s in sides)
    return report


# ---------------------------------------------------------------------------
# LLM clients


class ReplayLlmClient:
    """Canned responses from a fixture directory; the default client, used by
    every test. Fixtures are plain text files looked up by key."""

    def __init__(self, fixture_dir: str | Path):
        self.fixture_dir = Path(fixture_dir)

    def complete(self, prompt: str, key: str) -> str:
        path = self.fixture_dir / f"{key}.txt"
        if not path.exists():
            raise FileNotFoundError(f"no canned response for key {key!r} in {self.fixture_dir}")
        return path.read_text(encoding="utf-8")


LLM_API_KEY_ENV = "LLM_API_KEY"  # the live client's key, never read from config files
LLM_TIMEOUT_S = 120.0


class HttpChatLlmClient:
    """Minimal chat-completion client: POSTs a single user message to a
    configurable endpoint, reads choices[0].message.content. The API key
    comes from the LLM_API_KEY_ENV environment variable."""

    def __init__(self, endpoint: str, model: str):
        self.endpoint = endpoint
        self.model = model

    def complete(self, prompt: str, key: str | None = None) -> str:
        # imported on first use: with http.client and email it would be a
        # large share of `import tabtext.cli`, which every command pays
        import urllib.request

        api_key = os.environ.get(LLM_API_KEY_ENV, "")
        payload = json.dumps(
            {"model": self.model, "messages": [{"role": "user", "content": prompt}]}
        ).encode("utf-8")
        req = urllib.request.Request(
            self.endpoint,
            data=payload,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {api_key}",
            },
        )
        with urllib.request.urlopen(req, timeout=LLM_TIMEOUT_S) as resp:
            body = json.loads(resp.read().decode("utf-8"))
        return body["choices"][0]["message"]["content"]


def pair_key(a: str, b: str) -> str:
    return f"{a}__vs__{b}"


def pair_similarity(a: Table, b: Table, client) -> FeatureMatchReport:
    raw = client.complete(build_similarity_prompt(a, b), key=pair_key(a.name, b.name))
    return parse_match_response(raw, a.name, b.name)


def coverage_matrix(tables: list[Table], client) -> CoverageMatrix:
    n = len(tables)
    names = [t.name for t in tables]
    coverage = np.full((n, n), np.nan)
    for i in range(n):
        for j in range(i + 1, n):
            report = pair_similarity(tables[i], tables[j], client)
            a_to_b, b_to_a = directional_coverage(report)
            coverage[i, j] = a_to_b
            coverage[j, i] = b_to_a
    matrix = CoverageMatrix(names, coverage, np.full((n, n), -1, dtype=int))
    return binarize(matrix)


def default_fixture_dir() -> Path:
    return Path(__file__).parent / "data" / "fixtures"
