"""Span recording for the traced benchmark run.

The traced run wraps the program's public callables at every name the
program looks them up by, records one span per call (name, start, end,
parent span) in memory, and derives the per-layer metrics from the spans
and from counts taken at the same boundaries. Untraced runs do not import
this module and install no wrappers.
"""
from __future__ import annotations

import functools
import hashlib
import json
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tabtext import breaklab, cli, embed, evaluate, ingest, models, select, vetting


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; one tracer per workload run."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, after=None):
        """Return fn wrapped in a span. `name` is a string or a function of
        the call's positional arguments; `after(span, args, result)` runs once
        the span has closed, with result None when the call raised."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(tracer.spans), label, parent, tracer.clock())
            tracer.spans.append(span)
            tracer._stack.append(span.id)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
                if after is not None:
                    after(span, args, result)

        return traced

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": s.id, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "error": s.error,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[s.id] = s.duration - covered
    return out


def busy_time(spans: list[Span], name: str) -> float:
    """Summed duration of the spans called `name`, counting a span nested
    inside another span of the same name only once."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and by_id[p].name != name:
            p = by_id[p].parent
        if p is None:
            total += s.duration
    return total


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += own[s.id]
    return dict(totals)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class LayerProbe:
    """Installs the traced run's wrappers and keeps the counts taken at the
    same boundaries: rows loaded, distinct fold feature sets, the largest
    assembled train matrix, rows predicted, booster trees."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.rows_loaded = 0
        self.feature_sets: set = set()
        self.largest_bytes = 0
        self.largest_density = 0.0
        self.test_rows_predicted = 0
        self.rows_predicted = 0
        self.gbdt_trees = 0
        self._roles: dict[int, tuple[weakref.ref, str]] = {}
        self._table_keys: dict[int, tuple[weakref.ref, str]] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, name, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.tracer.wrap(original, name, after))
        self._undo.append((owner, attr, original))

    def install(self) -> None:
        p = self._patch
        p(ingest, "load_csv", "ingest.load_csv", self._after_load)
        p(ingest, "general_preprocess", "ingest.preprocess")
        p(cli, "write_table_cache", "ingest.cache_write")
        for mod in (evaluate, breaklab):
            p(mod, "subsample_rows", "core.split")
        for mod in (evaluate, breaklab, vetting):
            p(mod, "k_fold_split", "core.split")
            p(mod, "assemble_features", "embed.assemble", self._after_assemble)
            p(mod, "fit", lambda a: f"models.fit.{a[0].tag}", self._after_fit)
        for cls in (embed.TfIdf, embed.HashedNgram, embed.WordVecAvg, embed.TopicFactorization):
            p(cls, "fit", "embed.fit")
        for cls in (embed.TfIdfModel, embed.HashedNgram, embed.WordVecModel, embed.TopicModel):
            p(cls, "transform", "embed.transform")
        p(select, "run_selector", "select.run")
        p(select, "apply_selection", "select.apply", self._after_apply)
        p(models.FittedModel, "predict", "models.predict", self._after_predict)
        p(models.FittedModel, "predict_proba", "models.predict", self._after_predict)
        for mod in (evaluate, cli):
            p(mod, "run_experiment", "evaluate.run_experiment", self._after_cell)
            p(mod, "emit_report", "evaluate.report")
        p(cli, "format_rows_text", "evaluate.report")
        for mod in (evaluate, breaklab, vetting):
            p(mod, "metric_accuracy", "evaluate.metric")
        for mod in (evaluate, vetting):
            p(mod, "metric_r2", "evaluate.metric")
        p(breaklab, "inject", "breaklab.inject")
        p(breaklab, "run_break_suite", "breaklab.suite")
        p(vetting, "run_curation_checks", "vetting.checks")
        p(vetting, "coverage_matrix", "vetting.coverage")
        p(cli, "main", lambda a: f"cli.{_command_of(a[0] if a else None)}", self._after_cli)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- counts at the boundaries -----------------------------------------------

    def _after_load(self, span, args, table):
        if table is not None:
            self.rows_loaded += table.n_rows

    def _table_key(self, table) -> str:
        cached = self._table_keys.get(id(table))
        if cached is not None and cached[0]() is table:
            return cached[1]
        h = hashlib.sha1(repr((table.name, table.target)).encode())
        for c in table.columns:
            h.update(repr((c.name, c.role, c.values)).encode())
        key = h.hexdigest()
        self._table_keys[id(table)] = (weakref.ref(table), key)
        return key

    def _set_role(self, X, role: str) -> None:
        self._roles[id(X)] = (weakref.ref(X), role)

    def _role(self, X) -> str | None:
        entry = self._roles.get(id(X))
        return entry[1] if entry is not None and entry[0]() is X else None

    def _after_assemble(self, span, args, result):
        table, embedder, with_text, fold, test_fold = args[:5]
        self.feature_sets.add((
            self._table_key(table),
            repr(embedder) if with_text else None,
            bool(with_text),
            tuple(fold.fold_of_row),
            test_fold,
        ))
        if result is None:
            return
        train, test = result
        self._set_role(train.X, "train")
        self._set_role(test.X, "test")
        if train.X.nbytes > self.largest_bytes:
            self.largest_bytes = train.X.nbytes
            self.largest_density = _ratio(np.count_nonzero(train.X), train.X.size)

    def _after_apply(self, span, args, result):
        role = self._role(args[0].X)
        if result is not None and role is not None:
            self._set_role(result.X, role)

    def _after_fit(self, span, args, fitted):
        if fitted is not None and isinstance(args[0], models.Gbdt):
            # one tree per round, or one per class and round for 3+ classes
            n_classes = len(fitted.classes) if fitted.classes else 0
            self.gbdt_trees += len(fitted.train_loss) * (n_classes if n_classes > 2 else 1)

    def _after_predict(self, span, args, result):
        parent = self.tracer.spans[span.parent] if span.parent is not None else None
        if parent is not None and parent.name == "models.predict":
            return  # predict() delegating to predict_proba() is one prediction
        X = args[1]
        self.rows_predicted += X.shape[0]
        if self._role(X) == "test":
            self.test_rows_predicted += X.shape[0]

    def _after_cell(self, span, args, result):
        spec = args[0]
        span.attrs["configured"] = spec.selector is not None
        span.attrs["fired"] = bool(result is not None and result.selector_applied)
        span.attrs["folds"] = len(result.per_fold) if result is not None else 0

    def _after_cli(self, span, args, code):
        span.attrs["exit"] = code

    # -- derived metrics ----------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s, which needs the
        untraced run's wall time."""
        spans = self.tracer.spans
        own = self_times(spans)

        def busy(name):
            return busy_time(spans, name)

        def self_of(name):
            return sum((own[s.id] for s in spans if s.name == name), 0.0)

        def count(name):
            return sum(1 for s in spans if s.name == name)

        cells = [s for s in spans if s.name == "evaluate.run_experiment"]
        configured = [s for s in cells if s.attrs.get("configured")]
        gbdt_s = busy("models.fit.gbdt")
        load_s, prep_s = busy("ingest.load_csv"), busy("ingest.preprocess")
        n_assemble = count("embed.assemble")
        return {
            "ingest.load_csv_s": load_s,
            "ingest.preprocess_s": prep_s,
            "ingest.cache_write_s": busy("ingest.cache_write"),
            "ingest.calls": count("ingest.load_csv"),
            "ingest.rows_per_s": _ratio(self.rows_loaded, load_s + prep_s),
            "core.split_s": busy("core.split"),
            "core.calls": count("core.split"),
            "embed.fit_s": busy("embed.fit"),
            "embed.transform_s": busy("embed.transform"),
            "embed.encode_s": self_of("embed.assemble"),
            "embed.calls": n_assemble,
            "embed.reuse_ratio": _ratio(len(self.feature_sets), n_assemble),
            "embed.matrix_mb": self.largest_bytes / 2**20,
            "embed.density": self.largest_density,
            "select.run_s": busy("select.run"),
            "select.apply_s": busy("select.apply"),
            "select.fire_ratio": _ratio(
                sum(1 for s in configured if s.attrs.get("fired")), len(configured)
            ),
            "models.ridge_fit_s": busy("models.fit.ridge"),
            "models.logistic_fit_s": busy("models.fit.logistic"),
            "models.gbdt_fit_s": gbdt_s,
            "models.gbdt_trees": self.gbdt_trees,
            "models.gbdt_ms_per_tree": _ratio(1000.0 * gbdt_s, self.gbdt_trees),
            "models.predict_s": busy("models.predict"),
            "models.predict_useful_ratio": _ratio(self.test_rows_predicted, self.rows_predicted),
            "evaluate.cell_self_s": self_of("evaluate.run_experiment"),
            "evaluate.metric_s": busy("evaluate.metric"),
            "evaluate.report_s": busy("evaluate.report"),
            "evaluate.cells": len(cells),
            "evaluate.folds": sum(s.attrs.get("folds", 0) for s in cells),
            "evaluate.cells_failed": sum(1 for s in cells if s.error),
            "breaklab.inject_s": busy("breaklab.inject"),
            "breaklab.suite_self_s": self_of("breaklab.suite"),
            "vetting.checks_s": busy("vetting.checks"),
            "vetting.coverage_s": busy("vetting.coverage"),
            "cli.ingest_s": self_of("cli.ingest"),
            "cli.eval_s": self_of("cli.eval"),
            "cli.report_s": self_of("cli.report"),
            "cli.exit_nonzero": sum(
                1 for s in spans if s.name.startswith("cli.") and s.attrs.get("exit") != 0
            ),
            "trace.spans": len(spans),
        }


_CLI_COMMANDS = ("ingest", "eval", "break", "vet", "report")


def _command_of(argv) -> str:
    for token in argv or ():
        if token in _CLI_COMMANDS:
            return token
    return "other"
