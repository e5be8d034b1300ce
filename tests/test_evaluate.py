import hashlib
import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabtext import embed, evaluate
from tabtext.core import Column, ColumnRole, Table, TaskKind, k_fold_split
from tabtext.embed import ExternalEmbedding, HashedNgram, TfIdf, WordVecAvg, assemble_features
from tabtext.evaluate import (
    ConstantTarget,
    EvalResult,
    ExperimentSpec,
    LengthMismatch,
    emit_report,
    format_results_csv,
    format_results_text,
    metric_accuracy,
    metric_r2,
    parse_results_csv,
    run_experiment,
    run_grid,
)
from tabtext.ingest import DatasetManifest
from tabtext.models import External, Logistic, Ridge
from tabtext.select import SelectorNotApplicable
from tabtext.sparse import CsrMatrix


class TestMetrics:
    def test_accuracy_examples(self):
        assert metric_accuracy(["a", "b"], ["a", "b"]) == 1.0
        assert metric_accuracy(["a", "b"], ["b", "a"]) == 0.0
        assert metric_accuracy(["a", "b", "c", "d"], ["a", "b", "c", "x"]) == 0.75

    def test_accuracy_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            metric_accuracy(["a"], ["a", "b"])

    def test_r2_perfect(self):
        y = [1.0, 2.0, 3.0]
        assert metric_r2(y, y) == pytest.approx(1.0)

    def test_r2_mean_predictor_exactly_zero(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(40)
        pred = np.full(40, y.mean())
        assert metric_r2(y, pred) == pytest.approx(0.0, abs=1e-12)

    def test_r2_worse_than_mean_is_negative(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        pred = np.array([4.0, 3.0, 2.0, 1.0])
        assert metric_r2(y, pred) < 0.0

    def test_r2_constant_target(self):
        with pytest.raises(ConstantTarget):
            metric_r2([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def reg_manifest(name="synth-reg"):
    return DatasetManifest(name, "unused.csv", "y", TaskKind.REGRESSION)


def clf_manifest(name="synth-clf"):
    return DatasetManifest(name, "unused.csv", "y", TaskKind.BINARY)


def linear_reg_table(n=100, seed=0, noise=0.01):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    words = ["alpha", "beta", "gamma", "delta"]
    text = [f"{words[int(i) % 4]} note" for i in rng.integers(0, 4, n)]
    y = 3.0 * x + noise * rng.standard_normal(n)
    return Table(
        "synth-reg",
        [
            Column("x", ColumnRole.NUMERICAL, [float(v) for v in x]),
            Column("txt", ColumnRole.TEXTUAL, text),
            Column("y", None, [float(v) for v in y]),
        ],
        "y",
        TaskKind.REGRESSION,
    )


def text_signal_table(n=120, seed=0):
    """Target readable only from the text column; numbers are pure noise."""
    rng = np.random.default_rng(seed)
    labels = ["up" if i % 2 == 0 else "down" for i in range(n)]
    fillers = ["breeze", "crystal", "jungle", "sunset"]
    text = [
        f"{lab} {fillers[int(a)]} {fillers[int(b)]}"
        for lab, a, b in zip(labels, rng.integers(0, 4, n), rng.integers(0, 4, n))
    ]
    noise = rng.standard_normal(n)
    return Table(
        "synth-clf",
        [
            Column("noise", ColumnRole.NUMERICAL, [float(v) for v in noise]),
            Column("txt", ColumnRole.TEXTUAL, text),
            Column("y", None, labels),
        ],
        "y",
        TaskKind.BINARY,
    )


class TestRunExperiment:
    def test_ridge_on_noiseless_linear(self):
        spec = ExperimentSpec(
            manifest=reg_manifest(),
            embedder=TfIdf(),
            selector=None,
            model=Ridge(alpha=1e-6),
            with_text=False,
            seed=1,
        )
        result = run_experiment(spec, linear_reg_table())
        assert result.metric_name == "r2"
        assert result.mean > 0.99

    def test_without_text_on_text_only_signal_is_chance(self):
        spec = ExperimentSpec(
            manifest=clf_manifest(),
            embedder=TfIdf(),
            selector=None,
            model=Logistic(),
            with_text=False,
            seed=2,
        )
        result = run_experiment(spec, text_signal_table())
        assert result.metric_name == "accuracy"
        assert abs(result.mean - 0.5) < 0.15  # majority-class neighborhood

    def test_with_text_recovers_signal(self):
        spec = ExperimentSpec(
            manifest=clf_manifest(),
            embedder=TfIdf(),
            selector=None,
            model=Logistic(),
            with_text=True,
            seed=2,
        )
        result = run_experiment(spec, text_signal_table())
        assert result.mean > 0.9

    def test_reproducible_bitwise(self):
        spec = ExperimentSpec(
            manifest=clf_manifest(),
            embedder=HashedNgram(buckets=32),
            selector=None,
            model=Logistic(),
            with_text=True,
            seed=5,
        )
        a = run_experiment(spec, text_signal_table())
        b = run_experiment(spec, text_signal_table())
        assert a.per_fold == b.per_fold

    @pytest.mark.parametrize("embedder", [TfIdf(), HashedNgram(buckets=32)])
    def test_each_text_tokenized_once_per_experiment(self, embedder):
        base = linear_reg_table(n=60)
        notes = Column("notes", ColumnRole.TEXTUAL, [f"note {i % 7} of {i}" for i in range(60)])
        table = Table("synth-reg", base.columns[:2] + [notes] + base.columns[2:], "y",
                      TaskKind.REGRESSION)
        spec = ExperimentSpec(manifest=reg_manifest(), embedder=embedder, selector=None,
                              model=Ridge(), with_text=True)
        with mock.patch.object(embed, "tokenize", wraps=embed.tokenize) as spy:
            run_experiment(spec, table)
        # once per row of each text column, across all five folds
        assert spy.call_count == 2 * table.n_rows

    def test_mean_and_std_relation(self):
        spec = ExperimentSpec(
            manifest=clf_manifest(),
            embedder=TfIdf(),
            selector=None,
            model=Logistic(),
            with_text=True,
            seed=3,
        )
        r = run_experiment(spec, text_signal_table())
        assert r.mean == pytest.approx(float(np.mean(r.per_fold)), abs=1e-12)
        assert r.std == pytest.approx(float(np.std(r.per_fold)), abs=1e-12)

    def test_selector_applies_only_over_cap(self):
        spec = ExperimentSpec(
            manifest=clf_manifest(),
            embedder=HashedNgram(buckets=64),
            selector="anova",
            model=Logistic(),
            with_text=True,
            feature_cap=10,
            seed=4,
        )
        over = run_experiment(spec, text_signal_table())
        assert over.selector_applied

        wide_cap = ExperimentSpec(
            manifest=clf_manifest(),
            embedder=HashedNgram(buckets=64),
            selector="anova",
            model=Logistic(),
            with_text=True,
            feature_cap=300,
            seed=4,
        )
        under = run_experiment(wide_cap, text_signal_table())
        assert not under.selector_applied

    def test_fold_failure_carries_fold_index(self, tmp_path):
        from tabtext.evaluate import ExperimentError
        from tabtext.models import External

        stub = tmp_path / "boom.py"
        stub.write_text("import sys; sys.exit(1)\n")
        spec = ExperimentSpec(
            manifest=clf_manifest(),
            embedder=TfIdf(),
            selector=None,
            model=External(f"python3 {stub}"),
            with_text=True,
        )
        with pytest.raises(ExperimentError) as err:
            run_experiment(spec, text_signal_table())
        assert err.value.fold == 0

    def test_caps_validated(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                manifest=clf_manifest(), embedder=TfIdf(), selector=None,
                model=Logistic(), with_text=True, k_folds=1,
            )

    def test_spec_hash_covers_corr_method(self):
        spec = ExperimentSpec(
            manifest=reg_manifest(), embedder=TfIdf(), selector="correlation",
            model=Ridge(), with_text=True,
        )
        assert spec.spec_hash() != replace(spec, corr_method="spearman").spec_hash()

    @pytest.mark.parametrize(
        "change",
        [
            {"role_overrides": {"x": ColumnRole.CATEGORICAL}},
            {"row_cap": 50},
            {"delimiter": ";"},
            {"target_column": "x"},
            {"task": TaskKind.BINARY},
        ],
    )
    def test_spec_hash_covers_manifest_fields(self, change):
        spec = ExperimentSpec(
            manifest=reg_manifest(), embedder=TfIdf(), selector=None,
            model=Ridge(), with_text=True,
        )
        changed = replace(spec, manifest=replace(spec.manifest, **change))
        assert spec.spec_hash() != changed.spec_hash()

    @pytest.mark.parametrize(
        "change", [{"command": "python3 other.py"}, {"timeout": 5.0}, {"raw_table": True}]
    )
    def test_spec_hash_covers_external_settings(self, change):
        spec = ExperimentSpec(
            manifest=reg_manifest(), embedder=TfIdf(), selector=None,
            model=External("python3 model.py"), with_text=True,
        )
        changed = replace(spec, model=replace(spec.model, **change))
        assert spec.spec_hash() != changed.spec_hash()

    @pytest.mark.parametrize("make", [WordVecAvg, ExternalEmbedding])
    def test_spec_hash_covers_file_content(self, tmp_path, make):
        path = tmp_path / "vectors.txt"
        spec = ExperimentSpec(
            manifest=reg_manifest(), embedder=make(str(path)), selector=None,
            model=Ridge(), with_text=True,
        )
        path.write_text("1 2\napple 1.0 2.0\n")
        first = spec.spec_hash()
        assert spec.spec_hash() == first
        path.write_text("1 2\napple 1.0 2.5\n")
        assert spec.spec_hash() != first
        path.write_text("1 2\napple 1.0 2.0\n")
        assert spec.spec_hash() == first

    def test_spec_hash_covers_dataset_csv_content(self, tmp_path, monkeypatch):
        spec = ExperimentSpec(
            manifest=reg_manifest(), embedder=TfIdf(), selector=None,
            model=Ridge(), with_text=True,
        )
        # an in-memory table's spec hashes without a digest, whatever files
        # lie in the current directory
        assert spec.spec_hash() == "6f2be251daddbcaf"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "unused.csv").write_text("x,y\n1,2.5\n")
        assert spec.spec_hash() == "6f2be251daddbcaf"

        path = tmp_path / "data.csv"
        manifest = replace(spec.manifest, csv_path=str(path))
        spec = replace(spec, manifest=manifest, with_text=False, k_folds=2)

        def lock_hash(targets):
            rows = "".join(f"{i},{i % 3},{t}\n" for i, t in enumerate(targets))
            path.write_text("x,z,y\n" + rows)
            result = run_experiment(spec)
            assert result.csv_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
            lock = emit_report([result], tmp_path / "out")["lock"]
            return json.loads(lock.read_text())["results"][0]["spec_hash"]

        targets = [0.5 * i for i in range(12)]
        first = lock_hash(targets)
        assert first != "6f2be251daddbcaf"
        assert lock_hash(targets[::-1]) != first
        assert lock_hash(targets) == first
        # the lock hashes the bytes that were ingested, not those at emit time
        result = run_experiment(spec)
        path.write_text("x,z,y\n1,1,1.0\n")
        lock = emit_report([result], tmp_path / "out")["lock"]
        assert json.loads(lock.read_text())["results"][0]["spec_hash"] == first

    def test_wide_tfidf_ridge_cell_stays_sparse(self):
        rng = np.random.default_rng(5)
        n = 1000
        x = rng.standard_normal(n)
        words = [f"w{i}" for i in range(5000)]
        table = Table(
            "wide",
            [
                Column("x", ColumnRole.NUMERICAL, [float(v) for v in x]),
                Column("txt", ColumnRole.TEXTUAL,
                       [" ".join(words[j] for j in rng.integers(0, 5000, 4)) for _ in range(n)]),
                Column("y", None, [float(v) for v in 3.0 * x + 0.1 * rng.standard_normal(n)]),
            ],
            "y",
            TaskKind.REGRESSION,
        )
        spec = ExperimentSpec(
            manifest=reg_manifest(), embedder=TfIdf(), selector=None, model=Ridge(),
            with_text=True,
        )
        train, _ = assemble_features(table, TfIdf(), True, k_fold_split(table, 5, 0), 0)
        assert train.width > train.n_rows  # the ridge dual path
        dense_train_bytes = 8 * train.n_rows * train.width
        tracemalloc.start()
        try:
            result = run_experiment(spec, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert min(result.per_fold) > 0.99
        assert peak < dense_train_bytes

    def test_inapplicable_selector_rejected(self):
        spec = ExperimentSpec(
            manifest=reg_manifest(),
            embedder=TfIdf(),
            selector="ttest",
            model=Ridge(),
            with_text=True,
        )
        with pytest.raises(SelectorNotApplicable):
            run_experiment(spec, linear_reg_table())

    def test_anti_leak_test_fold_targets(self):
        # regression folds ignore y, so fold membership is stable: mutating a
        # fold-0 target must leave fold 0's model inputs untouched
        base = linear_reg_table(seed=9)
        spec = ExperimentSpec(
            manifest=reg_manifest(),
            embedder=TfIdf(),
            selector=None,
            model=Ridge(),
            with_text=True,
            seed=9,
        )
        from tabtext.core import k_fold_split

        fold = k_fold_split(base, 5, 9)
        victim = fold.fold_rows(0)[0]
        mutated = linear_reg_table(seed=9)
        mutated.column("y").values[victim] = 1234.5

        def fold0_fit_inputs(table):
            with mock.patch.object(evaluate, "fit", wraps=evaluate.fit) as spy:
                result = run_experiment(spec, table)
            X, y = spy.call_args_list[0].args[1:3]
            X = X.toarray() if isinstance(X, CsrMatrix) else X
            return result, (X.shape, X.tobytes(), np.asarray(y, dtype=float).tobytes())

        a, a_inputs = fold0_fit_inputs(base)
        b, b_inputs = fold0_fit_inputs(mutated)
        assert a_inputs == b_inputs
        assert a.per_fold[0] != b.per_fold[0]


class TestReports:
    def make_results(self):
        spec = ExperimentSpec(
            manifest=clf_manifest(),
            embedder=TfIdf(),
            selector=None,
            model=Logistic(),
            with_text=True,
            seed=0,
        )
        return run_grid(
            [spec, replace(spec, with_text=False)],
            tables={"synth-clf": text_signal_table()},
        )

    def test_cell_formatting(self):
        spec = ExperimentSpec(
            manifest=clf_manifest(), embedder=TfIdf(), selector="shap",
            model=Logistic(), with_text=True,
        )
        r = EvalResult(spec, [0.95, 0.97], 0.962, 0.008, "accuracy", True)
        text = format_results_text([r])
        assert "0.962±0.008" in text

    def test_empty_results_header_only(self):
        assert format_results_csv([]).strip().startswith("dataset,task,metric")
        assert format_results_text([]).startswith("dataset")

    def test_round_trip_csv(self):
        results = self.make_results()
        text = format_results_csv(results)
        rows = parse_results_csv(text)
        assert len(rows) == 2
        assert rows[0]["mean"] == results[0].mean
        assert rows[0]["folds"] == results[0].per_fold

    @pytest.mark.parametrize(
        "name", ["beers, craft", 'the "best" beers', "beers\ncraft"]
    )
    def test_round_trip_csv_any_dataset_name(self, name):
        spec = ExperimentSpec(
            manifest=reg_manifest(name), embedder=TfIdf(), selector=None,
            model=Ridge(), with_text=False,
        )
        r = EvalResult(spec, [0.5, 0.25], 0.375, 0.125, "r2")
        (row,) = parse_results_csv(format_results_csv([r]))
        assert row["dataset"] == name
        assert (row["with_text"], row["mean"], row["folds"]) == (False, 0.375, [0.5, 0.25])

    @settings(max_examples=200, deadline=None)
    @given(
        names=st.lists(st.text(), min_size=1, max_size=3),
        scores=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=9),
        with_text=st.booleans(),
    )
    def test_round_trip_csv_any_name_and_values(self, names, scores, with_text):
        results = [
            EvalResult(
                ExperimentSpec(manifest=reg_manifest(name), embedder=TfIdf(), selector=None,
                               model=Ridge(), with_text=with_text),
                scores[2:], scores[0], scores[1], "r2",
            )
            for name in names
        ]
        rows = parse_results_csv(format_results_csv(results))
        assert [row["dataset"] for row in rows] == names
        for row, r in zip(rows, results):
            got = np.array([row["mean"], row["std"], *row["folds"]])
            want = np.array([r.mean, r.std, *r.per_fold])
            assert got.tobytes() == want.tobytes()  # -0.0 and the last ulp too
            assert row["with_text"] is with_text

    def test_plain_names_keep_unquoted_bytes(self):
        spec = ExperimentSpec(
            manifest=reg_manifest("plain-name"), embedder=TfIdf(), selector=None,
            model=Ridge(), with_text=True, seed=3,
        )
        r = EvalResult(spec, [0.5, 0.25], 0.375, 0.125, "r2")
        assert format_results_csv([r]).splitlines()[1] == (
            "plain-name,regression,r2,ridge,tfidf,all,true,false,0.375,0.125,0.5|0.25,3"
        )

    def test_emit_report_files(self, tmp_path):
        results = self.make_results()
        paths = emit_report(results, tmp_path / "run")
        assert paths["csv"].exists()
        assert paths["txt"].exists()
        assert paths["lock"].exists()
        text = paths["txt"].read_text()
        assert "synth-clf" in text
        assert "*" in text  # better half of the pair is marked

    def test_unapplied_selector_renders_as_dashes(self):
        spec = ExperimentSpec(
            manifest=clf_manifest(),
            embedder=HashedNgram(buckets=64),
            selector="anova",
            model=Logistic(),
            with_text=True,
            feature_cap=300,
        )
        r = run_experiment(spec, text_signal_table())
        assert not r.selector_applied
        text = format_results_text([r])
        header_cols = text.splitlines()[0].split()
        body_cols = text.splitlines()[1].split()
        anova_col = next(
            i for i, h in enumerate(header_cols) if "anova" in h and h.endswith(":text")
        )
        assert body_cols[anova_col] == "--"
