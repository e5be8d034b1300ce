import hashlib
import json
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabtext import embed, evaluate, write_external_embeddings
from tabtext.breaklab import toy_vector_file
from tabtext.core import Column, ColumnRole, Table, TaskKind, k_fold_split
from tabtext.embed import ExternalEmbedding, HashedNgram, TfIdf, WordVecAvg, assemble_features
from tabtext.evaluate import (
    ConstantTarget,
    DuplicateDatasetName,
    EvalResult,
    ExperimentError,
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
from tabtext.models import External, Gbdt, Logistic, Ridge
from tabtext.select import SelectorNotApplicable
from tabtext.sparse import CsrMatrix

from test_edges import run_python


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

    @pytest.mark.parametrize(
        "embedder", [TfIdf(), HashedNgram(buckets=32), WordVecAvg(str(toy_vector_file()))]
    )
    def test_each_text_tokenized_once_per_experiment(self, embedder):
        base = linear_reg_table(n=60)
        notes = Column("notes", ColumnRole.TEXTUAL, [f"note {i % 7} of {i}" for i in range(60)])
        table = Table("synth-reg", base.columns[:2] + [notes] + base.columns[2:], "y",
                      TaskKind.REGRESSION)
        spec = ExperimentSpec(manifest=reg_manifest(), embedder=embedder, selector=None,
                              model=Ridge(), with_text=True)
        with mock.patch.object(embed, "_tokenize_column", wraps=embed._tokenize_column) as spy:
            run_experiment(spec, table)
        # once per row of each text column, across all five folds
        assert sum(len(call.args[0]) for call in spy.call_args_list) == 2 * table.n_rows

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

    @pytest.mark.parametrize(
        "field, value, reason",
        [("k_folds", 2.5, "k_folds must be an integer, got 2.5"),
         ("k_folds", 1, "k_folds must be at least 2"),
         ("feature_cap", 2.5, "feature_cap must be an integer, got 2.5"),
         ("feature_cap", 0, "feature_cap must be at least 1"),
         ("row_cap", True, "row_cap must be an integer, got True"),
         ("row_cap", 0, "row_cap must be at least 1"),
         ("seed", True, "seed must be an integer, got True"),
         ("seed", -1, "seed must be at least 0")],
    )
    def test_field_outside_its_domain_is_refused(self, field, value, reason):
        with pytest.raises(ValueError, match=re.escape(reason)):
            ExperimentSpec(
                manifest=clf_manifest(), embedder=TfIdf(), selector=None,
                model=Logistic(), with_text=True, **{field: value},
            )

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
        assert spec.spec_hash() == "f72b1ad45ec6daee"
        monkeypatch.chdir(tmp_path)
        (tmp_path / "unused.csv").write_text("x,y\n1,2.5\n")
        assert spec.spec_hash() == "f72b1ad45ec6daee"

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
        assert first != "f72b1ad45ec6daee"
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


FIXTURES = Path(__file__).parent / "fixtures"


def grid_reg_table(n=36, seed=0):
    """Numeric, categorical and text columns; the target follows the number."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    words = ["amber", "stout", "hazy", "crisp", "sour", "dry", "oak", "pine"]
    text = [" ".join(words[int(j)] for j in rng.integers(0, 8, 3)) for _ in range(n)]
    return Table(
        "synth-reg",
        [
            Column("x", ColumnRole.NUMERICAL, [float(v) for v in x]),
            Column("kind", ColumnRole.CATEGORICAL, [f"k{int(v)}" for v in rng.integers(0, 3, n)]),
            Column("txt", ColumnRole.TEXTUAL, text),
            Column("y", None, [float(v) for v in 2.0 * x + 0.3 * rng.standard_normal(n)]),
        ],
        "y",
        TaskKind.REGRESSION,
    )


def described(outcome) -> str:
    """A result as its results.csv row, a failure as its type and message."""
    if isinstance(outcome, EvalResult):
        return format_results_csv([outcome])
    return f"{type(outcome).__name__}: {outcome}"


def run_alone(spec, table):
    try:
        return run_experiment(spec, table)
    except Exception as exc:  # noqa: BLE001 - compared with the shared run's failure
        return exc


class TestImports:
    def test_imputed_regression_folds_leave_numpy_ma_unimported(self):
        # np.median and np.unique import numpy.ma on first use
        code = """
import sys
from tabtext import Column, ColumnRole, ExperimentSpec, HashedNgram, Table, TaskKind
from tabtext import run_grid
from tabtext.core import MISSING
from tabtext.ingest import DatasetManifest
from tabtext.models import Gbdt, Ridge

x = [MISSING if i % 4 == 0 else float(i % 7) for i in range(30)]
table = Table("t", [Column("x", ColumnRole.NUMERICAL, x),
                    Column("txt", ColumnRole.TEXTUAL, [f"w{i % 3} note" for i in range(30)]),
                    Column("y", None, [float(i) for i in range(30)])], "y", TaskKind.REGRESSION)
manifest = DatasetManifest("t", "unused.csv", "y", TaskKind.REGRESSION)
specs = [ExperimentSpec(manifest, HashedNgram(16), None, model, True)
         for model in (Ridge(), Gbdt(2, 0.5, 3))]
print([len(r.per_fold) for r in run_grid(specs, {"t": table})], "numpy.ma" in sys.modules)
"""
        assert run_python(code) == "[5, 5] False"

    def test_word_vector_folds_through_the_booster_leave_numpy_ma_unimported(self):
        code = f"""
import sys
from tabtext import Column, ColumnRole, ExperimentSpec, Table, TaskKind, WordVecAvg, run_grid
from tabtext.ingest import DatasetManifest
from tabtext.models import Gbdt

words = ["great", "river", "one", "zzz", "nice"]  # "zzz" has no vector
texts = [" ".join(words[(i + j) % 5] for j in range(i % 4)) for i in range(30)]
table = Table("t", [Column("x", ColumnRole.NUMERICAL, [float(i % 7) for i in range(30)]),
                    Column("txt", ColumnRole.TEXTUAL, texts),
                    Column("y", None, [float(i) for i in range(30)])], "y", TaskKind.REGRESSION)
manifest = DatasetManifest("t", "unused.csv", "y", TaskKind.REGRESSION)
spec = ExperimentSpec(manifest, WordVecAvg({str(toy_vector_file())!r}), None, Gbdt(2, 0.5, 3), True)
print(len(run_grid([spec], {{"t": table}})[0].per_fold), "numpy.ma" in sys.modules)
"""
        assert run_python(code) == "5 False"


class TestSharedRunner:
    @settings(max_examples=12, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.sampled_from([TfIdf(), HashedNgram(buckets=16)]),
                st.sampled_from([None, "variance", "random"]),
                st.sampled_from([Ridge(), Gbdt(2, 0.5, 3)]),
                st.booleans(),
                st.sampled_from([(0, 3, 3000), (1, 2, 24)]),  # seed, k_folds, row_cap
            ),
            min_size=1,
            max_size=5,
        ),
        fail_at=st.integers(0, 6),
    )
    def test_grid_matches_per_spec_runs(self, cells, fail_at):
        table = grid_reg_table()
        specs = [
            ExperimentSpec(reg_manifest(), emb, sel, model, wt, k_folds=k, feature_cap=4,
                           row_cap=cap, seed=seed)
            for emb, sel, model, wt, (seed, k, cap) in cells
        ]
        specs.append(specs[0])  # a repeated spec
        failing = replace(specs[-1], model=Logistic())  # logistic cannot fit a regression
        specs.insert(fail_at % len(specs), failing)
        tables = {"synth-reg": table}

        alone = [run_alone(spec, table) for spec in specs]
        shared = evaluate._run_specs(specs, tables)
        assert [described(o) for o in shared] == [described(o) for o in alone]
        assert isinstance(shared[specs.index(failing)], ExperimentError)

        ok = [spec for spec in specs if spec is not failing]
        assert format_results_csv(run_grid(ok, tables)) == format_results_csv(
            [r for r in alone if isinstance(r, EvalResult)]
        )
        with pytest.raises(ExperimentError) as err:
            run_grid(specs, tables)
        assert str(err.value) == "fold 0: logistic does not support regression"

    def test_criterion_6_grid_assembles_each_fold_once(self):
        from test_acceptance import grid_regression_table

        table = grid_regression_table()
        manifest = DatasetManifest("grid-reg", "unused.csv", "y", TaskKind.REGRESSION)
        specs = [
            ExperimentSpec(manifest, embedder, selector, Ridge(), with_text,
                           feature_cap=300, row_cap=3000, seed=7)
            for embedder in (TfIdf(), HashedNgram())
            for selector in ("variance", None)
            for with_text in (True, False)
        ]
        with mock.patch.object(
            evaluate, "assemble_features", wraps=evaluate.assemble_features
        ) as assemble, mock.patch.object(
            evaluate, "text_corpora", wraps=evaluate.text_corpora
        ) as corpora:
            shared = run_grid(specs, {"grid-reg": table})
        # tfidf, hashed and no-text features, five folds each
        assert assemble.call_count == 15
        assert corpora.call_count == 1
        alone = [run_experiment(spec, table) for spec in specs]
        assert format_results_csv(shared) == format_results_csv(alone)

    def test_one_experiment_splits_once(self):
        spec = ExperimentSpec(reg_manifest(), TfIdf(), None, Ridge(), True, row_cap=30)
        with mock.patch.object(
            evaluate, "subsample_rows", wraps=evaluate.subsample_rows
        ) as subsample, mock.patch.object(
            evaluate, "k_fold_split", wraps=evaluate.k_fold_split
        ) as split:
            run_experiment(spec, grid_reg_table())
        assert subsample.call_count == 1
        assert split.call_count == 1

    def test_grid_ingests_each_manifest_once(self, tmp_path):
        manifests = []
        for name in ("first", "second"):
            path = tmp_path / f"{name}.csv"
            path.write_text("x,note,y\n" + "".join(
                f"{i},word{i % 4} filler,{1.5 * i + (i % 3)}\n" for i in range(20)
            ))
            manifests.append(DatasetManifest(name, str(path), "y", TaskKind.REGRESSION))
        specs = [
            ExperimentSpec(m, embedder, None, Ridge(), wt, k_folds=2, seed=seed)
            for m in manifests
            for embedder in (TfIdf(), HashedNgram(buckets=16))
            for wt in (True, False)
            for seed in (0, 1)
        ]
        with mock.patch.object(evaluate, "ingest_dataset", wraps=evaluate.ingest_dataset) as ing:
            results = run_grid(specs)
        assert sorted(c.args[0].name for c in ing.call_args_list) == ["first", "second"]
        assert [r.spec for r in results] == specs

    def test_two_manifests_under_one_name_rejected(self, tmp_path):
        a = DatasetManifest("same", str(tmp_path / "a.csv"), "y", TaskKind.REGRESSION)
        b = replace(a, csv_path=str(tmp_path / "b.csv"))
        spec = ExperimentSpec(a, TfIdf(), None, Ridge(), True)
        with mock.patch.object(evaluate, "ingest_dataset") as ing:
            with pytest.raises(DuplicateDatasetName, match="'same'"):
                run_grid([spec, replace(spec, manifest=b)])
        assert ing.call_count == 0

    def test_failed_assembly_fails_every_spec_of_its_key(self, tmp_path):
        missing = ExternalEmbedding(str(tmp_path / "missing.csv"))
        specs = [
            ExperimentSpec(reg_manifest(), missing, None, Ridge(), True),
            ExperimentSpec(reg_manifest(), missing, "variance", Gbdt(2, 0.5, 3), True),
            ExperimentSpec(reg_manifest(), missing, None, Ridge(), False),
        ]
        with mock.patch.object(
            evaluate, "assemble_features", wraps=evaluate.assemble_features
        ) as assemble:
            outcomes = evaluate._run_specs(specs, {"synth-reg": grid_reg_table()})
        assert [o.fold for o in outcomes[:2]] == [0, 0]
        assert str(outcomes[0]) == str(outcomes[1])
        assert isinstance(outcomes[2], EvalResult)  # no text: nothing to load
        assert assemble.call_count == 1 + 5

    def test_external_embeddings_written_for_the_table_survive_the_row_cap(self, tmp_path):
        rng = np.random.default_rng(0)
        y = [float(v) for v in rng.standard_normal(50)]
        table = Table("synth-reg", [
            Column("note", ColumnRole.TEXTUAL, [f"word{i % 4}" for i in range(50)]),
            Column("y", None, y),
        ], "y", TaskKind.REGRESSION)
        path = tmp_path / "emb.csv"
        write_external_embeddings(path, np.column_stack([y, rng.standard_normal(50)]), table)
        spec = ExperimentSpec(reg_manifest(), ExternalEmbedding(str(path)), None, Ridge(), True,
                              row_cap=40)
        # each of the 40 kept rows is fitted on its own embedding row, the target
        assert min(run_experiment(spec, table).per_fold) > 0.99

    def test_raw_table_external_reads_the_fold_rows(self):
        table = text_signal_table()  # the label is readable from the text only
        command = f"python3 {FIXTURES / 'token_centroid.py'}"
        spec = ExperimentSpec(
            manifest=clf_manifest(), embedder=TfIdf(), selector="variance",
            model=External(command, raw_table=True), with_text=True, feature_cap=1,
        )
        with mock.patch.object(
            evaluate, "run_external", wraps=evaluate.run_external
        ) as external, mock.patch.object(
            evaluate, "assemble_features", wraps=evaluate.assemble_features
        ) as assemble:
            with_text, no_text = run_grid([spec, replace(spec, with_text=False)],
                                          {"synth-clf": table})
        assert assemble.call_count == 0
        fold = k_fold_split(table, 5, 0)
        calls = external.call_args_list
        train, test = calls[0].args[1:3]
        texts = table.column("txt").values
        assert train.column("txt").values == [texts[i] for i in fold.train_rows(0)]
        assert test.column("txt").values == [texts[i] for i in fold.fold_rows(0)]
        # per fold: the text cell, then the no-text cell without its text column
        assert ["txt" in c.args[1].column_names for c in calls] == [True, False] * 5
        assert with_text.per_fold == [1.0] * 5
        assert no_text.mean < 0.75
        assert not with_text.selector_applied and not no_text.selector_applied
        row = format_results_text([with_text, no_text]).splitlines()[1]
        assert row.split()[1:] == ["--", "--"]


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
