import json
from pathlib import Path

import numpy as np
import pytest

from tabtext import breaklab, cli, ingest
from tabtext.cli import main
from tabtext.core import TaskKind
from tabtext.embed import TfIdf
from tabtext.evaluate import EvalResult, ExperimentSpec, emit_report
from tabtext.ingest import DatasetManifest
from tabtext.models import Logistic
from tabtext.vetting import default_fixture_dir


def write_binary_dataset(path: Path, n=60, seed=0):
    rng = np.random.default_rng(seed)
    words = ["crisp", "malty", "smoky", "floral", "bitter", "sweet"]
    lines = ["notes,reading,grade"]
    for i in range(n):
        label = "good" if i % 2 == 0 else "bad"
        w1, w2 = words[int(rng.integers(6))], words[int(rng.integers(6))]
        marker = "shiny" if label == "good" else "rusty"
        reading = 0.5 * (1 if label == "good" else -1) + float(rng.standard_normal())
        lines.append(f"{marker} {w1} {w2} batch {i},{reading:.4f},{label}")
    path.write_text("\n".join(lines) + "\n")


def write_manifest(path: Path, csv_path: Path, name="taps", target="grade", task="binary"):
    path.write_text(
        json.dumps(
            {
                "name": name,
                "csv_path": str(csv_path),
                "target_column": target,
                "task": task,
                "role_overrides": {"notes": "textual"},
            }
        )
    )


@pytest.fixture()
def dataset(tmp_path):
    csv_path = tmp_path / "taps.csv"
    manifest_path = tmp_path / "taps.json"
    write_binary_dataset(csv_path)
    write_manifest(manifest_path, csv_path)
    return manifest_path


class TestIngestCommand:
    def test_success(self, dataset, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["--out", str(tmp_path / "cache"), "ingest", str(dataset)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Cat" in out and "Num" in out and "Text" in out
        written = sorted(p.name for p in (tmp_path / "cache").iterdir())
        assert written == ["taps.report.json"]
        (snapshot,) = (tmp_path / ".tabtext-cache").iterdir()
        assert snapshot.name[:5] == "taps-"
        assert f"cached cleaned table: {snapshot.relative_to(tmp_path)}\n" in out

    def test_eval_and_vet_read_the_snapshot(self, dataset, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = eval_config(tmp_path, dataset)
        assert main(["--out", str(tmp_path / "fresh"), "eval", str(config)]) == 0
        assert main(["--out", str(tmp_path / "vet-fresh"), "vet", str(dataset)]) == 0
        assert main(["--out", str(tmp_path / "ingest"), "ingest", str(dataset)]) == 0
        monkeypatch.setattr(ingest, "load_csv", _not_loaded)
        assert main(["--out", str(tmp_path / "cached"), "eval", str(config)]) == 0
        assert main(["--out", str(tmp_path / "vet-cached"), "vet", str(dataset)]) == 0
        for fresh, cached in [("fresh", "cached"), ("vet-fresh", "vet-cached")]:
            for p in (tmp_path / fresh).iterdir():
                assert p.read_bytes() == (tmp_path / cached / p.name).read_bytes()

    def test_unwritable_snapshot_directory_fails_nothing(self, dataset, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / ".tabtext-cache").write_text("not a directory\n")
        assert main(["--out", str(tmp_path / "cache"), "ingest", str(dataset)]) == 0
        written = sorted(p.name for p in (tmp_path / "cache").iterdir())
        assert written == ["taps.report.json"]
        captured = capsys.readouterr()
        assert "no snapshot of 'taps' written" in captured.err
        assert "cached cleaned table:" not in captured.out

    def test_missing_file_exits_two(self, tmp_path):
        manifest = tmp_path / "m.json"
        write_manifest(manifest, tmp_path / "missing.csv")
        assert main(["ingest", str(manifest)]) == 2

    @pytest.mark.parametrize(
        "key, value, reason",
        [("task", 1, "manifest 'task' must be a string, got 1"),
         ("row_cap", None, "manifest 'row_cap' must be a JSON integer, got None"),
         ("role_overrides", ["a"],
          "manifest 'role_overrides' must map columns to roles, got ['a']"),
         ("row_cap", 2.5, "manifest 'row_cap' must be a JSON integer, got 2.5"),
         ("row_cap", True, "manifest 'row_cap' must be a JSON integer, got True"),
         ("delimiter", ";;", "manifest 'delimiter' must be one character, got ';;'"),
         ("delimiter", "", "manifest 'delimiter' must be one character, got ''")],
    )
    def test_wrong_type_manifest_value_exits_two(self, key, value, reason, dataset, capsys):
        dataset.write_text(json.dumps({**json.loads(dataset.read_text()), key: value}))
        assert main(["ingest", str(dataset)]) == 2
        assert capsys.readouterr().err == f"ingest failed: {reason}\n"


def _not_loaded(manifest):
    raise AssertionError("the CSV was loaded, not the snapshot read")


def eval_config(tmp_path, dataset, selectors=None, **extra):
    config = {
        "manifests": [str(dataset)],
        "embedders": [{"kind": "tfidf"}, {"kind": "hashed", "buckets": 32}],
        "models": [{"kind": "logistic"}],
        "with_text": [True, False],
        "k_folds": 5,
        "seed": 1,
        **extra,
    }
    if selectors is not None:
        config["selectors"] = selectors
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestEvalCommand:
    def test_grid_produces_four_rows(self, dataset, tmp_path, capsys):
        config = eval_config(tmp_path, dataset)
        out_dir = tmp_path / "run"
        assert main(["--out", str(out_dir), "eval", str(config)]) == 0
        lines = (out_dir / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4  # header + (2 embedders x with/without)
        assert (out_dir / "results.txt").exists()
        assert (out_dir / "manifest-lock").exists()

    def test_rerun_is_bit_identical(self, dataset, tmp_path):
        config = eval_config(tmp_path, dataset)
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert main(["--out", str(a_dir), "eval", str(config)]) == 0
        assert main(["--out", str(b_dir), "eval", str(config)]) == 0
        assert (a_dir / "results.csv").read_bytes() == (b_dir / "results.csv").read_bytes()

    def test_inapplicable_selector_fails_before_compute(self, dataset, tmp_path, capsys):
        config = eval_config(tmp_path, dataset, selectors=["correlation"])  # binary task
        assert main(["--out", str(tmp_path / "x"), "eval", str(config)]) == 3
        err = capsys.readouterr().err
        assert "not applicable" in err
        assert not (tmp_path / "x").exists()

    def test_failed_cells_are_reported_and_skipped(self, tmp_path, capsys):
        csv_path = tmp_path / "reg.csv"
        rows = [f"note {i % 5} of batch {i},{i % 7},{1.5 * (i % 7) + i % 3}" for i in range(40)]
        csv_path.write_text("notes,reading,score\n" + "\n".join(rows) + "\n")
        manifest = tmp_path / "reg.json"
        write_manifest(manifest, csv_path, name="reg", target="score", task="regression")
        config = eval_config(tmp_path, manifest, models=[{"kind": "ridge"}, {"kind": "logistic"}])
        out_dir = tmp_path / "run"
        assert main(["--out", str(out_dir), "eval", str(config)]) == 3
        assert "4 experiment(s) failed" in capsys.readouterr().err

        csv_rows = (out_dir / "results.csv").read_text().strip().splitlines()[1:]
        assert len(csv_rows) == 4  # ridge: 2 embedders x with/without text
        assert all(row.split(",")[3] == "ridge" for row in csv_rows)
        report, failures = (out_dir / "results.txt").read_text().split("\nfailures:\n")
        assert "logistic" not in report
        expected = sorted(
            f"  reg/('logistic', '{emb}', 'all', {wt}): fold 0: logistic does not support regression"
            for emb in ("tfidf", "hashed")
            for wt in (True, False)
        )
        assert sorted(failures.splitlines()) == expected


    def test_two_manifests_under_one_name_rejected(self, tmp_path, capsys):
        manifests = []
        for i in range(2):
            csv_path = tmp_path / f"taps{i}.csv"
            write_binary_dataset(csv_path, seed=i)
            manifests.append(tmp_path / f"taps{i}.json")
            write_manifest(manifests[-1], csv_path, name="same")
        config = eval_config(tmp_path, manifests[0], manifests=[str(m) for m in manifests])
        out_dir = tmp_path / "run"
        assert main(["--out", str(out_dir), "eval", str(config)]) == 3
        assert "two manifests are named 'same'" in capsys.readouterr().err
        assert not out_dir.exists()


class TestBreakCommand:
    def test_default_run_prints_grid(self, tmp_path, capsys):
        out_dir = tmp_path / "break"
        assert main(["--seed", "0", "--out", str(out_dir), "break"]) == 0
        out = capsys.readouterr().out
        assert "== Complete Leak ==" in out
        assert "Average" in out
        assert (out_dir / "break_matrix.csv").exists()

    def test_bad_config_exits_four(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {"kind": "nonsense"}}))
        assert main(["break", str(bad)]) == 4

    def test_external_model_refused_before_any_csv_is_read(self, tmp_path, capsys):
        config = tmp_path / "ext.json"
        config.write_text(json.dumps({
            "manifests": [{"name": "gone", "csv_path": str(tmp_path / "missing.csv"),
                           "target_column": "grade", "task": "binary"}],
            "model": {"kind": "external", "command": "true"},
        }))
        assert main(["--out", str(tmp_path / "break"), "break", str(config)]) == 4
        err = capsys.readouterr().err
        assert "got model kind 'external'" in err and "missing.csv" not in err

    def test_external_model_refused_before_any_work(self, tmp_path, capsys):
        config = tmp_path / "ext.json"
        config.write_text(json.dumps({"model": {"kind": "external", "command": "true"}}))
        out_dir = tmp_path / "break"
        assert main(["--out", str(out_dir), "break", str(config)]) == 4
        err = capsys.readouterr().err
        assert "got model kind 'external'" in err and "Traceback" not in err
        assert not (out_dir / "break_matrix.csv").exists()


class TestVetCommand:
    def make_pair(self, tmp_path):
        specs = {
            "bikedekho": ["bike_name", "price_text", "year", "city", "fuel", "brand",
                          "engine_cc", "kms_driven", "owner_count"],
            "cars_24": ["car_name", "listed_price", "make_year", "location", "fuel_type",
                        "make", "engine_capacity", "insurance_validity"],
        }
        manifest_paths = []
        rng = np.random.default_rng(0)
        for name, cols in specs.items():
            csv_path = tmp_path / f"{name}.csv"
            lines = [",".join(cols + ["price"])]
            for i in range(12):
                cells = [f"{c} value {i} extra" for c in cols]
                cells.append(f"{1000 + i * 17 + int(rng.integers(9))}")
                lines.append(",".join(cells))
            csv_path.write_text("\n".join(lines) + "\n")
            mpath = tmp_path / f"{name}.json"
            mpath.write_text(
                json.dumps(
                    {
                        "name": name,
                        "csv_path": str(csv_path),
                        "target_column": "price",
                        "task": "regression",
                        "role_overrides": {c: "textual" for c in cols},
                    }
                )
            )
            manifest_paths.append(str(mpath))
        return manifest_paths

    def test_checks_only(self, dataset, tmp_path, capsys):
        assert main(["--out", str(tmp_path / "vet"), "vet", str(dataset)]) == 0
        out = capsys.readouterr().out
        assert "HasFreeText: pass" in out
        assert (tmp_path / "vet" / "checks.json").exists()

    def test_pair_coverage_reproduces_fixture(self, tmp_path, capsys):
        manifests = self.make_pair(tmp_path)
        out_dir = tmp_path / "vet"
        code = main(
            ["--out", str(out_dir), "vet", *manifests, "--pair", "bikedekho", "cars_24",
             "--fixtures", str(default_fixture_dir())]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.778" in out
        assert (out_dir / "coverage.csv").exists()
        assert (out_dir / "coverage_binary.csv").exists()

    def test_unknown_pair_name_refused_before_ingest(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "vet"
        code = main(["--out", str(out_dir), "vet", str(dataset), "--pair", "taps", "tapz"])
        assert code == 5
        assert "--pair names must match" in capsys.readouterr().err
        assert not (out_dir / "checks.json").exists()

    def test_failure_exits_five(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["vet", str(missing)]) == 5


class TestReportCommand:
    def test_rerender_from_csv(self, dataset, tmp_path, capsys):
        config = eval_config(tmp_path, dataset)
        out_dir = tmp_path / "run"
        assert main(["--out", str(out_dir), "eval", str(config)]) == 0
        capsys.readouterr()
        assert main(["report", str(out_dir / "results.csv")]) == 0
        rendered = capsys.readouterr().out
        assert rendered.startswith("dataset")
        assert "taps" in rendered
        assert rendered == (out_dir / "results.txt").read_text()

    def test_emitted_text_is_the_report_of_the_emitted_csv(self, tmp_path, capsys):
        name = 'taps, "draft"\rcask'
        manifest = DatasetManifest(name, "unused.csv", "y", TaskKind.BINARY)
        results = [
            EvalResult(ExperimentSpec(manifest, TfIdf(), sel, Logistic(), wt), [0.5, 0.75],
                       0.625, 0.125, "accuracy", sel is not None)
            for sel in (None, "variance")
            for wt in (True, False)
        ]
        paths = emit_report(results, tmp_path / "run")
        assert main(["report", str(paths["csv"])]) == 0
        assert capsys.readouterr().out == paths["txt"].read_text(encoding="utf-8")


def command_argv(command, dataset, tmp_path):
    """Arguments under which `command` succeeds, given a writable --out."""
    if command == "ingest":
        return ["ingest", str(dataset)]
    if command == "eval":
        return ["eval", str(eval_config(tmp_path, dataset))]
    if command == "break":
        config = tmp_path / "break.json"
        config.write_text(json.dumps({
            "embedders": [{"kind": "hashed", "buckets": 32}],
            "model": {"kind": "logistic"},
        }))
        return ["break", str(config)]
    if command == "vet":
        return ["vet", str(dataset)]
    run = tmp_path / "run"
    assert main(["--out", str(run), "eval", str(eval_config(tmp_path, dataset))]) == 0
    return ["report", str(run / "results.csv")]


@pytest.mark.parametrize(
    "command, code", [("ingest", 2), ("eval", 3), ("break", 4), ("vet", 5), ("report", 1)]
)
def test_out_naming_a_file_fails_with_the_commands_code(command, code, dataset, tmp_path,
                                                         capsys):
    argv = command_argv(command, dataset, tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    capsys.readouterr()
    assert main(["--out", str(taken), *argv]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{command} failed: ") and "Traceback" not in err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("command, code", [("ingest", 2), ("eval", 3), ("vet", 5)])
def test_oversized_field_fails_with_the_commands_code(command, code, dataset, tmp_path,
                                                      capsys):
    csv_path = tmp_path / "taps.csv"
    csv_path.write_text(csv_path.read_text() + "x" * 200_000 + ",0.5,good\n")
    argv = command_argv(command, dataset, tmp_path)
    assert main(["--out", str(tmp_path / "out"), *argv]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{command} failed: line 62: field larger than field limit")
    assert "Traceback" not in err


def _refuse_to_run(*args, **kwargs):
    raise AssertionError("the command ran before its --out was checked")


def test_out_naming_a_file_is_refused_before_the_break_suite(tmp_path, monkeypatch, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    monkeypatch.setattr(breaklab, "run_break_suite", _refuse_to_run)
    assert main(["--out", str(taken), "break"]) == 4
    err = capsys.readouterr().err
    assert err == f"break failed: output directory {taken} exists and is not a directory\n"


def test_config_out_naming_a_file_is_refused_before_ingest(dataset, tmp_path, monkeypatch,
                                                          capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    config = eval_config(tmp_path, dataset, out=str(taken))
    monkeypatch.setattr(cli, "ingest_dataset", _refuse_to_run)
    assert main(["eval", str(config)]) == 3
    assert "exists and is not a directory" in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("command, code", [("eval", 3), ("break", 4)])
@pytest.mark.parametrize(
    "key, value",
    [("manifests", "taps.json"), ("embedders", 5), ("models", {"kind": "gbdt"}),
     ("selectors", None), ("with_text", True), ("selectors", [{"kind": "variance"}]),
     ("with_text", ["false"]), ("k_folds", None), ("seed", None), ("k_folds", 2.9),
     ("k_folds", True)],
)
def test_wrong_shape_config_is_refused_without_a_traceback(command, code, key, value, tmp_path,
                                                           capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"manifests": [], "embedders": [], "models": [], key: value}))
    assert main([command, str(config)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{command} failed: config {key!r} must be a ") and "Traceback" not in err


@pytest.mark.parametrize("size", [0, -1])
def test_topic_ngram_size_below_one_is_refused_before_ingest(size, dataset, tmp_path,
                                                            monkeypatch, capsys):
    config = eval_config(tmp_path, dataset)
    config.write_text(json.dumps({**json.loads(config.read_text()),
                                  "embedders": [{"kind": "topic", "ngram_size": size}]}))
    monkeypatch.setattr(cli, "ingest_dataset", _refuse_to_run)
    assert main(["eval", str(config)]) == 3
    assert capsys.readouterr().err == "eval failed: ngram_size must be at least 1\n"


@pytest.mark.parametrize(
    "value, reason",
    [(0, "max_vocab must be at least 1"), (-3, "max_vocab must be at least 1"),
     (2.5, "max_vocab must be an integer, got 2.5"),
     (True, "max_vocab must be an integer, got True")],
)
def test_tfidf_max_vocab_that_is_not_a_positive_integer_is_refused_before_ingest(
    value, reason, dataset, tmp_path, monkeypatch, capsys
):
    config = eval_config(tmp_path, dataset)
    config.write_text(json.dumps({**json.loads(config.read_text()),
                                  "embedders": [{"kind": "tfidf", "max_vocab": value}]}))
    monkeypatch.setattr(cli, "ingest_dataset", _refuse_to_run)
    assert main(["eval", str(config)]) == 3
    assert capsys.readouterr().err == f"eval failed: {reason}\n"


@pytest.mark.parametrize(
    "model, reason",
    [({"kind": "ridge", "alpha": -1}, "alpha must be a finite number of at least 0, got -1"),
     ({"kind": "ridge", "alpha": float("nan")},
      "alpha must be a finite number of at least 0, got nan"),
     ({"kind": "logistic", "l2": -1.0}, "l2 must be a finite number of at least 0, got -1.0"),
     ({"kind": "logistic", "max_iter": 0}, "max_iter must be at least 1"),
     ({"kind": "logistic", "max_iter": True}, "max_iter must be an integer, got True"),
     ({"kind": "gbdt", "n_rounds": 2.5}, "n_rounds must be an integer, got 2.5"),
     ({"kind": "gbdt", "max_depth": 1.5}, "max_depth must be an integer, got 1.5")],
)
def test_model_config_outside_its_domain_is_refused_before_ingest(
    model, reason, dataset, tmp_path, monkeypatch, capsys
):
    config = eval_config(tmp_path, dataset)
    config.write_text(json.dumps({**json.loads(config.read_text()), "models": [model]}))
    monkeypatch.setattr(cli, "ingest_dataset", _refuse_to_run)
    assert main(["eval", str(config)]) == 3
    assert capsys.readouterr().err == f"eval failed: {reason}\n"


def test_eval_config_out_that_is_not_a_path_is_refused(dataset, tmp_path, capsys):
    assert main(["eval", str(eval_config(tmp_path, dataset, out=7))]) == 3
    assert capsys.readouterr().err == "eval failed: output directory must be a path, got 7\n"


@pytest.mark.parametrize("command, code", [("eval", 3), ("break", 4)])
def test_config_that_is_not_an_object_is_refused(command, code, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1, 2]")
    assert main([command, str(config)]) == code
    assert capsys.readouterr().err.startswith(f"{command} failed: config ")


@pytest.mark.parametrize(
    "spec, reason",
    [({"model": 5}, "model spec must be a JSON object, got 5"),
     ({"model": {"kind": "gbdt", "depth": 3}}, "unexpected keyword argument 'depth'"),
     ({"embedders": [5]}, "embedder spec must be a JSON object, got 5"),
     ({"embedders": [{"kind": "hashed", "bucket": 8}]}, "unexpected keyword argument 'bucket'"),
     ({"embedders": [{"kind": ["tfidf"]}]}, "unknown embedder kind: ['tfidf']")],
)
def test_malformed_model_or_embedder_is_refused(spec, reason, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(spec))
    assert main(["break", str(config)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("break failed: ") and reason in err
