import json
from pathlib import Path

import numpy as np
import pytest

from tabtext import breaklab, cli
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
    def test_success(self, dataset, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "cache"), "ingest", str(dataset)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Cat" in out and "Num" in out and "Text" in out
        assert (tmp_path / "cache" / "taps.clean.csv").exists()
        assert (tmp_path / "cache" / "taps.clean.csv.roles.json").exists()

    def test_missing_file_exits_two(self, tmp_path):
        manifest = tmp_path / "m.json"
        write_manifest(manifest, tmp_path / "missing.csv")
        assert main(["ingest", str(manifest)]) == 2


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
     ("selectors", None), ("with_text", True)],
)
def test_wrong_shape_config_is_refused_without_a_traceback(command, code, key, value, tmp_path,
                                                           capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"manifests": [], "embedders": [], "models": [], key: value}))
    assert main([command, str(config)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{command} failed: config {key!r} must be a ") and "Traceback" not in err


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
     ({"embedders": [{"kind": "hashed", "bucket": 8}]}, "unexpected keyword argument 'bucket'")],
)
def test_malformed_model_or_embedder_is_refused(spec, reason, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(spec))
    assert main(["break", str(config)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("break failed: ") and reason in err
