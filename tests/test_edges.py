"""Edge-path coverage: timeouts, delimiters, byte-order marks, multi-table
break averages, and the HTTP chat client against a local stub server."""
import hashlib
import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import tabtext
from tabtext.breaklab import NoiseDilution, make_break_table, run_break_suite, toy_vector_file
from tabtext.cli import _read_config, main
from tabtext.core import Column, Table, TaskKind, k_fold_split
from tabtext.embed import (
    WordVecAvg,
    load_external_embeddings,
    load_word_vectors,
    write_external_embeddings,
)
from tabtext.ingest import DatasetManifest, load_csv, load_manifest
from tabtext.models import ExternalTimeout, Gbdt, run_external
from tabtext.vetting import HttpChatLlmClient

from test_models import make_fm


class TestExternalTimeout:
    def test_sleeping_command_times_out(self, tmp_path):
        stub = tmp_path / "sleepy.py"
        stub.write_text("import time; time.sleep(30)\n")
        with pytest.raises(ExternalTimeout):
            run_external(f"python3 {stub}", make_fm(), make_fm(4, seed=1), timeout=0.5)


class TestDelimiterOverride:
    def test_semicolon(self, tmp_path):
        p = tmp_path / "semi.csv"
        p.write_text("a;y\n1;x\n2;y\n")
        manifest = DatasetManifest("semi", str(p), "y", TaskKind.BINARY, delimiter=";")
        table = load_csv(manifest)
        assert table.column("a").values == ["1", "2"]


BOM = "\ufeff".encode("utf-8")


def _read_csv(d, bom):
    # the target comes first, so a BOM left in the header would hide it
    p = d / "t.csv"
    p.write_bytes(bom + b"y,notes\n1,a\n0,b\n")
    table = load_csv(DatasetManifest("t", str(p), "y", TaskKind.BINARY))
    assert table.meta["csv_sha256"] == hashlib.sha256(p.read_bytes()).hexdigest()
    return table.column_names, table.column("y").values


def _read_manifest(d, bom):
    p = d / "m.json"
    p.write_bytes(bom + b'{"name": "m", "csv_path": "m.csv", "target_column": "y", "task": "binary"}')
    return load_manifest(p)


def _read_config_file(d, bom):
    p = d / "c.json"
    p.write_bytes(bom + b'{"models": [{"kind": "ridge"}], "seed": 3}')
    return _read_config(str(p))


def _read_external_output(d, bom):
    stub = d / "stub.py"
    stub.write_text(
        "import sys\n"
        f"open(sys.argv[3], 'wb').write({bom!r} + b'prediction\\nx\\nx\\nx\\n')\n"
    )
    return run_external(f"python3 {stub}", make_fm(), make_fm(3, seed=5))


def _read_vectors(d, bom):
    p = d / "v.txt"
    p.write_bytes(bom + b"1 2\napple 1.0 2.0\n")
    return load_word_vectors(p).transform(["apple"]).tolist()


def _read_external_embeddings(d, bom):
    table = Table("t", [Column("y", None, ["a", "b"])], "y", TaskKind.BINARY)
    p = d / "e.csv"
    write_external_embeddings(p, np.array([[0.5, 1.0], [2.0, 3.0]]), table)
    for f in (p, d / "e.csv.check"):  # the matrix and its guard
        f.write_bytes(bom + f.read_bytes())
    return load_external_embeddings(p, table).tolist()


def _read_results_csv(d, bom):
    p = d / "results.csv"
    p.write_bytes(
        bom + b"dataset,task,metric,model,embedder,selector,with_text,selector_applied,"
        b"mean,std,folds,seed\nd,binary,accuracy,ridge,tfidf,all,true,false,0.5,0.0,0.5|0.5,0\n"
    )
    assert main(["--out", str(d / "report"), "report", str(p)]) == 0
    return (d / "report" / "results.txt").read_text()


class TestByteOrderMark:
    @pytest.mark.parametrize(
        "read",
        [
            _read_csv, _read_manifest, _read_config_file, _read_external_output, _read_vectors,
            _read_external_embeddings, _read_results_csv,
        ],
    )
    def test_bom_prefixed_file_reads_as_without(self, tmp_path, read):
        (tmp_path / "plain").mkdir()
        (tmp_path / "bom").mkdir()
        assert read(tmp_path / "bom", BOM) == read(tmp_path / "plain", b"")


class TestSmallestFold:
    def test_two_folds_two_rows(self):
        from test_core import make_regression_table

        table = make_regression_table(2)
        fold = k_fold_split(table, 2, seed=0)
        assert sorted(fold.fold_of_row) == [0, 1]


class TestMultiTableBreakSuite:
    def test_average_row_over_two_tables(self):
        tables = [
            make_break_table(120, seed=1, name="tbl-one"),
            make_break_table(120, seed=2, name="tbl-two"),
        ]
        embedders = [WordVecAvg(str(toy_vector_file()))]
        matrix = run_break_suite(
            tables, embedders, Gbdt(3, 0.3, 10), seed=0, scenarios=[NoiseDilution(3)]
        )
        per_table = [
            matrix.values[("noise_dilution", name, "wordvec")] for name in matrix.tables
        ]
        assert matrix.average("noise_dilution", "wordvec") == pytest.approx(
            float(np.mean(per_table))
        )
        text = matrix.to_text()
        assert "tbl-one" in text and "tbl-two" in text and "Average" in text


class _ChatStub(BaseHTTPRequestHandler):
    canned = {"choices": [{"message": {"content": "Final Rating: GREEN - looks usable."}}]}

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        assert body["messages"][0]["role"] == "user"
        payload = json.dumps(self.canned).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class TestHttpChatClient:
    def test_round_trip_against_local_stub(self, monkeypatch):
        server = HTTPServer(("127.0.0.1", 0), _ChatStub)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            monkeypatch.setenv("LLM_API_KEY", "test-key")
            client = HttpChatLlmClient(
                f"http://127.0.0.1:{server.server_port}/v1/chat/completions", "stub-model"
            )
            raw = client.complete("rate this dataset", key=None)
            assert "Final Rating: GREEN" in raw
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_posts_the_prompt_with_the_bearer_key_and_reads_the_content(self, monkeypatch):
        class FakeResponse:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def read(self):
                return json.dumps(_ChatStub.canned).encode("utf-8")

        monkeypatch.setenv("LLM_API_KEY", "sk-test")
        client = HttpChatLlmClient("https://llm.invalid/v1/chat", "some-model")
        with mock.patch("urllib.request.urlopen", return_value=FakeResponse()) as urlopen:
            content = client.complete("rate this dataset")
        assert content == "Final Rating: GREEN - looks usable."
        (request,), kwargs = urlopen.call_args
        assert request.full_url == "https://llm.invalid/v1/chat"
        assert request.get_method() == "POST"
        assert json.loads(request.data) == {
            "model": "some-model",
            "messages": [{"role": "user", "content": "rate this dataset"}],
        }
        assert request.get_header("Authorization") == "Bearer sk-test"
        assert request.get_header("Content-type") == "application/json"
        assert kwargs == {"timeout": 120.0}

    def test_importing_the_cli_loads_no_http_client(self):
        # urllib.request is imported by the one method that posts, and
        # subprocess by the one function that runs a command
        code = (
            "import sys, tabtext.cli; "
            "print(sorted({'urllib.request', 'http.client', 'subprocess'} & set(sys.modules)))"
        )
        assert run_python(code) == "[]"


def run_python(code: str) -> str:
    """The stripped stdout of `python -c code`, importing the tabtext these
    tests import."""
    env = dict(os.environ, PYTHONPATH=str(Path(tabtext.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return out.stdout.strip()


class TestCliSeedOverride:
    def test_flag_overrides_config_seed(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        rows = ["t,x,y"]
        rng = np.random.default_rng(0)
        for i in range(30):
            rows.append(f"word{i % 6} tail,{float(rng.standard_normal()):.4f},{i % 2}")
        csv_path.write_text("\n".join(rows) + "\n")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "name": "d", "csv_path": str(csv_path), "target_column": "y",
            "task": "binary", "role_overrides": {"t": "textual"},
        }))
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "manifests": [str(manifest)],
            "embedders": [{"kind": "hashed", "buckets": 16}],
            "models": [{"kind": "logistic"}],
            "with_text": [True],
            "seed": 0,
        }))
        assert main(["--seed", "9", "--out", str(tmp_path / "r"), "eval", str(config)]) == 0
        content = (tmp_path / "r" / "results.csv").read_text()
        assert content.strip().endswith(",9")
