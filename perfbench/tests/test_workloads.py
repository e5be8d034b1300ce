"""The generators are pure functions of the seed, and the expected ingest
report matches what the program's cleaning pass produces."""
import hashlib

import pytest

from tabtext.ingest import ingest_dataset, load_manifest
from workloads import (
    _break_cells,
    _coverage_values,
    break_tables,
    cls_boost_table,
    grid_ridge_table,
    vet_pair_tables,
    word_pool,
    write_ingest_inputs,
)


def table_bytes(table):
    return repr((table.name, table.target, table.task,
                 [(c.name, c.role, c.values) for c in table.columns])).encode()


@pytest.mark.parametrize("make", [grid_ridge_table, cls_boost_table])
def test_tables_depend_only_on_the_seed(make):
    assert table_bytes(make(3)) == table_bytes(make(3))
    assert table_bytes(make(3)) != table_bytes(make(4))


def test_break_and_vet_tables_depend_only_on_the_seed():
    for make in (break_tables, vet_pair_tables):
        a, b, c = make(5), make(5), make(6)
        assert [table_bytes(t) for t in a] == [table_bytes(t) for t in b]
        assert [table_bytes(t) for t in a] != [table_bytes(t) for t in c]
    assert len({t.name for t in break_tables(0)}) == 6


def test_shapes_match_the_workload_definitions():
    grid = grid_ridge_table(0)
    assert grid.n_rows == 3500 and len(set(word_pool(120))) == 120
    cls = cls_boost_table(0)
    assert cls.n_rows == 1000 and len(cls.class_labels()) == 3


def digest(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


def test_ingest_files_depend_only_on_the_seed(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (1, 1, 2)):
        d.mkdir()
        write_ingest_inputs(seed, d, n_lines=3000)
    assert digest(dirs[0]) == digest(dirs[1])
    assert digest(dirs[0])["brewlog.csv"] != digest(dirs[2])["brewlog.csv"]


def test_expected_report_is_what_cleaning_produces(tmp_path, monkeypatch):
    expected = write_ingest_inputs(7, tmp_path, n_lines=3000)
    monkeypatch.chdir(tmp_path)
    _, report = ingest_dataset(load_manifest("brewlog.json"))
    assert report.to_dict() == expected
    assert expected["dropped_rows"]["duplicate"] == 60
    assert expected["dropped_rows"]["missing-target"] > 0


def test_cli_outputs_parse_into_scores():
    matrix = ("scenario,table,tfidf,hashed\n"
              "complete_leak,t1,100.0,100.0\n"
              "complete_leak,Average,100.0,100.0\n")
    assert _break_cells(matrix) == {"break/complete_leak/t1/tfidf": 100.0,
                                    "break/complete_leak/t1/hashed": 100.0}
    coverage = ",a,b\na,,0.778\nb,0.875,\n"
    assert _coverage_values(coverage) == {"coverage/a->b": 0.778, "coverage/b->a": 0.875}
