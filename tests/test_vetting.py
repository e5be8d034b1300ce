import csv

import numpy as np
import pytest

from tabtext.core import Column, ColumnRole, Table, TaskKind
from tabtext.vetting import (
    CoverageMatrix,
    EmptySchema,
    FeatureMatchReport,
    MalformedResponse,
    ReplayLlmClient,
    binarize,
    build_similarity_prompt,
    coverage_matrix,
    default_fixture_dir,
    directional_coverage,
    export_coverage,
    parse_match_response,
    run_curation_checks,
)


def report(n_sim, n_dis_a, n_dis_b):
    return FeatureMatchReport(
        "a",
        "b",
        [(f"a{i}", f"b{i}", "match") for i in range(n_sim)],
        [f"da{i}" for i in range(n_dis_a)],
        [f"db{i}" for i in range(n_dis_b)],
    )


class TestDirectionalCoverage:
    def test_seven_of_nine(self):
        a_to_b, b_to_a = directional_coverage(report(7, 2, 1))
        assert a_to_b == pytest.approx(7 / 9, abs=1e-12)
        assert a_to_b == pytest.approx(0.778, abs=5e-4)
        assert b_to_a == pytest.approx(7 / 8, abs=1e-12)

    def test_one_of_nineteen(self):
        a_to_b, _ = directional_coverage(report(1, 18, 16))
        assert a_to_b == pytest.approx(1 / 19, abs=1e-12)
        assert a_to_b == pytest.approx(0.053, abs=5e-4)

    def test_zero_similar(self):
        a_to_b, b_to_a = directional_coverage(report(0, 4, 6))
        assert a_to_b == 0.0
        assert b_to_a == 0.0

    def test_asymmetry(self):
        a_to_b, b_to_a = directional_coverage(report(7, 10, 1))
        assert a_to_b != b_to_a

    def test_empty_schema(self):
        with pytest.raises(EmptySchema):
            directional_coverage(report(0, 0, 3))


class TestBinarize:
    def make(self, values):
        n = len(values)
        cov = np.full((n, n), np.nan)
        for i in range(n):
            for j in range(n):
                if i != j:
                    cov[i, j] = values[i]
        return CoverageMatrix([f"d{i}" for i in range(n)], cov, np.full((n, n), -1, int))

    def test_threshold_inclusive_at_half(self):
        m = binarize(self.make([0.5, 0.49, 0.778]))
        assert m.binary[0, 1] == 1
        assert m.binary[1, 0] == 0
        assert m.binary[2, 0] == 1

    def test_diagonal_untouched(self):
        m = binarize(self.make([0.9, 0.9]))
        assert m.binary[0, 0] == -1
        assert np.isnan(m.coverage[0, 0])


def vehicle_table(name, cols):
    columns = [Column(c, ColumnRole.TEXTUAL, ["a", "b", "c"]) for c in cols]
    columns.append(Column("price", None, [1.0, 2.0, 3.0]))
    return Table(name, columns, "price", TaskKind.REGRESSION)


class TestPrompts:
    def test_similarity_prompt_contents(self):
        a = vehicle_table("bikedekho", ["bike_name", "city"])
        b = vehicle_table("cars_24", ["car_name", "location"])
        prompt = build_similarity_prompt(a, b)
        assert "Find Similar Features" in prompt
        assert "Identify Dissimilar Features" in prompt
        assert "bikedekho" in prompt and "cars_24" in prompt
        assert "bike_name: [a, b, c]" in prompt
        assert prompt == build_similarity_prompt(a, b)


class TestParseMatchResponse:
    def test_fixture_parses(self):
        raw = (default_fixture_dir() / "bikedekho__vs__cars_24.txt").read_text()
        rep = parse_match_response(raw, "bikedekho", "cars_24")
        assert len(rep.similar_pairs) == 7
        assert rep.similar_pairs[0][0] == "bike_name"
        assert rep.similar_pairs[0][1] == "car_name"
        assert rep.dissimilar_a == ["kms_driven", "owner_count"]
        assert rep.dissimilar_b == ["insurance_validity"]

    def test_plain_json_without_wrapper(self):
        raw = '{"similar_features": [], "dissimilar_features": {"dataset1": [], "dataset2": ["x"]}}'
        rep = parse_match_response(raw)
        assert rep.similar_pairs == []
        assert rep.dissimilar_b == ["x"]

    def test_unknown_keys_ignored(self):
        raw = '{"similar_features": [], "dissimilar_features": {}, "confidence": 0.9}'
        rep = parse_match_response(raw)
        assert rep.similar_pairs == []

    def test_non_json_rejected(self):
        with pytest.raises(MalformedResponse):
            parse_match_response("I could not compare these datasets, sorry.")

    @pytest.mark.parametrize(
        "dissimilar, similar",
        [
            ('["kms_driven"]', "[]"),
            ('"none"', "[]"),
            ('{"dataset1": {"kms_driven": "x"}}', "[]"),
            ('{"dataset2": [{}]}', "[]"),
            ('{"dataset1": [{"col_name": {}}]}', "[]"),
            ('{"dataset1": [{"col_name": 3}]}', "[]"),
            ("{}", '[{"dataset1_col_name": {}, "dataset2_col_name": "b"}]'),
        ],
    )
    def test_malformed_column_entries_rejected(self, dissimilar, similar):
        raw = f'{{"similar_features": {similar}, "dissimilar_features": {dissimilar}}}'
        with pytest.raises(MalformedResponse):
            parse_match_response(raw)


def dual_signal_table(n=60, text_signal=True, seed=0):
    rng = np.random.default_rng(seed)
    labels = ["yes" if i % 2 == 0 else "no" for i in range(n)]
    if text_signal:
        text = [f"{'shiny' if v == 'yes' else 'rusty'} widget" for v in labels]
    else:
        text = [f"widget number {i}" for i in range(n)]
    num = [0.8 * (1.0 if v == "yes" else -1.0) + float(e) for v, e in
           zip(labels, rng.standard_normal(n))]
    return Table(
        "widgets",
        [
            Column("num", ColumnRole.NUMERICAL, num),
            Column("desc", ColumnRole.TEXTUAL, text),
            Column("label", None, labels),
        ],
        "label",
        TaskKind.BINARY,
    )


class TestCurationChecks:
    def test_rules_present_and_manual_verdicts(self):
        checks = run_curation_checks(dual_signal_table())
        by_rule = {c.rule: c for c in checks}
        assert set(by_rule) == {
            "HasFreeText", "DualSignalProxy", "PredictiveTask", "Accessible", "DomainDiversity",
        }
        assert by_rule["Accessible"].verdict == "manual"
        assert by_rule["DomainDiversity"].verdict == "manual"

    def test_has_free_text_mechanical(self):
        t = dual_signal_table()
        assert next(c for c in run_curation_checks(t) if c.rule == "HasFreeText").verdict == "pass"
        no_text = Table(
            "n",
            [Column("x", ColumnRole.NUMERICAL, [1.0] * 10 + [2.0] * 10),
             Column("y", None, ["a", "b"] * 10)],
            "y",
            TaskKind.BINARY,
        )
        assert (
            next(c for c in run_curation_checks(no_text) if c.rule == "HasFreeText").verdict
            == "fail"
        )

    def test_dual_signal_pass_and_fail(self):
        passing = run_curation_checks(dual_signal_table(text_signal=True))
        assert next(c for c in passing if c.rule == "DualSignalProxy").verdict == "pass"
        failing = run_curation_checks(dual_signal_table(text_signal=False))
        check = next(c for c in failing if c.rule == "DualSignalProxy")
        assert check.verdict == "fail"
        assert "heuristic" in check.detail


class TestEndToEnd:
    def test_coverage_matrix_from_fixture(self, tmp_path):
        a = vehicle_table(
            "bikedekho",
            ["bike_name", "price_text", "year", "city", "fuel", "brand", "engine_cc",
             "kms_driven", "owner_count"],
        )
        b = vehicle_table(
            "cars_24",
            ["car_name", "listed_price", "make_year", "location", "fuel_type", "make",
             "engine_capacity", "insurance_validity"],
        )
        client = ReplayLlmClient(default_fixture_dir())
        matrix = coverage_matrix([a, b], client)
        assert matrix.coverage[0, 1] == pytest.approx(7 / 9)
        assert matrix.coverage[1, 0] == pytest.approx(7 / 8)
        assert matrix.binary[0, 1] == 1
        assert matrix.binary[1, 0] == 1
        paths = export_coverage(matrix, tmp_path)
        assert "0.778" in paths["coverage"].read_text()

    def test_missing_fixture_raises(self):
        client = ReplayLlmClient(default_fixture_dir())
        with pytest.raises(FileNotFoundError):
            client.complete("prompt", key="nope__vs__nothing")


def test_coverage_csvs_round_trip_any_dataset_name(tmp_path):
    names = ['beers, EU "2024"\r', "ciders"]
    coverage = np.array([[np.nan, 0.25], [0.75, np.nan]])
    paths = export_coverage(binarize(CoverageMatrix(names, coverage, np.full((2, 2), -1))),
                            tmp_path)
    expected = {
        "coverage": [["", *names], [names[0], "", "0.250"], [names[1], "0.750", ""]],
        "binary": [["", *names], [names[0], "", "0"], [names[1], "1", ""]],
    }
    for key, rows in expected.items():
        with open(paths[key], newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == rows
