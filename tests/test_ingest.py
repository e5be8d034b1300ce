import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabtext.core import MISSING, Column, ColumnRole, Table, TaskKind
from tabtext.ingest import (
    CoercionFailure,
    DatasetManifest,
    EmptyTable,
    MissingTargetColumn,
    ParseError,
    categoricity_threshold,
    classify_column,
    coerce_numeric_column,
    general_preprocess,
    ingest_dataset,
    load_csv,
    load_manifest,
)

FIXTURES = Path(__file__).parent / "fixtures" / "ingest"


def manifest_for(path, target="grade", task="binary", **kw):
    return DatasetManifest(
        name=kw.pop("name", "brews"),
        csv_path=str(path),
        target_column=target,
        task=TaskKind.BINARY if task == "binary" else TaskKind.REGRESSION,
        **kw,
    )


class TestClassifyColumn:
    def test_repeated_affix_numeric(self):
        col = Column("abv", None, ["ABV 12%", "ABV 15%", "ABV 10%"])
        assert classify_column(col, 3) is ColumnRole.NUMERICAL
        coerced = coerce_numeric_column(col)
        assert coerced.values == [12.0, 15.0, 10.0]

    def test_suffix_numeric(self):
        col = Column("dur", None, ["15s", "20s", "30s"])
        assert classify_column(col, 3) is ColumnRole.NUMERICAL
        assert coerce_numeric_column(col).values == [15.0, 20.0, 30.0]

    def test_comma_and_currency(self):
        col = Column("price", None, ["1,234", "$5,000", "760"])
        assert classify_column(col, 3) is ColumnRole.NUMERICAL
        assert coerce_numeric_column(col).values == [1234.0, 5000.0, 760.0]

    def test_placeholder_maps_to_missing(self):
        col = Column("v", None, ["1", "2", "3", "4", "5", "6", "7", "8", "9", "no-data"])
        assert classify_column(col, 10) is ColumnRole.NUMERICAL
        assert coerce_numeric_column(col).values[-1] is MISSING

    def test_zip_prefix_trimmed_under_override(self):
        # varying suffixes are not a repeated affix, so the heuristic says
        # categorical; a manifest override plus coercion trims the digits out
        col = Column("zip", None, ["1234XXX", "5678YYY", "9012ZZZ"])
        assert classify_column(col, 3) is ColumnRole.CATEGORICAL
        assert coerce_numeric_column(col).values == [1234.0, 5678.0, 9012.0]

    def test_categorical_under_threshold(self):
        words = [
            "ale", "lager", "stout", "porter", "pilsner", "bock", "dunkel", "weiss",
            "saison", "gose", "kolsch", "tripel", "dubbel", "quad", "barleywine",
            "mild", "bitter", "brown", "amber", "red", "blonde", "golden", "pale",
            "ipa", "dipa", "sour", "lambic", "rauch", "helles", "marzen",
        ]
        values = [words[i % 30] for i in range(10000)]
        col = Column("c", None, values)
        assert classify_column(col, 10000) is ColumnRole.CATEGORICAL

    def test_textual_over_threshold(self):
        values = [f"free text cell number {i}" for i in range(60)]
        col = Column("t", None, values)
        assert classify_column(col, 60) is ColumnRole.TEXTUAL

    def test_threshold_formula(self):
        assert categoricity_threshold(10000) == 50
        assert categoricity_threshold(500) == 50

    def test_timestamps_numeric(self):
        col = Column("ts", None, ["2021-03-01", "2021-03-02", "2021-03-03"])
        assert classify_column(col, 3) is ColumnRole.NUMERICAL
        vals = coerce_numeric_column(col).values
        assert vals[1] - vals[0] == 86400.0

    def test_coercion_failure_signals_misclassification(self):
        col = Column("bad", None, ["1", "x", "y", "2"])
        with pytest.raises(CoercionFailure):
            coerce_numeric_column(col)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.text(max_size=20),
                # what the timestamp and number-with-affix parsers look for
                st.from_regex(r"\d{4}-\d{2}-\d{2}([T ]\d{2}:\d{2}(:\d{2}(\.\d+)?)?)?", fullmatch=True),
                st.from_regex(r".{0,6}[+-]?\d+(\.\d+)?.{0,6}", fullmatch=True),
                st.just(MISSING),
            ),
            max_size=20,
        )
    )
    def test_coercion_raises_only_coercion_failure(self, values):
        try:
            col = coerce_numeric_column(Column("c", None, values))
        except CoercionFailure:
            return
        assert len(col.values) == len(values)
        assert all(v is MISSING or isinstance(v, float) for v in col.values)

    def test_role_stable_under_row_permutation(self):
        values = ["15s", "20s", "30s", "junk"] * 5
        col = Column("d", None, values)
        role = classify_column(col, len(values))
        rev = Column("d", None, values[::-1])
        assert classify_column(rev, len(values)) is role


class TestLoadCsv:
    def test_missing_markers(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n,1\nNaN,2\nnan,3\nok,4\n")
        table = load_csv(manifest_for(p, target="y", name="t"))
        assert table.column("a").values == [MISSING, MISSING, MISSING, "ok"]

    def test_missing_target_column(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n")
        with pytest.raises(MissingTargetColumn):
            load_csv(manifest_for(p, target="zzz", name="t"))

    def test_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(manifest_for(tmp_path / "nope.csv", target="y", name="t"))

    def test_ragged_row_is_parse_error(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,2\n3\n")
        with pytest.raises(ParseError):
            load_csv(manifest_for(p, target="y", name="t"))

    def test_header_only_then_empty_table(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n")
        table = load_csv(manifest_for(p, target="y", name="t"))
        assert table.n_rows == 0
        with pytest.raises(EmptyTable):
            general_preprocess(table)

    def test_row_cap_head_truncation(self, tmp_path):
        p = tmp_path / "big.csv"
        with p.open("w") as fh:
            fh.write("x,y\n")
            for i in range(150000):
                fh.write(f"{i},{i % 2}\n")
        table = load_csv(manifest_for(p, target="y", name="big"))
        assert table.n_rows == 100000
        assert table.meta["rows_over_cap"] == 50000
        # head truncation: the first rows survive
        assert table.column("x").values[0] == "0"
        assert table.column("x").values[-1] == "99999"


class TestGeneralPreprocess:
    def test_sixty_percent_missing_dropped(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = ["m,x,y"] + [",%d,a" % i if i < 6 else "v,%d,b" % i for i in range(10)]
        p.write_text("\n".join(rows) + "\n")
        table = load_csv(manifest_for(p, target="y", name="t"))
        _, report = general_preprocess(table)
        assert ("m", "missing>50%") in report.dropped_columns

    def test_role_override_exempts_missing_drop(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = ["m,x,y"] + [",%d,a" % i if i < 6 else "v%d,%d,b" % (i, i) for i in range(10)]
        p.write_text("\n".join(rows) + "\n")
        table = load_csv(manifest_for(p, target="y", name="t"))
        cleaned, report = general_preprocess(table, {"m": ColumnRole.CATEGORICAL})
        assert ("m", "missing>50%") not in report.dropped_columns
        assert report.role_assignments["m"] is ColumnRole.CATEGORICAL

    def test_constant_dropped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("c,x,y\n" + "\n".join(f"yes,{i},{i % 2}" for i in range(6)) + "\n")
        table = load_csv(manifest_for(p, target="y", name="t"))
        _, report = general_preprocess(table)
        assert ("c", "constant") in report.dropped_columns

    def test_dedup_keeps_first(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,y\n1,a\n1,a\n2,b\n")
        table = load_csv(manifest_for(p, target="y", name="t"))
        cleaned, report = general_preprocess(table)
        assert cleaned.n_rows == 2
        assert report.dropped_rows["duplicate"] == 1

    def test_column_drop_can_merge_rows_before_dedup(self, tmp_path):
        # rows differing only in a dropped column become duplicates, proving
        # column drops run before duplicate removal
        p = tmp_path / "t.csv"
        rows = ["m,x,y"]
        rows += ["v,1,a", ",1,a"]
        rows += [",%d,b" % i for i in range(2, 8)]
        p.write_text("\n".join(rows) + "\n")
        table = load_csv(manifest_for(p, target="y", name="t"))
        cleaned, report = general_preprocess(table)
        assert ("m", "missing>50%") in report.dropped_columns
        assert report.dropped_rows["duplicate"] == 1

    def test_dedup_precedes_target_drop(self, tmp_path):
        # an identical pair with missing targets counts one duplicate and one
        # missing-target row, pinning the listed order
        p = tmp_path / "t.csv"
        p.write_text("x,y\n1,\n1,\n2,a\n3,b\n")
        table = load_csv(manifest_for(p, target="y", name="t"))
        cleaned, report = general_preprocess(table)
        assert report.dropped_rows["duplicate"] == 1
        assert report.dropped_rows["missing-target"] == 1
        assert cleaned.n_rows == 2

    def test_unnamed_dropped(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("Unnamed: 0,x,y\n0,1,a\n1,2,b\n")
        table = load_csv(manifest_for(p, target="y", name="t"))
        _, report = general_preprocess(table)
        assert ("Unnamed: 0", "unnamed") in report.dropped_columns

    def test_idempotent(self):
        manifest = manifest_for(FIXTURES / "brews.csv")
        table, _ = ingest_dataset(manifest)
        again, _ = general_preprocess(table)
        assert again.n_rows == table.n_rows
        for ca, cb in zip(table.columns, again.columns):
            assert ca.name == cb.name
            assert ca.role == cb.role
            assert ca.values == cb.values

    def test_regression_target_coerced(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("x,y\n1,2.5\n2,junk\n3,4.5\n")
        table = load_csv(manifest_for(p, target="y", name="t", task="regression"))
        cleaned, report = general_preprocess(table)
        assert cleaned.n_rows == 2
        assert report.dropped_rows["missing-target"] == 1

    # one kind of value per column; about 1 cell in 20 missing and 1 in 20 junk,
    # which puts the 90% numeric-parse rule near its threshold
    _KINDS = [
        st.floats(-1e3, 1e3).map(repr),
        st.integers(0, 99).map(lambda v: f"ABV {v}%"),
        st.dates().map(str),
        st.sampled_from(["red", "blue", "green"]),
        st.text(max_size=8),
    ]
    _TARGET = st.one_of(st.floats(-1e3, 1e3).map(repr), st.just("junk"), st.just(MISSING))

    @staticmethod
    def _cells(kind):
        return st.tuples(st.integers(0, 19), kind, st.text(max_size=3)).map(
            lambda t: MISSING if t[0] == 0 else t[2] if t[0] == 1 else t[1]
        )

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 80), n_cols=st.integers(1, 3), data=st.data())
    def test_roles_invariant_under_row_permutation(self, n, n_cols, data):
        # over 50 distinct values are needed for a textual role
        kinds = [data.draw(st.sampled_from(self._KINDS)) for _ in range(n_cols)]
        columns = [data.draw(st.lists(self._cells(k), min_size=n, max_size=n)) for k in kinds]
        target = data.draw(st.lists(self._TARGET, min_size=n, max_size=n))
        order = data.draw(st.permutations(range(n)))

        def cleaned(rows):
            cols = [Column(f"c{j}", None, [c[i] for i in rows]) for j, c in enumerate(columns)]
            cols.append(Column("y", None, [target[i] for i in rows]))
            try:
                _, report = general_preprocess(Table("t", cols, "y", TaskKind.REGRESSION))
            except (EmptyTable, CoercionFailure) as exc:
                return type(exc)
            return report.to_dict()

        assert cleaned(order) == cleaned(range(n))


class TestGoldenFixture:
    def test_structure(self):
        table, report = ingest_dataset(manifest_for(FIXTURES / "brews.csv"))
        assert table.n_rows == 10
        assert report.dropped_rows == {"row-cap": 0, "duplicate": 1, "missing-target": 1}
        assert report.dropped_columns == [
            ("mostly_gone", "missing>50%"),
            ("always_same", "constant"),
            ("Unnamed: 0", "unnamed"),
        ]
        assert report.role_assignments == {
            "abv": ColumnRole.NUMERICAL,
            "duration": ColumnRole.NUMERICAL,
            "price": ColumnRole.NUMERICAL,
            "when": ColumnRole.NUMERICAL,
            "note": ColumnRole.CATEGORICAL,
        }
        assert table.column("abv").values[:3] == [12.0, 15.0, 10.0]
        assert table.column("duration").values[:3] == [15.0, 20.0, 30.0]
        assert table.column("price").values[:3] == [1234.0, 2000.0, 5000.0]

    def test_report_bytes_match_golden(self):
        _, report = ingest_dataset(manifest_for(FIXTURES / "brews.csv"))
        golden = (FIXTURES / "golden_report.txt").read_text(encoding="utf-8")
        assert report.to_text() == golden


class TestManifest:
    def test_load_manifest_with_overrides(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("a,y\nfoo,1\nbar,0\nfoo,1\nbaz,0\nqux,1\nzap,0\n")
        mpath = tmp_path / "m.json"
        mpath.write_text(
            json.dumps(
                {
                    "name": "d",
                    "csv_path": str(csv_path),
                    "target_column": "y",
                    "task": "b-clf",
                    "role_overrides": {"a": "textual"},
                    "row_cap": 10,
                }
            )
        )
        manifest = load_manifest(mpath)
        assert manifest.task is TaskKind.BINARY
        table, report = ingest_dataset(manifest)
        assert report.role_assignments["a"] is ColumnRole.TEXTUAL
