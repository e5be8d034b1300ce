import csv
import dataclasses
import hashlib
import io
import json
import re
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabtext import ingest
from tabtext.core import MISSING, Column, ColumnRole, Table, TaskKind
from tabtext.ingest import (
    CoercionFailure,
    DatasetManifest,
    EmptyTable,
    MissingTargetColumn,
    ParseError,
    _read_column,
    categoricity_threshold,
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
        assert _read_column(col, 3).role is ColumnRole.NUMERICAL
        coerced = coerce_numeric_column(col)
        assert coerced.values == [12.0, 15.0, 10.0]

    def test_suffix_numeric(self):
        col = Column("dur", None, ["15s", "20s", "30s"])
        assert _read_column(col, 3).role is ColumnRole.NUMERICAL
        assert coerce_numeric_column(col).values == [15.0, 20.0, 30.0]

    def test_comma_and_currency(self):
        col = Column("price", None, ["1,234", "$5,000", "760"])
        assert _read_column(col, 3).role is ColumnRole.NUMERICAL
        assert coerce_numeric_column(col).values == [1234.0, 5000.0, 760.0]

    def test_placeholder_maps_to_missing(self):
        col = Column("v", None, ["1", "2", "3", "4", "5", "6", "7", "8", "9", "no-data"])
        assert _read_column(col, 10).role is ColumnRole.NUMERICAL
        assert coerce_numeric_column(col).values[-1] is MISSING

    def test_zip_prefix_trimmed_under_override(self):
        # varying suffixes are not a repeated affix, so the heuristic says
        # categorical; a manifest override plus coercion trims the digits out
        col = Column("zip", None, ["1234XXX", "5678YYY", "9012ZZZ"])
        assert _read_column(col, 3).role is ColumnRole.CATEGORICAL
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
        assert _read_column(col, 10000).role is ColumnRole.CATEGORICAL

    def test_textual_over_threshold(self):
        values = [f"free text cell number {i}" for i in range(60)]
        col = Column("t", None, values)
        assert _read_column(col, 60).role is ColumnRole.TEXTUAL

    def test_threshold_formula(self):
        assert categoricity_threshold(10000) == 50
        assert categoricity_threshold(500) == 50

    def test_timestamps_numeric(self):
        col = Column("ts", None, ["2021-03-01", "2021-03-02", "2021-03-03"])
        assert _read_column(col, 3).role is ColumnRole.NUMERICAL
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
        role = _read_column(col, len(values)).role
        rev = Column("d", None, values[::-1])
        assert _read_column(rev, len(values)).role is role


class TestLoadCsv:
    def test_missing_markers(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n,1\nNaN,2\nnan,3\nok,4\n")
        table = load_csv(manifest_for(p, target="y", name="t"))
        assert table.column("a").values == [MISSING, MISSING, MISSING, "ok"]

    def test_meta_holds_sha256_of_the_bytes(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_bytes("x,y\r\n1,caf\u00e9\r\n2,b\r\n".encode("utf-8"))
        table = load_csv(manifest_for(p, target="y", name="t"))
        assert table.meta["csv_sha256"] == hashlib.sha256(p.read_bytes()).hexdigest()
        assert table.column("y").values == ["caf\u00e9", "b"]

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

    def test_parse_error_names_the_physical_line(self, tmp_path):
        # the quoted cell spans lines 2 and 3, so the short row is record 4
        # but line 5
        p = tmp_path / "t.csv"
        p.write_text('a,y\n"two\nlines",1\nb,2\n3\n')
        with pytest.raises(ParseError, match=r"^line 5: expected 2 fields, got 1$"):
            load_csv(manifest_for(p, target="y", name="t"))

    def test_oversized_field_is_parse_error_naming_its_line(self, tmp_path):
        # over the csv module's 131 072-character field limit
        p = tmp_path / "t.csv"
        p.write_text("a,y\nshort,1\n" + "x" * 200_000 + ",2\n")
        with pytest.raises(ParseError, match=r"^line 3: field larger than field limit"):
            load_csv(manifest_for(p, target="y", name="t"))

    def test_ragged_row_past_the_cap_is_parse_error(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,y\n1,2\n3,4\n\n5,6,7\n")
        with pytest.raises(ParseError, match=r"^line 5: expected 2 fields, got 3$"):
            load_csv(manifest_for(p, target="y", name="t", row_cap=1))

    def test_rows_past_the_cap_are_not_held(self, tmp_path):
        cap = 2000

        def peak(n_rows):
            p = tmp_path / f"{n_rows}.csv"
            p.write_text("x,y\n" + "".join(f"{i},row {i}\n" for i in range(n_rows)))
            tracemalloc.start()
            try:
                table = load_csv(manifest_for(p, target="y", name="t", row_cap=cap))
                traced = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert table.n_rows == cap and table.meta["rows_over_cap"] == n_rows - cap
            return traced

        assert peak(10 * cap) < 2 * peak(cap)

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


# The two-pass classifier and coercion that the one-pass column read
# replaced, with its two fixes: a cell counts once towards the dominant-affix
# coverage, and an affix number may start with a dot. The oracle for the
# properties below.
_ORACLE_AFFIX_RE = re.compile(
    r"(.{0,5}?)([+-]?(?:\d+(?:\.\d+)?|(?<!\w)\.\d+))(.{0,5})\Z", re.DOTALL
)


def _oracle_affix(cell):
    m = _ORACLE_AFFIX_RE.fullmatch(ingest._clean(cell))
    if m is None:
        return None
    prefix, num, suffix = m.groups()
    if any(ch.isdigit() for ch in prefix) or any(ch.isdigit() for ch in suffix):
        return None
    return prefix, suffix, float(num)


def _oracle_is_timestamps(vals):
    hits = sum(1 for v in vals if ingest._TIMESTAMP_RE.fullmatch(v.strip()))
    return bool(vals) and hits >= ingest.NUMERIC_PARSE_FRACTION * len(vals)


def oracle_classify(col, n_rows):
    vals = col.non_missing()
    if not vals:
        return ColumnRole.TEXTUAL
    if all(isinstance(v, (int, float)) for v in vals):
        return ColumnRole.NUMERICAL
    vals = [str(v) for v in vals]
    need = ingest.NUMERIC_PARSE_FRACTION * len(vals)
    direct = [ingest._direct_number(v) is not None for v in vals]
    if sum(direct) >= need:
        return ColumnRole.NUMERICAL
    pairs = Counter()
    for v in vals:
        parts = _oracle_affix(v)
        if parts is not None and parts[:2] != ("", ""):
            pairs[parts[:2]] += 1
    if pairs:
        dom = pairs.most_common(1)[0][0]
        covered = sum(
            1 for v, d in zip(vals, direct)
            if d or ((p := _oracle_affix(v)) is not None and p[:2] == dom)
        )
        if covered >= need:
            return ColumnRole.NUMERICAL
    if _oracle_is_timestamps(vals):
        return ColumnRole.NUMERICAL
    if len(set(vals)) <= categoricity_threshold(n_rows):
        return ColumnRole.CATEGORICAL
    return ColumnRole.TEXTUAL


def oracle_coerce(col):
    vals = col.non_missing()
    timestamps = _oracle_is_timestamps([str(v) for v in vals]) and not all(
        isinstance(v, (int, float)) for v in vals
    )
    out = []
    failures = 0
    for v in col.values:
        if v is MISSING:
            out.append(MISSING)
            continue
        if isinstance(v, (int, float)):
            out.append(float(v))
            continue
        if timestamps:
            num = ingest._parse_timestamp(str(v))
        else:
            num = ingest._direct_number(str(v))
            if num is None:
                parts = _oracle_affix(str(v))
                num = parts[2] if parts is not None else None
        if num is None:
            failures += 1
            out.append(MISSING)
        else:
            out.append(num)
    if vals and failures > ingest.MAX_COERCION_FAILURES * len(vals):
        raise CoercionFailure(f"{failures}/{len(vals)}")
    return Column(col.name, ColumnRole.NUMERICAL, out)


def oracle_typed_column(col, n_rows):
    role = oracle_classify(col, n_rows)
    if role is ColumnRole.NUMERICAL:
        return oracle_coerce(col)
    return Column(col.name, role, col.values)


def _coerced_by(coerce, col):
    """The coerced column's role and values by repr, or CoercionFailure."""
    try:
        out = coerce(col)
    except CoercionFailure:
        return CoercionFailure
    return out.role, [repr(v) for v in out.values]


_NUMBER = st.one_of(
    st.integers(-999, 999).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(["5.", ".5", "-.25", "12.", "0.5", "+3"]),
)
_AFFIX = st.tuples(
    st.sampled_from(["", "ABV ", "$", "~", "x.", ".", "Rs.", "No. "]),
    _NUMBER,
    st.sampled_from(["", "%", "s", " kg", ".", "e"]),
).map("".join)
# month 13 or 0, day 0 or 32 and second 60 fail the ISO parse
_STAMP = st.tuples(
    st.integers(1, 9999),
    st.integers(0, 13),
    st.integers(0, 32),
    st.sampled_from(["", "T12:30", " 08:15:59", "T23:59:60", " 01:02:03.25", " ", "%"]),
).map(lambda t: f"{t[0]:04d}-{t[1]:02d}-{t[2]:02d}{t[3]}")
# direct numbers that are affix numbers too: "5." wears ("", ".")
_DOTTED = st.integers(0, 99).flatmap(lambda i: st.sampled_from([f"{i}.", f".{i}"]))
_WORD = st.one_of(
    st.sampled_from(["lemon", "lime", "grape", "kiwi", "plum"]),
    st.text(max_size=6),
    st.text("ab ", min_size=6, max_size=12),
)
_CELL_KINDS = [
    _NUMBER,
    _AFFIX,
    _DOTTED,
    _STAMP,
    _WORD,
    st.sampled_from(["", "NaN", MISSING]),
    st.one_of(st.integers(-5, 5), st.floats(), st.booleans()),
]
_ANY_CELL = st.one_of(*_CELL_KINDS)


@st.composite
def _columns(draw, n):
    """A column of one or two cell kinds with up to 1 cell in 6 of any
    kind, which puts the 90% numeric-parse rule near its threshold."""
    kinds = draw(st.lists(st.sampled_from(_CELL_KINDS), min_size=1, max_size=2))
    cells = draw(st.lists(st.one_of(*kinds), min_size=n, max_size=n))
    for i in draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n // 6)):
        cells[i] = draw(_ANY_CELL)
    return cells


class TestOnePass:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(0, 70))
    def test_column_helpers_match_two_pass_oracle(self, data, n):
        col = Column("c", None, data.draw(_columns(n)))
        assert _read_column(col, n).role is oracle_classify(col, n)
        assert _coerced_by(coerce_numeric_column, col) == _coerced_by(oracle_coerce, col)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 70), n_cols=st.integers(1, 3))
    def test_general_preprocess_matches_two_pass_oracle(self, data, n, n_cols):
        cols = [Column(f"c{j}", None, data.draw(_columns(n))) for j in range(n_cols)]
        target = data.draw(st.lists(TestGeneralPreprocess._TARGET, min_size=n, max_size=n))
        table = Table("t", cols + [Column("y", None, target)], "y", TaskKind.REGRESSION)

        def run():
            try:
                cleaned, report = general_preprocess(table)
            except (EmptyTable, CoercionFailure) as exc:
                return type(exc)
            values = [(c.name, c.role, [repr(v) for v in c.values]) for c in cleaned.columns]
            return values, report.to_dict(), report.to_text()

        with mock.patch.object(ingest, "_typed_column", oracle_typed_column):
            expected = run()
        assert run() == expected

    def test_clean_runs_once_per_distinct_string(self, monkeypatch):
        n = 1000
        text = [f"tasting note number {i}" for i in range(n)]
        cols = [
            Column("abv", None, [f"ABV {i % 40 / 10}%" for i in range(n)]),
            Column("price", None, [f"${i % 300},{i % 7}00" for i in range(n)]),
            Column("when", None, [f"2021-03-{i % 28 + 1:02d}" for i in range(n)]),
            Column("style", None, [("ale", "stout", "porter")[i % 3] for i in range(n)]),
            Column("review", None, text),
            Column("y", None, [("a", "b")[i % 2] for i in range(n)]),
        ]
        calls = Counter()
        real_clean = ingest._clean

        def counting_clean(cell):
            calls[cell] += 1
            return real_clean(cell)

        monkeypatch.setattr(ingest, "_clean", counting_clean)
        _, report = general_preprocess(Table("t", cols, "y", TaskKind.BINARY))
        assert list(report.role_counts().values()) == [1, 3, 1]
        # the columns share no string, so each distinct string is cleaned at
        # most once; a timestamp passes its shape test and is never cleaned
        assert max(calls.values()) == 1
        for c in cols[:2]:
            assert set(calls) >= set(c.values)
        assert not calls.keys() & set(cols[2].values)
        # a categorical walk stops at its first string: 333 misses of 1000
        assert calls.keys() & {"ale", "stout", "porter"} == {"ale"}
        # the free-text walk stops at its 101st miss, when 1000 - 101 < 900
        assert sum(calls[t] for t in text) == 101


class TestParseFixes:
    @pytest.mark.parametrize("number", [".5", "5."])
    def test_direct_and_affix_cell_counts_once(self, number):
        # ".5" and "5." were direct numbers and affix numbers at once; counted
        # twice, this column covered 10/10 and then failed coercion 5/10
        head = number.replace("5", "25"), number.replace("5", "75")
        values = [number, *head, number, number, "lemon", "lime", "grape", "kiwi", "plum"]
        col = Column("c", None, values)
        assert _read_column(col, 10).role is ColumnRole.CATEGORICAL
        ids = Column("id", None, [f"row {i}" for i in range(10)])
        table = Table("t", [col, ids, Column("y", None, ["a", "b"] * 5)], "y", TaskKind.BINARY)
        cleaned, _ = general_preprocess(table)
        assert cleaned.column("c").values == values

    def test_leading_dot_affix_number(self):
        values = ["ABV .5%"] + [f"ABV {i}.5%" for i in range(1, 10)]
        col = Column("abv", None, values)
        assert _read_column(col, 10).role is ColumnRole.NUMERICAL
        assert coerce_numeric_column(col).values == [0.5 + i for i in range(10)]

    # (cell, prefix, suffix, number), fixed by hand rather than by a regex
    AFFIX_CASES = [
        ("ABV .5%", "ABV ", "", 0.5),
        ("ABV 12%", "ABV ", "", 12.0),
        ("Rs.500", "Rs.", "", 500.0),
        ("No.12", "No.", "", 12.0),
        ("Vol.3", "Vol.", "", 3.0),
        ("x..5", "x.", "", 0.5),
        ("~-.25 kg", "~", " kg", -0.25),
        ("15s", "", "s", 15.0),
        ("5.", "", ".", 5.0),
    ]

    @pytest.mark.parametrize("cell, prefix, suffix, number", AFFIX_CASES)
    def test_oracle_affix_parse(self, cell, prefix, suffix, number):
        assert _oracle_affix(cell) == (prefix, suffix, number)

    @pytest.mark.parametrize("cell, prefix, suffix, number", AFFIX_CASES)
    def test_affix_column_coerces_to_fixed_number(self, cell, prefix, suffix, number):
        col = Column("c", None, [cell] * 10)
        assert _read_column(col, 10).role is ColumnRole.NUMERICAL
        assert coerce_numeric_column(col).values == [number] * 10

    def test_dot_after_a_word_stays_in_the_prefix(self):
        values = [f"Rs.{100 * i}" for i in range(1, 11)]
        col = Column("price", None, values)
        assert coerce_numeric_column(col).values == [100.0 * i for i in range(1, 11)]
        values = [f"No.{i}" for i in range(10)]
        assert coerce_numeric_column(Column("n", None, values)).values == [
            float(i) for i in range(10)
        ]

    def test_dominant_affix_tie_goes_to_first_pair(self):
        # "5." is a direct number wearing the affix ("", "."); "ABV 5" only an
        # affix number. The two pairs tie 5/5, and the pair met first wins.
        cells = [c for i in range(5) for c in (f"{i}.", f"ABV {i}")]
        assert _read_column(Column("c", None, cells), 10).role is ColumnRole.CATEGORICAL
        assert _read_column(Column("c", None, cells[::-1]), 10).role is ColumnRole.NUMERICAL


def _reference_load_csv(manifest):
    """The row-at-a-time load that the column passes replaced: each record
    is mapped into a row list as it is read, and the rows are transposed at
    the end. It names a ragged record by its record count, not its line. The
    oracle for the property below."""
    path = Path(manifest.csv_path)
    rows = []
    over_cap = 0
    with path.open("rb") as raw:
        csv_sha256 = hashlib.sha256(raw.read()).hexdigest()
        raw.seek(0)
        fh = io.TextIOWrapper(raw, encoding="utf-8-sig", newline="")
        reader = csv.reader(fh, delimiter=manifest.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("file has no header row") from None
        width = len(header)
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != width:
                raise ParseError(f"line {lineno}: expected {width} fields, got {len(rec)}")
            if len(rows) >= manifest.row_cap:
                over_cap += 1
                continue
            rows.append([MISSING if cell in {"", "NaN", "nan"} else cell for cell in rec])
    if manifest.target_column not in header:
        raise MissingTargetColumn(manifest.target_column)
    columns = [Column(name, None, [row[i] for row in rows]) for i, name in enumerate(header)]
    meta = {"rows_over_cap": over_cap, "csv_sha256": csv_sha256}
    return Table(manifest.name, columns, manifest.target_column, manifest.task, meta)


# markers, a quoted comma, quote and line break, and short strings over the
# characters the csv module quotes
_CSV_CELL = st.one_of(
    st.sampled_from(["", "NaN", "nan", "a,b", 'say "hi"', "two\nlines", "1.5", "x"]),
    st.text(st.sampled_from(list('ab ,"\n\r')), max_size=4),
)


@st.composite
def _csv_files(draw):
    """CSV text with a header of 1-4 columns, a few distinct records repeated
    (duplicates), blank lines, in one file of three a ragged record, and
    maybe a BOM; the target is a header name or "zz"."""
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.sampled_from(["y", "a", "b", "c", "Unnamed: 0"]),
                           min_size=width, max_size=width))
    pool = draw(st.lists(st.lists(_CSV_CELL, min_size=width, max_size=width),
                         min_size=1, max_size=4))
    blank = st.just([])
    records = draw(st.lists(st.one_of(st.sampled_from(pool), blank), max_size=12))
    if draw(st.integers(0, 2)) == 0:
        ragged = st.lists(_CSV_CELL, min_size=1, max_size=5).filter(lambda r: len(r) != width)
        records.insert(draw(st.integers(0, len(records))), draw(ragged))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    for rec in records:
        if rec:
            writer.writerow(rec)
        else:
            buf.write("\n")
    bom = draw(st.sampled_from(["", "\ufeff"]))
    target = draw(st.sampled_from([*header, "zz"]))
    return bom + buf.getvalue(), target, draw(st.integers(-1, len(records) + 1))


def _loaded_by(load, manifest):
    """The loaded table's names, roles, values by repr and meta, or the
    type of the error it raised."""
    try:
        table = load(manifest)
    except (ParseError, MissingTargetColumn) as exc:
        return type(exc)
    columns = [(c.name, c.role, [repr(v) for v in c.values]) for c in table.columns]
    return table.name, table.target, table.task, columns, table.meta


class TestColumnLoad:
    @settings(max_examples=300, deadline=None)
    @given(_csv_files())
    def test_load_csv_matches_row_reference(self, file):
        text, target, row_cap = file
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_bytes(text.encode("utf-8"))
            manifest = manifest_for(path, target=target, name="t", row_cap=row_cap)
            assert _loaded_by(load_csv, manifest) == _loaded_by(_reference_load_csv, manifest)


# cells whose values only survive a snapshot by repr: NaN, the infinities
# and negative zero (" nan" is no missing marker), with numbers, affix
# numbers, timestamps, markers and text with quotes, commas and line breaks
_SPECIAL_FLOAT = st.sampled_from([" nan", "NAN", "inf", "-inf", "-0", "-0.0", "1e308"])
_SNAPSHOT_KINDS = [
    st.one_of(_NUMBER, _SPECIAL_FLOAT),
    _AFFIX,
    _STAMP,
    st.text('ab é,"\n', max_size=8),
    st.sampled_from(["", "NaN", "ale", "stout"]),
]


@st.composite
def _snapshot_inputs(draw):
    """CSV text of a regression target and 1-3 feature columns of one kind
    each, up to 1 cell in 6 of any kind; and maybe a role override."""
    n = draw(st.integers(1, 30))
    header = ["y", "a", "b", "c"][: draw(st.integers(2, 4))]
    columns = [draw(st.lists(_SNAPSHOT_KINDS[0], min_size=n, max_size=n))]
    for _ in header[1:]:
        cells = draw(st.lists(draw(st.sampled_from(_SNAPSHOT_KINDS)), min_size=n, max_size=n))
        for i in draw(st.lists(st.integers(0, n - 1), max_size=n // 6)):
            cells[i] = draw(st.one_of(*_SNAPSHOT_KINDS))
        columns.append(cells)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(zip(*columns))
    role = draw(st.sampled_from([None, *ColumnRole]))
    return buf.getvalue(), {} if role is None else {"a": role}


def _ingested(table, report):
    """All of an ingest's output, cell values by repr."""
    columns = [(c.name, c.role, [repr(v) for v in c.values]) for c in table.columns]
    return (table.name, table.target, table.task, table.meta, columns,
            report, report.to_dict(), report.to_text())


def _not_loaded(manifest):
    raise AssertionError("the CSV was loaded, not the snapshot read")


class TestSnapshot:
    @pytest.fixture()
    def snapshot(self, tmp_path, monkeypatch):
        """A manifest whose snapshot sits in the working directory."""
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "brews.csv"
        p.write_text("grade,abv,note,style\n" + "".join(
            f"{('good', 'bad')[i % 2]},{i % 7}.5%,batch {i} tastes of {i % 5},"
            f"{('ale', 'stout', 'porter')[i % 3]}\n"
            for i in range(40)
        ))
        manifest = manifest_for(p)
        ingest.write_table_cache(manifest, *ingest_dataset(manifest))
        return manifest

    @settings(max_examples=150, deadline=None)
    @given(_snapshot_inputs())
    def test_hit_equals_a_fresh_ingest(self, inputs):
        text, overrides = inputs
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.csv"
            path.write_text(text, encoding="utf-8", newline="")
            manifest = manifest_for(path, target="y", task="regression", name="t",
                                    role_overrides=overrides)
            with mock.patch.object(ingest, "SNAPSHOT_DIR", Path(tmp) / "cache"):
                try:
                    fresh = ingest_dataset(manifest)
                except (EmptyTable, CoercionFailure):
                    return
                ingest.write_table_cache(manifest, *fresh)
                with mock.patch.object(ingest, "load_csv", _not_loaded):
                    hit = ingest_dataset(manifest)
        assert _ingested(*hit) == _ingested(*fresh)

    def test_written_under_the_working_directory_and_read_from_any_path(
        self, snapshot, tmp_path, monkeypatch
    ):
        (written,) = (tmp_path / ".tabtext-cache").iterdir()
        assert re.fullmatch(r"brews-[0-9a-f]{16}\.json", written.name)
        moved = tmp_path / "moved.csv"
        moved.write_bytes(Path(snapshot.csv_path).read_bytes())
        monkeypatch.setattr(ingest, "load_csv", _not_loaded)
        assert ingest_dataset(snapshot) == ingest_dataset(
            manifest_for(moved, name=snapshot.name)
        )

    @pytest.mark.parametrize(
        "change",
        [{"name": "other"}, {"target_column": "style"}, {"task": TaskKind.MULTICLASS},
         {"role_overrides": {"abv": ColumnRole.CATEGORICAL}}, {"row_cap": 39},
         {"delimiter": ";"}],
    )
    def test_each_manifest_field_is_in_the_key(self, snapshot, change):
        assert ingest.read_snapshot(snapshot) is not None
        assert ingest.read_snapshot(dataclasses.replace(snapshot, **change)) is None

    def test_one_csv_byte_is_in_the_key(self, snapshot):
        path = Path(snapshot.csv_path)
        data = path.read_bytes()
        path.write_bytes(data.replace(b"batch 39", b"batch 38"))
        assert ingest.read_snapshot(snapshot) is None

    @pytest.mark.parametrize("which", [0, 1], ids=["ingest.py", "core.py"])
    def test_the_cleaning_code_is_in_the_key(self, snapshot, which, tmp_path, monkeypatch):
        sources = list(ingest._KEYED_SOURCES)
        edited = tmp_path / sources[which].name
        edited.write_bytes(sources[which].read_bytes() + b"\n")
        sources[which] = edited
        monkeypatch.setattr(ingest, "_KEYED_SOURCES", tuple(sources))
        assert ingest.read_snapshot(snapshot) is None

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data[: len(data) // 2],
            lambda data: b"\xff\xfe" + data[2:],
            lambda data: re.sub(rb'"key":"[0-9a-f]{4}', b'"key":"0000', data),
            lambda data: data.replace(b'"batch 0 ', b"0,0.5]]]]"),
            lambda data: data.replace(b'"batch 0 tastes of 0"', b"7"),
            lambda data: data.replace(b'"role_assignments":{', b'"role_assignments":[{')[:-3]
                         + b"}]}}",
            lambda data: b"[" + data + b"]",
        ],
        ids=["truncated", "not-utf8", "wrong-key", "not-json", "int-cell", "report-shape",
             "not-an-object"],
    )
    def test_a_damaged_snapshot_falls_back_to_a_fresh_ingest(self, snapshot, damage,
                                                             monkeypatch):
        (path,) = Path(".tabtext-cache").iterdir()
        data = path.read_bytes()
        path.write_bytes(damage(data))
        assert path.read_bytes() != data
        assert ingest.read_snapshot(snapshot) is None
        loads = []
        monkeypatch.setattr(ingest, "load_csv", lambda m: loads.append(m) or load_csv(m))
        fresh = ingest_dataset(snapshot)
        assert loads == [snapshot]
        assert _ingested(*fresh) == _ingested(*general_preprocess(load_csv(snapshot)))

    def test_a_miss_hashes_the_csv_once(self, snapshot, monkeypatch):
        path = Path(snapshot.csv_path)
        path.write_bytes(path.read_bytes().replace(b"batch 39", b"batch 38"))
        hashed = []
        real_sha256_of = ingest._sha256_of
        monkeypatch.setattr(
            ingest, "_sha256_of", lambda fh: hashed.append(Path(fh.name)) or real_sha256_of(fh)
        )
        loads = []
        monkeypatch.setattr(ingest, "load_csv", lambda m: loads.append(m) or load_csv(m))
        table, report = ingest_dataset(snapshot)
        assert hashed.count(path) == 1 and loads == [snapshot]
        assert table.meta["csv_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert _ingested(table, report) == _ingested(*general_preprocess(load_csv(snapshot)))

    def test_a_write_keeps_one_snapshot_per_name(self, snapshot, tmp_path):
        cache = tmp_path / ".tabtext-cache"
        (first,) = cache.iterdir()
        # "brews-x" shares the prefix "brews-"; the .tmp file is a writer's
        copy = tmp_path / "copy.csv"
        copy.write_bytes(Path(snapshot.csv_path).read_bytes())
        other = manifest_for(copy, name="brews-x")
        ingest.write_table_cache(other, *ingest_dataset(other))
        writing = cache / f"{first.name}q1w2e3.tmp"
        writing.write_text("")
        path = Path(snapshot.csv_path)
        path.write_bytes(path.read_bytes().replace(b"batch 39", b"batch 38"))
        ingest.write_table_cache(snapshot, *ingest_dataset(snapshot))
        kept = sorted(p.name for p in cache.iterdir())
        assert len(kept) == 3 and first.name not in kept and writing.name in kept
        assert sum(bool(re.fullmatch(r"brews-[0-9a-f]{16}\.json", k)) for k in kept) == 1
        assert ingest.read_snapshot(snapshot) is not None
        assert ingest.read_snapshot(other) is not None

    def test_library_calls_write_no_snapshot(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "t.csv"
        p.write_text("a,y\nx,1\ny,2\n")
        ingest_dataset(manifest_for(p, target="y", task="regression", name="t"))
        assert sorted(tmp_path.iterdir()) == [p]
