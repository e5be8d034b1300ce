import csv
import io

import pytest

from tabtext import breaklab
from tabtext.breaklab import (
    BREAK_COLUMN,
    AmbiguityDilution,
    BreakMatrix,
    CompleteLeak,
    NoText,
    NoiseDilution,
    RANDOM_WORDS,
    SENTIMENT_NEGATIVE,
    SENTIMENT_POSITIVE,
    SYNONYMS_TEST,
    SYNONYMS_TRAIN,
    SynonymOod,
    inject,
    make_break_table,
    run_break_suite,
    toy_vector_file,
)
from tabtext.core import Column, ColumnRole, Table, TabTextError, TaskKind
from tabtext.embed import HashedNgram, TfIdf, WordVecAvg
from tabtext.models import External, Gbdt, Ridge
from tabtext.select import NotBinary


class TestWordBanks:
    def test_synonym_groups(self):
        assert SYNONYMS_TRAIN["good"] == [
            "positive", "great", "excellent", "favorable", "pleasant",
            "admirable", "beneficial", "wonderful", "commendable", "worthy",
        ]
        assert SYNONYMS_TRAIN["number"] == [
            "one", "three", "four", "five", "six",
            "seven", "eight", "nine", "ten", "eleven",
        ]
        assert SYNONYMS_TEST == {"good": ["nice"], "number": ["two"]}

    def test_train_test_synonyms_disjoint(self):
        for group in ("good", "number"):
            assert not set(SYNONYMS_TRAIN[group]) & set(SYNONYMS_TEST[group])

    def test_random_words(self):
        assert len(RANDOM_WORDS) == 99
        assert RANDOM_WORDS[:3] == ["breeze", "crystal", "jungle"]
        assert RANDOM_WORDS[-1] == "tassel"
        assert "apple" in RANDOM_WORDS and "mountain" in RANDOM_WORDS

    def test_sentiment_lists(self):
        assert len(SENTIMENT_POSITIVE) == 50
        assert SENTIMENT_POSITIVE[0] == "favorable"
        assert SENTIMENT_POSITIVE[-1] == "winsome"
        assert len(SENTIMENT_NEGATIVE) == 50
        assert SENTIMENT_NEGATIVE[0] == "harsh"
        assert SENTIMENT_NEGATIVE.count("hostile") == 2  # verbatim, duplicate kept
        # label tokens never appear inside the dilution pools
        assert "positive" not in SENTIMENT_POSITIVE
        assert "negative" not in SENTIMENT_NEGATIVE


class TestInject:
    def table(self):
        return make_break_table(40, seed=1)

    def test_no_text_adds_nothing(self):
        t = self.table()
        out = inject(t, NoText(), "train", seed=0)
        assert BREAK_COLUMN not in out.column_names

    def test_complete_leak_verbatim(self):
        t = self.table()
        out = inject(t, CompleteLeak(), "train", seed=0)
        assert out.column(BREAK_COLUMN).values == [str(v) for v in t.target_column.values]

    def test_synonym_test_split_draws_ood(self):
        t = self.table()
        out = inject(t, SynonymOod(), "test", seed=0)
        labels = t.class_labels()
        for cell, label in zip(out.column(BREAK_COLUMN).values, t.target_column.values):
            assert cell == ("nice" if label == labels[0] else "two")

    def test_synonym_train_split_draws_from_bank(self):
        t = self.table()
        out = inject(t, SynonymOod(), "train", seed=0)
        labels = t.class_labels()
        for cell, label in zip(out.column(BREAK_COLUMN).values, t.target_column.values):
            bank = SYNONYMS_TRAIN["good" if label == labels[0] else "number"]
            assert cell in bank

    def test_noise_cell_structure(self):
        t = self.table()
        out = inject(t, NoiseDilution(m_noise=3), "train", seed=0)
        for cell in out.column(BREAK_COLUMN).values:
            words = cell.split()
            assert len(words) == 4
            label_words = [w for w in words if w in ("positive", "negative")]
            assert len(label_words) == 1
            noise = [w for w in words if w not in ("positive", "negative")]
            assert all(w in RANDOM_WORDS for w in noise)
            assert len(set(noise)) == len(noise)  # drawn without replacement

    def test_ambiguity_cell_structure(self):
        t = self.table()
        out = inject(t, AmbiguityDilution(m_words=3), "train", seed=0)
        pool = set(SENTIMENT_POSITIVE) | set(SENTIMENT_NEGATIVE)
        for cell in out.column(BREAK_COLUMN).values:
            words = cell.split()
            assert len(words) == 4
            assert sum(1 for w in words if w in ("positive", "negative")) == 1
            assert all(w in pool for w in words if w not in ("positive", "negative"))

    def test_deterministic(self):
        t = self.table()
        a = inject(t, NoiseDilution(), "train", seed=3).column(BREAK_COLUMN).values
        b = inject(t, NoiseDilution(), "train", seed=3).column(BREAK_COLUMN).values
        assert a == b

    def test_not_binary(self):
        t = Table(
            "reg",
            [
                Column("x", ColumnRole.NUMERICAL, [1.0, 2.0]),
                Column("y", None, [0.5, 0.7]),
            ],
            "y",
            TaskKind.REGRESSION,
        )
        with pytest.raises(NotBinary):
            inject(t, CompleteLeak(), "train", seed=0)


class TestMakeBreakTable:
    def test_shape_and_balance(self):
        t = make_break_table(200, seed=0)
        assert t.n_rows == 200
        counts = [t.target_column.values.count(v) for v in t.class_labels()]
        assert counts == [100, 100]

    def test_deterministic(self):
        a = make_break_table(200, seed=0)
        b = make_break_table(200, seed=0)
        assert a.target_column.values == b.target_column.values
        assert a.column("sensor_a").values == b.column("sensor_a").values


def suite_embedders():
    return [TfIdf(), WordVecAvg(str(toy_vector_file())), HashedNgram()]


def suite_model():
    return Gbdt(max_depth=4, learning_rate=0.3, n_rounds=30)


@pytest.fixture(scope="module")
def matrix():
    table = make_break_table(200, seed=0)
    return run_break_suite([table], suite_embedders(), suite_model(), seed=0)


class TestRunBreakSuite:
    @pytest.mark.parametrize("model", [External("true"), Ridge()], ids=lambda m: m.tag)
    def test_non_classifier_refused_before_subsampling(self, model, monkeypatch):
        def fail(*args):
            raise AssertionError("subsampled before the model was checked")

        monkeypatch.setattr(breaklab, "subsample_rows", fail)
        with pytest.raises(TabTextError, match=f"got model kind '{model.tag}'"):
            run_break_suite([make_break_table(200, seed=0)], suite_embedders(), model, seed=0)

    def test_leak_supremacy(self, matrix):
        for emb in matrix.embedders:
            leak = matrix.values[("complete_leak", "synthetic-binary", emb)]
            for sc in matrix.scenarios:
                assert leak >= matrix.values[(sc, "synthetic-binary", emb)]

    def test_leak_is_exactly_hundred(self, matrix):
        for emb in matrix.embedders:
            assert matrix.values[("complete_leak", "synthetic-binary", emb)] == 100.0

    def test_ood_ordering(self, matrix):
        tf = matrix.values[("synonym_ood", "synthetic-binary", "tfidf")]
        wv = matrix.values[("synonym_ood", "synthetic-binary", "wordvec")]
        assert wv == 100.0
        assert tf < wv

    def test_output_shape(self, matrix):
        text = matrix.to_text()
        assert "== Complete Leak ==" in text
        assert "Average" in text
        assert "non-LLM surrogate" in text
        csv = matrix.to_csv()
        assert csv.splitlines()[0] == "scenario,table,tfidf,wordvec,hashed"

    def test_no_text_cell_fitted_once_per_table(self, monkeypatch):
        # without a text column every embedder assembles the same features,
        # so the no-text cell is fitted once (13 fits, not 15) and scores as
        # each embedder alone does; a base table's own text column is still
        # embedded by each embedder
        plain = make_break_table(200, seed=0)
        words = ["amber", "stout", "crisp", "flat", "hoppy"]
        notes = [f"{words[i % 5]} {words[(i * 3) % 5]}" for i in range(plain.n_rows)]
        texty = Table("texty", plain.columns + [Column("notes", ColumnRole.TEXTUAL, notes)],
                      plain.target, plain.task)
        real_fit = breaklab.fit
        for table, fits in [(plain, 13), (texty, 15)]:
            calls = []
            monkeypatch.setattr(breaklab, "fit", lambda *a: calls.append(a) or real_fit(*a))
            mat = run_break_suite([table], suite_embedders(), suite_model(), seed=0)
            assert len(calls) == fits
            for emb in suite_embedders():
                alone = run_break_suite([table], [emb], suite_model(), seed=0,
                                        scenarios=[NoText()])
                key = ("no_text", table.name, emb.tag)
                assert mat.values[key] == alone.values[key]

    def test_noise_ordering_sweep(self):
        # tf-idf holds at 100 while word-vec degrades as noise words pile up
        table = make_break_table(200, seed=0)
        embedders = [TfIdf(), WordVecAvg(str(toy_vector_file()))]
        accs = {}
        for m in (3, 10, 30):
            mat = run_break_suite(
                [table], embedders, suite_model(), seed=0, scenarios=[NoiseDilution(m)]
            )
            accs[m] = {
                emb: mat.values[("noise_dilution", "synthetic-binary", emb)]
                for emb in ("tfidf", "wordvec")
            }
        assert all(accs[m]["tfidf"] == 100.0 for m in (3, 10, 30))
        assert accs[3]["wordvec"] >= accs[10]["wordvec"] >= accs[30]["wordvec"]
        assert accs[30]["wordvec"] < 100.0


def test_break_matrix_csv_round_trips_any_table_name():
    name = 'beers, EU "2024"\r'
    matrix = BreakMatrix(
        ["no_text"], {"no_text": "No Text"}, [name, "plain"], ["tfidf", "hashed"]
    )
    for i, key in enumerate([(name, "tfidf"), (name, "hashed"), ("plain", "tfidf"),
                             ("plain", "hashed")]):
        matrix.values[("no_text", *key)] = 50.0 + i
    rows = list(csv.reader(io.StringIO(matrix.to_csv())))
    assert rows == [
        ["scenario", "table", "tfidf", "hashed"],
        ["no_text", name, "50.0", "51.0"],
        ["no_text", "plain", "52.0", "53.0"],
        ["no_text", "Average", "51.0", "52.0"],
    ]
