import hashlib
import importlib.util
import math
import re
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tabtext import core, embed
from tabtext.breaklab import toy_vector_file
from tabtext.core import (
    MISSING,
    Column,
    ColumnRole,
    FoldAssignment,
    MemoryBudgetExceeded,
    TabTextError,
    Table,
    TaskKind,
    subsample_rows,
)
from tabtext.embed import (
    ChecksumMismatch,
    EmbeddingBlock,
    EmptyCorpus,
    ExternalEmbedding,
    FeatureMatrix,
    HashedNgram,
    MalformedVectorFile,
    RowCountMismatch,
    TableEncoding,
    TextCorpus,
    TfIdf,
    TopicFactorization,
    WordVecAvg,
    WordVecModel,
    _buckets,
    _median,
    assemble_features,
    factorize_counts,
    load_external_embeddings,
    load_word_vectors,
    text_corpora,
    tokenize,
    write_external_embeddings,
)
from tabtext.sparse import CsrMatrix, hstack

from references import word_ngrams


class TestTokenize:
    def test_lowercase_split(self):
        assert tokenize("Hello, World!  x2") == ["hello", "world", "x2"]

    def test_ngrams(self):
        assert word_ngrams(["a", "b", "c"], 1, 2) == ["a", "b", "c", "a b", "b c"]
        assert word_ngrams(["a", "b", "c"], 2, 3) == ["a b", "b c", "a b c"]
        assert word_ngrams(["a", "b"], 3, 3) == []


def reference_tokens(text):
    return re.findall(r"[a-z0-9]+", text.lower())


_SPECIAL_TEXTS = [
    "",
    "... !!! ,",
    "İstanbul İ",  # lowercases to "i" and a combining dot
    "Kelvin",  # the Kelvin sign lowercases to "k"
    "Straße",
    "a\x00b",
    "ΟΔΟΣ σ ΑΣ.",  # final sigma
    "x\ud800y\udfff",
    "Café crème",
    "😀a1😀",
]


class TestColumnTokenizer:
    @settings(max_examples=300, deadline=None)
    @given(
        texts=st.lists(
            st.one_of(
                st.text(st.characters(exclude_categories=()), max_size=40),
                st.sampled_from(_SPECIAL_TEXTS),
            ),
            max_size=12,
        ),
        chunk=st.sampled_from([1, 3, 1 << 16]),
    )
    def test_matches_the_regex_over_unicode(self, texts, chunk):
        with mock.patch.object(embed, "_CHUNK_CHARS", chunk):
            words, ids, indptr = embed._tokenize_column(texts)
        assert words == sorted(set(words))
        got = [[words[i] for i in ids[a:b]] for a, b in zip(indptr[:-1], indptr[1:])]
        assert got == [reference_tokens(t) for t in texts]
        assert [tokenize(t) for t in texts] == got

    def test_special_texts(self):
        assert [tokenize(t) for t in _SPECIAL_TEXTS] == [
            [],
            [],
            ["i", "stanbul", "i"],
            ["kelvin"],
            ["stra", "e"],
            ["a", "b"],
            [],
            ["x", "y"],
            ["caf", "cr", "me"],
            ["a1"],
        ]

    def test_counting_a_column_holds_no_token_lists(self, monkeypatch):
        # the review column of the benchmark's 20 000-line CSV (seed 0):
        # holding every text's token list would take 12.3 MiB for the lists
        # alone; counting its unigrams one text at a time peaked at 7.1 MiB
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads",
            Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py",
        )
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
        spec.loader.exec_module(workloads)
        texts = [row[5] for row in workloads.ingest_rows(0).rows]
        assert len(texts) == 20_000
        tracemalloc.start()
        try:
            terms, counts = TextCorpus(texts).ngram_counts("word", 1, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts.shape == (20_000, len(terms))
        assert peak < 7 * 2**20


class TestWordVecBlock:
    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.sampled_from([1, 2, 8]),
        data=st.data(),
    )
    def test_rows_equal_the_per_text_mean(self, dim, data):
        # long texts put more than eight hits in a row, where numpy's
        # pairwise sum of a one-wide vector differs from a sequential one
        vocab = ["a", "b", "c", "dd"]
        values = st.one_of(
            st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([-0.0, 0.0, 1e-300])
        )
        vectors = {
            w: np.array(data.draw(st.lists(values, min_size=dim, max_size=dim))) for w in vocab
        }
        words = st.sampled_from(vocab + ["zz", "A", "d-d", "é"])
        texts = data.draw(st.lists(st.lists(words, max_size=20).map(" ".join), max_size=8))
        got = WordVecModel(vectors, dim).transform(texts)
        want = np.zeros((len(texts), dim))
        for r, text in enumerate(texts):
            hits = [vectors[t] for t in reference_tokens(text) if t in vectors]
            if hits:
                want[r] = np.mean(hits, axis=0)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestTfIdfConfig:
    @pytest.mark.parametrize("lo, hi", [(0, 1), (-1, 2), (3, 2)])
    def test_refuses_bad_ngram_ranges(self, lo, hi):
        with pytest.raises(ValueError, match="ngram_lo"):
            TfIdf(lo, hi)

    @pytest.mark.parametrize("lo, hi, reason", [
        (1.5, 2, "ngram_lo must be an integer, got 1.5"),
        (True, 2, "ngram_lo must be an integer, got True"),
        (1, 2.0, "ngram_hi must be an integer, got 2.0"),
        (1, 0, "ngram_hi must be at least 1"),
    ])
    def test_refuses_ngram_bounds_that_are_not_integers(self, lo, hi, reason):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            TfIdf(lo, hi)


    @pytest.mark.parametrize("max_vocab", [0, -3, True, False, 2.5, 1.0, "5", None])
    def test_refuses_max_vocab_that_is_not_a_positive_integer(self, max_vocab):
        with pytest.raises(ValueError, match="max_vocab"):
            TfIdf(max_vocab=max_vocab)


class TestTfIdf:
    def test_idf_hand_computed(self):
        # corpus ["a b", "a c"]: idf(a) = ln((1+2)/(1+2)) + 1 = 1.0
        model = TfIdf(1, 1).fit(["a b", "a c"])
        a_col = model.vocab["a"]
        assert model.idf[a_col] == pytest.approx(1.0, abs=1e-12)
        b_col = model.vocab["b"]
        assert model.idf[b_col] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)

    def test_oov_document_is_zero_vector(self):
        model = TfIdf().fit(["alpha beta", "beta gamma"])
        out = model.transform(["zzz qqq unknown"]).toarray()
        assert np.all(out == 0.0)

    def test_rows_l2_normalized(self):
        model = TfIdf().fit(["alpha beta gamma", "beta gamma delta", "alpha delta"])
        out = model.transform(["alpha beta beta", "gamma delta"]).toarray()
        for row in out:
            assert np.linalg.norm(row) == pytest.approx(1.0, abs=1e-9)

    def test_vocab_cap_by_df_ties_lexicographic(self):
        model = TfIdf(1, 1, max_vocab=2).fit(["b c", "b c", "a b"])
        # df: b=3, c=2, a=1 -> keep b, c
        assert set(model.vocab) == {"b", "c"}
        model = TfIdf(1, 1, max_vocab=2).fit(["a b", "c a", "b c"])
        # all df=2: lexicographic tie-break keeps a, b
        assert set(model.vocab) == {"a", "b"}

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            TfIdf().fit([])
        with pytest.raises(EmptyCorpus):
            TfIdf().fit(["", ""])

    def test_fit_sees_only_train(self):
        model = TfIdf().fit(["alpha beta"])
        assert "gamma" not in model.vocab


class TestWordVec:
    def test_mean_of_one(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("1 2\napple 1.0 2.0\n")
        model = load_word_vectors(p)
        out = model.transform(["apple"])
        assert np.allclose(out, [[1.0, 2.0]])

    def test_midpoint(self):
        model = WordVecModel({"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0])}, 2)
        assert np.allclose(model.transform(["a b"]), [[0.5, 0.5]])

    def test_all_oov_zero(self):
        model = WordVecModel({"a": np.array([1.0, 0.0])}, 2)
        assert np.allclose(model.transform(["zzz qqq"]), [[0.0, 0.0]])

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("not a header\n")
        with pytest.raises(MalformedVectorFile):
            load_word_vectors(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_text("1 3\napple 1.0 2.0\n")
        with pytest.raises(MalformedVectorFile):
            load_word_vectors(p)

    def test_synonym_collapse(self):
        # two tokens sharing a vector: swapping them never changes the output
        v = np.array([0.3, -0.7, 1.1])
        model = WordVecModel({"good": v, "nice": v, "other": np.array([1.0, 1.0, 1.0])}, 3)
        a = model.transform(["good other day good"])
        b = model.transform(["nice other day nice"])
        assert np.array_equal(a, b)


class TestHashedNgram:
    def test_token_twice_counts_two(self):
        emb = HashedNgram(buckets=64, add_length_features=False)
        out = emb.transform(["apple apple"]).toarray()
        bucket = _buckets(["apple"], emb.buckets)[0]
        assert out[0, bucket] == 2.0

    def test_word_count_feature(self):
        emb = HashedNgram(buckets=64, add_length_features=True)
        out = emb.transform(["apple mountain positive girl"]).toarray()
        assert out[0, 65] == 4.0

    def test_uppercase_ratio(self):
        emb = HashedNgram(buckets=16, add_length_features=True)
        out = emb.transform(["ABcd"]).toarray()
        assert out[0, 16] == 4.0
        assert out[0, 18] == pytest.approx(0.5)

    def test_deterministic(self):
        emb = HashedNgram()
        a = emb.transform(["the quick brown fox", "jumps over"])
        b = emb.transform(["the quick brown fox", "jumps over"])
        assert np.array_equal(a, b)

    def test_min_buckets(self):
        with pytest.raises(ValueError):
            HashedNgram(buckets=4)

    @pytest.mark.parametrize("buckets", [100.5, 64.0, True, "64", None])
    def test_refuses_buckets_that_are_not_integers(self, buckets):
        with pytest.raises(ValueError, match=f"^buckets must be an integer, got {buckets!r}$"):
            HashedNgram(buckets=buckets)

    @settings(max_examples=200, deadline=None)
    @given(
        texts=st.lists(
            st.text(
                st.one_of(
                    st.sampled_from(["É", "é", "ß", "İ", "Σ", "σ", "ǅ", "Ǆ", "😀", "\ud800",
                                     "\udfff", "A", "Z", "a", "@", "[", " "]),
                    st.characters(),
                ),
                max_size=12,
            ),
            max_size=8,
        )
    )
    def test_upper_case_counts_match_str_isupper(self, texts):
        lengths = np.fromiter(map(len, texts), np.intp, len(texts))
        want = np.array([float(sum(map(str.isupper, t))) for t in texts])
        assert embed._upper_counts(texts, lengths).tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        terms=st.lists(
            st.one_of(st.sampled_from(["", "a", "the cat", "É", "😀"]),
                      st.text(st.characters(exclude_categories=("Cs",)), max_size=20)),
            max_size=30,
        ),
        buckets=st.one_of(st.integers(1, 2**20), st.just(2**63)),
    )
    def test_buckets_match_one_blake2b_per_term(self, terms, buckets):
        # the copied state must leave no bytes of one term in the next one's digest
        want = [int.from_bytes(hashlib.blake2b(t.encode(), digest_size=8).digest(), "big") % buckets
                for t in terms]
        got = _buckets(terms, buckets)
        assert got.dtype == np.intp and got.tolist() == want


class TestTopicFactorization:
    def test_nonnegative_factors(self):
        texts = [f"sample text number {i} with shared characters" for i in range(12)]
        model = TopicFactorization(n_components=4, iters=25, seed=1).fit(texts)
        W = model.transform(texts)
        assert np.all(model.components >= 0)
        assert np.all(W >= 0)

    def test_error_non_increasing_on_fixed_matrix(self):
        rng = np.random.default_rng(42)
        V = rng.integers(0, 5, size=(10, 20)).astype(float)

        def error_after(iters):
            W, H = factorize_counts(V, n_components=3, iters=iters, seed=7)
            return np.linalg.norm(V - W @ H)

        errors = [error_after(iters) for iters in range(61)]
        for before, after in zip(errors, errors[1:]):
            assert after <= before + 1e-9

    def test_default_components_is_thirty(self):
        assert TopicFactorization().n_components == 30

    @pytest.mark.parametrize("size", [0, -1])
    def test_refuses_ngram_size_below_one(self, size):
        with pytest.raises(ValueError, match="ngram_size must be at least 1"):
            TopicFactorization(ngram_size=size)

    @pytest.mark.parametrize("field, value, reason", [
        ("n_components", 2.5, "n_components must be an integer, got 2.5"),
        ("n_components", 0, "n_components must be at least 1"),
        ("ngram_size", True, "ngram_size must be an integer, got True"),
        ("iters", -1, "iters must be at least 1"),
        ("iters", 0, "iters must be at least 1"),
        ("iters", 10.0, "iters must be an integer, got 10.0"),
        ("seed", -1, "seed must be at least 0"),
        ("seed", 0.5, "seed must be an integer, got 0.5"),
    ])
    def test_refuses_counts_that_are_not_integers_in_range(self, field, value, reason):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            TopicFactorization(**{field: value})

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            TopicFactorization().fit([])

    def test_transform_deterministic(self):
        texts = ["repeatable text block one", "repeatable text block two"] * 4
        model = TopicFactorization(n_components=3, iters=20, seed=3).fit(texts)
        a = model.transform(["repeatable text"])
        b = model.transform(["repeatable text"])
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "config",
        [TopicFactorization(n_components=4, iters=25, seed=1),
         TopicFactorization(n_components=2, ngram_size=2, iters=7, seed=5),
         TopicFactorization(n_components=3, ngram_size=4, iters=12)],
    )
    def test_fit_and_transform_match_dense_counter_reference(self, config):
        # mixed case, texts shorter than a gram, empty and unseen-only texts
        texts = ["Hoppy amber ALE", "hoppy stout", "", "ab", "malty AMBER lager, hoppy",
                 "zzzz qqqq", "amber", "crisp lager", "Stout! stout.", "ale"]
        fold_of_row = [0, 1, 0, 2, 1, 0, 2, 1, 0, 2]
        corpus = TextCorpus(texts)  # shared by every fold, as in run_experiment
        for f in range(3):
            train = [i for i, g in enumerate(fold_of_row) if g != f]
            test = [i for i, g in enumerate(fold_of_row) if g == f] + [5]
            vocab, components, want = reference_topic(
                config, [texts[i] for i in train], [texts[i] for i in test]
            )
            for model, docs in (
                (config.fit(corpus.rows(train)), corpus.rows(test)),
                (config.fit([texts[i] for i in train]), [texts[i] for i in test]),
            ):
                assert model.vocab == vocab
                assert model.components.tobytes() == components.tobytes()
                assert model.transform(docs).tobytes() == want.tobytes()

    def test_dense_train_counts_are_budgeted(self, monkeypatch):
        texts = ["abcd", "bcde", "cdef"]  # 3 rows × 4 trigrams
        monkeypatch.setattr(core, "MEMORY_BUDGET_BYTES", 8 * 3 * 4 - 1)
        with mock.patch("tabtext.embed.factorize_counts", side_effect=AssertionError):
            with pytest.raises(MemoryBudgetExceeded):
                TopicFactorization(n_components=2, iters=5).fit(texts)
        monkeypatch.setattr(core, "MEMORY_BUDGET_BYTES", 8 * 3 * 4)
        TopicFactorization(n_components=2, iters=5).fit(texts)


def _reference_char_counts(texts, n, vocab):
    """The per-text Counter loop the corpus counts replaced."""
    V = np.zeros((len(texts), len(vocab)))
    for r, text in enumerate(texts):
        s = text.lower()
        for gram, cnt in Counter(s[i : i + n] for i in range(len(s) - n + 1)).items():
            col = vocab.get(gram)
            if col is not None:
                V[r, col] = cnt
    return V


def reference_topic(config, train_texts, test_texts):
    """The vocabulary, unit-norm components and test activations of a topic
    fit, from dense Counter counts and the original update loops."""
    n = config.ngram_size
    grams = sorted({t.lower()[i : i + n] for t in train_texts for i in range(len(t) - n + 1)})
    vocab = {g: i for i, g in enumerate(grams)}
    V = _reference_char_counts(train_texts, n, vocab)
    rng = np.random.default_rng(config.seed)
    W = rng.random((V.shape[0], config.n_components)) + 0.01
    H = rng.random((config.n_components, V.shape[1])) + 0.01
    for _ in range(config.iters):
        W *= (V @ H.T) / (W @ (H @ H.T) + 1e-12)
        H *= (W.T @ V) / ((W.T @ W) @ H + 1e-12)
    norms = np.linalg.norm(H, axis=1, keepdims=True)
    H = H / np.where(norms > 0, norms, 1.0)
    V = _reference_char_counts(test_texts, n, vocab)
    W = np.random.default_rng(config.seed + 1).random((V.shape[0], config.n_components)) + 0.01
    HHt = H @ H.T
    for _ in range(config.iters):
        W *= (V @ H.T) / (W @ HHt + 1e-12)
    return vocab, H, W


def tiny_table(n=6, with_text=True):
    cols = [
        Column("num", ColumnRole.NUMERICAL, [1.0, 2.0, MISSING, 4.0, 5.0, 6.0][:n]),
        Column("cat", ColumnRole.CATEGORICAL, ["x", "y", "x", "z", "y", "w"][:n]),
    ]
    if with_text:
        cols.append(
            Column(
                "txt",
                ColumnRole.TEXTUAL,
                ["alpha beta", "beta gamma", MISSING, "alpha", "gamma beta", "beta"][:n],
            )
        )
    cols.append(Column("y", None, ["p", "n", "p", "n", "p", "n"][:n]))
    return Table("tiny", cols, "y", TaskKind.BINARY)


def fold_all_but_last(n):
    return FoldAssignment([1] * (n - 1) + [0])


class TestExternalEmbeddings:
    def test_round_trip(self, tmp_path):
        table = tiny_table(5)
        matrix = np.arange(5 * 384).reshape(5, 384).astype(float)
        path = tmp_path / "emb.csv"
        write_external_embeddings(path, matrix, table)
        loaded = load_external_embeddings(path, table)
        assert loaded.shape == (5, 384)
        assert np.allclose(loaded, matrix)

    def test_row_count_mismatch(self, tmp_path):
        table = tiny_table(5)
        path = tmp_path / "emb.csv"
        write_external_embeddings(path, np.zeros((4, 8)), tiny_table(4))
        with pytest.raises(RowCountMismatch):
            load_external_embeddings(path, table)

    def test_checksum_guard_fires_after_dedup(self, tmp_path):
        table = tiny_table(5)
        path = tmp_path / "emb.csv"
        write_external_embeddings(path, np.zeros((5, 8)), table)
        changed = tiny_table(6).subset([0, 1, 2, 3, 5])  # same count, other rows
        with pytest.raises(ChecksumMismatch):
            load_external_embeddings(path, changed)

    def test_subsamples_and_their_subsets_read_their_source_rows(self, tmp_path):
        ids = [float(i) for i in range(12)]
        table = Table("ids", [Column("id", ColumnRole.NUMERICAL, ids),
                              Column("y", None, ["p", "n"] * 6)], "y", TaskKind.BINARY)
        path = tmp_path / "emb.csv"
        write_external_embeddings(path, np.array(ids)[:, None], table)
        sub = subsample_rows(table, 8, seed=0)
        for part in (sub, sub.subset([5, 0, 2]), subsample_rows(sub, 4, seed=1)):
            assert load_external_embeddings(path, part)[:, 0].tolist() == part.column("id").values


class TestAssembleFeatures:
    def test_without_text_has_no_text_provenance(self):
        table = tiny_table()
        fold = fold_all_but_last(6)
        train, test = assemble_features(table, TfIdf(), False, fold, 0)
        assert all(tag in ("num", "cat") for _, tag, _ in train.provenance)

    def test_standardized_train_stats(self):
        table = tiny_table()
        fold = fold_all_but_last(6)
        train, _ = assemble_features(table, TfIdf(), True, fold, 0)
        num_col = [i for i, (_, tag, _) in enumerate(train.provenance) if tag == "num"][0]
        col = train.X.toarray()[:, num_col]
        assert col.mean() == pytest.approx(0.0, abs=1e-9)
        assert col.std() == pytest.approx(1.0, abs=1e-9)

    def test_unseen_category_codes_minus_one(self):
        table = tiny_table()
        fold = fold_all_but_last(6)  # "w" appears only in the test row
        train, test = assemble_features(table, TfIdf(), True, fold, 0)
        cat_col = [i for i, (_, tag, _) in enumerate(train.provenance) if tag == "cat"][0]
        assert test.X.toarray()[0, cat_col] == -1.0

    def test_missing_text_becomes_empty_string(self):
        table = tiny_table()
        fold = FoldAssignment([1, 1, 0, 1, 1, 1])  # missing text row is test
        train, test = assemble_features(table, TfIdf(), True, fold, 0)
        text_cols = [i for i, (_, tag, _) in enumerate(train.provenance) if tag == "tfidf"]
        assert np.all(test.X.toarray()[0, text_cols] == 0.0)

    def test_no_leak_when_test_rows_change(self):
        t1 = tiny_table()
        t2 = tiny_table()
        t2.column("txt").values[5] = "completely different words"
        t2.column("num").values[5] = 999.0
        t2.column("cat").values[5] = "qqq"
        fold = fold_all_but_last(6)
        tr1, _ = assemble_features(t1, TfIdf(), True, fold, 0)
        tr2, _ = assemble_features(t2, TfIdf(), True, fold, 0)
        assert np.array_equal(tr1.X, tr2.X)
        assert tr1.provenance == tr2.provenance

    _CELL = st.one_of(
        st.lists(st.sampled_from(["alpha", "Beta", "gamma", "δelta", "x1"]), max_size=6).map(" ".join),
        st.text(max_size=30),
        st.just(MISSING),
    )

    @settings(max_examples=150, deadline=None)
    @given(
        embedder=st.one_of(st.builds(TfIdf, max_vocab=st.integers(1, 8)), st.just(HashedNgram(16))),
        cells=st.lists(st.tuples(st.booleans(), _CELL, _CELL), min_size=2, max_size=12),
    )
    def test_test_fold_text_never_changes_the_fitted_embedder(self, embedder, cells):
        # each row: (is a test row, its text, the text it is changed to if it is)
        assume(any(test for test, _, _ in cells) and not all(test for test, _, _ in cells))
        train_texts = ["" if t is MISSING else t for test, t, _ in cells if not test]
        assume(any(tokenize(t) for t in train_texts))
        fold = FoldAssignment([int(not test) for test, _, _ in cells])

        def fitted(texts):
            table = Table(
                "t",
                [Column("txt", ColumnRole.TEXTUAL, texts), Column("y", None, [1.0] * len(texts))],
                "y",
                TaskKind.REGRESSION,
            )
            models = []
            real_fit = type(embedder).fit

            def spy(self, train):
                models.append(real_fit(self, train))
                return models[-1]

            with mock.patch.object(type(embedder), "fit", spy):
                train, _ = assemble_features(table, embedder, True, fold, 0)
            return train, models[0]

        train1, model1 = fitted([t for _, t, _ in cells])
        train2, model2 = fitted([new if test else t for test, t, new in cells])
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(train1.X, name), getattr(train2.X, name))
        assert train1.provenance == train2.provenance
        if isinstance(embedder, TfIdf):
            assert model1.vocab == model2.vocab
            assert np.array_equal(model1.idf, model2.idf)

    def test_tfidf_ood_mechanism(self):
        # test fold of entirely unseen tokens embeds to the zero vector
        table = tiny_table()
        table.column("txt").values[5] = "unseen words only"
        fold = fold_all_but_last(6)
        _, test = assemble_features(table, TfIdf(), True, fold, 0)
        text_cols = [i for i, (_, tag, _) in enumerate(test.provenance) if tag == "tfidf"]
        assert np.all(test.X.toarray()[0, text_cols] == 0.0)

    def test_with_text_width_at_least_without(self):
        table = tiny_table()
        fold = fold_all_but_last(6)
        with_text, _ = assemble_features(table, TfIdf(), True, fold, 0)
        without, _ = assemble_features(table, TfIdf(), False, fold, 0)
        assert with_text.width >= without.width

    def test_external_block(self, tmp_path):
        from tabtext.embed import ExternalEmbedding

        table = tiny_table()
        path = tmp_path / "ext.csv"
        write_external_embeddings(path, np.arange(6 * 4).reshape(6, 4).astype(float), table)
        fold = fold_all_but_last(6)
        train, test = assemble_features(table, ExternalEmbedding(str(path)), True, fold, 0)
        ext_cols = [i for i, (_, tag, _) in enumerate(train.provenance) if tag == "external"]
        assert len(ext_cols) == 4
        assert test.X[0, ext_cols[0]] == 20.0  # row 5 of the file


def reference_tfidf_fit(config, texts):
    """The per-document Counter fit the corpus-based one must reproduce."""
    df: Counter = Counter()
    for text in texts:
        df.update(set(word_ngrams(tokenize(text), config.ngram_lo, config.ngram_hi)))
    capped = sorted(df, key=lambda t: (-df[t], t))[: config.max_vocab]
    vocab = {term: i for i, term in enumerate(sorted(capped))}
    idf = np.array([np.log((1.0 + len(texts)) / (1.0 + df[t])) + 1.0 for t in vocab])
    return vocab, idf


_NGRAM_EMBEDDERS = st.one_of(
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 50)).map(
        lambda t: TfIdf(min(t[:2]), max(t[:2]), t[2])
    ),
    st.builds(HashedNgram, buckets=st.integers(16, 64), add_length_features=st.booleans()),
)
_TEXT = st.one_of(
    st.lists(st.sampled_from(["a", "B", "c", "a-b", "δ", "x1", "!"]), max_size=7).map(" ".join),
    st.text(max_size=20),
    st.just(""),
    st.just(MISSING),
)


class TestTextCorpus:
    @settings(max_examples=200, deadline=None)
    @given(
        embedder=_NGRAM_EMBEDDERS,
        pool=st.lists(_TEXT, min_size=1, max_size=6),
        data=st.data(),
    )
    def test_fold_blocks_match_fresh_fits(self, embedder, pool, data):
        # rows drawn from a small pool, so texts repeat
        values = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=14))
        k = data.draw(st.integers(2, 4))
        fold_of_row = data.draw(st.lists(st.integers(0, k - 1), min_size=len(values),
                                         max_size=len(values)))
        texts = ["" if v is MISSING else v for v in values]
        corpus = TextCorpus(texts)  # shared by every fold, as in run_experiment
        for f in range(k):
            train = [i for i, g in enumerate(fold_of_row) if g != f]
            test = [i for i, g in enumerate(fold_of_row) if g == f]
            if not train:
                continue
            train_texts = [texts[i] for i in train]
            try:
                fresh = embedder.fit(train_texts)
            except EmptyCorpus:
                with pytest.raises(EmptyCorpus):
                    embedder.fit(corpus.rows(train))
                continue
            model = embedder.fit(corpus.rows(train))
            for rows in (train, test):
                got = model.transform(corpus.rows(rows))
                want = fresh.transform([texts[i] for i in rows])
                assert got.shape == want.shape
                for name in ("data", "indices", "indptr"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            if isinstance(embedder, TfIdf):
                vocab, idf = reference_tfidf_fit(embedder, train_texts)
                assert model.vocab == fresh.vocab == vocab
                assert model.idf.tobytes() == fresh.idf.tobytes() == idf.tobytes()

    def test_views_read_as_texts(self):
        corpus = TextCorpus(["a b", "", "c"])
        view = corpus.rows([2, 0, 2])
        assert len(view) == 3 and list(view) == ["c", "a b", "c"]
        assert list(corpus.rows()) == ["a b", "", "c"]


class TestFittedVocabulary:
    TEXTS = ["Hoppy amber ale", "hoppy stout", "", "malty amber lager", "crisp lager",
             "stout, stout", "amber"]

    @pytest.mark.parametrize(
        "embedder, grams",
        [(TfIdf(1, 2), ("word", 1, 2)), (TfIdf(1, 1, max_vocab=3), ("word", 1, 1)),
         (TfIdf(2, 3), ("word", 2, 3)),
         (TopicFactorization(n_components=2, ngram_size=3, iters=5), ("char", 3, 3))],
    )
    def test_fitted_corpus_rows_need_no_term_lookup(self, embedder, grams):
        corpus = TextCorpus(self.TEXTS)
        model = embedder.fit(corpus.rows([0, 1, 2, 3, 6]))
        terms, _ = corpus.ngram_counts(*grams)
        assert model.terms is terms
        rows = [4, 5, 0, 6]
        fast = model.transform(corpus.rows(rows))
        assert "vocab" not in vars(model)  # the fast path never built it
        plain = model.transform([self.TEXTS[i] for i in rows])
        assert "vocab" in vars(model)  # another corpus's terms are looked up
        if isinstance(fast, CsrMatrix):
            assert fast.shape == plain.shape
            for name in ("data", "indices", "indptr"):
                assert getattr(fast, name).tobytes() == getattr(plain, name).tobytes()
        else:
            assert fast.tobytes() == plain.tobytes()
        assert model.vocab == {terms[c]: i for i, c in enumerate(model.columns)}
        assert model.dim == (len(model.vocab) if isinstance(embedder, TfIdf) else 2)

    @pytest.mark.parametrize(
        "cls, name",
        [(TfIdf, "fit"), (embed.TfIdfModel, "transform"), (TopicFactorization, "fit"),
         (embed.TopicModel, "transform"), (HashedNgram, "transform")],
    )
    def test_traced_methods_stay_in_their_own_class(self, cls, name):
        # perfbench/tracer.py wraps each of these in its class __dict__
        assert callable(vars(cls).get(name))


def _reference_vocab_counts(docs, model, kind, lo, hi):
    """The vocabulary counts from (corpus column, vocabulary column) pairs
    looked up in a term index, whatever corpus the vocabulary came from."""
    vocab = model.vocab
    terms, counts = docs.corpus.ngram_counts(kind, lo, hi)
    index = {t: i for i, t in enumerate(terms)}
    found = [(index[term], i) for term, i in vocab.items() if term in index]
    corpus_cols, vocab_cols = np.array(found, dtype=np.intp).reshape(-1, 2).T
    picked = counts.take_rows(docs.rows).take_columns(corpus_cols)
    return CsrMatrix(
        picked.data, vocab_cols[picked.indices], picked.indptr, (len(docs), len(vocab))
    )


def reference_assemble(table, embedder, with_text, fold_of_row, test_fold):
    """The fold assembly that read every cell row by row, with np.median and
    list row indices, which the per-experiment column encoding replaced."""
    train_rows = [i for i, f in enumerate(fold_of_row) if f != test_fold]
    test_rows = [i for i, f in enumerate(fold_of_row) if f == test_fold]
    corpora = text_corpora(table)
    tr_blocks, te_blocks, provenance = [], [], []
    external = isinstance(embedder, ExternalEmbedding)
    for col in table.feature_columns:
        if col.role is ColumnRole.NUMERICAL:
            tr = np.array(
                [np.nan if col.values[i] is MISSING else float(col.values[i]) for i in train_rows]
            )
            te = np.array(
                [np.nan if col.values[i] is MISSING else float(col.values[i]) for i in test_rows]
            )
            known = tr[~np.isnan(tr)]
            if known.size == 0:
                continue
            median = float(np.median(known))
            tr = np.where(np.isnan(tr), median, tr)
            te = np.where(np.isnan(te), median, te)
            mean, std = tr.mean(), tr.std()
            if std == 0.0:
                continue
            tr_blocks.append(((tr - mean) / std)[:, None])
            te_blocks.append(((te - mean) / std)[:, None])
            provenance.append((col.name, "num", 0))
        elif col.role is ColumnRole.CATEGORICAL:
            seen = sorted(
                {col.values[i] for i in train_rows if col.values[i] is not MISSING}, key=str
            )
            codes = {v: float(i) for i, v in enumerate(seen)}
            tr = np.array([codes.get(col.values[i], -1.0) for i in train_rows])
            te = np.array([codes.get(col.values[i], -1.0) for i in test_rows])
            tr_blocks.append(tr[:, None])
            te_blocks.append(te[:, None])
            provenance.append((col.name, "cat", 0))
        elif col.role is ColumnRole.TEXTUAL and with_text and not external:
            train_docs = corpora[col.name].rows(train_rows)
            with mock.patch.object(embed, "_vocab_counts", _reference_vocab_counts):
                model = embedder.fit(train_docs)
                tr = model.transform(train_docs)
                te = model.transform(corpora[col.name].rows(test_rows))
            EmbeddingBlock(col.name, tr).validate(len(train_rows))
            EmbeddingBlock(col.name, te).validate(len(test_rows))
            tr_blocks.append(tr)
            te_blocks.append(te)
            provenance.extend((col.name, model.tag, j) for j in range(tr.shape[1]))
    if external and with_text:
        full = load_external_embeddings(embedder.embedding_file, table)
        stem = Path(embedder.embedding_file).stem
        EmbeddingBlock(stem, full).validate(table.n_rows)
        tr_blocks.append(full[train_rows])
        te_blocks.append(full[test_rows])
        provenance.extend((stem, "external", j) for j in range(full.shape[1]))
    if not tr_blocks:
        raise TabTextError("no features survived assembly")
    y_all = table.target_column.values
    if table.task is TaskKind.REGRESSION:
        y_tr = np.array([float(y_all[i]) for i in train_rows])
        y_te = np.array([float(y_all[i]) for i in test_rows])
    else:
        y_tr = [y_all[i] for i in train_rows]
        y_te = [y_all[i] for i in test_rows]
    return (
        FeatureMatrix(hstack(tr_blocks), list(provenance), y_tr),
        FeatureMatrix(hstack(te_blocks), list(provenance), y_te),
    )


def _bits(fm: FeatureMatrix) -> tuple:
    """Everything of a fold matrix, floats by their bytes, with types."""
    X = fm.X
    if isinstance(X, CsrMatrix):
        x = ("csr", X.shape) + tuple(
            (a.dtype.str, a.tobytes()) for a in (X.data, X.indices, X.indptr)
        )
    else:
        x = ("dense", X.shape, X.dtype.str, X.tobytes())
    if isinstance(fm.y, np.ndarray):
        y = ("array", fm.y.dtype.str, fm.y.tobytes())
    else:
        y = ("list", fm.y, [type(v) for v in fm.y])
    return x, fm.provenance, [tuple(map(type, p)) for p in fm.provenance], y


def _outcome(assemble) -> tuple:
    try:
        train, test = assemble()
    except Exception as exc:  # noqa: BLE001 - both sides must fail alike
        return "raised", type(exc), str(exc)
    return _bits(train), _bits(test)


_NUM_CELL = st.one_of(
    st.just(MISSING),
    st.sampled_from([0.0, -0.0, 1.5, -2.0, 7.0]),
    st.integers(-3, 3),
    st.floats(-1e6, 1e6, allow_nan=False),
)
# "10" sorts before "9" and the int 12 between them
_CAT_CELL = st.one_of(st.just(MISSING), st.sampled_from(["9", "10", 12, "a", "B", "", "x y"]))
_TEXT_CELL = st.one_of(
    st.just(MISSING),
    st.lists(st.sampled_from(["good", "bad", "ale", "x1", "great", "stout"]), max_size=5).map(
        " ".join
    ),
    st.text(max_size=12),
)


@st.composite
def _fold_cases(draw):
    """A table of numeric (some cells, all missing or constant),
    categorical, text and roleless columns in any order, and a fold."""
    n = draw(st.integers(2, 16))
    cells = lambda cell: st.lists(cell, min_size=n, max_size=n)  # noqa: E731
    cols = []
    for j in range(draw(st.integers(0, 3))):
        shape = draw(st.sampled_from(["cells", "missing", "constant"]))
        if shape == "cells":
            values = draw(cells(_NUM_CELL))
        else:
            values = [MISSING if shape == "missing" else draw(_NUM_CELL)] * n
        cols.append(Column(f"num{j}", ColumnRole.NUMERICAL, values))
    for j in range(draw(st.integers(0, 2))):
        cols.append(Column(f"cat{j}", ColumnRole.CATEGORICAL, draw(cells(_CAT_CELL))))
    for j in range(draw(st.integers(0, 2))):
        cols.append(Column(f"txt{j}", ColumnRole.TEXTUAL, draw(cells(_TEXT_CELL))))
    if draw(st.booleans()):
        cols.append(Column("free", None, draw(cells(_CAT_CELL))))
    cols = draw(st.permutations(cols))
    task = draw(st.sampled_from(list(TaskKind)))
    labels = {
        TaskKind.REGRESSION: st.one_of(st.floats(-100, 100), st.integers(-5, 5)),
        TaskKind.BINARY: st.sampled_from(["10", "9"]),
        TaskKind.MULTICLASS: st.sampled_from(["a", "b", 3]),
    }[task]
    table = Table("t", cols + [Column("y", None, draw(cells(labels)))], "y", task)
    k = draw(st.integers(2, 4))
    return table, draw(cells(st.integers(0, k - 1))), draw(st.integers(0, k - 1))


class TestAssembleMatchesRowLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        inputs=_fold_cases(),
        embedder=st.one_of(
            st.tuples(st.integers(1, 2), st.integers(0, 1), st.integers(1, 12)).map(
                lambda t: TfIdf(t[0], t[0] + t[1], t[2])
            ),
            st.builds(HashedNgram, buckets=st.just(16), add_length_features=st.booleans()),
            st.just(WordVecAvg(str(toy_vector_file()))),
            st.just("external"),
        ),
        with_text=st.booleans(),
    )
    def test_bit_for_bit(self, inputs, embedder, with_text):
        table, fold_of_row, test_fold = inputs
        with tempfile.TemporaryDirectory() as tmp:
            if embedder == "external":
                path = Path(tmp) / "ext.csv"
                rows = np.arange(table.n_rows * 3, dtype=float).reshape(-1, 3)
                write_external_embeddings(path, np.sqrt(rows), table)
                embedder = ExternalEmbedding(str(path))
            fold = FoldAssignment(fold_of_row)
            got = _outcome(lambda: assemble_features(table, embedder, with_text, fold, test_fold))
            want = _outcome(
                lambda: reference_assemble(table, embedder, with_text, fold_of_row, test_fold)
            )
        assert got == want

    def test_folds_of_one_encoding_match_fresh_assemblies(self):
        table = tiny_table()
        encoding = TableEncoding(table, text_corpora(table))
        fold = FoldAssignment([0, 1, 2, 0, 1, 2])
        for test_fold in range(3):
            shared = assemble_features(table, TfIdf(), True, fold, test_fold, encoding=encoding)
            fresh = assemble_features(table, TfIdf(), True, fold, test_fold)
            assert [_bits(m) for m in shared] == [_bits(m) for m in fresh]


# the mean of two middle values can be inf + -inf, or overflow
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestMedian:
    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf]),
                st.floats(allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_equals_np_median_bit_for_bit(self, values):
        known = np.array(values)
        assert np.float64(_median(known)).tobytes() == np.float64(np.median(known)).tobytes()

    @pytest.mark.parametrize(
        "values",
        [[3.0], [2.0, 1.0], [-0.0, 0.0], [0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, -0.0, 0.0, 0.0],
         [math.inf, -math.inf], [math.inf, math.inf, 1.0], [-math.inf, 5.0],
         [1.0, 1.0, 1.0, 2.0], [7.0, 7.0, 7.0]],
    )
    def test_ties_signed_zeros_and_infinities(self, values):
        for order in (values, values[::-1]):
            known = np.array(order)
            assert np.float64(_median(known)).tobytes() == np.float64(np.median(known)).tobytes()
