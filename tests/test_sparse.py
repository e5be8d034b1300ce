import hashlib
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tabtext import core, embed, sparse
from tabtext.core import MemoryBudgetExceeded
from tabtext.embed import HashedNgram, TextCorpus, TfIdf
from tabtext.sparse import CsrMatrix, hstack

from references import csr_from_coo, word_ngrams


@st.composite
def matrices(draw, n=None, max_d=12):
    """Random dense matrices with an empty row, an empty column or a fully
    dense column; + 0.0 turns any -0.0 into 0.0, which CSR cannot store."""
    n = draw(st.integers(1, 12)) if n is None else n
    d = draw(st.integers(1, max_d))
    values = draw(
        arrays(float, (n, d), elements=st.floats(-1e3, 1e3, allow_subnormal=False))
    )
    X = np.where(draw(arrays(bool, (n, d))), values, 0.0) + 0.0
    feature = draw(st.sampled_from(["empty_row", "empty_col", "dense_col"]))
    if feature == "empty_row":
        X[draw(st.integers(0, n - 1))] = 0.0
    elif feature == "empty_col":
        X[:, draw(st.integers(0, d - 1))] = 0.0
    else:
        j = draw(st.integers(0, d - 1))
        X[:, j] = np.where(X[:, j] == 0.0, 1.5, X[:, j])
    return X


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def left_to_right_norms(X) -> np.ndarray:
    """Each dense row's norm, its squares summed left to right (numpy's
    own row sum is pairwise)."""
    return np.sqrt(np.cumsum(X * X, axis=1)[:, -1])


def close(got, want, scale) -> bool:
    """|got − want| ≤ 1e-12 · scale elementwise, scale being the sum of the
    magnitudes of the terms (the usual bound for rounding error)."""
    return bool(np.all(np.abs(got - want) <= 1e-12 * scale))


class TestCsrAgainstDense:
    @settings(max_examples=200, deadline=None)
    @given(X=matrices(), block=st.sampled_from([1, 7, 1 << 20]))
    def test_exact_operations(self, X, block):
        S = CsrMatrix.from_dense(X)
        with mock.patch.object(sparse, "_BLOCK", block):  # 1: one row per block
            assert same_bits(S.col_var(), X.var(axis=0))
        assert same_bits(S.row_norms(), left_to_right_norms(X))
        assert same_bits(S.toarray(), X)
        assert same_bits(np.asarray(S), X)
        assert S.shape == X.shape and S.ndim == 2 and S.size == X.size
        assert S.nnz == np.count_nonzero(X)
        assert same_bits(S.col_mean(), X.mean(axis=0))

    @settings(max_examples=200, deadline=None)
    @given(X=matrices(), data=st.data())
    def test_column_take_and_hstack(self, X, data):
        S = CsrMatrix.from_dense(X)
        keep = data.draw(arrays(bool, X.shape[1]))
        cols = np.flatnonzero(keep)
        assert same_bits(S.take_columns(cols).toarray(), X[:, cols])
        Y = data.draw(matrices(n=X.shape[0]))
        stacked = hstack([Y, S, X[:, :1], CsrMatrix.from_dense(Y)])
        assert isinstance(stacked, CsrMatrix)
        assert same_bits(stacked.toarray(), np.hstack([Y, X, X[:, :1], Y]))
        dense = hstack([Y, X])
        assert isinstance(dense, np.ndarray) and same_bits(dense, np.hstack([Y, X]))

    @settings(max_examples=300, deadline=None)
    @given(X=matrices(), data=st.data())
    def test_products(self, X, data):
        n, d = X.shape
        S = CsrMatrix.from_dense(X)
        v = data.draw(arrays(float, d, elements=st.floats(-10, 10)))
        a = data.draw(arrays(float, n, elements=st.floats(-10, 10)))
        assert close(S @ v, X @ v, np.abs(X) @ np.abs(v))
        assert close(S.rmatvec(a), X.T @ a, np.abs(X).T @ np.abs(a))

    @pytest.mark.parametrize("shape", [(3000, 2), (2400, 300), (40, 20000)])
    def test_reductions_bit_equal_at_scale(self, shape):
        rng = np.random.default_rng(shape[1])
        X = rng.standard_normal(shape) * (rng.random(shape) < 0.05)
        X[:, 0] = rng.standard_normal(shape[0])
        S = CsrMatrix.from_dense(X)
        assert same_bits(S.col_mean(), X.mean(axis=0))
        assert same_bits(S.col_var(), X.var(axis=0))
        assert same_bits(S.row_norms(), left_to_right_norms(X))

    @settings(max_examples=200, deadline=None)
    @given(X=matrices(), data=st.data())
    def test_row_take(self, X, data):
        n, d = X.shape
        X[data.draw(st.integers(0, n - 1))] = 0.0
        X[:, data.draw(st.integers(0, d - 1))] = 0.0
        # any order, repeats allowed
        rows = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=20)), dtype=np.intp)
        got = CsrMatrix.from_dense(X).take_rows(rows)
        want = CsrMatrix.from_dense(X[rows])
        assert got.shape == want.shape == (rows.size, d)
        for name in ("data", "indices", "indptr"):
            assert same_bits(getattr(got, name), getattr(want, name))
        for bad in ([n], [-1]):
            with pytest.raises(ValueError):
                CsrMatrix.from_dense(X).take_rows(bad)

    def test_take_columns_rejects_unordered(self):
        S = CsrMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            S.take_columns([2, 0])
        with pytest.raises(ValueError):
            S.take_columns([0, 3])


def spread_rows(d: int, seed: int) -> np.ndarray:
    """Rows of at least three nonzeros (all of them when d < 3) spread over
    1e-8..1e8, so a change in summation order changes bits; the first row
    is dense and the last one empty."""
    rng = np.random.default_rng(seed)
    X = np.zeros((12, d))
    for i in range(11):
        k = d if i == 0 else int(rng.integers(min(3, d), min(d, 60) + 1))
        cols = rng.choice(d, size=k, replace=False)
        X[i, cols] = rng.choice([-1.0, 1.0], k) * 10 ** rng.uniform(-8, 8, k)
    return X


class TestRowNorms:
    WIDTHS = [*range(1, 10), 127, 128, 129, 130, 136, 255, 256, 257, 1031, 5000]

    @pytest.mark.parametrize("rows_per_call", [1 << 14, 1])  # 1: each row alone
    @pytest.mark.parametrize("d", WIDTHS)
    def test_bit_equal_to_numpy_pairwise_sum(self, d, rows_per_call):
        """Bit-equal to the dense left-to-right sum whatever the other rows
        of the matrix are, and within rounding of numpy's pairwise sum: the
        squares are positive, so each sum's relative error is under d·eps."""
        X = spread_rows(d, seed=d)
        S = CsrMatrix.from_dense(X)
        got = np.concatenate(
            [
                S.take_rows(np.arange(lo, min(lo + rows_per_call, len(X)))).row_norms()
                for lo in range(0, len(X), rows_per_call)
            ]
        )
        assert same_bits(got, left_to_right_norms(X))
        want = np.sqrt((X * X).sum(axis=1))
        assert np.all(np.abs(got - want) <= d * np.finfo(float).eps * want)

    @settings(max_examples=150, deadline=None)
    @given(
        d=st.one_of(st.integers(1, 300), st.integers(300, 20000)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_equal_on_rows_built_to_stress_it(self, d, seed):
        # magnitudes spread over 1e-8..1e8: a change of order changes bits
        X = spread_rows(d, seed)
        assert same_bits(CsrMatrix.from_dense(X).row_norms(), left_to_right_norms(X))

    def test_allocates_no_dense_scratch(self):
        X = spread_rows(1031, seed=0)
        with mock.patch.object(sparse, "_scratch_blocks", side_effect=AssertionError):
            got = CsrMatrix.from_dense(X).row_norms()
        assert same_bits(got, left_to_right_norms(X))


def reference_tokens(text):
    return re.findall(r"[a-z0-9]+", text.lower())


def reference_bucket(term, buckets):
    return int.from_bytes(hashlib.blake2b(term.encode(), digest_size=8).digest(), "big") % buckets


def _reference_count_ngrams(texts, lo, hi):
    """The counting the stored-order build replaced: first-seen ids from a
    generator per gram, and csr_from_coo's unique and bincount."""

    def grams(text):
        tokens = reference_tokens(text)
        return [
            " ".join(tokens[i : i + n])
            for n in range(lo, hi + 1)
            for i in range(len(tokens) - n + 1)
        ]

    return _reference_counts(texts, grams)


def _reference_count_chars(texts, n):
    def grams(text):
        s = text.lower()
        return [s[i : i + n] for i in range(len(s) - n + 1)]

    return _reference_counts(texts, grams)


def _reference_counts(texts, grams_of):
    """The sorted grams of the texts, grams_of(text) for each, and the
    texts × grams count matrix."""
    first_seen: dict[str, int] = {}
    cols, sizes = [], []
    for text in texts:
        grams = grams_of(text)
        cols.extend(first_seen.setdefault(g, len(first_seen)) for g in grams)
        sizes.append(len(grams))
    terms = sorted(first_seen)
    rank = np.empty(len(terms), dtype=np.intp)
    rank[[first_seen[t] for t in terms]] = np.arange(len(terms))
    counts = csr_from_coo(
        np.repeat(np.arange(len(texts)), sizes),
        rank[np.asarray(cols, dtype=np.intp)],
        np.ones(len(cols)),
        (len(texts), len(terms)),
    )
    return terms, counts


class TestStoredOrderBuilds:
    # a small alphabet repeats grams; it also gives empty, punctuation-only,
    # mixed-case and digit texts
    @settings(max_examples=300, deadline=None)
    @given(
        texts=st.lists(st.text(alphabet="aAbB1 .,!-", max_size=24), max_size=10),
        ngrams=st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 3)]),
    )
    def test_count_ngrams_matches_reference(self, texts, ngrams):
        terms, got = TextCorpus(texts).ngram_counts("word", *ngrams)
        want_terms, want = _reference_count_ngrams(texts, *ngrams)
        assert terms == want_terms
        assert got.shape == want.shape
        for name in ("data", "indices", "indptr"):
            assert same_bits(getattr(got, name), getattr(want, name))

    # text: full Unicode with lone surrogates, or a small alphabet whose
    # grams repeat, holding upper case, "İ" (lowercases to "i" and a
    # combining dot), the Kelvin sign (to "k"), "ß", NUL and sigmas
    _TEXTS = st.lists(
        st.one_of(
            st.text(st.characters(exclude_categories=()), max_size=30),
            st.text(alphabet="aAbB1 .,!-İ\u212aßΣς\x00é", max_size=30),
        ),
        max_size=10,
    )

    @settings(max_examples=300, deadline=None)
    @given(
        texts=_TEXTS,
        ngrams=st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 3), (1, 5)]),
        chunk=st.sampled_from([1, 7, 1 << 16]),
    )
    def test_word_counts_match_reference(self, texts, ngrams, chunk):
        with mock.patch.object(embed, "_CHUNK_CHARS", chunk):
            terms, got = TextCorpus(texts).ngram_counts("word", *ngrams)
        want_terms, want = _reference_count_ngrams(texts, *ngrams)
        assert terms == want_terms
        assert_same_csr(got, want)

    def test_word_counts_past_int64_codes(self):
        # 7 000 words: base-V codes of the 5-grams would need V⁵ > 2⁶³
        rng = np.random.default_rng(4)
        words = [f"w{j}" for j in rng.permutation(7000)]
        texts = [" ".join(words[i : i + 7]) for i in range(0, 7000, 7)]
        texts += [" ".join(rng.choice(words[:40], size=9)) for _ in range(300)]
        assert len(set(words)) ** 5 > 2**63
        for ngrams in [(1, 5), (5, 5)]:
            terms, got = TextCorpus(texts).ngram_counts("word", *ngrams)
            want_terms, want = _reference_count_ngrams(texts, *ngrams)
            assert terms == want_terms
            assert_same_csr(got, want)

    @settings(max_examples=300, deadline=None)
    @given(texts=_TEXTS, n=st.integers(1, 5))
    def test_char_counts_match_reference(self, texts, n):
        terms, got = TextCorpus(texts).ngram_counts("char", n, n)
        want_terms, want = _reference_count_chars(texts, n)
        assert terms == want_terms
        assert_same_csr(got, want)

    @settings(max_examples=200, deadline=None)
    @given(texts=_TEXTS, buckets=st.integers(16, 40), length=st.booleans())
    def test_hashed_block_matches_dense(self, texts, buckets, length):
        emb = HashedNgram(buckets, length)
        got = emb.transform(texts)
        assert same_bits(got.toarray(), dense_hashed(emb, texts))
        # every row stores its three length features, zeros included
        assert got.nnz == np.count_nonzero(got.toarray()[:, :buckets]) + 3 * length * len(texts)

    def test_hstack_edges(self):
        X = np.array([[0.0, 1.5, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, -3.0]])
        S = CsrMatrix.from_dense(X)
        cases = [
            [S],
            [np.zeros((3, 2)), S, CsrMatrix.from_dense(np.zeros((3, 0))), X[:, :1], S],
            [CsrMatrix.from_dense(np.zeros((3, 2))), S],
            [CsrMatrix.from_dense(np.zeros((0, 2))), np.zeros((0, 3))],
        ]
        for blocks in cases:
            got = hstack(blocks)
            dense = np.hstack([b.toarray() if isinstance(b, CsrMatrix) else b for b in blocks])
            want = CsrMatrix.from_dense(dense)
            assert got.shape == want.shape
            for name in ("data", "indices", "indptr"):
                assert same_bits(getattr(got, name), getattr(want, name))


def dense_tfidf(model, texts):
    """The dense TF-IDF transform the CSR one must reproduce bit for bit."""
    out = np.zeros((len(texts), model.dim))
    lo, hi = model.config.ngram_lo, model.config.ngram_hi
    for r, text in enumerate(texts):
        for term, count in Counter(word_ngrams(reference_tokens(text), lo, hi)).items():
            col = model.vocab.get(term)
            if col is not None:
                out[r, col] = count * model.idf[col]
    norms = left_to_right_norms(out)
    out /= np.where(norms > 0, norms, 1.0)[:, None]
    return out


def dense_hashed(emb, texts):
    out = np.zeros((len(texts), emb.dim))
    for r, text in enumerate(texts):
        for gram in word_ngrams(reference_tokens(text), 1, 3):
            out[r, reference_bucket(gram, emb.buckets)] += 1.0
        if emb.add_length_features:
            n_chars = len(text)
            upper = sum(1 for ch in text if ch.isupper())
            out[r, emb.buckets] = n_chars
            out[r, emb.buckets + 1] = len(text.split())
            out[r, emb.buckets + 2] = upper / n_chars if n_chars else 0.0
    return out


def corpus(seed, n, pool):
    rng = np.random.default_rng(seed)
    texts = [
        " ".join(f"w{j}" for j in rng.integers(0, pool, size=rng.integers(0, 12)))
        for _ in range(n)
    ]
    return [t.upper() if i % 7 == 0 else t for i, t in enumerate(texts)]


class TestEmbeddersMatchDense:
    @pytest.mark.parametrize("pool", [30, 12000])
    def test_tfidf_bit_equal(self, pool):
        # the wide vocabulary spreads a row's entries over thousands of columns
        texts = corpus(0, 400, pool)
        model = TfIdf(max_vocab=20000).fit(texts[:300])
        out = model.transform(texts[300:] + ["", "unseen only"])
        assert isinstance(out, CsrMatrix)
        assert same_bits(out.toarray(), dense_tfidf(model, texts[300:] + ["", "unseen only"]))

    @pytest.mark.parametrize("length", [True, False])
    def test_hashed_bit_equal(self, length):
        emb = HashedNgram(buckets=64, add_length_features=length)
        texts = corpus(1, 200, 80) + ["", "ABC def"]
        out = emb.transform(texts)
        assert isinstance(out, CsrMatrix)
        assert same_bits(out.toarray(), dense_hashed(emb, texts))


class TestMemoryBudget:
    def test_toarray_refuses_before_allocating(self, monkeypatch):
        S = CsrMatrix.from_dense(np.eye(20))
        monkeypatch.setattr(core, "MEMORY_BUDGET_BYTES", 8 * 20 * 20 - 1)
        with pytest.raises(MemoryBudgetExceeded):
            S.toarray()
        with pytest.raises(MemoryBudgetExceeded):
            np.asarray(S)
        monkeypatch.setattr(core, "MEMORY_BUDGET_BYTES", 8 * 20 * 20)
        assert same_bits(S.toarray(), np.eye(20))
