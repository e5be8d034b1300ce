"""Text-to-numeric embedders and model-ready feature matrix assembly."""
from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from .core import (
    MISSING,
    ColumnRole,
    FoldAssignment,
    TabTextError,
    Table,
    TaskKind,
    check_count,
    from_spec,
)
from .sparse import CsrMatrix, all_finite, hstack, run_starts


class EmptyCorpus(TabTextError):
    pass


class MalformedVectorFile(TabTextError):
    pass


class RowCountMismatch(TabTextError):
    pass


class ChecksumMismatch(TabTextError):
    pass


_EPS = 1e-12

# Every byte of the lowercased text's UTF-8 outside [a-z0-9] reads as a space,
# the bytes of a multi-byte character included. _ROW_END is kept: it is never
# a byte of UTF-8 (surrogatepass included), so it marks where a text ends in
# a chunk of joined texts, and as a token it sorts after every word.
_ROW_END = b"\xff"
_ROW_GAP = b" " + _ROW_END + b" "
_TOKEN_BYTES = bytes(
    b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" + _ROW_END else 0x20 for b in range(256)
)
# Texts are tokenized in chunks of about this many characters, so a column's
# tokens are never all live Python objects at once.
_CHUNK_CHARS = 1 << 16


def tokenize(text: str) -> list[str]:
    """The text's tokens in order: the maximal runs of ASCII a-z and 0-9 in
    text.lower(), so "Café crème" gives "caf", "cr", "me". The one-text case
    of the column tokenizer TextCorpus uses."""
    words, ids, _ = _tokenize_column([text])
    return [words[i] for i in ids.tolist()]


# ---------------------------------------------------------------------------
# Tokenized corpora


def _tokenize_column(texts: list[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The texts' tokens (see tokenize) as integer arrays: the sorted
    distinct words, each token's index into them in text order, and the row
    pointers (text r holds tokens indptr[r]:indptr[r + 1]). Each chunk of
    texts is lowercased, encoded, mapped and split in a few C-level passes,
    and Python objects outlive a chunk only per distinct word."""
    n = len(texts)
    # a missing word's id is the number of words seen before it
    first_seen: defaultdict[bytes, int] = defaultdict()
    first_seen.default_factory = first_seen.__len__
    end_id = first_seen[_ROW_END]
    ends = np.cumsum(np.fromiter(map(len, texts), np.intp, n))
    cuts = np.searchsorted(ends, np.arange(_CHUNK_CHARS, ends[-1] if n else 0, _CHUNK_CHARS))
    ids, sizes = [], []
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), n]):
        if lo == hi:
            continue
        lowered = map(str.lower, texts[lo:hi])
        encoded = map(str.encode, lowered, repeat("utf-8"), repeat("surrogatepass"))
        tokens = (_ROW_GAP.join(encoded) + _ROW_GAP).translate(_TOKEN_BYTES).split()
        chunk = np.fromiter(map(first_seen.__getitem__, tokens), np.intp, len(tokens))
        del tokens
        row_end = chunk == end_id
        sizes.append(np.diff(np.flatnonzero(row_end), prepend=-1) - 1)
        ids.append(chunk[~row_end])
    # the factory refers back to the dict; without this the cycle keeps
    # every word alive until the garbage collector runs
    first_seen.default_factory = None
    words = sorted(first_seen)  # _ROW_END last
    rank = np.empty(len(words), dtype=np.intp)
    rank[np.fromiter(map(first_seen.__getitem__, words), np.intp, len(words))] = np.arange(
        len(words)
    )
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.concatenate(sizes) if sizes else [], out=indptr[1:])
    ids = np.concatenate(ids) if ids else np.empty(0, dtype=np.intp)
    np.take(rank, ids, out=ids)
    return list(map(bytes.decode, words[:-1])), ids, indptr


def _char_column(texts: list[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The lowercased texts' characters in the form _tokenize_column gives
    tokens: the sorted distinct characters, each character's index into
    them, and the row pointers. Characters sort by code point, as str does."""
    lowered = list(map(str.lower, texts))
    indptr = np.zeros(len(lowered) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, lowered), np.intp, len(lowered)), out=indptr[1:])
    points = np.frombuffer("".join(lowered).encode("utf-32-le", "surrogatepass"), np.uint32)
    del lowered
    distinct, ids = np.unique(points, return_inverse=True)
    return list(map(chr, distinct.tolist())), ids.astype(np.intp, copy=False), indptr


def _gram_occurrences(
    units: tuple[list[str], np.ndarray, np.ndarray], lo: int, hi: int, sep: str
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The lo..hi-grams of each row's units (words or characters, as
    _tokenize_column gives them). Returns the sorted distinct grams (units
    joined by sep), and the row and term column of every gram occurrence,
    the lo-grams first. The rows are a new array; the columns may be a view
    of the units' ids.

    Units are numbered in string order, and sep sorts below every unit, so
    grams sort as the tuples of their unit numbers, a gram after its prefix.
    Each length's grams are numbered from the previous length's: a k-gram's
    code is its (k-1)-gram prefix's number times the unit count plus its last
    unit, and one np.unique numbers the distinct codes in order, so no code
    exceeds (occurrences × units)."""
    names, ids, indptr = units
    width = len(names)
    sizes = np.diff(indptr)
    row = np.repeat(np.arange(sizes.size), sizes)
    if hi > 1:
        # how many units each position's row holds from it on
        left = np.repeat(indptr[1:], sizes) - np.arange(ids.size)
    tails = [sep + s for s in names]
    at = slice(None)  # the positions that start a k-gram
    number = ids  # each position's k-gram number, for k = 1
    strings = names  # the distinct k-grams in order
    spelled = np.arange(width)[:, None]  # their unit tuples, one row each
    found = []  # per length from lo: (strings, spelled, positions, numbers)
    for k in range(1, hi + 1):
        if k > 1:
            at = np.flatnonzero(left >= k)
            codes = number[at] * width + ids[at + k - 1]
            distinct, numbered = np.unique(codes, return_inverse=True)
            prefix, last = np.divmod(distinct, width)
            spelled = np.column_stack([spelled[prefix], last])
            prefix, last = prefix.tolist(), last.tolist()
            strings = list(
                map(str.__add__, map(strings.__getitem__, prefix), map(tails.__getitem__, last))
            )
            number = np.empty(ids.size, dtype=np.intp)
            number[at] = numbered
        if k >= lo:
            found.append((strings, spelled, at, number[at]))
    if len(found) == 1:
        return found[0][0], row[found[0][2]], found[0][3]
    # merge the lengths: sort every gram by its unit tuple padded with -1,
    # which sorts below every unit, to the longest length
    padded = np.full((sum(len(f[0]) for f in found), hi), -1, dtype=np.intp)
    offsets = np.cumsum([0] + [len(f[0]) for f in found])
    for (_, spelled, _, _), offset in zip(found, offsets):
        padded[offset : offset + len(spelled), : spelled.shape[1]] = spelled
    order = np.lexsort(padded.T[::-1])
    column = np.empty_like(order)
    column[order] = np.arange(order.size)
    every = [s for f in found for s in f[0]]
    terms = list(map(every.__getitem__, order.tolist()))
    rows = np.concatenate([row[at] for _, _, at, _ in found])
    cols = np.concatenate([column[o + number] for (_, _, _, number), o in zip(found, offsets)])
    return terms, rows, cols


def _tally(rows: np.ndarray, cols: np.ndarray, n: int, d: int) -> CsrMatrix:
    """The n×d count matrix of one (row, column) pair per occurrence. Each
    run of equal row-major keys is one count. rows is the scratch space: it
    is overwritten, the distinct keys going to its head."""
    keys = rows
    keys *= d
    keys += cols
    keys.sort()
    size = keys.size
    first = np.flatnonzero(run_starts(keys))
    keys = np.take(keys, first, out=keys[: first.size])  # take buffers its out
    counts = np.empty(first.size)
    np.subtract(first[1:], first[:-1], out=counts[:-1])
    counts[-1:] = size - first[-1:]
    del first
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.intp) * d)
    return CsrMatrix(counts, keys % max(d, 1), indptr, (n, d))


class TextCorpus:
    """One text column's documents. What depends on the text alone (the
    word or character n-gram counts, a hashed or word-vector block) is
    computed once, on first use, and kept; the embedders fit and transform
    on row views (`rows`) of it. The tokens are not kept: each of those is
    built from one tokenizing pass, and holding a column's token ids for the
    corpus's life left more of the heap resident (at glibc malloc's peak in
    `tabtext vet` of a 20 000-line CSV, 5.8 MiB more)."""

    def __init__(self, texts: list[str]):
        self.texts = list(texts)
        self._memo: dict = {}

    def rows(self, rows=None) -> "CorpusRows":
        """A view of the given rows, in order (all rows when None)."""
        rows = np.arange(len(self.texts)) if rows is None else np.asarray(rows, dtype=np.intp)
        return CorpusRows(self, rows)

    def memo(self, key, build):
        """build(), computed once per key for this corpus."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def grams(self, kind: str, lo: int, hi: int) -> tuple[list[str], np.ndarray, np.ndarray]:
        """The word ("word") or lowercased character ("char") lo..hi-grams
        of the documents, as _gram_occurrences gives them."""
        if kind == "word":
            return _gram_occurrences(_tokenize_column(self.texts), lo, hi, " ")
        return _gram_occurrences(_char_column(self.texts), lo, hi, "")

    def ngram_counts(self, kind: str, lo: int, hi: int) -> tuple[list[str], CsrMatrix]:
        """The sorted list of the documents' grams (see grams) and the
        documents × terms count matrix."""

        def build():
            terms, rows, cols = self.grams(kind, lo, hi)
            return terms, _tally(rows, cols, len(self.texts), len(terms))

        return self.memo((kind, lo, hi), build)


class CorpusRows:
    """Rows of a TextCorpus; reads as the sequence of their texts, so every
    embedder accepts it where it accepts a list of strings."""

    def __init__(self, corpus: TextCorpus, rows: np.ndarray):
        self.corpus = corpus
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        texts = self.corpus.texts
        return (texts[r] for r in self.rows)


def corpus_rows(texts) -> CorpusRows:
    """texts as a corpus view; a plain list of strings gets its own corpus."""
    return texts if isinstance(texts, CorpusRows) else TextCorpus(texts).rows()


def _vocab_counts(docs: CorpusRows, model, kind: str, lo: int, hi: int) -> CsrMatrix:
    """The documents × vocabulary counts of their grams (see
    TextCorpus.grams) for a fitted model's vocabulary: the terms
    model.terms[c] for c in model.columns, numbered in that (sorted) order.
    Rows of the corpus the model was fitted on (the folds of one
    experiment) share that term list, the very object, so their counts are
    its columns, with no term lookup."""
    terms, counts = docs.corpus.ngram_counts(kind, lo, hi)
    counts = counts.take_rows(docs.rows)
    columns = model.columns
    if terms is model.terms:
        # counts is this call's own copy: a vocabulary of every term keeps it
        return counts if columns.size == len(terms) else counts.take_columns(columns)
    # another corpus: the vocabulary column of each of its terms (-1 for
    # none); both term lists are sorted, so the found ones are increasing
    vocab = model.vocab
    vocab_col = np.fromiter(map(vocab.get, terms, repeat(-1)), np.intp, len(terms))
    found = np.flatnonzero(vocab_col >= 0)
    picked = counts.take_columns(found)
    return CsrMatrix(
        picked.data, vocab_col[found][picked.indices], picked.indptr, (len(docs), columns.size)
    )


def _vocab_of(terms: list[str], columns: np.ndarray) -> dict[str, int]:
    """{terms[c]: i} for the i-th column c: a fitted vocabulary as a dict."""
    return dict(zip(map(terms.__getitem__, columns.tolist()), range(columns.size)))


def text_corpora(table: Table) -> dict[str, TextCorpus]:
    """A corpus per text column, keyed by column name (MISSING reads as "")."""
    return {
        col.name: TextCorpus(_texts_of(col.values))
        for col in table.feature_columns
        if col.role is ColumnRole.TEXTUAL
    }


# ---------------------------------------------------------------------------
# TF-IDF


@dataclass(frozen=True)
class TfIdf:
    """Word n-gram TF-IDF with smooth idf and L2-normalized rows."""

    ngram_lo: int = 1
    ngram_hi: int = 2
    max_vocab: int = 20000

    tag = "tfidf"

    def __post_init__(self):
        check_count("ngram_lo", self.ngram_lo, 1)
        check_count("ngram_hi", self.ngram_hi, 1)
        if self.ngram_lo > self.ngram_hi:
            raise ValueError("ngram_lo must not exceed ngram_hi")
        check_count("max_vocab", self.max_vocab, 1)

    def fit(self, train_texts: list[str] | CorpusRows) -> "TfIdfModel":
        docs = corpus_rows(train_texts)
        if not len(docs):
            raise EmptyCorpus("tf-idf fit needs at least one document")
        terms, counts = docs.corpus.ngram_counts("word", self.ngram_lo, self.ngram_hi)
        # a row stores each of its terms once, so column counts are df
        df = np.bincount(counts.take_rows(docs.rows).indices, minlength=len(terms))
        seen = np.flatnonzero(df)
        if not seen.size:
            raise EmptyCorpus("training corpus contains no terms")
        # cap by document frequency, ties broken lexicographically (terms
        # are sorted, and the stable sort keeps their order within a df)
        capped = np.sort(seen[np.argsort(-df[seen], kind="stable")[: self.max_vocab]])
        idf = np.log((1.0 + len(docs)) / (1.0 + df[capped])) + 1.0
        return TfIdfModel(self, terms, capped, idf)


@dataclass(frozen=True)
class TfIdfModel:
    """A fitted vocabulary: the terms terms[c] for c in columns, where terms
    is the fitted corpus's sorted term list (TextCorpus.ngram_counts), held
    as that same object, so transforming rows of the fitted corpus needs no
    term lookup. The term → column dict `vocab` is built only when read:
    by a transform of another corpus, or by a caller."""

    config: TfIdf
    terms: list[str]
    columns: np.ndarray
    idf: np.ndarray

    tag = "tfidf"

    @cached_property
    def vocab(self) -> dict[str, int]:
        return _vocab_of(self.terms, self.columns)

    @property
    def dim(self) -> int:
        return self.columns.size

    def transform(self, texts: list[str] | CorpusRows) -> CsrMatrix:
        cfg = self.config
        out = _vocab_counts(corpus_rows(texts), self, "word", cfg.ngram_lo, cfg.ngram_hi)
        out.data *= self.idf[out.indices]
        # every stored count·idf is at least 1, so a row with entries has a
        # positive norm
        out.data /= np.repeat(out.row_norms(), np.diff(out.indptr))
        return out


# ---------------------------------------------------------------------------
# Averaged word vectors


class WordVecModel:
    """Word-vector table; a text embeds to the mean of its in-vocabulary
    token vectors (zero vector when every token is unknown)."""

    tag = "wordvec"

    def __init__(self, vectors: dict[str, np.ndarray], dim: int):
        self.vectors = vectors
        self.dim = dim

    def transform(self, texts: list[str] | CorpusRows) -> np.ndarray:
        docs = corpus_rows(texts)
        # each row depends on its text alone: embed the corpus once
        block = docs.corpus.memo(self, lambda: self._block(docs.corpus))
        return block[docs.rows]

    def _block(self, corpus: TextCorpus) -> np.ndarray:
        words, ids, indptr = _tokenize_column(corpus.texts)
        n = len(indptr) - 1
        known = np.fromiter(map(self.vectors.__contains__, words), bool, len(words))
        table = np.array([self.vectors[w] for w in compress(words, known)], dtype=float)
        table = table.reshape(np.count_nonzero(known), self.dim)
        # each row's hits, as rows of table, in text order
        hit = known[ids]
        hits = (np.cumsum(known) - 1)[ids[hit]]
        per_row = np.bincount(np.repeat(np.arange(n), np.diff(indptr))[hit], minlength=n)
        starts = np.cumsum(per_row) - per_row
        out = np.zeros((n, self.dim))
        # per distinct positive hit count k (np.unique would import numpy.ma):
        # np.mean over axis 1 of the rows with k hits each adds them as
        # np.mean(hits, axis=0) does for one row, pairwise when dim is 1
        for k in (np.flatnonzero(np.bincount(per_row)[1:]) + 1).tolist():
            group = np.flatnonzero(per_row == k)
            out[group] = table[hits[starts[group, None] + np.arange(k)]].mean(axis=1)
        return out


_VECTOR_CACHE: dict[tuple[str, int], WordVecModel] = {}


def load_word_vectors(path: str | Path) -> WordVecModel:
    """Plain-text vector file: header '<count> <dim>', then one token and its
    floats per line. Parsed files are cached by path and mtime since models
    are immutable and folds reload the same file."""
    p = Path(path)
    key = (str(p.resolve()), p.stat().st_mtime_ns)
    cached = _VECTOR_CACHE.get(key)
    if cached is not None:
        return cached
    lines = p.read_text(encoding="utf-8-sig").splitlines()
    if not lines:
        raise MalformedVectorFile("line 1: empty file")
    head = lines[0].split()
    if len(head) != 2 or not all(p.isdigit() for p in head):
        raise MalformedVectorFile("line 1: expected '<count> <dim>' header")
    count, dim = int(head[0]), int(head[1])
    vectors: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines[1 : count + 1], start=2):
        parts = line.split()
        if len(parts) != dim + 1:
            raise MalformedVectorFile(f"line {lineno}: expected {dim + 1} fields")
        try:
            vectors[parts[0]] = np.array([float(x) for x in parts[1:]])
        except ValueError:
            raise MalformedVectorFile(f"line {lineno}: non-numeric vector entry") from None
    if len(vectors) != count:
        raise MalformedVectorFile(f"header promises {count} vectors, found {len(vectors)}")
    model = WordVecModel(vectors, dim)
    if len(_VECTOR_CACHE) > 4:
        _VECTOR_CACHE.clear()
    _VECTOR_CACHE[key] = model
    return model


@dataclass(frozen=True)
class WordVecAvg:
    vector_file: str

    tag = "wordvec"

    def fit(self, train_texts: list[str]) -> WordVecModel:
        return load_word_vectors(self.vector_file)


# ---------------------------------------------------------------------------
# Hashed n-grams


_BLAKE2B_8 = hashlib.blake2b(digest_size=8)  # never updated: each term hashes a copy


def _buckets(terms: list[str], buckets: int) -> np.ndarray:
    """Each term's bucket: its 8-byte blake2b digest, read big-endian, mod
    buckets. Copying one configured state costs less than a constructor
    call per term."""
    copy = _BLAKE2B_8.copy
    digests = []
    for term in terms:
        h = copy()
        h.update(term.encode())
        digests.append(h.digest())
        del h  # freed before the next copy, which can then reuse its memory
    return (np.frombuffer(b"".join(digests), ">u8") % np.uint64(buckets)).astype(np.intp)


def _upper_counts(texts: list[str], lengths: np.ndarray) -> np.ndarray:
    """Each text's count of upper-case characters, sum(map(str.isupper, t)),
    given the texts' lengths, from one pass over their code points: A-Z are
    the upper-case ASCII characters, and each distinct non-ASCII code point
    (a lone surrogate included) asks str.isupper once."""
    points = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), np.uint32)
    upper = (points >= 0x41) & (points <= 0x5A)
    wide = np.flatnonzero(points >= 0x80)
    if wide.size:
        distinct, which = np.unique(points[wide], return_inverse=True)
        cased = map(str.isupper, map(chr, distinct.tolist()))
        upper[wide] = np.fromiter(cased, bool, distinct.size)[which]
    text_of = np.searchsorted(np.cumsum(lengths), np.flatnonzero(upper), side="right")
    return np.bincount(text_of, minlength=len(texts)).astype(float)


@dataclass(frozen=True)
class HashedNgram:
    """Stateless hashed word 1-3 grams, optionally with simple length
    meta-features appended."""

    buckets: int = 512
    add_length_features: bool = True

    tag = "hashed"

    def __post_init__(self):
        check_count("buckets", self.buckets, 16)

    def fit(self, train_texts: list[str]) -> "HashedNgram":
        return self

    @property
    def dim(self) -> int:
        return self.buckets + (3 if self.add_length_features else 0)

    def transform(self, texts: list[str] | CorpusRows) -> CsrMatrix:
        docs = corpus_rows(texts)
        # each row's block depends on its text alone: build it once per corpus
        block = docs.corpus.memo(self, lambda: self._block(docs.corpus))
        return block.take_rows(docs.rows)

    def _block(self, corpus: TextCorpus) -> CsrMatrix:
        # the counts are not kept: once bucketed, nothing reads them again
        terms, rows, cols = corpus.grams("word", 1, 3)
        texts, n = corpus.texts, len(corpus.texts)
        grams = _tally(rows, _buckets(terms, self.buckets)[cols], n, self.buckets)
        if not self.add_length_features:
            return grams
        lengths = np.fromiter(map(len, texts), np.intp, n)
        n_chars = lengths.astype(float)
        n_words = np.fromiter(map(len, map(str.split, texts)), float, n)
        upper = _upper_counts(texts, lengths)
        ratio = np.divide(upper, n_chars, out=np.zeros(n), where=n_chars > 0)
        # every row stores its three length features, zeros included
        lengths = CsrMatrix(
            np.column_stack([n_chars, n_words, ratio]).ravel(),
            np.tile(np.arange(3), n),
            np.arange(0, 3 * n + 1, 3),
            (n, 3),
        )
        return hstack([grams, lengths])


# ---------------------------------------------------------------------------
# Topic factorization (non-negative factorization of char n-gram counts)


@dataclass(frozen=True)
class TopicFactorization:
    n_components: int = 30
    ngram_size: int = 3
    iters: int = 100
    seed: int = 0

    tag = "topic"

    def __post_init__(self):
        check_count("n_components", self.n_components, 1)
        check_count("ngram_size", self.ngram_size, 1)
        check_count("iters", self.iters, 1)
        check_count("seed", self.seed, 0)

    def fit(self, train_texts: list[str] | CorpusRows) -> "TopicModel":
        docs = corpus_rows(train_texts)
        if not len(docs):
            raise EmptyCorpus("topic fit needs at least one document")
        terms, counts = docs.corpus.ngram_counts("char", self.ngram_size, self.ngram_size)
        counts = counts.take_rows(docs.rows)
        seen = np.flatnonzero(np.bincount(counts.indices, minlength=len(terms)))
        if not seen.size:
            raise EmptyCorpus("training corpus contains no character n-grams")
        V = counts.take_columns(seen).toarray()
        _, H = factorize_counts(V, self.n_components, self.iters, self.seed)
        # canonicalize the scale split between the factors: unit-norm topic
        # rows keep the output activations at count scale
        norms = np.linalg.norm(H, axis=1, keepdims=True)
        norms = np.where(norms > 0, norms, 1.0)
        return TopicModel(self, terms, seen, H / norms)


@dataclass(frozen=True)
class TopicModel:
    """Fitted topics over the n-grams terms[c] for c in columns, held as
    TfIdfModel holds its vocabulary."""

    config: TopicFactorization
    terms: list[str]
    columns: np.ndarray
    components: np.ndarray  # k x n_grams, frozen at fit time

    tag = "topic"

    @cached_property
    def vocab(self) -> dict[str, int]:
        return _vocab_of(self.terms, self.columns)

    @property
    def dim(self) -> int:
        return self.config.n_components

    def transform(self, texts: list[str] | CorpusRows) -> np.ndarray:
        cfg = self.config
        size = cfg.ngram_size
        V = _vocab_counts(corpus_rows(texts), self, "char", size, size).toarray()
        H = self.components
        rng = np.random.default_rng(cfg.seed + 1)
        W = rng.random((V.shape[0], self.dim)) + 0.01
        VHt, HHt = V @ H.T, H @ H.T
        for _ in range(cfg.iters):
            _update_activations(W, VHt, HHt)
        return W


def _update_activations(W: np.ndarray, VHt: np.ndarray, HHt: np.ndarray) -> None:
    """One multiplicative update of W in place, given V @ H.T and H @ H.T."""
    W *= VHt / (W @ HHt + _EPS)


def factorize_counts(
    V: np.ndarray, n_components: int, iters: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Multiplicative-update factorization V ~ W @ H (Lee & Seung), from a
    seeded uniform start; the Frobenius error is non-increasing in iters."""
    rng = np.random.default_rng(seed)
    W = rng.random((V.shape[0], n_components)) + 0.01
    H = rng.random((n_components, V.shape[1])) + 0.01
    for _ in range(iters):
        _update_activations(W, V @ H.T, H @ H.T)
        H *= (W.T @ V) / ((W.T @ W) @ H + _EPS)
    return W, H


# ---------------------------------------------------------------------------
# Precomputed external embeddings


@dataclass(frozen=True)
class ExternalEmbedding:
    embedding_file: str

    tag = "external"


def table_guard(table: Table) -> str:
    """Fingerprint of the row count and target column; guards row-alignment
    of external embedding files."""
    h = hashlib.sha256()
    h.update(str(table.n_rows).encode())
    for v in table.target_column.values:
        h.update(b"\x00")
        h.update(str(v).encode("utf-8"))
    return h.hexdigest()


def _sidecar_path(embedding_file: str | Path) -> Path:
    p = Path(embedding_file)
    return p.with_suffix(p.suffix + ".check")


def write_external_embeddings(path: str | Path, matrix: np.ndarray, table: Table) -> None:
    np.savetxt(path, matrix, delimiter=",")
    _sidecar_path(path).write_text(table_guard(table) + "\n", encoding="utf-8")


def load_external_embeddings(embedding_file: str | Path, table: Table) -> np.ndarray:
    """The embedding rows of `table`'s rows. The file is aligned with, and
    its guard checked against, `table` or, for a subsample, its source."""
    source, rows = table.meta.get("row_source", (table, None))
    matrix = np.loadtxt(embedding_file, delimiter=",", ndmin=2, encoding="utf-8-sig")
    if matrix.shape[0] != source.n_rows:
        raise RowCountMismatch(
            f"{matrix.shape[0]} embedding rows for {source.n_rows} table rows"
        )
    sidecar = _sidecar_path(embedding_file)
    if sidecar.exists():
        stored = sidecar.read_text(encoding="utf-8-sig").strip()
        if stored != table_guard(source):
            raise ChecksumMismatch("table changed since embeddings were written")
    return matrix if rows is None else matrix[rows]


EmbedderKind = TfIdf | WordVecAvg | HashedNgram | TopicFactorization | ExternalEmbedding


def embedder_key(embedder: EmbedderKind) -> str:
    """The embedder's configuration plus, for the embedders that read a file,
    the sha256 of its bytes, so a rewritten file at the same path changes it."""
    if isinstance(embedder, WordVecAvg):
        path = embedder.vector_file
    elif isinstance(embedder, ExternalEmbedding):
        path = embedder.embedding_file
    else:
        return repr(embedder)
    return f"{embedder!r} sha256={hashlib.sha256(Path(path).read_bytes()).hexdigest()}"


def make_embedder(spec: dict) -> EmbedderKind:
    """Build an embedder from a config mapping, e.g. {"kind": "tfidf"}."""
    return from_spec(spec, EmbedderKind, "embedder")


# ---------------------------------------------------------------------------
# Feature assembly


@dataclass
class EmbeddingBlock:
    """One embedded text column: the source name and its matrix (CSR for
    the n-gram embedders, dense otherwise)."""

    source_column: str
    matrix: np.ndarray | CsrMatrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def validate(self, n_rows: int) -> "EmbeddingBlock":
        if self.dim < 1:
            raise TabTextError(f"embedding block for {self.source_column!r} has zero width")
        if self.matrix.shape[0] != n_rows:
            raise TabTextError(
                f"embedding block for {self.source_column!r} has "
                f"{self.matrix.shape[0]} rows, expected {n_rows}"
            )
        if not all_finite(self.matrix):
            raise TabTextError(f"non-finite entries in block for {self.source_column!r}")
        return self


@dataclass
class FeatureMatrix:
    """Numeric matrix with per-column provenance (source column, encoder
    tag, index within block). X is CSR when a text block is, else dense."""

    X: np.ndarray | CsrMatrix
    provenance: list[tuple[str, str, int]]
    y: np.ndarray | list

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def width(self) -> int:
        return self.X.shape[1]

    def feature_names(self) -> list[str]:
        return [f"{src}__{tag}__{i}" for src, tag, i in self.provenance]


def _texts_of(col_values: list) -> list[str]:
    return ["" if v is MISSING else str(v) for v in col_values]


class TableEncoding:
    """A table's columns as the arrays fold assembly gathers from, encoded
    once per experiment and shared by its folds: each text column's corpus
    (`corpora`, from `text_corpora`), each numeric column as float64 with NaN
    for MISSING, each categorical column as integer codes into its levels
    sorted by str (-1 for MISSING), and the target, as float64 for a
    regression. Each array is built when a fold first reads it, so a cell
    that does not convert fails in that fold's assembly, as it would row by
    row."""

    def __init__(self, table: Table, corpora: dict[str, TextCorpus]):
        self.table = table
        self.corpora = corpora
        self._arrays: dict = {}

    def _memo(self, key, build):
        if key not in self._arrays:
            self._arrays[key] = build()
        return self._arrays[key]

    def numbers(self, name: str) -> np.ndarray:
        def build():
            values = self.table.column(name).values
            return np.array([np.nan if v is MISSING else float(v) for v in values])

        return self._memo(("num", name), build)

    def codes(self, name: str) -> tuple[np.ndarray, int]:
        """The column's level codes and its number of levels."""

        def build():
            values = self.table.column(name).values
            levels = sorted(set(values) - {MISSING}, key=str)
            index = {v: i for i, v in enumerate(levels)}
            codes = np.fromiter(map(index.get, values, repeat(-1)), np.intp, len(values))
            return codes, len(levels)

        return self._memo(("cat", name), build)

    def target(self) -> np.ndarray:
        """The target as float64 for a regression, else an object array of
        its labels."""

        def build():
            values = self.table.target_column.values
            if self.table.task is TaskKind.REGRESSION:
                return np.array([float(v) for v in values])
            return np.fromiter(values, object, len(values))

        return self._memo("target", build)


def _median(known: np.ndarray) -> float:
    """np.median(known) for a non-empty float64 array without NaN, computed
    as numpy's own `_median` computes it (partition at the middle and the
    last index, then the mean of the middle slice) but without its NaN
    check, whose first use imports numpy.ma."""
    half = known.size // 2
    odd = known.size % 2
    part = np.partition(known, [half, -1] if odd else [half - 1, half, -1])
    return float(np.mean(part[half - 1 + odd : half + 1], axis=0))


def assemble_features(
    table: Table,
    embedder: EmbedderKind,
    with_text: bool,
    fold: FoldAssignment,
    test_fold: int,
    encoding: TableEncoding | None = None,
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Build train/test feature matrices for one fold.

    Numeric columns are median-imputed and standardized with train-fold
    statistics, categoricals get train-learned ordinal codes (unseen -> -1),
    text columns are embedded (embedder fitted on the train fold only) or
    dropped when with_text is false. `encoding` (a TableEncoding of `table`)
    lets the folds of one experiment share each column's encoding and
    tokenization; without it, one is built for this call.
    """
    if encoding is None:
        encoding = TableEncoding(table, text_corpora(table))
    train_rows = fold.train_rows(test_fold)
    test_rows = fold.fold_rows(test_fold)
    tr_blocks: list[np.ndarray | CsrMatrix] = []
    te_blocks: list[np.ndarray | CsrMatrix] = []
    provenance: list[tuple[str, str, int]] = []

    external = isinstance(embedder, ExternalEmbedding)

    for col in table.feature_columns:
        if col.role is ColumnRole.NUMERICAL:
            values = encoding.numbers(col.name)
            tr, te = values[train_rows], values[test_rows]
            missing = np.isnan(tr)
            known = tr[~missing]
            if known.size == 0:
                continue
            median = _median(known)
            tr = np.where(missing, median, tr)
            te = np.where(np.isnan(te), median, te)
            mean, std = tr.mean(), tr.std()
            if std == 0.0:
                continue
            tr_blocks.append(((tr - mean) / std)[:, None])
            te_blocks.append(((te - mean) / std)[:, None])
            provenance.append((col.name, "num", 0))
        elif col.role is ColumnRole.CATEGORICAL:
            codes, n_levels = encoding.codes(col.name)
            tr_codes = codes[train_rows]
            # a level's code is its rank among the levels the train rows
            # hold; the extra last slot, indexed by MISSING's -1, is never held
            held = np.zeros(n_levels + 1, dtype=bool)
            held[tr_codes] = True
            held[-1] = False
            rank = np.cumsum(held) - 1.0
            rank[~held] = -1.0
            tr_blocks.append(rank[tr_codes][:, None])
            te_blocks.append(rank[codes[test_rows]][:, None])
            provenance.append((col.name, "cat", 0))
        elif col.role is ColumnRole.TEXTUAL and with_text and not external:
            corpus = encoding.corpora[col.name]
            train_docs = corpus.rows(train_rows)
            model = embedder.fit(train_docs)
            tr = EmbeddingBlock(col.name, model.transform(train_docs)).validate(len(train_rows))
            te = EmbeddingBlock(col.name, model.transform(corpus.rows(test_rows))).validate(
                len(test_rows)
            )
            tr_blocks.append(tr.matrix)
            te_blocks.append(te.matrix)
            provenance.extend(zip(repeat(col.name), repeat(model.tag), range(tr.dim)))

    if external and with_text:
        full = load_external_embeddings(embedder.embedding_file, table)
        stem = Path(embedder.embedding_file).stem
        block = EmbeddingBlock(stem, full).validate(table.n_rows)
        tr_blocks.append(block.matrix[train_rows])
        te_blocks.append(block.matrix[test_rows])
        provenance.extend(zip(repeat(stem), repeat("external"), range(block.dim)))

    if not tr_blocks:
        raise TabTextError("no features survived assembly")

    X_tr = hstack(tr_blocks)
    X_te = hstack(te_blocks)
    y = encoding.target()
    y_tr, y_te = y[train_rows], y[test_rows]
    if table.task.is_classification:
        y_tr, y_te = y_tr.tolist(), y_te.tolist()
    return (
        FeatureMatrix(X_tr, list(provenance), y_tr),
        FeatureMatrix(X_te, list(provenance), y_te),
    )
