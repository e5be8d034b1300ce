"""Text-to-numeric embedders and model-ready feature matrix assembly."""
from __future__ import annotations

import hashlib
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .core import MISSING, ColumnRole, FoldAssignment, TabTextError, Table, TaskKind, from_spec
from .sparse import CsrMatrix, all_finite, hstack, run_starts


class EmptyCorpus(TabTextError):
    pass


class MalformedVectorFile(TabTextError):
    pass


class RowCountMismatch(TabTextError):
    pass


class ChecksumMismatch(TabTextError):
    pass


_TOKEN_RE = re.compile(r"[a-z0-9]+")

_EPS = 1e-12


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


def word_ngrams(tokens: list[str], lo: int, hi: int) -> list[str]:
    """The lo-grams in order, then the (lo + 1)-grams, ... up to the hi-grams."""
    grams = []
    for n in range(lo, hi + 1):
        grams.extend(tokens if n == 1 else map(" ".join, zip(*(tokens[i:] for i in range(n)))))
    return grams


def word_grams(text: str, lo: int, hi: int) -> list[str]:
    """The word lo..hi-grams of a text (see word_ngrams)."""
    return word_ngrams(tokenize(text), lo, hi)


def char_grams(text: str, n: int) -> list[str]:
    """The character n-grams of the lowercased text, in order."""
    s = text.lower()
    return [s[i : i + n] for i in range(len(s) - n + 1)]


# ---------------------------------------------------------------------------
# Tokenized corpora


def _count_ngrams(texts: list[str], grams) -> tuple[list[str], CsrMatrix]:
    """The sorted list of the grams of the texts, grams(text) for each, and
    the texts × terms count matrix."""
    # a missing gram's id is the number of grams seen before it
    first_seen: defaultdict[str, int] = defaultdict()
    first_seen.default_factory = first_seen.__len__
    ids, sizes = array("q"), array("q")
    for text in texts:
        found = grams(text)
        ids.extend(map(first_seen.__getitem__, found))
        sizes.append(len(found))
    # the factory refers back to the dict; without this the cycle keeps
    # every gram alive until the garbage collector runs
    first_seen.default_factory = None
    terms = sorted(first_seen)
    n, d = len(texts), len(terms)
    rank = np.empty(d, dtype=np.intp)
    rank[np.fromiter(map(first_seen.__getitem__, terms), np.intp, d)] = np.arange(d)
    # one row-major key per gram; each run of equal keys is one count
    keys = np.repeat(np.arange(n, dtype=np.intp) * d, np.frombuffer(sizes, dtype=np.int64))
    keys += rank[np.frombuffer(ids, dtype=np.int64)]
    del ids  # before the sort and its run arrays, to lower the peak
    keys.sort()
    first = np.flatnonzero(run_starts(keys))
    counts = np.diff(first, append=keys.size)
    keys = keys[first]
    indptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.intp) * d)
    return terms, CsrMatrix(counts, keys % max(d, 1), indptr, (n, d))


class TextCorpus:
    """One text column's documents. What depends on the text alone (the
    word or character n-gram counts, a hashed block) is computed once, on
    first use, and kept; the n-gram embedders fit and transform on row views
    (`rows`) of it."""

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

    def ngram_counts(self, grams, *params) -> tuple[list[str], dict[str, int], CsrMatrix]:
        """The sorted list of the documents' grams(text, *params), their
        column index, and the documents × terms count matrix."""

        def build():
            terms, counts = _count_ngrams(self.texts, lambda text: grams(text, *params))
            return terms, {t: i for i, t in enumerate(terms)}, counts

        return self.memo((grams, *params), build)


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


def _vocab_counts(docs: CorpusRows, vocab: dict[str, int], grams, *params) -> CsrMatrix:
    """The documents × vocabulary counts of grams(text, *params), for a
    vocabulary whose terms are sorted and numbered in order."""
    _, index, counts = docs.corpus.ngram_counts(grams, *params)
    # vocabulary and corpus terms are both sorted, so the corpus columns
    # of the vocabulary terms it holds are increasing
    corpus_cols = np.fromiter(map(index.get, vocab, repeat(-1)), np.intp, len(vocab))
    found = corpus_cols >= 0
    corpus_cols = corpus_cols[found]
    vocab_cols = np.fromiter(vocab.values(), np.intp, len(vocab))[found]
    picked = counts.take_rows(docs.rows).take_columns(corpus_cols)
    return CsrMatrix(
        picked.data, vocab_cols[picked.indices], picked.indptr, (len(docs), len(vocab))
    )


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
        if self.ngram_lo < 1:
            raise ValueError("ngram_lo must be at least 1")
        if self.ngram_lo > self.ngram_hi:
            raise ValueError("ngram_lo must not exceed ngram_hi")

    def fit(self, train_texts: list[str] | CorpusRows) -> "TfIdfModel":
        docs = corpus_rows(train_texts)
        if not len(docs):
            raise EmptyCorpus("tf-idf fit needs at least one document")
        terms, _, counts = docs.corpus.ngram_counts(word_grams, self.ngram_lo, self.ngram_hi)
        # a row stores each of its terms once, so column counts are df
        df = np.bincount(counts.take_rows(docs.rows).indices, minlength=len(terms))
        seen = np.flatnonzero(df)
        if not seen.size:
            raise EmptyCorpus("training corpus contains no terms")
        # cap by document frequency, ties broken lexicographically (terms
        # are sorted, and the stable sort keeps their order within a df)
        capped = np.sort(seen[np.argsort(-df[seen], kind="stable")[: self.max_vocab]])
        vocab = {terms[c]: i for i, c in enumerate(capped)}
        idf = np.log((1.0 + len(docs)) / (1.0 + df[capped])) + 1.0
        return TfIdfModel(self, vocab, idf)


@dataclass(frozen=True)
class TfIdfModel:
    config: TfIdf
    vocab: dict[str, int]
    idf: np.ndarray

    tag = "tfidf"

    @property
    def dim(self) -> int:
        return len(self.vocab)

    def transform(self, texts: list[str] | CorpusRows) -> CsrMatrix:
        cfg = self.config
        out = _vocab_counts(corpus_rows(texts), self.vocab, word_grams, cfg.ngram_lo, cfg.ngram_hi)
        out.data *= self.idf[out.indices]
        norms = out.row_norms()
        out.data /= np.repeat(np.where(norms > 0, norms, 1.0), np.diff(out.indptr))
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
        block = docs.corpus.memo(self, lambda: self._block(docs.corpus.texts))
        return block[docs.rows]

    def _block(self, texts: list[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dim))
        for r, text in enumerate(texts):
            hits = [self.vectors[t] for t in tokenize(text) if t in self.vectors]
            if hits:
                out[r] = np.mean(hits, axis=0)
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


def _bucket_of(term: str, buckets: int) -> int:
    digest = hashlib.blake2b(term.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % buckets


@dataclass(frozen=True)
class HashedNgram:
    """Stateless hashed word 1-3 grams, optionally with simple length
    meta-features appended."""

    buckets: int = 512
    add_length_features: bool = True

    tag = "hashed"

    def __post_init__(self):
        if self.buckets < 16:
            raise ValueError("buckets must be at least 16")

    def fit(self, train_texts: list[str]) -> "HashedNgram":
        return self

    @property
    def dim(self) -> int:
        return self.buckets + (3 if self.add_length_features else 0)

    def transform(self, texts: list[str] | CorpusRows) -> CsrMatrix:
        docs = corpus_rows(texts)
        # each row's block depends on its text alone: build it once per corpus
        block = docs.corpus.memo(self, lambda: self._block(docs.corpus.texts))
        return block.take_rows(docs.rows)

    def _block(self, texts: list[str]) -> CsrMatrix:
        # the counts are not kept: once bucketed, nothing reads them again
        terms, counts = _count_ngrams(texts, lambda text: word_grams(text, 1, 3))
        bucket = np.array([_bucket_of(term, self.buckets) for term in terms], dtype=np.intp)
        n = len(texts)
        rows = [np.repeat(np.arange(n), np.diff(counts.indptr))]
        cols, vals = [bucket[counts.indices]], [counts.data]
        if self.add_length_features:
            rows.append(np.repeat(np.arange(n), 3))
            cols.append(np.tile(self.buckets + np.arange(3), n))
            lengths = []
            for text in texts:
                n_chars = len(text)
                upper = sum(1 for ch in text if ch.isupper())
                lengths += [n_chars, len(text.split()), upper / n_chars if n_chars else 0.0]
            vals.append(np.asarray(lengths, dtype=float))
        # from_coo sums the counts of the terms sharing a bucket
        return CsrMatrix.from_coo(
            np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), (n, self.dim)
        )


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
        if self.n_components < 1:
            raise ValueError("n_components must be at least 1")
        if self.ngram_size < 1:
            raise ValueError("ngram_size must be at least 1")

    def fit(self, train_texts: list[str] | CorpusRows) -> "TopicModel":
        docs = corpus_rows(train_texts)
        if not len(docs):
            raise EmptyCorpus("topic fit needs at least one document")
        terms, _, counts = docs.corpus.ngram_counts(char_grams, self.ngram_size)
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
        return TopicModel(self, {terms[c]: i for i, c in enumerate(seen)}, H / norms)


@dataclass(frozen=True)
class TopicModel:
    config: TopicFactorization
    vocab: dict[str, int]
    components: np.ndarray  # k x n_grams, frozen at fit time

    tag = "topic"

    @property
    def dim(self) -> int:
        return self.config.n_components

    def transform(self, texts: list[str] | CorpusRows) -> np.ndarray:
        cfg = self.config
        V = _vocab_counts(corpus_rows(texts), self.vocab, char_grams, cfg.ngram_size).toarray()
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
