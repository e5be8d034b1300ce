"""Compressed sparse row (CSR) matrices in plain numpy.

Only the operations the feature pipeline needs are here, so n-gram text
blocks reach the ridge solve without ever becoming dense n×d arrays. The
column reductions reproduce numpy's dense results bit for bit, because a
variance top-k selection can flip on a 1-ulp difference. Each column's
variance is summed row after row whatever the other columns are, so
`take_columns(cols).col_var()` gives the same bits for those columns as
the full `col_var()` (for two columns or more; one column is summed
pairwise, as numpy does). That lets `select.select_variance` reduce only
the columns that can reach its top k: a column's variance is at most its
mean square E[x²] (one bincount of the squared values), which, inflated
by 8·n·eps to cover the roundings of both, bounds the computed variance,
and once the k-th largest exact variance among the evaluated columns is
strictly above every other column's bound, no other column can enter
the top k.

Blocks are built in the order they are stored: `hstack` places each
part's rows side by side, row after row, from the parts' `indptr`s, with
no sort, and `row_norms` sums each row's squared entries in that order
in one bincount, so neither allocates anything as wide as the matrix.
Unlike the column reductions, the row norms do not copy numpy's dense
rounding (numpy sums a dense row pairwise): they are the left-to-right
sum, which agrees with numpy's to rounding.

The ridge primal's centered Gram Xcᵀ Xc has two builders here, chosen by
`models._primal`. `centered_gram` works from the stored entries: the
products of each row's pairs of entries, less n·μμᵀ, for the columns
stored in at most half the rows, and a dense centered copy of the others;
its cost goes with the pair count, not with n·d², and its sums agree with
the dense ones to rounding, not to the bit. `dense_row_blocks` copies rows
into a dense scratch block of about _BLOCK elements, which the caller
centers and multiplies; its bits are those of the dense matrix's blocks.
"""
from __future__ import annotations

import numpy as np

from .core import require_memory

# Dense scratch elements per block of rows in col_var and dense_row_blocks.
_BLOCK = 1 << 20
# Stored entries per block of rows in centered_gram (at least one row a block).
_PAIR_BLOCK = 1 << 16


class CsrMatrix:
    """Row i holds the columns indices[indptr[i]:indptr[i+1]] (strictly
    increasing) with the values in the same slice of data."""

    ndim = 2

    def __init__(self, data, indices, indptr, shape: tuple[int, int]):
        self.data = np.asarray(data, dtype=float)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.shape = (int(shape[0]), int(shape[1]))
        self._rows = None  # see _row_ids
        if (
            len(self.indptr) != self.shape[0] + 1
            or len(self.indices) != len(self.data)
            or self.indptr[-1] != len(self.data)
        ):
            raise ValueError("inconsistent CSR arrays")

    @classmethod
    def from_dense(cls, X: np.ndarray) -> "CsrMatrix":
        X = np.asarray(X, dtype=float)
        rows, cols = np.nonzero(X)  # in row-major order
        indptr = np.zeros(X.shape[0] + 1, dtype=np.intp)
        np.cumsum(np.count_nonzero(X, axis=1), out=indptr[1:])
        return cls(X[rows, cols], cols, indptr, X.shape)

    # -- size ---------------------------------------------------------------

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    def _row_ids(self) -> np.ndarray:
        """Each stored entry's row. Built on first use and kept: no method
        changes indptr, and a solve makes dozens of products with one matrix."""
        if self._rows is None:
            self._rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return self._rows

    # -- conversion and columns -------------------------------------------

    def toarray(self) -> np.ndarray:
        n, d = self.shape
        require_memory(8 * n * d, f"a dense {n}×{d} matrix")
        out = np.zeros(self.shape)
        out[self._row_ids(), self.indices] = self.data
        return out

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a CSR matrix has no dense view; densifying copies")
        out = self.toarray()
        return out if dtype is None else out.astype(dtype, copy=False)

    def take_rows(self, rows) -> "CsrMatrix":
        """The given rows, in the given order; a row may repeat."""
        rows = np.asarray(rows, dtype=np.intp)
        n = self.shape[0]
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            raise ValueError(f"rows must lie within [0, {n})")
        starts = self.indptr[rows]
        sizes = self.indptr[rows + 1] - starts
        indptr = np.zeros(rows.size + 1, dtype=np.intp)
        np.cumsum(sizes, out=indptr[1:])
        # entry k of output row i is entry starts[i] + k of the source
        pos = np.repeat(starts - indptr[:-1], sizes) + np.arange(indptr[-1])
        return CsrMatrix(self.data[pos], self.indices[pos], indptr, (rows.size, self.shape[1]))

    def take_columns(self, cols) -> "CsrMatrix":
        """The given columns, in the given (strictly increasing) order."""
        cols = np.asarray(cols, dtype=np.intp)
        d = self.shape[1]
        if cols.size and (cols[0] < 0 or cols[-1] >= d or np.any(np.diff(cols) <= 0)):
            raise ValueError(f"columns must be strictly increasing within [0, {d})")
        new_of = np.full(d, -1, dtype=np.intp)
        new_of[cols] = np.arange(cols.size)
        mapped = new_of[self.indices]
        keep = mapped >= 0
        return CsrMatrix(
            self.data[keep], mapped[keep], self._kept_indptr(keep), (self.shape[0], cols.size)
        )

    # -- products -----------------------------------------------------------

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """X @ v for a vector v of length d."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.shape[1],):
            raise ValueError(f"cannot multiply {self.shape} by {v.shape}")
        return np.bincount(
            self._row_ids(), weights=self.data * v[self.indices], minlength=self.shape[0]
        )

    def rmatvec(self, a: np.ndarray) -> np.ndarray:
        """Xᵀ @ a for a vector a of length n."""
        a = np.asarray(a, dtype=float)
        if a.shape != (self.shape[0],):
            raise ValueError(f"cannot multiply {self.shape}ᵀ by {a.shape}")
        return np.bincount(
            self.indices, weights=self.data * a[self._row_ids()], minlength=self.shape[1]
        )

    # -- reductions ---------------------------------------------------------

    def col_mean(self) -> np.ndarray:
        """Bit-equal to X.toarray().mean(axis=0)."""
        n, d = self.shape
        if d == 1:
            # one column is contiguous, and numpy sums it pairwise
            return self.toarray().mean(axis=0)
        # numpy reduces a C-ordered matrix over axis 0 row after row; bincount
        # adds the entries in the same (row-major) order
        return np.bincount(self.indices, weights=self.data, minlength=d) / n

    def col_var(self) -> np.ndarray:
        """Bit-equal to X.toarray().var(axis=0): (x − mean)² is accumulated
        row after row, the implicit zeros contributing mean² in their rows."""
        n, d = self.shape
        if d == 1:
            return self.toarray().var(axis=0)
        mean = self.col_mean()
        zero_dev = mean * mean
        dev = self.data - mean[self.indices]
        dev *= dev
        acc = np.zeros(d)
        for block, rows, span in self._dense_row_blocks(extra=1):
            # block[0] carries the running sum, so the axis-0 sum continues the
            # same row-by-row order across blocks
            block[0] = acc
            block[1:] = zero_dev
            block[rows + 1, self.indices[span]] = dev[span]
            block.sum(axis=0, out=acc)
        return acc / n

    def row_norms(self) -> np.ndarray:
        """Each row's Euclidean norm: its squared stored entries summed in
        stored order from zero, bit-equal to np.sqrt(np.cumsum(D * D, axis=1)[:, -1])
        for D = X.toarray(). Unlike _row_ids, it leaves no per-entry array
        on the matrix."""
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        return np.sqrt(np.bincount(rows, weights=self.data * self.data, minlength=self.shape[0]))

    # -- the centered Gram matrix -----------------------------------------

    def dense_columns(self) -> np.ndarray:
        """Whether each column is stored in more than half the rows."""
        n, d = self.shape
        return 2 * np.bincount(self.indices, minlength=d) > n

    def pair_count(self, dense: np.ndarray) -> int:
        """The pairs of stored entries centered_gram multiplies, (j, k) and
        (k, j) counted once: m(m + 1)/2 summed over the rows, m a row's
        stored entries outside the `dense` columns."""
        m = np.diff(self._kept_indptr(~dense[self.indices]))
        return int((m * (m + 1) // 2).sum())

    def centered_gram(
        self, mean: np.ndarray, y: np.ndarray, dense: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Xcᵀ Xc and Xcᵀ y for Xc = X − mean, X's column means, and a
        centered y, formed from the stored entries; no dense copy of X.

        The `dense` columns are centered explicitly as a dense copy Dc. For
        the others G starts at −n·μμᵀ and gains Σᵢ sᵢsᵢᵀ, the products of
        each pair of a row's stored entries. A column stored in a share p of
        the rows cancels at most p/(1 − p) of that sum, so no digits are lost
        when p ≤ 1/2 (dense_columns); a column of large mean stored in most
        rows would cancel badly, which is why those are centered first. The
        cross terms and the right-hand side are Xcᵀv = Xᵀv − μ·Σv for v each
        column of Dc, and y; the Dc block and Dcᵀy are Dc's own products.
        Rows are taken at most _PAIR_BLOCK stored entries (or one row) at a
        time, so the pair arrays stay a few MiB whatever the size of X."""
        n, d = self.shape
        cols = np.flatnonzero(dense)
        require_memory(8 * n * cols.size, f"a centered {n}×{cols.size} dense block")
        in_dense = dense[self.indices]
        Dc = np.zeros((cols.size, n))
        Dc[(np.cumsum(dense) - 1)[self.indices[in_dense]], self._row_ids()[in_dense]] = (
            self.data[in_dense]
        )
        Dc -= mean[cols, None]

        root = np.sqrt(n) * mean  # fl(a·b) = fl(b·a), so G stays symmetric
        G = np.multiply.outer(-root, root)
        self._add_pairs(G, ~in_dense)
        cross = np.array([self.rmatvec(v) - mean * v.sum() for v in Dc]).reshape(cols.size, d)
        cross[:, cols] = Dc @ Dc.T
        G[cols, :] = cross
        G[:, cols] = cross.T
        r = self.rmatvec(y) - mean * y.sum()
        r[cols] = Dc @ y
        return G, r

    def _kept_indptr(self, keep: np.ndarray) -> np.ndarray:
        """The row pointers of the entries where keep is true."""
        return np.concatenate(([0], np.cumsum(keep)))[self.indptr]

    def _add_pairs(self, G: np.ndarray, keep: np.ndarray) -> None:
        """Add v_j·v_k to G[j, k] and to G[k, j] (once when j = k) for each
        pair of kept entries in each row. Pairs are taken offset by offset
        within the rows: (p, p), then (p, p + 1), and so on; both halves of
        G gain the same values in the same order."""
        d = self.shape[1]
        out = G.reshape(-1)
        cols, vals = self.indices[keep], self.data[keep]
        indptr = self._kept_indptr(keep)
        n, lo = self.shape[0], 0
        while lo < n:
            hi = np.searchsorted(indptr, indptr[lo] + _PAIR_BLOCK, side="right") - 1
            hi = min(max(hi, lo + 1), n)
            a, b = indptr[lo], indptr[hi]
            c, v = cols[a:b], vals[a:b]
            # how many of its row's entries follow each entry
            after = np.repeat(indptr[lo + 1 : hi + 1], np.diff(indptr[lo : hi + 1]))
            after -= np.arange(a + 1, b + 1)
            lo = hi
            at, k = np.arange(b - a), 0
            while at.size:
                j, l = c[at], c[at + k]
                w = v[at] * v[at + k]
                np.add.at(out, j * d + l, w)
                if k:
                    np.add.at(out, l * d + j, w)
                k += 1
                at = at[after[at] >= k]

    def _dense_row_blocks(self, extra: int = 0):
        """Consecutive row blocks as dense scratch arrays of about _BLOCK
        elements. Yields (block, rows, span): the block has `extra` leading
        scratch rows before the block's own rows, rows holds each entry's row
        within the block's own rows, and span slices the block's entries."""
        row_ids = self._row_ids()
        for block, lo, hi in _scratch_blocks(*self.shape, extra):
            span = slice(self.indptr[lo], self.indptr[hi])
            yield block, row_ids[span] - lo, span


def _scratch_blocks(n: int, d: int, extra: int = 0):
    """Consecutive row ranges [lo, hi) of an n×d matrix, about _BLOCK
    elements each. Yields (block, lo, hi), the block a (hi − lo + extra)×d
    slice of one scratch buffer that every range reuses."""
    step = max(1, _BLOCK // max(d, 1))
    buf = np.empty((min(step, n) + extra, d))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        yield buf[: hi - lo + extra], lo, hi


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Whether each entry of a sorted array starts a run of equal keys."""
    new = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return new


def dense_row_blocks(X):
    """Consecutive row blocks of a CSR or dense X as (lo, block): block is a
    dense copy of rows lo, lo + 1, ... of about _BLOCK elements, in one
    scratch buffer that the next block overwrites."""
    if not isinstance(X, CsrMatrix):
        for block, lo, hi in _scratch_blocks(*X.shape):
            block[:] = X[lo:hi]
            yield lo, block
        return
    lo = 0
    for block, rows, span in X._dense_row_blocks():
        block[:] = 0.0
        block[rows, X.indices[span]] = X.data[span]
        yield lo, block
        lo += len(block)


def all_finite(X) -> bool:
    """Whether every stored value is finite (a CSR's implicit zeros are)."""
    return bool(np.isfinite(X.data if isinstance(X, CsrMatrix) else X).all())


def hstack(blocks: list) -> "np.ndarray | CsrMatrix":
    """Column-wise concatenation: a CSR matrix when any block is CSR, else
    the dense np.hstack. Each output row is its parts' rows side by side,
    in part order. A single block is returned as it is, not copied."""
    if len(blocks) == 1:
        return blocks[0]
    if not any(isinstance(b, CsrMatrix) for b in blocks):
        return np.hstack(blocks)
    parts = [b if isinstance(b, CsrMatrix) else CsrMatrix.from_dense(b) for b in blocks]
    n = parts[0].shape[0]
    if any(p.shape[0] != n for p in parts):
        raise ValueError("blocks disagree on row count")
    indptr = np.sum([p.indptr for p in parts], axis=0, dtype=np.intp)
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=np.intp)
    # where each row's entries of the next part go
    at = indptr[:-1].copy()
    offset = 0
    for p in parts:
        sizes = np.diff(p.indptr)
        dest = np.repeat(at - p.indptr[:-1], sizes) + np.arange(p.nnz)
        data[dest] = p.data
        indices[dest] = p.indices + offset
        at += sizes
        offset += p.shape[1]
    return CsrMatrix(data, indices, indptr, (n, offset))
