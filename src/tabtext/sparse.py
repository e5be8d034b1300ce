"""Compressed sparse row (CSR) matrices in plain numpy.

Only the operations the feature pipeline needs are here, so n-gram text
blocks reach the ridge solve without ever becoming dense n×d arrays. The
column reductions reproduce numpy's dense results bit for bit, because a
variance top-k selection can flip on a 1-ulp difference.
"""
from __future__ import annotations

import numpy as np

from .core import require_memory

# Dense scratch elements per block of rows in col_var, row_norms and
# dense_row_blocks.
_BLOCK = 1 << 20


class CsrMatrix:
    """Row i holds the columns indices[indptr[i]:indptr[i+1]] (strictly
    increasing) with the values in the same slice of data."""

    ndim = 2

    def __init__(self, data, indices, indptr, shape: tuple[int, int]):
        self.data = np.asarray(data, dtype=float)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.shape = (int(shape[0]), int(shape[1]))
        if (
            len(self.indptr) != self.shape[0] + 1
            or len(self.indices) != len(self.data)
            or self.indptr[-1] != len(self.data)
        ):
            raise ValueError("inconsistent CSR arrays")

    @classmethod
    def from_dense(cls, X: np.ndarray) -> "CsrMatrix":
        X = np.asarray(X, dtype=float)
        rows, cols = np.nonzero(X)
        return cls.from_coo(rows, cols, X[rows, cols], X.shape)

    @classmethod
    def from_coo(cls, rows, cols, vals, shape: tuple[int, int]) -> "CsrMatrix":
        """Entries given as (row, column, value) triples in any order; the
        values at a repeated position are summed in the order given."""
        n, d = shape
        keys = np.asarray(rows, dtype=np.intp) * d + np.asarray(cols, dtype=np.intp)
        keys, slot = np.unique(keys, return_inverse=True)
        data = np.bincount(slot, weights=np.asarray(vals, dtype=float), minlength=len(keys))
        rows, cols = np.divmod(keys, max(d, 1))
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(data, cols, indptr, shape)

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
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

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
        kept_before = np.concatenate(([0], np.cumsum(keep)))
        return CsrMatrix(
            self.data[keep], mapped[keep], kept_before[self.indptr], (self.shape[0], cols.size)
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

    def sum(self, axis: int) -> np.ndarray:
        if axis == 0:
            return self._col_sum()
        if axis == 1:
            return np.bincount(self._row_ids(), weights=self.data, minlength=self.shape[0])
        raise ValueError(f"axis must be 0 or 1, got {axis}")

    def _col_sum(self) -> np.ndarray:
        if self.shape[1] == 1:
            # one column is contiguous, and numpy sums it pairwise
            return self.toarray().sum(axis=0)
        # numpy reduces a C-ordered matrix over axis 0 row after row; bincount
        # adds the entries in the same (row-major) order
        return np.bincount(self.indices, weights=self.data, minlength=self.shape[1])

    def col_mean(self) -> np.ndarray:
        """Bit-equal to X.toarray().mean(axis=0)."""
        return self._col_sum() / self.shape[0]

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
        """Bit-equal to np.sqrt((D * D).sum(axis=1)) for D = X.toarray():
        each row is summed as a dense row, in numpy's pairwise order."""
        sq = np.empty(self.shape[0])
        start = 0
        for block, rows, span in self._dense_row_blocks():
            block[:] = 0.0
            block[rows, self.indices[span]] = self.data[span] * self.data[span]
            block.sum(axis=1, out=sq[start : start + len(block)])
            start += len(block)
        return np.sqrt(sq)

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
    the dense np.hstack."""
    if not any(isinstance(b, CsrMatrix) for b in blocks):
        return np.hstack(blocks)
    parts = [b if isinstance(b, CsrMatrix) else CsrMatrix.from_dense(b) for b in blocks]
    n = parts[0].shape[0]
    if any(p.shape[0] != n for p in parts):
        raise ValueError("blocks disagree on row count")
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])
    return CsrMatrix.from_coo(
        np.concatenate([p._row_ids() for p in parts]),
        np.concatenate([p.indices + off for p, off in zip(parts, offsets)]),
        np.concatenate([p.data for p in parts]),
        (n, int(offsets[-1])),
    )
