"""Reference helpers the tests build inputs with or compare against; the
package itself has no use for them."""
import numpy as np

from tabtext.sparse import CsrMatrix


def csr_from_coo(rows, cols, vals, shape: tuple[int, int]) -> CsrMatrix:
    """A CSR matrix from (row, column, value) triples in any order; the
    values at a repeated position are summed in the order given."""
    n, d = shape
    keys = np.asarray(rows, dtype=np.intp) * d + np.asarray(cols, dtype=np.intp)
    keys, slot = np.unique(keys, return_inverse=True)
    data = np.bincount(slot, weights=np.asarray(vals, dtype=float), minlength=len(keys))
    rows, cols = np.divmod(keys, max(d, 1))
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return CsrMatrix(data, cols, indptr, shape)


def word_ngrams(tokens: list[str], lo: int, hi: int) -> list[str]:
    """The lo-grams in order, then the (lo + 1)-grams, ... up to the hi-grams."""
    grams = []
    for n in range(lo, hi + 1):
        grams.extend(tokens if n == 1 else map(" ".join, zip(*(tokens[i:] for i in range(n)))))
    return grams
