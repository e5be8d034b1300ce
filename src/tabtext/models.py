"""Desk-scale predictive models behind one interface, plus a file-protocol
adapter for external prediction commands."""
from __future__ import annotations

import csv
import math
import numbers
import shlex
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import core
from .core import (
    MISSING,
    TabTextError,
    Table,
    TaskKind,
    check_count,
    from_spec,
    require_memory,
)
from .embed import FeatureMatrix
from .sparse import _BLOCK, CsrMatrix, all_finite, dense_row_blocks


class SingularSystem(TabTextError):
    pass


class NonFiniteInput(TabTextError):
    pass


class WidthMismatch(TabTextError):
    pass


class NonZeroExit(TabTextError):
    def __init__(self, code: int, stderr_tail: str):
        super().__init__(f"external command exited {code}: {stderr_tail}")
        self.code = code
        self.stderr_tail = stderr_tail


class BadOutputShape(TabTextError):
    pass


class ExternalTimeout(TabTextError):
    pass


# ---------------------------------------------------------------------------
# Model configurations


def _check_penalty(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        math.isfinite(value) and value >= 0
    ):
        raise ValueError(f"{name} must be a finite number of at least 0, got {value!r}")


@dataclass(frozen=True)
class Ridge:
    alpha: float = 1.0

    tag = "ridge"

    def __post_init__(self):
        _check_penalty("alpha", self.alpha)


@dataclass(frozen=True)
class Logistic:
    l2: float = 1e-2
    max_iter: int = 1000

    tag = "logistic"

    def __post_init__(self):
        _check_penalty("l2", self.l2)
        check_count("max_iter", self.max_iter, 1)


@dataclass(frozen=True)
class Gbdt:
    max_depth: int = 6
    learning_rate: float = 0.3
    n_rounds: int = 100

    tag = "gbdt"

    def __post_init__(self):
        check_count("max_depth", self.max_depth, 1)
        rate = self.learning_rate
        if isinstance(rate, bool) or not isinstance(rate, numbers.Real) or not 0.0 < rate <= 1.0:
            raise ValueError(f"learning_rate must be a number in (0, 1], got {rate!r}")
        check_count("n_rounds", self.n_rounds, 1)


@dataclass(frozen=True)
class External:
    command: str
    raw_table: bool = False
    timeout: float = 600.0

    tag = "external"


ModelKind = Ridge | Logistic | Gbdt | External


def make_model(spec: dict) -> ModelKind:
    """Build a model from a config mapping, e.g. {"kind": "ridge", "alpha": 2.0}."""
    return from_spec(spec, ModelKind, "model")


# ---------------------------------------------------------------------------
# Ridge regression (unpenalized intercept via centering; the d×d primal when
# d ≤ n, its Gram formed from the pairs of a CSR design's stored entries
# when they are few and accumulated over dense row blocks otherwise, else the
# n×n dual, by conjugate gradients for a CSR design and by the dense Gram and
# LU when they do not converge)

# Conjugate gradients on the sparse dual check the true residual r once the
# updated one falls below _CG_TOL·α·‖a‖, and stop when
# ‖r‖ ≤ max(_CG_TOL·α, _CG_FLOOR·ε·λ̂)·‖a‖, with ε the machine epsilon and λ̂
# the largest Rayleigh quotient p·q/p·p seen, a lower bound on the dual
# matrix's norm. The second term is the rounding floor: a product with the
# dual matrix is only exact to about ε·λ̂·‖a‖ (measured: at most 1.3 of it
# on standardized designs of up to 16 000 rows), so a small α or many rows
# would otherwise make the test unreachable. The dual matrix's smallest
# eigenvalue is at least α, so the relative error of a is at most
# max(_CG_TOL, _CG_FLOOR·ε·λ̂/α).
_CG_TOL = 1e-12
_CG_FLOOR = 8

# The primal of a CSR design forms its Gram from the pairs of stored entries
# when n·d² > _PAIR_CROSSOVER·(P + |D|·nnz) (_primal), else over dense row
# blocks. Set from both paths' Gram times on 123 synthetic designs: n 400,
# 1 600 and 6 400; d 40, 100, 300 and 700; Poisson(m) entries a row, m 2, 6,
# 15 and 40; 0, 3 or 10 dense columns; a 2-vCPU Xeon VM, numpy 2.4 and
# OpenBLAS 0.3. Every design with a ratio above 1 000 took the pair path at
# least 1.33× faster; the blocks were faster on some designs up to 744.
_PAIR_CROSSOVER = 1000


def ridge_solve(X: np.ndarray | CsrMatrix, y: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """Minimize ||Xw + b - y||² + alpha·||w||² over (w, b).

    A design wider than tall (d > n) is solved in the dual,
    (Xc Xcᵀ + αI) a = y − ȳ with w = Xcᵀ a (Saunders, Gammerman & Vovk,
    ICML 1998), so no d×d matrix is formed; otherwise the primal
    (Xcᵀ Xc + αI) w = Xcᵀ (y − ȳ). Both give the same w. The primal and a
    wide CSR design's dual form no dense or centered copy of X (the primal
    of a CSR design centers only its columns stored in more than half the
    rows, see _primal); a wide dense design, or a wide CSR one that
    conjugate gradients do not solve, is densified and centered. Only what
    is formed is budgeted.
    """
    n, d = X.shape
    if d <= n:
        return _primal(X, y, alpha)
    if alpha == 0.0:  # centered, d > n columns have rank < d
        raise SingularSystem("rank-deficient design with alpha=0")
    if isinstance(X, CsrMatrix):
        solved = _sparse_dual(X, y, alpha)
        if solved is not None:
            return solved
        X = X.toarray()
    require_memory(8 * n * n, f"a {n}×{n} ridge system")
    require_memory(8 * n * d, f"a centered {n}×{d} design")
    x_mean = X.mean(axis=0)
    y_mean = y.mean()
    Xc = X - x_mean
    w = Xc.T @ _solve_shifted(Xc @ Xc.T, y - y_mean, alpha)
    b = y_mean - float(x_mean @ w)
    return w, b


def _primal(X: np.ndarray | CsrMatrix, y: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """The primal, X never densified or centered as a whole. Xcᵀ Xc and
    Xcᵀ (y − ȳ) come from one of two paths:

    - a CSR design goes through CsrMatrix.centered_gram, built from the
      pairs of each row's stored entries, when n·d² > _PAIR_CROSSOVER·work,
      with work = P + |D|·nnz: P is its pair_count, and |D| the columns
      stored in more than half the rows, each centered densely and crossed
      with every stored entry;
    - every other design, each dense ndarray among them, goes through
      _block_gram, whose sums over dense row blocks fix its bits.

    On either path a rank-deficient system with alpha = 0 is refused."""
    n, d = X.shape
    require_memory(8 * d * d, f"a {d}×{d} ridge system")
    x_mean = X.col_mean() if isinstance(X, CsrMatrix) else X.mean(axis=0)
    y_mean = y.mean()
    yc = y - y_mean
    dense = X.dense_columns() if isinstance(X, CsrMatrix) else None
    if dense is not None and n * d * d > _PAIR_CROSSOVER * (
        X.pair_count(dense) + int(dense.sum()) * X.nnz
    ):
        G, r = X.centered_gram(x_mean, yc, dense)
    else:
        G, r = _block_gram(X, x_mean, yc)
    if alpha == 0.0 and np.linalg.matrix_rank(G, hermitian=True) < d:
        raise SingularSystem("rank-deficient design with alpha=0")
    w = _solve_shifted(G, r, alpha)
    b = y_mean - float(x_mean @ w)
    return w, b


def _block_gram(X: np.ndarray | CsrMatrix, x_mean: np.ndarray, yc: np.ndarray):
    """Xcᵀ Xc and Xcᵀ yc summed over dense row blocks of Xc, each centered
    in place. With one block the sums are Xc.T @ Xc and Xc.T @ yc bit for
    bit; a CSR design and its dense twin give the same blocks. The means are
    not subtracted algebraically (XᵀX − n·x̄x̄ᵀ), which cancels badly on a
    column of large mean."""
    G = r = None
    for lo, block in dense_row_blocks(X):
        block -= x_mean
        part = yc[lo : lo + len(block)]
        if G is None:
            G, r = block.T @ block, block.T @ part
        else:
            G += block.T @ block
            r += block.T @ part
    return G, r


def _sparse_dual(X: CsrMatrix, y: np.ndarray, alpha: float) -> tuple[np.ndarray, float] | None:
    """The dual on a CSR design, with no dense or centered copy of X:
    Xc u = Xu − x̄·u and Xcᵀv = Xᵀv − x̄·Σv. Conjugate gradients (Hestenes &
    Stiefel, 1952) on v ↦ Xc(Xcᵀv) + αv form no n×n matrix; they get 2n
    products, since in floating point they often need more than n. None when
    they do not converge, and the caller solves the dense dual instead."""
    x_mean = X.col_mean()
    y_mean = y.mean()

    def times_t(v):
        return X.rmatvec(v) - x_mean * v.sum()

    def apply(v):
        u = times_t(v)
        return X @ u - x_mean @ u + alpha * v

    a = _conjugate_gradients(apply, y - y_mean, alpha, 2 * X.shape[0])
    if a is None:
        return None
    w = times_t(a)
    b = y_mean - float(x_mean @ w)
    return w, b


def _conjugate_gradients(apply, rhs: np.ndarray, alpha: float, max_iter: int) -> np.ndarray | None:
    """Solve apply(a) = rhs for a symmetric operator whose eigenvalues are at
    least alpha > 0, to the test above. None when the test is not met within
    max_iter products, or when a failed check of the true residual does not
    halve the last one (it sits at the floor of a badly scaled design)."""
    a = np.zeros_like(rhs)
    r = rhs.copy()
    rr = r @ r
    if rr == 0.0:
        return a
    p = r.copy()
    top = 0.0  # λ̂
    last = np.inf  # the last true residual that failed the test
    for _ in range(max_iter):
        q = apply(p)
        pq = p @ q
        if not pq > 0.0:  # not positive definite: a negative alpha
            return None
        top = max(top, pq / (p @ p))
        step = rr / pq
        a += step * p
        r -= step * q
        rr, rr_old = r @ r, rr
        norm_a = np.linalg.norm(a)
        if np.sqrt(rr) <= _CG_TOL * alpha * norm_a:
            # the updated residual drifts from rhs − apply(a); check the latter
            r = rhs - apply(a)
            rr = r @ r
            floor = _CG_FLOOR * np.finfo(float).eps * top
            if np.sqrt(rr) <= max(_CG_TOL * alpha, floor) * norm_a:
                return a
            if np.sqrt(rr) > last / 2:
                return None
            last = np.sqrt(rr)
        p = r + (rr / rr_old) * p
    return None


def _solve_shifted(A: np.ndarray, rhs: np.ndarray, alpha: float) -> np.ndarray:
    """Solve (A + αI) x = rhs by LU, overwriting A's diagonal."""
    A[np.diag_indices_from(A)] += alpha
    try:
        return np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc


# ---------------------------------------------------------------------------
# L2 logistic regression (softmax, gradient descent with backtracking)


def _softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    e = np.exp(Z)
    return e / e.sum(axis=1, keepdims=True)


def logistic_solve(
    X: np.ndarray,
    Y: np.ndarray,
    l2: float,
    max_iter: int = 1000,
    tol: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize mean cross-entropy + (l2/2)*||W||^2 over (W, b); Y is one-hot."""
    n, d = X.shape
    n_classes = Y.shape[1]
    W = np.zeros((d, n_classes))
    b = np.zeros(n_classes)

    def forward(W, b):
        P = _softmax(X @ W + b)
        ce = -np.sum(Y * np.log(P + 1e-300)) / n
        return P, ce + 0.5 * l2 * float((W * W).sum())

    # the accepted trial's P and loss serve the next gradient and line search
    P, loss = forward(W, b)
    step = 1.0
    for _ in range(max_iter):
        R = (P - Y) / n
        gW = X.T @ R + l2 * W
        gb = R.sum(axis=0)
        gnorm = max(np.abs(gW).max(), np.abs(gb).max())
        if gnorm < tol:
            break
        # backtracking line search (Armijo)
        step = min(step * 2.0, 1e4)
        decrease = float((gW * gW).sum() + (gb * gb).sum())
        while True:  # a step of at most 1e-12 is taken even if the loss rises
            W_new, b_new = W - step * gW, b - step * gb
            P_new, loss_new = forward(W_new, b_new)
            if step <= 1e-12 or loss_new <= loss - 1e-4 * step * decrease:
                break
            step *= 0.5
        W, b, P, loss = W_new, b_new, P_new, loss_new
    return W, b


# ---------------------------------------------------------------------------
# Gradient-boosted trees (second-order, exact greedy splits)


_LEAF_L2 = 1.0
_HESS_FLOOR = 1e-6

# A fit keeps the node layouts it builds (`_Layouts`) while the bytes they
# add to the presort stay within _KEEP_FACTOR presorts and within what the
# memory budget leaves after the presort. Per presorted entry (17 bytes with
# a one-byte rank), a root's candidates take at most 8 bytes and each
# searched level below it at most 24 (S, V and candidates), so 4 presorts
# hold the root and the two levels below it (56 bytes, 3.3 presorts).
_KEEP_FACTOR = 4


@dataclass
class _Tree:
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feats = self.feature[node]
            internal = feats >= 0
            if not internal.any():
                break
            rows = np.nonzero(internal)[0]
            goes_left = X[rows, feats[rows]] < self.threshold[node[rows]]
            node[rows] = np.where(
                goes_left, self.left[node[rows]], self.right[node[rows]]
            )
        return self.value[node]


def _candidates(V):
    """A node's candidate split positions: the flat positions c·m + i of its
    d×m sorted values V where V[c, i] < V[c, i + 1], in (i, c) order."""
    d, m = V.shape
    i, c = np.divmod(np.flatnonzero((V[:, 1:] != V[:, :-1]).T), d)
    return c * m + i


def _best_split(S, V, gh, cand):
    """Exact greedy scan over all of one node's columns at once.

    Row c of S and V holds the node's row ids and values in its column's
    ascending order, ties by row id. gh carries each row's gradient and
    hessian as one complex number, so one cumsum gives both running sums,
    each rounded as its own cumsum would be. The node totals are row 0's
    sums. Gains are scored only at the candidate positions cand
    (`_candidates`), where adjacent sorted values differ, in (position,
    column) order, so argmax breaks ties as a scan of the whole node would.
    Returns (gain, row of S, threshold) or None when no valid candidate
    exists (every column is constant within the node).
    """
    if cand.size == 0:
        return None
    sums = gh.take(S).cumsum(axis=1)
    G, H = sums[0, -1].real, sums[0, -1].imag
    at = sums.take(cand)
    GL, HL = at.real, at.imag
    GR, HR = G - GL, H - HL
    parent = G * G / (max(H, _HESS_FLOOR) + _LEAF_L2)
    gain = 0.5 * (
        GL * GL / (np.maximum(HL, _HESS_FLOOR) + _LEAF_L2)
        + GR * GR / (np.maximum(HR, _HESS_FLOOR) + _LEAF_L2)
        - parent
    )
    best = int(gain.argmax())
    if not np.isfinite(gain[best]):
        return None
    c, i = divmod(int(cand[best]), S.shape[1])
    return float(gain[best]), c, float((V[c, i] + V[c, i + 1]) / 2.0)


class _Layout:
    """A node's part of the presort. It depends only on the training design
    and the splits (j, thr) on the node's path, so a fit can keep it for
    every tree that reaches the node again: the node's rows in ascending
    order and, if the node is searched, the columns live that vary within it
    with their rows of S and V, and its candidate positions once a search
    has computed and kept them. children maps a split to the kept layouts of
    the two children it makes; it is None when this layout is not kept."""

    __slots__ = ("rows", "live", "S", "V", "cand", "children")

    def __init__(self, rows, live=None, S=None, V=None):
        self.rows, self.live, self.S, self.V = rows, live, S, V
        self.cand = None
        self.children = None

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (self.rows, self.live, self.S, self.V) if a is not None)


def _split_layout(X, node, j, thr, searched, left_of):
    """The layouts of node's two children at the split X[:, j] < thr, right
    then left. A child holds only its rows unless it is searched (searched
    says whether its depth allows it) and has two rows or more; then it also
    holds its part of S and V, filtered in each column's sorted order, without
    the columns constant within it (a column constant within a node is
    constant below it; column 0 stays for the node totals). left_of is an
    n-row scratch array."""
    rows, S, V = node.rows, node.S, node.V
    go_left = X[rows, j] < thr
    if searched:
        left_of[rows] = go_left  # whether a row goes left at this split
        in_left = left_of[S]
    d = S.shape[0] if searched else 0
    pair = []
    for is_left in (False, True):
        sub = rows[go_left if is_left else ~go_left]
        if not searched or sub.size < 2:
            pair.append(_Layout(sub))
            continue
        kept = np.flatnonzero(in_left if is_left else ~in_left)
        live = node.live
        sub_S, sub_V = np.take(S, kept).reshape(d, -1), np.take(V, kept).reshape(d, -1)
        varies = sub_V[:, -1] > sub_V[:, 0]
        varies[0] = True
        if not varies.all():
            live, sub_S, sub_V = live[varies], sub_S[varies], sub_V[varies]
        pair.append(_Layout(sub, live, sub_S, sub_V))
    return pair


class _Layouts:
    """The layouts one fit keeps, from the root (the presort itself) down,
    and the bytes they hold beyond the presort: at most bound. A layout is
    kept only with its parent, so every kept layout is reachable from the
    root; past the bound, layouts are built for one tree and dropped."""

    def __init__(self, root: _Layout, bound: int):
        self.root, self.bound, self.kept = root, bound, 0
        root.children = {}

    def _keep(self, nbytes: int) -> bool:
        if self.kept + nbytes > self.bound:
            return False
        self.kept += nbytes
        return True

    def candidates(self, node: _Layout) -> np.ndarray:
        """node's candidate positions, computed on its first search and kept
        with it when they fit."""
        cand = node.cand
        if cand is None:
            cand = _candidates(node.V)
            if node.children is not None and self._keep(cand.nbytes):
                node.cand = cand
        return cand

    def split(self, X, node: _Layout, j: int, thr: float, searched: bool, left_of):
        """The layouts of node's children at the split X[:, j] < thr: the
        kept pair if a tree made this split at this node before, else a new
        one, kept if node is and the pair fits."""
        key = (j, thr)
        pair = None if node.children is None else node.children.get(key)
        if pair is None:
            pair = _split_layout(X, node, j, thr, searched, left_of)
            if node.children is not None and self._keep(sum(c.nbytes for c in pair)):
                for child in pair:
                    child.children = {}
                node.children[key] = pair
        return pair


def _grow_tree(X, layouts, g, h, max_depth):
    """One tree over the training rows, and each training row's leaf value.

    Each node searches its layout (`_Layout`) from the fit's layouts: the
    root's is the presort, row c of its S and V the row ids and values of
    column live[c] in ascending order. A split takes the children's layouts
    the fit has kept for it, or filters new ones from the node's, in order.
    A layout is a function of the design and the path of splits alone, so
    reusing one gives the node the rows, S and V rows and candidates it
    would have built; only the gradient sums are new in each tree.
    """
    n = X.shape[0]
    feature, threshold, left, right, value = [], [], [], [], []
    step = np.empty(n)
    left_of = np.empty(n, dtype=bool)
    gh = np.empty(n, dtype=complex)
    gh.real, gh.imag = g, h

    def leaf(rows):
        G = g[rows].sum()
        H = h[rows].sum()
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(-G / (max(H, _HESS_FLOOR) + _LEAF_L2))
        step[rows] = value[-1]

    # depth first, left before right, so nodes are numbered in preorder; a
    # layout not kept is dropped once its children's are built
    pending = [(layouts.root, 0, None)]
    while pending:
        node, depth, link = pending.pop()
        if link is not None:
            side, parent = link
            side[parent] = len(feature)
        rows = node.rows
        if depth >= max_depth or rows.size < 2:
            leaf(rows)
            continue
        found = _best_split(node.S, node.V, gh, layouts.candidates(node))
        if found is None:
            leaf(rows)
            continue
        gain, c, thr = found
        # zero-gain splits are taken only when gradients cancel inside the
        # node; they cost nothing and let deeper levels separate XOR-like
        # patterns that greedy gain alone cannot see
        if gain <= 1e-12:
            g_node = g[rows]
            cancelling = abs(g_node.sum()) < 1e-9 < np.abs(g_node).sum()
            if not (gain > -1e-12 and cancelling):
                leaf(rows)
                continue
        j = int(node.live[c])
        at = len(feature)
        feature.append(j)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        pair = layouts.split(X, node, j, thr, depth + 1 < max_depth, left_of)
        for side, child in zip((right, left), pair):
            pending.append((child, depth + 1, (side, at)))
        del pair, child  # a child's layout is held by pending, and dropped once searched

    tree = _Tree(
        np.array(feature, dtype=np.int64),
        np.array(threshold),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(value),
    )
    return tree, step


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _link(F: np.ndarray, task: TaskKind) -> tuple[np.ndarray, np.ndarray]:
    """The predictions P for the n×k margin F and the diagonal hessian H of
    the loss in F: the identity (P is F itself) and 1 for regression, the
    sigmoid of one margin column for binary, the softmax for multiclass,
    both with P(1 − P)."""
    if task is TaskKind.REGRESSION:
        return F, np.ones_like(F)
    P = _sigmoid(F) if F.shape[1] == 1 else _softmax(F)
    return P, P * (1 - P)


def _loss(P: np.ndarray, Y: np.ndarray, task: TaskKind) -> float:
    """Mean squared error, binary or multiclass cross-entropy of P against Y."""
    if task is TaskKind.REGRESSION:
        return float(np.mean((P - Y) ** 2))
    if P.shape[1] == 1:
        return float(-np.mean(Y * np.log(P + 1e-15) + (1 - Y) * np.log(1 - P + 1e-15)))
    return float(-np.mean(np.sum(Y * np.log(P + 1e-15), axis=1)))


def _merge_equal_orders(live, S, V, rank_type):
    """The presort (live, S, V) with one row per distinct order of the
    training rows: of each group of columns with equal rank vectors, the
    first (so column 0 stays first). A column's rank vector gives each row
    the count of value changes before it in the column's sorted order. The
    vectors are built a block of about _BLOCK entries at a time, as
    rank_type, and the kept ones are held as dict keys. The kept rows are
    moved up in place and the arrays returned as views of their first rows,
    so the merge allocates no second presort."""
    d, n = S.shape
    first: dict[bytes, int] = {}
    kept = 0
    step = max(1, _BLOCK // max(n, 1))
    for lo in range(0, d, step):
        s, v = S[lo : lo + step], V[lo : lo + step]
        changes = np.zeros(s.shape, dtype=rank_type)
        np.cumsum(v[:, 1:] != v[:, :-1], axis=1, dtype=rank_type, out=changes[:, 1:])
        rank = np.empty_like(changes)
        np.put_along_axis(rank, s, changes, axis=1)
        new = [c for c, r in enumerate(rank, lo) if first.setdefault(r.tobytes(), c) == c]
        # row kept + i takes row new[i] ≥ kept + i, not yet overwritten
        end = kept + len(new)
        live[kept:end], S[kept:end], V[kept:end] = live[new], S[new], V[new]
        kept = end
    return live[:kept], S[:kept], V[:kept]


@dataclass
class _GbdtFit:
    trees: list  # per round, one _Tree per margin column
    base: np.ndarray  # the k margins every row starts from
    learning_rate: float
    train_loss: list[float] = field(default_factory=list)


def _fit_gbdt(cfg: Gbdt, X: np.ndarray, Y: np.ndarray, task: TaskKind) -> _GbdtFit:
    """Boost the n×k margin F of the n×k target Y: the regression target or
    the binary second class as one column, or the multiclass one-hot. Each
    round grows one tree per column from the gradient P − Y and the hessian
    H at the round's start, then records the loss. Regression starts from
    the target's mean, classification from zero margins.

    Every tree searches one column per distinct order of the training rows
    (`_merge_equal_orders`), which leaves the trees, the loss and the
    predictions as a search of every column gives them, bit for bit. Two
    columns with equal rank vectors have, at every node, the same rows in
    the same sorted order (ties by row id), so the same S rows, candidate
    positions, cumsums and gains; they differ only in their values, which
    enter a split only as the threshold of the column that wins it. The
    search's (position, column) argmax gives every tie to the first such
    column, which is the one kept, and dropping the later ones changes no
    other column's candidates. Equal values share a rank by the same `!=`
    test that marks candidates, which sorts consistently because `fit`
    refuses non-finite values.

    The fit keeps the node layouts its trees build (`_Layouts`), for every
    later tree and margin column: each node's rows, live columns, S and V
    rows and candidate positions. They are kept while the bytes they add
    stay within _KEEP_FACTOR presorts and within what the memory budget
    leaves after the presort; past that, a tree builds its layouts and
    drops them. A layout is a function of X and of the splits (j, thr) on
    the node's path alone: the split X[:, j] < thr picks the same rows out
    of the same parent, and the filter keeps their sorted order. So a kept
    layout is bit for bit the one the node would build, and the trees
    cannot change with what is kept; only gh[S], its cumsum and the gains
    are computed anew in each tree."""
    n, k = Y.shape
    # presort once: the row ids and values of each column in ascending
    # order, ties by row id, skipping the columns constant on the training
    # rows (they never split); column 0 stays, as its order gives the totals
    varies = X.max(axis=0, initial=-np.inf) > X.min(axis=0, initial=np.inf)  # none if no rows
    # np.union1d(0, ...) would do, but its np.unique imports numpy.ma
    live = np.flatnonzero(np.concatenate(([True], varies[1:])))
    rank_type = np.min_scalar_type(max(n - 1, 0))
    presort = (16 + rank_type.itemsize) * n * live.size
    require_memory(presort, f"the booster's {n}×{live.size} presort")
    V = X.T[live]
    S = np.argsort(V, axis=1, kind="stable")
    V.sort(axis=1, kind="stable")
    live, S, V = _merge_equal_orders(live, S, V, rank_type)
    layouts = _Layouts(
        _Layout(np.arange(n), live, S, V),
        min(_KEEP_FACTOR * presort, core.MEMORY_BUDGET_BYTES - presort),
    )
    base = Y.mean(axis=0) if task is TaskKind.REGRESSION else np.zeros(k)
    fit = _GbdtFit([], base, cfg.learning_rate)
    F = np.tile(base, (n, 1))
    P, H = _link(F, task)
    for _ in range(cfg.n_rounds):
        G = P - Y
        round_trees = []
        for c in range(k):
            tree, step = _grow_tree(X, layouts, G[:, c], H[:, c], cfg.max_depth)
            F[:, c] += cfg.learning_rate * step
            round_trees.append(tree)
        fit.trees.append(round_trees)
        P, H = _link(F, task)
        fit.train_loss.append(_loss(P, Y, task))
    return fit


def _gbdt_scores(fit: _GbdtFit, X: np.ndarray, task: TaskKind) -> np.ndarray:
    """The n×k predictions: the link of the base plus every tree's step."""
    F = np.tile(fit.base, (X.shape[0], 1))
    for round_trees in fit.trees:
        for c, tree in enumerate(round_trees):
            F[:, c] += fit.learning_rate * tree.predict(X)
    return _link(F, task)[0]


# ---------------------------------------------------------------------------
# Unified fit/predict


@dataclass
class FittedModel:
    task: TaskKind
    n_features_expected: int
    classes: list | None
    _inner: object  # a _GbdtFit, or the (weights, intercept) of Ridge or Logistic

    @property
    def train_loss(self) -> list[float]:
        """The booster's loss after each round; empty for the other models."""
        return getattr(self._inner, "train_loss", [])

    def _check(self, X: np.ndarray):
        if X.ndim != 2 or X.shape[1] != self.n_features_expected:
            raise WidthMismatch(
                f"expected {self.n_features_expected} features, got {X.shape}"
            )

    def _scores(self, X) -> np.ndarray:
        """The n×1 regression predictions, or the n×classes probabilities."""
        if isinstance(self._inner, _GbdtFit):
            P = _gbdt_scores(self._inner, np.asarray(X), self.task)
            # a binary booster's one margin gives the second class's probability
            return np.column_stack([1 - P, P]) if len(self.classes or ()) == 2 else P
        W, b = self._inner
        if self.task is TaskKind.REGRESSION:
            return (X @ W + b)[:, None]  # Ridge keeps a CSR design sparse
        return _softmax(np.asarray(X) @ W + b)

    def predict(self, X: np.ndarray):
        self._check(X)
        if X.shape[0] == 0:
            return np.array([]) if self.task is TaskKind.REGRESSION else []
        scores = self._scores(X)
        if self.task is TaskKind.REGRESSION:
            return scores[:, 0]
        return [self.classes[i] for i in np.argmax(scores, axis=1)]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._check(X)
        if self.task is TaskKind.REGRESSION:
            raise TabTextError("probabilities are undefined for regression")
        return self._scores(X)


def one_hot(y) -> tuple[list, np.ndarray]:
    """The labels' classes, sorted by their string form, and the n x classes
    0/1 indicator matrix of y over them."""
    classes = sorted(set(y), key=str)
    index = {c: i for i, c in enumerate(classes)}
    return classes, np.eye(len(classes))[[index[v] for v in y]]


def fit(kind: ModelKind, X: np.ndarray | CsrMatrix, y, task: TaskKind) -> FittedModel:
    if not (isinstance(kind, Ridge) and isinstance(X, CsrMatrix)):
        X = np.asarray(X, dtype=float)
    if not all_finite(X):
        raise NonFiniteInput("feature matrix contains non-finite values")
    if X.shape[0] != len(y):
        raise ValueError("X and y disagree on row count")

    if task is TaskKind.REGRESSION:
        y_arr = np.asarray(y, dtype=float)
        if not np.isfinite(y_arr).all():
            raise NonFiniteInput("target contains non-finite values")
        if isinstance(kind, Ridge):
            inner = ridge_solve(X, y_arr, kind.alpha)
        elif isinstance(kind, Gbdt):
            inner = _fit_gbdt(kind, X, y_arr[:, None], task)
        else:
            raise TabTextError(f"{kind.tag} does not support regression")
        return FittedModel(task, X.shape[1], None, inner)

    classes, Y = one_hot(y)
    if isinstance(kind, Logistic):
        inner = logistic_solve(X, Y, kind.l2, kind.max_iter)
    elif isinstance(kind, Gbdt):
        if len(classes) < 2:  # one margin column would read as binary
            raise TabTextError(f"gbdt needs at least 2 classes, got {len(classes)}")
        inner = _fit_gbdt(kind, X, Y[:, 1:] if len(classes) == 2 else Y, task)
    else:
        raise TabTextError(f"{kind.tag} does not support classification")
    return FittedModel(task, X.shape[1], classes, inner)


# ---------------------------------------------------------------------------
# External model protocol


TARGET_FIELD = "__target"


def _write_external_csv(path: Path, data: FeatureMatrix | Table, include_target: bool):
    """Feature names, then one row per row: a feature matrix's values as
    repr(float), a table's feature cells as text (MISSING empty), followed by
    the target under TARGET_FIELD when include_target."""
    if isinstance(data, Table):
        cols = data.feature_columns
        header = [c.name for c in cols]
        rows = (
            ["" if c.values[i] is MISSING else str(c.values[i]) for c in cols]
            for i in range(data.n_rows)
        )
        targets = data.target_column.values
    else:
        header = data.feature_names()
        rows = ([repr(float(v)) for v in x] for x in np.asarray(data.X))
        targets = data.y
    if include_target:
        header = header + [TARGET_FIELD]
        rows = (row + [str(t)] for row, t in zip(rows, targets))
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_external(
    command: str,
    train: FeatureMatrix | Table,
    test: FeatureMatrix | Table,
    timeout: float = 600.0,
) -> list[str]:
    """Drive an external predictor over the CSV file protocol.

    Writes train.csv (features plus __target) and test.csv (features only)
    to a scratch directory, invokes `command train.csv test.csv out.csv`,
    and returns out.csv's first column, 'prediction'; any further columns
    are ignored.
    """
    # imported on first use: it is start-up time for every CLI command
    import subprocess

    n_test = test.n_rows
    with tempfile.TemporaryDirectory(prefix="tabtext-ext-") as tmp:
        tmpdir = Path(tmp)
        train_path = tmpdir / "train.csv"
        test_path = tmpdir / "test.csv"
        out_path = tmpdir / "out.csv"
        _write_external_csv(train_path, train, include_target=True)
        _write_external_csv(test_path, test, include_target=False)
        argv = shlex.split(command) + [str(train_path), str(test_path), str(out_path)]
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise ExternalTimeout(f"external command exceeded {timeout}s") from exc
        if proc.returncode != 0:
            raise NonZeroExit(proc.returncode, proc.stderr[-2000:])
        if not out_path.exists():
            raise BadOutputShape("external command produced no output file")
        with out_path.open(newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0] != "prediction":
        raise BadOutputShape("output header must start with 'prediction'")
    header, body = rows[0], rows[1:]
    if len(body) != n_test:
        raise BadOutputShape(f"expected {n_test} prediction rows, got {len(body)}")
    if any(len(r) != len(header) for r in body):
        raise BadOutputShape("ragged prediction rows")
    return [r[0] for r in body]
