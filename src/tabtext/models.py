"""Desk-scale predictive models behind one interface, plus a file-protocol
adapter for external prediction commands."""
from __future__ import annotations

import csv
import shlex
import subprocess
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import MISSING, TabTextError, Table, TaskKind, from_spec, require_memory
from .embed import FeatureMatrix
from .sparse import CsrMatrix, all_finite, dense_row_blocks


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


@dataclass(frozen=True)
class Ridge:
    alpha: float = 1.0

    tag = "ridge"


@dataclass(frozen=True)
class Logistic:
    l2: float = 1e-2
    max_iter: int = 1000

    tag = "logistic"


@dataclass(frozen=True)
class Gbdt:
    max_depth: int = 6
    learning_rate: float = 0.3
    n_rounds: int = 100

    tag = "gbdt"

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be at least 1")


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
# Ridge regression (unpenalized intercept via centering; the d×d primal,
# accumulated over row blocks, when d ≤ n, else the n×n dual, by conjugate
# gradients for a CSR design and by the dense Gram and LU when they do not
# converge)

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


def ridge_solve(X: np.ndarray | CsrMatrix, y: np.ndarray, alpha: float) -> tuple[np.ndarray, float]:
    """Minimize ||Xw + b - y||² + alpha·||w||² over (w, b).

    A design wider than tall (d > n) is solved in the dual,
    (Xc Xcᵀ + αI) a = y − ȳ with w = Xcᵀ a (Saunders, Gammerman & Vovk,
    ICML 1998), so no d×d matrix is formed; otherwise the primal
    (Xcᵀ Xc + αI) w = Xcᵀ (y − ȳ). Both give the same w. The primal and a
    wide CSR design's dual form no dense or centered copy of X; a wide dense
    design, or a wide CSR one that conjugate gradients do not solve, is
    densified and centered. Only what is formed is budgeted.
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
    """The primal with Xcᵀ Xc and Xcᵀ (y − ȳ) summed over dense row blocks
    of Xc, each centered in place, so X is never densified or centered as a
    whole. With one block the sums are Xc.T @ Xc and Xc.T @ (y − ȳ) bit for
    bit; a CSR design and its dense twin give the same blocks. The means are
    not subtracted algebraically (XᵀX − n·x̄x̄ᵀ), which cancels badly on a
    column of large mean."""
    n, d = X.shape
    require_memory(8 * d * d, f"a {d}×{d} ridge system")
    x_mean = X.col_mean() if isinstance(X, CsrMatrix) else X.mean(axis=0)
    y_mean = y.mean()
    yc = y - y_mean
    G = r = None
    for lo, block in dense_row_blocks(X):
        block -= x_mean
        part = yc[lo : lo + len(block)]
        if G is None:
            G, r = block.T @ block, block.T @ part
        else:
            G += block.T @ block
            r += block.T @ part
    if alpha == 0.0 and np.linalg.matrix_rank(G, hermitian=True) < d:
        raise SingularSystem("rank-deficient design with alpha=0")
    w = _solve_shifted(G, r, alpha)
    b = y_mean - float(x_mean @ w)
    return w, b


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


def _best_split(S, V, gh):
    """Exact greedy scan over all of one node's columns at once.

    Row c of S and V holds the node's row ids and values in its column's
    ascending order, ties by row id. gh carries each row's gradient and
    hessian as one complex number, so one cumsum gives both running sums,
    each rounded as its own cumsum would be. The node totals are row 0's
    sums. Gains are scored only where adjacent sorted values differ, in
    (position, column) order, so argmax breaks ties as a scan of the whole
    node would. Returns (gain, row of S, threshold) or None when no valid
    candidate exists (every column is constant within the node).
    """
    d = S.shape[0]
    sums = np.cumsum(gh[S], axis=1)
    gs, hs = sums.real, sums.imag
    G, H = gs[0, -1], hs[0, -1]
    i, c = np.divmod(np.flatnonzero((V[:, 1:] != V[:, :-1]).T), d)
    if i.size == 0:
        return None
    GL, HL = gs[c, i], hs[c, i]
    GR, HR = G - GL, H - HL
    parent = G * G / (max(H, _HESS_FLOOR) + _LEAF_L2)
    gain = 0.5 * (
        GL * GL / (np.maximum(HL, _HESS_FLOOR) + _LEAF_L2)
        + GR * GR / (np.maximum(HR, _HESS_FLOOR) + _LEAF_L2)
        - parent
    )
    best = int(np.argmax(gain))
    if not np.isfinite(gain[best]):
        return None
    i, c = i[best], c[best]
    return float(gain[best]), int(c), float((V[c, i] + V[c, i + 1]) / 2.0)


def _grow_tree(X, live, S, V, g, h, max_depth):
    """One tree over the training rows, and each training row's leaf value.

    Row c of S and V is the presort of column live[c]: its row ids and
    values in ascending order. Each node holds its rows in ascending order
    and its own part of S and V, without the columns constant within it; a
    split filters them, in order, into the two children.
    """
    n = X.shape[0]
    feature, threshold, left, right, value = [], [], [], [], []
    step = np.empty(n)
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
    # node's arrays are dropped once its children's are built
    pending = [(np.arange(n), live, S, V, 0, None)]
    while pending:
        rows, live, S, V, depth, link = pending.pop()
        if link is not None:
            side, parent = link
            side[parent] = len(feature)
        if depth >= max_depth or rows.size < 2:
            leaf(rows)
            continue
        # a column constant within a node is constant below it; column 0
        # stays for the node totals
        varies = V[:, -1] > V[:, 0]
        varies[0] = True
        if not varies.all():
            live, S, V = live[varies], S[varies], V[varies]
        found = _best_split(S, V, gh)
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
        j = int(live[c])
        node = len(feature)
        feature.append(j)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        go_left = X[rows, j] < thr
        in_left = X[S, j] < thr
        d = S.shape[0]
        for side, sel, kept in ((right, ~go_left, ~in_left), (left, go_left, in_left)):
            kept = np.flatnonzero(kept)  # stays in each column's sorted order
            pending.append((
                rows[sel],
                live,
                np.take(S, kept).reshape(d, -1),
                np.take(V, kept).reshape(d, -1),
                depth + 1,
                (side, node),
            ))
        del rows, S, V, go_left, in_left, kept  # only the children hold them now

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
    the target's mean, classification from zero margins."""
    n, k = Y.shape
    # presort once: the row ids and values of each column in ascending
    # order, ties by row id, skipping the columns constant on the training
    # rows (they never split); column 0 stays, as its order gives the totals
    varies = X.max(axis=0, initial=-np.inf) > X.min(axis=0, initial=np.inf)  # none if no rows
    # np.union1d(0, ...) would do, but its np.unique imports numpy.ma
    live = np.flatnonzero(np.concatenate(([True], varies[1:])))
    require_memory(16 * n * live.size, f"the booster's {n}×{live.size} presort")
    V = X.T[live]
    S = np.argsort(V, axis=1, kind="stable")
    V.sort(axis=1, kind="stable")
    base = Y.mean(axis=0) if task is TaskKind.REGRESSION else np.zeros(k)
    fit = _GbdtFit([], base, cfg.learning_rate)
    F = np.tile(base, (n, 1))
    P, H = _link(F, task)
    for _ in range(cfg.n_rounds):
        G = P - Y
        round_trees = []
        for c in range(k):
            tree, step = _grow_tree(X, live, S, V, G[:, c], H[:, c], cfg.max_depth)
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
