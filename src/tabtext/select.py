"""Feature-downsampling strategies: score every feature, keep the top k."""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .core import TabTextError, TaskKind, require_memory
from .embed import FeatureMatrix
from .models import _softmax, logistic_solve, one_hot, ridge_solve
from .sparse import CsrMatrix

_ALL_TASKS = {TaskKind.REGRESSION, TaskKind.BINARY, TaskKind.MULTICLASS}

_APPLICABLE: dict[str, set[TaskKind]] = {
    "ttest": {TaskKind.BINARY},
    "anova": {TaskKind.BINARY, TaskKind.MULTICLASS},
    "variance": _ALL_TASKS,
    "pca": _ALL_TASKS,
    "l1": _ALL_TASKS,
    "correlation": {TaskKind.REGRESSION},
    "shap": _ALL_TASKS,
    "random": _ALL_TASKS,
}
SELECTOR_KINDS = tuple(_APPLICABLE)

_EPS = 1e-12


class NotBinary(TabTextError):
    pass


class DegenerateClasses(TabTextError):
    pass


class SelectorNotApplicable(TabTextError):
    pass


class IndexOutOfRange(TabTextError):
    pass


class NoConvergence(UserWarning):
    pass


def applicable(kind: str, task: TaskKind) -> bool:
    if kind not in _APPLICABLE:
        raise ValueError(f"unknown selector kind: {kind!r}")
    return task in _APPLICABLE[kind]


@dataclass
class SelectorResult:
    scores: np.ndarray
    selected: list[int]


def _take(k: int, d: int) -> int:
    """How many of d features a top-k selection keeps."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return min(k, d)


def _top_k(scores: np.ndarray, k: int) -> SelectorResult:
    d = len(scores)
    take = _take(k, d)
    # higher score wins; ties go to the lower original index
    order = np.lexsort((np.arange(d), -scores))
    return SelectorResult(scores, sorted(int(j) for j in order[:take]))


def _groups(y) -> dict:
    out: dict = {}
    for i, v in enumerate(y):
        out.setdefault(v, []).append(i)
    return out


# ---------------------------------------------------------------------------
# Statistical tests


def select_ttest(X: np.ndarray, y, k: int) -> SelectorResult:
    """Per-feature Welch t statistic between the two classes."""
    groups = _groups(y)
    if len(groups) != 2:
        raise NotBinary(f"t-test needs exactly 2 classes, got {len(groups)}")
    (rows0, rows1) = (groups[lab] for lab in sorted(groups, key=str))
    if min(len(rows0), len(rows1)) < 2:
        raise NotBinary("each class needs at least 2 samples")
    X0, X1 = X[rows0], X[rows1]
    var0 = X0.var(axis=0, ddof=1)
    var1 = X1.var(axis=0, ddof=1)
    t = (X1.mean(axis=0) - X0.mean(axis=0)) / np.sqrt(
        var1 / len(rows1) + var0 / len(rows0) + _EPS
    )
    return _top_k(np.abs(t), k)


def select_anova(X: np.ndarray, y, k: int) -> SelectorResult:
    """One-way F statistic per feature across all classes."""
    groups = _groups(y)
    if len(groups) < 2 or any(len(rows) < 2 for rows in groups.values()):
        raise DegenerateClasses("ANOVA needs >= 2 classes with >= 2 samples each")
    n = X.shape[0]
    grand = X.mean(axis=0)
    between = np.zeros(X.shape[1])
    within = np.zeros(X.shape[1])
    for rows in groups.values():
        Xg = X[rows]
        gm = Xg.mean(axis=0)
        between += len(rows) * (gm - grand) ** 2
        within += ((Xg - gm) ** 2).sum(axis=0)
    msb = between / (len(groups) - 1)
    msw = within / (n - len(groups))
    return _top_k(msb / (msw + _EPS), k)


# ---------------------------------------------------------------------------
# Unsupervised filters


# Slack per row in variance_bounds: relative, for the roundings of the
# variance and of the mean square, and absolute, for squares that underflow.
_BOUND_REL = 8 * sys.float_info.epsilon
_BOUND_ABS = 8 * math.ulp(0.0)  # the smallest subnormal


def variance_bounds(X: CsrMatrix) -> np.ndarray:
    """An upper bound on each column's CsrMatrix.col_var (NaN for a column
    holding NaN, whose variance is NaN): its mean square E[x²], inflated
    by a rounding margin. In exact arithmetic var = E[x²] − mean² ≤ E[x²].
    The computed variance adds n rounded squared deviations row after row,
    so it exceeds (1/n)·Σ(x − x̄)² by at most about n roundings, and using
    the rounded mean x̄ adds only a second-order term; the computed mean
    square falls short of E[x²] by at most about nnz + 1 roundings. A
    margin of 8·n·eps (eps = 2u) covers both, and 8·n subnormal steps
    cover the absolute error of squares that underflow."""
    n, d = X.shape
    sq = np.bincount(X.indices, weights=X.data * X.data, minlength=d)
    return sq / n * (1.0 + _BOUND_REL * n) + _BOUND_ABS * n


def _variance_from_nonzeros(X: CsrMatrix) -> np.ndarray:
    """(Σ(x − x̄)² + (n − nnz)·x̄²)/n per column, the sum over its stored
    entries: the variance, but not summed in numpy's order."""
    n, d = X.shape
    mean = X.col_mean()
    dev = X.data - mean[X.indices]
    dev *= dev
    stored = np.bincount(X.indices, minlength=d)
    return (np.bincount(X.indices, weights=dev, minlength=d) + (n - stored) * mean * mean) / n


def select_variance(X: np.ndarray | CsrMatrix, k: int) -> SelectorResult:
    """Each column's population variance; the k largest are kept, ties
    going to the lower index.

    A CSR design whose k is under half its width gets the exact variance
    (col_var, bit-equal to numpy's) only for the columns that can reach
    the top k. Each column's variance is at most its variance_bounds
    value. The columns are evaluated in order of bound, 2·k of them first
    and twice as many each round, until the k-th largest exact variance
    among them is strictly above the largest bound outside them. Every
    outside column then has a smaller variance, or a NaN one, which ranks
    last, so the top k of the evaluated columns under _top_k's (−score,
    index) rule is the top k of all columns: the same selection as
    ranking every exact variance. The evaluated columns' scores are their
    exact variances; the others' come from _variance_from_nonzeros."""
    d = X.shape[1]
    take = _take(k, d)
    if not isinstance(X, CsrMatrix):
        return _top_k(X.var(axis=0), k)
    if 2 * take < d:
        bound = variance_bounds(X)
        # a column holding NaN has a NaN variance, which ranks below every
        # other: it needs no evaluation to be outranked
        bound[np.isnan(bound)] = -np.inf
        order = np.argsort(-bound)
        # at least two columns, so col_var never takes its one-column branch
        m = 2 * take
        while m < d:
            cols = np.sort(order[:m])
            var = X.take_columns(cols).col_var()
            top = _top_k(var, take).selected
            if var[top].min() > bound[order[m]]:
                scores = _variance_from_nonzeros(X)
                scores[cols] = var
                return SelectorResult(scores, cols[top].tolist())
            m *= 2
    return _top_k(X.col_var(), k)


def select_pca(X: np.ndarray, k: int) -> SelectorResult:
    """Score each feature by its |loading| summed over components, weighted
    by explained variance ratio. Columns are centered, not rescaled."""
    n, d = X.shape
    if n < 2:
        raise TabTextError("PCA needs at least 2 rows")
    # the centered copy and the thin SVD's factors U, s and Vᵀ
    m = min(n, d)
    require_memory(8 * (n * d + n * m + m + m * d), f"PCA of a centered {n}×{d} design")
    Xc = X - X.mean(axis=0)
    _, s, vt = np.linalg.svd(Xc, full_matrices=False)
    lam = s**2 / n
    keep = lam >= _EPS
    if not keep.any():
        return _top_k(np.zeros(d), k)
    lam = lam[keep]
    loadings = vt[keep].T  # d x c
    evr = lam / lam.sum()
    return _top_k(np.abs(loadings) @ evr, k)


def select_random(d: int, k: int, seed: int) -> SelectorResult:
    """A seeded draw of min(k, d) features, each scored 1.0 (the rest 0.0)."""
    rng = np.random.default_rng([seed, d, 0x7A])
    scores = np.zeros(d)
    scores[rng.choice(d, size=min(k, d), replace=False)] = 1.0
    return _top_k(scores, k)


# ---------------------------------------------------------------------------
# Correlation filter


def select_correlation(X: np.ndarray, y: np.ndarray, k: int) -> SelectorResult:
    """|Pearson correlation| of each feature with the target; a constant
    feature scores 0."""
    y = np.asarray(y, dtype=float)
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    sx = np.sqrt((Xc**2).sum(axis=0))
    sy = np.sqrt((yc**2).sum())
    denom = sx * sy
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.where(denom > 0, Xc.T @ yc / np.where(denom > 0, denom, 1.0), 0.0)
    return _top_k(np.abs(corr), k)


# ---------------------------------------------------------------------------
# L1-regularized linear fits


def _standardize(X: np.ndarray) -> np.ndarray:
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    return (X - mean) / np.where(std > 0, std, 1.0)


def soft_threshold(a, lam):
    return np.sign(a) * np.maximum(np.abs(a) - lam, 0.0)


# stopping rule of both L1 fits: converged once no weight moves more than
# L1_TOL in one sweep (or step), given up after L1_MAX_ITER of them
L1_TOL = 1e-6
L1_MAX_ITER = 1000


def lasso_cd(
    X: np.ndarray, y: np.ndarray, lam: float, w0: np.ndarray | None = None
) -> tuple[np.ndarray, bool]:
    """Cyclic coordinate descent for (1/2n)||y - Xw||^2 + lam*||w||_1.

    Callers pass X with zero-mean columns; y is centered here so the
    intercept never enters. Converged when no coordinate moves more
    than `L1_TOL` in a full sweep.
    """
    n, d = X.shape
    yc = y - y.mean()
    w = np.zeros(d) if w0 is None else w0.copy()
    col_sq = (X * X).sum(axis=0) / n
    r = yc - X @ w
    for _ in range(L1_MAX_ITER):
        max_delta = 0.0
        for j in range(d):
            if col_sq[j] <= 0:
                continue
            rho = (X[:, j] @ r) / n + col_sq[j] * w[j]
            new_wj = soft_threshold(rho, lam) / col_sq[j]
            delta = new_wj - w[j]
            if delta != 0.0:
                r -= delta * X[:, j]
                w[j] = new_wj
                max_delta = max(max_delta, abs(delta))
        if max_delta < L1_TOL:
            return w, True
    return w, False


def _spectral_norm_sq(X: np.ndarray) -> float:
    rng = np.random.default_rng(0)
    v = rng.standard_normal(X.shape[1])
    v /= np.linalg.norm(v)
    for _ in range(30):
        u = X.T @ (X @ v)
        nu = np.linalg.norm(u)
        if nu == 0:
            return 0.0
        v = u / nu
    return float(v @ (X.T @ (X @ v)))


def l1_logistic_prox(
    X: np.ndarray, Y: np.ndarray, lam: float, W0: np.ndarray | None = None
) -> tuple[np.ndarray, bool]:
    """Proximal gradient for mean cross-entropy + lam*||W||_1 (soft-threshold
    step on the weights, plain step on the unpenalized intercept)."""
    n, d = X.shape
    n_classes = Y.shape[1]
    W = np.zeros((d, n_classes)) if W0 is None else W0.copy()
    prior = Y.mean(axis=0)
    b = np.log(prior + 1e-12)
    lips = 0.5 * _spectral_norm_sq(X) / n + 1e-12
    step = 1.0 / lips
    for _ in range(L1_MAX_ITER):
        P = _softmax(X @ W + b)
        R = (P - Y) / n
        W_new = soft_threshold(W - step * (X.T @ R), step * lam)
        b_new = b - step * R.sum(axis=0)
        delta = max(np.abs(W_new - W).max(), np.abs(b_new - b).max())
        W, b = W_new, b_new
        if delta < L1_TOL:
            return W, True
    return W, False


LAMBDA_PATH_POINTS = 20
LAMBDA_PATH_DECADES = 3.0


def lambda_path(lam_max: float) -> np.ndarray:
    """LAMBDA_PATH_POINTS geometric steps from lam_max down LAMBDA_PATH_DECADES decades."""
    return np.geomspace(lam_max, lam_max * 10.0**-LAMBDA_PATH_DECADES, LAMBDA_PATH_POINTS)


def select_l1(X: np.ndarray, y, task: TaskKind, k: int) -> SelectorResult:
    """Lasso (regression) or L1 logistic (classification) on internally
    standardized features; the largest path lambda yielding >= k nonzero
    weights wins, else the smallest."""
    Xs = _standardize(X)
    n = X.shape[0]
    if task is TaskKind.REGRESSION:
        y_arr = np.asarray(y, dtype=float)
        yc = y_arr - y_arr.mean()
        lam_max = np.abs(Xs.T @ yc).max() / n
    else:
        _, Y = one_hot(y)
        lam_max = np.abs(Xs.T @ (Y.mean(axis=0) - Y)).max() / n
    if lam_max <= 0:
        return _top_k(np.zeros(X.shape[1]), k)
    converged = True
    weights = prev = None
    for lam in lambda_path(lam_max):  # warm start down the path
        if task is TaskKind.REGRESSION:
            w, ok = lasso_cd(Xs, np.asarray(y, dtype=float), float(lam), w0=prev)
            scores = np.abs(w)
        else:
            w, ok = l1_logistic_prox(Xs, Y, float(lam), W0=prev)
            scores = np.abs(w).mean(axis=1)
        prev = w
        converged = converged and ok
        weights = scores
        if int((scores > 0).sum()) >= k:
            break
    if not converged:
        warnings.warn("L1 path fit hit the sweep limit; using last iterate", NoConvergence)
    return _top_k(weights, k)


# ---------------------------------------------------------------------------
# Model-attribution scores (linear surrogate, exact attributions)


def select_shap(X: np.ndarray, y, task: TaskKind, k: int) -> SelectorResult:
    """Mean absolute per-sample attribution of a linear surrogate fitted on
    standardized features. For a linear model under feature independence the
    attribution of feature j at sample i is exactly w_j * (x_ij - mean_j)."""
    Xs = _standardize(X)
    if task is TaskKind.REGRESSION:
        w, _ = ridge_solve(Xs, np.asarray(y, dtype=float), alpha=1.0)
        phi = np.abs(Xs * w)
        scores = phi.mean(axis=0)
    else:
        _, Y = one_hot(y)
        W, _ = logistic_solve(Xs, Y, l2=1e-2, max_iter=500)
        per_class = np.stack([np.abs(Xs * W[:, c]).mean(axis=0) for c in range(Y.shape[1])])
        scores = per_class.mean(axis=0)
    return _top_k(scores, k)


# ---------------------------------------------------------------------------
# Dispatch and application


MIN_SELECTED = 10  # default_k never asks a selector for fewer features


def default_k(feature_cap: int, n_non_text: int) -> int:
    return max(feature_cap - n_non_text, MIN_SELECTED)


def run_selector(kind: str, X: np.ndarray, y, task: TaskKind, k: int, seed: int) -> SelectorResult:
    if not applicable(kind, task):
        raise SelectorNotApplicable(f"{kind} does not support {task.value}")
    if kind == "variance":
        return select_variance(X, k)
    if kind == "random":
        return select_random(X.shape[1], k, seed)
    X = np.asarray(X)  # the other selectors work on a dense matrix
    if kind == "ttest":
        return select_ttest(X, y, k)
    if kind == "anova":
        return select_anova(X, y, k)
    if kind == "pca":
        return select_pca(X, k)
    if kind == "l1":
        return select_l1(X, y, task, k)
    if kind == "correlation":
        return select_correlation(X, y, k)
    return select_shap(X, y, task, k)  # applicable() admits no other kind


def apply_selection(matrix: FeatureMatrix, result: SelectorResult) -> FeatureMatrix:
    """Keep the selected columns (ascending original order), provenance
    intact. The selector must have been fitted on the train fold; the same
    indices are applied verbatim to the test fold."""
    d = matrix.width
    if any(j < 0 or j >= d for j in result.selected):
        raise IndexOutOfRange(f"selected indices outside [0, {d})")
    cols = sorted(result.selected)
    X = matrix.X.take_columns(cols) if isinstance(matrix.X, CsrMatrix) else matrix.X[:, cols]
    return FeatureMatrix(X, [matrix.provenance[j] for j in cols], matrix.y)
