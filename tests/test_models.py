import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tabtext import core, models, sparse
from tabtext.core import (
    MISSING,
    Column,
    ColumnRole,
    MemoryBudgetExceeded,
    Table,
    TabTextError,
    TaskKind,
)
from tabtext.embed import FeatureMatrix
from tabtext.models import (
    BadOutputShape,
    Gbdt,
    Logistic,
    NonFiniteInput,
    NonZeroExit,
    Ridge,
    SingularSystem,
    WidthMismatch,
    fit,
    make_model,
    ridge_solve,
    run_external,
)
from tabtext.sparse import CsrMatrix

from references import csr_from_coo

R, B, M = TaskKind.REGRESSION, TaskKind.BINARY, TaskKind.MULTICLASS


class TestLinearConfigs:
    @pytest.mark.parametrize("value", [-1.0, -1, float("nan"), float("inf"), True, False, "1",
                                       None])
    def test_penalties_outside_their_domain_are_refused(self, value):
        with pytest.raises(ValueError, match="^alpha must be a finite number of at least 0"):
            Ridge(alpha=value)
        with pytest.raises(ValueError, match="^l2 must be a finite number of at least 0"):
            Logistic(l2=value)

    @pytest.mark.parametrize("value, reason", [
        (0, "max_iter must be at least 1"), (-5, "max_iter must be at least 1"),
        (True, "max_iter must be an integer"), (2.0, "max_iter must be an integer"),
        (None, "max_iter must be an integer"),
    ])
    def test_max_iter_must_be_a_positive_integer(self, value, reason):
        with pytest.raises(ValueError, match=f"^{reason}"):
            Logistic(max_iter=value)

    def test_boundary_values_are_accepted(self):
        assert Ridge(alpha=0).alpha == 0 and Ridge(alpha=np.float64(2.5)).alpha == 2.5
        assert Logistic(l2=0.0, max_iter=1).max_iter == 1
        assert make_model({"kind": "ridge", "alpha": 3}) == Ridge(3)


class TestRidge:
    def test_noiseless_recovery_small_alpha(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 2))
        y = 2.0 * X[:, 0] - X[:, 1]
        model = fit(Ridge(alpha=1e-10), X, y, R)
        w, b = model._inner
        assert np.allclose(w, [2.0, -1.0], atol=1e-6)
        assert abs(b) < 1e-6

    def test_gradient_at_solution(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((50, 4))
        y = rng.standard_normal(50)
        alpha = 0.7
        w, b = ridge_solve(X, y, alpha)
        resid = X @ w + b - y
        grad_w = 2.0 * (X.T @ resid) + 2.0 * alpha * w
        grad_b = 2.0 * resid.sum()
        norm = np.sqrt((grad_w**2).sum() + grad_b**2)
        assert norm < 1e-6 * (1.0 + np.linalg.norm(y))

    def test_singular_system(self):
        X = np.ones((10, 2))
        X[:, 1] = X[:, 0]  # rank 1
        with pytest.raises(SingularSystem):
            ridge_solve(X, np.arange(10.0), alpha=0.0)
        # a CSR design with a duplicated sparse column, on either primal path
        S = np.zeros((12, 3))
        S[:, 0] = np.arange(12.0)
        S[[1, 4, 9], 1] = [2.0, -1.0, 0.5]
        S[:, 2] = S[:, 1]
        for path in self._PATHS.values():
            with path(), pytest.raises(SingularSystem):
                ridge_solve(CsrMatrix.from_dense(S), np.arange(12.0), alpha=0.0)

    def test_singular_wide_design(self):
        X = np.random.default_rng(2).standard_normal((5, 12))
        for design in (X, CsrMatrix.from_dense(X)):
            with pytest.raises(SingularSystem):
                ridge_solve(design, np.arange(5.0), alpha=0.0)

    def test_non_finite_rejected(self):
        X = np.array([[1.0], [np.nan]])
        with pytest.raises(NonFiniteInput):
            fit(Ridge(), X, np.array([1.0, 2.0]), R)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 30),
        width=st.sampled_from(["narrow", "square", "wide"]),
        extra=st.integers(1, 40),
        alpha=st.floats(1e-6, 10.0),
        seed=st.integers(0, 2**32 - 1),
        as_csr=st.booleans(),
        path=st.sampled_from(["blocks", "pairs"]),
    )
    def test_agrees_with_primal_reference(self, n, width, extra, alpha, seed, as_csr, path):
        d = {"narrow": max(1, n - extra), "square": n, "wide": n + extra}[width]
        rng = np.random.default_rng(seed)
        # entries of variance 1/max(n, d) keep ||Xc||² near 4, so the
        # systems' condition number stays below ~4/alpha = 4e6 and rounding
        # error (eps × condition) stays far below the 1e-8 tolerance
        X = rng.standard_normal((n, d)) / np.sqrt(max(n, d)) + rng.standard_normal(d)
        if as_csr:  # 80% zeros; column 0 stays dense, as a numeric column does
            X[:, 1:] *= rng.random((n, d - 1)) < 0.2
        y = rng.standard_normal(n) + 5.0
        with self._PATHS[path]():
            w, b = ridge_solve(CsrMatrix.from_dense(X) if as_csr else X, y, alpha)

        x_mean, y_mean = X.mean(axis=0), y.mean()
        Xc = X - x_mean
        w_ref = np.linalg.solve(Xc.T @ Xc + alpha * np.eye(d), Xc.T @ (y - y_mean))
        b_ref = y_mean - float(x_mean @ w_ref)
        if d <= n and not (as_csr and path == "pairs"):
            # the primal's block path is the reference's arithmetic, bit for
            # bit; a CSR design's pair path agrees to the tolerances below
            assert np.array_equal(w, w_ref) and b == b_ref
        scale = np.linalg.norm(w_ref)
        assert np.linalg.norm(w - w_ref) <= 1e-8 * scale
        assert abs(b - b_ref) <= 1e-8 * (abs(b_ref) + scale * np.linalg.norm(x_mean))

        resid = X @ w + b - y
        grad = np.append(X.T @ resid + alpha * w, resid.sum())
        assert np.linalg.norm(grad) <= 1e-8 * (1.0 + np.linalg.norm(y))

    def test_wide_design_memory_stays_near_input_size(self):
        # the d×d primal system alone would be 5000² × 8 B = 200 MB
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 5000))
        y = rng.standard_normal(40)
        tracemalloc.start()
        try:
            ridge_solve(X, y, alpha=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * X.nbytes

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(2, 60),
        extra=st.integers(0, 40),
        block=st.sampled_from([1, 64, sparse._BLOCK]),
        alpha=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
        path=st.sampled_from(["blocks", "pairs"]),
    )
    def test_blocked_primal(self, n, extra, block, alpha, seed, path):
        d = max(1, n - extra)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d)) / np.sqrt(n) + rng.standard_normal(d)
        X[:, 1:] *= rng.random((n, d - 1)) < 0.2
        # a numeric column of mean 100 that is not standardized: centering
        # XᵀX algebraically would cancel on it
        X[:, 0] = rng.standard_normal(n) + 100.0
        y = rng.standard_normal(n) + 5.0
        with mock.patch.object(sparse, "_BLOCK", block), self._PATHS[path]():
            w, b = ridge_solve(X, y, alpha)
            w_csr, b_csr = ridge_solve(CsrMatrix.from_dense(X), y, alpha)
        if path == "blocks":
            # a CSR design on the block path fills the dense twin's blocks
            assert np.array_equal(w, w_csr) and b == b_csr
        self._assert_agrees(X, y, alpha, w, b)
        self._assert_agrees(X, y, alpha, w_csr, b_csr)
        if n * d <= block:
            # one block: the reference's Xc.T @ Xc and Xc.T @ yc, bit for bit
            w_ref, b_ref = self._primal_reference(X, y, alpha)
            assert np.array_equal(w, w_ref) and b == b_ref

    def test_sparse_dual_builds_row_ids_once(self):
        # a wide CSR design goes to conjugate gradients, whose X @ u and
        # Xᵀ v products all read one row id per stored entry
        rng = np.random.default_rng(3)
        X = rng.standard_normal((40, 200)) * (rng.random((40, 200)) < 0.1)
        y = rng.standard_normal(40)
        S = CsrMatrix.from_dense(X)
        with mock.patch.object(np, "repeat", wraps=np.repeat) as spy:
            w, b = ridge_solve(S, y, alpha=1.0)
        assert spy.call_count == 1
        self._assert_agrees(X, y, 1.0, w, b)

    def test_narrow_sparse_primal_memory_stays_near_input_size(self, monkeypatch):
        # shaped like a single-column TF-IDF check's fold: 40 000 rows, 300
        # text columns, ~9 nonzeros a row; its dense copy would be 96 MB,
        # just over the budget set here
        n, d, nnz = 40_000, 300, 9 * 40_000
        rng = np.random.default_rng(8)
        X = csr_from_coo(rng.integers(0, n, nnz), rng.integers(0, d, nnz), rng.random(nnz), (n, d))
        y = X @ rng.standard_normal(d) + rng.standard_normal(n)
        monkeypatch.setattr(core, "MEMORY_BUDGET_BYTES", 8 * n * d - 1)
        tracemalloc.start()
        try:
            w, b = ridge_solve(X, y, alpha=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * sparse._BLOCK + 4 * X.nbytes
        resid = X @ w + b - y
        grad = np.append(X.rmatvec(resid) + w, resid.sum())
        assert np.linalg.norm(grad) <= 1e-8 * (1.0 + np.linalg.norm(y))

    @staticmethod
    def _primal_reference(X, y, alpha):
        x_mean, y_mean = X.mean(axis=0), y.mean()
        Xc = X - x_mean
        w = np.linalg.solve(Xc.T @ Xc + alpha * np.eye(X.shape[1]), Xc.T @ (y - y_mean))
        return w, y_mean - float(x_mean @ w)

    def _assert_agrees(self, X, y, alpha, w, b):
        w_ref, b_ref = self._primal_reference(X, y, alpha)
        scale = np.linalg.norm(w_ref)
        assert np.linalg.norm(w - w_ref) <= 1e-8 * scale
        assert abs(b - b_ref) <= 1e-8 * (abs(b_ref) + scale * np.linalg.norm(X.mean(axis=0)))

    @staticmethod
    def _no_fallback():
        return mock.patch.object(
            models, "_solve_shifted", side_effect=AssertionError("fell back to the direct solve")
        )

    # a CSR primal forced onto one path: a crossover of 0 sends every design
    # to the pair path, an infinite one every design to the blocks
    _PATHS = {
        "blocks": lambda: mock.patch.object(models, "_PAIR_CROSSOVER", np.inf),
        "pairs": lambda: mock.patch.object(models, "_PAIR_CROSSOVER", 0),
    }

    @staticmethod
    def _hashed_fold(rng, n, d, n_dense, share):
        # n_dense standardized numeric columns, then d − n_dense text
        # columns each stored in about `share` of the rows
        X = rng.random((n, d)) * (rng.random((n, d)) < share)
        X[:, :n_dense] = rng.standard_normal((n, n_dense))
        X = CsrMatrix.from_dense(X)
        return X, X @ rng.standard_normal(d) + rng.standard_normal(n)

    @staticmethod
    def _spy_pairs():
        return mock.patch.object(
            CsrMatrix, "centered_gram", autospec=True, side_effect=CsrMatrix.centered_gram
        )

    def test_primal_path_follows_the_pair_count(self):
        rng = np.random.default_rng(10)
        # a hashed text fold of a numeric table: 2400×516, 4 dense columns
        # and ~6 stored text entries a row (n·d²/work ≈ 4 000)
        X, y = self._hashed_fold(rng, 2400, 516, 4, 6 / 512)
        with self._spy_pairs() as pairs:
            w, b = ridge_solve(X, y, alpha=1.0)
        pairs.assert_called_once()
        self._assert_agrees(X.toarray(), y, 1.0, w, b)
        # a 64-bucket hashed fold, 37% dense with 7 columns stored in most
        # rows (n·d²/work ≈ 13): the blocks, the dense twin's bits
        X, y = self._hashed_fold(rng, 1600, 71, 7, 0.3)
        with self._spy_pairs() as pairs:
            w, b = ridge_solve(X, y, alpha=1.0)
        pairs.assert_not_called()
        w_dense, b_dense = ridge_solve(X.toarray(), y, alpha=1.0)
        assert np.array_equal(w, w_dense) and b == b_dense

    def test_pair_path_memory_stays_under_the_scratch_block(self):
        # the hashed fold above; the block path's dense scratch block alone
        # is 8·_BLOCK bytes
        X, y = self._hashed_fold(np.random.default_rng(11), 2400, 516, 4, 6 / 512)
        with self._spy_pairs() as pairs:
            tracemalloc.start()
            try:
                ridge_solve(X, y, alpha=1.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        pairs.assert_called_once()
        assert peak < 8 * sparse._BLOCK

    @staticmethod
    def _text_fold(rng, n, column_mean=0.0):
        # a TF-IDF-like fold: one standardized numeric column, shifted by
        # column_mean, and 1.6n text columns with ~6 nonzeros a row
        d, nnz = int(1.6 * n), 6 * n
        num = rng.standard_normal(n)
        num = (num - num.mean()) / num.std() + column_mean
        rows = np.concatenate([np.arange(n), rng.integers(0, n, nnz)])
        cols = np.concatenate([np.zeros(n, dtype=int), rng.integers(1, d, nnz)])
        X = csr_from_coo(rows, cols, np.concatenate([num, rng.random(nnz)]), (n, d))
        return X, X @ rng.standard_normal(d) + rng.standard_normal(n)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(40, 80),
        extra=st.integers(1, 80),
        alpha=st.floats(1.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sparse_dual_by_conjugate_gradients(self, n, extra, alpha, seed):
        rng = np.random.default_rng(seed)
        d = n + extra
        # entries of variance 1/d keep ||Xc||² below ~4, so for alpha ≥ 1
        # conjugate gradients need ~35 products, fewer than the n ≥ 40 cap
        X = rng.standard_normal((n, d)) / np.sqrt(d)
        X[:, 0] += 5.0  # a dense column with a large mean, as a numeric one
        X[:, 1:] *= rng.random((n, d - 1)) < 0.2
        y = rng.standard_normal(n) + 5.0
        with self._no_fallback():
            w, b = ridge_solve(CsrMatrix.from_dense(X), y, alpha)
        self._assert_agrees(X, y, alpha, w, b)

    @pytest.mark.parametrize("alpha", [1e-3, 1e-4])
    def test_sparse_dual_converges_at_the_rounding_floor(self, alpha):
        # ||Xc||²/alpha ≥ n/alpha ≥ 1e6: the residual cannot reach
        # 1e-12·alpha·||a|| in floating point, only the rounding floor
        X, y = self._text_fold(np.random.default_rng(0), 1000)
        with self._no_fallback():
            w, b = ridge_solve(X, y, alpha)
        self._assert_agrees(X.toarray(), y, alpha, w, b)

    def test_stalled_sparse_dual_falls_back_early(self):
        # a numeric column of mean 100 and std 1 that is not standardized:
        # centering by its mean cancels, and the residual stalls above the
        # floor, so the solve falls back long before the n-product cap
        n = 1000
        X, y = self._text_fold(np.random.default_rng(0), n, column_mean=100.0)
        products = []
        solve = models._conjugate_gradients

        def counted(apply, *args):
            return solve(lambda v: products.append(v) or apply(v), *args)

        with mock.patch.object(models, "_conjugate_gradients", counted), mock.patch.object(
            models, "_solve_shifted", wraps=models._solve_shifted
        ) as direct:
            w, b = ridge_solve(X, y, alpha=1.0)
        direct.assert_called_once()
        assert len(products) < n // 4
        self._assert_agrees(X.toarray(), y, 1.0, w, b)

    def test_small_wide_sparse_dual_solves_without_the_direct_solve(self):
        # in floating point conjugate gradients need more than n products here
        rng = np.random.default_rng(7)
        n, d = 19, 38
        X = rng.standard_normal((n, d)) / np.sqrt(d) + rng.standard_normal(d)
        X[:, 1:] *= rng.random((n, d - 1)) < 0.2
        y = rng.standard_normal(n) + 5.0
        products = []
        solve = models._conjugate_gradients

        def counted(apply, *args):
            return solve(lambda v: products.append(v) or apply(v), *args)

        with mock.patch.object(models, "_conjugate_gradients", counted), self._no_fallback():
            w, b = ridge_solve(CsrMatrix.from_dense(X), y, alpha=0.5)
        assert len(products) > n
        self._assert_agrees(X, y, 0.5, w, b)

    def test_unconverged_sparse_dual_falls_back_to_direct_solve(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((50, 120)) / np.sqrt(120)
        X[:, 1:] *= rng.random((50, 119)) < 0.2
        y = rng.standard_normal(50) + 5.0
        # a zero tolerance is never met, so every product up to the cap runs
        with mock.patch.object(models, "_CG_TOL", 0.0), mock.patch.object(
            models, "_CG_FLOOR", 0.0
        ), mock.patch.object(models, "_solve_shifted", wraps=models._solve_shifted) as direct:
            w, b = ridge_solve(CsrMatrix.from_dense(X), y, alpha=1.0)
        direct.assert_called_once()
        self._assert_agrees(X, y, 1.0, w, b)

    def test_sparse_dual_memory_stays_near_input_size(self):
        # a TF-IDF-like fold: 2400 rows, a standardized numeric column and
        # 4000 text columns 0.15% nonzero; its n×n Gram alone would be 46 MB
        n, d, nnz = 2400, 4001, 14400
        rng = np.random.default_rng(6)
        rows = np.concatenate([np.arange(n), rng.integers(0, n, nnz)])
        cols = np.concatenate([np.zeros(n, dtype=int), rng.integers(1, d, nnz)])
        vals = np.concatenate([rng.standard_normal(n), rng.random(nnz)])
        X = csr_from_coo(rows, cols, vals, (n, d))
        y = X @ rng.standard_normal(d) + rng.standard_normal(n)
        tracemalloc.start()
        try:
            ridge_solve(X, y, alpha=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * X.nbytes

    @pytest.mark.parametrize("shape", [(30, 4), (4, 30)])
    def test_memory_budget_checked_before_the_system(self, monkeypatch, shape):
        X = np.random.default_rng(4).standard_normal(shape)
        y = np.arange(float(shape[0]))
        m = min(shape)
        monkeypatch.setattr(core, "MEMORY_BUDGET_BYTES", 8 * m * m - 1)
        wide = shape[1] > shape[0]
        for design in [X] if wide else [X, CsrMatrix.from_dense(X)]:
            with pytest.raises(MemoryBudgetExceeded):
                ridge_solve(design, y, alpha=1.0)
        if wide:
            # conjugate gradients form no system, so the budget does not apply
            w, b = ridge_solve(CsrMatrix.from_dense(X), y, alpha=1.0)
            self._assert_agrees(X, y, 1.0, w, b)
        monkeypatch.setattr(core, "MEMORY_BUDGET_BYTES", 8 * X.size)
        ridge_solve(X, y, alpha=1.0)
        ridge_solve(CsrMatrix.from_dense(X), y, alpha=1.0)

    def test_stalled_sparse_dual_budgets_the_densified_design(self, monkeypatch):
        # the stalled fold of the fallback test: its dense copy is refused
        # before it is allocated
        n = 1000
        X, y = self._text_fold(np.random.default_rng(0), n, column_mean=100.0)
        monkeypatch.setattr(core, "MEMORY_BUDGET_BYTES", 8 * n * X.shape[1] - 1)
        tracemalloc.start()
        try:
            with pytest.raises(MemoryBudgetExceeded, match="dense"):
                ridge_solve(X, y, alpha=1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * X.nbytes


def _reference_logistic_solve(X, Y, l2, max_iter=1000, tol=1e-6):
    """The loop that recomputed the accepted step's softmax twice; the
    solver must return its (W, b) bit for bit."""
    n, d = X.shape
    n_classes = Y.shape[1]
    W = np.zeros((d, n_classes))
    b = np.zeros(n_classes)

    def loss_of(W, b):
        P = models._softmax(X @ W + b)
        ce = -np.sum(Y * np.log(P + 1e-300)) / n
        return ce + 0.5 * l2 * float((W * W).sum())

    loss = loss_of(W, b)
    step = 1.0
    for _ in range(max_iter):
        P = models._softmax(X @ W + b)
        R = (P - Y) / n
        gW = X.T @ R + l2 * W
        gb = R.sum(axis=0)
        gnorm = max(np.abs(gW).max(), np.abs(gb).max())
        if gnorm < tol:
            break
        step = min(step * 2.0, 1e4)
        decrease = float((gW * gW).sum() + (gb * gb).sum())
        while step > 1e-12:
            new_loss = loss_of(W - step * gW, b - step * gb)
            if new_loss <= loss - 1e-4 * step * decrease:
                break
            step *= 0.5
        W = W - step * gW
        b = b - step * gb
        loss = loss_of(W, b)
    return W, b


# the column kinds of TestCenteredGram's designs
GRAM_COLUMNS = ["sparse", "empty", "dense", "half", "mean100", "equal"]


class TestCenteredGram:
    """Both builders of the primal's Xcᵀ Xc and Xcᵀ yc, called directly (the
    crossover sends the small designs of TestRidge to the blocks)."""

    @staticmethod
    def _design(rng, n, kinds, empty_row):
        X = np.zeros((n, len(kinds)))
        for j, kind in enumerate(kinds):
            if kind == "sparse":  # stored in about a fifth of the rows
                X[:, j] = rng.standard_normal(n) * (rng.random(n) < 0.2)
            elif kind == "dense":  # stored in every row
                X[:, j] = rng.standard_normal(n)
            elif kind == "half":  # stored in exactly n/2 rows, mean ~50
                X[rng.permutation(n)[: n // 2], j] = rng.standard_normal(n // 2) + 100.0
            elif kind == "mean100":  # a numeric column that is not standardized
                X[:, j] = rng.standard_normal(n) + 100.0
            elif kind == "equal":  # every stored value the same
                X[rng.random(n) < 0.3, j] = 2.5
        if empty_row:
            X[0] = 0.0
        return X

    @settings(max_examples=200, deadline=None)
    @given(
        half_n=st.integers(1, 30),
        kinds=st.lists(st.sampled_from(GRAM_COLUMNS), min_size=1, max_size=12),
        empty_row=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(half_n=10, kinds=GRAM_COLUMNS, empty_row=True, seed=0)
    def test_both_paths_agree_with_the_dense_products(self, half_n, kinds, empty_row, seed):
        n = 2 * half_n
        rng = np.random.default_rng(seed)
        X = self._design(rng, n, kinds, empty_row)
        y = rng.standard_normal(n) + 5.0
        S = CsrMatrix.from_dense(X)
        mean, yc = S.col_mean(), y - y.mean()
        Xc = X - mean
        G_ref, r_ref = Xc.T @ Xc, Xc.T @ yc
        # n-term sums of products round within a few n·eps of the centered
        # columns' norms; subtracting n·μ² from a column's sum of squares
        # would miss that by ~μ²/n on the mean-100 columns
        norm = np.sqrt((Xc * Xc).sum(axis=0))
        tol = 8 * (n + 2) * np.finfo(float).eps
        pairs = S.centered_gram(mean, yc, S.dense_columns())
        for G, r in (models._block_gram(S, mean, yc), pairs):
            assert np.array_equal(G, G.T)
            assert np.all(np.abs(G - G_ref) <= tol * np.outer(norm, norm))
            assert np.all(np.abs(r - r_ref) <= tol * norm * np.linalg.norm(yc))
        again = S.centered_gram(mean, yc, S.dense_columns())
        assert all(same.tobytes() == first.tobytes() for same, first in zip(again, pairs))


class TestLogistic:
    def test_separable_1d(self):
        X = np.linspace(-2, 2, 30).reshape(-1, 1)
        y = ["neg" if v < 0 else "pos" for v in X[:, 0]]
        model = fit(Logistic(), X, y, B)
        assert model.predict(X) == y

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((40, 3))
        y = rng.integers(0, 3, 40).tolist()
        model = fit(Logistic(), X, y, M)
        proba = model.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_empty_predict(self):
        X = np.zeros((6, 2))
        y = [0, 1, 0, 1, 0, 1]
        model = fit(Logistic(), X + np.arange(6)[:, None], y, B)
        assert model.predict(np.zeros((0, 2))) == []

    @pytest.mark.parametrize(
        "n, d, classes, l2, max_iter",
        [
            (800, 300, 3, 1e-2, 300),
            (60, 4, 2, 1e-2, 1000),  # stops at the gradient tolerance
            (30, 2, 2, 1e14, 4),  # the first line search runs out
        ],
    )
    def test_matches_the_reference_loop(self, n, d, classes, l2, max_iter):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((n, d))
        Y = np.eye(classes)[(X[:, :classes] + rng.standard_normal((n, classes))).argmax(axis=1)]
        W, b = models.logistic_solve(X, Y, l2, max_iter)
        W_ref, b_ref = _reference_logistic_solve(X, Y, l2, max_iter)
        assert np.array_equal(W, W_ref) and np.array_equal(b, b_ref)

    def test_one_softmax_per_line_search_trial(self):
        # the reference also recomputes the accepted step's softmax for the
        # loss and for the next gradient: two more calls an iteration
        rng = np.random.default_rng(10)
        X = rng.standard_normal((800, 300))
        Y = np.eye(3)[rng.integers(0, 3, 800)]
        counts = []
        for solve in (models.logistic_solve, _reference_logistic_solve):
            with mock.patch.object(models, "_softmax", wraps=models._softmax) as softmax:
                solve(X, Y, 1e-2, max_iter=300, tol=0.0)
            counts.append(softmax.call_count)
        assert counts[0] == counts[1] - 2 * 300

    def test_width_mismatch(self):
        X = np.random.default_rng(3).standard_normal((10, 2))
        model = fit(Logistic(), X, [0, 1] * 5, B)
        with pytest.raises(WidthMismatch):
            model.predict(np.zeros((2, 5)))


def _reference_best_split(X, order, g, h, mask):
    """The whole-table scan: each node gathered its membership over all n×d
    presorted entries and scored every sorted position of every column."""
    d = X.shape[1]
    m = int(mask.sum())
    sel = mask[order]
    idx = order.T[sel.T].reshape(d, m).T
    cols = np.arange(d)
    xs = X[idx, cols]
    gs = np.cumsum(g[idx], axis=0)
    hs = np.cumsum(h[idx], axis=0)
    G, H = gs[-1, 0], hs[-1, 0]
    GL, HL = gs[:-1], hs[:-1]
    GR, HR = G - GL, H - HL
    parent = G * G / (max(H, models._HESS_FLOOR) + models._LEAF_L2)
    gain = 0.5 * (
        GL * GL / (np.maximum(HL, models._HESS_FLOOR) + models._LEAF_L2)
        + GR * GR / (np.maximum(HR, models._HESS_FLOOR) + models._LEAF_L2)
        - parent
    )
    gain[xs[1:] == xs[:-1]] = -np.inf
    flat = int(np.argmax(gain))
    i, j = flat // d, flat % d
    if not np.isfinite(gain[i, j]):
        return None
    return float(gain[i, j]), int(j), float((xs[i, j] + xs[i + 1, j]) / 2.0)


def _reference_grow_tree(X, order, g, h, max_depth):
    feature, threshold, left, right, value = [], [], [], [], []

    def leaf(mask):
        G = g[mask].sum()
        H = h[mask].sum()
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(-G / (max(H, models._HESS_FLOOR) + models._LEAF_L2))
        return len(feature) - 1

    def grow(mask, depth):
        if depth >= max_depth or mask.sum() < 2:
            return leaf(mask)
        found = _reference_best_split(X, order, g, h, mask)
        if found is None:
            return leaf(mask)
        gain, j, thr = found
        cancelling = abs(g[mask].sum()) < 1e-9 < np.abs(g[mask]).sum()
        if gain <= 1e-12 and not (gain > -1e-12 and cancelling):
            return leaf(mask)
        node = len(feature)
        feature.append(j)
        threshold.append(thr)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        go_left = mask & (X[:, j] < thr)
        left[node] = grow(go_left, depth + 1)
        right[node] = grow(mask & ~go_left, depth + 1)
        return node

    grow(np.ones(X.shape[0], dtype=bool), 0)
    return models._Tree(
        np.array(feature, dtype=np.int64),
        np.array(threshold),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(value),
    )


def _reference_fit_gbdt(cfg, X, Y, task):
    """The boosting loop over the whole-table search, each round stepping
    the margin by the new tree's prediction of the training design; the
    booster must return its trees and train_loss bit for bit."""
    order = np.argsort(X, axis=0, kind="stable")
    n, k = Y.shape
    base = Y.mean(axis=0) if task is R else np.zeros(k)
    fit = models._GbdtFit([], base, cfg.learning_rate)
    F = np.tile(base, (n, 1))
    P, H = models._link(F, task)
    for _ in range(cfg.n_rounds):
        G = P - Y
        round_trees = []
        for c in range(k):
            tree = _reference_grow_tree(X, order, G[:, c], H[:, c], cfg.max_depth)
            F[:, c] += cfg.learning_rate * tree.predict(X)
            round_trees.append(tree)
        fit.trees.append(round_trees)
        P, H = models._link(F, task)
        fit.train_loss.append(models._loss(P, Y, task))
    return fit


@st.composite
def tie_heavy_tables(draw):
    """An n×d table of 2–5 integer levels with any subset of its columns
    made constant (column 0, or all of them, included), then up to three
    copies of one column inserted before or after it: its values or 2x + 1,
    which order the rows as it does, or −x, which reverses them; and labels
    0–2."""
    n = draw(st.integers(2, 30))
    d = draw(st.integers(1, 5))
    levels = draw(st.integers(2, 5))
    X = np.array(draw(st.lists(
        st.lists(st.integers(0, levels - 1), min_size=d, max_size=d), min_size=n, max_size=n
    )), dtype=float)
    constant = draw(st.lists(st.booleans(), min_size=d, max_size=d))
    X[:, constant] = X[0, constant]
    source = draw(st.integers(0, d - 1))
    for copy in draw(st.lists(st.sampled_from(["same", "2x+1", "-x"]), max_size=3)):
        x = X[:, source]
        at = draw(st.integers(0, X.shape[1]))
        X = np.insert(X, at, {"same": x, "2x+1": 2 * x + 1, "-x": -x}[copy], axis=1)
        source += at <= source
    y = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
    return X, y


def _distinct_orders(X):
    """How many distinct orders of the rows the columns the booster searches
    (column 0 and every column not constant) give, ties as equal."""
    live = [0] + [j for j in range(1, X.shape[1]) if X[:, j].max() > X[:, j].min()]
    return len({tuple(np.unique(X[:, j], return_inverse=True)[1]) for j in live})


class TestGbdtMatchesWholeTableSearch:
    @settings(max_examples=300, deadline=None)
    @given(
        table=tie_heavy_tables(),
        task=st.sampled_from([R, B, M]),
        max_depth=st.integers(1, 4),
        n_rounds=st.integers(1, 4),
    )
    @example(table=(np.array([[0.0], [1.0]]), np.array([0, 1])), task=B, max_depth=2, n_rounds=2)
    @example(table=(np.full((6, 3), 2.0), np.array([0, 1, 2, 0, 1, 2])), task=M, max_depth=3,
             n_rounds=2)
    @example(table=(np.column_stack([np.ones(8), np.arange(8) % 3, np.arange(8) % 2]),
                    np.array([0, 1, 1, 0, 2, 2, 1, 0])), task=R, max_depth=3, n_rounds=3)
    def test_trees_and_loss_are_bit_identical(self, table, task, max_depth, n_rounds):
        X, y = table
        Y = {R: y[:, None].astype(float), B: (y[:, None] % 2).astype(float), M: np.eye(3)[y]}[task]
        cfg = Gbdt(max_depth=max_depth, learning_rate=0.3, n_rounds=n_rounds)
        got = models._fit_gbdt(cfg, X, Y, task)
        ref = _reference_fit_gbdt(cfg, X, Y, task)
        assert np.array(got.train_loss).tobytes() == np.array(ref.train_loss).tobytes()
        for got_round, ref_round in zip(got.trees, ref.trees, strict=True):
            for a, b in zip(got_round, ref_round, strict=True):
                for name in ("feature", "threshold", "left", "right", "value"):
                    x, z = getattr(a, name), getattr(b, name)
                    assert x.dtype == z.dtype and x.tobytes() == z.tobytes(), name

    @settings(max_examples=100, deadline=None)
    @given(table=tie_heavy_tables())
    def test_the_root_searches_one_column_per_distinct_order(self, table):
        X, y = table
        with mock.patch.object(models, "_best_split", wraps=models._best_split) as search:
            models._fit_gbdt(Gbdt(1, 0.3, 1), X, y[:, None].astype(float), R)
        assert search.call_args_list[0].args[0].shape[0] == _distinct_orders(X)

    @pytest.mark.parametrize("task", [R, B, M], ids=lambda t: t.value)
    def test_a_doubled_design_grows_the_same_trees(self, task):
        rng = np.random.default_rng(12)
        X = np.round(rng.standard_normal((60, 4)), 1)
        y = rng.integers(0, 3, 60)
        Y = {R: y[:, None].astype(float), B: (y[:, None] % 2).astype(float), M: np.eye(3)[y]}[task]
        cfg = Gbdt(max_depth=3, learning_rate=0.3, n_rounds=5)
        once = models._fit_gbdt(cfg, X, Y, task)
        twice = models._fit_gbdt(cfg, np.hstack([X, X]), Y, task)
        assert np.array(once.train_loss).tobytes() == np.array(twice.train_loss).tobytes()
        for a_round, b_round in zip(once.trees, twice.trees, strict=True):
            for a, b in zip(a_round, b_round, strict=True):
                for name in ("feature", "threshold", "left", "right", "value"):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    def test_presort_is_budgeted_before_anything_runs(self, monkeypatch):
        # columns 0 and 1 are constant: the presort holds column 0, whose
        # order gives the node totals, and columns 2–4, with a one-byte rank
        # per entry (40 rows) to find the columns that order them alike
        rng = np.random.default_rng(11)
        X = rng.standard_normal((40, 5))
        X[:, [0, 1]] = 3.0
        y = (X[:, 2] > 0).tolist()
        presort = (16 + 1) * 40 * 4
        monkeypatch.setattr(core, "MEMORY_BUDGET_BYTES", presort - 1)
        with mock.patch.object(models, "_grow_tree") as grow, \
                mock.patch.object(models.np, "argsort", wraps=np.argsort) as argsort:
            with pytest.raises(MemoryBudgetExceeded, match="presort"):
                fit(Gbdt(max_depth=2, n_rounds=2), X, y, B)
        assert grow.call_count == 0 and argsort.call_count == 0
        monkeypatch.setattr(core, "MEMORY_BUDGET_BYTES", presort)
        fit(Gbdt(max_depth=2, n_rounds=2), X, y, B)


def _fit_keeping(factor, cfg, X, Y, task):
    """A booster fit with the keep bound at factor presorts, and its layouts."""
    with mock.patch.object(models, "_KEEP_FACTOR", factor), \
            mock.patch.object(models, "_grow_tree", wraps=models._grow_tree) as grow:
        got = models._fit_gbdt(cfg, X, Y, task)
    return got, grow.call_args_list[0].args[1]


def _internal_splits(fit):
    """Every internal node of every tree as (its path of splits and sides
    from the root, its own split)."""
    splits = []
    for round_trees in fit.trees:
        for tree in round_trees:
            def walk(node, path):
                if tree.feature[node] < 0:
                    return
                split = (int(tree.feature[node]), float(tree.threshold[node]))
                splits.append((path, split))
                walk(tree.left[node], path + ((split, "left"),))
                walk(tree.right[node], path + ((split, "right"),))
            walk(0, ())
    return splits


class TestGbdtKeptLayouts:
    @settings(max_examples=150, deadline=None)
    @given(
        table=tie_heavy_tables(),
        task=st.sampled_from([R, B, M]),
        max_depth=st.integers(1, 4),
        n_rounds=st.integers(1, 8),
    )
    def test_any_bound_grows_the_whole_table_search_trees(self, table, task, max_depth,
                                                          n_rounds):
        # nothing kept, a few bytes (some small layouts or candidates fit,
        # most do not) and everything: the same trees and loss, bit for bit
        X, y = table
        Y = {R: y[:, None].astype(float), B: (y[:, None] % 2).astype(float), M: np.eye(3)[y]}[task]
        cfg = Gbdt(max_depth=max_depth, learning_rate=0.3, n_rounds=n_rounds)
        ref = _reference_fit_gbdt(cfg, X, Y, task)
        for factor in (0, 0.05, math.inf):
            got, layouts = _fit_keeping(factor, cfg, X, Y, task)
            assert 0 <= layouts.kept <= layouts.bound
            assert np.array(got.train_loss).tobytes() == np.array(ref.train_loss).tobytes()
            for got_round, ref_round in zip(got.trees, ref.trees, strict=True):
                for a, b in zip(got_round, ref_round, strict=True):
                    for name in ("feature", "threshold", "left", "right", "value"):
                        x, z = getattr(a, name), getattr(b, name)
                        assert x.dtype == z.dtype and x.tobytes() == z.tobytes(), name

    def test_a_repeated_root_split_builds_its_children_once(self):
        # y steps on column 0, so every tree makes the same root split and
        # both children, searched at depth 1, find nothing to split
        rng = np.random.default_rng(13)
        X = rng.standard_normal((60, 4))
        Y = (X[:, [0]] > 0.2).astype(float)
        cfg = Gbdt(max_depth=2, learning_rate=0.3, n_rounds=12)
        for factor, builds in ((models._KEEP_FACTOR, 1), (0, 12)):
            with mock.patch.object(models, "_split_layout", wraps=models._split_layout) as split:
                got, _ = _fit_keeping(factor, cfg, X, Y, R)
            assert {(tuple(t.feature), t.threshold[0]) for [t] in got.trees} == \
                {((0, -1, -1), got.trees[0][0].threshold[0])}
            assert split.call_count == builds

    @pytest.mark.parametrize("task", [R, B, M], ids=lambda t: t.value)
    def test_each_split_at_each_node_is_built_once_per_fit(self, task):
        # across rounds and the margin columns of a multiclass round
        rng = np.random.default_rng(14)
        X = np.round(rng.standard_normal((80, 5)), 1)
        y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0.5)
        Y = {R: y[:, None].astype(float), B: (y[:, None] % 2).astype(float), M: np.eye(3)[y]}[task]
        cfg = Gbdt(max_depth=3, learning_rate=0.3, n_rounds=15)
        for factor in (math.inf, 0):
            with mock.patch.object(models, "_split_layout", wraps=models._split_layout) as split:
                got, _ = _fit_keeping(factor, cfg, X, Y, task)
            splits = _internal_splits(got)
            want = len(set(splits)) if factor else len(splits)
            assert split.call_count == want
        assert len(set(splits)) < len(splits)

    def test_the_budget_left_after_the_presort_bounds_what_is_kept(self, monkeypatch):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((40, 3))
        Y = (X[:, [0]] > 0).astype(float)
        presort = (16 + 1) * 40 * 3
        for budget, bound in ((presort, 0), (presort + 100, 100), (2 << 30, 4 * presort)):
            monkeypatch.setattr(core, "MEMORY_BUDGET_BYTES", budget)
            _, layouts = _fit_keeping(models._KEEP_FACTOR, Gbdt(3, 0.3, 5), X, Y, R)
            assert layouts.bound == bound and layouts.kept <= bound
            if bound == 0:
                assert layouts.root.children == {} and layouts.root.cand is None

    def test_kept_bytes_never_pass_the_bound(self):
        # traced memory held between trees, keeping layouts less not
        # keeping any, is what the kept layouts hold: their arrays, at most
        # the bound (two presorts here, which the layouts of the first trees
        # nearly fill), plus a small object overhead per kept layout
        rng = np.random.default_rng(16)
        X = rng.standard_normal((1500, 12))
        Y = np.eye(3)[rng.integers(0, 3, 1500)]
        cfg = Gbdt(max_depth=3, learning_rate=0.3, n_rounds=6)
        real_grow = models._grow_tree
        held = {}
        for factor in (2, 0):
            after_tree = []

            def grow(*args, **kwargs):
                out = real_grow(*args, **kwargs)
                after_tree.append(tracemalloc.get_traced_memory()[0])
                return out

            tracemalloc.start()
            try:
                with mock.patch.object(models, "_grow_tree", side_effect=grow) as spy:
                    with mock.patch.object(models, "_KEEP_FACTOR", factor):
                        models._fit_gbdt(cfg, X, Y, M)
            finally:
                tracemalloc.stop()
            held[factor] = np.array(after_tree)
            if factor:
                layouts = spy.call_args_list[0].args[1]
        kept_layouts = 0
        stack = [layouts.root]
        while stack:
            node = stack.pop()
            for pair in (node.children or {}).values():
                kept_layouts += len(pair)
                stack.extend(pair)
        bound = 2 * (16 + 2) * 1500 * 12
        assert layouts.bound == bound and 0.8 * bound < layouts.kept <= bound
        extra = held[2] - held[0]
        assert extra.max() <= bound + 1024 * kept_layouts
        assert extra.max() >= layouts.kept


class TestGbdt:
    @pytest.mark.parametrize("field, value, reason", [
        ("max_depth", True, "max_depth must be an integer, got True"),
        ("max_depth", 1.5, "max_depth must be an integer, got 1.5"),
        ("max_depth", 0, "max_depth must be at least 1"),
        ("n_rounds", 2.5, "n_rounds must be an integer, got 2.5"),
        ("n_rounds", 0, "n_rounds must be at least 1"),
        ("learning_rate", True, r"learning_rate must be a number in \(0, 1\], got True"),
        ("learning_rate", 0.0, r"learning_rate must be a number in \(0, 1\], got 0.0"),
        ("learning_rate", 1.5, r"learning_rate must be a number in \(0, 1\], got 1.5"),
        ("learning_rate", float("nan"), r"learning_rate must be a number in \(0, 1\], got nan"),
        ("learning_rate", "0.3", r"learning_rate must be a number in \(0, 1\], got '0.3'"),
    ])
    def test_config_outside_its_domain_is_refused(self, field, value, reason):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            Gbdt(**{field: value})

    def test_boundary_config_is_accepted(self):
        assert Gbdt(max_depth=1, learning_rate=1, n_rounds=1) == Gbdt(1, 1.0, 1)

    def test_xor_shattered_at_depth_two(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = ["a", "b", "b", "a"]
        model = fit(Gbdt(max_depth=2, learning_rate=0.3, n_rounds=20), X, y, B)
        assert model.predict(X) == y

    def test_regression_fits_linear(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(-2, 2, size=(200, 1))
        y = 3.0 * X[:, 0]
        model = fit(Gbdt(max_depth=3, learning_rate=0.3, n_rounds=60), X, y, R)
        pred = model.predict(X)
        assert float(np.mean((pred - y) ** 2)) < 0.05

    @pytest.mark.parametrize("task", [R, B, M], ids=lambda t: t.value)
    def test_train_loss_non_increasing(self, task):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((80, 4))
        y = X @ np.array([1.0, -2.0, 0.5, 0.0]) + 0.1 * rng.standard_normal(80)
        if task is B:
            y = ["p" if v > 0 else "n" for v in y]
        elif task is M:
            y = [["lo", "mid", "hi"][int(np.searchsorted([-1.0, 1.0], v))] for v in y]
        model = fit(Gbdt(max_depth=3, n_rounds=30), X, y, task)
        assert len(model.train_loss) == 30
        for before, after in zip(model.train_loss, model.train_loss[1:]):
            assert after <= before + 1e-12
        if task is not R:
            proba = model.predict_proba(X)
            assert proba.shape == (80, len(model.classes))
            assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        assert len(model.predict(np.zeros((0, 4)))) == 0

    def test_one_class_refused(self):
        X = np.random.default_rng(9).standard_normal((10, 2))
        with pytest.raises(TabTextError, match="at least 2 classes, got 1"):
            fit(Gbdt(max_depth=2, n_rounds=3), X, ["a"] * 10, B)

    def test_multiclass_separable(self):
        rng = np.random.default_rng(6)
        centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        X = np.vstack([c + 0.3 * rng.standard_normal((20, 2)) for c in centers])
        y = ["a"] * 20 + ["b"] * 20 + ["c"] * 20
        model = fit(Gbdt(max_depth=3, n_rounds=20), X, y, M)
        assert model.predict(X) == y
        proba = model.predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((40, 3))
        y = ["cat" if v > 0 else "dog" for v in X[:, 0]]
        swap = {"cat": "dog", "dog": "cat"}
        y_swapped = [swap[v] for v in y]
        m1 = fit(Gbdt(max_depth=3, n_rounds=15), X, y, B)
        m2 = fit(Gbdt(max_depth=3, n_rounds=15), X, y_swapped, B)
        assert [swap[v] for v in m1.predict(X)] == m2.predict(X)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((50, 5))
        y = (X[:, 0] > 0).astype(int).tolist()
        a = fit(Gbdt(max_depth=4, n_rounds=10), X, y, B).predict(X)
        b = fit(Gbdt(max_depth=4, n_rounds=10), X, y, B).predict(X)
        assert a == b

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Gbdt(max_depth=0)
        with pytest.raises(ValueError):
            Gbdt(learning_rate=0.0)
        with pytest.raises(ValueError):
            Gbdt(n_rounds=0)


def make_fm(n=8, d=2, task=B, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    if task is R:
        y = X[:, 0] * 2.0
    else:
        y = ["x" if v > 0 else "y" for v in X[:, 0]]
    prov = [(f"f{j}", "num", 0) for j in range(d)]
    return FeatureMatrix(X, prov, y)


MAJORITY_STUB = """\
import csv, sys
train, test, out = sys.argv[1], sys.argv[2], sys.argv[3]
with open(train) as fh:
    rows = list(csv.DictReader(fh))
labels = [r["__target"] for r in rows]
top = max(set(labels), key=labels.count)
with open(test) as fh:
    n = sum(1 for _ in csv.DictReader(fh))
with open(out, "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["prediction"])
    for _ in range(n):
        w.writerow([top])
"""


class TestRunExternal:
    def test_majority_stub_round_trip(self, tmp_path):
        stub = tmp_path / "stub.py"
        stub.write_text(MAJORITY_STUB)
        train = make_fm(10, seed=1)
        test = make_fm(4, seed=2)
        preds = run_external(f"python3 {stub}", train, test)
        assert len(preds) == 4
        assert set(preds) <= {"x", "y"}

    def test_nonzero_exit(self, tmp_path):
        stub = tmp_path / "boom.py"
        stub.write_text("import sys; sys.stderr.write('kaput'); sys.exit(1)\n")
        with pytest.raises(NonZeroExit) as err:
            run_external(f"python3 {stub}", make_fm(), make_fm(4, seed=3))
        assert err.value.code == 1
        assert "kaput" in err.value.stderr_tail

    def test_short_output_is_bad_shape(self, tmp_path):
        stub = tmp_path / "short.py"
        stub.write_text(
            "import sys\nopen(sys.argv[3], 'w').write('prediction\\nx\\n')\n"
        )
        with pytest.raises(BadOutputShape):
            run_external(f"python3 {stub}", make_fm(), make_fm(4, seed=4))

    def test_raw_table_mode_passes_text_verbatim(self, tmp_path):
        stub = tmp_path / "echo_header.py"
        stub.write_text(
            "import csv, sys\n"
            "with open(sys.argv[1]) as fh:\n"
            "    header = next(csv.reader(fh))\n"
            "assert 'notes' in header, header\n"
            "with open(sys.argv[2]) as fh:\n"
            "    n = sum(1 for _ in fh) - 1\n"
            "with open(sys.argv[3], 'w') as fh:\n"
            "    fh.write('prediction\\n' + 'ok\\n' * n)\n"
        )
        cols = [
            Column("num", ColumnRole.NUMERICAL, [1.0, 2.0, 3.0]),
            Column("notes", ColumnRole.TEXTUAL, ["free text", "more text", "words"]),
            Column("y", None, ["a", "b", "a"]),
        ]
        table = Table("raw", cols, "y", TaskKind.BINARY)
        preds = run_external(f"python3 {stub}", table, table)
        assert preds == ["ok", "ok", "ok"]

    def test_proba_columns_parsed(self, tmp_path):
        stub = tmp_path / "proba.py"
        stub.write_text(
            "import csv, sys\n"
            "with open(sys.argv[2]) as fh:\n"
            "    n = sum(1 for _ in fh) - 1\n"
            "with open(sys.argv[3], 'w', newline='') as fh:\n"
            "    w = csv.writer(fh)\n"
            "    w.writerow(['prediction', 'proba_x', 'proba_y'])\n"
            "    for _ in range(n):\n"
            "        w.writerow(['x', 'not a number', ''])\n"
        )
        # only 'prediction' is read: the columns after it are not parsed
        assert run_external(f"python3 {stub}", make_fm(), make_fm(3, seed=5)) == ["x", "x", "x"]

    def test_files_written_byte_for_byte(self, tmp_path):
        stub = tmp_path / "keep.py"
        stub.write_text(
            "import csv, shutil, sys\n"
            "dest, train, test, out = sys.argv[1:]\n"
            "shutil.copy(train, dest + '/train.csv')\n"
            "shutil.copy(test, dest + '/test.csv')\n"
            "n = len(list(csv.reader(open(test, newline='')))) - 1\n"
            "open(out, 'w').write('prediction\\n' + 'p\\n' * n)\n"
        )
        X = np.array([[0.1, -2.0, 1 / 3], [1e-300, 3.0, 0.0], [-0.0, 2.5e10, 7.0]])
        prov = [("num", "num", 0), ("notes", "tfidf", 0), ("notes", "tfidf", 1)]
        matrices = (FeatureMatrix(X, prov, np.array([1.5, -0.25, 2.0])),
                    FeatureMatrix(X[:2], prov, np.array([0.0, 1.0])))
        cols = [
            Column("num", ColumnRole.NUMERICAL, [1.0, MISSING, 3.25]),
            Column("notes", ColumnRole.TEXTUAL, ['a, "quoted" note', "two\nlines", MISSING]),
            Column("kind", ColumnRole.CATEGORICAL, ["x", "y", "x"]),
            Column("y", None, ["good", "bad", "good"]),
        ]
        table = Table("raw", cols, "y", TaskKind.BINARY)
        expected = {
            "matrix": (
                b"num__num__0,notes__tfidf__0,notes__tfidf__1,__target\r\n"
                b"0.1,-2.0,0.3333333333333333,1.5\r\n1e-300,3.0,0.0,-0.25\r\n"
                b"-0.0,25000000000.0,7.0,2.0\r\n",
                b"num__num__0,notes__tfidf__0,notes__tfidf__1\r\n"
                b"0.1,-2.0,0.3333333333333333\r\n1e-300,3.0,0.0\r\n",
            ),
            "table": (
                b'num,notes,kind,__target\r\n1.0,"a, ""quoted"" note",x,good\r\n'
                b',"two\nlines",y,bad\r\n3.25,,x,good\r\n',
                b'num,notes,kind\r\n1.0,"a, ""quoted"" note",x\r\n,"two\nlines",y\r\n3.25,,x\r\n',
            ),
        }
        for name, (train, test) in (("matrix", matrices), ("table", (table, table))):
            run_external(f"python3 {stub} {tmp_path}", train, test)
            written = ((tmp_path / "train.csv").read_bytes(), (tmp_path / "test.csv").read_bytes())
            assert written == expected[name]
