import itertools
from contextlib import contextmanager
from math import factorial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tabtext import core, select
from tabtext.core import MemoryBudgetExceeded, TaskKind
from tabtext.embed import FeatureMatrix
from tabtext.models import ridge_solve
from tabtext.select import (
    SELECTOR_KINDS,
    DegenerateClasses,
    IndexOutOfRange,
    NoConvergence,
    NotBinary,
    SelectorNotApplicable,
    _top_k,
    applicable,
    apply_selection,
    lasso_cd,
    run_selector,
    select_anova,
    select_correlation,
    select_l1,
    select_pca,
    select_random,
    select_shap,
    select_ttest,
    select_variance,
    soft_threshold,
    variance_bounds,
)
from tabtext.sparse import CsrMatrix

R, B, M = TaskKind.REGRESSION, TaskKind.BINARY, TaskKind.MULTICLASS


class TestApplicable:
    # the full 24-cell applicability matrix, table-driven
    MATRIX = {
        "ttest": (False, True, False),
        "anova": (False, True, True),
        "variance": (True, True, True),
        "pca": (True, True, True),
        "l1": (True, True, True),
        "correlation": (True, False, False),
        "shap": (True, True, True),
        "random": (True, True, True),
    }

    @pytest.mark.parametrize("kind", sorted(MATRIX))
    def test_matrix_row(self, kind):
        reg, bin_, multi = self.MATRIX[kind]
        assert applicable(kind, R) is reg
        assert applicable(kind, B) is bin_
        assert applicable(kind, M) is multi

    def test_selector_kinds_in_table_order(self):
        assert SELECTOR_KINDS == tuple(self.MATRIX)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            applicable("mutual-info", R)

    def test_run_selector_rejects_unknown_kind(self):
        X = np.random.default_rng(0).standard_normal((10, 3))
        with pytest.raises(ValueError):
            run_selector("mutual-info", X, np.arange(10.0), R, 2, 0)

    def test_run_selector_rejects_inapplicable(self):
        X = np.random.default_rng(0).standard_normal((10, 3))
        with pytest.raises(SelectorNotApplicable):
            run_selector("ttest", X, np.arange(10.0), R, 2, 0)


class TestTTest:
    def test_hand_computed_statistic(self):
        X = np.array([[0.0], [0.1], [1.0], [1.1]])
        y = [0, 0, 1, 1]
        result = select_ttest(X, y, 1)
        expected = (1.05 - 0.05) / np.sqrt(0.005 / 2 + 0.005 / 2)
        assert result.scores[0] == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(14.1421356, abs=1e-6)

    def test_identical_feature_scores_zero(self):
        X = np.column_stack([np.array([1.0, 2.0, 1.0, 2.0]), np.array([5.0, 5.0, 9.0, 9.0])])
        result = select_ttest(X, [0, 0, 1, 1], 1)
        assert result.scores[0] == pytest.approx(0.0, abs=1e-9)
        assert result.selected == [1]

    def test_label_feature_dominates(self):
        rng = np.random.default_rng(1)
        y = [0] * 10 + [1] * 10
        X = np.column_stack([rng.standard_normal(20), np.array(y, dtype=float)])
        result = select_ttest(X, y, 1)
        assert result.selected == [1]

    def test_not_binary(self):
        X = np.zeros((6, 2))
        with pytest.raises(NotBinary):
            select_ttest(X, [0, 1, 2, 0, 1, 2], 1)


class TestAnova:
    def test_identical_distributions_near_zero(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((60, 3))
        y = [0, 1, 2] * 20
        result = select_anova(X, y, 1)
        assert np.all(result.scores < 5.0)

    def test_class_index_feature_maximal(self):
        rng = np.random.default_rng(3)
        y = [0] * 8 + [1] * 8 + [2] * 8
        X = np.column_stack([np.array(y, dtype=float), rng.standard_normal(24)])
        result = select_anova(X, y, 1)
        assert result.selected == [0]
        assert result.scores[0] > 1e6  # epsilon-guarded within-variance

    def test_f_equals_t_squared_on_balanced_binary(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((40, 6))
        y = [0] * 20 + [1] * 20
        f = select_anova(X, y, 3).scores
        t = select_ttest(X, y, 3).scores
        assert np.allclose(f, t**2, atol=1e-6, rtol=1e-9)

    @pytest.mark.parametrize("y", [[0, 0, 1, 1, 2], [1] * 5])
    def test_class_of_one_row_or_one_class_is_refused(self, y):
        X = np.random.default_rng(5).standard_normal((5, 3))
        with pytest.raises(DegenerateClasses):
            select_anova(X, y, 1)


class TestVariance:
    def test_variance_arithmetic(self):
        X = np.array([[0.0, 0.0], [2.0, 1.0]])
        result = select_variance(X, 1)
        assert result.scores[0] == pytest.approx(1.0)
        assert result.scores[1] == pytest.approx(0.25)
        assert result.selected == [0]

    def test_constant_never_beats_varying(self):
        X = np.column_stack([np.full(10, 3.0), np.arange(10.0)])
        result = select_variance(X, 1)
        assert result.scores[0] == 0.0
        assert result.selected == [1]

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((30, 4))
        perm = rng.permutation(30)
        assert np.allclose(select_variance(X, 2).scores, select_variance(X[perm], 2).scores)


# values that repeat (exact variance ties), signs, large magnitudes and
# subnormal squares
_PALETTE = [1.0, -1.0, 2.5, 0.5, 3.0, -7.25, 1e3, 1e150, -1e200, 1e-170]


@st.composite
def wide_designs(draw):
    """Dense designs for CSR: each column random, all zero, one nonzero, a
    copy of the first column, a large mean with small spread, or holding
    NaN or ±inf. + 0.0 turns any -0.0 into 0.0, which CSR cannot store."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(2, 16))
    X = np.zeros((n, d))
    for j in range(d):
        kind = draw(st.sampled_from(["random", "zero", "single", "copy", "mean", "nan", "inf"]))
        col = np.array(draw(st.lists(st.sampled_from(_PALETTE + [0.0] * 4), min_size=n,
                                     max_size=n)))
        row = draw(st.integers(0, n - 1))
        if kind == "zero":
            col[:] = 0.0
        elif kind == "single":
            col[:] = 0.0
            col[row] = draw(st.sampled_from(_PALETTE))
        elif kind == "copy":
            col = X[:, 0].copy()
        elif kind == "mean":
            col = 1e6 + col / 1e3
        elif kind in ("nan", "inf"):
            col[row] = np.nan if kind == "nan" else draw(st.sampled_from([np.inf, -np.inf]))
        X[:, j] = col
    return X + 0.0


@contextmanager
def recorded_col_var():
    """CsrMatrix.col_var and take_columns, patched to record their calls."""
    with mock.patch.object(
        CsrMatrix, "col_var", autospec=True, side_effect=CsrMatrix.col_var
    ) as col_var, mock.patch.object(
        CsrMatrix, "take_columns", autospec=True, side_effect=CsrMatrix.take_columns
    ) as take:
        yield col_var, take


def reduced_widths(col_var) -> list[int]:
    return [c.args[0].shape[1] for c in col_var.call_args_list]


def compared_columns(X, col_var, take) -> np.ndarray:
    """All of X's columns when X itself was reduced, else the last taken."""
    if col_var.call_args.args[0] is X:
        return np.arange(X.shape[1])
    return np.asarray(take.call_args.args[1])


class TestVarianceOnCsr:
    @settings(max_examples=400, deadline=None)
    @given(X=wide_designs(), data=st.data())
    def test_pruned_selection_is_the_dense_selection(self, X, data):
        d = X.shape[1]
        k = data.draw(st.sampled_from([1, 2, d // 2, d - 1, d, d + 3]))
        k = max(k, 1)
        S = CsrMatrix.from_dense(X)
        with np.errstate(all="ignore"):
            dense = X.var(axis=0)
            with recorded_col_var() as (col_var, take):
                got = select_variance(S, k)
            bound = variance_bounds(S)
        assert got.selected == _top_k(dense, k).selected
        cols = compared_columns(S, col_var, take)
        assert got.scores[cols].tobytes() == dense[cols].tobytes()
        known = ~np.isnan(dense)
        assert np.all(dense[known] <= bound[known])
        # the other columns' scores come from their stored entries
        rest = np.setdiff1d(np.arange(d), cols)
        finite = rest[np.isfinite(dense[rest])]
        assert np.allclose(got.scores[finite], dense[finite], rtol=1e-9, atol=0.0)

    def test_ties_settled_by_the_evaluated_columns(self):
        # two columns of equal variance, one smaller and seven all-zero ones:
        # every k is settled without reducing all ten columns
        X = np.zeros((6, 10))
        X[0, 3] = X[1, 7] = 2.0  # tied: equal variance
        X[2, 5] = 1.0
        S = CsrMatrix.from_dense(X)
        for k, want in [(1, [3]), (2, [3, 7]), (3, [3, 5, 7])]:
            with recorded_col_var() as (col_var, _):
                got = select_variance(S, k)
            assert got.selected == want == _top_k(X.var(axis=0), k).selected
            assert reduced_widths(col_var)[-1] < 10

    def test_loose_bounds_take_a_second_round(self):
        # the large-mean columns 0 and 1 have the largest bounds and almost
        # no variance, so the first round's second-best variance (column 0)
        # does not beat column 3's bound: the second round finds [3, 4]
        X = np.zeros((8, 8))
        X[:, 0] = 1000.0 + np.arange(8) / 100.0
        X[:, 1] = 1000.0 - np.arange(8) / 100.0
        X[:, 2] = 10.0
        X[0, 3] = 10.0
        X[:4, 4] = [8.0, -8.0, 8.0, -8.0]
        S = CsrMatrix.from_dense(X)
        with recorded_col_var() as (col_var, _):
            got = select_variance(S, 2)
        assert got.selected == [3, 4] == _top_k(X.var(axis=0), 2).selected
        assert reduced_widths(col_var) == [4, 8]

    def test_bound_covers_rounding_above_the_mean_square(self):
        # a zero-mean column's computed variance can exceed its computed
        # mean square by an ulp; the margin keeps it under the bound
        rng = np.random.default_rng(3)
        X = rng.standard_normal((300, 400)) * (rng.random((300, 400)) < 0.5)
        X -= X.mean(axis=0)
        S = CsrMatrix.from_dense(X)
        sq = np.bincount(S.indices, weights=S.data * S.data, minlength=400) / 300
        assert np.any(X.var(axis=0) > sq)
        assert np.all(X.var(axis=0) <= variance_bounds(S))

    def test_tfidf_like_design_evaluates_few_columns(self):
        # 3000 rows of 5–30 terms from 5000 columns with Zipf frequencies,
        # tf-idf weighted and L2-normalized
        rng = np.random.default_rng(23)
        n, d, k = 3000, 5000, 300
        p = 1.0 / np.arange(1, d + 1) ** 1.1
        rows = []
        for _ in range(n):
            terms = np.unique(rng.choice(d, size=rng.integers(5, 31), p=p / p.sum()))
            rows.append(terms)
        indptr = np.concatenate([[0], np.cumsum([len(r) for r in rows])])
        indices = np.concatenate(rows)
        df = np.bincount(indices, minlength=d)
        data = rng.integers(1, 4, size=indices.size) * (np.log((1 + n) / (1 + df[indices])) + 1)
        norms = np.sqrt(np.add.reduceat(data * data, indptr[:-1]))
        data /= np.repeat(norms, np.diff(indptr))
        S = CsrMatrix(data, indices, indptr, (n, d))
        with recorded_col_var() as (col_var, _):
            got = select_variance(S, k)
        assert sum(reduced_widths(col_var)) <= 4 * k
        assert got.selected == _top_k(S.col_var(), k).selected

    def test_k_below_one_refused_before_any_work(self):
        S = CsrMatrix.from_dense(np.eye(4))
        with mock.patch.object(CsrMatrix, "col_var", side_effect=AssertionError), \
                mock.patch.object(CsrMatrix, "take_columns", side_effect=AssertionError), \
                mock.patch("tabtext.select.variance_bounds", side_effect=AssertionError):
            for k in (0, -3):
                with pytest.raises(ValueError, match="at least 1"):
                    select_variance(S, k)


def pca_oracle_scores(X):
    """Independent spectral-decomposition route: eigh on the covariance."""
    Xc = X - X.mean(axis=0)
    cov = Xc.T @ Xc / X.shape[0]
    lam, vecs = np.linalg.eigh(cov)
    keep = lam >= 1e-12
    lam, vecs = lam[keep], vecs[:, keep]
    evr = lam / lam.sum()
    return np.abs(vecs) @ evr


class TestPca:
    def test_high_variance_feature_wins(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([10.0 * rng.standard_normal(200), rng.standard_normal(200)])
        result = select_pca(X, 1)
        assert result.selected == [0]
        assert np.allclose(result.scores, pca_oracle_scores(X), atol=1e-9)

    @pytest.mark.parametrize("shape", [(30, 7), (7, 30)])
    def test_budgets_the_centered_copy_and_factors_before_the_svd(self, monkeypatch, shape):
        n, d = shape
        m = min(n, d)
        X = np.random.default_rng(9).standard_normal(shape)
        total = 8 * (n * d + n * m + m + m * d)
        monkeypatch.setattr(core, "MEMORY_BUDGET_BYTES", total - 1)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            with pytest.raises(MemoryBudgetExceeded, match="PCA"):
                select_pca(X, 2)
            svd.assert_not_called()
            monkeypatch.setattr(core, "MEMORY_BUDGET_BYTES", total)
            select_pca(X, 2)
            svd.assert_called_once()

    def test_single_feature_scores_one(self):
        X = np.arange(8.0).reshape(-1, 1)
        result = select_pca(X, 1)
        assert result.scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_duplicated_columns_equal_scores(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(50)
        X = np.column_stack([a, a, rng.standard_normal(50)])
        result = select_pca(X, 2)
        assert abs(result.scores[0] - result.scores[1]) < 1e-9

    def test_matches_oracle_on_random_problems(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((40, 6)) * rng.uniform(0.5, 3.0, size=6)
            assert np.allclose(select_pca(X, 3).scores, pca_oracle_scores(X), atol=1e-9)


def hadamard4():
    H = np.array(
        [
            [1.0, 1.0, 1.0, 1.0],
            [1.0, -1.0, 1.0, -1.0],
            [1.0, 1.0, -1.0, -1.0],
            [1.0, -1.0, -1.0, 1.0],
        ]
    )
    return H  # columns orthogonal with x_j . x_j = 4 = n


class TestLasso:
    def test_lambda_max_kills_all_weights(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 5))
        Xs = (X - X.mean(0)) / X.std(0)
        y = rng.standard_normal(30)
        lam_max = np.abs(Xs.T @ (y - y.mean())).max() / 30
        w, ok = lasso_cd(Xs, y, lam_max * 1.0001)
        assert ok
        assert np.all(w == 0.0)

    def test_orthonormal_closed_form(self):
        X = hadamard4()
        rng = np.random.default_rng(9)
        for trial in range(5):
            y = rng.standard_normal(4)
            lam = rng.uniform(0.05, 0.8)
            w, ok = lasso_cd(X, y, lam)
            assert ok
            yc = y - y.mean()
            expected = soft_threshold(X.T @ yc / 4.0, lam)
            assert np.allclose(w, expected, atol=1e-6)

    def test_kkt_conditions_on_random_problems(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            X = rng.standard_normal((50, 8))
            Xs = (X - X.mean(0)) / X.std(0)
            y = Xs @ rng.standard_normal(8) + 0.1 * rng.standard_normal(50)
            lam = 0.1
            w, ok = lasso_cd(Xs, y, lam)
            assert ok
            r = (y - y.mean()) - Xs @ w
            grad = Xs.T @ r / 50
            assert np.all(np.abs(grad) <= lam + 1e-4)
            active = w != 0
            assert np.allclose(np.abs(grad[active]), lam, atol=1e-4)

    def test_select_l1_reaches_k_nonzeros(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((60, 10))
        w_true = np.zeros(10)
        w_true[:4] = [3.0, -2.0, 1.5, 1.0]
        y = X @ w_true + 0.01 * rng.standard_normal(60)
        result = select_l1(X, y, R, 4)
        assert set(result.selected) == {0, 1, 2, 3}

    def test_select_l1_classification(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((80, 6))
        y = (X[:, 2] + 0.1 * rng.standard_normal(80) > 0).astype(int).tolist()
        result = select_l1(X, y, B, 1)
        assert 2 in result.selected

    def test_select_l1_multiclass(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((90, 5))
        y = np.digitize(X[:, 0], [-0.5, 0.5]).tolist()  # 3 classes from feature 0
        result = select_l1(X, y, M, 1)
        assert 0 in result.selected

    @pytest.mark.parametrize("task", [R, B])
    def test_select_l1_warns_at_the_sweep_limit(self, task, monkeypatch):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((40, 6))
        y = X[:, 1] + 0.1 * rng.standard_normal(40)
        if task is B:
            y = (y > 0).astype(int).tolist()
        monkeypatch.setattr(select, "L1_MAX_ITER", 1)
        with pytest.warns(NoConvergence, match="sweep limit"):
            result = select_l1(X, y, task, 3)
        assert len(result.selected) == 3

    def test_default_k_formula(self):
        from tabtext.select import default_k

        assert default_k(300, 5) == 295
        assert default_k(300, 295) == 10  # floor
        assert default_k(300, 290) == 10


def brute_shapley_ranking(X, y, seed):
    """Coalition enumeration against the fitted linear value function."""
    Xs = (X - X.mean(0)) / X.std(0)
    w, b = ridge_solve(Xs, y, alpha=1.0)
    d = X.shape[1]
    mu = Xs.mean(axis=0)

    def coalition_value(x, members):
        z = sum(w[j] * (x[j] if j in members else mu[j]) for j in range(d))
        return z + b

    phi = np.zeros_like(Xs)
    for j in range(d):
        others = [k for k in range(d) if k != j]
        for size in range(d):
            for S in itertools.combinations(others, size):
                weight = factorial(size) * factorial(d - size - 1) / factorial(d)
                members = set(S)
                with_j = members | {j}
                for i in range(X.shape[0]):
                    phi[i, j] += weight * (
                        coalition_value(Xs[i], with_j) - coalition_value(Xs[i], members)
                    )
    scores = np.abs(phi).mean(axis=0)
    return list(np.argsort(-scores))


class TestShapSurrogate:
    def test_weight_magnitude_ordering(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((100, 2))
        y = 2.0 * X[:, 0] + 0.1 * X[:, 1] + 0.01 * rng.standard_normal(100)
        result = select_shap(X, y, R, 1)
        assert result.scores[0] > result.scores[1]

    def test_matches_brute_force_coalitions(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((30, 3)) * rng.uniform(0.5, 2.0, size=3)
            w_true = rng.standard_normal(3) * [3.0, 1.0, 0.3]
            y = X @ w_true + 0.05 * rng.standard_normal(30)
            ours = select_shap(X, y, R, 3)
            our_ranking = list(np.argsort(-ours.scores))
            assert our_ranking == brute_shapley_ranking(X, y, seed)

    def test_zero_weight_zero_score(self):
        X = np.column_stack([np.arange(20.0), np.zeros(20)])
        y = X[:, 0] * 2.0
        result = select_shap(X, y, R, 1)
        assert result.scores[1] == pytest.approx(0.0, abs=1e-9)

    def test_classification_path(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((60, 4))
        y = ["hi" if v > 0 else "lo" for v in X[:, 1]]
        result = select_shap(X, y, B, 2)
        assert 1 in result.selected


class TestCorrelation:
    def test_perfect_linear(self):
        X = np.array([[1.0], [2.0], [3.0]])
        result = select_correlation(X, np.array([2.0, 4.0, 6.0]), 1)
        assert result.scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_independent_is_small(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((1000, 1))
        y = rng.standard_normal(1000)
        assert select_correlation(X, y, 1).scores[0] < 0.1

    def test_constant_column_scores_zero(self):
        X = np.column_stack([np.full(10, 2.0), np.arange(10.0)])
        result = select_correlation(X, np.arange(10.0), 1)
        assert result.scores[0] == 0.0


class TestRandom:
    def test_k_equals_d(self):
        assert select_random(5, 5, seed=0).selected == [0, 1, 2, 3, 4]

    def test_same_seed_same_subset(self):
        assert select_random(20, 5, seed=3).selected == select_random(20, 5, seed=3).selected

    def test_single(self):
        assert select_random(1, 1, seed=9).selected == [0]

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            select_random(5, 0, seed=0)

    @pytest.mark.parametrize("d,k", [(20, 5), (6, 6), (4, 9)])
    def test_scores_mark_exactly_the_draw(self, d, k):
        result = select_random(d, k, seed=2)
        assert len(result.selected) == min(k, d)
        assert np.flatnonzero(result.scores == 1.0).tolist() == result.selected
        assert np.count_nonzero(result.scores) == len(result.selected)


class TestApplySelection:
    def make_fm(self, d=4):
        X = np.arange(12.0).reshape(3, d)
        prov = [(f"c{j}", "num", 0) for j in range(d)]
        return FeatureMatrix(X, prov, np.array([1.0, 2.0, 3.0]))

    def test_identity_when_k_is_d(self):
        fm = self.make_fm()
        result = select_variance(fm.X, 4)
        out = apply_selection(fm, result)
        assert np.array_equal(out.X, fm.X)
        assert out.provenance == fm.provenance

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            select_variance(self.make_fm().X, 0)

    def test_out_of_range(self):
        fm = self.make_fm()
        result = select_variance(fm.X, 2)
        result.selected = [0, 99]
        with pytest.raises(IndexOutOfRange):
            apply_selection(fm, result)

    def test_provenance_preserved(self):
        fm = self.make_fm()
        result = select_variance(fm.X, 2)
        out = apply_selection(fm, result)
        assert out.provenance == [fm.provenance[j] for j in sorted(result.selected)]

    def test_tie_break_prefers_lower_index(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal(30)
        X = np.column_stack([a, a.copy(), rng.standard_normal(30) * 10.0])
        result = select_variance(X, 2)
        assert result.selected == [0, 2]
