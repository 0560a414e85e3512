"""From-scratch ML substrate: trees, forests, GBT, ridge, MLP, metrics."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostedTreesRegressor,
    MLPRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
    RidgeRegressor,
)
from repro.ml.metrics import (
    accuracy,
    confusion_matrix,
    f1_score,
    mae,
    mape,
    precision_recall_f1,
    r2,
)


def _toy_regression(n=400, seed=0):
    g = np.random.default_rng(seed)
    X = g.random((n, 3))
    y = 3 * X[:, 0] + np.sin(6 * X[:, 1]) + 0.05 * g.normal(size=n)
    return X[: n // 2], y[: n // 2], X[n // 2 :], y[n // 2 :]


def _toy_classification(n=400, seed=0):
    g = np.random.default_rng(seed)
    X = g.random((n, 2))
    y = np.where(X[:, 0] + X[:, 1] > 1.0, "pos", "neg")
    return X[: n // 2], y[: n // 2], X[n // 2 :], y[n // 2 :]


class TestMetrics:
    def test_mae(self):
        assert mae([1, 2, 3], [2, 2, 2]) == pytest.approx(2 / 3)

    def test_mape_percent(self):
        assert mape([2.0, 4.0], [1.0, 4.0]) == pytest.approx(25.0)

    def test_r2_perfect(self):
        assert r2([1, 2, 3], [1, 2, 3]) == 1.0

    def test_r2_mean_predictor_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2(y, np.full(3, y.mean())) == pytest.approx(0.0)

    def test_r2_constant_target(self):
        assert r2([2, 2], [2, 2]) == 1.0

    def test_confusion_orientation(self):
        """Rows = predicted, columns = true (Table III layout)."""
        m = confusion_matrix(["hot", "cool"], ["cool", "cool"], labels=["hot", "cool"])
        assert m[1, 0] == 1  # true hot predicted cool
        assert m[1, 1] == 1

    def test_f1_known_value(self):
        yt = ["p", "p", "n", "n"]
        yp = ["p", "n", "p", "n"]
        prec, rec, f1 = precision_recall_f1(yt, yp, positive="p")
        assert (prec, rec, f1) == (0.5, 0.5, 0.5)
        assert f1_score(yt, yp, positive="p") == 0.5

    def test_accuracy(self):
        assert accuracy([1, 2, 3], [1, 2, 4]) == pytest.approx(2 / 3)

    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_mae_nonnegative_r2_bounded(self, ys):
        ys = np.asarray(ys)
        pred = np.zeros_like(ys)
        assert mae(ys, pred) >= 0
        assert r2(ys, ys) == 1.0


class TestTrees:
    def test_regressor_learns(self):
        Xtr, ytr, Xte, yte = _toy_regression()
        t = DecisionTreeRegressor(max_depth=8).fit(Xtr, ytr)
        assert r2(yte, t.predict(Xte)) > 0.8

    def test_regressor_beats_mean(self):
        Xtr, ytr, Xte, yte = _toy_regression()
        t = DecisionTreeRegressor(max_depth=6).fit(Xtr, ytr)
        assert mae(yte, t.predict(Xte)) < mae(yte, np.full(len(yte), ytr.mean()))

    def test_depth_zero_is_mean(self):
        Xtr, ytr, _, _ = _toy_regression()
        t = DecisionTreeRegressor(max_depth=0).fit(Xtr, ytr)
        assert t.predict(Xtr[:3]) == pytest.approx(np.full(3, ytr.mean()))

    def test_min_samples_leaf_respected(self):
        Xtr, ytr, _, _ = _toy_regression(n=40)
        t = DecisionTreeRegressor(min_samples_leaf=10).fit(Xtr, ytr)

        def leaves(node):
            if node.is_leaf:
                return [node]
            return leaves(node.left) + leaves(node.right)

        # With min_samples_leaf=10 on 20 train rows there are at most 2 leaves.
        assert len(leaves(t._root)) <= 2

    def test_classifier_learns(self):
        Xtr, ytr, Xte, yte = _toy_classification()
        c = DecisionTreeClassifier(max_depth=8).fit(Xtr, ytr)
        assert accuracy(yte, c.predict(Xte)) > 0.9

    def test_classifier_proba_sums_to_one(self):
        Xtr, ytr, Xte, _ = _toy_classification()
        c = DecisionTreeClassifier(max_depth=4).fit(Xtr, ytr)
        p = c.predict_proba(Xte)
        assert np.allclose(p.sum(axis=1), 1.0)

    @pytest.mark.parametrize("model", [DecisionTreeRegressor, DecisionTreeClassifier])
    def test_rejects_bad_input(self, model):
        with pytest.raises(ValueError):
            model().fit(np.zeros((3,)), np.zeros(3))
        with pytest.raises(ValueError):
            model().fit(np.zeros((3, 2)), np.zeros(4))

    @staticmethod
    def _one_ulp_apart():
        # lo has an odd mantissa, so the midpoint (lo + hi) / 2 rounds up to hi.
        lo = np.nextafter(1.0, 2.0)
        hi = np.nextafter(lo, 2.0)
        assert (lo + hi) / 2 == hi
        return np.array([[lo], [lo], [hi], [hi]])

    def test_regressor_split_one_ulp_apart(self):
        X = self._one_ulp_apart()
        t = DecisionTreeRegressor().fit(X, [0.0, 0.0, 1.0, 1.0])
        left = X[:, 0] <= t._root.threshold
        assert 0 < left.sum() < len(X)
        assert np.isfinite(t.predict(X)).all()

    def test_classifier_split_one_ulp_apart(self):
        X = self._one_ulp_apart()
        c = DecisionTreeClassifier().fit(X, ["a", "a", "b", "b"])
        left = X[:, 0] <= c._root.threshold
        assert 0 < left.sum() < len(X)
        assert np.isfinite(c.predict_proba(X)).all()

    def test_deterministic(self):
        Xtr, ytr, Xte, _ = _toy_regression()
        p1 = DecisionTreeRegressor(random_state=1).fit(Xtr, ytr).predict(Xte)
        p2 = DecisionTreeRegressor(random_state=1).fit(Xtr, ytr).predict(Xte)
        assert np.array_equal(p1, p2)


class TestEnsembles:
    def test_forest_regressor_learns(self):
        Xtr, ytr, Xte, yte = _toy_regression()
        f = RandomForestRegressor(n_estimators=25, random_state=0).fit(Xtr, ytr)
        assert r2(yte, f.predict(Xte)) > 0.85

    def test_forest_classifier_learns(self):
        Xtr, ytr, Xte, yte = _toy_classification()
        f = RandomForestClassifier(n_estimators=25, random_state=0).fit(Xtr, ytr)
        assert accuracy(yte, f.predict(Xte)) > 0.88

    def test_forest_proba_shape(self):
        Xtr, ytr, Xte, _ = _toy_classification()
        f = RandomForestClassifier(n_estimators=10, random_state=0).fit(Xtr, ytr)
        p = f.predict_proba(Xte)
        assert p.shape == (len(Xte), 2)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_gbt_learns(self):
        Xtr, ytr, Xte, yte = _toy_regression()
        m = GradientBoostedTreesRegressor(n_estimators=150, random_state=0).fit(Xtr, ytr)
        assert r2(yte, m.predict(Xte)) > 0.85

    def test_gbt_early_stop_on_perfect_fit(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1.0, 1.0])
        m = GradientBoostedTreesRegressor(n_estimators=50).fit(X, y)
        assert len(m.trees_) == 0  # residuals were zero from the start
        assert m.predict(X) == pytest.approx([1.0, 1.0])

    def test_forest_deterministic(self):
        Xtr, ytr, Xte, _ = _toy_regression()
        a = RandomForestRegressor(n_estimators=8, random_state=3).fit(Xtr, ytr).predict(Xte)
        b = RandomForestRegressor(n_estimators=8, random_state=3).fit(Xtr, ytr).predict(Xte)
        assert np.array_equal(a, b)


class TestLinearAndMLP:
    def test_ridge_recovers_linear(self):
        g = np.random.default_rng(0)
        X = g.random((200, 2))
        y = 2 * X[:, 0] - 1 * X[:, 1] + 0.5
        m = RidgeRegressor(alpha=1e-6).fit(X, y)
        assert r2(y, m.predict(X)) > 0.999

    def test_ridge_regularises(self):
        g = np.random.default_rng(0)
        X = g.random((50, 2))
        y = X[:, 0]
        big = RidgeRegressor(alpha=1e6).fit(X, y)
        # Huge regularisation shrinks to ~mean prediction.
        assert np.allclose(big.predict(X), y.mean(), atol=0.05)

    def test_ridge_constant_feature_safe(self):
        X = np.ones((10, 2))
        y = np.arange(10.0)
        m = RidgeRegressor().fit(X, y)
        assert np.isfinite(m.predict(X)).all()

    def test_mlp_learns_nonlinear(self):
        Xtr, ytr, Xte, yte = _toy_regression()
        m = MLPRegressor(hidden=(32, 16), epochs=300, random_state=0).fit(Xtr, ytr)
        assert r2(yte, m.predict(Xte)) > 0.8

    def test_mlp_deterministic(self):
        Xtr, ytr, Xte, _ = _toy_regression(n=100)
        a = MLPRegressor(epochs=50, random_state=2).fit(Xtr, ytr).predict(Xte)
        b = MLPRegressor(epochs=50, random_state=2).fit(Xtr, ytr).predict(Xte)
        assert np.allclose(a, b)
