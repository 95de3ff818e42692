"""XGBoost-style internals: regularized gain, gamma pruning, subsampling."""

import numpy as np
import pytest

from repro.ml.xgb import XGBoostClassifier, _XGBTree


def _split_problem(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = (X[:, 0] > 0).astype(float)
    p = np.full(n, 0.5)
    grad = p - y
    hess = p * (1 - p)
    return X, grad, hess


class TestXGBTree:
    def test_finds_true_split_feature(self):
        X, grad, hess = _split_problem()
        tree = _XGBTree(max_depth=1, min_child_weight=1.0, reg_lambda=1.0,
                        gamma=0.0, colsample=1.0,
                        rng=np.random.default_rng(0))
        tree.fit(X, grad, hess)
        assert not tree.root.is_leaf
        assert tree.root.feature == 0
        assert abs(tree.root.threshold) < 0.15

    def test_gamma_prunes_weak_splits(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(200, 2))
        grad = rng.normal(scale=0.01, size=200)  # almost no signal
        hess = np.full(200, 0.25)
        strict = _XGBTree(max_depth=3, min_child_weight=1.0, reg_lambda=1.0,
                          gamma=10.0, colsample=1.0,
                          rng=np.random.default_rng(0))
        strict.fit(X, grad, hess)
        assert strict.root.is_leaf  # nothing clears the gamma bar

    def test_leaf_value_is_newton_step(self):
        X = np.zeros((10, 1))
        grad = np.full(10, 2.0)
        hess = np.full(10, 1.0)
        tree = _XGBTree(max_depth=0, min_child_weight=1.0, reg_lambda=1.0,
                        gamma=0.0, colsample=1.0,
                        rng=np.random.default_rng(0))
        tree.fit(X, grad, hess)
        # -G / (H + lambda) = -20 / (10 + 1)
        assert tree.root.value == pytest.approx(-20 / 11)

    def test_min_child_weight_blocks_tiny_children(self):
        X = np.array([[0.0]] * 99 + [[10.0]])
        y = np.array([0.0] * 99 + [1.0])
        p = np.full(100, 0.5)
        grad, hess = p - y, p * (1 - p)
        tree = _XGBTree(max_depth=2, min_child_weight=5.0, reg_lambda=1.0,
                        gamma=0.0, colsample=1.0,
                        rng=np.random.default_rng(0))
        tree.fit(X, grad, hess)
        # The lone outlier row carries hessian 0.25 < 5.0: unsplittable.
        assert tree.root.is_leaf


class TestColumnSubsampling:
    def test_colsample_restricts_candidate_features(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 8))
        y = (X[:, 0] > 0).astype(int)
        model = XGBoostClassifier(
            n_estimators=12, colsample_bytree=0.25, random_state=0
        ).fit(X, y)
        used = set()
        for root in model._roots:
            stack = [root]
            while stack:
                node = stack.pop()
                if node is None or node.is_leaf:
                    continue
                used.add(node.feature)
                stack.extend((node.left, node.right))
        # With 2-of-8 columns per tree, not every feature can be used by
        # every tree — and the signal feature is found by some tree.
        assert used, "no splits at all"
        assert 0 in used

    def test_subsample_rows_still_learns(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(400, 3))
        y = (X[:, 1] > 0).astype(int)
        model = XGBoostClassifier(
            n_estimators=30, subsample=0.5, random_state=0
        ).fit(X, y)
        assert np.mean(model.predict(X) == y) > 0.9
