"""Classic gradient-boosted decision trees (GBDT) for binary classification.

Friedman-style boosting with logistic loss: each stage fits a CART
regression tree to the negative gradient (residual ``y - p``) and the
ensemble accumulates ``learning_rate``-scaled tree outputs in log-odds
space. This is the "GBDT" member of the StackModel's learner trio and the
final-layer combiner in Li et al.'s architecture.

:class:`BoostedTrees` is the base all three boosted learners share (GBDT
here, :mod:`repro.ml.xgb`, :mod:`repro.ml.lgbm`): the log-odds start score
and one inference tail over ``_Node`` trees.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..errors import NotFittedError, TrainingError
from .flat import FlatForest
from .tree import DecisionTreeRegressor, _Node, route


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


class BoostedTrees:
    """Fitting state and inference shared by GBDT, XGBoost and LightGBM.

    A fitted learner is a log-odds start score plus ``learning_rate``-scaled
    trees (:class:`~repro.ml.tree._Node` roots). Scores come from the
    compiled :class:`FlatForest` or, as its oracle, from
    :func:`~repro.ml.tree.route` per tree; both accumulate in tree order.
    Subclasses whose trees split a transformed matrix override
    :meth:`_inputs`.
    """

    learning_rate: float

    def __init__(self) -> None:
        self._roots: List[_Node] = []
        self._base_score = 0.0
        self._n_features = 0
        self._flat: Optional[FlatForest] = None

    def _fit_arrays(self, X: np.ndarray, y: np.ndarray):
        """Validated float training arrays; resets the fitted ensemble."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise TrainingError("bad shapes for X/y")
        if not np.isin(np.unique(y), (0.0, 1.0)).all():
            raise TrainingError(f"{type(self).__name__} expects binary 0/1 labels")
        self._n_features = X.shape[1]
        self._roots = []
        self._flat = None
        return X, y

    def _start_scores(self, y: np.ndarray) -> np.ndarray:
        """Set the base score to the log-odds of ``y`` and broadcast it."""
        positive = min(max(float(y.mean()), 1e-6), 1 - 1e-6)
        self._base_score = float(np.log(positive / (1.0 - positive)))
        return np.full(y.shape[0], self._base_score)

    def _inputs(self, X: np.ndarray) -> np.ndarray:
        """The matrix the trees split on."""
        return X

    def _rows(self, X: np.ndarray) -> np.ndarray:
        """``X`` checked against the training width, as the trees see it."""
        if not self._roots:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self._n_features:
            raise TrainingError(
                f"expected {self._n_features} features, got shape {X.shape}"
            )
        return self._inputs(X)

    def _compiled(self) -> FlatForest:
        """The flattened ensemble, compiled lazily after ``fit``."""
        if self._flat is None:
            self._flat = FlatForest.from_trees(
                self._roots, n_features=self._n_features
            )
        return self._flat

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = self._rows(X)
        return self._compiled().accumulate(X, self._base_score, self.learning_rate)

    def decision_function_reference(self, X: np.ndarray) -> np.ndarray:
        """Per-row reference walk; bit-identical to :meth:`decision_function`."""
        X = self._rows(X)
        raw = np.full(X.shape[0], self._base_score)
        for root in self._roots:
            raw += self.learning_rate * route(root, X)
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p, p])

    def predict_proba_reference(self, X: np.ndarray) -> np.ndarray:
        p = _sigmoid(self.decision_function_reference(X))
        return np.column_stack([1.0 - p, p])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(np.int64)


class GradientBoostingClassifier(BoostedTrees):
    """Binary GBDT with logistic loss.

    Parameters mirror the conventional implementation: ``n_estimators``
    boosting stages of depth-``max_depth`` trees, shrunk by
    ``learning_rate``; ``subsample`` < 1 enables stochastic gradient
    boosting.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        random_state: Optional[int] = None,
        early_stopping_rounds: Optional[int] = None,
        validation_fraction: float = 0.15,
    ) -> None:
        """``early_stopping_rounds`` holds out ``validation_fraction`` of
        the training data and stops boosting once validation log-loss has
        not improved for that many consecutive stages, truncating the
        ensemble at the best stage."""
        if n_estimators <= 0:
            raise TrainingError("n_estimators must be positive")
        if not 0.0 < learning_rate <= 1.0:
            raise TrainingError("learning_rate must lie in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise TrainingError("subsample must lie in (0, 1]")
        if early_stopping_rounds is not None and early_stopping_rounds < 1:
            raise TrainingError("early_stopping_rounds must be positive")
        if not 0.0 < validation_fraction < 1.0:
            raise TrainingError("validation_fraction must lie in (0, 1)")
        super().__init__()
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.random_state = random_state
        self.early_stopping_rounds = early_stopping_rounds
        self.validation_fraction = validation_fraction
        #: Per-stage validation log-loss when early stopping is active.
        self.validation_curve: List[float] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        X, y = self._fit_arrays(X, y)
        rng = np.random.default_rng(self.random_state)

        validation_X = validation_y = None
        if self.early_stopping_rounds is not None:
            n_validation = max(1, int(round(self.validation_fraction * y.shape[0])))
            if y.shape[0] - n_validation < 2:
                raise TrainingError("too few samples for early stopping")
            order = rng.permutation(y.shape[0])
            validation_idx, train_idx = order[:n_validation], order[n_validation:]
            validation_X, validation_y = X[validation_idx], y[validation_idx]
            X, y = X[train_idx], y[train_idx]

        raw = self._start_scores(y)
        self.validation_curve = []

        validation_raw = (
            np.full(validation_y.shape[0], self._base_score)
            if validation_y is not None else None
        )
        best_loss = np.inf
        best_stage = 0

        n = y.shape[0]
        sample_size = max(1, int(round(self.subsample * n)))
        for stage in range(self.n_estimators):
            probabilities = _sigmoid(raw)
            residual = y - probabilities
            if self.subsample < 1.0:
                indices = rng.choice(n, size=sample_size, replace=False)
            else:
                indices = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                random_state=None if self.random_state is None else self.random_state + stage,
            )
            tree.fit(X[indices], residual[indices])
            raw = raw + self.learning_rate * tree.predict(X)
            self._roots.append(tree._root)

            if validation_raw is not None:
                validation_raw = (
                    validation_raw + self.learning_rate * tree.predict(validation_X)
                )
                p = np.clip(_sigmoid(validation_raw), 1e-12, 1 - 1e-12)
                loss = float(
                    -np.mean(validation_y * np.log(p)
                             + (1 - validation_y) * np.log(1 - p))
                )
                self.validation_curve.append(loss)
                if loss < best_loss - 1e-9:
                    best_loss = loss
                    best_stage = stage
                elif stage - best_stage >= self.early_stopping_rounds:
                    self._roots = self._roots[: best_stage + 1]
                    break
        return self

    @property
    def n_fitted_trees(self) -> int:
        return len(self._roots)
