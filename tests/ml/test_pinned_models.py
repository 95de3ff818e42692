"""Cross-commit pins: every learner's fitted trees at fixed seeds.

Each case fits one model and hashes the flattened forest (or, for the
StackModel, every member's forest and the head's). ``feature``/``left``/
``right``/``roots`` are hashed exactly; ``threshold``/``value`` are rounded
to 10 decimals first, so a last-ulp libm difference between machines does
not trip the pin while any change to split search, growth order, RNG draws
or accumulation order does. A refactor of the tree code must leave these
digests unchanged.
"""

import hashlib

import numpy as np
import pytest

from repro.config import SeedBank
from repro.ml import (
    GradientBoostingClassifier,
    LightGBMClassifier,
    RandomForestClassifier,
    StackModel,
    XGBoostClassifier,
)


def _training_data(n=300, d=6):
    rng = SeedBank(20231024).child("ml.pins")
    X = rng.normal(size=(n, d))
    logits = X[:, 0] - 0.8 * X[:, 1] + 1.2 * (X[:, 2] > 0.3) + X[:, 3] * X[:, 4]
    y = (logits + rng.normal(scale=0.7, size=n) > 0).astype(int)
    return X, y


def _forests(model):
    if isinstance(model, StackModel):
        members = [m for layer in model._layer_models for m in layer]
        return [m._compiled() for m in members + [model._final_model]]
    return [model._compiled()]


def _digest(model) -> str:
    h = hashlib.sha256()
    for flat in _forests(model):
        for exact in (flat.feature, flat.left, flat.right, flat.roots):
            h.update(np.ascontiguousarray(exact, dtype=np.int64).tobytes())
        for rounded in (flat.threshold, flat.value):
            # ``+ 0.0`` folds a rounded -0.0 into 0.0.
            h.update((np.round(rounded, 10) + 0.0).tobytes())
    return h.hexdigest()


CASES = {
    "gbdt_subsample": (
        lambda: GradientBoostingClassifier(
            n_estimators=20, subsample=0.7, random_state=5
        ),
        "d67e3a7c42d828fe7930469beb3c1db8c570971350c393ed492b0f7859b8bfe5",
    ),
    "gbdt_early_stopping": (
        lambda: GradientBoostingClassifier(
            n_estimators=150, learning_rate=0.5, early_stopping_rounds=4,
            random_state=5,
        ),
        "79c6554af7f6e5ac2065d9b0e448d30b53df7aa7241a397bb8364e5b5c45fbfe",
    ),
    "xgb_subsample_colsample": (
        lambda: XGBoostClassifier(
            n_estimators=20, subsample=0.7, colsample_bytree=0.5,
            random_state=5,
        ),
        "6171f4e73f37a59de0811ce3c7489db8621aa04f107394c8eef34c87c6764fcd",
    ),
    "lgbm": (
        lambda: LightGBMClassifier(n_estimators=20, random_state=5),
        "1609278c72c378f190e6715d8b2f34ae2c3780cb92c19e02a2815d80f8baab40",
    ),
    "random_forest": (
        lambda: RandomForestClassifier(n_estimators=12, random_state=5),
        "966935cb896dbfd1ca4608fa53c722806a4e77d26ba9647bc0534987f6aa0b54",
    ),
    "stack_model": (
        lambda: StackModel(n_estimators=8, n_splits=3, random_state=7),
        "cb436364f8b9014a878c5a570f9bbeb627fd838b9a900d4f382f0e382ff385f3",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fitted_forest_digest_is_pinned(name):
    factory, expected = CASES[name]
    X, y = _training_data()
    assert _digest(factory().fit(X, y)) == expected


def test_early_stopping_case_truncates():
    """The early-stopping pin must exercise the truncation branch."""
    factory, _ = CASES["gbdt_early_stopping"]
    X, y = _training_data()
    assert factory().fit(X, y).n_fitted_trees < 150
