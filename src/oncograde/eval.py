"""Evaluation protocol: confusion matrices, accuracy/precision/recall/F1,
stratified k-fold cross-validation, learning curves, and learning-rate x
min-child-weight sweeps.

Folds, repeats, and sweep cells each run on their own derived sub-stream,
so results are bit-identical no matter how the work is scheduled.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .core import RngStream, parallel_map
from .dataset import LABEL_VALUES, N_CLASSES, csv_text
from .models.base import HYPERPARAMS_READ, Hyperparams
from .preprocess import round_half_up, shuffled_classes, stratified_split


@dataclass
class SweepConfig:
    """The learning-rate x min-child-weight grid, read from the run config's
    ``eval.sweep`` section; every cell must make a valid :class:`Hyperparams`."""

    learning_rate: list[float] = field(default_factory=lambda: [0.001, 0.01, 0.1])
    min_child_weight: list[float] = field(default_factory=lambda: [1.0, 3.0, 5.0])

    def __post_init__(self):
        if not self.learning_rate or not self.min_child_weight:
            raise ValueError("sweep axes must be non-empty")
        try:  # Hyperparams owns the range rule; a cell is valid when both its values are, so each is checked once
            for lr in self.learning_rate:
                Hyperparams(learning_rate=lr)
            for mcw in self.min_child_weight:
                Hyperparams(min_child_weight=mcw)
        except ValueError as exc:  # the prefix tells a grid value from a model one
            raise ValueError(f"eval.sweep: {exc}") from None


@dataclass
class EvalConfig:
    """The harness settings, read from the run config's ``eval`` section;
    :func:`kfold_cv`, :func:`learning_curve` and :func:`sweep` take them whole."""

    k: int = 5
    curve_fractions: list[float] = field(
        default_factory=lambda: [round(0.1 * i, 1) for i in range(1, 11)]
    )
    curve_repeats: int = 3
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.curve_repeats < 1:
            raise ValueError(f"curve_repeats must be >= 1, got {self.curve_repeats}")
        fractions = self.curve_fractions
        if not fractions or any(not 0 < f <= 1 for f in fractions):
            raise ValueError(f"curve_fractions must be non-empty and lie in (0, 1], got {fractions}")
        if any(b <= a for a, b in zip(fractions, fractions[1:])):
            raise ValueError(f"curve_fractions must be strictly increasing, got {fractions}")


@dataclass
class MetricsReport:
    accuracy: float
    precision_per_class: list[float]
    recall_per_class: list[float]
    f1_per_class: list[float]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    support: list[int]


@dataclass
class CvResult:
    """Fields in the order ``cv.json`` writes them."""

    k: int
    fold_sizes: list[int]
    mean: dict[str, float]
    std: dict[str, float]
    per_fold: list[MetricsReport]


@dataclass
class LearningCurve:
    fractions: list[float]
    train_score: list[float]
    val_score: list[float]


@dataclass
class SweepResult:
    learning_rates: list[float]
    min_child_weights: list[float]
    train_grid: np.ndarray  # shape |lr| x |mcw|
    val_grid: np.ndarray
    inactive_axes: list[str] = field(default_factory=list)


def confusion(y_true, y_pred) -> np.ndarray:
    """3x3 counts of two equal-length label sequences in {0, 1, 2}: rows are the true class, columns the predicted."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    cells = np.bincount(N_CLASSES * y_true + y_pred, minlength=N_CLASSES * N_CLASSES)
    return cells.reshape(N_CLASSES, N_CLASSES)


def metrics(counts: np.ndarray) -> MetricsReport:
    """Accuracy plus per-class and macro precision/recall/F1.

    Zero-denominator metrics are 0 by convention, so reports stay
    serializable and comparable.
    """
    total = counts.sum()
    accuracy = float(np.trace(counts) / total)
    hits, predicted, support = np.diag(counts), counts.sum(axis=0), counts.sum(axis=1)
    precision = np.divide(hits, predicted, out=np.zeros(N_CLASSES), where=predicted > 0)
    recall = np.divide(hits, support, out=np.zeros(N_CLASSES), where=support > 0)
    f1 = np.divide(2 * precision * recall, precision + recall, out=np.zeros(N_CLASSES), where=precision + recall > 0)
    return MetricsReport(
        accuracy=accuracy,
        precision_per_class=precision.tolist(),
        recall_per_class=recall.tolist(),
        f1_per_class=f1.tolist(),
        macro_precision=float(np.mean(precision)),
        macro_recall=float(np.mean(recall)),
        macro_f1=float(np.mean(f1)),
        support=support.tolist(),
    )


def evaluate_predictions(y_true, y_pred) -> tuple[np.ndarray, MetricsReport]:
    cm = confusion(y_true, y_pred)
    return cm, metrics(cm)


_AGG_KEYS = ("accuracy", "macro_precision", "macro_recall", "macro_f1")


def stratified_folds(y, k: int, stream: RngStream) -> list[list[int]]:
    """The classes' seeded shuffles, laid end to end, dealt round-robin into ``k`` folds."""
    order: list[int] = []
    for cls, rows in shuffled_classes(y, stream):
        if len(rows) < k:
            raise ValueError(f"class {cls} has {len(rows)} samples, fewer than k={k}")
        order += rows
    return [order[f::k] for f in range(k)]


def _fit_and_score(X, y, fits, score_train: bool = True) -> list:
    """Train each ``(spec, train rows, validation rows, stream)`` fit in one
    :func:`parallel_map`, the dnn monitoring the validation rows; each gives
    (training accuracy, or None unless ``score_train``; validation report)."""

    def run(fit):
        spec, train, val, fit_stream = fit
        X_tr, y_tr, X_val, y_val = X[train], y[train], X[val], y[val]
        model = spec.train(X_tr, y_tr, fit_stream, X_val, y_val)
        train_accuracy = float((model.predict(X_tr) == y_tr).mean()) if score_train else None
        return train_accuracy, evaluate_predictions(y_val, model.predict(X_val))[1]

    return parallel_map(run, fits)


def kfold_cv(X, y, model_spec, settings: EvalConfig, stream: RngStream) -> CvResult:
    """Stratified ``settings.k``-fold; each fold validates a model trained on the rest."""
    folds = stratified_folds(y, settings.k, stream)
    # train and validation rows in index order: row order reaches the models
    rows = np.arange(len(y))
    fits = [(model_spec, np.delete(rows, f), np.sort(f), stream.derive(i)) for i, f in enumerate(folds)]
    per_fold = [report for _, report in _fit_and_score(X, y, fits, score_train=False)]
    mean = {key: float(np.mean([getattr(r, key) for r in per_fold])) for key in _AGG_KEYS}
    std = {key: float(np.std([getattr(r, key) for r in per_fold])) for key in _AGG_KEYS}
    return CvResult(k=settings.k, fold_sizes=[len(f) for f in folds], mean=mean, std=std, per_fold=per_fold)


def _stratified_subset(y, pool: list[int], fraction: float, stream: RngStream) -> list[int]:
    """Per-class shuffled prefix of about fraction * class size, at least 1."""
    subset: list[int] = []
    for cls, order in shuffled_classes(y, stream, pool):
        n_sub = round_half_up(fraction * len(order))
        if n_sub < 1:
            raise ValueError(
                f"fraction {fraction} too small for stratification of class {cls}"
            )
        subset.extend(order[:n_sub])
    return subset


def learning_curve(X, y, model_spec, settings: EvalConfig, stream: RngStream) -> LearningCurve:
    """Train/validation accuracy as a function of training-set size.

    A stratified 20% validation set is held out once; each
    (``curve_fractions`` entry, repeat) trains on a stratified subset of
    the remaining pool with a fresh sub-stream and scores the training
    subset and the fixed validation set.
    """
    fractions, repeats = settings.curve_fractions, settings.curve_repeats
    split = stratified_split(y, 0.2, stream.derive(0))
    fits = []
    for cell, fraction in enumerate(fractions * repeats):
        cell_stream = stream.derive(1 + cell)
        subset = _stratified_subset(y, split.train, fraction, cell_stream)
        fits.append((model_spec, subset, split.test, cell_stream))
    results = _fit_and_score(X, y, fits)
    scores = np.asarray([(t, v.accuracy) for t, v in results]).reshape(repeats, len(fractions), 2)
    # made contiguous as (train/val, fraction, repeat), so each mean adds its
    # repeats in the order np.mean adds a list of them
    train_score, val_score = np.ascontiguousarray(scores.T).mean(axis=-1).tolist()
    return LearningCurve(fractions=fractions, train_score=train_score, val_score=val_score)


def sweep(X, y, model_spec, settings: EvalConfig, stream: RngStream) -> SweepResult:
    """Train/validation accuracy over the ``settings.sweep`` grid of
    learning rate x min child weight.

    Every cell reuses the same derived sub-stream (same 80/20 split, same
    training randomness), so cells differ only through the hyperparameters.
    An axis the model does not read (``HYPERPARAMS_READ``) is trained at its
    first value only, its scores shared by the axis's other cells, and is
    reported as inactive when it has two or more values.
    """
    lr_values, mcw_values = settings.sweep.learning_rate, settings.sweep.min_child_weight
    axes = (("learning_rate", lr_values), ("min_child_weight", mcw_values))
    reads = HYPERPARAMS_READ[model_spec.name]
    lr_trained, mcw_trained = (values if name in reads else values[:1] for name, values in axes)
    cell_stream = stream.derive(0)
    split = stratified_split(y, 0.2, cell_stream)
    fits = []
    for lr in lr_trained:
        for mcw in mcw_trained:
            spec = model_spec.with_hyperparams(learning_rate=lr, min_child_weight=mcw)
            fits.append((spec, split.train, split.test, copy.copy(cell_stream)))
    results = _fit_and_score(X, y, fits)
    grid = np.asarray([(t, v.accuracy) for t, v in results]).reshape(len(lr_trained), len(mcw_trained), 2)
    grid = np.broadcast_to(grid, (len(lr_values), len(mcw_values), 2))
    return SweepResult(
        learning_rates=lr_values,
        min_child_weights=mcw_values,
        train_grid=grid[..., 0],
        val_grid=grid[..., 1],
        inactive_axes=[name for name, values in axes if name not in reads and len(values) >= 2],
    )


# --- artifact formats -------------------------------------------------------


def confusion_to_csv(counts: np.ndarray) -> str:
    rows = ([label, *row] for label, row in zip(LABEL_VALUES, counts))
    return csv_text(["true\\pred", *LABEL_VALUES], rows)


def curve_to_csv(curve: LearningCurve) -> str:
    rows = zip(curve.fractions, curve.train_score, curve.val_score)
    return csv_text(["fraction", "train_score", "val_score"], rows)


def sweep_to_csv(result: SweepResult) -> str:
    rows = (
        [lr, mcw, result.train_grid[i, j], result.val_grid[i, j]]
        for i, lr in enumerate(result.learning_rates)
        for j, mcw in enumerate(result.min_child_weights)
    )
    return csv_text(["learning_rate", "min_child_weight", "train_accuracy", "val_accuracy"], rows)


def cv_to_csv(result: CvResult) -> str:
    rows = (
        [i, size, *(getattr(report, key) for key in _AGG_KEYS)]
        for i, (report, size) in enumerate(zip(result.per_fold, result.fold_sizes))
    )
    return csv_text(["fold", "size", *_AGG_KEYS], rows)
