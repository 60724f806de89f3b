"""Evaluation protocol: confusion matrices, accuracy/precision/recall/F1,
stratified k-fold cross-validation, learning curves, and learning-rate x
min-child-weight sweeps.

Folds, repeats, and sweep cells each run on their own derived sub-stream,
so results are bit-identical no matter how the work is scheduled.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .core import RngStream, as_matrix, parallel_map, shuffle
from .dataset import LABEL_VALUES, N_CLASSES
from .preprocess import _round_half_up, stratified_split


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
    k: int
    per_fold: list[MetricsReport]
    fold_sizes: list[int]
    mean: dict[str, float]
    std: dict[str, float]


@dataclass
class LearningCurve:
    fractions: list[float]
    train_score: list[float]
    val_score: list[float]
    repeats: int


@dataclass
class SweepResult:
    learning_rates: list[float]
    min_child_weights: list[float]
    train_grid: np.ndarray  # shape |lr| x |mcw|
    val_grid: np.ndarray
    inactive_axes: list[str] = field(default_factory=list)


def confusion(y_true, y_pred) -> np.ndarray:
    """3x3 counts: rows are the true class, columns the predicted class."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape[0]} true vs {y_pred.shape[0]} predicted")
    for arr, which in ((y_true, "true"), (y_pred, "predicted")):
        if arr.size and (arr.min() < 0 or arr.max() >= N_CLASSES):
            raise ValueError(f"{which} labels must lie in {{0,1,2}}")
    cells = np.bincount(N_CLASSES * y_true + y_pred, minlength=N_CLASSES * N_CLASSES)
    return cells.reshape(N_CLASSES, N_CLASSES)


def metrics(counts: np.ndarray) -> MetricsReport:
    """Accuracy plus per-class and macro precision/recall/F1.

    Zero-denominator metrics are 0 by convention, so reports stay
    serializable and comparable.
    """
    total = counts.sum()
    if total == 0:
        raise ValueError("empty evaluation")
    accuracy = float(np.trace(counts) / total)
    precision, recall, f1 = [], [], []
    for c in range(N_CLASSES):
        col = counts[:, c].sum()
        row = counts[c, :].sum()
        p = float(counts[c, c] / col) if col else 0.0
        r = float(counts[c, c] / row) if row else 0.0
        f = 2 * p * r / (p + r) if (p + r) else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(f)
    return MetricsReport(
        accuracy=accuracy,
        precision_per_class=precision,
        recall_per_class=recall,
        f1_per_class=f1,
        macro_precision=float(np.mean(precision)),
        macro_recall=float(np.mean(recall)),
        macro_f1=float(np.mean(f1)),
        support=[int(v) for v in counts.sum(axis=1)],
    )


def evaluate_predictions(y_true, y_pred) -> tuple[np.ndarray, MetricsReport]:
    cm = confusion(y_true, y_pred)
    return cm, metrics(cm)


def _accuracy(model, X, y) -> float:
    return float((model.predict(X) == np.asarray(y)).mean())


_AGG_KEYS = ("accuracy", "macro_precision", "macro_recall", "macro_f1")


def stratified_folds(y, k: int, stream: RngStream) -> list[list[int]]:
    """Per-class round-robin assignment after a seeded shuffle.

    Remainder classes start at rotating offsets so overall fold sizes
    differ by at most 1.
    """
    y = np.asarray(y, dtype=np.int64)
    folds: list[list[int]] = [[] for _ in range(k)]
    offset = 0
    for cls in range(N_CLASSES):
        idx = [int(i) for i in np.where(y == cls)[0]]
        if not idx:
            continue
        if len(idx) < k:
            raise ValueError(f"class {cls} has {len(idx)} samples, fewer than k={k}")
        order = shuffle(idx, stream)
        for m, i in enumerate(order):
            folds[(m + offset) % k].append(i)
        offset = (offset + len(idx)) % k
    return folds


def kfold_cv(X, y, model_spec, k: int, stream: RngStream) -> CvResult:
    """Stratified k-fold; each fold validates a model trained on the rest."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    X = as_matrix(X)
    y = np.asarray(y, dtype=np.int64)
    folds = stratified_folds(y, k, stream)

    def run_fold(args):
        fold_idx, val_idx = args
        val_mask = np.zeros(len(y), dtype=bool)
        val_mask[val_idx] = True
        model = model_spec.train(
            X[~val_mask], y[~val_mask], stream.derive(fold_idx), X[val_mask], y[val_mask]
        )
        _, report = evaluate_predictions(y[val_mask], model.predict(X[val_mask]))
        return report

    per_fold = parallel_map(run_fold, list(enumerate(folds)))
    mean = {key: float(np.mean([getattr(r, key) for r in per_fold])) for key in _AGG_KEYS}
    std = {key: float(np.std([getattr(r, key) for r in per_fold])) for key in _AGG_KEYS}
    return CvResult(
        k=k,
        per_fold=per_fold,
        fold_sizes=[len(f) for f in folds],
        mean=mean,
        std=std,
    )


def _stratified_subset(y, pool: list[int], fraction: float, stream: RngStream) -> list[int]:
    """Per-class shuffled prefix of about fraction * class size, at least 1."""
    y = np.asarray(y)
    subset: list[int] = []
    for cls in range(N_CLASSES):
        idx = [i for i in pool if y[i] == cls]
        if not idx:
            continue
        n_sub = _round_half_up(fraction * len(idx))
        if n_sub < 1:
            raise ValueError(
                f"fraction {fraction} too small for stratification of class {cls}"
            )
        subset.extend(shuffle(idx, stream)[:n_sub])
    return subset


def learning_curve(X, y, model_spec, fractions, repeats: int, stream: RngStream) -> LearningCurve:
    """Train/validation accuracy as a function of training-set size.

    A stratified 20% validation set is held out once; each (fraction,
    repeat) trains on a stratified subset of the remaining pool with a
    fresh sub-stream and scores the training subset and the fixed
    validation set.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    fractions = [float(f) for f in fractions]
    if not fractions or any(not 0 < f <= 1 for f in fractions):
        raise ValueError("fractions must lie in (0, 1]")
    if any(b <= a for a, b in zip(fractions, fractions[1:])):
        raise ValueError("fractions must be strictly increasing")
    X = as_matrix(X)
    y = np.asarray(y, dtype=np.int64)

    split = stratified_split(y, 0.2, stream.derive(0))
    X_val, y_val = X[split.test], y[split.test]
    pool = split.train

    def run_cell(args):
        r, fi = args
        cell_stream = stream.derive(1 + r * len(fractions) + fi)
        subset = _stratified_subset(y, pool, fractions[fi], cell_stream)
        model = model_spec.train(X[subset], y[subset], cell_stream, X_val, y_val)
        return _accuracy(model, X[subset], y[subset]), _accuracy(model, X_val, y_val)

    cells = [(r, fi) for r in range(repeats) for fi in range(len(fractions))]
    results = parallel_map(run_cell, cells)

    train_score, val_score = [], []
    for fi in range(len(fractions)):
        scores = [results[r * len(fractions) + fi] for r in range(repeats)]
        train_score.append(float(np.mean([s[0] for s in scores])))
        val_score.append(float(np.mean([s[1] for s in scores])))
    return LearningCurve(
        fractions=fractions, train_score=train_score, val_score=val_score, repeats=repeats
    )


def sweep(X, y, model_spec, lr_values, mcw_values, stream: RngStream) -> SweepResult:
    """Train/validation accuracy over a learning-rate x min-child-weight grid.

    Every cell reuses the same derived sub-stream (same 80/20 split, same
    training randomness), so cells differ only through the hyperparameters;
    an axis of length >= 2 whose cells are all bit-identical is reported as
    inactive for this model family.
    """
    lr_values = [float(v) for v in lr_values]
    mcw_values = [float(v) for v in mcw_values]
    if not lr_values or not mcw_values:
        raise ValueError("sweep axes must be non-empty")
    X = as_matrix(X)
    y = np.asarray(y, dtype=np.int64)

    def run_cell(args):
        lr, mcw = args
        cell_stream = stream.derive(0)
        split = stratified_split(y, 0.2, cell_stream)
        spec = model_spec.with_hyperparams(learning_rate=lr, min_child_weight=mcw)
        model = spec.train(
            X[split.train], y[split.train], cell_stream, X[split.test], y[split.test]
        )
        return (
            _accuracy(model, X[split.train], y[split.train]),
            _accuracy(model, X[split.test], y[split.test]),
        )

    cells = [(lr, mcw) for lr in lr_values for mcw in mcw_values]
    results = parallel_map(run_cell, cells)

    shape = (len(lr_values), len(mcw_values))
    train_grid = np.asarray([r[0] for r in results]).reshape(shape)
    val_grid = np.asarray([r[1] for r in results]).reshape(shape)

    inactive = []
    if len(lr_values) >= 2 and all(
        (train_grid[:, j] == train_grid[0, j]).all() and (val_grid[:, j] == val_grid[0, j]).all()
        for j in range(len(mcw_values))
    ):
        inactive.append("learning_rate")
    if len(mcw_values) >= 2 and all(
        (train_grid[i, :] == train_grid[i, 0]).all() and (val_grid[i, :] == val_grid[i, 0]).all()
        for i in range(len(lr_values))
    ):
        inactive.append("min_child_weight")

    return SweepResult(
        learning_rates=lr_values,
        min_child_weights=mcw_values,
        train_grid=train_grid,
        val_grid=val_grid,
        inactive_axes=inactive,
    )


# --- artifact formats -------------------------------------------------------


def confusion_to_csv(counts: np.ndarray) -> str:
    lines = ["true\\pred," + ",".join(LABEL_VALUES)]
    for c in range(N_CLASSES):
        lines.append(LABEL_VALUES[c] + "," + ",".join(str(int(v)) for v in counts[c]))
    return "\n".join(lines) + "\n"


def curve_to_csv(curve: LearningCurve) -> str:
    lines = ["fraction,train_score,val_score"]
    for f, tr, va in zip(curve.fractions, curve.train_score, curve.val_score):
        lines.append(f"{f!r},{tr!r},{va!r}")
    return "\n".join(lines) + "\n"


def sweep_to_csv(result: SweepResult) -> str:
    lines = ["learning_rate,min_child_weight,train_accuracy,val_accuracy"]
    for i, lr in enumerate(result.learning_rates):
        for j, mcw in enumerate(result.min_child_weights):
            lines.append(
                f"{lr!r},{mcw!r},{float(result.train_grid[i, j])!r},{float(result.val_grid[i, j])!r}"
            )
    return "\n".join(lines) + "\n"


def cv_to_csv(result: CvResult) -> str:
    lines = ["fold,size,accuracy,macro_precision,macro_recall,macro_f1"]
    for i, (report, size) in enumerate(zip(result.per_fold, result.fold_sizes)):
        lines.append(
            f"{i},{size},{report.accuracy!r},{report.macro_precision!r},"
            f"{report.macro_recall!r},{report.macro_f1!r}"
        )
    return "\n".join(lines) + "\n"


def cv_to_json(result: CvResult) -> dict:
    return {
        "k": result.k,
        "fold_sizes": result.fold_sizes,
        "mean": result.mean,
        "std": result.std,
        "per_fold": [dataclasses.asdict(r) for r in result.per_fold],
    }
