"""Preprocessing chain: MinMax scaling, correlation-driven feature
engineering, SMOTE oversampling, and stratified train/test splitting.

One fitted :class:`Preprocessor` serves ``train``, the harness commands
and ``evaluate``. Two pipeline orders are supported. ``paper_order`` fits
and oversamples the full dataset before splitting; it reproduces the
familiar 876/219 arithmetic on a 1000-row input but leaks test information
through global scaling and SMOTE. ``leak_safe`` splits first and fits on
the training rows only; it is the methodologically sound choice.

SMOTE's neighbour search filters candidates with a Gram-form matrix product
and ranks them on the exact difference-form distance, so its neighbours,
and every synthetic row, do not depend on how the product rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import RngStream, as_matrix, json_array, json_value, shuffle
from .dataset import FEATURE_NAMES, Dataset, N_CLASSES, csv_text

PIPELINE_ORDERS = ("paper_order", "leak_safe")


@dataclass
class PreprocessConfig:
    """The preprocessing settings, read from the run config's ``preprocess``
    section; :func:`run_pipeline` and :class:`Preprocessor` take them whole."""

    order: str = "paper_order"
    smote_k: int = 5
    corr_hi: float = 0.5
    corr_lo: float = -0.4
    test_fraction: float = 0.2

    def __post_init__(self):
        if self.order not in PIPELINE_ORDERS:
            raise ValueError(f"preprocess.order must be one of {PIPELINE_ORDERS}, got {self.order!r}")
        if self.smote_k < 1:
            raise ValueError(f"smote_k must be >= 1, got {self.smote_k}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")


@dataclass
class CorrelationReport:
    matrix: np.ndarray
    feature_names: list[str]
    zero_variance_columns: list[int]
    engineered_pairs: np.ndarray | None = None  # (k, 2) rows (i, j), i < j, in row order; set by `engineer_features`
    flagged_pairs: np.ndarray | None = None
    hi_threshold: float | None = None
    lo_threshold: float | None = None


@dataclass
class SplitIndices:
    train: list[int]
    test: list[int]


@dataclass
class PreparedData:
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    preprocessor: Preprocessor


def fit_minmax(X_fit) -> tuple[np.ndarray, np.ndarray]:
    """The fitted bounds ``(col_min, col_max)``."""
    if X_fit.shape[0] == 0:
        raise ValueError("cannot fit MinMax on an empty matrix")
    return X_fit.min(axis=0), X_fit.max(axis=0)


def apply_minmax(X, minmax: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Scale columnwise to (x - min) / (max - min) by the bounds ``(col_min, col_max)``.

    Constant fitted columns map to 0. Values outside the fitted range are
    not clamped, so transformed values may fall outside [0, 1].
    """
    col_min, col_max = minmax
    if X.shape[1] != col_min.shape[0]:
        raise ValueError(
            f"column count mismatch: matrix has {X.shape[1]}, params have {col_min.shape[0]}"
        )
    span = col_max - col_min
    safe = np.where(span == 0, 1.0, span)
    out = (X - col_min) / safe
    out[:, span == 0] = 0.0
    return out


def pearson_matrix(X, feature_names: list[str] | None = None) -> CorrelationReport:
    """Pearson r for every column pair.

    Zero-variance columns get r=0 against everything else and 1 on the
    diagonal.
    """
    n, m = X.shape
    if n < 2:
        raise ValueError("pearson_matrix needs at least 2 rows")
    if feature_names is None:
        feature_names = [f"col_{j}" for j in range(m)]
    centered = X - X.mean(axis=0)
    # each column scaled by a power of two, so its largest entry lies in
    # [0.5, 1): exact, so r keeps its bits, and a column of tiny values no
    # longer loses precision to subnormal squares
    centered = np.ldexp(centered, -np.frexp(np.abs(centered).max(axis=0))[1])
    sd = np.sqrt((centered**2).mean(axis=0))
    zero_var = [int(j) for j in np.where(sd == 0)[0]]
    safe_sd = np.where(sd == 0, 1.0, sd)
    corr = (centered.T @ centered) / n / np.outer(safe_sd, safe_sd)
    for j in zero_var:
        corr[j, :] = 0.0
        corr[:, j] = 0.0
    np.fill_diagonal(corr, 1.0)
    return CorrelationReport(corr, list(feature_names), zero_var)


# rows of pair means made per step; bounds the two (rows, k) operands a step gathers
_PAIR_BLOCK_ROWS = 1024


def append_pair_means(X, pairs) -> np.ndarray:
    """Append one column per (i, j) row of the (k, 2) ``pairs``, the mean of columns i and j, filling
    one preallocated result a block of rows at a time so that every write runs along a row."""
    n, m = X.shape
    out = np.empty((n, m + len(pairs)))
    out[:, :m] = X
    for lo in range(0, n, _PAIR_BLOCK_ROWS):
        rows = X[lo : lo + _PAIR_BLOCK_ROWS]
        np.add(rows[:, pairs[:, 0]], rows[:, pairs[:, 1]], out=out[lo : lo + _PAIR_BLOCK_ROWS, m:])
    out[:, m:] /= 2.0
    return out


def engineer_features(X, report: CorrelationReport, hi: float, lo: float):
    """Combine strongly correlated column pairs into new mean columns.

    For every original pair (i < j) with r > hi, a mean column is appended,
    in (i, j) order. Pairs with r < lo (and not r > hi) are recorded as
    flagged but nothing is dropped. Engineered columns never seed further
    engineering.
    """
    m = report.matrix.shape[0]
    if X.shape[1] != m:
        raise ValueError(
            f"shape mismatch: matrix has {X.shape[1]} columns, report covers {m}"
        )
    pairs = np.column_stack(np.triu_indices(m, 1))
    r = report.matrix[pairs[:, 0], pairs[:, 1]]
    above = r > hi
    flagged = pairs[~above & (r < lo)]  # a pair above hi is never flagged, even when lo > hi
    out = replace(report, engineered_pairs=pairs[above], flagged_pairs=flagged, hi_threshold=hi, lo_threshold=lo)
    return append_pair_means(X, out.engineered_pairs), out


# bounds the neighbour search's scratch, in 8-byte cells: a block of rows
# holds its (row, member) Gram-form distances in a quarter of them, which also
# caps its candidate pairs, and a re-rank chunk gathers an eighth of them per
# operand as (candidate pair, feature) values
_NEIGHBOUR_BLOCK_CELLS = 1 << 20


def _nearest_neighbours(Xc: np.ndarray, k: int) -> np.ndarray:
    """Indices of each row's k nearest other rows, ties to the lower index.

    The distance is ``((a - b) ** 2).sum(axis=-1)``. A Gram-form product
    ``|a|^2 + |b|^2 - 2ab`` per block of rows only picks the candidates,
    which are then ranked on that exact expression.
    """
    count, dim = Xc.shape
    sq = (Xc * Xc).sum(axis=1)
    sq_max = sq.max()
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    rows_per_block = max(1, _NEIGHBOUR_BLOCK_CELLS // (4 * count))
    pairs_per_chunk = max(1, _NEIGHBOUR_BLOCK_CELLS // (8 * dim))
    out = np.empty((count, k), dtype=np.int64)
    for lo in range(0, count, rows_per_block):
        hi = min(lo + rows_per_block, count)
        G = Xc[lo:hi] @ Xc.T
        G *= -2
        G += sq[lo:hi, None]
        G += sq
        G[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        # Rounding, with S = |a|^2 + |b|^2 and u = eps / 2: the doubled dot
        # product errs by dim u S, the two squared norms by dim u S together
        # and the two additions by u 2S each, so the Gram form is within
        # (dim + 2) eps S of the true distance. The exact form rounds a
        # difference and a square per feature and makes dim - 1 additions
        # on a distance <= 2S, so it is within (dim + 2) eps S too. With
        # B = 2S, the two forms differ by at most (dim + 2) eps B. A true
        # neighbour can sit above the k-th Gram value by the gaps of two
        # columns, its own and the one that value came from, so the margin
        # must be at least 2 (dim + 2) eps B. It is four times that, with B
        # taken at the row's largest |b|^2, plus room for underflow. If B
        # overflows, the margin is inf and every column stays a candidate.
        bound = 2 * (sq[lo:hi] + sq_max)
        margin = 8 * (dim + 2) * (eps * bound + tiny)
        threshold = np.partition(G, k - 1, axis=1)[:, k - 1] + margin
        keep = G > threshold[:, None]
        del G
        np.logical_not(keep, out=keep)  # so a NaN stays a candidate
        rows, cols = np.nonzero(keep)
        del keep
        rows += lo
        d2 = np.empty(len(rows))
        for s in range(0, len(rows), pairs_per_chunk):
            r, c = rows[s : s + pairs_per_chunk], cols[s : s + pairs_per_chunk]
            d2[s : s + pairs_per_chunk] = ((Xc[r] - Xc[c]) ** 2).sum(axis=-1)
        d2[rows == cols] = np.inf  # the row itself, kept by an inf margin
        # np.nonzero lists each row's columns in ascending order and lexsort
        # is stable, so this orders a row's candidates by (distance, column)
        order = np.lexsort((d2, rows))
        first = np.searchsorted(rows, np.arange(lo, hi))
        out[lo:hi] = cols[order[first[:, None] + np.arange(k)]]
    return out


def smote(X, y, k: int, stream: RngStream):
    """Oversample every minority class up to the majority count.

    Each synthetic row is x_i + gap * (x_nn - x_i) for a uniformly random
    class member x_i, a uniformly random pick x_nn among its
    min(k, class_count - 1) nearest same-class neighbours (Euclidean,
    ties to the lower row index), and gap uniform in [0, 1). Original
    rows come first in the output, unchanged.

    Neighbours are found a block of member rows at a time. One matrix
    product gives a block's (row, member) distances in Gram form, at most
    2^18 of them; only the members within a rounding margin of each row's
    k-th Gram distance are ranked on the exact difference form, a bounded
    chunk of pairs at a time. So memory stays bounded as classes grow, and
    the neighbours are those a dense stable sort would pick. A class's
    synthetic rows draw their (member, neighbour pick, gap) triples as one
    block, in the order scalar draws would take them.
    """
    PreprocessConfig(smote_k=k)
    y = np.asarray(y, dtype=np.int64)
    counts = np.bincount(y, minlength=N_CLASSES)
    majority = int(counts.max())

    synth_X: list[np.ndarray] = []
    synth_y: list[np.ndarray] = []
    for cls in range(N_CLASSES):
        count = int(counts[cls])
        need = majority - count
        if count == 0 or need == 0:
            continue
        if count < 2:
            raise ValueError(f"class too small for SMOTE: class {cls} has {count} sample")
        Xc = X[y == cls]
        k_eff = min(k, count - 1)
        neighbour_idx = _nearest_neighbours(Xc, k_eff)
        draws = stream.uniforms(3 * need).reshape(need, 3)
        member = (draws[:, 0] * count).astype(np.int64)
        nn = neighbour_idx[member, (draws[:, 1] * k_eff).astype(np.int64)]
        synth_X.append(Xc[member] + draws[:, 2:] * (Xc[nn] - Xc[member]))
        synth_y.append(np.full(need, cls, dtype=np.int64))

    if not synth_X:
        return X, y
    return np.vstack([X, *synth_X]), np.concatenate([y, *synth_y])


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def shuffled_classes(y, stream: RngStream, rows=None):
    """Yield ``(class, its rows in a seeded shuffle)`` for each class present
    among ``rows`` of ``y`` (default: all), each taken in ``rows`` order."""
    y = np.asarray(y, dtype=np.int64)
    rows = np.arange(len(y)) if rows is None else np.asarray(rows, dtype=np.int64)
    labels = y[rows]
    for cls in range(N_CLASSES):
        idx = rows[labels == cls].tolist()
        if idx:
            yield cls, shuffle(idx, stream)


def stratified_split(y, test_fraction: float, stream: RngStream) -> SplitIndices:
    """Per-class shuffled split; test gets round(n_c * fraction) per class.

    Classes with at least 2 samples contribute at least 1 test row and
    keep at least 1 training row.
    """
    PreprocessConfig(test_fraction=test_fraction)
    train: list[int] = []
    test: list[int] = []
    for _, order in shuffled_classes(y, stream):
        n_c = len(order)
        n_test = _round_half_up(n_c * test_fraction)
        if n_c >= 2:
            n_test = min(max(n_test, 1), n_c - 1)
        else:
            n_test = min(n_test, n_c)
        test.extend(order[:n_test])
        train.extend(order[n_test:])
    return SplitIndices(train=train, test=test)


@dataclass
class Preprocessor:
    """MinMax scaling, pair-mean engineering and SMOTE, fitted once.

    Built from the settings; ``fit_resample`` sets the fitted ``minmax``
    bounds ``(col_min, col_max)`` and the (k, 2) engineered ``pairs``, which
    ``transform`` applies to other rows and ``to_dict`` writes to ``model.json``
    with ``order``, ``corr_hi``, ``corr_lo`` and the names of the dataset
    schema's columns. ``smote_k`` and ``test_fraction`` are not written, so
    ``from_dict`` reads them back as their defaults.
    """

    settings: PreprocessConfig
    minmax: tuple[np.ndarray, np.ndarray] | None = None
    pairs: np.ndarray | None = None

    def fit_resample(self, X, y, stream: RngStream):
        """Fit on (X, y), transform X, and oversample with SMOTE on ``stream.derive(0)``."""
        self.minmax = fit_minmax(X)
        X = apply_minmax(X, self.minmax)
        s = self.settings
        X, report = engineer_features(X, pearson_matrix(X), s.corr_hi, s.corr_lo)
        self.pairs = report.engineered_pairs
        # MinMax over a column whose span passes the float range makes NaN from finite rows
        return smote(as_matrix(X), y, s.smote_k, stream.derive(0))

    def transform(self, X) -> np.ndarray:
        """Scale with the fitted MinMax bounds and append the fitted pair means, checked
        to be finite: the rows ``evaluate`` scores never pass through a ``Dataset``."""
        return as_matrix(append_pair_means(apply_minmax(X, self.minmax), self.pairs))

    def to_dict(self) -> dict:
        col_min, col_max = self.minmax
        return {
            "order": self.settings.order,
            "minmax": {"min": col_min.tolist(), "max": col_max.tolist()},
            "feature_names": list(FEATURE_NAMES),
            "engineered_pairs": self.pairs.tolist(),
            "engineered_names": _pair_names(self.pairs),
            "corr_hi": self.settings.corr_hi,
            "corr_lo": self.settings.corr_lo,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Preprocessor":
        """Read ``to_dict``'s document, its numbers by the run config's rules;
        one that cannot transform rows of the dataset schema raises ``ValueError``."""
        m = len(FEATURE_NAMES)
        if d["feature_names"] != list(FEATURE_NAMES):
            raise ValueError(f"pipeline feature_names must be the dataset's {m} feature names in order")
        bounds = f"pipeline minmax min and max must each hold {m} finite values, with min <= max"
        minmax = json_value(dict, d["minmax"], "pipeline.minmax")
        lo, hi = (json_array(float, minmax[k], f"{bounds}: {k}[{{0}}] is {{1!r}}") for k in ("min", "max"))
        if not (lo.shape == hi.shape == (m,) and (lo <= hi).all()):
            raise ValueError(bounds)
        pair = f"pipeline engineered pair {{1!r}} must satisfy 0 <= i < j < {m}, as integers"
        pairs = json_array(int, json_value(list, d["engineered_pairs"], "pipeline.engineered_pairs"), pair)
        for k, row in enumerate(pairs.tolist()):
            if not (type(row) is list and len(row) == 2 and 0 <= row[0] < row[1] < m):
                raise ValueError(pair.format(k, row))
        names = d["engineered_names"]
        if names != _pair_names(pairs):
            held = f"{len(names)} engineered names" if isinstance(names, list) else f"engineered_names {names!r}"
            raise ValueError(f"pipeline has {len(pairs)} engineered pairs but {held}, not the pairs' own names")
        json_value(PIPELINE_ORDERS, d["order"], "pipeline.order")  # refused as a model-file field, not a config one
        settings = json_value(PreprocessConfig, {k: d[k] for k in ("order", "corr_hi", "corr_lo")}, "pipeline")
        return cls(settings, (lo, hi), pairs.reshape(-1, 2))


def _pair_names(pairs) -> list[str]:
    """The dataset schema's "<name_i>+<name_j>" names of the (k, 2) ``pairs``."""
    return [f"{FEATURE_NAMES[i]}+{FEATURE_NAMES[j]}" for i, j in pairs.tolist()]


def run_pipeline(d: Dataset, settings: PreprocessConfig, stream: RngStream) -> PreparedData:
    """Run the full preprocessing chain in ``settings.order``; the split
    draws from ``stream.derive(1)``."""
    prep = Preprocessor(settings)
    if settings.order == "paper_order":
        X, y = prep.fit_resample(d.X, d.y, stream)
        split = stratified_split(y, settings.test_fraction, stream.derive(1))
        X_train, y_train = X[split.train], y[split.train]
        X_test, y_test = X[split.test], y[split.test]
    else:
        split = stratified_split(d.y, settings.test_fraction, stream.derive(1))
        X_train, y_train = prep.fit_resample(d.X[split.train], d.y[split.train], stream)
        X_test, y_test = prep.transform(d.X[split.test]), d.y[split.test]
    return PreparedData(X_train, y_train, X_test, y_test, prep)


# --- report serialization ---------------------------------------------------


def correlation_to_csv(report: CorrelationReport) -> str:
    names = report.feature_names
    return csv_text(["", *names], ([name, *row] for name, row in zip(names, report.matrix)))


def correlation_to_json(report: CorrelationReport) -> dict:
    def pair_docs(pairs):
        names = report.feature_names
        return [
            {"i": i, "j": j, "feature_i": names[i], "feature_j": names[j], "r": float(report.matrix[i, j])}
            for i, j in pairs.tolist()
        ]

    return {
        "hi_threshold": report.hi_threshold,
        "lo_threshold": report.lo_threshold,
        "engineered": pair_docs(report.engineered_pairs),
        "flagged": pair_docs(report.flagged_pairs),
        "zero_variance_columns": list(report.zero_variance_columns),
    }
