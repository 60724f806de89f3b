"""Preprocessing chain: MinMax scaling, correlation-driven feature
engineering, SMOTE oversampling, and stratified train/test splitting.

One fitted :class:`Preprocessor` serves ``train``, the harness commands
and ``evaluate``. Two pipeline orders are supported. ``paper_order`` fits
and oversamples the full dataset before splitting; it reproduces the
familiar 876/219 arithmetic on a 1000-row input but leaks test information
through global scaling and SMOTE. ``leak_safe`` splits first and fits on
the training rows only; it is the methodologically sound choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import RngStream, as_matrix, shuffle
from .dataset import Dataset, N_CLASSES

CORR_HI_DEFAULT = 0.5
CORR_LO_DEFAULT = -0.4
PIPELINE_ORDERS = ("paper_order", "leak_safe")


@dataclass
class MinMaxParams:
    col_min: np.ndarray
    col_max: np.ndarray

    def to_dict(self) -> dict:
        return {"min": self.col_min.tolist(), "max": self.col_max.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "MinMaxParams":
        return cls(np.asarray(d["min"], float), np.asarray(d["max"], float))


@dataclass
class CorrelationReport:
    matrix: np.ndarray
    feature_names: list[str]
    zero_variance_columns: list[int]
    engineered_pairs: list[tuple[int, int, float]] = field(default_factory=list)
    flagged_pairs: list[tuple[int, int, float]] = field(default_factory=list)
    engineered_names: list[str] = field(default_factory=list)
    hi_threshold: float = CORR_HI_DEFAULT
    lo_threshold: float = CORR_LO_DEFAULT


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
    order: str


def fit_minmax(X_fit) -> MinMaxParams:
    X_fit = as_matrix(X_fit)
    if X_fit.shape[0] == 0:
        raise ValueError("cannot fit MinMax on an empty matrix")
    return MinMaxParams(X_fit.min(axis=0), X_fit.max(axis=0))


def apply_minmax(X, p: MinMaxParams) -> np.ndarray:
    """Scale columnwise to (x - min) / (max - min).

    Constant fitted columns map to 0. Values outside the fitted range are
    not clamped, so transformed values may fall outside [0, 1].
    """
    X = as_matrix(X)
    if X.shape[1] != p.col_min.shape[0]:
        raise ValueError(
            f"column count mismatch: matrix has {X.shape[1]}, params have {p.col_min.shape[0]}"
        )
    span = p.col_max - p.col_min
    safe = np.where(span == 0, 1.0, span)
    out = (X - p.col_min) / safe
    out[:, span == 0] = 0.0
    return out


def pearson_matrix(X, feature_names: list[str] | None = None) -> CorrelationReport:
    """Pearson r for every column pair.

    Zero-variance columns get r=0 against everything else and 1 on the
    diagonal.
    """
    X = as_matrix(X)
    n, m = X.shape
    if n < 2:
        raise ValueError("pearson_matrix needs at least 2 rows")
    if feature_names is None:
        feature_names = [f"col_{j}" for j in range(m)]
    centered = X - X.mean(axis=0)
    sd = np.sqrt((centered**2).mean(axis=0))
    zero_var = [int(j) for j in np.where(sd == 0)[0]]
    safe_sd = np.where(sd == 0, 1.0, sd)
    corr = (centered.T @ centered) / n / np.outer(safe_sd, safe_sd)
    for j in zero_var:
        corr[j, :] = 0.0
        corr[:, j] = 0.0
    np.fill_diagonal(corr, 1.0)
    return CorrelationReport(corr, list(feature_names), zero_var)


def append_pair_means(X, pairs) -> np.ndarray:
    """Append one column per (i, j) pair: the elementwise mean of i and j."""
    X = as_matrix(X)
    if not pairs:
        return X
    extra = [(X[:, i] + X[:, j]) / 2.0 for i, j, *_ in pairs]
    return np.column_stack([X] + extra)


def engineer_features(
    X,
    report: CorrelationReport,
    hi: float = CORR_HI_DEFAULT,
    lo: float = CORR_LO_DEFAULT,
):
    """Combine strongly correlated column pairs into new mean columns.

    For every original pair (i < j) with r > hi, a column named
    "<name_i>+<name_j>" is appended, in (i, j) order. Pairs with r < lo
    are recorded as flagged but nothing is dropped. Engineered columns
    never seed further engineering.
    """
    X = as_matrix(X)
    m = report.matrix.shape[0]
    if X.shape[1] != m:
        raise ValueError(
            f"shape mismatch: matrix has {X.shape[1]} columns, report covers {m}"
        )
    engineered: list[tuple[int, int, float]] = []
    flagged: list[tuple[int, int, float]] = []
    for i in range(m):
        for j in range(i + 1, m):
            r = float(report.matrix[i, j])
            if r > hi:
                engineered.append((i, j, r))
            elif r < lo:
                flagged.append((i, j, r))
    names = [
        f"{report.feature_names[i]}+{report.feature_names[j]}" for i, j, _ in engineered
    ]
    out = CorrelationReport(
        matrix=report.matrix,
        feature_names=report.feature_names,
        zero_variance_columns=report.zero_variance_columns,
        engineered_pairs=engineered,
        flagged_pairs=flagged,
        engineered_names=names,
        hi_threshold=hi,
        lo_threshold=lo,
    )
    return append_pair_means(X, engineered), out


# most (row, member, feature) cells one neighbour-search block may hold
_NEIGHBOUR_BLOCK_CELLS = 1 << 20


def _nearest_neighbours(Xc: np.ndarray, k: int) -> np.ndarray:
    """Indices of each row's k nearest other rows, ties to the lower index."""
    count, dim = Xc.shape
    rows_per_block = max(1, _NEIGHBOUR_BLOCK_CELLS // (count * dim))
    out = np.empty((count, k), dtype=np.int64)
    for lo in range(0, count, rows_per_block):
        hi = min(lo + rows_per_block, count)
        d2 = ((Xc[lo:hi, None, :] - Xc[None, :, :]) ** 2).sum(axis=2)
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        out[lo:hi] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return out


def smote(X, y, k: int, stream: RngStream):
    """Oversample every minority class up to the majority count.

    Each synthetic row is x_i + gap * (x_nn - x_i) for a uniformly random
    class member x_i, a uniformly random pick x_nn among its
    min(k, class_count - 1) nearest same-class neighbours (Euclidean,
    ties to the lower row index), and gap uniform in [0, 1). Original
    rows come first in the output, unchanged.

    Neighbours are found a block of member rows at a time, each block
    holding at most 2^20 (row, member, feature) difference cells, so
    memory stays bounded as classes grow. A class's synthetic rows draw
    their (member, neighbour pick, gap) triples as one block, in the
    order scalar draws would take them.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    X = as_matrix(X)
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


def stratified_split(y, test_fraction: float, stream: RngStream) -> SplitIndices:
    """Per-class shuffled split; test gets round(n_c * fraction) per class.

    Classes with at least 2 samples contribute at least 1 test row and
    keep at least 1 training row.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    y = np.asarray(y, dtype=np.int64)
    train: list[int] = []
    test: list[int] = []
    for cls in range(N_CLASSES):
        idx = [int(i) for i in np.where(y == cls)[0]]
        n_c = len(idx)
        if n_c == 0:
            continue
        order = shuffle(idx, stream)
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

    Built from the feature names and settings; ``fit_resample`` sets the
    fitted ``minmax``, ``engineered_pairs`` and ``engineered_names``, which
    ``transform`` applies to other rows and ``to_dict`` writes to ``model.json``.
    """

    feature_names: list[str]
    smote_k: int = 5
    corr_hi: float = CORR_HI_DEFAULT
    corr_lo: float = CORR_LO_DEFAULT
    minmax: MinMaxParams | None = None
    engineered_pairs: list[tuple[int, int]] = field(default_factory=list)
    engineered_names: list[str] = field(default_factory=list)

    def fit_resample(self, X, y, stream: RngStream):
        """Fit on (X, y), transform X, and oversample with SMOTE on ``stream.derive(0)``."""
        self.minmax = fit_minmax(X)
        X = apply_minmax(X, self.minmax)
        X, report = engineer_features(
            X, pearson_matrix(X, self.feature_names), self.corr_hi, self.corr_lo
        )
        self.engineered_pairs = [(int(i), int(j)) for i, j, _ in report.engineered_pairs]
        self.engineered_names = report.engineered_names
        return smote(X, y, self.smote_k, stream.derive(0))

    def transform(self, X) -> np.ndarray:
        """Scale with the fitted MinMax params and append the fitted pair means."""
        return append_pair_means(apply_minmax(X, self.minmax), self.engineered_pairs)

    def to_dict(self) -> dict:
        return {
            "minmax": self.minmax.to_dict(),
            "feature_names": self.feature_names,
            "engineered_pairs": [[i, j] for i, j in self.engineered_pairs],
            "engineered_names": self.engineered_names,
            "corr_hi": self.corr_hi,
            "corr_lo": self.corr_lo,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Preprocessor":
        return cls(
            feature_names=list(d["feature_names"]),
            corr_hi=d["corr_hi"],
            corr_lo=d["corr_lo"],
            minmax=MinMaxParams.from_dict(d["minmax"]),
            engineered_pairs=[(int(i), int(j)) for i, j in d["engineered_pairs"]],
            engineered_names=list(d["engineered_names"]),
        )


def run_pipeline(
    d: Dataset,
    order: str = "paper_order",
    *,
    test_fraction: float = 0.2,
    smote_k: int = 5,
    corr_hi: float = CORR_HI_DEFAULT,
    corr_lo: float = CORR_LO_DEFAULT,
    stream: RngStream,
) -> PreparedData:
    """Run the full preprocessing chain in the requested order; the split
    draws from ``stream.derive(1)``."""
    if order not in PIPELINE_ORDERS:
        raise ValueError(f"order must be one of {PIPELINE_ORDERS}, got {order!r}")
    prep = Preprocessor(list(d.feature_names), smote_k, corr_hi, corr_lo)
    if order == "paper_order":
        X, y = prep.fit_resample(d.X, d.y, stream)
        split = stratified_split(y, test_fraction, stream.derive(1))
        X_train, y_train = X[split.train], y[split.train]
        X_test, y_test = X[split.test], y[split.test]
    else:
        split = stratified_split(d.y, test_fraction, stream.derive(1))
        X_train, y_train = prep.fit_resample(d.X[split.train], d.y[split.train], stream)
        X_test, y_test = prep.transform(d.X[split.test]), d.y[split.test]
    return PreparedData(X_train, y_train, X_test, y_test, prep, order)


# --- report serialization ---------------------------------------------------


def correlation_to_csv(report: CorrelationReport) -> str:
    names = report.feature_names
    lines = ["," + ",".join(csv_quote(n) for n in names)]
    for i, name in enumerate(names):
        row = [repr(float(v)) for v in report.matrix[i]]
        lines.append(csv_quote(name) + "," + ",".join(row))
    return "\n".join(lines) + "\n"


def correlation_to_json(report: CorrelationReport) -> dict:
    def pair_doc(p):
        i, j, r = p
        return {
            "i": int(i),
            "j": int(j),
            "feature_i": report.feature_names[i],
            "feature_j": report.feature_names[j],
            "r": float(r),
        }

    return {
        "hi_threshold": report.hi_threshold,
        "lo_threshold": report.lo_threshold,
        "engineered": [pair_doc(p) for p in report.engineered_pairs],
        "flagged": [pair_doc(p) for p in report.flagged_pairs],
        "zero_variance_columns": list(report.zero_variance_columns),
    }


def csv_quote(s: str) -> str:
    """A CSV field, double-quoted when it holds a comma or a quote."""
    if "," in s or '"' in s:
        return '"' + s.replace('"', '""') + '"'
    return s
