"""Dataset schema, CSV loading, and the seeded synthetic generator.

The schema is a 23-feature tabular layout for lung-cancer risk records
with a three-level target (Low=0, Medium=1, High=2). A "Patient Id"
column is carried as metadata only; it never feeds a model.

Real data is not bundled; :func:`synth_generate` produces a deterministic
stand-in with class-monotone risk features so the whole suite runs
hermetically.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .core import RngStream, as_matrix, box_muller

ORDINAL_LOW, ORDINAL_HIGH = 1, 9
AGE_MIN, AGE_MAX = 25, 75

FEATURE_NAMES: tuple[str, ...] = (
    "Age",
    "Gender",
    "Air Pollution",
    "Alcohol use",
    "Dust Allergy",
    "Occupational Hazards",
    "Genetic Risk",
    "Chronic Lung Disease",
    "Balanced Diet",
    "Obesity",
    "Smoking",
    "Passive Smoker",
    "Chest Pain",
    "Coughing of Blood",
    "Fatigue",
    "Weight Loss",
    "Shortness of Breath",
    "Wheezing",
    "Swallowing Difficulty",
    "Clubbing of Finger Nails",
    "Frequent Cold",
    "Dry Cough",
    "Snoring",
)

LABEL_NAME = "Level"
LABEL_VALUES: tuple[str, str, str] = ("Low", "Medium", "High")
ID_NAME = "Patient Id"
N_CLASSES = 3


@dataclass
class Dataset:
    """Feature matrix plus integer labels in {0,1,2}, with optional patient ids."""

    X: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    patient_ids: list[str] | None = None

    def __post_init__(self):
        self.X = as_matrix(self.X)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("row count mismatch between X and y")
        if self.X.shape[1] != len(self.feature_names):
            raise ValueError("column count mismatch between X and feature_names")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= N_CLASSES):
            raise ValueError("labels must lie in {0,1,2}")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]


# --- synthetic generation -------------------------------------------------
#
# Each ordinal feature f is drawn as
#   clamp(round(base_f + slope_f * class + load_f * t + sigma_f * eps), 1, 9)
# where t is a per-row severity latent shared across features (it is what
# makes symptom features correlate), eps is independent noise, and slope
# is positive for risk factors and negative for protective ones. The
# magnitudes are tuned so classes overlap: a depth-2 tree should land
# around 70-95% training accuracy, not 100%.

_ORDINAL_RECIPE: dict[str, tuple[float, float, float, float]] = {
    # name: (base, slope, load, sigma); load couples the severity latent,
    # zero-load features carry independent noise
    "Air Pollution": (3.0, 1.8, 1.3, 1.15),
    "Alcohol use": (3.0, 1.55, 0.0, 1.35),
    "Dust Allergy": (3.5, 1.25, 0.0, 1.45),
    "Occupational Hazards": (3.0, 1.7, 0.0, 1.25),
    "Genetic Risk": (3.0, 1.8, 0.0, 1.25),
    "Chronic Lung Disease": (3.0, 1.55, 0.0, 1.35),
    "Balanced Diet": (6.5, -1.7, -1.4, 1.15),
    "Obesity": (3.5, 1.25, 0.0, 1.45),
    "Smoking": (2.8, 1.95, 1.4, 1.15),
    "Passive Smoker": (3.0, 1.7, 0.0, 1.35),
    "Chest Pain": (2.8, 1.8, 1.4, 1.15),
    "Coughing of Blood": (2.5, 1.95, 1.5, 1.15),
    "Fatigue": (3.2, 1.7, 1.3, 1.25),
    "Weight Loss": (3.0, 1.4, 0.0, 1.35),
    "Shortness of Breath": (3.2, 1.7, 1.3, 1.25),
    "Wheezing": (3.5, 1.4, 0.0, 1.45),
    "Swallowing Difficulty": (2.8, 1.25, 0.0, 1.45),
    "Clubbing of Finger Nails": (2.5, 1.4, 0.0, 1.35),
    "Frequent Cold": (3.5, 1.0, 0.0, 1.55),
    "Dry Cough": (3.5, 1.1, 0.0, 1.55),
    "Snoring": (4.0, 0.7, 0.0, 1.65),
}

_SEVERITY_SD = 0.7
# per row: the severity latent, then one noise draw per ordinal feature
_NORMALS_PER_ROW = 1 + len(_ORDINAL_RECIPE)


def largest_remainder_counts(n: int, proportions) -> tuple[int, ...]:
    """Allocate n into integer counts matching proportions exactly in total.

    Floors first, then hands the remaining units to the largest fractional
    remainders (ties to the lower class index).
    """
    raw = [n * p for p in proportions]
    counts = [int(np.floor(r)) for r in raw]
    short = n - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return tuple(counts)


def synth_generate(n: int, seed: int, class_proportions=(1 / 3, 1 / 3, 1 / 3)) -> Dataset:
    """Deterministic synthetic dataset over the full schema.

    Rows come out grouped by class (all Low, then Medium, then High);
    counts follow largest-remainder rounding of the proportions.
    """
    if n < 30:
        raise ValueError(f"n must be >= 30, got {n}")
    props = tuple(float(p) for p in class_proportions)
    if len(props) != N_CLASSES or any(p <= 0 for p in props):
        raise ValueError("class_proportions must be 3 positive reals")
    if abs(sum(props) - 1.0) > 1e-9:
        raise ValueError(f"class_proportions must sum to 1, got {sum(props)}")

    counts = largest_remainder_counts(n, props)
    stream = RngStream(seed)
    names = list(FEATURE_NAMES)
    base, slope, load, sigma = np.array([_ORDINAL_RECIPE[name] for name in names[2:]]).T
    # per row: age and gender uniforms, then a Box-Muller pair per normal
    width = 2 + 2 * _NORMALS_PER_ROW
    blocks = []
    for cls, n_cls in enumerate(counts):
        age_lo = AGE_MIN + 5 * cls
        age_hi = AGE_MAX - 10 + 5 * cls
        draws = stream.uniforms(n_cls * width).reshape(n_cls, width)
        normal = box_muller(draws[:, 2:].reshape(n_cls, _NORMALS_PER_ROW, 2))
        severity = _SEVERITY_SD * normal[:, :1]
        block = np.empty((n_cls, len(names)), dtype=np.float64)
        block[:, 0] = np.round(age_lo + draws[:, 0] * (age_hi - age_lo))
        block[:, 1] = np.where(draws[:, 1] < 0.6, 1.0, 2.0)
        v = base + slope * cls + load * severity + sigma * normal[:, 1:]
        block[:, 2:] = np.clip(np.round(v), ORDINAL_LOW, ORDINAL_HIGH)
        blocks.append(block)
    X = np.vstack(blocks)
    y = np.repeat(np.arange(N_CLASSES, dtype=np.int64), counts)

    return Dataset(X=X, y=y, feature_names=names)


# --- CSV I/O ---------------------------------------------------------------


def _norm(name: str) -> str:
    return name.strip().lower()


_LABEL_OF_NAME = {_norm(v): i for i, v in enumerate(LABEL_VALUES)}


def _parse_label(token: str) -> int:
    t = token.strip()
    if _norm(t) in _LABEL_OF_NAME:
        return _LABEL_OF_NAME[_norm(t)]
    try:
        num = int(float(t)) if float(t).is_integer() else None
    except ValueError:
        num = None
    if num is not None and 1 <= num <= N_CLASSES:
        return num - 1
    raise ValueError(f"unknown label value: {token!r}")


def load_csv(path) -> Dataset:
    """Load a dataset, matching columns to the schema by header name.

    Matching is case-insensitive with surrounding whitespace trimmed;
    column order in the file does not matter. Numeric labels 1/2/3 are
    accepted as Low/Medium/High. Extra columns are ignored.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [r for r in reader if r]
    if not rows:
        raise ValueError(f"empty file: {path}")

    header = [_norm(h) for h in rows[0]]
    col_of = {h: i for i, h in enumerate(header)}

    feature_idx = []
    for name in FEATURE_NAMES:
        if _norm(name) not in col_of:
            raise ValueError(f"missing column: {name}")
        feature_idx.append(col_of[_norm(name)])
    if _norm(LABEL_NAME) not in col_of:
        raise ValueError(f"missing column: {LABEL_NAME}")
    label_idx = col_of[_norm(LABEL_NAME)]
    id_idx = col_of.get(_norm(ID_NAME))

    data_rows = rows[1:]
    if not data_rows:
        raise ValueError(f"no data rows in {path}")

    n = len(data_rows)
    X = np.empty((n, len(FEATURE_NAMES)), dtype=np.float64)
    y = np.empty(n, dtype=np.int64)
    ids: list[str] | None = [] if id_idx is not None else None
    for r, row in enumerate(data_rows):
        for j, ci in enumerate(feature_idx):
            cell = row[ci].strip() if ci < len(row) else ""
            try:
                X[r, j] = float(cell)
            except ValueError:
                raise ValueError(
                    f"non-numeric value {cell!r} at row {r + 1}, "
                    f"column {FEATURE_NAMES[j]!r}"
                ) from None
        y[r] = _parse_label(row[label_idx])
        if ids is not None:
            ids.append(row[id_idx].strip())

    return Dataset(X=X, y=y, feature_names=list(FEATURE_NAMES), patient_ids=ids)


def _fmt_cell(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def save_csv(d: Dataset, path) -> None:
    """Write a dataset back out in the schema's CSV layout."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = list(d.feature_names) + [LABEL_NAME]
        if d.patient_ids is not None:
            header = [ID_NAME] + header
        writer.writerow(header)
        for i in range(d.n_rows):
            row = [_fmt_cell(v) for v in d.X[i]]
            row.append(LABEL_VALUES[d.y[i]])
            if d.patient_ids is not None:
                row = [d.patient_ids[i]] + row
            writer.writerow(row)
