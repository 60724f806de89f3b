"""Dataset schema, CSV loading, and the seeded synthetic generator.

The schema is a 23-feature tabular layout for lung-cancer risk records
with a three-level target (Low=0, Medium=1, High=2). A dataset is those
features and that level; any other CSV column, a Patient Id included, is
ignored.

Real data is not bundled; :func:`synth_generate` produces a deterministic
stand-in with class-monotone risk features so the whole suite runs
hermetically.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from .core import RngStream, as_matrix, box_muller

ORDINAL_LOW, ORDINAL_HIGH = 1, 9
AGE_MIN, AGE_MAX = 25, 75

# The 21 ordinal features, in schema order after Age and Gender, each with
# its synthetic recipe: synth_generate draws feature f as
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

FEATURE_NAMES: tuple[str, ...] = ("Age", "Gender", *_ORDINAL_RECIPE)

LABEL_NAME = "Level"
LABEL_VALUES: tuple[str, str, str] = ("Low", "Medium", "High")
N_CLASSES = 3


@dataclass
class Dataset:
    """Feature matrix in the schema's FEATURE_NAMES columns plus labels in {0,1,2}."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = as_matrix(self.X)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("row count mismatch between X and y")
        if self.X.shape[1] != len(FEATURE_NAMES):
            raise ValueError(f"column count mismatch: X has {self.X.shape[1]} columns, the schema {len(FEATURE_NAMES)}")
        if self.y.size and (self.y.min() < 0 or self.y.max() >= N_CLASSES):
            raise ValueError("labels must lie in {0,1,2}")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]


# --- synthetic generation -------------------------------------------------

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


@dataclass
class SyntheticConfig:
    """The synthetic-data settings, read from the run config's ``data.synthetic``
    section; :func:`synth_generate` checks its arguments through it."""

    n: int = 1000
    class_proportions: list[float] = field(default_factory=lambda: [0.303, 0.332, 0.365])

    def __post_init__(self):
        if self.n < 30:
            raise ValueError(f"n must be >= 30, got {self.n}")
        props = self.class_proportions
        if len(props) != N_CLASSES or any(p <= 0 for p in props):
            raise ValueError("class_proportions must be 3 positive reals")
        if abs(sum(props) - 1.0) > 1e-9:
            raise ValueError(f"class_proportions must sum to 1, got {sum(props)}")


def synth_generate(n: int, seed: int, class_proportions=(1 / 3, 1 / 3, 1 / 3)) -> Dataset:
    """Deterministic synthetic dataset over the full schema.

    Rows come out grouped by class (all Low, then Medium, then High);
    counts follow largest-remainder rounding of the proportions.
    """
    props = SyntheticConfig(n, [float(p) for p in class_proportions]).class_proportions
    counts = largest_remainder_counts(n, props)
    stream = RngStream(seed)
    base, slope, load, sigma = np.array(list(_ORDINAL_RECIPE.values())).T
    # per row: age and gender uniforms, then a Box-Muller pair per normal
    width = 2 + 2 * _NORMALS_PER_ROW
    blocks = []
    for cls, n_cls in enumerate(counts):
        age_lo = AGE_MIN + 5 * cls
        age_hi = AGE_MAX - 10 + 5 * cls
        draws = stream.uniforms(n_cls * width).reshape(n_cls, width)
        normal = box_muller(draws[:, 2:].reshape(n_cls, _NORMALS_PER_ROW, 2))
        severity = _SEVERITY_SD * normal[:, :1]
        block = np.empty((n_cls, len(FEATURE_NAMES)), dtype=np.float64)
        block[:, 0] = np.round(age_lo + draws[:, 0] * (age_hi - age_lo))
        block[:, 1] = np.where(draws[:, 1] < 0.6, 1.0, 2.0)
        v = base + slope * cls + load * severity + sigma * normal[:, 1:]
        block[:, 2:] = np.clip(np.round(v), ORDINAL_LOW, ORDINAL_HIGH)
        blocks.append(block)
    X = np.vstack(blocks)
    y = np.repeat(np.arange(N_CLASSES, dtype=np.int64), counts)

    return Dataset(X=X, y=y)


# --- CSV I/O ---------------------------------------------------------------


def _norm(name: str) -> str:
    return name.strip().lower()


_BLOCK_ROWS = 2048  # data rows parsed at a time, so no file is held whole as strings
_LABEL_OF_NAME = {_norm(v): i for i, v in enumerate(LABEL_VALUES)}


def _parse_label(token: str) -> int:
    name = _norm(token)
    if name in _LABEL_OF_NAME:
        return _LABEL_OF_NAME[name]
    try:  # or the class's number, 1 to N_CLASSES
        return range(1, N_CLASSES + 1).index(float(name))
    except ValueError:
        raise ValueError(f"unknown label value: {token!r}") from None


def iter_csv_blocks(path):
    """Yield ``(X, y)`` for up to ``_BLOCK_ROWS`` data rows at a time,
    matching columns to the schema by header name.

    Matching is case-insensitive with surrounding whitespace trimmed;
    column order in the file does not matter, and a schema column named
    twice is refused. Numeric labels 1/2/3 are accepted as Low/Medium/High.
    Any other column, a Patient Id included, is ignored, even when
    repeated. Blank lines are skipped, and row numbers in messages count
    data rows across blocks. A leading UTF-8 byte-order mark, which Excel's
    "CSV UTF-8" writes, is skipped.

    A block of plain lines is read by numpy's CSV reader: each line holds a
    comma, and the block holds no ``"`` and no NUL (numpy drops a string's
    trailing NULs), so every line is one record of unquoted cells; both
    readers end a line at a line feed, a carriage return or the two
    together. The csv module reads every other block, a plain block that
    numpy refuses, and the rest of the file from the first block that is not
    plain, so the values and the messages are the csv module's either way.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next(filter(None, csv.reader(fh)), None)
        if header is None:
            raise ValueError(f"empty file: {path}")
        names = [_norm(h) for h in header]
        col_of = {name: i for i, name in enumerate(names)}
        for name in (*FEATURE_NAMES, LABEL_NAME):
            if _norm(name) not in col_of:
                raise ValueError(f"missing column: {name}")
            if names.count(_norm(name)) > 1:
                raise ValueError(f"duplicate column: {name}")
        feature_idx = [col_of[_norm(name)] for name in FEATURE_NAMES]
        label_idx = col_of[_norm(LABEL_NAME)]

        done = 0
        # the csv reader has read the header's lines and no more, so the
        # file's next lines are the data rows
        while (lines := list(islice(fh, _BLOCK_ROWS))) and _is_plain(lines):
            try:
                parsed = _read_plain(lines, feature_idx, label_idx)
            except (ValueError, IndexError):
                parsed = _parse_block(list(csv.reader(lines)), done, feature_idx, label_idx)
            yield parsed
            done += len(lines)
        rows = filter(None, csv.reader(chain(lines, fh)))
        while block := list(islice(rows, _BLOCK_ROWS)):
            yield _parse_block(block, done, feature_idx, label_idx)
            done += len(block)
    if not done:
        raise ValueError(f"no data rows in {path}")


def load_csv(path) -> Dataset:
    """The blocks of :func:`iter_csv_blocks` as one dataset, filled into one
    matrix as they arrive, so the file's rows are never held twice."""
    # a record ends at a line break or at the end of the file and the header
    # is one, so the line breaks bound the data rows; text mode reads "\r" and
    # "\r\n" as "\n", and a byte that is not UTF-8 is left for the reader to refuse
    with open(path, encoding="utf-8-sig", errors="replace") as fh:
        bound = sum(chunk.count("\n") for chunk in iter(lambda: fh.read(1 << 20), ""))
    X = np.empty((bound, len(FEATURE_NAMES)))
    y = np.empty(bound, dtype=np.int64)
    n = 0
    for Xb, yb in iter_csv_blocks(path):
        X[n : n + len(yb)], y[n : n + len(yb)] = Xb, yb
        n += len(yb)
    return Dataset(X[:n], y[:n])


def _is_plain(lines) -> bool:
    text = "".join(lines)
    return '"' not in text and "\x00" not in text and all("," in line for line in lines)


def _read_plain(lines, feature_idx, label_idx):
    """Parse plain lines with numpy's reader; every line is one row, so
    ``max_rows`` sizes numpy's result to the block. Each distinct label
    token is parsed once."""
    n = len(lines)
    X = np.loadtxt(lines, delimiter=",", usecols=feature_idx, comments=None, max_rows=n, ndmin=2)
    tokens = np.loadtxt(lines, delimiter=",", usecols=label_idx, dtype=str, comments=None, max_rows=n, ndmin=1)
    distinct, at = np.unique(tokens, return_inverse=True)
    return X, np.array([_parse_label(str(t)) for t in distinct], dtype=np.int64)[at]


def _parse_block(data_rows, done, feature_idx, label_idx):
    """Parse the csv module's rows of one block; ``done`` data rows precede them in the file."""
    try:
        return _parse_columns(data_rows, feature_idx, label_idx)
    except (ValueError, IndexError):
        # a bad cell, or one that plain ``float`` rejects but
        # ``float(cell.strip())`` accepts
        return _parse_rows(data_rows, done, feature_idx, label_idx)


def _parse_columns(data_rows, feature_idx, label_idx):
    """Convert one column at a time; label tokens are parsed once each."""
    n = len(data_rows)
    X = np.empty((n, len(FEATURE_NAMES)), dtype=np.float64)
    for j, ci in enumerate(feature_idx):
        X[:, j] = np.fromiter(map(float, map(itemgetter(ci), data_rows)), np.float64, n)
    tokens = list(map(itemgetter(label_idx), data_rows))
    label_of = {t: _parse_label(t) for t in set(tokens)}
    y = np.fromiter(map(label_of.__getitem__, tokens), np.int64, n)
    return X, y


def _parse_rows(data_rows, done, feature_idx, label_idx):
    """Raise the error for the first bad cell in row-major order, else parse
    the trimmed cells; ``done`` data rows precede ``data_rows`` in the file."""
    for r, row in enumerate(data_rows, done + 1):
        for j, ci in enumerate(feature_idx):
            cell = row[ci].strip() if ci < len(row) else ""
            try:
                float(cell)
            except ValueError:
                raise ValueError(f"non-numeric value {cell!r} at row {r}, column {FEATURE_NAMES[j]!r}") from None
        if label_idx >= len(row):
            raise ValueError(f"row {r} is too short to hold column {LABEL_NAME!r}")
        _parse_label(row[label_idx])
    trimmed = [[cell.strip() for cell in row] for row in data_rows]
    return _parse_columns(trimmed, feature_idx, label_idx)


def _fmt_cell(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def save_csv(d: Dataset, path) -> None:
    """Write a dataset back out in the schema's CSV layout."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*FEATURE_NAMES, LABEL_NAME])
        writer.writerows([*map(_fmt_cell, x), LABEL_VALUES[label]] for x, label in zip(d.X, d.y))


def _text_cell(v) -> str:
    if isinstance(v, str):
        return v
    return str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))


def csv_text(header, rows) -> str:
    """The CSV document of ``header`` and ``rows``: strings as they are, integers
    as ``str(int(v))`` and every other value as ``repr(float(v))``."""
    # csv quotes a field holding "\r" or "\n" only when the line terminator
    # holds that character, so each record is written ending in "\r\n" (one
    # write per record) and that ending is cut back to "\n"
    records: list[str] = []
    writer = csv.writer(SimpleNamespace(write=records.append), lineterminator="\r\n")
    writer.writerows([_text_cell(v) for v in row] for row in [header, *rows])
    return "".join(record[:-2] + "\n" for record in records)
