"""CART classifier with Gini impurity and a minimum-child-weight split
constraint.

Candidate thresholds are midpoints between consecutive distinct sorted
values per feature. The best split maximizes the weighted impurity
decrease; ties go to the lower feature index, then the lower threshold.
Zero-gain splits are admitted (an XOR pattern is only separable through
one), so impurity is non-increasing rather than strictly decreasing.
A split is admissible only if both children carry total weight of at
least ``min_child_weight``; growth stops on purity, depth, or when no
admissible split exists.

Fitting presorts once per tree: every feature column is argsorted a
single time (stable, int32 row ids), and each child inherits its sorted
rows through a stable boolean partition of its parent's sorted index
matrix, so no node sorts again. A node is scored a block of features at
a time: per-class cumulative weights along the sorted order give every
candidate's left and right histograms, and Gini gains, boundary and
``min_child_weight`` masks are evaluated over the whole block at once.
Blocks hold at most ``_BLOCK_CELLS`` (feature, row) cells, which bounds
the working set. Every sum keeps the order of the per-feature loop it
replaced (class histograms add as ``(c0 + c1) + c2``), so the trees are
bit-identical to it.

Prediction uses flat ``feature/threshold/left/right`` arrays and a
leaf-probability table built once per model. Leaves point to themselves,
so all rows advance one level per step until every row sits on a leaf.
The node dicts stay the serialized form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import as_matrix
from ..dataset import N_CLASSES
from .base import proba_to_labels

# (feature, row) cells scored at once; bounds the per-node working set
_BLOCK_CELLS = 8 * 1024


@dataclass
class TreeModel:
    family = "tree"
    nodes: list[dict]
    n_features: int
    _flat: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.nodes)
        internal = np.array(["leaf" not in node for node in self.nodes])
        feature = np.zeros(n, dtype=np.intp)
        threshold = np.zeros(n)
        left, right = np.arange(n), np.arange(n)
        hist = np.zeros((n, N_CLASSES))
        for i, node in enumerate(self.nodes):
            if internal[i]:
                feature[i], threshold[i] = node["feature"], node["threshold"]
                left[i], right[i] = node["left"], node["right"]
            else:
                hist[i] = node["hist"]
        total = (hist[:, 0] + hist[:, 1]) + hist[:, 2]
        with np.errstate(invalid="ignore", divide="ignore"):
            proba = hist / total[:, None]  # rows of internal nodes are never read
        self._flat = (internal, feature, threshold, left, right, proba)

    def predict_proba(self, X) -> np.ndarray:
        X = as_matrix(X)
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"dimension mismatch: model expects {self.n_features} features, got {X.shape[1]}"
            )
        internal, feature, threshold, left, right, proba = self._flat
        rows = np.arange(X.shape[0])
        at = np.zeros(X.shape[0], dtype=np.intp)
        while internal[at].any():
            at = np.where(X[rows, feature[at]] <= threshold[at], left[at], right[at])
        return proba[at]

    def predict(self, X) -> np.ndarray:
        return proba_to_labels(self.predict_proba(X))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def to_params(self) -> dict:
        return {"n_features": self.n_features, "nodes": self.nodes}

    @classmethod
    def from_params(cls, params: dict) -> "TreeModel":
        return cls(nodes=params["nodes"], n_features=params["n_features"])


def _weighted_hist(y, w) -> np.ndarray:
    return np.asarray(
        [w[y == c].sum() for c in range(N_CLASSES)], dtype=float
    )


def _gini(hist: np.ndarray, total: float) -> float:
    return 1.0 - float(((hist / total) ** 2).sum())


def _best_split(Xt, class_w, order, parent_hist, total_w, min_child_weight):
    """Return (gain, feature, threshold) or None if nothing admissible.

    ``Xt`` is the feature-major training matrix, ``class_w[c]`` each row's
    weight if its label is ``c`` and 0 otherwise, and ``order[f]`` the
    node's rows sorted by feature ``f``. Position ``i`` along a sorted
    row is the candidate that sends sorted rows ``0..i`` left.
    """
    m, n = order.shape
    parent_gini = _gini(parent_hist, total_w)
    step = max(1, _BLOCK_CELLS // n)
    best = None
    for lo in range(0, m, step):
        block = order[lo : lo + step]
        feats = np.arange(lo, lo + block.shape[0])[:, None]
        xs = Xt[feats, block]
        lh = [np.cumsum(cw[block], axis=1)[:, :-1] for cw in class_w]
        rh = [parent_hist[c] - lh[c] for c in range(N_CLASSES)]
        left_w = (lh[0] + lh[1]) + lh[2]
        right_w = total_w - left_w
        with np.errstate(invalid="ignore", divide="ignore"):
            gini_left = 1.0 - (((lh[0] / left_w) ** 2 + (lh[1] / left_w) ** 2) + (lh[2] / left_w) ** 2)
            gini_right = 1.0 - (((rh[0] / right_w) ** 2 + (rh[1] / right_w) ** 2) + (rh[2] / right_w) ** 2)
            gains = parent_gini - (left_w * gini_left + right_w * gini_right) / total_w
        admissible = (xs[:, :-1] != xs[:, 1:]) & (left_w >= min_child_weight) & (right_w >= min_child_weight)
        gains[~admissible] = -np.inf
        pos = np.argmax(gains, axis=1)  # first max -> lowest threshold
        per_feature = gains[np.arange(block.shape[0]), pos]
        k = int(np.argmax(per_feature))  # first max -> lowest feature index
        gain = float(per_feature[k])
        if gain > -np.inf and (best is None or gain > best[0]):
            threshold = (xs[k, pos[k]] + xs[k, pos[k] + 1]) / 2.0
            best = (gain, lo + k, float(threshold))
    return best


def train_tree(X, y, sample_weights=None, max_depth: int = 8, min_child_weight: float = 1.0) -> TreeModel:
    X = as_matrix(X)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        raise ValueError("cannot train a tree on empty input")
    if sample_weights is None:
        w = np.ones(X.shape[0], dtype=float)
    else:
        w = np.asarray(sample_weights, dtype=float)
        if (w <= 0).any():
            raise ValueError("sample weights must be positive")

    Xt = np.ascontiguousarray(X.T)
    class_w = np.where(y == np.arange(N_CLASSES)[:, None], w, 0.0)
    goes_left = np.zeros(X.shape[0], dtype=bool)
    nodes: list[dict] = []
    # depth-first in preorder, so a left child is always its parent + 1;
    # rows ascend, so histogram and weight sums add in row order
    presorted = np.argsort(Xt, axis=1, kind="stable").astype(np.int32)
    stack = [(np.arange(X.shape[0]), presorted, 0, None)]
    del presorted  # each node's order matrix is freed once its children are cut
    while stack:
        rows, order, depth, right_of = stack.pop()
        if right_of is not None:
            nodes[right_of]["right"] = len(nodes)
        ys, ws = y[rows], w[rows]
        hist = _weighted_hist(ys, ws)
        split = None
        if depth < max_depth and (ys != ys[0]).any():
            split = _best_split(Xt, class_w, order, hist, float(ws.sum()), min_child_weight)
        if split is None:
            nodes.append({"leaf": True, "hist": hist.tolist()})
            continue
        _, feat, thr = split
        idx = len(nodes)
        nodes.append({"feature": int(feat), "threshold": thr, "left": idx + 1, "right": None})
        mask = Xt[feat, rows] <= thr
        goes_left[rows] = mask
        sent = goes_left[order]
        n_left = int(mask.sum())
        stack.append((rows[~mask], order[~sent].reshape(-1, rows.size - n_left), depth + 1, idx))
        stack.append((rows[mask], order[sent].reshape(-1, n_left), depth + 1, None))
    return TreeModel(nodes=nodes, n_features=X.shape[1])
