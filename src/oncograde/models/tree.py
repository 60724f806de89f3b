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

Fitting grows the tree one depth at a time. Every feature column is
argsorted once, and the rows of the depth's open nodes sit in one index
matrix as consecutive segments, each still in value order. One pass per
depth scores every open node: a cumsum of the class counts over the
whole depth, restarted at each segment, gives each candidate's left
histogram, and Gini gains and ``min_child_weight`` masks are evaluated
only where the value changes inside a segment. After the splits, a
stable partition of the index matrix carries each open child's rows on,
so no node sorts again, and the nodes are renumbered into preorder (a
left child is its parent + 1) at the end. Blocks of at most
``_BLOCK_CELLS`` (feature, row) cells bound every per-depth temporary.

Sample weights are whole row counts, so every weight sum is exact in any
order. With the Gini expression fixed (class histograms add as
``(c0 + c1) + c2``), the trees are bit-identical to a CART that argsorts
every feature at every node, and training on a resample's distinct rows
weighted by their draw counts grows the same tree as training on the
resample.

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

# (feature, row) cells handled at once; bounds every per-depth temporary
_BLOCK_CELLS = 16 * 1024


@dataclass
class TreeModel:
    family = "tree"
    nodes: list[dict]
    n_features: int
    _flat: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.nodes)
        if n == 0:
            raise ValueError("tree has no nodes")
        internal = np.array(["leaf" not in node for node in self.nodes])
        feature = np.zeros(n, dtype=np.intp)
        threshold = np.zeros(n)
        left, right = np.arange(n), np.arange(n)
        hist = np.zeros((n, N_CLASSES))
        for i, node in enumerate(self.nodes):
            if internal[i]:
                feature[i], threshold[i] = node["feature"], node["threshold"]
                left[i], right[i] = node["left"], node["right"]
            elif len(node["hist"]) != N_CLASSES:
                raise ValueError(f"tree node {i}: hist must have {N_CLASSES} entries")
            else:
                hist[i] = node["hist"]
        # preorder puts each child after its parent, so every descent ends at a leaf
        at = np.arange(n)
        bad = internal & ((np.minimum(left, right) <= at) | (np.maximum(left, right) >= n))
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"tree node {i}: children {left[i]} and {right[i]} must lie in ({i}, {n})")
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


class _PackedCounts:
    """Whole-number class counts packed into int64 words.

    Class ``c`` sits ``shift[c]`` bits up in word ``word[c]``, in a field
    wide enough for the tree's total weight, so one integer cumsum of the
    words is every class's cumsum at once, exact and free of carries.
    """

    def __init__(self, total_weight: float):
        bits = int(total_weight).bit_length()
        classes = np.arange(N_CLASSES)
        self.word, self.shift = classes // (63 // bits), bits * (classes % (63 // bits))
        self.bits = bits

    def pack(self, counts: np.ndarray) -> np.ndarray:
        """(class, k) counts -> (word, k) int64."""
        words = np.zeros((self.word[-1] + 1, counts.shape[1]), dtype=np.int64)
        for c in range(N_CLASSES):
            words[self.word[c]] += counts[c].astype(np.int64) << self.shift[c]
        return words

    def unpack(self, words: np.ndarray) -> list[np.ndarray]:
        counts = []
        for c in range(N_CLASSES):
            above = words[self.word[c]] >> self.shift[c]  # this class's field and those above it
            counts.append((above - ((above >> self.bits) << self.bits)).astype(float))
        return counts


def _best_splits(Xt, order, seg_of_col, starts, hist, packed, row_words, min_child_weight):
    """Return every segment's best (gain, feature, threshold); gain is -inf
    where no split is admissible.

    ``order[f]`` holds the open nodes' rows as consecutive segments, each
    sorted by feature ``f``; ``seg_of_col`` names each column's segment,
    ``starts`` each segment's first column and ``hist`` its class weights.
    Column ``j`` is the candidate that sends its segment's columns up to
    ``j`` left.
    """
    m, n = order.shape
    total = (hist[0] + hist[1]) + hist[2]
    parent_gini = 1.0 - (((hist[0] / total) ** 2 + (hist[1] / total) ** 2) + (hist[2] / total) ** 2)
    # subtracting the previous segment's counts at each segment's first
    # column restarts one cumsum over the whole depth at every segment
    restart = packed.pack(hist)[:, None, :-1]
    inner = np.append(seg_of_col[:-1] == seg_of_col[1:], False)
    best_gain = np.full(starts.size, -np.inf)
    best_feat = np.zeros(starts.size, dtype=np.intp)
    best_thr = np.zeros(starts.size)
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, m, step):
        block = order[lo : lo + step]
        xs = Xt.ravel().take(block + Xt.shape[1] * np.arange(lo, lo + block.shape[0])[:, None])
        cand = np.zeros(block.shape, dtype=bool)
        np.not_equal(xs[:, :-1], xs[:, 1:], out=cand[:, :-1])
        at = np.flatnonzero(cand & inner)  # scored only where the value changes
        cum = row_words.take(block, axis=1)
        cum[:, :, starts[1:]] -= restart
        np.cumsum(cum, axis=2, out=cum)
        lh = packed.unpack(cum.reshape(cum.shape[0], -1).take(at, axis=1))
        del cum
        s = seg_of_col[at % n]
        left_w = (lh[0] + lh[1]) + lh[2]
        right_w = total[s] - left_w
        ok = (left_w >= min_child_weight) & (right_w >= min_child_weight)
        at, s, left_w, right_w, lh = at[ok], s[ok], left_w[ok], right_w[ok], [h[ok] for h in lh]
        rh = [hist[c, s] - lh[c] for c in range(N_CLASSES)]
        gini_left = 1.0 - (((lh[0] / left_w) ** 2 + (lh[1] / left_w) ** 2) + (lh[2] / left_w) ** 2)
        gini_right = 1.0 - (((rh[0] / right_w) ** 2 + (rh[1] / right_w) ** 2) + (rh[2] / right_w) ** 2)
        gains = np.full(block.size, -np.inf)
        gains[at] = parent_gini[s] - (left_w * gini_left + right_w * gini_right) / total[s]
        gains = gains.reshape(block.shape)
        # each segment's first maximum: lowest feature, then lowest threshold
        seg_max = np.maximum.reduceat(gains, starts, axis=1)
        feat = np.argmax(seg_max, axis=0)
        gain = seg_max[feat, np.arange(starts.size)]
        won = np.flatnonzero(gain > best_gain)
        hits = gains[feat[seg_of_col], np.arange(n)] == gain[seg_of_col]
        pos = np.minimum.reduceat(np.where(hits, np.arange(n), n), starts)[won]
        feat = feat[won]
        best_gain[won] = gain[won]
        best_feat[won] = lo + feat
        best_thr[won] = (xs[feat, pos] + xs[feat, pos + 1]) / 2.0
    return best_gain, best_feat, best_thr


def _open(hist: np.ndarray, depth: int, max_depth: int) -> np.ndarray:
    """Which nodes with class weights ``hist`` (class, node) may split."""
    return (depth < max_depth) & ((hist > 0).sum(axis=0) > 1)


def _preorder(nodes: list[dict]) -> list[dict]:
    """Renumber breadth-first nodes so each left child is its parent + 1."""
    ids, stack = [], [0]
    while stack:
        i = stack.pop()
        ids.append(i)
        if "leaf" not in nodes[i]:
            stack += [nodes[i]["right"], nodes[i]["left"]]
    new_id = dict(zip(ids, range(len(ids))))
    for node in nodes:
        if "leaf" not in node:
            node["left"], node["right"] = new_id[node["left"]], new_id[node["right"]]
    return [nodes[i] for i in ids]


def train_tree(X, y, sample_weights=None, max_depth: int = 8, min_child_weight: float = 1.0) -> TreeModel:
    """Fit CART; ``sample_weights`` are whole row counts (default 1 each)."""
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
        if (w != np.floor(w)).any() or w.sum() >= 2.0**53:
            raise ValueError("sample weights must be whole numbers (row counts) summing below 2**53")

    n, m = X.shape
    Xt = np.ascontiguousarray(X.T)
    class_w = np.where(y == np.arange(N_CLASSES)[:, None], w, 0.0)
    packed = _PackedCounts(w.sum())
    row_words = packed.pack(class_w)
    hist = class_w.sum(axis=1)[:, None]  # (class, node); whole numbers sum exactly
    nodes = [{"leaf": True, "hist": hist[:, 0].tolist()}]  # breadth-first until _preorder
    if not _open(hist, 0, max_depth)[0]:
        return TreeModel(nodes=nodes, n_features=m)
    # the open nodes of one depth, as consecutive segments of every row of
    # ``order``; the order of tied values never reaches the output
    order = np.argsort(Xt, axis=1).astype(np.int32)
    sizes, seg_node = np.array([n]), np.array([0])
    depth = 0
    while True:
        seg_of_col = np.repeat(np.arange(sizes.size), sizes)
        starts = np.cumsum(sizes) - sizes
        gain, feat, thr = _best_splits(Xt, order, seg_of_col, starts, hist, packed, row_words, min_child_weight)
        split = gain > -np.inf
        k = int(split.sum())
        if k == 0:
            break
        # child c < k is the c-th split's left child, k + c its right one
        in_split = split[seg_of_col]
        seg, moved = seg_of_col[in_split], order[0, in_split]
        child = (np.cumsum(split) - 1)[seg] + k * (Xt[feat[seg], moved] > thr[seg])
        child_hist = np.stack([np.bincount(child, class_w[c, moved], 2 * k) for c in range(N_CLASSES)])
        first = len(nodes)
        for c, s in enumerate(np.flatnonzero(split)):
            nodes[seg_node[s]] = {
                "feature": int(feat[s]),
                "threshold": float(thr[s]),
                "left": first + c,
                "right": first + k + c,
            }
        nodes += [{"leaf": True, "hist": h} for h in child_hist.T.tolist()]
        depth += 1
        is_open = _open(child_hist, depth, max_depth)
        if not is_open.any():
            break
        # stable partition: the open left children's rows, then the open
        # right children's, each segment still in value order
        to_left, to_right = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        to_left[moved] = is_open[child] & (child < k)
        to_right[moved] = is_open[child] & (child >= k)
        n_left = int(to_left.sum())
        new_order = np.empty((m, n_left + int(to_right.sum())), dtype=order.dtype)
        step = max(1, _BLOCK_CELLS // order.shape[1])
        for lo in range(0, m, step):
            block = order[lo : lo + step]
            new_order[lo : lo + step, :n_left] = block[to_left.take(block)].reshape(block.shape[0], n_left)
            new_order[lo : lo + step, n_left:] = block[to_right.take(block)].reshape(block.shape[0], -1)
        order = new_order
        sizes = np.bincount(child, minlength=2 * k)[is_open]
        seg_node = first + np.flatnonzero(is_open)
        hist = child_hist[:, is_open]
    return TreeModel(nodes=_preorder(nodes), n_features=m)
