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
so no node sorts again. Blocks of at most ``_BLOCK_CELLS`` (feature, row)
cells bound every per-depth temporary.

Sample weights are whole row counts, so every weight sum is exact in any
order. With the Gini expression fixed (class histograms add as
``(c0 + c1) + c2``), the trees are bit-identical to a CART that argsorts
every feature at every node, and training on a resample's distinct rows
weighted by their draw counts grows the same tree as training on the
resample.

A tree is parallel node arrays, numbered breadth-first as they grow (the
layout of scikit-learn's trees). A leaf's children are the leaf itself,
so prediction advances every row one level per step until all rows sit
on leaves. Node dicts in preorder are only the serialized form, which
``to_params`` writes and ``from_params`` reads and checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import json_array, json_value
from ..dataset import N_CLASSES
from .base import proba_to_labels

# (feature, row) cells handled at once; bounds every per-depth temporary
_BLOCK_CELLS = 16 * 1024


@dataclass
class TreeModel:
    family = "tree"
    n_features: int
    feature: np.ndarray  # (n_nodes,) split feature, 0 at a leaf
    threshold: np.ndarray  # (n_nodes,) rows with value <= threshold go left, 0 at a leaf
    left: np.ndarray  # (n_nodes,) child node ids; a leaf's are its own id
    right: np.ndarray
    hist: np.ndarray  # (n_nodes, 3) class weights; only a leaf's are read

    def predict_proba(self, X) -> np.ndarray:
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"dimension mismatch: model expects {self.n_features} features, got {X.shape[1]}"
            )
        internal = self.left != np.arange(self.left.size)
        cells = X.ravel()
        row_start = np.arange(X.shape[0]) * X.shape[1]
        at = np.zeros(X.shape[0], dtype=np.intp)
        while internal.take(at).any():
            go_left = cells.take(row_start + self.feature.take(at)) <= self.threshold.take(at)
            at = np.where(go_left, self.left.take(at), self.right.take(at))
        hist = self.hist.take(at, axis=0)
        return hist / ((hist[:, 0] + hist[:, 1]) + hist[:, 2])[:, None]

    def predict(self, X) -> np.ndarray:
        return proba_to_labels(self.predict_proba(X))

    @property
    def node_count(self) -> int:
        return self.left.size

    def to_params(self) -> dict:
        """The nodes in preorder: each left child comes right after its parent."""
        feature, threshold, left, right, hist = (
            a.tolist() for a in (self.feature, self.threshold, self.left, self.right, self.hist)
        )
        nodes, stack = [], [(0, None)]  # (node id, the emitted node it is the right child of)
        while stack:
            i, parent = stack.pop()
            if parent is not None:
                nodes[parent]["right"] = len(nodes)
            if left[i] == i:
                nodes.append({"leaf": True, "hist": hist[i]})
            else:
                nodes.append({"feature": feature[i], "threshold": threshold[i], "left": len(nodes) + 1, "right": None})
                stack += [(right[i], len(nodes) - 1), (left[i], None)]
        return {"n_features": self.n_features, "nodes": nodes}

    @classmethod
    def from_params(cls, params: dict) -> "TreeModel":
        """Read ``to_params``'s nodes, their numbers by the run config's rules;
        a node that cannot predict raises ``ValueError``."""
        nodes = json_value(list, params["nodes"], "tree.nodes")
        n_features = json_value(int, params["n_features"], "tree.n_features")
        if not 0 < n_features < 2**63:  # a width some input can have, as an int64 like the split features
            raise ValueError(f"tree.n_features must be an integer in [1, 2**63), got {n_features}")
        n = len(nodes)
        if n == 0:
            raise ValueError("tree has no nodes")
        # a row per node, a leaf's split and an internal node's hist filled in
        # as above, so entry i of every field is node i's
        rows = []
        for i, node in enumerate(nodes):
            if type(node) is not dict:  # the reader words the refusal
                json_value(dict, node, f"tree node {i}")
            if "leaf" not in node:
                rows.append((node["feature"], node["threshold"], node["left"], node["right"], (0, 0, 0)))
            elif node["leaf"] is not True:
                json_value((True,), node["leaf"], f"tree node {i}.leaf")
            elif type(node["hist"]) is not list or len(node["hist"]) != N_CLASSES:
                raise ValueError(f"tree node {i}: hist must have {N_CLASSES} entries")
            else:
                rows.append((0, 0, i, i, node["hist"]))
        feature, threshold, left, right, hist = zip(*rows)
        in_range = f"tree node {{0}}: feature {{1!r}} must be an integer in [0, {n_features})"
        weights = "tree node {0}: hist {1!r} must be non-negative with a finite, positive total"
        feature = json_array(int, feature, in_range)
        threshold = json_array(float, threshold, "tree node {0}: threshold {1!r} must be finite")
        left = json_array(int, left, "tree node {0}: left {1!r} must be an integer")
        right = json_array(int, right, "tree node {0}: right {1!r} must be an integer")
        hist = json_array(float, hist, weights)
        ids, leaf, total = np.arange(n), np.array(["leaf" in node for node in nodes]), hist.sum(axis=1)
        # preorder puts each child after its parent, so every descent ends at a leaf
        bad = np.flatnonzero(~leaf & ~((ids < left) & (left < n) & (ids < right) & (right < n)))
        if bad.size:
            i = bad[0]
            raise ValueError(f"tree node {i}: children {left[i]} and {right[i]} must lie in ({i}, {n})")
        bad = np.flatnonzero(~leaf & ((feature < 0) | (feature >= n_features)))
        if bad.size:
            raise ValueError(in_range.format(bad[0], nodes[bad[0]]["feature"]))
        bad = np.flatnonzero(leaf & ~((hist >= 0).all(axis=1) & (0 < total) & (total < np.inf)))
        if bad.size:
            raise ValueError(weights.format(bad[0], hist[bad[0]].tolist()))
        return cls(n_features, feature, threshold, left, right, hist)


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


def train_tree(X, y, sample_weights=None, max_depth: int = 8, min_child_weight: float = 1.0) -> TreeModel:
    """Fit CART; ``sample_weights`` are whole row counts (default 1 each)."""
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
    # the node arrays, breadth-first; each node starts as a leaf
    feature, threshold = np.zeros(1, dtype=np.intp), np.zeros(1)
    left, right, node_hist = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), hist.T
    if not _open(hist, 0, max_depth)[0]:
        return TreeModel(m, feature, threshold, left, right, node_hist)
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
        first, parent = feature.size, seg_node[split]
        feature[parent], threshold[parent] = feat[split], thr[split]
        left[parent], right[parent] = first + np.arange(k), first + k + np.arange(k)
        children = np.arange(first, first + 2 * k)
        feature = np.append(feature, np.zeros(2 * k, dtype=np.intp))
        threshold = np.append(threshold, np.zeros(2 * k))
        left, right = np.append(left, children), np.append(right, children)
        node_hist = np.vstack([node_hist, child_hist.T])
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
    return TreeModel(m, feature, threshold, left, right, node_hist)
