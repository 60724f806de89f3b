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

``train_trees`` grows a group of trees, one per ``(rows, counts)``
resample, together and one depth at a time; ``train_tree`` is the group
of one. The members' rows sit side by side as the columns of one matrix.
Every feature is argsorted once per member, and the rows of the depth's
open nodes, of every member, sit in one index matrix as consecutive
segments, each still in value order. One pass per depth scores every
open node: a cumsum of the class counts over the whole depth, restarted
at each segment, gives each candidate's left histogram, and Gini gains
and ``min_child_weight`` masks are evaluated only where the value changes
inside a segment. After the splits, a stable partition of the index
matrix carries each open child's rows on, so no node sorts again. Blocks
of at most ``_BLOCK_CELLS`` (feature, row) cells bound every per-depth
temporary, and ``block_groups`` sizes bagging's groups to one block.

Sample weights are whole row counts, so every weight sum is exact in any
order. With the Gini expression fixed (class histograms add as
``(c0 + c1) + c2``), the trees are bit-identical to a CART that argsorts
every feature at every node, and training on a resample's distinct rows
weighted by their draw counts grows the same tree as training on the
resample. Grouping changes no bit either: segments never mix, so each
gain comes from the same whole-number counts through the same expression,
with the same first-maximum tie rule, as when the member grows alone. The
packed count fields need only hold the largest segment's total.

A tree is parallel node arrays, numbered breadth-first as they grow (the
layout of scikit-learn's trees). A group numbers its members' nodes
together, and each member's nodes keep their relative order when the
group is split, which is the numbering the member gets alone. A leaf's
children are the leaf itself, so prediction advances every row one level
per step until all rows sit on leaves. The arrays are also the model
file's form: ``model_to_doc`` writes them as they are, and ``from_params``
reads and checks them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import json_array, json_value
from ..dataset import N_CLASSES
from .base import TrainedModel, check_width

# (feature, row) cells handled at once; bounds every per-depth temporary
_BLOCK_CELLS = 1 << 16


@dataclass
class TreeModel(TrainedModel):
    family = "tree"
    n_features: int
    feature: np.ndarray  # (n_nodes,) split feature, 0 at a leaf
    threshold: np.ndarray  # (n_nodes,) rows with value <= threshold go left, 0 at a leaf
    left: np.ndarray  # (n_nodes,) child node ids; a leaf's are its own id
    right: np.ndarray
    hist: np.ndarray  # (n_nodes, 3) class weights; only a leaf's are read

    def predict_proba(self, X) -> np.ndarray:
        check_width(X, self.n_features)
        internal = self.left != np.arange(self.left.size)
        cells = X.ravel()
        row_start = np.arange(X.shape[0]) * X.shape[1]
        at = np.zeros(X.shape[0], dtype=np.intp)
        while internal.take(at).any():
            go_left = cells.take(row_start + self.feature.take(at)) <= self.threshold.take(at)
            at = np.where(go_left, self.left.take(at), self.right.take(at))
        hist = self.hist.take(at, axis=0)
        return hist / ((hist[:, 0] + hist[:, 1]) + hist[:, 2])[:, None]

    @property
    def node_count(self) -> int:
        return self.left.size

    @classmethod
    def from_params(cls, params: dict) -> "TreeModel":
        """Read the node arrays that ``model_to_doc`` writes, their numbers by the
        run config's rules; a tree that cannot predict raises ``ValueError``."""
        n_features = json_value(int, params["n_features"], "tree.n_features")
        if not 0 < n_features < 2**63:  # a width some input can have, as an int64 like the split features
            raise ValueError(f"tree.n_features must be an integer in [1, 2**63), got {n_features}")
        in_range = f"tree node {{0}}: feature {{1!r}} must be an integer in [0, {n_features})"
        weights = "tree node {0}: hist {1!r} must be 3 non-negative numbers with a finite, positive total"
        feature = json_array(int, params["feature"], in_range)
        threshold = json_array(float, params["threshold"], "tree node {0}: threshold {1!r} must be finite")
        left = json_array(int, params["left"], "tree node {0}: left {1!r} must be an integer")
        right = json_array(int, params["right"], "tree node {0}: right {1!r} must be an integer")
        hist = json_array(float, params["hist"], weights)
        n = len(left) if left.ndim == 1 else 0
        shapes = [a.shape for a in (feature, threshold, left, right, hist)]
        if not n or shapes != [(n,)] * 4 + [(n, N_CLASSES)]:
            raise ValueError(
                "tree feature, threshold, left, right and hist must be shaped (n,) and (n, 3) with n >= 1, "
                f"got {', '.join(map(str, shapes))}"
            )
        ids, total = np.arange(n), hist.sum(axis=1)
        # children come after their parent, so every descent ends at a leaf
        leaf = (left == ids) & (right == ids)
        bad = np.flatnonzero(~leaf & ~((ids < left) & (left < n) & (ids < right) & (right < n)))
        if bad.size:
            i = bad[0]
            raise ValueError(f"tree node {i}: children {left[i]} and {right[i]} must lie in ({i}, {n}) or both be {i}")
        # predict reads every row's split cell, a leaf's too
        bad = np.flatnonzero((feature < 0) | (feature >= n_features))
        if bad.size:
            raise ValueError(in_range.format(bad[0], int(feature[bad[0]])))
        bad = np.flatnonzero(~((hist >= 0).all(axis=1) & (0 < total) & (total < np.inf)))
        if bad.size:
            raise ValueError(weights.format(bad[0], hist[bad[0]].tolist()))
        return cls(n_features, feature, threshold, left, right, hist)


class _PackedCounts:
    """Whole-number class counts packed into int64 words.

    Class ``c`` sits ``shift[c]`` bits up in word ``word[c]``, in a field
    wide enough for the largest tree's total weight, so one integer cumsum
    of the words, restarted at each node, is every class's cumsum at once,
    exact and free of carries.
    """

    def __init__(self, total_weight: float):
        bits = int(total_weight).bit_length()
        classes = np.arange(N_CLASSES)
        self.word, self.shift = classes // (63 // bits), bits * (classes % (63 // bits))[:, None]
        self.first = np.flatnonzero(np.diff(self.word, prepend=-1))  # each word's first class
        self.field = (1 << bits) - 1

    def pack(self, counts: np.ndarray) -> np.ndarray:
        """(class, k) counts -> (word, k) int64."""
        return np.add.reduceat(counts.astype(np.int64) << self.shift, self.first, axis=0)

    def unpack(self, words: np.ndarray) -> np.ndarray:
        """(word, k) int64 -> (class, k) counts."""
        return ((words[self.word] >> self.shift) & self.field).astype(float)


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
    # one flat cumsum runs over a block's rows of ``order``; subtracting the
    # previous segment's counts at each segment's first cell restarts it (a
    # row's first segment follows the last one of the row above)
    seg_words = packed.pack(hist)
    inner = np.append(seg_of_col[:-1] == seg_of_col[1:], False)
    best_gain = np.full(starts.size, -np.inf)
    best_feat = np.zeros(starts.size, dtype=np.intp)
    best_thr = np.zeros(starts.size)
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, m, step):
        block = order[lo : lo + step]
        rows = np.arange(block.shape[0])[:, None]
        flat_starts = (starts + n * rows).ravel()  # every segment's first cell in the flat block
        xs = Xt.ravel().take(block + Xt.shape[1] * (lo + rows))
        cand = np.zeros(block.shape, dtype=bool)
        np.not_equal(xs[:, :-1], xs[:, 1:], out=cand[:, :-1])
        at = np.flatnonzero(cand & inner)  # scored only where the value changes
        cum = row_words.take(block.ravel(), axis=1)
        cum[:, flat_starts[1:]] -= np.tile(seg_words, block.shape[0])[:, :-1]
        # a 1-D cumsum lets other threads run; one along an axis holds the GIL
        lh = packed.unpack(np.stack([np.cumsum(words).take(at) for words in cum]))
        del cum
        s = seg_of_col[at % n]
        rh = hist.take(s, axis=1) - lh
        left_w, right_w = (lh[0] + lh[1]) + lh[2], (rh[0] + rh[1]) + rh[2]
        sq_left, sq_right = (lh / left_w) ** 2, (rh / right_w) ** 2
        gini_left = 1.0 - ((sq_left[0] + sq_left[1]) + sq_left[2])
        gini_right = 1.0 - ((sq_right[0] + sq_right[1]) + sq_right[2])
        gain = parent_gini[s] - (left_w * gini_left + right_w * gini_right) / total[s]
        gain[(left_w < min_child_weight) | (right_w < min_child_weight)] = -np.inf
        # each segment's first maximum: lowest feature, then lowest threshold,
        # which is the lowest flat index among the candidates
        seg_gain = np.full(starts.size, -np.inf)
        np.maximum.at(seg_gain, s, gain)
        hit = gain == seg_gain[s]
        first = np.full(starts.size, block.size)
        np.minimum.at(first, s[hit], at[hit])
        won = np.flatnonzero(seg_gain > best_gain)
        first = first[won]
        best_gain[won] = seg_gain[won]
        best_feat[won] = lo + first // n
        best_thr[won] = (xs.ravel()[first] + xs.ravel()[first + 1]) / 2.0
    return best_gain, best_feat, best_thr


def _open(hist: np.ndarray, depth: int, max_depth: int) -> np.ndarray:
    """Which nodes with class weights ``hist`` (class, node) may split."""
    return (depth < max_depth) & ((hist > 0).sum(axis=0) > 1)


def block_groups(resamples: list, n_features: int) -> list[list]:
    """Split ``resamples``, in order, into the groups ``train_trees`` grows
    together: each holds as many resamples as one ``_BLOCK_CELLS`` block of
    stacked (row, feature) cells takes, and at least one."""
    groups, cells = [], 0
    for rows, counts in resamples:
        if not groups or cells + rows.size * n_features > _BLOCK_CELLS:
            groups.append([])
            cells = 0
        groups[-1].append((rows, counts))
        cells += rows.size * n_features
    return groups


def train_tree(X, y, sample_weights=None, max_depth: int = 8, min_child_weight: float = 1.0) -> TreeModel:
    """Fit CART; ``sample_weights`` are whole row counts (default 1 each)."""
    counts = np.ones(X.shape[0]) if sample_weights is None else sample_weights
    return train_trees(X, y, [(np.arange(X.shape[0]), counts)], max_depth, min_child_weight)[0]


def train_trees(X, y, resamples, max_depth: int, min_child_weight: float) -> list[TreeModel]:
    """Fit one CART per ``(rows, counts)`` resample, on those rows of ``X``
    weighted by their whole row counts, growing all of them together. Each
    resample holds at least one row, and each count is a positive integer."""
    sizes = np.array([len(rows) for rows, _ in resamples])
    w = np.concatenate([np.asarray(counts, dtype=float) for _, counts in resamples])
    offsets = np.cumsum(sizes) - sizes
    totals = np.add.reduceat(w, offsets)

    rows = np.concatenate([r for r, _ in resamples])
    n, m = rows.size, X.shape[1]
    # every member's rows side by side; a column belongs to one member only
    Xt = np.ascontiguousarray(X[rows].T)
    y_col = y[rows]
    class_w = np.where(y_col == np.arange(N_CLASSES)[:, None], w, 0.0)
    packed = _PackedCounts(totals.max())
    row_words = packed.pack(class_w)
    hist = np.add.reduceat(class_w, offsets, axis=1)  # (class, node); whole numbers sum exactly
    # the node arrays of every member, breadth-first; each node starts as a
    # leaf, and node i belongs to member owner[i]
    t = sizes.size
    feature, threshold = np.zeros(t, dtype=np.intp), np.zeros(t)
    left, right, node_hist, owner = np.arange(t), np.arange(t), hist.T, np.arange(t)
    is_open = _open(hist, 0, max_depth)
    # the open nodes of one depth, as consecutive segments of every row of
    # ``order``; the order of tied values never reaches the output
    if is_open.any():
        order = np.hstack(
            [o + np.argsort(Xt[:, o : o + k], axis=1) for o, k in zip(offsets[is_open], sizes[is_open])]
        ).astype(np.int32)
        sizes, seg_node, hist = sizes[is_open], np.flatnonzero(is_open), hist[:, is_open]
    depth = 0
    while is_open.any():
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
        child_hist = np.bincount(N_CLASSES * child + y_col[moved], w[moved], N_CLASSES * 2 * k)
        child_hist = child_hist.reshape(-1, N_CLASSES).T
        first, parent = feature.size, seg_node[split]
        feature[parent], threshold[parent] = feat[split], thr[split]
        left[parent], right[parent] = first + np.arange(k), first + k + np.arange(k)
        children = np.arange(first, first + 2 * k)
        feature = np.append(feature, np.zeros(2 * k, dtype=np.intp))
        threshold = np.append(threshold, np.zeros(2 * k))
        left, right = np.append(left, children), np.append(right, children)
        node_hist = np.vstack([node_hist, child_hist.T])
        owner = np.append(owner, np.tile(owner[parent], 2))
        depth += 1
        is_open = _open(child_hist, depth, max_depth)
        # stable partition: the open left children's rows, then the open
        # right children's, each segment still in value order
        side = np.zeros(n, dtype=np.int8)  # 1 for an open left child's row, 2 for an open right child's
        side[moved] = is_open[child] * (1 + (child >= k))
        n_left, n_right = int((side == 1).sum()), int((side == 2).sum())
        new_order = np.empty((m, n_left + n_right), dtype=order.dtype)
        step = max(1, _BLOCK_CELLS // order.shape[1])
        for lo in range(0, m, step):
            block = order[lo : lo + step]
            to, height = side.take(block).ravel(), block.shape[0]
            new_order[lo : lo + step, :n_left] = block.ravel().compress(to == 1).reshape(height, n_left)
            new_order[lo : lo + step, n_left:] = block.ravel().compress(to == 2).reshape(height, n_right)
        order = new_order
        sizes = np.bincount(child, minlength=2 * k)[is_open]
        seg_node = first + np.flatnonzero(is_open)
        hist = child_hist[:, is_open]
    # each member's nodes keep their breadth-first order; ``rank`` renumbers
    # them from 0, so a member's arrays are those it grows on its own
    rank = np.empty(owner.size, dtype=np.intp)
    trees = []
    for i in range(t):
        ids = np.flatnonzero(owner == i)
        rank[ids] = np.arange(ids.size)
        trees.append(TreeModel(m, feature[ids], threshold[ids], rank[left[ids]], rank[right[ids]], node_hist[ids]))
    return trees
