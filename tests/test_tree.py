import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oncograde.core import RngStream
from oncograde.dataset import N_CLASSES, synth_generate
from oncograde.models import tree
from oncograde.models.base import Hyperparams, model_from_doc, model_to_doc
from oncograde.models.ensemble import BaggingModel, train_bagging
from oncograde.models.tree import TreeModel, train_tree, train_trees
from oncograde.preprocess import PreprocessConfig, run_pipeline


def _gini(hist):
    total = hist.sum()
    return 1.0 - ((hist / total) ** 2).sum()


def _walk_splits(model, X, y, w):
    """Replay every split, yielding (parent_rows, left_rows, right_rows)."""
    stack = [(0, np.arange(len(y)))]
    while stack:
        idx, rows = stack.pop()
        if model.left[idx] == idx:  # a leaf
            continue
        mask = X[rows, model.feature[idx]] <= model.threshold[idx]
        left, right = rows[mask], rows[~mask]
        yield rows, left, right
        stack.append((model.left[idx], left))
        stack.append((model.right[idx], right))


def reference_predict_proba(model, X):
    """Per-row node walk: the reference for the flat-array predict."""
    out = np.empty((X.shape[0], N_CLASSES))
    for r in range(X.shape[0]):
        idx = 0
        while model.left[idx] != idx:
            idx = model.left[idx] if X[r, model.feature[idx]] <= model.threshold[idx] else model.right[idx]
        out[r] = model.hist[idx] / model.hist[idx].sum()
    return out


def reference_level_descent(model, X):
    """The level-at-a-time descent that looks up each child array per level
    until every row sits on a leaf: the reference for the one-table descent."""
    internal = model.left != np.arange(model.left.size)
    cells = X.ravel()
    row_start = np.arange(X.shape[0]) * X.shape[1]
    at = np.zeros(X.shape[0], dtype=np.intp)
    while internal.take(at).any():
        go_left = cells.take(row_start + model.feature.take(at)) <= model.threshold.take(at)
        at = np.where(go_left, model.left.take(at), model.right.take(at))
    hist = model.hist.take(at, axis=0)
    return hist / ((hist[:, 0] + hist[:, 1]) + hist[:, 2])[:, None]


def preorder_nodes(model) -> list[dict]:
    """The tree's nodes in ``reference_tree_nodes``'s form: node dicts in
    preorder, each left child right after its parent, a leaf holding only
    its class weights."""
    nodes, stack = [], [(0, None)]  # (node id, the emitted node it is the right child of)
    while stack:
        i, parent = stack.pop()
        if parent is not None:
            nodes[parent]["right"] = len(nodes)
        if model.left[i] == i:
            nodes.append({"leaf": True, "hist": model.hist[i].tolist()})
        else:
            feature, threshold = int(model.feature[i]), float(model.threshold[i])
            nodes.append({"feature": feature, "threshold": threshold, "left": len(nodes) + 1, "right": None})
            stack += [(model.right[i], len(nodes) - 1), (model.left[i], None)]
    return nodes


def _weighted_hist(y, w) -> np.ndarray:
    return np.asarray([w[y == c].sum() for c in range(N_CLASSES)], dtype=float)


def reference_tree_nodes(X, y, w, max_depth, min_child_weight):
    """Per-node, per-feature argsort CART: the reference for the presorted fit."""
    nodes = []

    def best_split(Xn, yn, wn):
        n = Xn.shape[0]
        total_w = float(wn.sum())
        parent = _weighted_hist(yn, wn)
        parent_gini = 1.0 - float(((parent / total_w) ** 2).sum())
        best = None
        for feat in range(Xn.shape[1]):
            order = np.argsort(Xn[:, feat], kind="stable")
            xs = Xn[order, feat]
            bounds = np.where(xs[:-1] != xs[1:])[0]
            if bounds.size == 0:
                continue
            wc = np.zeros((n, N_CLASSES))
            wc[np.arange(n), yn[order]] = wn[order]
            left = np.cumsum(wc, axis=0)[bounds]
            left_w = left.sum(axis=1)
            right, right_w = parent - left, total_w - left_w
            ok = (left_w >= min_child_weight) & (right_w >= min_child_weight)
            if not ok.any():
                continue
            gl = 1.0 - ((left / left_w[:, None]) ** 2).sum(axis=1)
            gr = 1.0 - ((right / right_w[:, None]) ** 2).sum(axis=1)
            gains = parent_gini - (left_w * gl + right_w * gr) / total_w
            gains[~ok] = -np.inf
            pos = int(np.argmax(gains))
            if best is None or gains[pos] > best[0]:
                b = bounds[pos]
                best = (float(gains[pos]), feat, float((xs[b] + xs[b + 1]) / 2.0))
        return best

    def build(rows, depth):
        idx = len(nodes)
        nodes.append({})
        split = None
        if np.unique(y[rows]).size > 1 and depth < max_depth:
            split = best_split(X[rows], y[rows], w[rows])
        if split is None:
            nodes[idx] = {"leaf": True, "hist": _weighted_hist(y[rows], w[rows]).tolist()}
            return idx
        _, feat, thr = split
        mask = X[rows, feat] <= thr
        left = build(rows[mask], depth + 1)
        right = build(rows[~mask], depth + 1)
        nodes[idx] = {"feature": feat, "threshold": thr, "left": left, "right": right}
        return idx

    build(np.arange(X.shape[0]), 0)
    return nodes


def random_tree_problem(seed, max_rows=160, max_depth=8):
    """Problems weighted by row counts, with ties, signed zeros and depth limits."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, max_rows)), int(rng.integers(1, 12))
    kind = seed % 3
    if kind == 0:
        X = rng.normal(size=(n, m))
    elif kind == 1:
        X = rng.integers(0, 3, size=(n, m)).astype(float)
    else:
        X = np.round(rng.normal(size=(n, m)), 1) * rng.choice([-0.0, 1.0], size=(n, m))
    y = rng.integers(0, N_CLASSES, size=n)
    w = rng.choice([1.0, 2.0, 3.0, 5.0], size=n)
    return X, y, w, int(rng.integers(0, max_depth + 1)), float(rng.choice([0.0, 1.0, 2.5, 6.0]))


@st.composite
def grouped_problems(draw):
    """A matrix with ties and a group of count-weighted resamples of its
    rows, some drawn from one class only and some with counts of 2**30 and
    more, whose class counts take more than one packed word."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(2, 60)), draw(st.integers(1, 6))
    X = np.round(rng.normal(size=(n, m)), draw(st.sampled_from([0, 1, 3])))
    y = rng.integers(0, N_CLASSES, size=n)
    resamples = []
    for one_class in draw(st.lists(st.booleans(), min_size=1, max_size=5)):
        pool = np.flatnonzero(y == y[rng.integers(n)]) if one_class else np.arange(n)
        rows = np.unique(rng.choice(pool, size=rng.integers(1, pool.size + 1)))
        scale = float(rng.choice([1, 2**30]))
        resamples.append((rows, scale * rng.integers(1, 6, size=rows.size)))
    return X, y, resamples


class TestPresortedFit:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_nodes_as_per_node_argsort(self, seed):
        X, y, w, depth, mcw = random_tree_problem(seed)
        model = train_tree(X, y, sample_weights=w, max_depth=depth, min_child_weight=mcw)
        expected = reference_tree_nodes(X, y, w, depth, mcw)
        assert json.dumps(preorder_nodes(model)) == json.dumps(expected)

    @pytest.mark.parametrize("seed", range(40, 52))
    def test_same_nodes_on_deep_problems(self, seed):
        # deep trees hold many open nodes, so one depth's pass spans many segments
        X, y, w, depth, mcw = random_tree_problem(seed, max_rows=400, max_depth=12)
        model = train_tree(X, y, sample_weights=w, max_depth=depth, min_child_weight=mcw)
        assert json.dumps(preorder_nodes(model)) == json.dumps(reference_tree_nodes(X, y, w, depth, mcw))

    @pytest.mark.parametrize("scale", [2**20, 2**30])
    def test_same_nodes_with_large_row_counts(self, scale):
        # totals of 2**21 and more spread the class counts over more int64 words
        X, y, w, depth, mcw = random_tree_problem(7, max_rows=400, max_depth=12)
        w = w * scale
        model = train_tree(X, y, sample_weights=w, max_depth=depth, min_child_weight=mcw * scale)
        assert json.dumps(preorder_nodes(model)) == json.dumps(reference_tree_nodes(X, y, w, depth, mcw * scale))

    def test_counted_distinct_rows_grow_the_resampled_tree(self):
        # bagging trains on each resample's distinct rows, weighted by their
        # draw counts; paper-scale training matrix (876 x 59)
        d = synth_generate(1000, 42, (0.303, 0.332, 0.365))
        prep = run_pipeline(d, PreprocessConfig(), RngStream(42).derive(1))
        X, y = prep.X_train, prep.y_train
        for seed in range(3):
            rows = RngStream(seed).randints(X.shape[0], X.shape[0])
            distinct, counts = np.unique(rows, return_counts=True)
            for mcw in (0.0, 1.0, 3.0, 5.0):
                for depth in (3, 8):
                    resampled = train_tree(X[rows], y[rows], max_depth=depth, min_child_weight=mcw)
                    counted = train_tree(
                        X[distinct], y[distinct], sample_weights=counts, max_depth=depth, min_child_weight=mcw
                    )
                    assert json.dumps(model_to_doc(counted)) == json.dumps(model_to_doc(resampled))

    def test_tied_features_across_blocks_take_lowest_index(self, monkeypatch):
        # 40 columns x 500 rows spans several scoring blocks of 4,096 cells;
        # copies tie exactly
        monkeypatch.setattr(tree, "_BLOCK_CELLS", 4 * 1024)
        rng = np.random.default_rng(3)
        base = rng.integers(0, 6, size=(500, 10)).astype(float)
        X, y = np.tile(base, 4), rng.integers(0, N_CLASSES, size=500)
        w = rng.choice([1.0, 2.0, 3.0, 5.0], size=500)
        model = train_tree(X, y, sample_weights=w, max_depth=6, min_child_weight=2.0)
        assert json.dumps(preorder_nodes(model)) == json.dumps(reference_tree_nodes(X, y, w, 6, 2.0))
        assert (model.feature < 10).all()

    def test_peak_memory_of_one_bootstrap_tree(self):
        # paper-scale training matrix (876 x 59), resampled to 1,100 rows
        d = synth_generate(1000, 42, (0.303, 0.332, 0.365))
        prep = run_pipeline(d, PreprocessConfig(), RngStream(42).derive(1))
        rows = RngStream(8).randints(prep.X_train.shape[0], 1100)
        Xb, yb = prep.X_train[rows], prep.y_train[rows]
        tracemalloc.start()
        try:
            train_tree(Xb, yb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20, f"peak {peak / 2**20:.1f} MB"

    def test_peak_memory_of_bagging_does_not_grow_with_members(self):
        # paper-scale training matrix (876 x 59); members are grown in groups of
        # at most one block of cells, so only the finished trees and their
        # resamples' row indices and counts add up
        d = synth_generate(1000, 42, (0.303, 0.332, 0.365))
        prep = run_pipeline(d, PreprocessConfig(), RngStream(42).derive(1))
        X, y = prep.X_train, prep.y_train
        peaks, models = [], []
        for n_estimators in (5, 40):
            hp = Hyperparams(max_depth=8, n_estimators=n_estimators)
            tracemalloc.start()
            try:
                models.append(train_bagging(X, y, hp, RngStream(8)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        extra = models[1].members[5:]
        node_bytes = sum(a.nbytes for t in extra for a in (t.feature, t.threshold, t.left, t.right, t.hist))
        resample_bytes = len(extra) * 2 * 8 * X.shape[0]  # int64 rows and counts, at most every row once
        slack = 256 * 2**10
        assert peaks[1] <= peaks[0] + node_bytes + resample_bytes + slack, f"peaks {peaks}, nodes {node_bytes}"

    @settings(max_examples=200, deadline=None)
    @given(
        grouped_problems(),
        st.integers(0, 6),
        st.sampled_from([0.0, 1.0, 2.5, 1e13]),  # 1e13 is above every total weight
        st.sampled_from([1, 64, 1 << 16]),  # blocks of one feature, a few, and all of them
    )
    def test_grouped_trees_equal_trees_grown_alone(self, problem, max_depth, mcw, block_cells):
        X, y, resamples = problem
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tree, "_BLOCK_CELLS", block_cells)
            grouped = train_trees(X, y, resamples, max_depth, mcw)
        alone = [train_tree(X[r], y[r], c, max_depth, mcw) for r, c in resamples]
        assert [json.dumps(model_to_doc(t)) for t in grouped] == [json.dumps(model_to_doc(t)) for t in alone]
        fields = ("feature", "threshold", "left", "right", "hist")
        for g, a in zip(grouped, alone):  # the same breadth-first node numbers, too
            assert all(np.array_equal(getattr(g, f), getattr(a, f)) for f in fields)


class TestTrainTree:
    def test_pure_input_single_leaf(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        y = np.full(10, 2)
        model = train_tree(X, y)
        assert model.node_count == 1
        assert model.left[0] == model.right[0] == 0
        assert (model.predict(X) == 2).all()

    def test_xor_depth_limits(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        shallow = train_tree(X, y, max_depth=1)
        assert (shallow.predict(X) == y).mean() <= 0.75
        deep = train_tree(X, y, max_depth=2)
        assert (deep.predict(X) == y).mean() == 1.0

    def test_min_child_weight_blocks_split(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        model = train_tree(X, y, min_child_weight=3.0)
        assert model.node_count == 1

    def test_splits_never_increase_gini_and_respect_weight(self):
        d = synth_generate(200, 13)
        w = np.ones(200)
        mcw = 4.0
        model = train_tree(d.X, d.y, sample_weights=w, max_depth=6, min_child_weight=mcw)
        n_splits = 0
        for rows, left, right in _walk_splits(model, d.X, d.y, w):
            n_splits += 1
            assert w[left].sum() >= mcw and w[right].sum() >= mcw
            parent = _gini(_weighted_hist(d.y[rows], w[rows])) * w[rows].sum()
            children = _gini(_weighted_hist(d.y[left], w[left])) * w[left].sum() + _gini(
                _weighted_hist(d.y[right], w[right])
            ) * w[right].sum()
            assert children <= parent + 1e-9
        assert n_splits > 0

    def test_min_child_weight_bounds_leaf_count(self):
        # every non-root leaf weighs >= mcw, so leaves <= total_weight / mcw
        for seed in range(6):
            d = synth_generate(120, seed)
            for mcw in (1.0, 2.0, 4.0, 8.0, 16.0):
                model = train_tree(d.X, d.y, max_depth=6, min_child_weight=mcw)
                leaves = int((model.left == np.arange(model.node_count)).sum())
                if model.node_count > 1:
                    assert leaves <= 120 / mcw
                    assert model.node_count == 2 * leaves - 1

    def test_row_permutation_invariance(self):
        d = synth_generate(150, 21)
        probe = synth_generate(60, 22).X
        base = train_tree(d.X, d.y, max_depth=5)
        perm = np.random.default_rng(0).permutation(150)
        permuted = train_tree(d.X[perm], d.y[perm], max_depth=5)
        assert np.array_equal(base.predict(probe), permuted.predict(probe))

    def test_depth_zero_is_leaf(self):
        d = synth_generate(60, 2)
        model = train_tree(d.X, d.y, max_depth=0)
        assert model.node_count == 1


class TestTreePredict:
    def test_proba_rows_sum_to_one(self):
        d = synth_generate(100, 5)
        model = train_tree(d.X, d.y, max_depth=4)
        P = model.predict_proba(d.X)
        assert P.shape == (100, 3)
        assert (P >= 0).all()
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_is_argmax_of_proba(self):
        d = synth_generate(100, 6)
        model = train_tree(d.X, d.y, max_depth=4)
        P = model.predict_proba(d.X)
        assert np.array_equal(model.predict(d.X), np.argmax(P, axis=1))

    def test_empty_matrix(self):
        d = synth_generate(60, 2)
        model = train_tree(d.X, d.y)
        assert model.predict(np.zeros((0, 23))).shape == (0,)

    @pytest.mark.parametrize("seed", range(12))
    def test_flat_predict_equals_node_walk(self, seed):
        X, y, w, depth, mcw = random_tree_problem(seed)
        model = train_tree(X, y, sample_weights=w, max_depth=depth, min_child_weight=mcw)
        probe = np.vstack([X, np.random.default_rng(seed).normal(size=(40, X.shape[1]))])
        assert np.array_equal(model.predict_proba(probe), reference_predict_proba(model, probe))

    @pytest.mark.parametrize("seed", range(12))
    def test_json_round_trip_keeps_nodes_and_predict_bits(self, seed):
        X, y, w, depth, mcw = random_tree_problem(seed)
        model = train_tree(X, y, sample_weights=w, max_depth=depth, min_child_weight=mcw)
        loaded = TreeModel.from_params(json.loads(json.dumps(model_to_doc(model)))["params"])
        probe = np.vstack([X, np.random.default_rng(seed).normal(size=(40, X.shape[1]))])
        assert json.dumps(model_to_doc(loaded)) == json.dumps(model_to_doc(model))
        assert loaded.predict_proba(probe).tobytes() == model.predict_proba(probe).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 8), st.integers(0, 60), st.sampled_from([0.0, 0.1, 0.5]))
    def test_equals_the_level_descent(self, seed, max_depth, n_probe, nan_share):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 120)), int(rng.integers(1, 6))
        X = np.round(rng.normal(size=(n, m)), 1)
        model = train_tree(X, rng.integers(0, N_CLASSES, size=n), max_depth=max_depth)
        # probe cells: training values, the thresholds themselves (equal goes
        # left) and NaN (no comparison holds, so it goes right); 0 rows too
        probe = rng.choice(np.concatenate([X.ravel(), model.threshold]), size=(n_probe, m))
        probe[rng.random(probe.shape) < nan_share] = np.nan
        assert model.predict_proba(probe).tobytes() == reference_level_descent(model, probe).tobytes()

    def test_levels_follow_the_longest_path_of_a_loaded_tree(self):
        # not breadth-first: the last node, 6, is a leaf one split down, the
        # deepest, 4, is four splits down (0, 1, 2, 3), and nodes 1, 2 and 3
        # share the leaf 5
        doc = {
            "n_features": 1,
            "feature": [0] * 7,
            "threshold": [1.0, 0.5, 0.0, -0.5, 0.0, 0.0, 0.0],
            "left": [1, 2, 3, 4, 4, 5, 6],
            "right": [6, 5, 5, 5, 4, 5, 6],
            "hist": [[1.0, 0.0, 0.0]] * 4 + [[0.0, 0.0, 3.0], [1.0, 2.0, 0.0], [1.0, 0.0, 0.0]],
        }
        model = TreeModel.from_params(doc)
        assert model._levels == 4
        probe = np.append(np.arange(-20, 21) / 10, np.nan)[:, None]  # -0.5, 0.0, 0.5 and 1.0 exactly
        assert model.predict_proba(probe).tobytes() == reference_level_descent(model, probe).tobytes()
        assert model.predict(probe).tolist() == [2] * 16 + [1] * 15 + [0] * 11

    def test_single_leaf_and_zero_rows(self):
        leaf = TreeModel.from_params(
            {"n_features": 2, "feature": [0], "threshold": [0.0], "left": [0], "right": [0], "hist": [[1.0, 3.0, 0.5]]}
        )
        X = np.random.default_rng(1).normal(size=(7, 2))
        assert np.array_equal(leaf.predict_proba(X), reference_predict_proba(leaf, X))
        d = synth_generate(80, 3)
        model = train_tree(d.X, d.y, max_depth=4)
        empty = np.zeros((0, d.X.shape[1]))
        assert model.predict_proba(empty).shape == (0, N_CLASSES)
        assert np.array_equal(model.predict_proba(empty), reference_predict_proba(model, empty))

    def test_json_round_trip_and_bagging_predict_like_node_walk(self):
        d = synth_generate(150, 4)
        probe = synth_generate(60, 5).X
        trees = []
        for seed in range(4):
            rows = RngStream(seed).randints(150, 150)
            model = train_tree(d.X[rows], d.y[rows], max_depth=5)
            doc = json.loads(json.dumps(model_to_doc(model)))
            loaded = model_from_doc(doc)
            assert model_to_doc(loaded) == model_to_doc(model)
            assert np.array_equal(loaded.predict_proba(probe), reference_predict_proba(model, probe))
            trees.append(loaded)
        bag = BaggingModel(members=trees)
        expected = np.mean([reference_predict_proba(t, probe) for t in trees], axis=0)
        assert np.array_equal(bag.predict_proba(probe), expected)

    def test_dimension_mismatch(self):
        d = synth_generate(60, 2)
        model = train_tree(d.X, d.y)
        with pytest.raises(ValueError, match="dimension mismatch"):
            model.predict(np.zeros((3, 5)))
