import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oncograde.preprocess as preprocess
from oncograde.core import RngStream
from oncograde.dataset import FEATURE_NAMES, synth_generate
from oncograde.preprocess import (
    PIPELINE_ORDERS,
    CorrelationReport,
    PreprocessConfig,
    Preprocessor,
    append_pair_means,
    apply_minmax,
    choose_pairs,
    correlation_to_csv,
    correlation_to_json,
    engineer_features,
    fit_minmax,
    pearson_matrix,
    run_pipeline,
    smote,
    stratified_split,
)

finite_matrices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 12), st.integers(1, 5)),
    elements=st.floats(-1e6, 1e6),
)


class TestMinMax:
    def test_fit_single_column(self):
        p = fit_minmax(np.array([[2.0], [4.0], [6.0]]))
        assert p[0][0] == 2 and p[1][0] == 6

    def test_fit_two_columns(self):
        p = fit_minmax(np.array([[0.0, 10.0], [5.0, 20.0]]))
        assert list(p[0]) == [0, 10] and list(p[1]) == [5, 20]

    def test_apply_midpoint(self):
        p = fit_minmax(np.array([[2.0], [4.0], [6.0]]))
        assert apply_minmax(np.array([[4.0]]), p)[0, 0] == 0.5

    def test_constant_column_maps_to_zero(self):
        p = fit_minmax(np.array([[3.0], [3.0]]))
        assert apply_minmax(np.array([[999.0]]), p)[0, 0] == 0.0

    def test_no_clamping(self):
        p = fit_minmax(np.array([[0.0], [10.0]]))
        assert apply_minmax(np.array([[12.0]]), p)[0, 0] == pytest.approx(1.2)

    def test_empty_fit_errors(self):
        with pytest.raises(ValueError):
            fit_minmax(np.zeros((0, 3)))

    @given(finite_matrices)
    def test_scaled_range_and_roundtrip(self, X):
        p = fit_minmax(X)
        S = apply_minmax(X, p)
        assert (S >= 0).all() and (S <= 1).all()
        span = p[1] - p[0]
        restored = S * np.where(span == 0, 1.0, span) + p[0]
        # constant columns lose their offset in scaling; restore it
        restored[:, span == 0] = p[0][span == 0]
        assert np.allclose(restored, X, atol=1e-9 * np.maximum(1, np.abs(X)).max())


class TestPearson:
    def test_self_correlation(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [5.0, 5.0]])
        r = pearson_matrix(X, 0.5, -0.4).matrix
        assert r[0, 1] == pytest.approx(1.0)

    def test_anticorrelation(self):
        x = np.array([1.0, 2.0, 5.0])
        X = np.column_stack([x, -x])
        assert pearson_matrix(X, 0.5, -0.4).matrix[0, 1] == pytest.approx(-1.0)

    def test_frozen_example(self):
        X = np.column_stack([[1.0, 2.0, 3.0], [1.0, 2.0, 4.0]])
        r = pearson_matrix(X, 0.5, -0.4).matrix[0, 1]
        assert r == pytest.approx(9 / np.sqrt(84), abs=1e-12)

    def test_zero_variance_convention(self):
        X = np.column_stack([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
        rep = pearson_matrix(X, 0.5, -0.4)
        assert rep.zero_variance_columns == [1]
        assert rep.matrix[0, 1] == 0.0 and rep.matrix[1, 1] == 1.0

    def test_constant_columns_found_by_value(self):
        # the mean of three 0.1s is not 0.1: centring left noise that scaling blew up to r = 1
        X = np.column_stack([[0.1, 0.1, 0.1], [0.1, 0.1, 0.1], [1.0, 2.0, 4.0]])
        rep = pearson_matrix(X, 0.5, -0.4)
        assert rep.zero_variance_columns == [0, 1]
        assert rep.matrix[0, 1] == 0.0 and rep.matrix[0, 2] == 0.0 and rep.matrix[0, 0] == 1.0
        assert rep.engineered_pairs.tolist() == [] and rep.flagged_pairs.tolist() == []

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            pearson_matrix(np.ones((1, 2)), 0.5, -0.4)

    @given(finite_matrices)
    @settings(max_examples=50)
    def test_bounded(self, X):
        r = pearson_matrix(X, 0.5, -0.4).matrix
        assert (np.abs(r) <= 1 + 1e-12).all()
        assert np.allclose(r, r.T)

    def test_bounded_on_a_column_of_tiny_values(self):
        # squares of 1e-156 are subnormal; they made this r 1.0000000000044713
        X = np.zeros((6, 4))
        X[5, 0], X[5, 1] = 1.0, 1.0191897999465152e-156
        r = pearson_matrix(X, 0.5, -0.4).matrix
        assert (np.abs(r) <= 1 + 1e-12).all()
        assert r[0, 1] == pytest.approx(1.0, abs=1e-15)

    def test_affine_invariance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        X2 = X.copy()
        X2[:, 0] = 3.5 * X2[:, 0] + 11.0
        assert np.allclose(pearson_matrix(X, 0.5, -0.4).matrix, pearson_matrix(X2, 0.5, -0.4).matrix, atol=1e-9)


def _engineer_from(X, matrix, hi, lo):
    """``engineer_features`` on a hand-written correlation matrix: X with the
    pair means, and the engineered and flagged pairs."""
    engineered, flagged = choose_pairs(np.asarray(matrix, dtype=float), hi, lo)
    return append_pair_means(X, engineered), engineered, flagged


class TestEngineerFeatures:
    def test_no_pairs_unchanged(self):
        X = np.random.default_rng(1).normal(size=(10, 3))
        X2, rep = engineer_features(X, hi=0.999999, lo=-0.999999)
        assert np.array_equal(X, X2)
        assert rep.engineered_pairs.tolist() == []

    def test_duplicate_columns_mean(self):
        a = np.array([0.1, 0.5, 0.9, 0.3])
        X = np.column_stack([a, a])
        X2, rep = engineer_features(X, 0.5, -0.4)
        assert X2.shape[1] == 3
        assert np.allclose(X2[:, 2], a)
        assert rep.engineered_pairs.tolist() == [[0, 1]]

    def test_pair_selection_and_order(self):
        matrix = [[1.0, 0.9, 0.6], [0.9, 1.0, 0.3], [0.6, 0.3, 1.0]]
        X = np.random.default_rng(2).uniform(size=(6, 3))
        X2, engineered, _ = _engineer_from(X, matrix, hi=0.5, lo=-0.4)
        assert engineered.tolist() == [[0, 1], [0, 2]]
        assert X2.shape[1] == 5
        assert np.allclose(X2[:, 3], (X[:, 0] + X[:, 1]) / 2)
        assert np.allclose(X2[:, 4], (X[:, 0] + X[:, 2]) / 2)

    def test_thresholds_strict(self):
        matrix = [[1.0, 0.5, -0.4], [0.5, 1.0, 0.0], [-0.4, 0.0, 1.0]]
        X = np.zeros((4, 3))
        _, engineered, flagged = _engineer_from(X, matrix, 0.5, -0.4)
        assert engineered.tolist() == [] and flagged.tolist() == []

    def test_flagged_not_dropped(self):
        matrix = [[1.0, -0.8], [-0.8, 1.0]]
        X = np.ones((4, 2))
        X2, _, flagged = _engineer_from(X, matrix, 0.5, -0.4)
        assert X2.shape[1] == 2
        assert flagged.tolist() == [[0, 1]]


def reference_pairs(matrix, hi, lo):
    """The double loop the (k, 2) pair arrays replaced: (i, j, r) triples."""
    engineered, flagged = [], []
    m = matrix.shape[0]
    for i in range(m):
        for j in range(i + 1, m):
            r = float(matrix[i, j])
            if r > hi:
                engineered.append((i, j, r))
            elif r < lo:
                flagged.append((i, j, r))
    return engineered, flagged


def reference_pair_means(X, pairs):
    """Pair means stacked as separate columns, as before the preallocated result."""
    X = np.asarray(X, dtype=float)
    if not pairs:
        return X
    return np.column_stack([X] + [(X[:, i] + X[:, j]) / 2.0 for i, j, *_ in pairs])


def reference_correlation_json(names, hi, lo, engineered, flagged, zero_variance):
    """The correlation document written from (i, j, r) triples."""

    def pair_doc(p):
        i, j, r = p
        return {"i": int(i), "j": int(j), "feature_i": names[i], "feature_j": names[j], "r": float(r)}

    return {
        "hi_threshold": hi,
        "lo_threshold": lo,
        "engineered": [pair_doc(p) for p in engineered],
        "flagged": [pair_doc(p) for p in flagged],
        "zero_variance_columns": list(zero_variance),
    }


thresholds = st.one_of(st.sampled_from([0.5, -0.4, 0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))


@st.composite
def pair_problems(draw):
    """(X, symmetric matrix, hi, lo): entries drawn to sit exactly at hi or lo
    often, and lo > hi in about half the draws."""
    m = draw(st.integers(1, 7))
    hi, lo = draw(thresholds), draw(thresholds)
    values = st.one_of(st.just(hi), st.just(lo), st.floats(-1.0, 1.0), st.floats(-2.0, 2.0))
    upper = draw(hnp.arrays(np.float64, (m, m), elements=values))
    matrix = np.where(np.triu(np.ones((m, m), dtype=bool), 1), upper, upper.T)
    np.fill_diagonal(matrix, 1.0)
    X = draw(hnp.arrays(np.float64, (draw(st.integers(0, 6)), m), elements=st.floats(-1e6, 1e6)))
    return X, matrix, hi, lo


class TestSinglePairForm:
    @given(pair_problems())
    def test_engineer_features_matches_the_double_loop(self, problem):
        X, matrix, hi, lo = problem
        X2, got_engineered, got_flagged = _engineer_from(X, matrix, hi, lo)
        engineered, flagged = reference_pairs(matrix, hi, lo)
        assert got_engineered.shape == (len(engineered), 2)
        assert got_flagged.shape == (len(flagged), 2)
        assert got_engineered.tolist() == [[i, j] for i, j, _ in engineered]
        assert got_flagged.tolist() == [[i, j] for i, j, _ in flagged]
        expected = reference_pair_means(X, engineered)
        assert X2.shape == expected.shape and X2.tobytes() == expected.tobytes()

    @given(pair_problems(), st.data())
    def test_append_pair_means_matches_column_stack(self, problem, data):
        X, matrix, _, _ = problem
        m = matrix.shape[0]
        pairs = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)), max_size=6))
        got = append_pair_means(X, np.array(pairs, dtype=np.intp).reshape(-1, 2))
        expected = reference_pair_means(X, pairs)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    @given(pair_problems())
    def test_correlation_json_matches_the_triples_document(self, problem):
        X, matrix, hi, lo = problem
        rep = CorrelationReport(matrix, [0], *choose_pairs(matrix, hi, lo))
        engineered, flagged = reference_pairs(matrix, hi, lo)
        expected = reference_correlation_json(FEATURE_NAMES, hi, lo, engineered, flagged, [0])
        assert correlation_to_json(rep, hi, lo) == expected


class TestSmote:
    def test_balanced_identity(self, stream):
        X = np.random.default_rng(3).normal(size=(9, 2))
        y = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        X2, y2 = smote(X, y, 5, stream)
        assert np.array_equal(X2, X) and np.array_equal(y2, y)

    def test_segment_geometry(self, stream):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [6.0, 5.0], [5.0, 6.0], [6.0, 6.0]])
        y = np.array([0, 0, 1, 1, 1, 1])
        X2, y2 = smote(X, y, 1, stream)
        assert np.bincount(y2).tolist() == [4, 4]
        assert np.array_equal(X2[:6], X)
        synth = X2[6:]
        assert (y2[6:] == 0).all()
        # members of class 0 sit on the diagonal, so synthetics must too
        assert np.allclose(synth[:, 0], synth[:, 1])
        assert (synth >= 0).all() and (synth < 1 + 1e-12).all()

    def test_paper_scale_counts(self):
        d = synth_generate(1000, 4, (0.303, 0.332, 0.365))
        X2, y2 = smote(d.X, d.y, 5, RngStream(1))
        assert np.bincount(y2).tolist() == [365, 365, 365]
        assert len(y2) == 1095
        assert np.array_equal(X2[:1000], d.X)

    def test_small_class_errors(self, stream):
        X = np.zeros((4, 2))
        y = np.array([0, 1, 1, 1])
        with pytest.raises(ValueError, match="class too small for SMOTE"):
            smote(X, y, 5, stream)

    @pytest.mark.parametrize("block_cells", [1, 6 * 300 * 7, 1 << 20])
    def test_blocked_neighbours_match_dense_search(self, monkeypatch, block_cells):
        # a coarse non-dyadic grid: many exactly tied distances, which the
        # Gram form ||a||^2 + ||b||^2 - 2ab would round apart and reorder
        X = np.random.default_rng(3).integers(0, 4, size=(300, 6)) * 0.1 + 0.7
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        dense = np.argsort(d2, axis=1, kind="stable")[:, :5]
        monkeypatch.setattr(preprocess, "_NEIGHBOUR_BLOCK_CELLS", block_cells)
        assert np.array_equal(preprocess._nearest_neighbours(X, 5), dense)

    def test_deterministic(self):
        X = np.random.default_rng(5).normal(size=(12, 3))
        y = np.array([0] * 3 + [1] * 4 + [2] * 5)
        a = smote(X, y, 2, RngStream(10))
        b = smote(X, y, 2, RngStream(10))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def dense_neighbours(X, k):
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return np.argsort(d2, axis=1, kind="stable")[:, :k]


@st.composite
def neighbour_problems(draw):
    """(X, k, block cells): continuous rows, coarse tied grids or few distinct
    rows, optionally shifted near 1e6 or given mixed column scales."""
    count = draw(st.integers(2, 40))
    dim = draw(st.integers(1, 6))
    base = draw(st.sampled_from(["continuous", "grid", "duplicates"]))
    if base == "continuous":
        X = draw(hnp.arrays(np.float64, (count, dim), elements=st.floats(-1e3, 1e3)))
    elif base == "grid":
        steps = draw(hnp.arrays(np.int64, (count, dim), elements=st.integers(0, 3)))
        X = steps * draw(st.sampled_from([0.1, 0.3, 1 / 3, 0.7])) + 0.7
    else:
        patterns = draw(st.integers(1, 5))
        pool = draw(hnp.arrays(np.float64, (patterns, dim), elements=st.floats(0, 1)))
        X = pool[draw(hnp.arrays(np.int64, count, elements=st.integers(0, patterns - 1)))]
    transform = draw(st.sampled_from(["none", "near_1e6", "mixed_scales"]))
    if transform == "near_1e6":
        X = X * 1e-3 + 1e6
    elif transform == "mixed_scales":
        scale = st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6])
        X = X * draw(hnp.arrays(np.float64, dim, elements=scale))
    k = draw(st.one_of(st.just(count - 1), st.integers(1, count - 1)))
    cells = draw(st.sampled_from([1, 7, 64, 1 << 20]))
    return X, k, cells


class TestNearestNeighbours:
    @settings(max_examples=300, deadline=None)
    @given(neighbour_problems())
    def test_matches_dense_stable_argsort(self, problem):
        X, k, cells = problem
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(preprocess, "_NEIGHBOUR_BLOCK_CELLS", cells)
            got = preprocess._nearest_neighbours(X, k)
        assert np.array_equal(got, dense_neighbours(X, k))

    def test_same_indices_on_one_and_two_blas_threads(self, tmp_path):
        # the Gram-form filter is a BLAS product, whose rounding may depend
        # on how the product is split over threads
        d = synth_generate(3000, 61, (0.303, 0.332, 0.365))
        X = apply_minmax(d.X, fit_minmax(d.X))
        X, _ = engineer_features(X, 0.5, -0.4)
        X = X[d.y == 1]
        np.save(tmp_path / "X.npy", X)
        code = (
            "import sys, numpy as np; import oncograde.preprocess as p; "
            "X = np.load(sys.argv[1]); "
            "sys.stdout.write(p._nearest_neighbours(X, 5).tobytes().hex())"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            src = os.path.dirname(os.path.dirname(preprocess.__file__))
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", code, str(tmp_path / "X.npy")],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] and outputs[0] == outputs[1]
        assert outputs[0] == preprocess._nearest_neighbours(X, 5).tobytes().hex()


class TestStratifiedSplit:
    def test_paper_arithmetic(self):
        y = np.repeat([0, 1, 2], 365)
        split = stratified_split(y, 0.2, RngStream(0))
        assert len(split.train) == 876 and len(split.test) == 219
        for cls in range(3):
            assert sum(1 for i in split.test if y[i] == cls) == 73

    def test_single_class_rounding(self):
        split = stratified_split(np.zeros(10, dtype=int), 0.2, RngStream(1))
        assert len(split.train) == 8 and len(split.test) == 2

    def test_deterministic(self):
        y = np.repeat([0, 1, 2], 20)
        a = stratified_split(y, 0.25, RngStream(6))
        b = stratified_split(y, 0.25, RngStream(6))
        assert a.train == b.train and a.test == b.test

    def test_partition_property(self):
        y = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2, 2, 1])
        split = stratified_split(y, 0.3, RngStream(2))
        assert sorted(split.train + split.test) == list(range(len(y)))
        assert set(split.train).isdisjoint(split.test)

    def test_min_one_test_sample(self):
        y = np.array([0, 0, 1, 1, 2, 2])
        split = stratified_split(y, 0.05, RngStream(3))
        for cls in range(3):
            assert sum(1 for i in split.test if y[i] == cls) == 1

    @pytest.mark.parametrize("fraction, side", [(0.2, "test"), (0.5, "training")])
    def test_split_with_an_empty_side_is_refused(self, fraction, side):
        # one row per class: each row goes wholly to one side
        with pytest.raises(ValueError, match=f"^the split leaves no {side} rows: every class has a single row$"):
            stratified_split(np.array([0, 1, 2]), fraction, RngStream(0))


class TestRunPipeline:
    def test_paper_order_arithmetic(self):
        d = synth_generate(1000, 42, (0.303, 0.332, 0.365))
        prep = run_pipeline(d, PreprocessConfig(), RngStream(42).derive(1))
        assert prep.X_train.shape[0] == 876
        assert prep.X_test.shape[0] == 219
        p = prep.preprocessor
        assert len(FEATURE_NAMES) + len(p.pairs) == prep.X_train.shape[1]

    def test_leak_safe_no_synthetic_test_rows(self):
        d = synth_generate(300, 8, (0.2, 0.3, 0.5))
        prep = run_pipeline(d, PreprocessConfig("leak_safe"), RngStream(8).derive(1))
        # every test row must be an original (scaled+engineered) dataset row
        scaled = apply_minmax(d.X, prep.preprocessor.minmax)
        originals = append_pair_means(scaled, prep.preprocessor.pairs)
        for row in prep.X_test:
            assert (np.abs(originals - row) < 1e-12).all(axis=1).any()
        # train is balanced by SMOTE
        counts = np.bincount(prep.y_train)
        assert counts.min() == counts.max()

    def test_deterministic(self):
        d = synth_generate(200, 3)
        for order in ("paper_order", "leak_safe"):
            a = run_pipeline(d, PreprocessConfig(order), RngStream(3).derive(1))
            b = run_pipeline(d, PreprocessConfig(order), RngStream(3).derive(1))
            assert np.array_equal(a.X_train, b.X_train)
            assert np.array_equal(a.X_test, b.X_test)

    def test_unknown_order(self):
        with pytest.raises(ValueError, match="order must be"):
            PreprocessConfig("bogus")


class TestPreprocessor:
    @pytest.mark.parametrize("order", PIPELINE_ORDERS)
    def test_dict_roundtrip_transforms_bit_for_bit(self, order):
        d = synth_generate(200, 4)
        fitted = run_pipeline(d, PreprocessConfig(order), RngStream(4).derive(1)).preprocessor
        assert len(fitted.pairs)
        doc = json.loads(json.dumps(fitted.to_dict()))
        assert list(doc) == ["minmax", "engineered_pairs"]  # the settings it was fitted with are the config's
        restored = Preprocessor.from_dict(doc)
        assert restored.to_dict() == doc
        assert restored.transform(d.X).tobytes() == fitted.transform(d.X).tobytes()

    def test_fit_resample_keeps_transformed_rows_first(self):
        d = synth_generate(200, 4, (0.2, 0.3, 0.5))
        prep, X, y = Preprocessor.fit_resample(d.X, d.y, PreprocessConfig(smote_k=3), RngStream(4).derive(1))
        assert X[: d.n_rows].tobytes() == prep.transform(d.X).tobytes()
        assert np.array_equal(y[: d.n_rows], d.y)
        assert np.bincount(y).min() == np.bincount(y).max()


class TestReportSerialization:
    def test_csv_layout(self):
        X = np.random.default_rng(1).normal(size=(40, len(FEATURE_NAMES)))
        rep = pearson_matrix(X, 0.5, -0.4)
        text = correlation_to_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(["", *FEATURE_NAMES])
        assert len(lines) == len(FEATURE_NAMES) + 1
        assert lines[1].split(",")[0] == FEATURE_NAMES[0]
        assert float(lines[1].split(",")[1]) == 1.0

    def test_json_pairs(self):
        matrix = np.array([[1.0, 0.7, -0.6], [0.7, 1.0, 0.1], [-0.6, 0.1, 1.0]])
        rep = CorrelationReport(matrix, [], *choose_pairs(matrix, 0.5, -0.4))
        doc = correlation_to_json(rep, 0.5, -0.4)
        assert doc["engineered"][0]["feature_i"] == FEATURE_NAMES[0]
        assert doc["engineered"][0]["feature_j"] == FEATURE_NAMES[1]
        assert doc["flagged"][0]["r"] == -0.6
        assert doc["hi_threshold"] == 0.5
