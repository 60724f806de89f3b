import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oncograde.core import RngStream
from oncograde.dataset import synth_generate
from oncograde.eval import (
    confusion,
    confusion_to_csv,
    curve_to_csv,
    cv_to_csv,
    cv_to_json,
    kfold_cv,
    learning_curve,
    metrics,
    stratified_folds,
    sweep,
    sweep_to_csv,
)
from oncograde.eval import _stratified_subset
from oncograde.models import Hyperparams, ModelSpec

FAST_TREEISH = ModelSpec("bagging", Hyperparams(n_estimators=3, max_depth=3))

labels3 = st.lists(st.integers(0, 2), min_size=1, max_size=60)


class TestConfusion:
    def test_identity(self):
        cm = confusion([0, 1, 2], [0, 1, 2])
        assert np.array_equal(cm, np.eye(3, dtype=int))

    def test_hand_tally(self):
        cm = confusion([0, 0, 1, 1, 2, 2], [0, 1, 1, 1, 2, 0])
        assert cm.tolist() == [[1, 1, 0], [0, 2, 0], [1, 0, 1]]

    def test_empty(self):
        cm = confusion([], [])
        assert cm.sum() == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            confusion([0, 1], [0])

    def test_out_of_range_label(self):
        with pytest.raises(ValueError, match="labels"):
            confusion([0, 3], [0, 0])

    @given(labels3, st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_matches_per_row_tally(self, y_true, seed):
        y_pred = np.random.default_rng(seed).integers(0, 3, len(y_true)).tolist()
        expected = np.zeros((3, 3), dtype=np.int64)
        for t, p in zip(y_true, y_pred):
            expected[t, p] += 1
        assert np.array_equal(confusion(y_true, y_pred), expected)


class TestMetrics:
    def test_perfect(self):
        rep = metrics(confusion([0, 1, 2], [0, 1, 2]))
        assert rep.accuracy == 1.0
        assert rep.macro_f1 == 1.0

    def test_hand_arithmetic(self):
        rep = metrics(confusion([0, 0, 1, 1, 2, 2], [0, 1, 1, 1, 2, 0]))
        assert rep.accuracy == pytest.approx(4 / 6, abs=1e-12)
        assert rep.precision_per_class == pytest.approx([0.5, 2 / 3, 1.0])
        assert rep.recall_per_class == pytest.approx([0.5, 1.0, 0.5])
        assert rep.macro_f1 == pytest.approx((0.5 + 0.8 + 2 / 3) / 3, abs=1e-4)
        assert rep.support == [2, 2, 2]

    def test_absent_class_zero_convention(self):
        rep = metrics(confusion([0, 0, 1], [0, 0, 1]))
        assert rep.precision_per_class[2] == 0.0
        assert rep.recall_per_class[2] == 0.0
        assert rep.f1_per_class[2] == 0.0

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="empty evaluation"):
            metrics(np.zeros((3, 3), dtype=int))

    @given(labels3, st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_accuracy_oracle(self, y_true, seed):
        rng = np.random.default_rng(seed)
        y_pred = rng.integers(0, 3, len(y_true)).tolist()
        rep = metrics(confusion(y_true, y_pred))
        direct = float(np.mean([t == p for t, p in zip(y_true, y_pred)]))
        assert rep.accuracy == pytest.approx(direct, abs=1e-12)

    def test_macro_invariant_under_class_relabeling(self):
        y_true = [0, 0, 1, 1, 2, 2, 0, 1]
        y_pred = [0, 1, 1, 2, 2, 0, 0, 1]
        base = metrics(confusion(y_true, y_pred))
        perm = {0: 2, 1: 0, 2: 1}
        rep = metrics(confusion([perm[t] for t in y_true], [perm[p] for p in y_pred]))
        assert rep.macro_precision == pytest.approx(base.macro_precision, abs=1e-12)
        assert rep.macro_recall == pytest.approx(base.macro_recall, abs=1e-12)
        assert rep.macro_f1 == pytest.approx(base.macro_f1, abs=1e-12)


class TestKfold:
    def test_balanced_1095_fold_sizes(self):
        y = np.repeat([0, 1, 2], 365)
        folds = stratified_folds(y, 5, RngStream(1))
        assert [len(f) for f in folds] == [219] * 5
        for fold in folds:
            counts = np.bincount(y[fold], minlength=3)
            assert counts.tolist() == [73, 73, 73]

    def test_fold_partition(self):
        y = np.array([0] * 7 + [1] * 9 + [2] * 6)
        folds = stratified_folds(y, 3, RngStream(2))
        flat = sorted(i for f in folds for i in f)
        assert flat == list(range(len(y)))
        sizes = [len(f) for f in folds]
        assert max(sizes) - min(sizes) <= 1

    def test_two_fold_stratification_forced(self):
        folds = stratified_folds(np.array([0, 0, 1, 1]), 2, RngStream(3))
        for fold in folds:
            assert sorted(np.bincount(np.array([0, 0, 1, 1])[fold], minlength=2)[:2]) == [1, 1]

    def test_class_smaller_than_k(self):
        with pytest.raises(ValueError, match="class 2 has 1 samples"):
            stratified_folds(np.array([0, 0, 1, 1, 2]), 2, RngStream(0))

    def test_cv_deterministic(self):
        d = synth_generate(90, 4)
        a = kfold_cv(d.X, d.y, FAST_TREEISH, 3, RngStream(5))
        b = kfold_cv(d.X, d.y, FAST_TREEISH, 3, RngStream(5))
        assert a.mean == b.mean and a.std == b.std
        assert [r.accuracy for r in a.per_fold] == [r.accuracy for r in b.per_fold]

    def test_cv_aggregates(self):
        d = synth_generate(90, 8)
        res = kfold_cv(d.X, d.y, FAST_TREEISH, 3, RngStream(6))
        accs = [r.accuracy for r in res.per_fold]
        assert res.mean["accuracy"] == pytest.approx(float(np.mean(accs)))
        assert res.std["accuracy"] == pytest.approx(float(np.std(accs)))
        assert res.k == 3 and len(res.fold_sizes) == 3

    def test_bad_k(self):
        with pytest.raises(ValueError, match="k must be"):
            kfold_cv(np.zeros((4, 2)), np.array([0, 1, 2, 0]), FAST_TREEISH, 1, RngStream(0))


class TestLearningCurve:
    def test_full_fraction_matches_manual_run(self):
        d = synth_generate(100, 12)
        stream = RngStream(77)
        curve = learning_curve(d.X, d.y, FAST_TREEISH, [1.0], repeats=1, stream=stream)

        from oncograde.preprocess import stratified_split

        split = stratified_split(d.y, 0.2, RngStream(77).derive(0))
        cell = RngStream(77).derive(1)
        subset = _stratified_subset(d.y, split.train, 1.0, cell)
        model = FAST_TREEISH.train(d.X[subset], d.y[subset], cell, d.X[split.test], d.y[split.test])
        manual_val = float((model.predict(d.X[split.test]) == d.y[split.test]).mean())
        assert curve.val_score[0] == pytest.approx(manual_val, abs=1e-12)

    def test_fractions_must_increase(self):
        d = synth_generate(60, 1)
        with pytest.raises(ValueError, match="strictly increasing"):
            learning_curve(d.X, d.y, FAST_TREEISH, [0.5, 0.5], repeats=1, stream=RngStream(0))

    def test_fraction_out_of_range(self):
        d = synth_generate(60, 1)
        with pytest.raises(ValueError, match="fractions"):
            learning_curve(d.X, d.y, FAST_TREEISH, [0.0, 0.5], repeats=1, stream=RngStream(0))

    def test_scores_bounded_and_aligned(self):
        d = synth_generate(100, 3)
        curve = learning_curve(d.X, d.y, FAST_TREEISH, [0.4, 0.7, 1.0], repeats=2, stream=RngStream(4))
        assert len(curve.train_score) == len(curve.val_score) == 3
        assert all(0 <= v <= 1 for v in curve.train_score + curve.val_score)
        assert curve.repeats == 2

    def test_too_small_fraction_errors(self):
        y = np.array([0] * 40 + [1] * 40 + [2] * 2)
        X = np.random.default_rng(0).normal(size=(82, 2))
        with pytest.raises(ValueError, match="too small"):
            learning_curve(X, y, FAST_TREEISH, [0.05, 1.0], repeats=1, stream=RngStream(1))


class TestSweep:
    def test_single_cell_equals_plain_run(self):
        d = synth_generate(80, 9)
        res = sweep(d.X, d.y, FAST_TREEISH, [0.01], [1.0], RngStream(11))

        from oncograde.preprocess import stratified_split

        cell = RngStream(11).derive(0)
        split = stratified_split(d.y, 0.2, cell)
        spec = FAST_TREEISH.with_hyperparams(learning_rate=0.01, min_child_weight=1.0)
        model = spec.train(d.X[split.train], d.y[split.train], cell, d.X[split.test], d.y[split.test])
        manual = float((model.predict(d.X[split.test]) == d.y[split.test]).mean())
        assert res.val_grid[0, 0] == pytest.approx(manual, abs=1e-12)

    def test_svm_min_child_weight_axis_inactive(self):
        d = synth_generate(80, 10)
        spec = ModelSpec("svm_linear")
        res = sweep(d.X, d.y, spec, [0.01], [1.0, 5.0, 10.0], RngStream(12))
        assert res.inactive_axes == ["min_child_weight"]
        assert (res.val_grid == res.val_grid[0, 0]).all()

    def test_svm_both_axes_inactive_when_swept(self):
        d = synth_generate(80, 10)
        res = sweep(d.X, d.y, ModelSpec("svm_linear"), [0.01, 0.1], [1.0, 5.0], RngStream(12))
        assert set(res.inactive_axes) == {"learning_rate", "min_child_weight"}

    def test_mcw_active_for_trees(self):
        d = synth_generate(120, 13)
        res = sweep(d.X, d.y, FAST_TREEISH, [0.01], [1.0, 30.0], RngStream(13))
        assert "min_child_weight" not in res.inactive_axes

    def test_deterministic(self):
        d = synth_generate(80, 14)
        a = sweep(d.X, d.y, FAST_TREEISH, [0.01, 0.1], [1.0, 4.0], RngStream(15))
        b = sweep(d.X, d.y, FAST_TREEISH, [0.01, 0.1], [1.0, 4.0], RngStream(15))
        assert np.array_equal(a.train_grid, b.train_grid)
        assert np.array_equal(a.val_grid, b.val_grid)

    def test_empty_axis_errors(self):
        d = synth_generate(60, 1)
        with pytest.raises(ValueError, match="non-empty"):
            sweep(d.X, d.y, FAST_TREEISH, [], [1.0], RngStream(0))


class TestArtifactFormats:
    def test_confusion_csv_header(self):
        cm = confusion([0, 1, 2], [0, 1, 2])
        text = confusion_to_csv(cm)
        lines = text.strip().split("\n")
        assert lines[0] == "true\\pred,Low,Medium,High"
        assert lines[1] == "Low,1,0,0"

    def test_curve_csv(self):
        d = synth_generate(80, 2)
        curve = learning_curve(d.X, d.y, FAST_TREEISH, [0.5, 1.0], repeats=1, stream=RngStream(1))
        lines = curve_to_csv(curve).strip().split("\n")
        assert lines[0] == "fraction,train_score,val_score"
        assert len(lines) == 3

    def test_sweep_csv(self):
        d = synth_generate(80, 2)
        res = sweep(d.X, d.y, FAST_TREEISH, [0.01, 0.1], [1.0], RngStream(2))
        lines = sweep_to_csv(res).strip().split("\n")
        assert lines[0] == "learning_rate,min_child_weight,train_accuracy,val_accuracy"
        assert len(lines) == 3

    def test_cv_serializers(self):
        d = synth_generate(90, 3)
        res = kfold_cv(d.X, d.y, FAST_TREEISH, 3, RngStream(3))
        lines = cv_to_csv(res).strip().split("\n")
        assert lines[0].startswith("fold,size,accuracy")
        assert len(lines) == 4
        doc = cv_to_json(res)
        assert doc["k"] == 3
        assert set(doc["mean"]) == {"accuracy", "macro_precision", "macro_recall", "macro_f1"}
        assert len(doc["per_fold"]) == 3
        assert set(doc["per_fold"][0]) == {
            "accuracy",
            "precision_per_class",
            "recall_per_class",
            "f1_per_class",
            "macro_precision",
            "macro_recall",
            "macro_f1",
            "support",
        }
