import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oncograde.core import RngStream
from oncograde.dataset import synth_generate
from oncograde.eval import (
    EvalConfig,
    SweepConfig,
    confusion,
    confusion_to_csv,
    curve_to_csv,
    cv_to_csv,
    kfold_cv,
    learning_curve,
    metrics,
    stratified_folds,
    sweep,
    sweep_to_csv,
)
import oncograde.eval as ev
from oncograde.eval import _stratified_subset
from oncograde.models.base import HYPERPARAMS_READ, MODEL_NAMES, Hyperparams, ModelSpec, model_to_doc

FAST_TREEISH = ModelSpec("bagging", Hyperparams(n_estimators=3, max_depth=3))



def curve_settings(fractions, repeats):
    return EvalConfig(curve_fractions=fractions, curve_repeats=repeats)


def sweep_settings(learning_rates, min_child_weights):
    return EvalConfig(sweep=SweepConfig(learning_rates, min_child_weights))


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

    @given(labels3, st.integers(0, 10**6))
    @settings(max_examples=60)
    def test_matches_per_row_tally(self, y_true, seed):
        y_pred = np.random.default_rng(seed).integers(0, 3, len(y_true)).tolist()
        expected = np.zeros((3, 3), dtype=np.int64)
        for t, p in zip(y_true, y_pred):
            expected[t, p] += 1
        assert np.array_equal(confusion(y_true, y_pred), expected)


def scalar_metrics(counts) -> dict:
    """``metrics`` as a loop over the classes, one float at a time: the reference
    the array arithmetic must match bit for bit."""
    total = counts.sum()
    precision, recall, f1 = [], [], []
    for c in range(3):
        col = counts[:, c].sum()
        row = counts[c, :].sum()
        p = float(counts[c, c] / col) if col else 0.0
        r = float(counts[c, c] / row) if row else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(2 * p * r / (p + r) if (p + r) else 0.0)
    return {
        "accuracy": float(np.trace(counts) / total),
        "precision_per_class": precision,
        "recall_per_class": recall,
        "f1_per_class": f1,
        "macro_precision": float(np.mean(precision)),
        "macro_recall": float(np.mean(recall)),
        "macro_f1": float(np.mean(f1)),
        "support": [int(v) for v in counts.sum(axis=1)],
    }


class TestMetrics:
    @given(st.lists(st.integers(0, 400), min_size=9, max_size=9), st.sets(st.integers(0, 2), max_size=2))
    @settings(max_examples=300)
    def test_matches_the_scalar_loop(self, cells, empty_predicted):
        counts = np.array(cells, dtype=np.int64).reshape(3, 3)
        counts[:, sorted(empty_predicted)] = 0  # a class never predicted has no precision
        if counts.sum() == 0:
            counts[0, 0] = 1
        got = json.dumps(dataclasses.asdict(metrics(counts)))
        assert got == json.dumps(scalar_metrics(counts))

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
        a = kfold_cv(d.X, d.y, FAST_TREEISH, EvalConfig(k=3), RngStream(5))
        b = kfold_cv(d.X, d.y, FAST_TREEISH, EvalConfig(k=3), RngStream(5))
        assert a.mean == b.mean and a.std == b.std
        assert [r.accuracy for r in a.per_fold] == [r.accuracy for r in b.per_fold]

    def test_cv_aggregates(self):
        d = synth_generate(90, 8)
        res = kfold_cv(d.X, d.y, FAST_TREEISH, EvalConfig(k=3), RngStream(6))
        accs = [r.accuracy for r in res.per_fold]
        assert res.mean["accuracy"] == pytest.approx(float(np.mean(accs)))
        assert res.std["accuracy"] == pytest.approx(float(np.std(accs)))
        assert res.k == 3 and len(res.fold_sizes) == 3

    def test_bad_k(self):
        with pytest.raises(ValueError, match="k must be"):
            EvalConfig(k=1)


class TestLearningCurve:
    def test_full_fraction_matches_manual_run(self):
        d = synth_generate(100, 12)
        stream = RngStream(77)
        curve = learning_curve(d.X, d.y, FAST_TREEISH, curve_settings([1.0], 1), stream)

        from oncograde.preprocess import stratified_split

        split = stratified_split(d.y, 0.2, RngStream(77).derive(0))
        cell = RngStream(77).derive(1)
        subset = _stratified_subset(d.y, split.train, 1.0, cell)
        model = FAST_TREEISH.train(d.X[subset], d.y[subset], cell, d.X[split.test], d.y[split.test])
        manual_val = float((model.predict(d.X[split.test]) == d.y[split.test]).mean())
        assert curve.val_score[0] == pytest.approx(manual_val, abs=1e-12)

    def test_each_score_is_the_mean_of_its_repeats(self):
        # from 8 repeats on, numpy sums a list pairwise, so the mean must add
        # the repeats in the same order as np.mean of the per-repeat scores
        d = synth_generate(100, 5)
        fractions, repeats = [0.5, 1.0], 9
        curve = learning_curve(d.X, d.y, FAST_TREEISH, curve_settings(fractions, repeats), RngStream(8))

        from oncograde.preprocess import stratified_split

        split = stratified_split(d.y, 0.2, RngStream(8).derive(0))
        train, val = [[] for _ in fractions], [[] for _ in fractions]
        for cell in range(repeats * len(fractions)):
            fi = cell % len(fractions)
            stream = RngStream(8).derive(1 + cell)
            subset = _stratified_subset(d.y, split.train, fractions[fi], stream)
            model = FAST_TREEISH.train(d.X[subset], d.y[subset], stream, d.X[split.test], d.y[split.test])
            train[fi].append(float((model.predict(d.X[subset]) == d.y[subset]).mean()))
            val[fi].append(float((model.predict(d.X[split.test]) == d.y[split.test]).mean()))
        assert curve.train_score == [float(np.mean(scores)) for scores in train]
        assert curve.val_score == [float(np.mean(scores)) for scores in val]

    def test_fractions_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            EvalConfig(curve_fractions=[0.5, 0.5])

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError, match="fractions"):
            EvalConfig(curve_fractions=[0.0, 0.5])

    def test_scores_bounded_and_aligned(self):
        d = synth_generate(100, 3)
        curve = learning_curve(d.X, d.y, FAST_TREEISH, curve_settings([0.4, 0.7, 1.0], 2), RngStream(4))
        assert len(curve.train_score) == len(curve.val_score) == 3
        assert all(0 <= v <= 1 for v in curve.train_score + curve.val_score)

    def test_too_small_fraction_errors(self):
        y = np.array([0] * 40 + [1] * 40 + [2] * 2)
        X = np.random.default_rng(0).normal(size=(82, 2))
        with pytest.raises(ValueError, match="too small"):
            learning_curve(X, y, FAST_TREEISH, curve_settings([0.05, 1.0], 1), RngStream(1))


class TestSweep:
    def test_single_cell_equals_plain_run(self):
        d = synth_generate(80, 9)
        res = sweep(d.X, d.y, FAST_TREEISH, sweep_settings([0.01], [1.0]), RngStream(11))

        from oncograde.preprocess import stratified_split

        cell = RngStream(11).derive(0)
        split = stratified_split(d.y, 0.2, cell)
        spec = FAST_TREEISH.with_hyperparams(learning_rate=0.01, min_child_weight=1.0)
        model = spec.train(d.X[split.train], d.y[split.train], cell, d.X[split.test], d.y[split.test])
        manual = float((model.predict(d.X[split.test]) == d.y[split.test]).mean())
        assert res.val_grid[0, 0] == pytest.approx(manual, abs=1e-12)
        assert res.inactive_axes == []

    def test_svm_min_child_weight_axis_inactive(self):
        d = synth_generate(80, 10)
        spec = ModelSpec("svm_linear")
        res = sweep(d.X, d.y, spec, sweep_settings([0.01], [1.0, 5.0, 10.0]), RngStream(12))
        assert res.inactive_axes == ["min_child_weight"]
        assert (res.val_grid == res.val_grid[0, 0]).all()

    def test_svm_both_axes_inactive_when_swept(self):
        d = synth_generate(80, 10)
        res = sweep(d.X, d.y, ModelSpec("svm_linear"), sweep_settings([0.01, 0.1], [1.0, 5.0]), RngStream(12))
        assert res.inactive_axes == ["learning_rate", "min_child_weight"]

    def test_mcw_active_for_trees(self):
        d = synth_generate(120, 13)
        res = sweep(d.X, d.y, FAST_TREEISH, sweep_settings([0.01], [1.0, 30.0]), RngStream(13))
        assert "min_child_weight" not in res.inactive_axes

    def test_deterministic(self):
        d = synth_generate(80, 14)
        a = sweep(d.X, d.y, FAST_TREEISH, sweep_settings([0.01, 0.1], [1.0, 4.0]), RngStream(15))
        b = sweep(d.X, d.y, FAST_TREEISH, sweep_settings([0.01, 0.1], [1.0, 4.0]), RngStream(15))
        assert np.array_equal(a.train_grid, b.train_grid)
        assert np.array_equal(a.val_grid, b.val_grid)

    def test_empty_axis_errors(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepConfig([], [1.0])


# two values of each Hyperparams field far enough apart to change a model that reads it
FIELD_VALUES = {
    "learning_rate": (0.001, 0.1),
    "min_child_weight": (1.0, 30.0),
    "epochs": (5, 3),
    "batch_size": (32, 8),
    "hidden_layers": ([8], [4]),
    "C": (0.1, 0.01),
    "gamma": ("scale", 0.01),
    "degree": (2, 3),
    "coef0": (0.0, 1.0),
    "max_depth": (3, 1),
    "n_estimators": (3, 2),
    "voting_mode": ("hard", "soft"),
}


class TestSweepAxesRead:
    def test_every_model_declares_its_axes(self):
        assert set(HYPERPARAMS_READ) == set(MODEL_NAMES)
        fields = [f.name for f in dataclasses.fields(Hyperparams)]
        assert set(FIELD_VALUES) == set(fields)
        # each entry in field order, and every field read by some model
        assert all(list(reads) == [f for f in fields if f in reads] for reads in HYPERPARAMS_READ.values())
        assert set().union(*HYPERPARAMS_READ.values()) == set(fields)

    @pytest.mark.parametrize("field", list(FIELD_VALUES))
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_declaration_matches_the_trained_model(self, name, field):
        """Two values of a field the declaration leaves out train the same
        model document, and two values of a declared field different ones."""
        d = synth_generate(90, 7)
        # a small C and degree keep the svm machines short on these unscaled rows
        hp = Hyperparams(epochs=5, hidden_layers=[8], C=0.1, degree=2, max_depth=3, n_estimators=3)
        docs = set()
        for value in FIELD_VALUES[field]:
            spec = ModelSpec(name, dataclasses.replace(hp, **{field: value}))
            model = spec.train(d.X[:70], d.y[:70], RngStream(3), d.X[70:], d.y[70:])
            docs.add(json.dumps(model_to_doc(model)))
        assert len(docs) == (2 if field in HYPERPARAMS_READ[name] else 1)

    @pytest.mark.parametrize(
        "name,fits",
        [("dnn", 3), ("bagging", 3), ("voting", 9)] + [(name, 1) for name in MODEL_NAMES if name.startswith("svm_")],
    )
    def test_sweep_trains_each_distinct_model_once(self, monkeypatch, name, fits):
        handed = []

        def count(X, y, cell_fits, score_train=True):
            handed.extend(cell_fits)
            return [(1.0, SimpleNamespace(accuracy=1.0))] * len(cell_fits)

        monkeypatch.setattr(ev, "_fit_and_score", count)
        d = synth_generate(60, 1)
        res = sweep(d.X, d.y, ModelSpec(name), EvalConfig(), RngStream(1))
        assert len(handed) == fits
        assert len({(spec.hyperparams.learning_rate, spec.hyperparams.min_child_weight) for spec, *_ in handed}) == fits
        assert res.val_grid.shape == res.train_grid.shape == (3, 3)

    def test_bagging_min_child_weight_active_when_its_scores_tie(self):
        # both values score alike here, yet train different trees
        d = synth_generate(90, 7)
        res = sweep(d.X, d.y, FAST_TREEISH, sweep_settings([0.01], [1.0, 2.0]), RngStream(7))
        assert res.val_grid[0, 0] == res.val_grid[0, 1]
        assert res.inactive_axes == []


class TestArtifactFormats:
    def test_confusion_csv_header(self):
        cm = confusion([0, 1, 2], [0, 1, 2])
        text = confusion_to_csv(cm)
        lines = text.strip().split("\n")
        assert lines[0] == "true\\pred,Low,Medium,High"
        assert lines[1] == "Low,1,0,0"

    def test_curve_csv(self):
        d = synth_generate(80, 2)
        curve = learning_curve(d.X, d.y, FAST_TREEISH, curve_settings([0.5, 1.0], 1), RngStream(1))
        lines = curve_to_csv(curve).strip().split("\n")
        assert lines[0] == "fraction,train_score,val_score"
        assert len(lines) == 3

    def test_sweep_csv(self):
        d = synth_generate(80, 2)
        res = sweep(d.X, d.y, FAST_TREEISH, sweep_settings([0.01, 0.1], [1.0]), RngStream(2))
        lines = sweep_to_csv(res).strip().split("\n")
        assert lines[0] == "learning_rate,min_child_weight,train_accuracy,val_accuracy"
        assert len(lines) == 3

    def test_cv_serializers(self):
        d = synth_generate(90, 3)
        res = kfold_cv(d.X, d.y, FAST_TREEISH, EvalConfig(k=3), RngStream(3))
        lines = cv_to_csv(res).strip().split("\n")
        assert lines[0].startswith("fold,size,accuracy")
        assert len(lines) == 4
        doc = dataclasses.asdict(res)
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
