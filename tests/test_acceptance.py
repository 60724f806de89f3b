"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from oncograde.cli import main
from oncograde.core import RngStream
from oncograde.dataset import synth_generate
from oncograde.eval import confusion, evaluate_predictions, metrics, stratified_folds
from oncograde.models.base import KernelSpec, ModelSpec
from oncograde.models.svm import kkt_violation, train_svm_binary
from oncograde.preprocess import PreprocessConfig, run_pipeline, smote
from tests.test_mlp import max_relative_grad_error
from tests.test_svm import random_binary_problem

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"


def _report(criterion: int, name: str) -> None:
    print(f"\nACCEPTANCE {criterion} ({name}): PASS")


@pytest.fixture(scope="module")
def full_scale_prep():
    d = synth_generate(1000, 42, (0.303, 0.332, 0.365))
    return run_pipeline(d, PreprocessConfig(), RngStream(42).derive(1))


def test_criterion_1_split_arithmetic():
    started = time.time()
    d = synth_generate(1000, 42, (0.303, 0.332, 0.365))
    X_bal, y_bal = smote(d.X, d.y, 5, RngStream(0))
    assert len(y_bal) == 1095
    assert np.bincount(y_bal).tolist() == [365, 365, 365]

    prep = run_pipeline(d, PreprocessConfig(), RngStream(42).derive(1))
    assert prep.X_train.shape[0] == 876
    assert prep.X_test.shape[0] == 219
    elapsed = time.time() - started
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _report(1, "split arithmetic 876/219")


def test_criterion_2_model_ordering(full_scale_prep, monkeypatch):
    monkeypatch.delenv("ONCOGRADE_THREADS", raising=False)
    started = time.time()
    prep = full_scale_prep
    scores = {}
    for name in ("dnn", "voting", "bagging", "svm_sigmoid"):
        model = ModelSpec(name).train(
            prep.X_train, prep.y_train, RngStream(42).derive(2), prep.X_test, prep.y_test
        )
        _, report = evaluate_predictions(prep.y_test, model.predict(prep.X_test))
        scores[name] = report.macro_f1
    elapsed = time.time() - started

    strong = min(scores["dnn"], scores["voting"], scores["bagging"])
    assert scores["dnn"] >= 0.90, scores
    assert scores["voting"] >= 0.90, scores
    assert scores["bagging"] >= 0.90, scores
    assert strong - scores["svm_sigmoid"] >= 0.15, scores
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(2, f"model ordering {({k: round(v, 3) for k, v in scores.items()})}")


def test_criterion_3_smo_correctness():
    for trial in range(50):
        X, y = random_binary_problem(trial, n_max=40, d_max=4)
        for kern in (KernelSpec("linear"), KernelSpec("rbf", gamma=0.7)):
            svm = train_svm_binary(X, y, kern, C=1.0, tol=1e-3)
            assert abs(float((svm.alphas * svm.y).sum())) < 1e-9
            assert (svm.alphas >= 0.0).all() and (svm.alphas <= 1.0).all()
            assert kkt_violation(svm, tol=1e-3) <= 1e-3

    svm = train_svm_binary(
        np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]), KernelSpec("linear"), C=1.0
    )
    assert svm.alphas == pytest.approx([0.5, 0.5], abs=1e-6)
    assert svm.bias == pytest.approx(0.0, abs=1e-6)
    _report(3, "SMO dual feasibility + KKT on 50 random problems")


def test_criterion_4_mlp_gradient_check():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        depth = int(rng.integers(1, 3))
        sizes = [int(rng.integers(2, 7))] + [int(rng.integers(2, 7)) for _ in range(depth)] + [3]
        n_samples = int(rng.integers(3, 11))
        worst = max(worst, max_relative_grad_error(sizes, n_samples, seed=int(rng.integers(1, 10**6))))
    assert worst < 1e-4, worst
    _report(4, f"MLP gradient check, worst rel err {worst:.2e}")


def _point_segment_distance(p, a, b):
    d = b - a
    denom = float(d @ d)
    t = 0.0 if denom == 0 else min(max(float((p - a) @ d) / denom, 0.0), 1.0)
    return float(np.linalg.norm(p - (a + t * d)))


def test_criterion_5_smote_geometry():
    rng = np.random.default_rng(99)
    for _ in range(100):
        counts = rng.integers(2, 13, size=3)
        counts[int(rng.integers(0, 3))] += int(rng.integers(3, 8))  # force imbalance
        dim = int(rng.integers(2, 5))
        X = rng.uniform(size=(int(counts.sum()), dim))
        y = np.repeat([0, 1, 2], counts)
        k = int(rng.integers(1, 6))
        X2, y2 = smote(X, y, k, RngStream(int(rng.integers(0, 2**32))))

        balanced = np.bincount(y2, minlength=3)
        assert balanced.min() == balanced.max()
        assert np.array_equal(X2[: len(y)], X)
        for row, label in zip(X2[len(y):], y2[len(y):]):
            members = X[y == label]
            best = min(
                _point_segment_distance(row, members[i], members[j])
                for i in range(len(members))
                for j in range(i, len(members))
            )
            assert best <= 1e-9, best
    _report(5, "SMOTE geometry on 100 random imbalanced datasets")


def test_criterion_6_metrics_oracle():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        y_true = rng.integers(0, 3, n)
        y_pred = rng.integers(0, 3, n)
        rep = metrics(confusion(y_true, y_pred))

        # independent direct-formula oracle
        acc = float(np.mean(y_true == y_pred))
        assert abs(rep.accuracy - acc) <= 1e-12
        precs, recs, f1s = [], [], []
        for c in range(3):
            tp = int(np.sum((y_true == c) & (y_pred == c)))
            fp = int(np.sum((y_true != c) & (y_pred == c)))
            fn = int(np.sum((y_true == c) & (y_pred != c)))
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            f = 2 * p * r / (p + r) if p + r else 0.0
            precs.append(p)
            recs.append(r)
            f1s.append(f)
            assert abs(rep.precision_per_class[c] - p) <= 1e-12
            assert abs(rep.recall_per_class[c] - r) <= 1e-12
            assert abs(rep.f1_per_class[c] - f) <= 1e-12
        assert abs(rep.macro_precision - np.mean(precs)) <= 1e-12
        assert abs(rep.macro_recall - np.mean(recs)) <= 1e-12
        assert abs(rep.macro_f1 - np.mean(f1s)) <= 1e-12

    hand = metrics(confusion([0, 0, 1, 1, 2, 2], [0, 1, 1, 1, 2, 0]))
    assert hand.accuracy == pytest.approx(0.6667, abs=1e-4)
    assert hand.macro_f1 == pytest.approx(0.6556, abs=1e-4)
    _report(6, "metrics vs direct-formula oracle on 1000 label pairs")


def _digests(out_dir: Path, skip=("manifest.json",)) -> dict:
    out = {}
    for path in sorted(out_dir.iterdir()):
        if path.name in skip:
            continue
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_criterion_7_thread_count_determinism(tmp_path, monkeypatch):
    cfg_doc = {
        "seed": 33,
        "data": {"synthetic": {"n": 150, "class_proportions": [0.3, 0.3, 0.4]}},
        "model": {"name": "bagging", "hyperparams": {"n_estimators": 8, "max_depth": 4}},
        "eval": {
            "k": 3,
            "curve_fractions": [0.5, 1.0],
            "curve_repeats": 2,
            "sweep": {"learning_rate": [0.01, 0.1], "min_child_weight": [1.0, 4.0]},
        },
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_doc), encoding="utf-8")

    for sub in ("cv", "curve", "sweep", "train"):
        results = []
        for threads in ("0", "8"):
            out = tmp_path / f"{sub}_{threads}"
            monkeypatch.setenv("ONCOGRADE_THREADS", threads)
            assert main([sub, "--config", str(cfg), "--output-dir", str(out)]) == 0
            results.append(_digests(out))
        assert results[0] == results[1], f"{sub} artifacts differ across thread counts"
    _report(7, "cv/curve/sweep/bagging artifacts bit-identical at 0 and 8 threads")


def test_criterion_8_cv_protocol():
    y = np.repeat([0, 1, 2], 365)
    folds = stratified_folds(y, 5, RngStream(4))
    assert [len(f) for f in folds] == [219] * 5
    for fold in folds:
        assert np.bincount(y[fold], minlength=3).tolist() == [73, 73, 73]
    _report(8, "k=5 folds of exactly 219 with 73 per class")


def test_criterion_9_golden_cli_run(tmp_path, monkeypatch):
    monkeypatch.delenv("ONCOGRADE_THREADS", raising=False)
    golden = json.loads((GOLDEN_DIR / "digests.json").read_text())
    out = tmp_path / "golden_run"
    assert main(["train", "--config", str(GOLDEN_DIR / "config.json"), "--output-dir", str(out)]) == 0
    produced = _digests(out)
    for name, digest in golden.items():
        assert produced.get(name) == digest, f"digest mismatch for {name}"
    _report(9, f"golden run reproduces {len(golden)} checked-in digests")
