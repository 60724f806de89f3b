"""Byte pins and memory guards for the block-drawn, row-blocked paths.

The digests were computed with the scalar-draw, dense-tensor code these
paths replaced, so any drift in a random stream, a neighbour order or a
predict block shows up here as a changed sha256. The memory guards keep
SMOTE and ``evaluate`` bounded as row counts grow.
"""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from oncograde.cli import main
from oncograde.core import RngStream, derive_stream, shuffle
from oncograde.dataset import save_csv, synth_generate
from oncograde.models.mlp import init_params
from oncograde.preprocess import apply_minmax, engineer_features, fit_minmax, pearson_matrix, smote


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


PAPER_PROPORTIONS = (0.303, 0.332, 0.365)


def paper_order_matrix(n: int, seed: int):
    """The scaled, engineered matrix that paper-order SMOTE runs on."""
    d = synth_generate(n, seed, PAPER_PROPORTIONS)
    X = apply_minmax(d.X, fit_minmax(d.X))
    X, _ = engineer_features(X, pearson_matrix(X, d.feature_names))
    return X, d.y


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def svm_model(tmp_path_factory):
    """An svm_rbf model.json trained once for the evaluate tests."""
    root = tmp_path_factory.mktemp("svm_model")
    cfg = write_json(
        root / "train.json",
        {"seed": 5, "data": {"synthetic": {"n": 400}}, "model": {"name": "svm_rbf"}},
    )
    assert main(["train", "--config", cfg, "--output-dir", str(root / "run")]) == 0
    return str(root / "run" / "model.json")


def evaluate_argv(tmp_path, model_path: str, n_rows: int, seed: int) -> list[str]:
    """Write an ``n_rows`` synthetic CSV and an evaluate config for it."""
    csv_path = tmp_path / "rows.csv"
    save_csv(synth_generate(n_rows, seed), csv_path)
    cfg = write_json(
        tmp_path / "evaluate.json",
        {"seed": seed, "data": {"csv_path": str(csv_path)}, "model_path": model_path},
    )
    return ["evaluate", "--config", cfg, "--output-dir", str(tmp_path / "evaluate")]


class TestPinnedDigests:
    def test_synth_generate(self):
        d = synth_generate(2000, 71)
        assert digest(d.X) == "a137077184b2feecc6c57b8c96a0c4aa13734fd5c0c0e80b5dbe10facf4da1d5"
        assert digest(d.y) == "624e79076320a21f4c133229cd351547cacc3cdc70718711d693c331dea9b531"

    def test_smote_paper_order(self):
        X, y = paper_order_matrix(1000, 61)
        X_out, y_out = smote(X, y, 5, derive_stream(61, 1).derive(0))
        assert digest(X_out, y_out) == "e30eefa696e0702e193cbc3363d0895fd4da4aaa6609a28e13c59ae50c162fc8"

    def test_shuffle(self):
        out = shuffle(range(5000), RngStream(9))
        assert digest(np.asarray(out, dtype=np.int64)) == "f98df49fc94544b4632d90fd8b4fc6105d61561d35e270e9a41d313124fb9c3b"

    def test_init_params(self):
        weights, biases = init_params([58, 32, 16, 3], RngStream(3))
        assert digest(*weights, *biases) == "068389468ac14fc6bd6bb351b601c6a9a49cc8077ab5ca1837f82f629e772b01"

    def test_evaluate_metrics_over_several_predict_blocks(self, tmp_path, svm_model):
        assert main(evaluate_argv(tmp_path, svm_model, 5000, 13)) == 0
        metrics = (tmp_path / "evaluate" / "metrics.json").read_bytes()
        assert hashlib.sha256(metrics).hexdigest() == "b774dd975f7c1f22b1867e134ee2363353794b1c2f7304a6629fbcf15cd9c85f"

    def test_voting_train_documents(self, tmp_path):
        """Voting's dnn, svm_rbf and bagging members write the history, kernel
        and tree documents. The digests were computed with the hand-written
        field lists that ``dataclasses.asdict`` replaced in those documents
        and in the metrics report."""
        cfg = write_json(
            tmp_path / "train.json",
            {
                "seed": 3,
                "data": {"synthetic": {"n": 150}},
                "model": {
                    "name": "voting",
                    "hyperparams": {"epochs": 5, "n_estimators": 3, "max_depth": 3},
                },
            },
        )
        assert main(["train", "--config", cfg, "--output-dir", str(tmp_path / "run")]) == 0
        model = (tmp_path / "run" / "model.json").read_bytes()
        metrics = (tmp_path / "run" / "metrics.json").read_bytes()
        assert hashlib.sha256(model).hexdigest() == "c400d806625f55e9c00b0a2f1b558dbde00ea44e0e4e5074ac83fce5befd4af4"
        assert hashlib.sha256(metrics).hexdigest() == "4f089a5a6539ce25112c6d7c2df2e165001715c3fcd1fa98ba85c3d3240cc445"


def traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestMemoryGuards:
    def test_smote_at_3000_rows(self):
        X, y = paper_order_matrix(3000, 61)
        peak = traced_peak_mb(lambda: smote(X, y, 5, derive_stream(61, 1).derive(0)))
        assert peak <= 32.0, f"smote peaked at {peak:.1f} MB"

    def test_evaluate_on_20000_rows(self, tmp_path, svm_model):
        argv = evaluate_argv(tmp_path, svm_model, 20000, 17)
        codes = []
        peak = traced_peak_mb(lambda: codes.append(main(argv)))
        assert codes == [0]
        assert peak <= 48.0, f"evaluate peaked at {peak:.1f} MB"
