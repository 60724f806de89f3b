"""Byte pins and memory guards for the block-drawn, row-blocked paths.

The digests were computed with the scalar-draw, dense-tensor code these
paths replaced, so any drift in a random stream, a neighbour order or a
predict block shows up here as a changed sha256. The memory guards keep
SMOTE and ``evaluate`` bounded as row counts grow.
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oncograde.cli import main
from oncograde.core import RngStream, derive_stream, shuffle
from oncograde.dataset import load_csv, save_csv, synth_generate
from oncograde.models.mlp import init_params
from oncograde.preprocess import (
    PreprocessConfig,
    Preprocessor,
    apply_minmax,
    engineer_features,
    fit_minmax,
    smote,
)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


PAPER_PROPORTIONS = (0.303, 0.332, 0.365)
GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"


def paper_order_matrix(n: int, seed: int):
    """The scaled, engineered matrix that paper-order SMOTE runs on."""
    d = synth_generate(n, seed, PAPER_PROPORTIONS)
    X = apply_minmax(d.X, fit_minmax(d.X))
    X, _ = engineer_features(X, 0.5, -0.4)
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
        """The svm_rbf model scores 5,000 rows in three predict blocks; the
        digest was re-recorded when its machines became one per class pair."""
        assert main(evaluate_argv(tmp_path, svm_model, 5000, 13)) == 0
        metrics = (tmp_path / "evaluate" / "metrics.json").read_bytes()
        assert hashlib.sha256(metrics).hexdigest() == "4fd6e7edf6053bfb4e3bf1c7e6c0519ea679ee866ca440c088fb70ca64d262b5"

    def test_voting_train_documents(self, tmp_path):
        """Voting's dnn, svm_rbf and bagging members write the history, kernel
        and tree documents. The digests were computed with the hand-written
        field lists that ``dataclasses.asdict`` replaced in those documents
        and in the metrics report; the model digest was re-recorded with one
        BLAS thread and the svm_rbf member in the one-support-set layout, and
        again for model file version 2, unindented with trees as node arrays,
        once more when the pipeline section kept only its fitted state, and
        when the svm_rbf member's machines became one per class pair."""
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
        assert hashlib.sha256(model).hexdigest() == "6c5ef073e8068b73bbbe4850980ea31e032d7bc510df6cba92496a678e757340"
        assert hashlib.sha256(metrics).hexdigest() == "4f089a5a6539ce25112c6d7c2df2e165001715c3fcd1fa98ba85c3d3240cc445"

    def test_leak_safe_train_documents(self, tmp_path):
        """The leak_safe branch of the pipeline, with non-default settings.
        The digests were computed when the settings were separate
        ``run_pipeline`` keywords; the model digest was re-recorded for the
        unindented version 2 file, and again when its ``pipeline`` section
        kept only the fitted bounds and pairs."""
        cfg = write_json(
            tmp_path / "train.json",
            {
                "seed": 4,
                "data": {"synthetic": {"n": 200}},
                "preprocess": {"order": "leak_safe", "smote_k": 3, "corr_hi": 0.45},
                "model": {"name": "dnn", "hyperparams": {"epochs": 5, "hidden_layers": [8]}},
            },
        )
        assert main(["train", "--config", cfg, "--output-dir", str(tmp_path / "run")]) == 0
        model = (tmp_path / "run" / "model.json").read_bytes()
        metrics = (tmp_path / "run" / "metrics.json").read_bytes()
        assert hashlib.sha256(model).hexdigest() == "337832c8671152c9d5007e6e2e13c52863950ddeed7c0f520d6c3c2970406189"
        assert hashlib.sha256(metrics).hexdigest() == "fbe24b321b9cc370d2944c408f91017860edf053c9de561ecaf748f8afaf6956"

    @pytest.mark.parametrize(
        "doc,epochs,best,digest",
        [
            (
                {"seed": 3, "data": {"synthetic": {"n": 300}}, "model": {"name": "dnn"}},
                83,
                62,
                "a0c192ea58d06728857c59c387c6ae7630b8b3cdf924975c0b52ea7983e90bd8",
            ),
            (
                json.loads((GOLDEN_DIR / "config.json").read_text(encoding="utf-8")),
                60,
                53,
                "5cd8cf8128b5506a28611e5c65d6b3327e55c70ca64d2fd8fe9abdbbb8882683",
            ),
        ],
        ids=["default-dnn", "golden"],
    )
    def test_dnn_restores_its_best_epoch(self, tmp_path, doc, epochs, best, digest):
        """A dnn whose best validation loss comes before its last epoch, so its
        file holds the restored weights: the default network stops on patience
        after 83 epochs, best at epoch index 62, and the golden two-hidden-layer
        network runs to its 60-epoch cap, best at index 53."""
        cfg = write_json(tmp_path / "train.json", doc)
        assert main(["train", "--config", cfg, "--output-dir", str(tmp_path / "run")]) == 0
        model = (tmp_path / "run" / "model.json").read_bytes()
        val_loss = json.loads(model)["model"]["params"]["history"]["val_loss"]
        assert (len(val_loss), int(np.argmin(val_loss))) == (epochs, best)
        assert hashlib.sha256(model).hexdigest() == digest

    @pytest.mark.parametrize(
        "command,name,digest",
        [
            ("curve", "curve.csv", "52e6cb4a4e967d4f5fd4cea17716f1d2f7488aa009dd803ffc031c6414472b6e"),
            ("sweep", "sweep.csv", "96258ceea9d4f0dc04c97d7e2515a4d8045bb2047bdbe5dfd97c19cfea8ecebe"),
            ("curve", "curve.svg", "f986b596bc88913dc48957e42acec81bc5937e1a92f65142c1e6a924754b285b"),
            ("sweep", "sweep.svg", "d31f1a13a1c8af8c77e24f2e8d811397d955d82664a734a0d1285fbc6a767678"),
        ],
    )
    def test_harness_csv(self, tmp_path, command, name, digest):
        """``curve.csv`` and ``sweep.csv`` of a small bagging run, and the
        charts drawn from them. The CSV digests were computed when ``cli.py``
        handed the harness each ``eval`` field as its own argument; the chart
        digests when ``cli.py`` wrote each chart payload out by hand. The
        ``sweep.svg`` digest was re-recorded when bagging's chart moved min
        child weight, the axis it reads, onto x, and again when it drew its one
        trained line once and widened its flat y range by 5% of its value."""
        cfg = write_json(
            tmp_path / "harness.json",
            {
                "seed": 8,
                "data": {"synthetic": {"n": 150}},
                "model": {"name": "bagging", "hyperparams": {"n_estimators": 3, "max_depth": 3}},
                "eval": {
                    "curve_fractions": [0.3, 0.6, 1.0],
                    "curve_repeats": 2,
                    "sweep": {"learning_rate": [0.01, 0.1], "min_child_weight": [1, 3]},
                },
            },
        )
        assert main([command, "--config", cfg, "--output-dir", str(tmp_path / "run")]) == 0
        csv_bytes = (tmp_path / "run" / name).read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == digest

    @pytest.mark.parametrize(
        "model,command,name,digest",
        [
            ("dnn", "cv", "cv.csv", "c16aaf11711a8dda47056d8686a8b6230fadf997b22faf47e217f2d37e8b7dca"),
            ("dnn", "curve", "curve.csv", "ce55d9df48d759b7c14ac7810a68fed4c483a35fb26ad97c01e78409bb4b8362"),
            ("dnn", "sweep", "sweep.csv", "1cee37fcb5cf3c8e80d397df1c0a18e2e4dda751414b3cfc018b43f165ddc1bb"),
            ("dnn", "sweep", "sweep.svg", "b6c0ab7d23c8fe991f2411659d60c23325d7a06b638cb7bd73f5102ea9a8e629"),
        ],
    )
    def test_dnn_and_svm_harness(self, tmp_path, model, command, name, digest):
        """The harness artifacts of a small dnn run over the default 3 x 3
        sweep grid. The digests were computed when ``sweep`` trained one
        model for every cell of the grid; ``sweep.svg``'s was re-recorded when
        the chart drew the dnn's one line per learning rate once, not once per
        min child weight, which the dnn does not read."""
        hyperparams = {"epochs": 5, "hidden_layers": [8]}
        cfg = write_json(
            tmp_path / "harness.json",
            {
                "seed": 8,
                "data": {"synthetic": {"n": 150}},
                "model": {"name": model, "hyperparams": hyperparams},
                "eval": {"k": 3, "curve_fractions": [0.5, 1.0], "curve_repeats": 1},
            },
        )
        assert main([command, "--config", cfg, "--output-dir", str(tmp_path / "run")]) == 0
        artifact = (tmp_path / "run" / name).read_bytes()
        assert hashlib.sha256(artifact).hexdigest() == digest

    @pytest.mark.parametrize("model", ["svm_linear", "svm_rbf", "svm_poly", "svm_sigmoid"])
    def test_svm_sweep_is_refused(self, tmp_path, capsys, model):
        """An svm reads neither sweep axis, so its grid would be one model
        repeated; ``sweep`` refuses it before it reads any data."""
        data = {"csv_path": str(tmp_path / "absent.csv")}
        cfg = write_json(tmp_path / "harness.json", {"data": data, "model": {"name": model}})
        out = tmp_path / "run"
        assert main(["sweep", "--config", cfg, "--output-dir", str(out)]) == 2
        first, *rest = capsys.readouterr().err.splitlines()
        assert first == f"error: sweep: {model} reads neither sweep axis, learning_rate nor min_child_weight"
        assert rest[0].startswith("usage:")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "command,name,digest",
        [
            ("profile", "correlation.csv", "525eac971754dcc2987d260ecb6a7cb190634668346842de3f0882c247c38e51"),
            ("profile", "histograms.csv", "e548191d1ff14d0feb7154aef0b1ceb7da597169d24cc36d5c8bd8e4ed348706"),
            ("cv", "cv.csv", "c849afc42ea351f1adf692906c8c6053c34a2019bfb063389b8be62847c863af"),
            # float bin edges, some labels over 8 characters, none of them rotated
            ("profile", "histogram_age.svg", "7437abed8313ce2fd8edcfad9331c6e0b6c4d3569f2f2bdfbe2973d6010ff5bf"),
            ("profile", "histogram_smoking.svg", "a90ccca313ce7cb74263eb7c7a2e29936e235eb7152e11cf89ead644c9d6d46a"),
        ],
    )
    def test_profile_and_cv_csv(self, tmp_path, command, name, digest):
        """The profile tables and the per-fold scores of a small bagging run,
        and two of the profile's histograms. The CSV digests were computed
        with the hand-built row formats that ``dataset.csv_text`` replaced;
        the chart digests when ``cli.py`` wrote each chart payload out by
        hand."""
        cfg = write_json(
            tmp_path / "run.json",
            {
                "seed": 8,
                "data": {"synthetic": {"n": 150}},
                "model": {"name": "bagging", "hyperparams": {"n_estimators": 3, "max_depth": 3}},
                "eval": {"k": 3},
            },
        )
        assert main([command, "--config", cfg, "--output-dir", str(tmp_path / "run")]) == 0
        csv_bytes = (tmp_path / "run" / name).read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == digest

    def test_history_and_comparison_csv(self, tmp_path):
        """``history.csv`` of a small dnn run, and ``comparison.csv`` of a
        report on that run plus a hand-made run whose directory name holds a
        comma and a quote. The digests were computed with the hand-built row
        formats that ``dataset.csv_text`` replaced."""
        cfg = write_json(
            tmp_path / "train.json",
            {
                "seed": 4,
                "data": {"synthetic": {"n": 200}},
                "model": {"name": "dnn", "hyperparams": {"epochs": 5, "hidden_layers": [8]}},
            },
        )
        dnn_run = tmp_path / "dnn"
        assert main(["train", "--config", cfg, "--output-dir", str(dnn_run)]) == 0
        history = (dnn_run / "history.csv").read_bytes()
        assert hashlib.sha256(history).hexdigest() == "1ae24f2ec1c0b43f81e52d51806b3144dcf4f84401b43da3e569f7b32eb18427"

        # no model name in the manifest: the report names the run by its directory
        other_run = tmp_path / 'run "b", c'
        other_run.mkdir()
        write_json(other_run / "manifest.json", {"resolved_config": {}})
        write_json(
            other_run / "metrics.json",
            {"accuracy": 1, "macro_precision": 0.1 + 0.2, "macro_recall": 0.5, "macro_f1": 1e-17},
        )
        runs = [str(dnn_run), str(other_run)]
        assert main(["report", "--runs", *runs, "--output-dir", str(tmp_path / "report")]) == 0
        comparison = (tmp_path / "report" / "comparison.csv").read_bytes()
        assert hashlib.sha256(comparison).hexdigest() == "187df14763280981b368f05354355dcbef7b6fa856ba7e2b2f253c674d700a07"
        # the second run's name is over 8 characters, so its bar label is rotated
        chart = (tmp_path / "report" / "comparison.svg").read_bytes()
        assert hashlib.sha256(chart).hexdigest() == "9639a04436abf73f3879d019f491cd34cd94fe39416b9c30850d159ba729e3cd"


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

    def test_smote_on_a_3000_row_class_of_5_distinct_rows(self):
        # repeated records, as in the public lung-cancer CSV, leave each row
        # hundreds of tied neighbour candidates to re-rank
        X, _ = paper_order_matrix(3000, 61)
        picks = np.random.default_rng(61).integers(0, 5, size=3000)
        X = np.vstack([X[picks], X, X[:1]])
        y = np.repeat([0, 1], [3000, 3001])
        peak = traced_peak_mb(lambda: smote(X, y, 5, derive_stream(61, 1).derive(0)))
        assert peak <= 32.0, f"smote peaked at {peak:.1f} MB"

    def test_transform_of_20000_rows(self):
        # the (20000, 61) result is 9.3 MB; gathering the pair means as
        # separate columns before stacking them peaked at 18.6 MB
        d = synth_generate(1000, 61, PAPER_PROPORTIONS)
        prep, _, _ = Preprocessor.fit_resample(d.X, d.y, PreprocessConfig(), derive_stream(61, 1))
        X = synth_generate(20000, 62).X
        peak = traced_peak_mb(lambda: prep.transform(X))
        assert peak <= 16.0, f"transform peaked at {peak:.1f} MB"

    def test_evaluate_on_20000_rows(self, tmp_path, svm_model):
        argv = evaluate_argv(tmp_path, svm_model, 20000, 17)
        codes = []
        peak = traced_peak_mb(lambda: codes.append(main(argv)))
        assert codes == [0]
        assert peak <= 48.0, f"evaluate peaked at {peak:.1f} MB"

    def test_evaluate_peak_does_not_grow_with_rows(self, tmp_path, svm_model):
        # each block of the CSV is scored as it is read, so the peak holds
        # still as the file grows
        peaks = []
        for n_rows in (10000, 40000):
            (tmp_path / str(n_rows)).mkdir()
            argv = evaluate_argv(tmp_path / str(n_rows), svm_model, n_rows, 17)
            codes = []
            peaks.append(traced_peak_mb(lambda: codes.append(main(argv))))
            assert codes == [0]
        assert peaks[1] - peaks[0] <= 2.0, f"evaluate peaked at {peaks[0]:.1f} then {peaks[1]:.1f} MB"

    def test_load_csv_of_20000_rows(self, tmp_path):
        # the file is parsed a block at a time, never held whole as strings
        d = synth_generate(20000, 17)
        save_csv(d, tmp_path / "rows.csv")
        peak = traced_peak_mb(lambda: load_csv(tmp_path / "rows.csv"))
        bound = 2.5 * d.X.nbytes / 2**20
        assert peak <= bound, f"load_csv peaked at {peak:.1f} MB, over {bound:.1f} MB"
