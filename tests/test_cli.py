import csv
import dataclasses
import hashlib
import json
import os
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oncograde.cli as cli
from oncograde.cli import ArtifactWriter, ConfigError, main, parse_config
from oncograde.core import derive_stream
from oncograde.dataset import synth_generate, save_csv
from oncograde.models import MODEL_NAMES
from oncograde.preprocess import PIPELINE_ORDERS, run_pipeline

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

METRIC_KEYS = {
    "accuracy",
    "precision_per_class",
    "recall_per_class",
    "f1_per_class",
    "macro_precision",
    "macro_recall",
    "macro_f1",
    "support",
}


def write_config(path, **overrides):
    cfg = {
        "seed": 21,
        "data": {"synthetic": {"n": 150, "class_proportions": [0.3, 0.3, 0.4]}},
        "preprocess": {"order": "paper_order", "smote_k": 3},
        "model": {
            "name": "bagging",
            "hyperparams": {"n_estimators": 4, "max_depth": 4, "epochs": 12},
        },
        "eval": {
            "k": 3,
            "curve_fractions": [0.5, 1.0],
            "curve_repeats": 1,
            "sweep": {"learning_rate": [0.01], "min_child_weight": [1.0, 8.0]},
        },
    }
    for key, value in overrides.items():
        cfg[key] = value
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestTrainCommand:
    def test_artifacts_and_rerun_digests(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["train", "--config", str(cfg), "--output-dir", str(out1)]) == 0
        assert "resolved config:" in capsys.readouterr().out
        for name in ("model.json", "metrics.json", "confusion.csv", "confusion.svg", "manifest.json"):
            assert (out1 / name).exists(), name
        metrics_doc = json.loads((out1 / "metrics.json").read_text())
        assert set(metrics_doc) == METRIC_KEYS

        assert main(["train", "--config", str(cfg), "--output-dir", str(out2)]) == 0
        for name in ("model.json", "metrics.json", "confusion.csv", "confusion.svg"):
            assert sha256(out1 / name) == sha256(out2 / name), name

    def test_manifest_digests_match_files(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--output-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "train"
        assert manifest["resolved_config"]["seed"] == 21
        assert manifest["resolved_config"]["preprocess"]["test_fraction"] == 0.2
        names = {a["name"] for a in manifest["artifacts"]}
        assert "metrics.json" in names and "manifest.json" not in names
        for art in manifest["artifacts"]:
            assert sha256(out / art["name"]) == art["sha256"], art["name"]

    def test_rerun_from_manifest_resolved_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--output-dir", str(out1)]) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        resolved = manifest["resolved_config"]
        resolved["output_dir"] = str(out2)
        cfg2 = tmp_path / "resolved.json"
        cfg2.write_text(json.dumps(resolved), encoding="utf-8")
        assert main(["train", "--config", str(cfg2)]) == 0
        for art in manifest["artifacts"]:
            assert sha256(out2 / art["name"]) == art["sha256"], art["name"]

    def test_dnn_history_artifacts(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            model={"name": "dnn", "hyperparams": {"epochs": 10, "hidden_layers": [8]}},
        )
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--output-dir", str(out)]) == 0
        assert (out / "history.csv").exists() and (out / "history.svg").exists()
        header = (out / "history.csv").read_text().splitlines()[0]
        assert header == "epoch,train_loss,val_loss,train_accuracy,val_accuracy"

    def test_sigmoid_strictly_below_rbf(self, tmp_path):
        scores = {}
        for name in ("svm_sigmoid", "svm_rbf"):
            cfg = write_config(tmp_path / f"{name}.json", model={"name": name})
            out = tmp_path / name
            assert main(["train", "--config", str(cfg), "--output-dir", str(out)]) == 0
            scores[name] = json.loads((out / "metrics.json").read_text())["macro_f1"]
        assert scores["svm_sigmoid"] < scores["svm_rbf"]

    def test_seed_override_changes_results(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["train", "--config", str(cfg), "--output-dir", str(out1), "--seed", "5"]) == 0
        assert main(["train", "--config", str(cfg), "--output-dir", str(out2), "--seed", "6"]) == 0
        assert sha256(out1 / "model.json") != sha256(out2 / "model.json")


class TestConfigErrors:
    def test_unknown_model_name_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", model={"name": "xgboost"})
        assert main(["train", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "xgboost" in err
        for name in ("dnn", "voting", "bagging", "svm_rbf", "svm_linear", "svm_poly", "svm_sigmoid"):
            assert name in err

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seeds": 1}), encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_invalid_json_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert main(["train", "--config", str(cfg)]) == 2

    def test_missing_config_exit_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2

    def test_both_data_sources_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"csv_path": "x.csv", "synthetic": {"n": 100}},
        )
        assert main(["train", "--config", str(cfg)]) == 2
        assert "exactly one source" in capsys.readouterr().err

    def test_fractional_epochs_exit_2(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json", model={"name": "dnn", "hyperparams": {"epochs": 2.5}}
        )
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "error: model.hyperparams.epochs must be an integer, got 2.5"
        assert not out.exists() or not any(out.iterdir())

    def test_boolean_seed_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", seed=True)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "error: seed must be an integer, got true"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "overrides,message",
        [
            (
                {"eval": {"curve_fractions": "12"}},
                'eval.curve_fractions must be a list of numbers, got "12"',
            ),
            ({"preprocess": {"corr_hi": "0.5"}}, 'preprocess.corr_hi must be a number, got "0.5"'),
            ({"preprocess": {"test_fraction": True}}, "preprocess.test_fraction must be a number, got true"),
            (
                {"data": {"synthetic": {"class_proportions": "0.3"}}},
                'data.synthetic.class_proportions must be a list of numbers, got "0.3"',
            ),
            (
                {"eval": {"sweep": {"learning_rate": 0.1}}},
                "eval.sweep.learning_rate must be a list of numbers, got 0.1",
            ),
            (
                {"eval": {"sweep": {"min_child_weight": [1, "3"]}}},
                'eval.sweep.min_child_weight entry must be a number, got "3"',
            ),
            (
                {"model": {"name": "dnn", "hyperparams": {"seed": 1}}},
                "unknown key(s) in model.hyperparams: seed",
            ),
            (
                {"model": {"name": "svm_rbf", "hyperparams": {"C": True}}},
                "model.hyperparams.C must be a number, got true",
            ),
            (
                {"model": {"name": "svm_rbf", "hyperparams": {"gamma": True}}},
                "model.hyperparams.gamma must be a number or a string, got true",
            ),
            (
                {"model": {"name": "svm_rbf", "hyperparams": {"gamma": "auto"}}},
                "gamma must be positive or 'scale', got 'auto'",
            ),
            (
                {"preprocess": {"test_fraction": float("nan")}},
                "preprocess.test_fraction must be a number, got NaN",
            ),
            (
                {"model": {"name": "dnn", "hyperparams": {"learning_rate": float("inf")}}},
                "model.hyperparams.learning_rate must be a number, got Infinity",
            ),
            ({"eval": []}, "eval must be a JSON object, got []"),
            ({"model": {"hyperparams": []}}, "model.hyperparams must be a JSON object, got []"),
            ({"data": 5}, "data must be a JSON object, got 5"),
            ({"data": {"csv_path": 5}}, "data.csv_path must be a string, got 5"),
        ],
        ids=[
            "curve_fractions",
            "corr_hi",
            "test_fraction",
            "class_proportions",
            "sweep_learning_rate",
            "sweep_min_child_weight",
            "hyperparams_seed",
            "C_bool",
            "gamma_bool",
            "gamma_auto",
            "test_fraction_nan",
            "learning_rate_infinity",
            "eval_list",
            "hyperparams_list",
            "data_number",
            "csv_path_number",
        ],
    )
    def test_strict_fields_exit_2(self, tmp_path, capsys, overrides, message):
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "o"
        assert main(["curve", "--config", str(cfg), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines()[0] == f"error: {message}"
        assert not out.exists() or not any(out.iterdir())

    def test_negative_seed_override_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--output-dir", str(out), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.splitlines()[0] == "error: seed must be a non-negative integer"
        assert not out.exists()

    def test_runtime_failure_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", data={"csv_path": str(tmp_path / "missing.csv")})
        assert main(["train", "--config", str(cfg), "--output-dir", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err


INTEGER_FIELDS = [
    "seed",
    "data.synthetic.n",
    "preprocess.smote_k",
    "eval.k",
    "eval.curve_repeats",
    *(
        f"model.hyperparams.{name}"
        for name in ("epochs", "batch_size", "degree", "max_depth", "n_estimators")
    ),
]


def config_with(path: str, value) -> dict:
    """A config document holding `value` at the dotted `path`."""
    *parents, leaf = path.split(".")
    doc = node = {}
    for key in parents:
        node[key] = node = {}
    node[leaf] = value
    return doc


class TestIntegerFields:
    @pytest.mark.parametrize("value", [True, 2.5])
    @pytest.mark.parametrize("path", INTEGER_FIELDS)
    def test_bools_and_fractions_rejected(self, path, value):
        with pytest.raises(ConfigError, match=f"^{path} must be an integer"):
            parse_config(config_with(path, value))

    @pytest.mark.parametrize("value", [True, 2.5])
    def test_hidden_layer_entries_rejected(self, value):
        doc = config_with("model.hyperparams.hidden_layers", [8, value])
        with pytest.raises(ConfigError, match="hidden_layers entry must be an integer"):
            parse_config(doc)

    def test_integral_floats_become_ints(self):
        hp = parse_config(config_with("model.hyperparams.epochs", 3.0)).model.hyperparams
        assert hp.epochs == 3 and type(hp.epochs) is int


# fields whose valid values form a closed set or a union; the rest draw by type
SPECIAL_VALUES = {
    "order": st.sampled_from(PIPELINE_ORDERS),
    "name": st.sampled_from(MODEL_NAMES),
    "voting_mode": st.sampled_from(("hard", "soft")),
    "gamma": st.just("scale") | st.floats(1e-3, 1e3),
}
SCALAR_VALUES = {
    int: st.integers(1, 50) | st.integers(1, 50).map(float),
    float: st.floats(1e-3, 1e3) | st.integers(1, 1000),
    str: st.text(alphabet="ab./_ é", max_size=8),
}


def non_optional(tp):
    """`X` for an optional `X | None`, else `tp`."""
    arms = [arm for arm in typing.get_args(tp) if arm is not type(None)]
    return arms[0] if len(arms) < len(typing.get_args(tp)) else tp


def documents(tp):
    """Valid JSON documents for `tp`, drawn from its dataclass field annotations."""
    tp = non_optional(tp)
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        optional = {
            f.name: SPECIAL_VALUES[f.name] if f.name in SPECIAL_VALUES else documents(hints[f.name])
            for f in dataclasses.fields(tp)
        }
        return st.fixed_dictionaries({}, optional=optional)
    if typing.get_origin(tp) is list:
        return st.lists(documents(typing.get_args(tp)[0]), min_size=1, max_size=3)
    return SCALAR_VALUES[tp]


# `data` names exactly one source
SPECIAL_VALUES["data"] = st.fixed_dictionaries({"csv_path": SCALAR_VALUES[str]}) | st.fixed_dictionaries(
    {"synthetic": documents(cli.SyntheticConfig)}
)


def config_fields(tp, prefix=()):
    """(key path, annotation) of every field under the dataclass `tp`."""
    hints = typing.get_type_hints(tp)
    for f in dataclasses.fields(tp):
        path, inner = prefix + (f.name,), non_optional(hints[f.name])
        yield path, hints[f.name]
        if dataclasses.is_dataclass(inner):
            yield from config_fields(inner, path)


def wrong_values(tp):
    """JSON values of a type `tp` does not read: bool, string, NaN, list, object."""
    arms = typing.get_args(tp) or (tp,)
    values = [True, False, float("nan"), {"x": 1}]
    if str not in arms:
        values.append("x")
    if typing.get_origin(tp) is not list:
        values.append([1])
    return values


class TestParseProperties:
    @settings(max_examples=50, deadline=None)
    @given(documents(cli.RunConfig))
    def test_resolved_config_reads_back_equal(self, doc):
        cfg = parse_config(doc)
        assert parse_config(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @settings(max_examples=80, deadline=None)
    @given(documents(cli.RunConfig), st.sampled_from(list(config_fields(cli.RunConfig))))
    def test_wrongly_typed_field_is_a_config_error(self, doc, field):
        path, tp = field
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        for wrong in wrong_values(tp):
            node[path[-1]] = wrong
            with pytest.raises(ConfigError):
                parse_config(doc)


# the resolved config is written to manifest.json and the `resolved config:`
# line, which no artifact digest covers, so its layout is pinned here
GOLDEN_RESOLVED = {
    "seed": 42,
    "data": {"synthetic": {"n": 300, "class_proportions": [0.303, 0.332, 0.365]}},
    "preprocess": {
        "order": "paper_order",
        "smote_k": 5,
        "corr_hi": 0.5,
        "corr_lo": -0.4,
        "test_fraction": 0.2,
    },
    "model": {
        "name": "dnn",
        "hyperparams": {
            "learning_rate": 0.05,
            "min_child_weight": 1.0,
            "epochs": 60,
            "batch_size": 32,
            "hidden_layers": [16, 8],
            "C": 1.0,
            "gamma": "scale",
            "degree": 3,
            "coef0": 0.0,
            "max_depth": 8,
            "n_estimators": 25,
            "voting_mode": "hard",
        },
    },
    "eval": {
        "k": 5,
        "curve_fractions": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        "curve_repeats": 3,
        "sweep": {"learning_rate": [0.001, 0.01, 0.1], "min_child_weight": [1.0, 3.0, 5.0]},
    },
    "output_dir": "golden_run",
}
DEFAULT_RESOLVED = {
    **GOLDEN_RESOLVED,
    "data": {"synthetic": {"n": 1000, "class_proportions": [0.303, 0.332, 0.365]}},
    "model": {
        "name": "dnn",
        "hyperparams": {
            **GOLDEN_RESOLVED["model"]["hyperparams"],
            "learning_rate": 0.01,
            "epochs": 200,
            "hidden_layers": [32, 16],
        },
    },
    "output_dir": "oncograde_out",
}


class TestResolvedConfigLayout:
    # json.dumps, not ==, so key order and 1 against 1.0 count
    def test_golden_config(self):
        doc = json.loads((GOLDEN_DIR / "config.json").read_text(encoding="utf-8"))
        assert json.dumps(parse_config(doc).to_dict()) == json.dumps(GOLDEN_RESOLVED)

    def test_empty_config(self):
        assert json.dumps(parse_config({}).to_dict()) == json.dumps(DEFAULT_RESOLVED)


class TestEvaluateCommand:
    def test_roundtrip_against_training_data(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--output-dir", str(out)]) == 0

        d = synth_generate(150, 21, (0.3, 0.3, 0.4))
        csv_path = tmp_path / "eval_data.csv"
        save_csv(d, csv_path)
        eval_cfg = write_config(
            tmp_path / "eval_cfg.json",
            data={"csv_path": str(csv_path)},
            model_path=str(out / "model.json"),
        )
        eval_out = tmp_path / "eval_run"
        assert main(["evaluate", "--config", str(eval_cfg), "--output-dir", str(eval_out)]) == 0
        doc = json.loads((eval_out / "metrics.json").read_text())
        assert set(doc) == METRIC_KEYS
        assert doc["accuracy"] > 0.5

    def test_missing_model_path_exit_2(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["evaluate", "--config", str(cfg), "--output-dir", str(tmp_path / "o")]) == 2


class TestHarnessCommands:
    def test_cv(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "cv"
        assert main(["cv", "--config", str(cfg), "--output-dir", str(out)]) == 0
        doc = json.loads((out / "cv.json").read_text())
        assert doc["k"] == 3 and len(doc["per_fold"]) == 3
        assert (out / "cv.csv").exists()

    def test_curve(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "curve"
        assert main(["curve", "--config", str(cfg), "--output-dir", str(out)]) == 0
        lines = (out / "curve.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert (out / "curve.svg").exists()

    @pytest.mark.parametrize("repeats", [0, -2])
    def test_curve_repeats_below_one_fails(self, tmp_path, capsys, repeats):
        ev = {"curve_fractions": [0.5, 1.0], "curve_repeats": repeats}
        cfg = write_config(tmp_path / "cfg.json", eval=ev)
        out = tmp_path / "curve"
        assert main(["curve", "--config", str(cfg), "--output-dir", str(out)]) != 0
        assert "repeats must be >= 1" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_sweep(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--output-dir", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + 1x2 grid
        assert (out / "sweep.svg").exists()

    def test_profile(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "profile"
        assert main(["profile", "--config", str(cfg), "--output-dir", str(out)]) == 0
        assert (out / "correlation.csv").exists()
        assert (out / "correlation.json").exists()
        hist = (out / "histograms.csv").read_text().splitlines()
        assert hist[0] == "feature,class,bin,count"
        svgs = [p for p in os.listdir(out) if p.startswith("histogram_") and p.endswith(".svg")]
        assert len(svgs) == 23
        doc = json.loads((out / "correlation.json").read_text())
        assert "engineered" in doc and "flagged" in doc

    def test_report(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        runs = []
        for name in ("bagging", "svm_linear"):
            cfg_n = write_config(
                tmp_path / f"{name}.json",
                model={"name": name, "hyperparams": {"n_estimators": 4, "max_depth": 4}},
            )
            out = tmp_path / f"run_{name}"
            assert main(["train", "--config", str(cfg_n), "--output-dir", str(out)]) == 0
            runs.append(str(out))
        rep_out = tmp_path / "report"
        assert main(["report", "--runs", *runs, "--output-dir", str(rep_out)]) == 0
        lines = (rep_out / "comparison.csv").read_text().strip().splitlines()
        assert lines[0] == "model,accuracy,macro_precision,macro_recall,macro_f1"
        assert len(lines) == 3
        assert lines[1].startswith("bagging,") and lines[2].startswith("svm_linear,")
        assert (rep_out / "comparison.svg").exists()

    def test_report_missing_run_exit_2(self, tmp_path):
        assert main(["report", "--runs", str(tmp_path / "ghost"), "--output-dir", str(tmp_path / "r")]) == 2


# leading text columns of each CSV artifact; every other cell below the
# header row must parse as a number
CSV_TEXT_COLUMNS = {
    "correlation.csv": 1,
    "histograms.csv": 3,
    "confusion.csv": 1,
    "comparison.csv": 1,
    "cv.csv": 0,
    "curve.csv": 0,
    "sweep.csv": 0,
}


class TestCsvArtifacts:
    def test_every_numeric_cell_parses_as_float(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        d = synth_generate(150, 21, (0.3, 0.3, 0.4))
        save_csv(d, tmp_path / "rows.csv")
        eval_cfg = write_config(
            tmp_path / "eval.json",
            data={"csv_path": str(tmp_path / "rows.csv")},
            model_path=str(tmp_path / "train" / "model.json"),
        )
        for command in ("profile", "train", "cv", "curve", "sweep"):
            assert main([command, "--config", str(cfg), "--output-dir", str(tmp_path / command)]) == 0
        assert main(["evaluate", "--config", str(eval_cfg), "--output-dir", str(tmp_path / "evaluate")]) == 0
        runs = [str(tmp_path / "train"), str(tmp_path / "evaluate")]
        assert main(["report", "--runs", *runs, "--output-dir", str(tmp_path / "report")]) == 0

        seen = set()
        for path in sorted(tmp_path.glob("*/*.csv")):
            seen.add(path.name)
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows, path
            for row in rows:
                for cell in row[CSV_TEXT_COLUMNS[path.name] :]:
                    float(cell)
        assert seen == set(CSV_TEXT_COLUMNS)


class TestHarnessMatchesTrain:
    def test_harness_rows_are_train_paper_order_rows(self, tmp_path, monkeypatch):
        """cv, curve and sweep run on the balanced matrix `train` splits."""
        seen = []
        for name in ("kfold_cv", "learning_curve", "sweep"):
            original = getattr(cli, name)

            def spy(X, y, *args, _original=original):
                seen.append((X, y))
                return _original(X, y, *args)

            monkeypatch.setattr(cli, name, spy)
        cfg = write_config(tmp_path / "cfg.json")
        for command in ("cv", "curve", "sweep"):
            assert main([command, "--config", str(cfg), "--output-dir", str(tmp_path / command)]) == 0

        d = synth_generate(150, 21, (0.3, 0.3, 0.4))
        prep = run_pipeline(d, "paper_order", smote_k=3, stream=derive_stream(21, 1))
        split_rows = sorted(
            zip(map(tuple, np.vstack([prep.X_train, prep.X_test]).tolist()),
                np.concatenate([prep.y_train, prep.y_test]).tolist())
        )
        assert len(seen) == 3
        for X, y in seen:
            assert sorted(zip(map(tuple, X.tolist()), y.tolist())) == split_rows


class TestArtifactWriter:
    def test_cleanup_removes_partial_artifacts(self, tmp_path):
        writer = ArtifactWriter(str(tmp_path / "out"))
        writer.write_text("a.txt", "hello")
        writer.write_json("b.json", {"x": 1})
        assert (tmp_path / "out" / "a.txt").exists()
        writer.cleanup()
        assert not (tmp_path / "out" / "a.txt").exists()
        assert not (tmp_path / "out" / "b.json").exists()

    def test_no_temp_files_left_behind(self, tmp_path):
        writer = ArtifactWriter(str(tmp_path / "out"))
        writer.write_text("a.txt", "hello")
        leftovers = [p for p in os.listdir(tmp_path / "out") if p.endswith(".tmp")]
        assert leftovers == []


class TestUsage:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code == 2
