import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import typing
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oncograde.cli as cli
from oncograde.cli import ArtifactWriter, ConfigError, main, parse_config
from oncograde.core import derive_stream
from oncograde.dataset import FEATURE_NAMES, LABEL_VALUES, Dataset, synth_generate, save_csv
from oncograde.models.base import HYPERPARAMS_READ, MODEL_NAMES, Hyperparams
from oncograde.preprocess import PIPELINE_ORDERS, PreprocessConfig, run_pipeline

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"
SAMPLE_CSV = Path(__file__).resolve().parents[1] / "data" / "sample_lung_cancer.csv"

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
            "hyperparams": {"n_estimators": 4, "max_depth": 4},
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

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read config {path}: No such file or directory"),
            (
                b"{not json",
                "config {path} is not valid JSON: "
                "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
            ),
            (b"[1, 2]", "config {path}: not a JSON object"),
            (
                b"\xff{}",
                "config {path} is not valid JSON: "
                "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
            ),
        ],
        ids=["missing", "not_json", "list", "not_utf8"],
    )
    def test_unreadable_config_exit_2_naming_the_file(self, tmp_path, capsys, content, message):
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_bytes(content)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--output-dir", str(out)]) == 2
        first, *rest = capsys.readouterr().err.splitlines()
        assert first == "error: " + message.format(path=cfg)
        assert rest[0].startswith("usage:")
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["config", "flag"])
    def test_empty_output_dir_exit_2_before_any_work(self, tmp_path, capsys, monkeypatch, spelling):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path / "cfg.json", **({"output_dir": ""} if spelling == "config" else {}))
        flag = ["--output-dir", ""] if spelling == "flag" else []
        assert main(["train", "--config", str(cfg), *flag]) == 2
        first, *rest = capsys.readouterr().err.splitlines()
        assert first == "error: output_dir must name a directory, got an empty string"
        assert rest[0].startswith("usage:")
        assert os.listdir(tmp_path) == ["cfg.json"]

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
            ({"data": {"csv_path": ""}}, "data.csv_path must name a file, got an empty string"),
            ({"data": {"synthetic": {"n": 10}}}, "n must be >= 30, got 10"),
            (
                {"data": {"synthetic": {"class_proportions": [0.5]}}},
                "class_proportions must be 3 positive reals",
            ),
            ({"preprocess": {"test_fraction": 1.5}}, "test_fraction must lie in (0, 1), got 1.5"),
            ({"preprocess": {"smote_k": 0}}, "smote_k must be >= 1, got 0"),
            ({"eval": {"k": 1}}, "k must be >= 2, got 1"),
            (
                {"eval": {"curve_fractions": [0.5, 0.5]}},
                "curve_fractions must be strictly increasing, got [0.5, 0.5]",
            ),
            (
                {"eval": {"curve_fractions": [0.0, 0.5]}},
                "curve_fractions must be non-empty and lie in (0, 1], got [0.0, 0.5]",
            ),
            (
                {"eval": {"curve_fractions": []}},
                "curve_fractions must be non-empty and lie in (0, 1], got []",
            ),
            ({"eval": {"curve_repeats": 0}}, "curve_repeats must be >= 1, got 0"),
            ({"eval": {"sweep": {"learning_rate": []}}}, "sweep axes must be non-empty"),
            ({"eval": {"sweep": {"learning_rate": [0.1, -1]}}}, "eval.sweep: learning_rate must be positive"),
            ({"eval": {"sweep": {"min_child_weight": [0]}}}, "eval.sweep: min_child_weight must be positive"),
            ({"model": {"name": "dnn", "hyperparams": {"learning_rate": -1}}}, "learning_rate must be positive"),
            # RngStream keeps 64 bits: 2**64 would alias seed 0
            ({"seed": 2**64}, "seed must be below 2**64, got 18446744073709551616"),
            ({"seed": 1e20}, "seed must be below 2**64, got 100000000000000000000"),
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
            "csv_path_empty",
            "synthetic_n_below_30",
            "class_proportions_short",
            "test_fraction_above_1",
            "smote_k_0",
            "k_1",
            "curve_fractions_repeated",
            "curve_fractions_zero",
            "curve_fractions_empty",
            "curve_repeats_0",
            "sweep_axis_empty",
            "sweep_learning_rate_negative",
            "sweep_min_child_weight_0",
            "hyperparams_learning_rate_negative",
            "seed_2_64",
            "seed_1e20",
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

    def test_seed_override_of_2_64_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--output-dir", str(out), "--seed", str(2**64)]) == 2
        assert capsys.readouterr().err.splitlines()[0] == "error: seed must be below 2**64, got 18446744073709551616"
        assert not out.exists()

    def test_runtime_failure_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", data={"csv_path": str(tmp_path / "missing.csv")})
        assert main(["train", "--config", str(cfg), "--output-dir", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,data",
        [
            ("train", {"csv_path": str(SAMPLE_CSV)}),
            ("cv", {"synthetic": {"n": 150}}),
        ],
    )
    def test_overflowing_kernel_exit_1_in_seconds(self, tmp_path, capsys, command, data):
        """An overflowing kernel fails fast instead of leaving SMO stepping on NaN."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": data,
            "model": {"name": "svm_poly", "hyperparams": {"gamma": 1e60, "degree": 9}},
            "eval": {"k": 3},
        }))
        out = tmp_path / "o"
        started = time.perf_counter()
        assert main([command, "--config", str(cfg), "--output-dir", str(out)]) == 1
        assert time.perf_counter() - started < 10.0
        assert capsys.readouterr().err.splitlines() == [
            "error: polynomial kernel is not finite on the training rows "
            "(gamma=1e+60, degree=9); lower gamma or degree"
        ]
        assert not (out / "model.json").exists() and not (out / "metrics.json").exists()


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


# fields whose valid values form a closed set, a union or a range; the rest draw by type
SPECIAL_VALUES = {
    "n": st.integers(30, 500) | st.integers(30, 500).map(float),
    "class_proportions": st.tuples(*[st.integers(1, 100)] * 3).map(lambda w: [v / sum(w) for v in w]),
    "order": st.sampled_from(PIPELINE_ORDERS),
    "name": st.sampled_from(MODEL_NAMES),
    "voting_mode": st.sampled_from(("hard", "soft")),
    "gamma": st.just("scale") | st.floats(1e-3, 1e3),
    "test_fraction": st.floats(0.01, 0.99),
    "k": st.integers(2, 50) | st.integers(2, 50).map(float),
    "curve_fractions": st.sets(st.integers(1, 10), min_size=1).map(lambda s: [t / 10 for t in sorted(s)]),
    "output_dir": st.text(alphabet="ab./_ é", min_size=1, max_size=8),
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


# `data` names exactly one source, a csv_path being a non-empty string
SPECIAL_VALUES["data"] = st.fixed_dictionaries({"csv_path": SCALAR_VALUES[str].filter(bool)}) | st.fixed_dictionaries(
    {"synthetic": documents(cli.SyntheticConfig)}
)


def model_documents(name):
    """Valid `model` sections naming `name`, whose hyperparams set only fields that model reads."""
    hp = documents(Hyperparams).map(lambda doc: {k: v for k, v in doc.items() if k in HYPERPARAMS_READ[name]})
    return st.fixed_dictionaries({"name": st.just(name)}, optional={"hyperparams": hp})


SPECIAL_VALUES["model"] = st.sampled_from(MODEL_NAMES).flatmap(model_documents)


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
        "hyperparams": {"learning_rate": 0.05, "epochs": 60, "batch_size": 32, "hidden_layers": [16, 8]},
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
        "hyperparams": {"learning_rate": 0.01, "epochs": 200, "batch_size": 32, "hidden_layers": [32, 16]},
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


# every (model, Hyperparams field) pair: 7 x 12 = 84, of which a model's run config may set the 27 it reads
HYPERPARAMS_PAIRS = [(name, f.name) for name in MODEL_NAMES for f in dataclasses.fields(Hyperparams)]


class TestUnreadHyperparams:
    def test_the_models_read_27_of_the_84_pairs(self):
        assert len(HYPERPARAMS_PAIRS) == 84
        assert sum(key in HYPERPARAMS_READ[name] for name, key in HYPERPARAMS_PAIRS) == 27

    @pytest.mark.parametrize("name,key", HYPERPARAMS_PAIRS, ids=[f"{name}-{key}" for name, key in HYPERPARAMS_PAIRS])
    def test_a_key_is_taken_only_by_a_model_that_reads_it(self, name, key):
        value = dataclasses.asdict(Hyperparams())[key]
        doc = {"model": {"name": name, "hyperparams": {key: value}}}
        reads = HYPERPARAMS_READ[name]
        if key in reads:
            assert parse_config(doc).to_dict()["model"]["hyperparams"][key] == value
        else:
            with pytest.raises(ConfigError) as refused:
                parse_config(doc)
            reason = f"{name} does not read it (it reads {', '.join(reads)})"
            assert str(refused.value) == f"model.hyperparams.{key}: {reason}"

    def test_train_with_an_unread_key_exits_2_before_any_work(self, tmp_path, capsys):
        model = {"name": "svm_rbf", "hyperparams": {"C": 2.0, "learning_rate": 5.0}}
        cfg = write_config(tmp_path / "cfg.json", model=model)
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--output-dir", str(out)]) == 2
        first, *rest = capsys.readouterr().err.splitlines()
        assert first == "error: model.hyperparams.learning_rate: svm_rbf does not read it (it reads C, gamma)"
        assert rest[0].startswith("usage:")
        assert not out.exists()

    def test_readme_run_config_example_is_accepted(self):
        readme = (GOLDEN_DIR.parent / "README.md").read_text(encoding="utf-8")
        example = readme.split("```json\n", 1)[1].split("```", 1)[0]
        parse_config(json.loads(example))


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

    def test_synthetic_data_exit_2_with_one_line(self, tmp_path, capsys, trained_model):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(trained_model))
        cfg = write_config(tmp_path / "cfg.json", model_path=str(model_path))
        out = tmp_path / "o"
        assert main(["evaluate", "--config", str(cfg), "--output-dir", str(out)]) == 2
        first, *rest = capsys.readouterr().err.splitlines()
        assert first == "error: evaluate requires data.csv_path in the config"
        assert rest[0].startswith("usage:")
        assert not out.exists() or not any(out.iterdir())

    def test_non_finite_cell_exit_1(self, tmp_path, capsys, trained_model):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(trained_model))
        d = synth_generate(60, 21)
        d.X[40, 5] = np.nan
        save_csv(d, tmp_path / "rows.csv")
        cfg = write_config(
            tmp_path / "eval.json", data={"csv_path": str(tmp_path / "rows.csv")}, model_path=str(model_path)
        )
        out = tmp_path / "o"
        assert main(["evaluate", "--config", str(cfg), "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: matrix contains non-finite values\n"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("name,kind", [("svm_poly", "polynomial"), ("svm_rbf", "rbf")])
    def test_overflowing_svm_decisions_exit_1(self, tmp_path, capsys, name, kind):
        """A row the kernel overflows on is a failure while scoring, not labelled from NaN."""
        train_cfg = write_config(tmp_path / "cfg.json", model={"name": name})
        assert main(["train", "--config", str(train_cfg), "--output-dir", str(tmp_path / "run")]) == 0
        d = synth_generate(60, 21)
        d.X[7] = 1.7e308
        save_csv(d, tmp_path / "rows.csv")
        model_path = str(tmp_path / "run" / "model.json")
        cfg = write_config(tmp_path / "eval.json", data={"csv_path": str(tmp_path / "rows.csv")}, model_path=model_path)
        out = tmp_path / "o"
        assert main(["evaluate", "--config", str(cfg), "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {kind} kernel decisions are not finite on the rows to score\n"
        assert not out.exists() or not any(out.iterdir())


    def test_csv_with_byte_order_mark_writes_the_same_artifacts(self, tmp_path, trained_model):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(trained_model))
        save_csv(synth_generate(60, 1), tmp_path / "plain.csv")
        (tmp_path / "marked.csv").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.csv").read_bytes())
        artifacts = {}
        for name in ("plain", "marked"):
            cfg = write_config(
                tmp_path / f"{name}.json", data={"csv_path": str(tmp_path / f"{name}.csv")}, model_path=str(model_path)
            )
            for command in ("profile", "evaluate"):
                out = tmp_path / f"{name}_{command}"
                assert main([command, "--config", str(cfg), "--output-dir", str(out)]) == 0
                artifacts[name, command] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        for command in ("profile", "evaluate"):
            assert artifacts["plain", command] and artifacts["marked", command] == artifacts["plain", command]


class TestNonFiniteTraining:
    """A matrix is checked where it is made: as a ``Dataset`` from the CSV, and after MinMax
    scaling, which turns a column whose span passes the float range into NaN."""

    def run(self, tmp_path, command, d) -> tuple[int, str, Path]:
        save_csv(d, tmp_path / "rows.csv")
        cfg = write_config(tmp_path / "cfg.json", data={"csv_path": str(tmp_path / "rows.csv")})
        out = tmp_path / "o"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(cfg), "--output-dir", str(out)])
        return code, err.getvalue(), out

    def test_infinite_cell_exit_1(self, tmp_path):
        d = synth_generate(60, 21)
        d.X[40, 5] = np.inf
        code, err, out = self.run(tmp_path, "train", d)
        assert (code, err) == (1, "error: matrix contains non-finite values\n")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # MinMax overflows on the way to the check
    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_age_span_past_float_range_exit_1(self, tmp_path, command):
        d = synth_generate(60, 21)
        d.X[3, 0], d.X[4, 0] = -1.7e308, 1.7e308
        code, err, out = self.run(tmp_path, command, d)
        assert (code, err) == (1, "error: matrix contains non-finite values\n")
        assert not out.exists() or not any(out.iterdir())

    def test_profile_of_age_span_past_float_range_exit_1(self, tmp_path):
        # under the suite's error::RuntimeWarning filter, so binning the span
        # before refusing it would fail with numpy's overflow warning instead
        d = synth_generate(60, 21)
        d.X[3, 0], d.X[4, 0] = -1.7e308, 1.7e308
        code, err, out = self.run(tmp_path, "profile", d)
        message = "error: Age spans -1.7e+308 to 1.7e+308, past the float range, so it cannot be binned\n"
        assert (code, err) == (1, message)
        assert not out.exists() or not any(out.iterdir())


class TestProfileBins:
    """``profile``'s histogram bins at the edges of the values a CSV can hold,
    under the suite's error::RuntimeWarning filter."""

    def histograms(self, tmp_path, d) -> list[list[str]]:
        tmp_path.mkdir(exist_ok=True)
        save_csv(d, tmp_path / "rows.csv")
        cfg = write_config(tmp_path / "cfg.json", data={"csv_path": str(tmp_path / "rows.csv")})
        out = tmp_path / "o"
        assert main(["profile", "--config", str(cfg), "--output-dir", str(out)]) == 0
        return [line.split(",") for line in (out / "histograms.csv").read_text().splitlines()[1:]]

    @pytest.mark.parametrize("age", [1e17, 50.0])
    def test_constant_age_fills_the_first_bin(self, tmp_path, age):
        # past 2**53, lo + 1.0 == lo, so widening the span by 1.0 left 0 / 0
        d = synth_generate(60, 21)
        d.X[:, 0] = age
        rows = [row for row in self.histograms(tmp_path, d) if row[0] == "Age"]
        per_class = {label: int((d.y == cls).sum()) for cls, label in enumerate(LABEL_VALUES)}
        assert [(row[1], int(row[3])) for row in rows[::10]] == list(per_class.items())
        assert all(row[3] == "0" for i, row in enumerate(rows) if i % 10)
        if age == 50.0:
            assert [row[2] for row in rows[:2]] == ["50-50.1", "50.1-50.2"]

    @pytest.mark.parametrize("cell, clipped", [(1e300, 9.0), (-1e300, 1.0), (-7.0, 1.0), (9.4, 9.0)])
    def test_ordinal_values_out_of_range_clip_to_the_end_bins(self, tmp_path, cell, clipped):
        d = synth_generate(60, 21)
        d.X[7, 2] = cell
        got = self.histograms(tmp_path / "cell", d)
        d.X[7, 2] = clipped
        assert got == self.histograms(tmp_path / "clipped", d)


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory) -> dict:
    """A voting model.json document trained once for the malformed-file tests;
    its members hold an mlp, an svm_ovo and a bagging document of trees."""
    root = tmp_path_factory.mktemp("trained")
    voting = {"name": "voting", "hyperparams": {"n_estimators": 4, "max_depth": 4, "epochs": 12}}
    cfg = write_config(root / "cfg.json", model=voting)
    assert main(["train", "--config", str(cfg), "--output-dir", str(root / "run")]) == 0
    return json.loads((root / "run" / "model.json").read_text())


def at(doc, *path):
    """The value at the key path in ``doc``."""
    for key in path:
        doc = doc[key]
    return doc


# the params of the voting members in ``trained_model``, and of its first tree
MLP = ("model", "params", "members", 0, "params")
SVM = ("model", "params", "members", 1, "params")
TREE = ("model", "params", "members", 2, "params", "members", 0, "params")
NODE_FIELDS = ("feature", "threshold", "left", "right", "hist")


def with_keys(doc: dict, *path_and_value) -> dict:
    """A deep copy of ``doc`` with the value at the key path replaced."""
    *path, value = path_and_value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# each malformed model file and the problem its one-line message names
MALFORMED_MODEL_FILES = {
    "not_json": ("{not json", "is not valid JSON: Expecting property name"),
    "list": ([1, 2], ": not a JSON object"),
    "version_only": ({"version": 2}, "is missing key 'pipeline'"),
    "wrapper_version": (lambda doc: with_keys(doc, "version", 3), ": unsupported model file version: 3"),
    # version 1 stored each tree as node dicts in preorder
    "wrapper_version_1": (lambda doc: with_keys(doc, "version", 1), ": unsupported model file version: 1"),
    "no_model": (lambda doc: {k: v for k, v in doc.items() if k != "model"}, "is missing key 'model'"),
    "unknown_family": (
        lambda doc: with_keys(doc, "model", "family", "forest"),
        ": unknown model family: 'forest'",
    ),
    "svm_per_machine_layout": (
        lambda doc: with_keys(doc, *SVM, {"kernel": at(doc, *SVM, "kernel"), "C": 1.0, "machines": []}),
        "is missing key 'support_x'",
    ),
    "svm_two_machines": (
        lambda doc: with_keys(
            with_keys(doc, *SVM, "coef", [row[:2] for row in at(doc, *SVM, "coef")]), *SVM, "bias", [0.0, 0.0]
        ),
        ": svm support_x, coef and bias must be shaped (n_sv >= 1, d), (n_sv, 3) and (3,)",
    ),
    "svm_short_coef": (
        lambda doc: with_keys(doc, *SVM, "coef", at(doc, *SVM, "coef")[:-1]),
        ": svm support_x, coef and bias must be shaped",
    ),
    "svm_string_bias": (
        lambda doc: with_keys(doc, *SVM, "bias", ["high", 0.0, 0.0]),
        ": svm support_x, coef and bias must be finite numbers, and bias[0] is not",
    ),
    "svm_not_finite": (
        lambda doc: with_keys(doc, *SVM, "support_x", 0, 0, float("nan")),
        ": svm support_x, coef and bias must be finite",
    ),
    "mlp_layers_do_not_chain": (
        lambda doc: with_keys(doc, *MLP, "weights", 1, at(doc, *MLP, "weights", 1)[1:]),
        ": mlp layer 1: weights (31, 16) and biases (16,) do not chain",
    ),
    "mlp_bias_does_not_match": (
        lambda doc: with_keys(doc, *MLP, "biases", 0, at(doc, *MLP, "biases", 0)[1:]),
        ": mlp layer 0: weights (80, 32) and biases (31,) do not chain",
    ),
    "mlp_two_outputs": (
        lambda doc: with_keys(
            with_keys(doc, *MLP, "weights", 2, [row[:2] for row in at(doc, *MLP, "weights", 2)]),
            *MLP, "biases", 2, [0.0, 0.0],
        ),
        ": mlp output layer is 2 wide, not 3",
    ),
    "tree_child_out_of_range": (
        lambda doc: with_keys(doc, *TREE, "right", 0, 13),
        ": tree node 0: children 1 and 13 must lie in (0, 13) or both be 0",
    ),
    "tree_child_points_back": (
        lambda doc: with_keys(doc, *TREE, "left", 1, 0),
        ": tree node 1: children 0 and 5 must lie in (1, 13) or both be 1",
    ),
    "tree_leaf_right_not_itself": (
        lambda doc: with_keys(doc, *TREE, "right", 3, 5),
        ": tree node 3: children 3 and 5 must lie in (3, 13) or both be 3",
    ),
    "mlp_no_layers": (
        lambda doc: with_keys(with_keys(doc, *MLP, "weights", []), *MLP, "biases", []),
        ": mlp needs 1 or more layers, got 0 weights and 0 biases",
    ),
    "voting_no_members": (
        lambda doc: with_keys(doc, "model", "params", "members", []),
        ": an ensemble needs at least one member",
    ),
    "bagging_no_members": (
        lambda doc: with_keys(doc, "model", "params", "members", 2, "params", "members", []),
        ": an ensemble needs at least one member",
    ),
    "tree_no_nodes": (
        lambda doc: with_keys(doc, *TREE, {"n_features": 80, **dict.fromkeys(NODE_FIELDS, [])}),
        ": tree feature, threshold, left, right and hist must be shaped (n,) and (n, 3) with n >= 1, "
        "got (0,), (0,), (0,), (0,), (0,)",
    ),
    "tree_field_lengths_differ": (
        lambda doc: with_keys(doc, *TREE, "left", at(doc, *TREE, "left")[:-1]),
        ": tree feature, threshold, left, right and hist must be shaped (n,) and (n, 3) with n >= 1, "
        "got (13,), (13,), (12,), (13,), (13, 3)",
    ),
    "tree_child_infinite": (
        lambda doc: with_keys(doc, *TREE, "right", 0, float("inf")),
        ": tree node 0: right inf must be an integer",
    ),
    "tree_short_hist": (
        lambda doc: with_keys(doc, *TREE, "hist", 2, [46.0]),
        ": tree node 2: hist [46.0] must be 3 non-negative numbers with a finite, positive total",
    ),
    "tree_feature_negative": (
        lambda doc: with_keys(doc, *TREE, "feature", 0, -1),
        ": tree node 0: feature -1 must be an integer in [0, 80)",
    ),
    "tree_feature_past_width": (
        lambda doc: with_keys(doc, *TREE, "feature", 0, 80),
        ": tree node 0: feature 80 must be an integer in [0, 80)",
    ),
    "tree_feature_fractional": (
        lambda doc: with_keys(doc, *TREE, "feature", 0, 40.5),
        ": tree node 0: feature 40.5 must be an integer in [0, 80)",
    ),
    "tree_threshold_infinite": (
        lambda doc: with_keys(doc, *TREE, "threshold", 0, float("inf")),
        ": tree node 0: threshold inf must be finite",
    ),
    "tree_threshold_nan": (
        lambda doc: with_keys(doc, *TREE, "threshold", 1, float("nan")),
        ": tree node 1: threshold nan must be finite",
    ),
    "tree_hist_zero": (
        lambda doc: with_keys(doc, *TREE, "hist", 2, [0, 0, 0]),
        ": tree node 2: hist [0.0, 0.0, 0.0] must be 3 non-negative numbers with a finite, positive total",
    ),
    "tree_hist_negative": (
        lambda doc: with_keys(doc, *TREE, "hist", 2, [46.0, -1.0, 0.0]),
        ": tree node 2: hist [46.0, -1.0, 0.0] must be 3 non-negative numbers with a finite, positive total",
    ),
    "tree_hist_not_finite": (
        lambda doc: with_keys(doc, *TREE, "hist", 3, [0.0, float("inf"), 0.0]),
        ": tree node 3: hist [0.0, inf, 0.0] must be 3 non-negative numbers with a finite, positive total",
    ),
    "pipeline_pair_negative": (
        lambda doc: with_keys(doc, "pipeline", "engineered_pairs", 0, [-1, 3]),
        ": pipeline engineered pair [-1, 3] must satisfy 0 <= i < j < 23",
    ),
    "pipeline_pair_reversed": (
        lambda doc: with_keys(doc, "pipeline", "engineered_pairs", 0, [3, 2]),
        ": pipeline engineered pair [3, 2] must satisfy 0 <= i < j < 23",
    ),
    "pipeline_pair_past_width": (
        lambda doc: with_keys(doc, "pipeline", "engineered_pairs", 0, [2, 23]),
        ": pipeline engineered pair [2, 23] must satisfy 0 <= i < j < 23",
    ),
    "pipeline_max_infinite": (
        lambda doc: with_keys(doc, "pipeline", "minmax", "max", 0, float("inf")),
        ": pipeline minmax min and max must each hold 23 finite values, with min <= max",
    ),
    "pipeline_short_min": (
        lambda doc: with_keys(doc, "pipeline", "minmax", "min", at(doc, "pipeline", "minmax", "min")[1:]),
        ": pipeline minmax min and max must each hold 23 finite values, with min <= max",
    ),
    "pipeline_min_above_max": (
        lambda doc: with_keys(doc, "pipeline", "minmax", "min", 0, at(doc, "pipeline", "minmax", "max", 0) + 1),
        ": pipeline minmax min and max must each hold 23 finite values, with min <= max",
    ),
    # numbers read by the run config's rules: no strings, booleans or fractional indices
    "tree_threshold_string": (
        lambda doc: with_keys(doc, *TREE, "threshold", 0, "0.5"),
        ": tree node 0: threshold '0.5' must be finite",
    ),
    "tree_threshold_bool": (
        lambda doc: with_keys(doc, *TREE, "threshold", 0, True),
        ": tree node 0: threshold True must be finite",
    ),
    "tree_left_fractional": (
        lambda doc: with_keys(doc, *TREE, "left", 0, 1.9),
        ": tree node 0: left 1.9 must be an integer",
    ),
    "tree_right_string": (
        lambda doc: with_keys(doc, *TREE, "right", 0, str(at(doc, *TREE, "right", 0))),
        ": tree node 0: right '",
    ),
    "tree_hist_string": (
        lambda doc: with_keys(doc, *TREE, "hist", 2, ["1", 0, 0]),
        ": tree node 2: hist ['1', 0, 0] must be 3 non-negative numbers with a finite, positive total",
    ),
    "tree_hist_bool": (
        lambda doc: with_keys(doc, *TREE, "hist", 2, [True, 0, 0]),
        ": tree node 2: hist [True, 0, 0] must be 3 non-negative numbers with a finite, positive total",
    ),
    "svm_string_support": (
        lambda doc: with_keys(doc, *SVM, "support_x", 0, 0, "0.5"),
        ": svm support_x, coef and bias must be finite numbers, and support_x[0] is not",
    ),
    "svm_bool_bias": (
        lambda doc: with_keys(doc, *SVM, "bias", 0, True),
        ": svm support_x, coef and bias must be finite numbers, and bias[0] is not",
    ),
    "svm_bool_gamma": (
        lambda doc: with_keys(doc, *SVM, "kernel", "gamma", True),
        ": svm.kernel.gamma must be a number, got true",
    ),
    "svm_fractional_degree": (
        lambda doc: with_keys(doc, *SVM, "kernel", "degree", 2.5),
        ": svm.kernel.degree must be an integer, got 2.5",
    ),
    "svm_degree_zero": (
        lambda doc: with_keys(doc, *SVM, "kernel", "degree", 0),
        ": kernel degree must be >= 1, got 0",
    ),
    "mlp_string_weight": (
        lambda doc: with_keys(doc, *MLP, "weights", 0, 0, 0, "0.1"),
        ": mlp weights[0][0] must hold finite numbers",
    ),
    "mlp_string_history": (
        lambda doc: with_keys(doc, *MLP, "history", "train_loss", "abc"),
        ': mlp.history.train_loss must be a list of numbers, got "abc"',
    ),
    "pipeline_min_string": (
        lambda doc: with_keys(doc, "pipeline", "minmax", "min", 0, "1"),
        ": pipeline minmax min and max must each hold 23 finite values, with min <= max: min[0] is '1'",
    ),
    "pipeline_pair_fractional": (
        lambda doc: with_keys(doc, "pipeline", "engineered_pairs", 0, [0.9, 5]),
        ": pipeline engineered pair [0.9, 5] must satisfy 0 <= i < j < 23, as integers",
    ),
    "pipeline_pair_string": (
        lambda doc: with_keys(doc, "pipeline", "engineered_pairs", 0, ["2", 5]),
        ": pipeline engineered pair ['2', 5] must satisfy 0 <= i < j < 23, as integers",
    ),
    # one number where a model file wants one, not a list of one
    "svm_gamma_list": (
        lambda doc: with_keys(doc, *SVM, "kernel", "gamma", [0.25]),
        ": svm.kernel.gamma must be a number, got [0.25]",
    ),
    "svm_degree_list": (
        lambda doc: with_keys(doc, *SVM, "kernel", "degree", [3]),
        ": svm.kernel.degree must be an integer, got [3]",
    ),
    "svm_coef0_list": (
        lambda doc: with_keys(doc, *SVM, "kernel", "coef0", [0.0]),
        ": svm.kernel.coef0 must be a number, got [0.0]",
    ),
    "tree_n_features_list": (
        lambda doc: with_keys(doc, *TREE, "n_features", [80]),
        ": tree.n_features must be an integer, got [80]",
    ),
    # a mode Hyperparams would refuse; read as-is, it would score hard voting
    "voting_mode_capitalised": (
        lambda doc: with_keys(doc, "model", "params", "mode", "Soft"),
        ': voting.mode must be "hard" or "soft", got "Soft"',
    ),
    "voting_mode_number": (
        lambda doc: with_keys(doc, "model", "params", "mode", 5),
        ': voting.mode must be "hard" or "soft", got 5',
    ),
    "voting_mode_null": (
        lambda doc: with_keys(doc, "model", "params", "mode", None),
        ': voting.mode must be "hard" or "soft", got null',
    ),
    # the version and the family by the run config's rules: JSON true is not the integer 1
    "wrapper_version_true": (lambda doc: with_keys(doc, "version", True), ": version must be an integer, got true"),
    "family_list": (
        lambda doc: with_keys(doc, "model", "family", ["voting"]),
        ': model.family must be a string, got ["voting"]',
    ),
    "model_name_number": (lambda doc: with_keys(doc, "model_name", 5), ": model_name must be a string, got 5"),
    "weight_past_float_range": (
        lambda doc: with_keys(doc, *MLP, "weights", 0, 0, 0, 10**400),
        ": mlp weights[0][0] must hold finite numbers",
    ),
    "tree_n_features_past_int64": (
        lambda doc: with_keys(doc, *TREE, "n_features", 2**63),
        f": tree.n_features must be an integer in [1, 2**63), got {2**63}",
    ),
    # the kernel and the history read as their dataclasses
    "svm_kernel_unknown_key": (
        lambda doc: with_keys(doc, *SVM, "kernel", "foo", 1),
        ": unknown key(s) in svm.kernel: foo",
    ),
    "svm_kernel_no_kind": (
        lambda doc: with_keys(doc, *SVM, "kernel", {"gamma": 0.5}),
        ": svm.kernel is missing key 'kind'",
    ),
    "mlp_history_unknown_key": (
        lambda doc: with_keys(doc, *MLP, "history", "foo", []),
        ": unknown key(s) in mlp.history: foo",
    ),
    "mlp_history_list": (
        lambda doc: with_keys(doc, *MLP, "history", []),
        ": mlp.history must be a JSON object, got []",
    ),
    # a section of the wrong JSON type, named where it is first read
    "model_list": (lambda doc: with_keys(doc, "model", [1]), ": model must be a JSON object, got [1]"),
    "member_number": (
        lambda doc: with_keys(doc, "model", "params", "members", 0, 3),
        ": model must be a JSON object, got 3",
    ),
    "pipeline_list": (lambda doc: with_keys(doc, "pipeline", []), ": pipeline must be a JSON object, got []"),
    "params_number": (
        lambda doc: with_keys(doc, "model", "params", 5),
        ": model.params must be a JSON object, got 5",
    ),
    "pipeline_minmax_list": (
        lambda doc: with_keys(doc, "pipeline", "minmax", [0, 1]),
        ": pipeline.minmax must be a JSON object, got [0, 1]",
    ),
    "pipeline_pairs_number": (
        lambda doc: with_keys(doc, "pipeline", "engineered_pairs", 2),
        ": pipeline.engineered_pairs must be a list, got 2",
    ),
    "pipeline_pairs_flat": (
        lambda doc: with_keys(doc, "pipeline", "engineered_pairs", [1]),
        ": pipeline engineered pair 1 must satisfy 0 <= i < j < 23, as integers",
    ),
    "mlp_weights_number": (lambda doc: with_keys(doc, *MLP, "weights", 1), ": mlp.weights must be a list, got 1"),
    "mlp_biases_object": (lambda doc: with_keys(doc, *MLP, "biases", {}), ": mlp.biases must be a list, got {}"),
    "voting_members_number": (
        lambda doc: with_keys(doc, "model", "params", "members", 4),
        ": ensemble.members must be a list, got 4",
    ),
    "bagging_members_string": (
        lambda doc: with_keys(doc, "model", "params", "members", 2, "params", "members", "trees"),
        ': ensemble.members must be a list, got "trees"',
    ),
    "tree_left_object": (
        lambda doc: with_keys(doc, *TREE, "left", {"a": 1}),
        ": tree node 0: left {'a': 1} must be an integer",
    ),
    # a tree in version 1's layout, its nodes under one key, has none of the arrays
    "tree_nodes_object": (
        lambda doc: with_keys(doc, *TREE, {"n_features": 80, "nodes": {"a": 1}}),
        " is missing key 'feature'",
    ),
    "tree_node_number": (
        lambda doc: with_keys(doc, *TREE, "hist", 1, 0.5),
        ": tree node 1: hist 0.5 must be 3 non-negative numbers with a finite, positive total",
    ),
    "tree_hist_false": (
        lambda doc: with_keys(doc, *TREE, "hist", 2, False),
        ": tree node 2: hist False must be 3 non-negative numbers with a finite, positive total",
    ),
    # a leaf is marked by both children being its own number, and false or null is no number
    "tree_leaf_false": (
        lambda doc: with_keys(doc, *TREE, "left", 3, False),
        ": tree node 3: left False must be an integer",
    ),
    "tree_leaf_null": (
        lambda doc: with_keys(doc, *TREE, "right", 3, None),
        ": tree node 3: right None must be an integer",
    ),
}

# one JSON value of each kind, and an integer past the float range
ODD_VALUES = [True, False, None, 0, -1, 2, 0.5, "x", "", [], [1], {}, {"a": 1}, 10**400]


def key_paths(node, path=()):
    """The key path of every value under ``node``, a list's first and last
    entries standing for the rest."""
    if isinstance(node, dict):
        keys = list(node)
    else:
        keys = sorted({0, len(node) - 1}) if isinstance(node, list) and node else []
    for key in keys:
        yield path + (key,)
        yield from key_paths(node[key], path + (key,))


class ArtifactNames(list):
    """A stand-in for ``ArtifactWriter`` that lists each artifact's name and writes nothing."""

    def write_text(self, name, *content):
        self.append(name)

    write_json = write_svg = write_text


class TestMalformedModelFile:
    def evaluate(self, tmp_path, model_path) -> tuple[list[str], Path]:
        d = synth_generate(60, 21)
        save_csv(d, tmp_path / "rows.csv")
        cfg = write_config(
            tmp_path / "eval.json", data={"csv_path": str(tmp_path / "rows.csv")}, model_path=str(model_path)
        )
        out = tmp_path / "evaluate"
        return ["evaluate", "--config", str(cfg), "--output-dir", str(out)], out

    @pytest.mark.parametrize("case", list(MALFORMED_MODEL_FILES))
    def test_exit_2_with_one_line_naming_file_and_problem(self, tmp_path, capsys, trained_model, case):
        content, problem = MALFORMED_MODEL_FILES[case]
        if callable(content):
            content = content(trained_model)
        model_path = tmp_path / "model.json"
        model_path.write_text(content if isinstance(content, str) else json.dumps(content))
        argv, out = self.evaluate(tmp_path, model_path)
        assert main(argv) == 2
        first, *rest = capsys.readouterr().err.splitlines()
        assert first.startswith(f"error: model file {model_path}")
        assert problem in first
        assert rest[0].startswith("usage:")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("member", [None, 1])
    def test_a_one_vs_rest_svm_document_is_refused(self, tmp_path, capsys, trained_model, member):
        """An svm model, alone or as voting's member, written before the
        machines became one per class pair has family ``svm_ovr`` and the same
        params layout; it exits 2 at load instead of scoring under the wrong rule."""
        if member is None:
            cfg = write_config(tmp_path / "cfg.json", model={"name": "svm_rbf"})
            assert main(["train", "--config", str(cfg), "--output-dir", str(tmp_path / "train")]) == 0
            doc = json.loads((tmp_path / "train" / "model.json").read_text())
            path = ("model", "family")
        else:
            doc, path = trained_model, ("model", "params", "members", member, "family")
        assert at(doc, *path) == "svm_ovo"
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(with_keys(doc, *path, "svm_ovr")))
        capsys.readouterr()
        argv, out = self.evaluate(tmp_path, model_path)
        assert main(argv) == 2
        first = capsys.readouterr().err.splitlines()[0]
        assert first == f"error: model file {model_path}: unknown model family: 'svm_ovr'"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "name, key, value, message",
        [
            ("svm_poly", "degree", 0, "kernel degree must be >= 1, got 0"),
            ("svm_rbf", "gamma", -1, "gamma must be positive"),
        ],
    )
    def test_config_and_model_file_refuse_a_kernel_value_alike(
        self, tmp_path, capsys, trained_model, name, key, value, message
    ):
        # KernelSpec owns the kernel range rules, which a run config reaches through Hyperparams
        cfg = write_config(tmp_path / "cfg.json", model={"name": name, "hyperparams": {key: value}})
        assert main(["train", "--config", str(cfg), "--output-dir", str(tmp_path / "train")]) == 2
        assert capsys.readouterr().err.splitlines()[0] == f"error: {message}"
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(with_keys(trained_model, *SVM, "kernel", key, value)))
        argv, _ = self.evaluate(tmp_path, model_path)
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines()[0] == f"error: model file {model_path}: {message}"

    def test_one_value_anywhere_exits_0_or_2(self, tmp_path, capsys, monkeypatch, trained_model):
        """Every pair of a key path and an odd value, run by ``cmd_evaluate`` on the document as
        ``_json_object`` parses it: through ``main`` the 1,540 runs take a minute. ``main`` exits 2
        on a ``ConfigError`` and 1 on any other exception; one pair checks ``main`` itself."""
        model_path = tmp_path / "model.json"
        argv, out = self.evaluate(tmp_path, model_path)
        cfg = parse_config(json.loads(Path(argv[2]).read_text()))
        doc = json.loads(json.dumps(trained_model))
        monkeypatch.setattr(cli, "_json_object", lambda path, what: doc)
        for path in key_paths(trained_model):
            parent, key = at(doc, *path[:-1]), path[-1]
            held = parent[key]
            for value in ODD_VALUES:
                parent[key] = value
                writes = ArtifactNames()
                try:
                    cli.cmd_evaluate(cfg, writes)
                except ConfigError as exc:
                    assert str(exc).startswith(f"model file {model_path}"), (path, value)
                    assert not writes, (path, value)
                except Exception as exc:  # noqa: BLE001 - what main reports as exit 1
                    pytest.fail(f"{json.dumps(value)} at {path} exits 1: {exc}")
            parent[key] = held
        assert doc == trained_model  # no reader changed the document it read
        monkeypatch.undo()
        model_path.write_text(json.dumps(with_keys(trained_model, "model", "params", "mode", None)))
        assert main(argv) == 2
        first, *rest = capsys.readouterr().err.splitlines()
        assert first.startswith(f"error: model file {model_path}")
        assert rest[0].startswith("usage:")
        assert not out.exists() or not any(out.iterdir())

    def test_file_carries_one_version(self, trained_model):
        def versions(node) -> int:
            if isinstance(node, dict):
                return ("version" in node) + sum(map(versions, node.values()))
            return sum(map(versions, node)) if isinstance(node, list) else 0

        assert trained_model["version"] == 2
        assert versions(trained_model) == 1

    def test_unreadable_file_exit_2(self, tmp_path, capsys):
        argv, out = self.evaluate(tmp_path, tmp_path / "missing.json")
        assert main(argv) == 2
        message = capsys.readouterr().err.splitlines()[0]
        assert message == f"error: cannot read model file {tmp_path / 'missing.json'}: No such file or directory"
        assert not out.exists() or not any(out.iterdir())

    def test_tree_wider_than_the_pipeline_exit_2_at_load(self, tmp_path, capsys, trained_model):
        # a well-formed document whose trees expect other inputs is refused before any row is read
        doc = with_keys(trained_model, *TREE, "n_features", at(trained_model, *TREE, "n_features") + 1)
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        argv, out = self.evaluate(tmp_path, model_path)
        assert main(argv) == 2
        first, *rest = capsys.readouterr().err.splitlines()
        assert first.startswith(f"error: model file {model_path}: dimension mismatch: model expects")
        assert rest[0].startswith("usage:")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_pipeline_narrower_than_the_model_exit_2_at_load(self, tmp_path, capsys, name):
        hyperparams = {"epochs": 5, "n_estimators": 3, "max_depth": 3}
        model = {"name": name, "hyperparams": {k: v for k, v in hyperparams.items() if k in HYPERPARAMS_READ[name]}}
        cfg = write_config(tmp_path / "cfg.json", model=model)
        assert main(["train", "--config", str(cfg), "--output-dir", str(tmp_path / "run")]) == 0
        doc = json.loads((tmp_path / "run" / "model.json").read_text())
        pairs = at(doc, "pipeline", "engineered_pairs")
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(with_keys(doc, "pipeline", "engineered_pairs", pairs[:-1])))
        argv, out = self.evaluate(tmp_path, model_path)
        capsys.readouterr()
        assert main(argv) == 2
        first, *rest = capsys.readouterr().err.splitlines()
        width = len(FEATURE_NAMES) + len(pairs)
        mismatch = f"dimension mismatch: model expects {width} features, got {width - 1}"
        assert first == f"error: model file {model_path}: {mismatch}"
        assert rest[0].startswith("usage:")
        assert not out.exists() or not any(out.iterdir())

    def test_pipeline_with_retired_settings_evaluates_alike(self, tmp_path, trained_model):
        # a file written before the pipeline held only its fitted state also carries the settings and names
        pipeline = trained_model["pipeline"]
        names = [f"{FEATURE_NAMES[i]}+{FEATURE_NAMES[j]}" for i, j in pipeline["engineered_pairs"]]
        retired = {
            "order": "paper_order",
            "minmax": pipeline["minmax"],
            "feature_names": list(FEATURE_NAMES),
            "engineered_pairs": pipeline["engineered_pairs"],
            "engineered_names": names,
            "corr_hi": 0.5,
            "corr_lo": -0.4,
        }
        artifacts = {}
        for kind, doc in (("current", trained_model), ("retired", with_keys(trained_model, "pipeline", retired))):
            model_path = tmp_path / f"{kind}.json"
            model_path.write_text(json.dumps(doc))
            (tmp_path / kind).mkdir()
            argv, out = self.evaluate(tmp_path / kind, model_path)
            assert main(argv) == 0
            artifacts[kind] = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        assert "metrics.json" in artifacts["current"]
        assert artifacts["retired"] == artifacts["current"]


class TestThreadsVariable:
    @pytest.mark.parametrize("value", ["abc", "-3", "2.5"])
    def test_malformed_value_exit_2_before_any_artifact(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("ONCOGRADE_THREADS", value)
        cfg = write_config(tmp_path / "cfg.json")
        runs = [[command, "--config", str(cfg)] for command in cli._COMMANDS]
        for argv in runs + [["report", "--runs", str(tmp_path)]]:
            out = tmp_path / f"out_{argv[0]}"
            assert main([*argv, "--output-dir", str(out)]) == 2, argv[0]
            first, *rest = capsys.readouterr().err.splitlines()
            assert first == f"error: ONCOGRADE_THREADS must be a non-negative integer, got '{value}'"
            assert all(line.startswith("usage:") or line.startswith(" ") for line in rest)
            assert not out.exists()


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

    def test_bagging_sweep_charts_min_child_weight_on_x(self, tmp_path):
        """Bagging reads no learning rate, so its chart puts the axis it does
        read on x, one tick per min child weight, with one line: a line per
        learning rate would draw one trained model's scores twice."""
        sweep_axes = {"learning_rate": [0.01, 0.1], "min_child_weight": [1.0, 3.0, 8.0]}
        cfg = write_config(tmp_path / "cfg.json", eval={"k": 3, "sweep": sweep_axes})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--output-dir", str(out)]) == 0
        texts = [el for el in ET.parse(out / "sweep.svg").iter() if el.tag.endswith("text")]
        x_ticks = [el.text for el in texts if el.get("font-size") == "11" and el.get("text-anchor") == "middle"]
        labels = [el.text for el in texts if el.get("font-size") == "13"]
        assert x_ticks == ["1", "3", "8"]
        assert "min child weight" in labels and "learning rate" not in labels
        assert [el.text for el in texts if el.get("font-size") == "12"] == ["validation accuracy"]

    def test_dnn_sweep_draws_one_line(self, tmp_path):
        # the dnn reads no min child weight, so a line per mcw value drew copies of one
        sweep_axes = {"learning_rate": [0.01, 0.1], "min_child_weight": [1.0, 3.0, 5.0]}
        model = {"name": "dnn", "hyperparams": {"epochs": 5, "hidden_layers": [8]}}
        cfg = write_config(tmp_path / "cfg.json", model=model, eval={"sweep": sweep_axes})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(cfg), "--output-dir", str(out)]) == 0
        elements = list(ET.parse(out / "sweep.svg").iter())
        assert len([el for el in elements if el.tag.endswith("polyline")]) == 1
        legend = [el.text for el in elements if el.tag.endswith("text") and el.get("font-size") == "12"]
        assert legend == ["validation accuracy"]

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

    def test_profile_finds_non_integer_constant_columns(self, tmp_path):
        # the mean of 300 copies of 7.7 is not 7.7; the centred noise read as r = 1.0 between the two
        d = synth_generate(300, 3)
        constant = [FEATURE_NAMES.index("Snoring"), FEATURE_NAMES.index("Dry Cough")]
        d.X[:, constant] = 7.7
        save_csv(d, tmp_path / "rows.csv")
        cfg = write_config(tmp_path / "cfg.json", data={"csv_path": str(tmp_path / "rows.csv")})
        out = tmp_path / "profile"
        assert main(["profile", "--config", str(cfg), "--output-dir", str(out)]) == 0
        doc = json.loads((out / "correlation.json").read_text())
        assert doc["zero_variance_columns"] == sorted(constant)
        pairs = [(p["i"], p["j"]) for p in doc["engineered"] + doc["flagged"]]
        assert pairs and not any(i in constant or j in constant for i, j in pairs)

    def test_report(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        runs = []
        for model in ({"name": "bagging", "hyperparams": {"n_estimators": 4, "max_depth": 4}}, {"name": "svm_linear"}):
            name = model["name"]
            cfg_n = write_config(tmp_path / f"{name}.json", model=model)
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

    def test_report_names_an_evaluate_run_by_the_model_it_scored(self, tmp_path):
        """An evaluate run is named by the model its model file holds, not the
        config's unread model section (dnn by default)."""
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(
            json.dumps(
                {
                    "seed": 3,
                    "data": {"synthetic": {"n": 150}},
                    "model": {"name": "voting", "hyperparams": {"epochs": 5, "n_estimators": 3}},
                }
            )
        )
        train_run, eval_run = tmp_path / "train_run", tmp_path / "eval_run"
        assert main(["train", "--config", str(train_cfg), "--output-dir", str(train_run)]) == 0
        save_csv(synth_generate(200, 3), tmp_path / "rows.csv")
        eval_cfg = tmp_path / "eval.json"
        eval_cfg.write_text(
            json.dumps({"data": {"csv_path": str(tmp_path / "rows.csv")}, "model_path": str(train_run / "model.json")})
        )
        assert main(["evaluate", "--config", str(eval_cfg), "--output-dir", str(eval_run)]) == 0
        rep_out = tmp_path / "report"
        assert main(["report", "--runs", str(train_run), str(eval_run), "--output-dir", str(rep_out)]) == 0
        rows = list(csv.reader(io.StringIO((rep_out / "comparison.csv").read_text())))
        assert [row[0] for row in rows[1:]] == ["voting", "voting"]

    def test_report_missing_run_exit_2(self, tmp_path):
        assert main(["report", "--runs", str(tmp_path / "ghost"), "--output-dir", str(tmp_path / "r")]) == 2


REPORT_METRICS = ("accuracy", "macro_precision", "macro_recall", "macro_f1")
VALID_RUN_FILES = {
    "manifest.json": {"resolved_config": {"model": {"name": "dnn"}}},
    "metrics.json": {key: 0.5 for key in REPORT_METRICS},
}
# each malformed run file: its name, its content (a string is written as it
# is) and the problem its one-line message names
MALFORMED_RUN_FILES = {
    "manifest_not_json": ("manifest.json", "{not json", " is not valid JSON: Expecting property name"),
    "metrics_not_json": ("metrics.json", "[1,", " is not valid JSON: Expecting value"),
    "manifest_list": ("manifest.json", [1, 2], ": not a JSON object"),
    "metrics_string": ("metrics.json", '"accuracy"', ": not a JSON object"),
    "resolved_config_null": (
        "manifest.json",
        {"resolved_config": None},
        ": resolved_config must be a JSON object, got null",
    ),
    "resolved_config_list": ("manifest.json", {"resolved_config": []}, ": resolved_config must be a JSON object, got []"),
    "model_list": (
        "manifest.json",
        {"resolved_config": {"model": []}},
        ": resolved_config.model must be a JSON object, got []",
    ),
    "name_number": ("manifest.json", {"resolved_config": {"model": {"name": 3}}}, "name must be a string, got 3"),
    "metric_string": (
        "metrics.json",
        {**VALID_RUN_FILES["metrics.json"], "macro_f1": "high"},
        ': macro_f1 must be a number, got "high"',
    ),
    **{
        f"no_{key}": ("metrics.json", {k: 0.5 for k in REPORT_METRICS if k != key}, f" is missing key {key!r}")
        for key in REPORT_METRICS
    },
}


class TestSplitWithAnEmptySide:
    """On a CSV with one row per class every split leaves one side empty,
    which the split itself refuses, naming the side."""

    @pytest.mark.parametrize(
        "command, preprocess, side",
        [
            ("train", {"order": "paper_order", "test_fraction": 0.5}, "training"),
            ("train", {"order": "leak_safe", "test_fraction": 0.5}, "training"),
            ("train", {"order": "leak_safe"}, "test"),
            ("curve", {}, "test"),
            ("sweep", {}, "test"),
        ],
    )
    def test_exit_1_naming_the_empty_side(self, tmp_path, capsys, command, preprocess, side):
        d = synth_generate(60, 21)  # rows grouped by class, 20 each
        save_csv(Dataset(d.X[[0, 20, 40]], d.y[[0, 20, 40]]), tmp_path / "rows.csv")
        data = {"csv_path": str(tmp_path / "rows.csv")}
        cfg = write_config(tmp_path / "cfg.json", data=data, preprocess={"smote_k": 3, **preprocess})
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: the split leaves no {side} rows: every class has a single row"
        ]
        assert not any(out.iterdir())


class TestMalformedRunDirectory:
    def report(self, tmp_path, files: dict) -> tuple[list[str], Path]:
        run = tmp_path / "run"
        run.mkdir()
        for name, content in files.items():
            (run / name).write_text(content if isinstance(content, str) else json.dumps(content))
        return ["report", "--runs", str(run), "--output-dir", str(tmp_path / "report")], run

    def test_valid_hand_made_run_reports(self, tmp_path):
        argv, _ = self.report(tmp_path, VALID_RUN_FILES)
        assert main(argv) == 0
        assert (tmp_path / "report" / "comparison.csv").read_text() == (
            "model,accuracy,macro_precision,macro_recall,macro_f1\ndnn,0.5,0.5,0.5,0.5\n"
        )

    @pytest.mark.parametrize("case", list(MALFORMED_RUN_FILES))
    def test_exit_2_with_one_line_naming_file_and_problem(self, tmp_path, capsys, case):
        name, content, problem = MALFORMED_RUN_FILES[case]
        argv, run = self.report(tmp_path, {**VALID_RUN_FILES, name: content})
        assert main(argv) == 2
        first, *rest = capsys.readouterr().err.splitlines()
        assert first.startswith(f"error: run file {run / name}")
        assert problem in first
        assert rest[0].startswith("usage:")
        out = tmp_path / "report"
        assert not out.exists() or not any(out.iterdir())

    def test_empty_output_dir_exit_2(self, tmp_path, capsys, monkeypatch):
        argv, _ = self.report(tmp_path, VALID_RUN_FILES)
        monkeypatch.chdir(tmp_path)
        assert main([*argv[:-1], ""]) == 2
        first, *rest = capsys.readouterr().err.splitlines()
        assert first == "error: output_dir must name a directory, got an empty string"
        assert rest[0].startswith("usage:")
        assert os.listdir(tmp_path) == ["run"]

    def test_missing_metrics_file_exit_2(self, tmp_path, capsys):
        argv, run = self.report(tmp_path, {"manifest.json": VALID_RUN_FILES["manifest.json"]})
        assert main(argv) == 2
        message = capsys.readouterr().err.splitlines()[0]
        assert message == f"error: cannot read run file {run / 'metrics.json'}: No such file or directory"


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
        prep = run_pipeline(d, PreprocessConfig(smote_k=3), derive_stream(21, 1))
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


SRC_DIR = Path(cli.__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(args: list[str], cwd, **env_vars) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh process that imports oncograde from this
    checkout, with the BLAS thread variables unset unless given."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    env.update(env_vars)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, check=True)


class TestFreshProcess:
    def test_model_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """``train`` writes the same svm_linear ``model.json`` with the BLAS
        thread variables unset, 1 and 2: a threaded ``X @ X.T`` may round an
        entry differently and SMO amplifies it, so the package pins one thread.

        Unset means one thread per core, so on a one-core machine every run
        uses one thread and this test cannot show that defect."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 42, "data": {"synthetic": {"n": 1000}}, "model": {"name": "svm_linear"}}))
        digests = []
        for threads in (None, "1", "2"):
            out = tmp_path / f"threads_{threads}"
            env = {} if threads is None else dict.fromkeys(BLAS_THREAD_VARS, threads)
            run_python(["-m", "oncograde.cli", "train", "--config", str(cfg), "--output-dir", str(out)], tmp_path, **env)
            digests.append(sha256(out / "model.json"))
        assert digests[0] == digests[1] == digests[2]

    def test_importing_the_cli_loads_no_model_family(self, tmp_path):
        """``import oncograde.cli`` loads what every subcommand uses and, past
        the standard library, only numpy; ``ModelSpec.train`` and
        ``model_from_doc`` load the model families when a model is made."""
        code = (
            "import json, sys; before = set(sys.modules); import oncograde.cli; "
            "print(json.dumps(sorted(set(sys.modules) - before)))"
        )
        added = json.loads(run_python(["-c", code], tmp_path).stdout)
        ours = {m for m in added if m.split(".")[0] == "oncograde"}
        modules = ("", ".cli", ".core", ".dataset", ".eval", ".preprocess", ".svg", ".models", ".models.base")
        assert ours == {f"oncograde{m}" for m in modules}
        outside = {m.split(".")[0] for m in added} - {"oncograde", "numpy"}
        assert outside <= sys.stdlib_module_names, sorted(outside - sys.stdlib_module_names)
