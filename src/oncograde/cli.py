"""Batch front door: JSON-configured subcommands that run profiling,
training, evaluation, cross-validation, learning curves, and hyperparameter
sweeps, emitting CSV/JSON artifacts plus deterministic SVG charts.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
Partially written artifacts are removed when a command fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
import typing
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .core import RngStream, derive_stream
from .dataset import Dataset, load_csv, synth_generate
from .eval import (
    confusion_to_csv,
    curve_to_csv,
    cv_to_csv,
    cv_to_json,
    evaluate_predictions,
    kfold_cv,
    learning_curve,
    sweep,
    sweep_to_csv,
)
from .models import ModelSpec, model_from_doc, model_to_doc
from .preprocess import (
    CORR_HI_DEFAULT,
    CORR_LO_DEFAULT,
    PIPELINE_ORDERS,
    Preprocessor,
    correlation_to_csv,
    correlation_to_json,
    csv_quote,
    engineer_features,
    pearson_matrix,
    run_pipeline,
    smote,  # noqa: F401 - bound here so benchmark tracing can patch it under this name too
)
from .svg import render_svg

MODEL_WRAPPER_VERSION = 1

# rows `evaluate` predicts at a time, so kernel and activation matrices
# stay bounded however long the CSV is
_EVALUATE_BLOCK_ROWS = 2048


class ConfigError(Exception):
    """Bad config or usage; maps to exit code 2."""


# --- configuration ----------------------------------------------------------
#
# The dataclasses mirror the JSON run config key for key; `parse_config`
# reads each field by its annotation, so a field is declared only here.


@dataclass
class SyntheticConfig:
    n: int = 1000
    class_proportions: list[float] = field(default_factory=lambda: [0.303, 0.332, 0.365])


@dataclass
class DataConfig:
    csv_path: str | None = None
    synthetic: SyntheticConfig | None = None

    def __post_init__(self):
        if (self.csv_path is None) == (self.synthetic is None):
            raise ConfigError("data must name exactly one source: csv_path or synthetic")


@dataclass
class PreprocessConfig:
    order: str = "paper_order"
    smote_k: int = 5
    corr_hi: float = CORR_HI_DEFAULT
    corr_lo: float = CORR_LO_DEFAULT
    test_fraction: float = 0.2

    def __post_init__(self):
        if self.order not in PIPELINE_ORDERS:
            raise ConfigError(f"preprocess.order must be one of {PIPELINE_ORDERS}, got {self.order!r}")


@dataclass
class SweepConfig:
    learning_rate: list[float] = field(default_factory=lambda: [0.001, 0.01, 0.1])
    min_child_weight: list[float] = field(default_factory=lambda: [1.0, 3.0, 5.0])


@dataclass
class EvalConfig:
    k: int = 5
    curve_fractions: list[float] = field(
        default_factory=lambda: [round(0.1 * i, 1) for i in range(1, 11)]
    )
    curve_repeats: int = 3
    sweep: SweepConfig = field(default_factory=SweepConfig)


@dataclass
class RunConfig:
    seed: int = 42
    data: DataConfig = field(default_factory=lambda: DataConfig(synthetic=SyntheticConfig()))
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    model: ModelSpec = field(default_factory=ModelSpec)
    eval: EvalConfig = field(default_factory=EvalConfig)
    output_dir: str = "oncograde_out"
    model_path: str | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")

    def to_dict(self) -> dict:
        """The resolved config as JSON, without the unset data source and model_path."""
        return dataclasses.asdict(
            self, dict_factory=lambda items: {k: v for k, v in items if v is not None}
        )


# the JSON scalar each annotation reads: its noun, its plural and the test a
# value passes (JSON true/false never does); an integral float reads as an int
_SCALARS = {
    int: (
        "an integer",
        "integers",
        lambda v: isinstance(v, int) or isinstance(v, float) and v.is_integer(),
    ),
    # NaN, ±inf and ints too large for a float all fail the comparison
    float: (
        "a number",
        "numbers",
        lambda v: isinstance(v, (int, float)) and abs(v) <= sys.float_info.max,
    ),
    str: ("a string", "strings", lambda v: isinstance(v, str)),
}


def _read(tp, value, where: str):
    """``value`` read as the annotated type ``tp``; ``where`` is its dotted path.

    A dataclass is read from a JSON object with no unknown keys and
    ``list[X]`` from a JSON list; a scalar follows its `_SCALARS` rule.
    """
    if type(None) in typing.get_args(tp):  # `X | None`: None only marks the field unset
        (tp,) = (arm for arm in typing.get_args(tp) if arm is not type(None))
    if dataclasses.is_dataclass(tp):
        name = where or "config"
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be a JSON object, got {json.dumps(value)}")
        hints = typing.get_type_hints(tp)
        unknown = set(value) - {f.name for f in dataclasses.fields(tp)}
        if unknown:
            raise ConfigError(f"unknown key(s) in {name}: {', '.join(sorted(unknown))}")
        return tp(**{k: _read(hints[k], v, f"{where}.{k}" if where else k) for k, v in value.items()})
    if typing.get_origin(tp) is list:
        (item,) = typing.get_args(tp)
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list of {_SCALARS[item][1]}, got {json.dumps(value)}")
        return [_read(item, v, f"{where} entry") for v in value]
    arms = typing.get_args(tp) or (tp,)  # gamma's `float | str` takes either
    for arm in arms:
        if not isinstance(value, bool) and _SCALARS[arm][2](value):
            return arm(value)
    kinds = " or ".join(_SCALARS[arm][0] for arm in arms)
    raise ConfigError(f"{where} must be {kinds}, got {json.dumps(value)}")


def parse_config(doc) -> RunConfig:
    try:
        return _read(RunConfig, doc, "")
    except ValueError as exc:  # a `ModelSpec` or `Hyperparams` check
        raise ConfigError(str(exc)) from None


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(doc)


# --- artifact management ------------------------------------------------------


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


class ArtifactWriter:
    """Atomic artifact writes (temp + rename) with digest tracking."""

    def __init__(self, output_dir: str):
        self.output_dir = output_dir
        self.written: list[str] = []
        os.makedirs(output_dir, exist_ok=True)

    def _finalize(self, name: str, tmp: str) -> None:
        os.replace(tmp, os.path.join(self.output_dir, name))
        self.written.append(name)

    def write_text(self, name: str, content: str) -> None:
        tmp = os.path.join(self.output_dir, f".{name}.tmp")
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
        self._finalize(name, tmp)

    def write_json(self, name: str, obj) -> None:
        self.write_text(name, _dump_json(obj))

    def write_svg(self, name: str, chart: str, data: dict) -> None:
        tmp = os.path.join(self.output_dir, f".{name}.tmp")
        render_svg(chart, data, tmp)
        self._finalize(name, tmp)

    def digests(self) -> list[dict]:
        out = []
        for name in self.written:
            h = hashlib.sha256()
            with open(os.path.join(self.output_dir, name), "rb") as fh:
                h.update(fh.read())
            out.append({"name": name, "sha256": h.hexdigest()})
        return out

    def write_manifest(self, subcommand: str, resolved_config: dict, started: float) -> None:
        manifest = {
            "toolkit_version": __version__,
            "subcommand": subcommand,
            "resolved_config": resolved_config,
            "duration_seconds": time.time() - started,
            "artifacts": self.digests(),
        }
        self.write_text("manifest.json", _dump_json(manifest))

    def cleanup(self) -> None:
        for name in self.written:
            try:
                os.unlink(os.path.join(self.output_dir, name))
            except OSError:
                pass


# --- shared helpers -----------------------------------------------------------


def _load_dataset(cfg: RunConfig) -> Dataset:
    if cfg.data.csv_path is not None:
        return load_csv(cfg.data.csv_path)
    syn = cfg.data.synthetic
    return synth_generate(syn.n, cfg.seed, syn.class_proportions)


def _balanced_dataset(cfg: RunConfig):
    """The whole dataset fitted and oversampled as `train`'s paper_order
    prepares it before its split; cv/curve/sweep run on it whatever the
    order, because only `train` holds out a test set."""
    d = _load_dataset(cfg)
    pp = cfg.preprocess
    prep = Preprocessor(list(d.feature_names), pp.smote_k, pp.corr_hi, pp.corr_lo)
    return prep.fit_resample(d.X, d.y, derive_stream(cfg.seed, 1))


def _slug(name: str) -> str:
    return "".join(ch.lower() if ch.isalnum() else "_" for ch in name)


def _write_metrics_artifacts(writer: ArtifactWriter, counts, report, title: str) -> None:
    writer.write_json("metrics.json", dataclasses.asdict(report))
    writer.write_text("confusion.csv", confusion_to_csv(counts))
    writer.write_svg(
        "confusion.svg",
        "heatmap3x3",
        {"title": title, "counts": counts.tolist()},
    )


# --- subcommands ---------------------------------------------------------------


def cmd_profile(cfg: RunConfig, writer: ArtifactWriter) -> None:
    d = _load_dataset(cfg)
    report = pearson_matrix(d.X, d.feature_names)
    _, report = engineer_features(
        d.X, report, cfg.preprocess.corr_hi, cfg.preprocess.corr_lo
    )
    writer.write_text("correlation.csv", correlation_to_csv(report))
    writer.write_json("correlation.json", correlation_to_json(report))

    lines = ["feature,class,bin,count"]
    for j, name in enumerate(d.feature_names):
        col = d.X[:, j]
        if name == "Age":
            lo, hi = float(col.min()), float(col.max())
            if hi == lo:
                hi = lo + 1.0
            edges = [lo + (hi - lo) * t / 10 for t in range(11)]
            bins = [f"{edges[b]:g}-{edges[b + 1]:g}" for b in range(10)]
            idx = np.clip(((col - lo) / (hi - lo) * 10).astype(int), 0, 9)
        else:
            bins = [str(b) for b in range(1, 10)]
            idx = np.clip(np.round(col).astype(int), 1, 9) - 1
        series = []
        for cls, label in enumerate(("Low", "Medium", "High")):
            counts = np.bincount(idx[d.y == cls], minlength=len(bins))[: len(bins)]
            series.append({"name": label, "values": [int(v) for v in counts]})
            for b, bin_label in enumerate(bins):
                lines.append(f"{csv_quote(name)},{label},{csv_quote(bin_label)},{int(counts[b])}")
        writer.write_svg(
            f"histogram_{_slug(name)}.svg",
            "histogram",
            {
                "title": f"{name} distribution by risk level",
                "bins": bins,
                "series": series,
                "x_label": name,
                "y_label": "count",
            },
        )
    writer.write_text("histograms.csv", "\n".join(lines) + "\n")


def cmd_train(cfg: RunConfig, writer: ArtifactWriter) -> None:
    d = _load_dataset(cfg)
    prep = run_pipeline(
        d,
        cfg.preprocess.order,
        test_fraction=cfg.preprocess.test_fraction,
        smote_k=cfg.preprocess.smote_k,
        corr_hi=cfg.preprocess.corr_hi,
        corr_lo=cfg.preprocess.corr_lo,
        stream=derive_stream(cfg.seed, 1),
    )
    model = cfg.model.train(
        prep.X_train, prep.y_train, derive_stream(cfg.seed, 2), prep.X_test, prep.y_test
    )
    cm, report = evaluate_predictions(prep.y_test, model.predict(prep.X_test))

    writer.write_json(
        "model.json",
        {
            "version": MODEL_WRAPPER_VERSION,
            "model_name": cfg.model.name,
            "pipeline": {"order": prep.order, **prep.preprocessor.to_dict()},
            "model": model_to_doc(model),
        },
    )
    _write_metrics_artifacts(writer, cm, report, f"Confusion matrix: {cfg.model.name}")

    if cfg.model.name == "dnn":
        h = model.history
        rows = ["epoch,train_loss,val_loss,train_accuracy,val_accuracy"]
        for e in range(len(h)):
            rows.append(
                f"{e},{h.train_loss[e]!r},{h.val_loss[e]!r},"
                f"{h.train_accuracy[e]!r},{h.val_accuracy[e]!r}"
            )
        writer.write_text("history.csv", "\n".join(rows) + "\n")
        writer.write_svg(
            "history.svg",
            "lines",
            {
                "title": "Training vs. validation accuracy",
                "x": list(range(len(h))),
                "series": [
                    {"name": "train accuracy", "y": h.train_accuracy},
                    {"name": "validation accuracy", "y": h.val_accuracy},
                ],
                "x_label": "epoch",
                "y_label": "accuracy",
            },
        )


def cmd_evaluate(cfg: RunConfig, writer: ArtifactWriter) -> None:
    if cfg.model_path is None:
        raise ConfigError("evaluate requires model_path in the config")
    try:
        with open(cfg.model_path, encoding="utf-8") as fh:
            wrapper = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read model file: {exc}") from None
    if wrapper.get("version") != MODEL_WRAPPER_VERSION:
        raise ConfigError(f"unsupported model file version: {wrapper.get('version')}")

    d = _load_dataset(cfg)
    X = Preprocessor.from_dict(wrapper["pipeline"]).transform(d.X)
    model = model_from_doc(wrapper["model"])
    block = _EVALUATE_BLOCK_ROWS
    labels = np.concatenate([model.predict(X[lo : lo + block]) for lo in range(0, len(X), block)])
    cm, report = evaluate_predictions(d.y, labels)
    _write_metrics_artifacts(
        writer, cm, report, f"Confusion matrix: {wrapper.get('model_name', 'model')}"
    )


def cmd_cv(cfg: RunConfig, writer: ArtifactWriter) -> None:
    X, y = _balanced_dataset(cfg)
    result = kfold_cv(X, y, cfg.model, cfg.eval.k, derive_stream(cfg.seed, 3))
    writer.write_text("cv.csv", cv_to_csv(result))
    writer.write_json("cv.json", cv_to_json(result))


def cmd_curve(cfg: RunConfig, writer: ArtifactWriter) -> None:
    X, y = _balanced_dataset(cfg)
    curve = learning_curve(
        X,
        y,
        cfg.model,
        cfg.eval.curve_fractions,
        cfg.eval.curve_repeats,
        derive_stream(cfg.seed, 3),
    )
    writer.write_text("curve.csv", curve_to_csv(curve))
    writer.write_svg(
        "curve.svg",
        "lines",
        {
            "title": f"Learning curve: {cfg.model.name}",
            "x": curve.fractions,
            "series": [
                {"name": "train accuracy", "y": curve.train_score},
                {"name": "validation accuracy", "y": curve.val_score},
            ],
            "x_label": "training fraction",
            "y_label": "accuracy",
        },
    )


def cmd_sweep(cfg: RunConfig, writer: ArtifactWriter) -> None:
    X, y = _balanced_dataset(cfg)
    result = sweep(
        X,
        y,
        cfg.model,
        cfg.eval.sweep.learning_rate,
        cfg.eval.sweep.min_child_weight,
        derive_stream(cfg.seed, 3),
    )
    writer.write_text("sweep.csv", sweep_to_csv(result))
    series = [
        {"name": f"mcw={mcw:g}", "y": result.val_grid[:, j].tolist()}
        for j, mcw in enumerate(result.min_child_weights)
    ]
    writer.write_svg(
        "sweep.svg",
        "lines",
        {
            "title": f"Validation accuracy: {cfg.model.name}",
            "x": result.learning_rates,
            "series": series,
            "x_label": "learning rate",
            "y_label": "validation accuracy",
        },
    )


def cmd_report(run_dirs: list[str], writer: ArtifactWriter) -> None:
    rows = []
    for run_dir in run_dirs:
        manifest_path = os.path.join(run_dir, "manifest.json")
        metrics_path = os.path.join(run_dir, "metrics.json")
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
            with open(metrics_path, encoding="utf-8") as fh:
                m = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"run directory {run_dir!r} is missing artifacts: {exc}") from None
        name = manifest.get("resolved_config", {}).get("model", {}).get("name", os.path.basename(run_dir))
        rows.append((name, m["accuracy"], m["macro_precision"], m["macro_recall"], m["macro_f1"]))

    lines = ["model,accuracy,macro_precision,macro_recall,macro_f1"]
    for name, acc, mp, mr, mf in rows:
        lines.append(f"{csv_quote(name)},{acc!r},{mp!r},{mr!r},{mf!r}")
    writer.write_text("comparison.csv", "\n".join(lines) + "\n")

    metric_names = ("accuracy", "macro precision", "macro recall", "macro F1")
    series = [
        {"name": metric_names[k], "values": [row[1 + k] for row in rows]}
        for k in range(4)
    ]
    writer.write_svg(
        "comparison.svg",
        "grouped_bars",
        {
            "title": "Model comparison",
            "categories": [row[0] for row in rows],
            "series": series,
            "x_label": "model",
            "y_label": "score",
        },
    )


# --- entry point -----------------------------------------------------------------


_COMMANDS = {
    "profile": cmd_profile,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "cv": cmd_cv,
    "curve": cmd_curve,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oncograde",
        description="Three-level lung cancer risk classification benchmark harness",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--output-dir", default=None, help="override the config output_dir")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    rep = sub.add_parser("report", help="aggregate prior run directories into a comparison")
    rep.add_argument("--runs", nargs="+", required=True, help="run directories with manifests")
    rep.add_argument("--output-dir", default="oncograde_report", help="where to write the comparison")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.time()

    writer: ArtifactWriter | None = None
    try:
        if args.subcommand == "report":
            writer = ArtifactWriter(args.output_dir)
            cmd_report(args.runs, writer)
            writer.write_manifest("report", {"runs": args.runs}, started)
            return 0

        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)  # __post_init__ checks it
        if args.output_dir is not None:
            cfg.output_dir = args.output_dir

        resolved = cfg.to_dict()
        print(f"resolved config: {json.dumps(resolved)}")
        writer = ArtifactWriter(cfg.output_dir)
        _COMMANDS[args.subcommand](cfg, writer)
        writer.write_manifest(args.subcommand, resolved, started)
        return 0
    except ConfigError as exc:
        if writer is not None:
            writer.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - single CLI failure boundary
        if writer is not None:
            writer.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
