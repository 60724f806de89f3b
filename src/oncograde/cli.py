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
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .core import RngStream, json_value, worker_count
from .dataset import (
    FEATURE_NAMES, LABEL_VALUES, ORDINAL_HIGH, ORDINAL_LOW, Dataset, SyntheticConfig, csv_text,
    iter_csv_blocks, load_csv, synth_generate,
)
from .eval import (
    EvalConfig,
    confusion,
    confusion_to_csv,
    curve_to_csv,
    cv_to_csv,
    kfold_cv,
    learning_curve,
    metrics,
    sweep,
    sweep_to_csv,
)
from .models.base import HYPERPARAMS_READ, MODEL_NAMES, ModelSpec, model_from_doc, model_to_doc
from .preprocess import (
    PreprocessConfig,
    Preprocessor,
    correlation_to_csv,
    correlation_to_json,
    pearson_matrix,
    run_pipeline,
    smote,  # noqa: F401 - bound here so benchmark tracing can patch it under this name too
)
from .svg import render_svg

MODEL_WRAPPER_VERSION = 2


class ConfigError(Exception):
    """Bad config or usage; maps to exit code 2."""


# --- configuration ----------------------------------------------------------
#
# The dataclasses mirror the JSON run config key for key; `parse_config`
# reads each field by its annotation with `core.json_value`, the reader of
# model files too, so a field is declared only once.
# Every section but `data` is the type the code that runs it takes:
# `data.synthetic` is `dataset.SyntheticConfig`, `preprocess` is
# `preprocess.PreprocessConfig`, `model` is `models.base.ModelSpec` and `eval`
# is `eval.EvalConfig`. Each range rule lives in that type's
# `__post_init__`, so a value out of range is a config error (exit 2).


@dataclass
class DataConfig:
    csv_path: str | None = None
    synthetic: SyntheticConfig | None = None

    def __post_init__(self):
        if (self.csv_path is None) == (self.synthetic is None):
            raise ConfigError("data must name exactly one source: csv_path or synthetic")
        if self.csv_path == "":
            raise ConfigError("data.csv_path must name a file, got an empty string")


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
        if self.seed >= 2**64:  # RngStream keeps 64 bits, so a larger seed would alias a smaller one
            raise ConfigError(f"seed must be below 2**64, got {self.seed}")
        if not self.output_dir:
            raise ConfigError("output_dir must name a directory, got an empty string")

    def to_dict(self) -> dict:
        """The resolved config as JSON, without the unset data source, model_path or an unread hyperparameter."""
        doc = dataclasses.asdict(self, dict_factory=lambda items: {k: v for k, v in items if v is not None})
        doc["model"]["hyperparams"] = {k: doc["model"]["hyperparams"][k] for k in HYPERPARAMS_READ[self.model.name]}
        return doc


def parse_config(doc) -> RunConfig:
    try:
        cfg = json_value(RunConfig, doc, "")
    except ValueError as exc:  # a refusal of the reader or of a section type's own check
        raise ConfigError(str(exc)) from None
    reads = HYPERPARAMS_READ[cfg.model.name]
    for key in doc.get("model", {}).get("hyperparams", {}):
        if key not in reads:
            reason = f"{cfg.model.name} does not read it (it reads {', '.join(reads)})"
            raise ConfigError(f"model.hyperparams.{key}: {reason}")
    return cfg


def _json_object(path: str, what: str) -> dict:
    """The JSON object in the ``what`` at ``path``; failing to read one is a
    config error naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from None
    except ValueError as exc:  # a decode error, of the JSON or of its UTF-8
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} {path}: not a JSON object")
    return doc


# --- artifact management ------------------------------------------------------


class ArtifactWriter:
    """Atomic artifact writes (temp + rename) with digest tracking."""

    def __init__(self, output_dir: str):
        self.output_dir = output_dir
        self.written: list[str] = []
        os.makedirs(output_dir, exist_ok=True)

    def _finalize(self, name: str, tmp: str) -> None:
        try:
            os.replace(tmp, os.path.join(self.output_dir, name))
        except OSError:  # the rename failed, so the temp file is no artifact's and would be left behind
            os.remove(tmp)
            raise
        self.written.append(name)

    def write_text(self, name: str, content: str) -> None:
        tmp = os.path.join(self.output_dir, f".{name}.tmp")
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
        self._finalize(name, tmp)

    def write_json(self, name: str, obj) -> None:
        self.write_text(name, json.dumps(obj, indent=2) + "\n")

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
        self.write_json("manifest.json", manifest)

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
    _, X, y = Preprocessor.fit_resample(d.X, d.y, cfg.preprocess, RngStream(cfg.seed).derive(1))
    return X, y


def _slug(name: str) -> str:
    return "".join(ch.lower() if ch.isalnum() else "_" for ch in name)


def _write_chart(
    writer: ArtifactWriter, name: str, chart: str, title: str, x, series, x_label: str, y_label: str
) -> None:
    """Write the ``lines``, ``grouped_bars`` or ``histogram`` chart of
    ``series``, ``(name, y)`` pairs plotted over ``x``."""
    series = [{"name": series_name, "y": y} for series_name, y in series]
    data = {"title": title, "x": x, "series": series, "x_label": x_label, "y_label": y_label}
    writer.write_svg(name, chart, data)


def _write_metrics_artifacts(writer: ArtifactWriter, counts, name: str) -> None:
    """Write the metrics of the confusion ``counts`` of model ``name``, the counts and their heatmap."""
    writer.write_json("metrics.json", dataclasses.asdict(metrics(counts)))
    writer.write_text("confusion.csv", confusion_to_csv(counts))
    writer.write_svg(
        "confusion.svg",
        "heatmap3x3",
        {"title": f"Confusion matrix: {name}", "counts": counts.tolist()},
    )


# --- subcommands ---------------------------------------------------------------


def cmd_profile(cfg: RunConfig, writer: ArtifactWriter) -> None:
    d = _load_dataset(cfg)
    settings = cfg.preprocess
    report = pearson_matrix(d.X, settings.corr_hi, settings.corr_lo)
    writer.write_text("correlation.csv", correlation_to_csv(report))
    writer.write_json("correlation.json", correlation_to_json(report, settings.corr_hi, settings.corr_lo))

    rows = []
    for j, name in enumerate(FEATURE_NAMES):
        col = d.X[:, j]
        if name == "Age":
            lo, hi = float(col.min()), float(col.max())
            if hi - lo == float("inf"):  # Python floats overflow to inf without a numpy warning
                raise ValueError(f"Age spans {lo:g} to {hi:g}, past the float range, so it cannot be binned")
            width = (hi - lo) or 1.0  # a constant column's rows all fall in the first bin
            edges = [lo + width * t / 10 for t in range(11)]
            bins = [f"{edges[b]:g}-{edges[b + 1]:g}" for b in range(10)]
            idx = np.clip(((col - lo) / width * 10).astype(int), 0, 9)
        else:
            bins = [str(b) for b in range(ORDINAL_LOW, ORDINAL_HIGH + 1)]
            idx = np.clip(np.round(col), ORDINAL_LOW, ORDINAL_HIGH).astype(int) - ORDINAL_LOW
        # one count of (class, bin) cells, a row of bin counts per class
        counts = np.bincount(len(bins) * d.y + idx, minlength=len(LABEL_VALUES) * len(bins)).reshape(-1, len(bins))
        series = list(zip(LABEL_VALUES, counts))
        rows.extend([name, label, b, n] for label, row in series for b, n in zip(bins, row))
        title = f"{name} distribution by risk level"
        _write_chart(writer, f"histogram_{_slug(name)}.svg", "histogram", title, bins, series, name, "count")
    writer.write_text("histograms.csv", csv_text(["feature", "class", "bin", "count"], rows))


def cmd_train(cfg: RunConfig, writer: ArtifactWriter) -> None:
    d = _load_dataset(cfg)
    prep = run_pipeline(d, cfg.preprocess, RngStream(cfg.seed).derive(1))
    model = cfg.model.train(
        prep.X_train, prep.y_train, RngStream(cfg.seed).derive(2), prep.X_test, prep.y_test
    )
    cm = confusion(prep.y_test, model.predict(prep.X_test))

    doc = {
        "version": MODEL_WRAPPER_VERSION,
        "model_name": cfg.model.name,
        "pipeline": prep.preprocessor.to_dict(),
        "model": model_to_doc(model),
    }
    writer.write_text("model.json", json.dumps(doc) + "\n")  # no indent, so CPython's C encoder writes it
    _write_metrics_artifacts(writer, cm, cfg.model.name)

    if cfg.model.name == "dnn":
        h = model.history
        header = ["epoch", "train_loss", "val_loss", "train_accuracy", "val_accuracy"]
        rows = zip(range(len(h)), h.train_loss, h.val_loss, h.train_accuracy, h.val_accuracy)
        writer.write_text("history.csv", csv_text(header, rows))
        series = [("train accuracy", h.train_accuracy), ("validation accuracy", h.val_accuracy)]
        title = "Training vs. validation accuracy"
        _write_chart(writer, "history.svg", "lines", title, range(len(h)), series, "epoch", "accuracy")


def cmd_evaluate(cfg: RunConfig, writer: ArtifactWriter) -> str | None:
    """Score the model file's model on the CSV rows; return its name if it is one of MODEL_NAMES."""
    path = cfg.model_path
    if path is None:
        raise ConfigError("evaluate requires model_path in the config")
    if cfg.data.csv_path is None:
        raise ConfigError("evaluate requires data.csv_path in the config")
    wrapper = _json_object(path, "model file")
    try:  # any other fault in the model document is a config error naming the file
        if json_value(int, wrapper["version"], "version") != MODEL_WRAPPER_VERSION:
            raise ValueError(f"unsupported model file version: {wrapper['version']}")
        prep = Preprocessor.from_dict(json_value(dict, wrapper["pipeline"], "pipeline"))
        model = model_from_doc(wrapper["model"])
        # scoring no rows refuses a model that reads another width than the pipeline makes
        model.predict(prep.transform(np.empty((0, len(FEATURE_NAMES)))))
        name = json_value(str, wrapper.get("model_name", "model"), "model_name")
    except KeyError as exc:
        raise ConfigError(f"model file {path} is missing key {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"model file {path}: {exc}") from None

    blocks = iter_csv_blocks(cfg.data.csv_path)  # scored as read, so memory stays bounded
    cm = sum(confusion(y, model.predict(prep.transform(X))) for X, y in blocks)
    _write_metrics_artifacts(writer, cm, name)
    return name if name in MODEL_NAMES else None


def cmd_cv(cfg: RunConfig, writer: ArtifactWriter) -> None:
    X, y = _balanced_dataset(cfg)
    result = kfold_cv(X, y, cfg.model, cfg.eval, RngStream(cfg.seed).derive(3))
    writer.write_text("cv.csv", cv_to_csv(result))
    writer.write_json("cv.json", dataclasses.asdict(result))


def cmd_curve(cfg: RunConfig, writer: ArtifactWriter) -> None:
    X, y = _balanced_dataset(cfg)
    curve = learning_curve(X, y, cfg.model, cfg.eval, RngStream(cfg.seed).derive(3))
    writer.write_text("curve.csv", curve_to_csv(curve))
    series = [("train accuracy", curve.train_score), ("validation accuracy", curve.val_score)]
    title = f"Learning curve: {cfg.model.name}"
    _write_chart(writer, "curve.svg", "lines", title, curve.fractions, series, "training fraction", "accuracy")


def cmd_sweep(cfg: RunConfig, writer: ArtifactWriter) -> None:
    read_axes = {"learning_rate", "min_child_weight"}.intersection(HYPERPARAMS_READ[cfg.model.name])
    # with neither axis read, every cell would be one model, scored once
    if not read_axes:
        raise ConfigError(f"sweep: {cfg.model.name} reads neither sweep axis, learning_rate nor min_child_weight")
    X, y = _balanced_dataset(cfg)
    result = sweep(X, y, cfg.model, cfg.eval, RngStream(cfg.seed).derive(3))
    writer.write_text("sweep.csv", sweep_to_csv(result))
    rates, mcws, grid = result.learning_rates, result.min_child_weights, result.val_grid
    if "learning_rate" in read_axes:
        x, x_label, series = rates, "learning rate", [(f"mcw={mcw:g}", grid[:, j]) for j, mcw in enumerate(mcws)]
    else:  # chart the axis the model reads, min child weight, on x
        x, x_label, series = mcws, "min child weight", [(f"lr={lr:g}", grid[i]) for i, lr in enumerate(rates)]
    if len(read_axes) == 1:  # the other axis is not read, so its lines would copy one model's
        series = [("validation accuracy", series[0][1])]
    title = f"Validation accuracy: {cfg.model.name}"
    _write_chart(writer, "sweep.svg", "lines", title, x, series, x_label, "validation accuracy")


def cmd_report(run_dirs: list[str], writer: ArtifactWriter) -> None:
    header = ["model", "accuracy", "macro_precision", "macro_recall", "macro_f1"]
    rows = []
    for run_dir in run_dirs:
        manifest_path = os.path.join(run_dir, "manifest.json")
        metrics_path = os.path.join(run_dir, "metrics.json")
        manifest, m = _json_object(manifest_path, "run file"), _json_object(metrics_path, "run file")
        try:
            where = f"run file {manifest_path}: resolved_config"
            resolved = json_value(dict, manifest.get("resolved_config", {}), where)
            model = json_value(dict, resolved.get("model", {}), f"{where}.model")
            name = json_value(str, model.get("name", os.path.basename(run_dir)), f"{where}.model.name")
            for key in header[1:]:
                if key not in m:
                    raise ConfigError(f"run file {metrics_path} is missing key {key!r}")
                json_value(float, m[key], f"run file {metrics_path}: {key}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        rows.append([name, *(m[key] for key in header[1:])])
    writer.write_text("comparison.csv", csv_text(header, rows))

    metric_names = ("accuracy", "macro precision", "macro recall", "macro F1")
    series = [(metric_names[k], [row[1 + k] for row in rows]) for k in range(4)]
    models = [row[0] for row in rows]
    _write_chart(writer, "comparison.svg", "grouped_bars", "Model comparison", models, series, "model", "score")


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
        try:  # read before any work, so a malformed value is refused before any artifact is written
            worker_count()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if args.subcommand == "report":
            writer = ArtifactWriter(RunConfig(output_dir=args.output_dir).output_dir)  # checked as a config's
            cmd_report(args.runs, writer)
            writer.write_manifest("report", {"runs": args.runs}, started)
            return 0

        cfg = parse_config(_json_object(args.config, "config"))
        flags = {"seed": args.seed, "output_dir": args.output_dir}
        # __post_init__ checks a flag's value as it checks the config's own
        cfg = dataclasses.replace(cfg, **{key: value for key, value in flags.items() if value is not None})

        resolved = cfg.to_dict()
        if args.subcommand == "evaluate":
            del resolved["model"]  # it scores the model its model file holds, and reads no model section
        print(f"resolved config: {json.dumps(resolved)}")
        writer = ArtifactWriter(cfg.output_dir)
        scored = _COMMANDS[args.subcommand](cfg, writer)
        if scored is not None:  # the model an evaluate run scored, which report names the run by
            resolved["model"] = {"name": scored}
        writer.write_manifest(args.subcommand, resolved, started)
        return 0
    except Exception as exc:  # noqa: BLE001 - single CLI failure boundary
        if writer is not None:
            writer.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConfigError):
            parser.print_usage(sys.stderr)
            return 2
        return 1


if __name__ == "__main__":
    sys.exit(main())
