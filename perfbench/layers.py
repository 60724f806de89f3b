"""Which public functions the traced run wraps, and the per-layer
metrics derived from the spans they record.

Layers are the program's modules: ``dataset``, ``preprocess``,
``models.mlp``, ``models.svm``, ``models.tree``, ``models.ensemble``,
``eval``, ``svg``, ``cli`` (artifact writing and model serialization)
and ``core`` (``shuffle``, ``parallel_map``). ``ModelSpec.train`` gets a
span in ``models.base`` so fits made by the evaluation harness can be
counted. Each ``oncograde.cli.main`` call is a ``command`` span, the
root its layer spans hang under.
"""

from __future__ import annotations

import os
import tracemalloc
from contextlib import contextmanager

from tracer import Span, Tracer, self_times

LAYERS = (
    "dataset",
    "preprocess",
    "models.base",
    "models.mlp",
    "models.svm",
    "models.tree",
    "models.ensemble",
    "eval",
    "svg",
    "cli",
    "core",
)

_CLI_WRITES = ("write_text", "write_json", "write_svg", "write_manifest")
_MODEL_DOCS = ("cli.model_to_doc", "cli.model_from_doc")


@contextmanager
def _traced_memory(span: Span):
    """Peak bytes allocated during the call, by tracemalloc."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        yield
    finally:
        span.data["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
        if started:
            tracemalloc.stop()


def _rows(span, args, kwargs, result):
    span.data["rows"] = int(result.n_rows)


def _engineered(span, args, kwargs, result):
    span.data["pairs"] = len(result[1].engineered_pairs)


def _smote_rows(span, args, kwargs, result):
    span.data["rows_made"] = int(result[1].shape[0] - len(args[1] if len(args) > 1 else kwargs["y"]))


def _epochs(span, args, kwargs, result):
    span.data["epochs"] = len(result.history)


def _binary_svm(span, args, kwargs, result):
    span.data["support"] = int(result.support_mask.sum())
    span.data["svm"] = result  # KKT is computed after the run, untimed


def _nodes(span, args, kwargs, result):
    span.data["nodes"] = result.node_count


def _predict_rows(span, args, kwargs, result):
    span.data["rows"] = int(result.shape[0])


def _redundant_cells(span, args, kwargs, result):
    cells = len(result.learning_rates) * len(result.min_child_weights)
    active = 1
    if "learning_rate" not in result.inactive_axes:
        active *= len(result.learning_rates)
    if "min_child_weight" not in result.inactive_axes:
        active *= len(result.min_child_weights)
    span.data["redundant"] = cells - active


def _svg_bytes(span, args, kwargs, result):
    path = args[2] if len(args) > 2 else kwargs["path"]
    span.data["bytes"] = os.path.getsize(path)


def install(tracer: Tracer) -> None:
    """Wrap every traced function; :meth:`Tracer.uninstall` undoes it."""
    import oncograde.cli as cli
    import oncograde.core as core
    import oncograde.dataset as dataset
    import oncograde.eval as ev
    import oncograde.preprocess as pp
    import oncograde.svg as svg
    from oncograde.models import base, ensemble, mlp, svm, tree

    functions = [
        (dataset, "synth_generate", "dataset", None),
        (dataset, "load_csv", "dataset", _rows),
        (pp, "fit_minmax", "preprocess", None),
        (pp, "apply_minmax", "preprocess", None),
        (pp, "pearson_matrix", "preprocess", None),
        (pp, "engineer_features", "preprocess", _engineered),
        (pp, "append_pair_means", "preprocess", None),
        (pp, "smote", "preprocess", _smote_rows),
        (pp, "stratified_split", "preprocess", None),
        (pp, "run_pipeline", "preprocess", None),
        (pp, "correlation_to_csv", "preprocess", None),
        (pp, "correlation_to_json", "preprocess", None),
        (core, "shuffle", "core", None),
        (base, "kernel_matrix", "models.svm", None),
        (base, "resolve_gamma", "models.svm", None),
        (base, "model_to_doc", "cli", None),
        (base, "model_from_doc", "cli", None),
        (mlp, "train_mlp", "models.mlp", _epochs),
        (svm, "train_svm_ovr", "models.svm", None),
        (svm, "train_svm_binary", "models.svm", _binary_svm),
        (tree, "train_tree", "models.tree", _nodes),
        (ensemble, "train_bagging", "models.ensemble", None),
        (ensemble, "train_voting", "models.ensemble", None),
        (ev, "stratified_folds", "eval", None),
        (ev, "kfold_cv", "eval", None),
        (ev, "learning_curve", "eval", None),
        (ev, "sweep", "eval", _redundant_cells),
        (ev, "evaluate_predictions", "eval", None),
        (svg, "render_svg", "svg", _svg_bytes),
    ]
    for module, attr, layer, on_result in functions:
        original = getattr(module, attr)
        around = _traced_memory if attr == "smote" else None
        tracer.patch(original, tracer.wrap(original, f"{layer}.{attr}", layer, on_result, around))

    original = core.parallel_map
    tracer.patch(original, tracer.wrap_parallel_map(original))

    methods = [
        (base.ModelSpec, "train", "models.base", None),
        (mlp.MlpModel, "predict_proba", "models.mlp", _predict_rows),
        (svm.SvmOvrModel, "decision_matrix", "models.svm", _predict_rows),
        (tree.TreeModel, "predict_proba", "models.tree", _predict_rows),
        (ensemble.BaggingModel, "predict_proba", "models.ensemble", None),
        (ensemble.VotingModel, "predict_proba", "models.ensemble", None),
    ] + [(cli.ArtifactWriter, name, "cli", None) for name in _CLI_WRITES]
    for cls, attr, layer, on_result in methods:
        name = f"{layer}.{cls.__name__}.{attr}"
        tracer.patch_method(cls, attr, tracer.wrap(vars(cls)[attr], name, layer, on_result))


def kkt_max(spans: list[Span]) -> float:
    """Largest KKT violation over the binary machines fitted while traced.

    Call after :meth:`Tracer.uninstall`, so the check itself is not traced.
    """
    from oncograde.models.svm import kkt_violation

    values = [kkt_violation(s.data["svm"]) for s in spans if "svm" in s.data]
    return max(values, default=0.0)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see ``catalogue.PER_LAYER``)."""
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def has_ancestor(span, predicate) -> bool:
        return any(predicate(a) for a in tracer.ancestors(span.parent))

    def outermost(*names):
        return [s for s in named(*names) if not has_ancestor(s, lambda a: a.name in names)]

    def total(items) -> float:
        return float(sum(s.duration for s in items))

    def self_total(items) -> float:
        return float(sum(own[s.sid] for s in items))

    def data_sum(items, key) -> float:
        return float(sum(s.data.get(key, 0) for s in items))

    def data_max(items, key) -> float:
        return float(max((s.data.get(key, 0) for s in items), default=0))

    maps = named("core.parallel_map")
    items = [s for s in spans if s.name.endswith(".item")]
    commands = [s for s in spans if s.layer == "command"]
    command_total = total(commands)
    evaluates = [s for s in commands if s.name == "command.evaluate"]

    def under(span, roots) -> bool:
        ids = {r.sid for r in roots}
        return has_ancestor(span, lambda a: a.sid in ids)

    m = {
        "models.svm.fit_s": total(outermost("models.svm.train_svm_ovr")),
        "models.svm.binary_fits": len(named("models.svm.train_svm_binary")),
        "models.svm.kernel_matrix_s": total(named("models.svm.kernel_matrix")),
        "models.svm.support_vectors": data_sum(named("models.svm.train_svm_binary"), "support"),
        "models.svm.predict_s": total(outermost("models.svm.SvmOvrModel.decision_matrix")),
        "models.tree.fit_s": total(named("models.tree.train_tree")),
        "models.tree.fits": len(named("models.tree.train_tree")),
        "models.tree.nodes": data_sum(named("models.tree.train_tree"), "nodes"),
        "models.tree.predict_s": total(named("models.tree.TreeModel.predict_proba")),
        "models.tree.predict_rows": data_sum(named("models.tree.TreeModel.predict_proba"), "rows"),
        "models.mlp.fit_s": total(named("models.mlp.train_mlp")),
        "models.mlp.fits": len(named("models.mlp.train_mlp")),
        "models.mlp.epochs": data_sum(named("models.mlp.train_mlp"), "epochs"),
        "models.mlp.predict_s": total(named("models.mlp.MlpModel.predict_proba")),
        "models.ensemble.bagging_fit_s": self_total(
            named("models.ensemble.train_bagging", "models.ensemble.train_bagging.item")
        ),
        "models.ensemble.voting_fit_s": self_total(
            named("models.ensemble.train_voting", "models.ensemble.train_voting.item")
        ),
        "models.ensemble.predict_s": self_total(
            named("models.ensemble.BaggingModel.predict_proba", "models.ensemble.VotingModel.predict_proba")
        ),
        "preprocess.minmax_s": total(named("preprocess.fit_minmax", "preprocess.apply_minmax")),
        "preprocess.pearson_matrix_s": total(named("preprocess.pearson_matrix")),
        "preprocess.engineer_features_s": total(named("preprocess.engineer_features")),
        "preprocess.engineered_pairs": data_max(named("preprocess.engineer_features"), "pairs"),
        "preprocess.smote_s": total(named("preprocess.smote")),
        "preprocess.smote_rows_made": data_sum(named("preprocess.smote"), "rows_made"),
        "preprocess.smote_peak_mb": data_max(named("preprocess.smote"), "peak_bytes") / 2**20,
        "preprocess.stratified_split_s": total(named("preprocess.stratified_split")),
        "dataset.synth_generate_s": total(named("dataset.synth_generate")),
        "dataset.load_csv_s": total(named("dataset.load_csv")),
        "dataset.rows_loaded": data_sum(named("dataset.load_csv"), "rows"),
        "core.parallel_map.calls": len(maps),
        "core.parallel_map.items": data_sum(maps, "items"),
        "core.parallel_map.nested_calls": sum(
            1 for s in maps if has_ancestor(s, lambda a: a.name == "core.parallel_map")
        ),
        "core.parallel_map.wait_s": data_sum(items, "wait_s"),
        "core.parallel_map.busy_s": total(items),
        "core.shuffle_s": total(named("core.shuffle")),
        "eval.model_fits": sum(
            1 for s in named("models.base.ModelSpec.train") if has_ancestor(s, lambda a: a.layer == "eval")
        ),
        "eval.sweep_redundant_cells": data_sum(named("eval.sweep"), "redundant"),
        "eval.self_s": self_total([s for s in spans if s.layer == "eval"]),
        "svg.render_s": total(named("svg.render_svg")),
        "svg.files": len(named("svg.render_svg")),
        "svg.bytes": data_sum(named("svg.render_svg"), "bytes"),
        "cli.write_s": self_total(named(*(f"cli.ArtifactWriter.{w}" for w in _CLI_WRITES))),
        "cli.model_doc_s": total(outermost(*_MODEL_DOCS)),
        "trace.uncovered_share": self_total(commands) / command_total if command_total else 0.0,
        "trace.uncovered_share_max": max((own[s.sid] / s.duration for s in commands if s.duration), default=0.0),
        "share.svm_fit": total(outermost("models.svm.train_svm_ovr")) / command_total if command_total else 0.0,
        "share.tree_predict_in_evaluate": (
            total(s for s in named("models.tree.TreeModel.predict_proba") if under(s, evaluates))
            / total(evaluates)
            if evaluates
            else 0.0
        ),
    }
    for layer in LAYERS:
        m[f"self_s.{layer}"] = self_total([s for s in spans if s.layer == layer])
    return m


def command_uncovered(tracer: Tracer) -> list[tuple[str, float, float]]:
    """(command, wall seconds, share no layer span covers) per traced command."""
    own = self_times(tracer.spans)
    return [
        (s.data.get("label", s.name), s.duration, own[s.sid] / s.duration if s.duration else 0.0)
        for s in tracer.spans
        if s.layer == "command"
    ]
