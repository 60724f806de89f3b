"""Every metric the benchmark reports, with its unit and direction.

``END_TO_END`` is what a user of the toolkit sees and comes from untraced
runs; ``PER_LAYER`` comes from the traced run. ``BENCHMARK.json`` at the
repository root lists the same names; a test keeps the two in step.
"""

from __future__ import annotations

# name -> (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
    "macro_f1_mean": ("ratio", "higher", 0.1),
}

_LOWER = "lower"

# name -> (unit, better)
PER_LAYER = {
    "models.svm.fit_s": ("s", _LOWER),
    "models.svm.binary_fits": ("count", _LOWER),
    "models.svm.kernel_matrix_s": ("s", _LOWER),
    "models.svm.support_vectors": ("count", _LOWER),
    "models.svm.kkt_max": ("ratio", _LOWER),
    "models.svm.predict_s": ("s", _LOWER),
    "models.tree.fit_s": ("s", _LOWER),
    "models.tree.fits": ("count", _LOWER),
    "models.tree.nodes": ("count", _LOWER),
    "models.tree.predict_s": ("s", _LOWER),
    "models.tree.predict_rows": ("count", _LOWER),
    "models.mlp.fit_s": ("s", _LOWER),
    "models.mlp.fits": ("count", _LOWER),
    "models.mlp.epochs": ("count", _LOWER),
    "models.mlp.predict_s": ("s", _LOWER),
    "models.ensemble.bagging_fit_s": ("s", _LOWER),
    "models.ensemble.voting_fit_s": ("s", _LOWER),
    "models.ensemble.predict_s": ("s", _LOWER),
    "preprocess.minmax_s": ("s", _LOWER),
    "preprocess.pearson_matrix_s": ("s", _LOWER),
    "preprocess.engineer_features_s": ("s", _LOWER),
    "preprocess.engineered_pairs": ("count", _LOWER),
    "preprocess.smote_s": ("s", _LOWER),
    "preprocess.smote_rows_made": ("count", _LOWER),
    "preprocess.smote_peak_mb": ("MB", _LOWER),
    "preprocess.stratified_split_s": ("s", _LOWER),
    "dataset.synth_generate_s": ("s", _LOWER),
    "dataset.load_csv_s": ("s", _LOWER),
    "dataset.rows_loaded": ("count", _LOWER),
    "core.parallel_map.calls": ("count", _LOWER),
    "core.parallel_map.items": ("count", _LOWER),
    "core.parallel_map.nested_calls": ("count", _LOWER),
    "core.parallel_map.wait_s": ("s", _LOWER),
    "core.parallel_map.busy_s": ("s", _LOWER),
    "core.shuffle_s": ("s", _LOWER),
    "eval.model_fits": ("count", _LOWER),
    "eval.sweep_redundant_cells": ("count", _LOWER),
    "eval.self_s": ("s", _LOWER),
    "svg.render_s": ("s", _LOWER),
    "svg.files": ("count", _LOWER),
    "svg.bytes": ("count", _LOWER),
    "cli.write_s": ("s", _LOWER),
    "cli.model_doc_s": ("s", _LOWER),
    "cli.artifact_bytes": ("count", _LOWER),
    "self_s.dataset": ("s", _LOWER),
    "self_s.preprocess": ("s", _LOWER),
    "self_s.models.base": ("s", _LOWER),
    "self_s.models.mlp": ("s", _LOWER),
    "self_s.models.svm": ("s", _LOWER),
    "self_s.models.tree": ("s", _LOWER),
    "self_s.models.ensemble": ("s", _LOWER),
    "self_s.eval": ("s", _LOWER),
    "self_s.svg": ("s", _LOWER),
    "self_s.cli": ("s", _LOWER),
    "self_s.core": ("s", _LOWER),
    "share.svm_fit": ("ratio", _LOWER),
    "share.tree_predict_in_evaluate": ("ratio", _LOWER),
    "trace.uncovered_share": ("ratio", _LOWER),
    "trace.uncovered_share_max": ("ratio", _LOWER),
    "trace.overhead_s": ("s", _LOWER),
}
