"""Tests of the benchmark's own logic.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from catalogue import END_TO_END, PER_LAYER  # noqa: E402
from tracer import Span, Tracer, covered_length, self_times  # noqa: E402


NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(sid, parent, start, end, name="x"):
    return Span(sid, name, "layer", parent, start, end)


# --- self-time arithmetic ---------------------------------------------------------


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered_length([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == pytest.approx(3.0)
    # children sticking out of the parent count only inside it
    assert covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered_length([(2.0, 8.0), (3.0, 4.0)], 0.0, 10.0) == pytest.approx(6.0)


def test_self_time_of_nested_spans():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),  # grandchild: covered by span 1, not by 0's self time twice
        _span(3, 0, 6.0, 7.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.0)


def test_self_time_of_overlapping_parallel_children():
    # two worker threads run items at once: coverage is their union
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 6.0), _span(2, 0, 2.0, 8.0)]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 7.0)
    assert sum(own.values()) == pytest.approx(3.0 + 5.0 + 6.0)


# --- spans and parents ----------------------------------------------------------------


def test_parallel_map_items_have_parents_on_worker_threads(monkeypatch):
    from oncograde import core

    monkeypatch.setenv("ONCOGRADE_THREADS", "2")
    tracer = Tracer()
    threads = set()

    def leaf(x):
        with tracer.span("leaf", "test"):
            threads.add(threading.get_ident())
            return x * 2

    traced_map = tracer.wrap_parallel_map(core.parallel_map)
    with tracer.span("caller", "eval"):
        assert traced_map(leaf, list(range(6))) == [0, 2, 4, 6, 8, 10]

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (caller,) = by_name["caller"]
    (mapped,) = by_name["core.parallel_map"]
    assert mapped.parent == caller.sid and mapped.data["items"] == 6
    assert len(by_name["caller.item"]) == 6
    for item in by_name["caller.item"]:
        assert item.parent == mapped.sid and item.layer == "eval"
        assert item.data["wait_s"] >= 0.0
    item_ids = {s.sid for s in by_name["caller.item"]}
    assert all(s.parent in item_ids for s in by_name["leaf"])
    assert threading.get_ident() not in threads


# --- wrappers and their removal ---------------------------------------------------------


def _bindings():
    """Every attribute of every oncograde module and traced class."""
    import oncograde.cli as cli
    from oncograde.models import base, ensemble, mlp, svm, tree

    mods = {n: m for n, m in sys.modules.items() if n == "oncograde" or n.startswith("oncograde.")}
    snapshot = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    classes = (base.ModelSpec, mlp.MlpModel, svm.SvmOvrModel, tree.TreeModel, ensemble.BaggingModel)
    classes += (ensemble.VotingModel, cli.ArtifactWriter)
    snapshot.update({(c.__name__, k): v for c in classes for k, v in vars(c).items()})
    return snapshot


def _write_config(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _traced_commands(tmp_path, monkeypatch) -> Tracer:
    from oncograde.cli import main

    monkeypatch.setenv("ONCOGRADE_THREADS", "2")
    data = {"synthetic": {"n": 60, "class_proportions": [0.3, 0.3, 0.4]}}
    dnn = _write_config(tmp_path, {"seed": 3, "data": data, "model": {"name": "dnn", "hyperparams": {"epochs": 3}}})
    tracer = Tracer()
    layers.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            with tracer.span("command.train", "command"):
                assert main(["train", "--config", dnn, "--output-dir", str(tmp_path / "dnn")]) == 0
            cv = _write_config(
                tmp_path,
                {"seed": 3, "data": data, "model": {"name": "bagging", "hyperparams": {"n_estimators": 2}}, "eval": {"k": 2}},
            )
            with tracer.span("command.cv", "command"):
                assert main(["cv", "--config", cv, "--output-dir", str(tmp_path / "cv")]) == 0
    finally:
        tracer.uninstall()
    return tracer


def test_wrappers_are_looked_up_everywhere_and_removed(tmp_path, monkeypatch):
    import oncograde.cli as cli
    import oncograde.eval as ev
    import oncograde.preprocess as pp
    from oncograde.models import ensemble

    before = _bindings()
    originals = (pp.smote, ev.parallel_map)
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert cli.smote is pp.smote and pp.smote is not originals[0]
        assert ev.parallel_map is ensemble.parallel_map and ev.parallel_map is not originals[1]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []

    tracer = _traced_commands(tmp_path, monkeypatch)
    assert [k for k, v in _bindings().items() if v is not before[k]] == []
    assert tracer.spans


def test_traced_run_gives_every_span_a_parent_and_every_metric(tmp_path, monkeypatch):
    tracer = _traced_commands(tmp_path, monkeypatch)
    roots = [s for s in tracer.spans if s.parent is None]
    assert {s.name for s in roots} == {"command.train", "command.cv"}
    metrics = layers.layer_metrics(tracer)
    metrics["models.svm.kkt_max"] = layers.kkt_max(tracer.spans)
    computed_elsewhere = {"cli.artifact_bytes", "trace.overhead_s"}
    assert set(metrics) | computed_elsewhere == set(PER_LAYER)
    assert metrics["models.mlp.fits"] == 1 and metrics["models.mlp.epochs"] == 3
    assert metrics["eval.model_fits"] == 2
    assert metrics["core.parallel_map.nested_calls"] == 2  # fold pool -> member pool
    assert 0.0 <= metrics["trace.uncovered_share"] < 1.0


# --- metric catalogue ---------------------------------------------------------------------


def test_metric_names_units_and_directions():
    for name, (unit, better, bound) in END_TO_END.items():
        assert NAME_RE.fullmatch(name) and UNIT_RE.fullmatch(unit), name
        assert better in ("higher", "lower") and 0 < bound <= 0.25
    for name, (unit, better) in PER_LAYER.items():
        assert NAME_RE.fullmatch(name) and UNIT_RE.fullmatch(unit), name
        assert better in ("higher", "lower")
    assert not set(END_TO_END) & set(PER_LAYER)


def test_benchmark_json_matches_catalogue():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]}
    assert e2e == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "train-zoo", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
