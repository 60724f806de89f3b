"""The benchmark's workloads: the inputs each one generates from the
workload seed, and the CLI commands one pass of it runs.

Every workload has two parts. Its *primary* commands are what it is
for, and their summed wall time is the end-to-end ``wall_s``. A small
*probe* follows them on every workload: a voting ``train`` and a bagging
``cv`` and ``sweep`` on a 150-row CSV. The probe makes every layer run at
least once in every workload, so each per-layer figure is measured
everywhere; it never counts toward ``wall_s`` or ``macro_f1_mean``.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from dataclasses import dataclass, field

PROPORTIONS = [0.303, 0.332, 0.365]
MODEL_NAMES = ("dnn", "svm_rbf", "svm_linear", "svm_poly", "svm_sigmoid", "bagging", "voting")

# documented artifacts of each subcommand (README "CLI" table); every run
# also writes manifest.json
ARTIFACTS = {
    "train": ["model.json", "metrics.json", "confusion.csv", "confusion.svg"],
    "evaluate": ["metrics.json", "confusion.csv", "confusion.svg"],
    "cv": ["cv.csv", "cv.json"],
    "curve": ["curve.csv", "curve.svg"],
    "sweep": ["sweep.csv", "sweep.svg"],
    "profile": ["correlation.csv", "correlation.json", "histograms.csv"],
    "report": ["comparison.csv", "comparison.svg"],
}
DNN_ARTIFACTS = ["history.csv", "history.svg"]


@dataclass(frozen=True)
class Step:
    """One ``oncograde.cli.main(argv)`` call within a pass."""

    metric: str  # per-command timing name, e.g. "train_s.svm_poly"
    argv: list[str]
    out: str  # output directory, relative to the work directory
    expect: list[str] = field(default_factory=list)
    primary: bool = True  # counts toward wall_s
    scored: bool = False  # its metrics.json / cv.json count toward macro_f1_mean

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _synthetic(n: int) -> dict:
    return {"synthetic": {"n": n, "class_proportions": PROPORTIONS}}


def _write_config(name: str, doc: dict) -> str:
    path = os.path.join("configs", f"{name}.json")
    os.makedirs("configs", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return path


def _write_csv(name: str, n: int, seed: int) -> str:
    from oncograde.dataset import save_csv, synth_generate

    path = os.path.join("data", f"{name}.csv")
    os.makedirs("data", exist_ok=True)
    save_csv(synth_generate(n, seed, PROPORTIONS), path)
    return path


def _step(metric, sub, config, out, *, model=None, primary=True, scored=False) -> Step:
    expect = list(ARTIFACTS[sub]) + (DNN_ARTIFACTS if model == "dnn" else [])
    argv = [sub, "--config", config, "--output-dir", out]
    return Step(metric, argv, out, expect, primary, scored)


# --- probe ---------------------------------------------------------------------


def _probe_inputs(seed: int) -> None:
    csv = _write_csv("probe", 150, seed)
    _write_config(
        "probe_voting",
        {"seed": seed, "data": {"csv_path": csv}, "model": {"name": "voting", "hyperparams": {"n_estimators": 5}}},
    )
    _write_config(
        "probe_bagging",
        {
            "seed": seed,
            "data": {"csv_path": csv},
            "model": {"name": "bagging", "hyperparams": {"n_estimators": 3}},
            "eval": {"k": 3, "sweep": {"learning_rate": [0.01, 0.1], "min_child_weight": [1, 3]}},
        },
    )


def probe_steps(out: str) -> list[Step]:
    return [
        _step("probe.train_s.voting", "train", "configs/probe_voting.json", f"{out}/probe/train", primary=False),
        _step("probe.cv_s", "cv", "configs/probe_bagging.json", f"{out}/probe/cv", primary=False),
        _step("probe.sweep_s", "sweep", "configs/probe_bagging.json", f"{out}/probe/sweep", primary=False),
    ]


# --- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int  # ONCOGRADE_THREADS for every command of the workload
    inputs: Callable[[int], None]
    primary: Callable[[str], list[Step]]

    def build_inputs(self, seed: int) -> None:
        """Write the workload's inputs under the current directory."""
        self.inputs(seed)
        _probe_inputs(seed)

    def steps(self, out: str) -> list[Step]:
        """One pass's commands, writing their artifacts under ``out``."""
        return self.primary(out) + probe_steps(out)


def _zoo_inputs(seed: int) -> None:
    for name in MODEL_NAMES:
        _write_config(f"train_{name}", {"seed": seed, "data": _synthetic(1000), "model": {"name": name}})


def _zoo_steps(out: str) -> list[Step]:
    steps = [
        _step(f"train_s.{m}", "train", f"configs/train_{m}.json", f"{out}/zoo/{m}", model=m, scored=True)
        for m in MODEL_NAMES
    ]
    runs = [s.out for s in steps]
    report_out = f"{out}/zoo/report"
    steps.append(
        Step("report_s", ["report", "--runs", *runs, "--output-dir", report_out], report_out, list(ARTIFACTS["report"]))
    )
    return steps


def _harness_inputs(seed: int) -> None:
    _write_config(
        "harness",
        {
            "seed": seed,
            "data": _synthetic(1000),
            "model": {"name": "bagging", "hyperparams": {"n_estimators": 10}},
            "eval": {
                "k": 5,
                "curve_fractions": [0.25, 0.5, 1.0],
                "curve_repeats": 1,
                "sweep": {"learning_rate": [0.01, 0.1], "min_child_weight": [1, 3]},
            },
        },
    )


def _harness_steps(out: str) -> list[Step]:
    return [
        _step("cv_s", "cv", "configs/harness.json", f"{out}/harness/cv", scored=True),
        _step("sweep_s", "sweep", "configs/harness.json", f"{out}/harness/sweep"),
        _step("curve_s", "curve", "configs/harness.json", f"{out}/harness/curve"),
    ]


def _large_inputs(seed: int) -> None:
    from oncograde.cli import main

    csv = _write_csv("large", 20000, seed)
    voting = _write_config("voting", {"seed": seed, "data": _synthetic(1000), "model": {"name": "voting"}})
    if main(["train", "--config", voting, "--output-dir", "models/voting"]) != 0:
        raise RuntimeError("training the voting model for large-n failed")
    _write_config("profile", {"seed": seed, "data": {"csv_path": csv}})
    _write_config(
        "evaluate",
        {"seed": seed, "data": {"csv_path": csv}, "model_path": "models/voting/model.json"},
    )
    _write_config("dnn3000", {"seed": seed, "data": _synthetic(3000), "model": {"name": "dnn"}})


def _large_steps(out: str) -> list[Step]:
    return [
        _step("profile_s", "profile", "configs/profile.json", f"{out}/large/profile"),
        _step("evaluate_s", "evaluate", "configs/evaluate.json", f"{out}/large/evaluate", scored=True),
        _step("train_s.dnn", "train", "configs/dnn3000.json", f"{out}/large/dnn", model="dnn", scored=True),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "train-zoo",
            "the paper's seven-model comparison at n=1000, sequential; dominated by SMO fitting",
            0,
            _zoo_inputs,
            _zoo_steps,
        ),
        Workload(
            "harness-bagging",
            "bagging cv, sweep and curve at n=1000 on 2 threads; CART fitting and nested parallel_map pools",
            2,
            _harness_inputs,
            _harness_steps,
        ),
        Workload(
            "large-n",
            "profile and evaluate on a 20,000-row CSV, dnn train at n=3000; tree predict, CSV load, SMOTE memory",
            0,
            _large_inputs,
            _large_steps,
        ),
    )
}
