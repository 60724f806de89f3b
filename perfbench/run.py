#!/usr/bin/env python3
"""Benchmark for the oncograde toolkit.

    python3 perfbench/run.py --workload train-zoo --seed 1 --seconds 20 --trace 0

Run from the repository root. Each run builds the workload's inputs from
``--seed`` in fresh processes (three to nine times, to time set-up), then runs
the workload's commands through ``oncograde.cli.main`` in one more fresh
process: at least one pass, and further passes until ``--seconds`` have
gone by. It checks every command's artifacts, prints each figure
by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics. The exit
code is 1 if any check fails, 2 if the program's sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from catalogue import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up runs at least SETUPS_MIN times and, while it has taken less than
# SETUP_BUDGET_S in all, up to SETUPS_MAX times; setup_s is the median
SETUPS_MIN, SETUPS_MAX, SETUP_BUDGET_S = 3, 9, 2.0
DEADLINE_S = 170.0  # the whole run, all processes included


class RunFailed(Exception):
    pass


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        ONCOGRADE_THREADS=str(threads),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_child(args: list[str], env: dict, deadline: float) -> tuple[dict, float]:
    """Run ``child.py`` to completion; return its JSON result and wall time."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{args[0]} process exceeded the run's time limit") from None
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RunFailed(f"{args[0]} process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), seconds


def digest_of(digests: dict) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()


def measure(workload_name: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    workload = WORKLOADS[workload_name]
    env = child_env(workload.threads)
    problems: list[str] = []

    setup_times, inputs = [], []
    while len(setup_times) < SETUPS_MIN or (sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < SETUPS_MAX):
        i = len(setup_times)
        result, took = run_child(
            ["setup", "--workload", workload_name, "--seed", str(seed), "--work", str(work / f"setup{i}")],
            env,
            deadline,
        )
        setup_times.append(took)
        inputs.append(result["inputs"])
    if any(d != inputs[0] for d in inputs[1:]):
        problems.append("set-up produced different inputs from the same seed")

    run_args = ["run", "--workload", workload_name, "--work", str(work / "setup0")]
    run_args += ["--seconds", str(seconds), "--trace", str(trace)]
    result, _ = run_child(run_args, env, deadline)
    passes = result["passes"]

    env_info = result["environment"]
    print(f"# workload {workload_name} seed {seed} trace {trace}")
    print("# environment " + json.dumps(env_info, sort_keys=True))

    attempted = failed = 0
    per_step: dict[str, list[float]] = {}
    for p in passes:
        for step in p["steps"]:
            attempted += 1
            per_step.setdefault(step["metric"], []).append(step["seconds"])
            if step["problems"]:
                failed += 1
                problems += [f"{step['metric']}: {msg}" for msg in step["problems"]]
    reference = passes[0]["digests"]
    for i, p in enumerate(passes[1:], start=1):
        changed = sorted(k for k in set(reference) | set(p["digests"]) if reference.get(k) != p["digests"].get(k))
        if changed:
            what = "traced and untraced passes" if trace else f"passes 0 and {i}"
            problems.append(f"artifacts differ between {what}: {', '.join(changed[:5])}")

    for name, values in per_step.items():
        print(f"command {name} {statistics.median(values):.6f} s")
    print(f"digest {workload_name} seed {seed} {digest_of(reference)} ({len(reference)} artifacts)")
    for path, sha in reference.items():
        print(f"artifact {path} {sha}")

    if trace:
        for label, wall, share in result["commands"]:
            print(f"uncovered {label} {share:.4f} of {wall:.6f} s")
        metrics = {name: (result["layers"][name], unit) for name, (unit, _) in PER_LAYER.items()}
    else:
        f1 = [p["macro_f1_mean"] for p in passes if p["macro_f1_mean"] is not None]
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "peak_rss_mb": result["peak_rss_mb"],
            "macro_f1_mean": statistics.median(f1) if f1 else 0.0,
        }
        metrics = {name: (values[name], unit) for name, (unit, _, _) in END_TO_END.items()}
        print(f"passes {len(passes)}")
        for i, p in enumerate(passes):
            print(f"pass {i} wall_s {p['wall_s']:.6f} s cpu_s {p['cpu_s']:.6f} s")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    for msg in problems:
        print(f"FAILED {msg}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": max(failed, 1) if problems else 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="oncograde benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "oncograde" / "cli.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        summary = measure(args.workload, args.seed, args.seconds, args.trace, work)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
