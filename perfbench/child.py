"""One benchmark process: build a workload's inputs, or run its passes.

    python3 perfbench/child.py setup --workload W --seed S --work DIR
    python3 perfbench/child.py run --workload W --work DIR --seconds T --trace 0|1

``run.py`` starts these with ``src`` on ``PYTHONPATH`` and the thread
variables pinned. Each prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

from workloads import WORKLOADS, Step, probe_steps

MANIFEST = "manifest.json"  # records wall-clock duration, so never bit-stable


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def tree_digests(root: str) -> dict[str, str]:
    """sha256 of every file under ``root`` except manifests, by relative path."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name != MANIFEST:
                path = os.path.join(dirpath, name)
                out[os.path.relpath(path, root)] = sha256_file(path)
    return dict(sorted(out.items()))


# --- output checks -------------------------------------------------------------


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_metrics(out: str) -> list[str]:
    """metrics.json must agree with confusion.csv."""
    m = _read_json(os.path.join(out, "metrics.json"))
    with open(os.path.join(out, "confusion.csv"), encoding="utf-8") as fh:
        rows = [line.split(",")[1:] for line in fh.read().splitlines()[1:]]
    counts = [[int(v) for v in row] for row in rows]
    total = sum(map(sum, counts))
    problems = []
    if total == 0 or abs(m["accuracy"] - sum(counts[i][i] for i in range(3)) / total) > 1e-12:
        problems.append("metrics.json accuracy disagrees with confusion.csv")
    if m["support"] != [sum(row) for row in counts]:
        problems.append("metrics.json support disagrees with confusion.csv")
    if not 0.0 <= m["macro_f1"] <= 1.0:
        problems.append(f"macro_f1 out of range: {m['macro_f1']}")
    return problems


def _check_cv(out: str) -> list[str]:
    cv = _read_json(os.path.join(out, "cv.json"))
    f1 = [f["macro_f1"] for f in cv["per_fold"]]
    problems = []
    if len(f1) != cv["k"] or len(cv["fold_sizes"]) != cv["k"]:
        problems.append("cv.json fold count disagrees with k")
    elif abs(cv["mean"]["macro_f1"] - sum(f1) / len(f1)) > 1e-12:
        problems.append("cv.json mean macro_f1 disagrees with its folds")
    return problems


def check_step(step: Step, code: int) -> list[str]:
    """Problems with one command's outcome; empty when it is correct."""
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    expect = list(step.expect) + [MANIFEST]
    if step.subcommand == "profile":
        from oncograde.dataset import FEATURE_NAMES

        histograms = [n for n in os.listdir(step.out) if n.startswith("histogram_") and n.endswith(".svg")]
        if len(histograms) != len(FEATURE_NAMES):
            problems.append(f"{len(histograms)} histogram SVGs for {len(FEATURE_NAMES)} features")
    missing = [n for n in expect if not os.path.isfile(os.path.join(step.out, n))]
    if missing:
        return problems + [f"missing artifacts: {', '.join(missing)}"]
    for entry in _read_json(os.path.join(step.out, MANIFEST))["artifacts"]:
        if sha256_file(os.path.join(step.out, entry["name"])) != entry["sha256"]:
            problems.append(f"manifest digest mismatch for {entry['name']}")
    if "metrics.json" in step.expect:
        problems += _check_metrics(step.out)
    if "cv.json" in step.expect:
        problems += _check_cv(step.out)
    return problems


def scored_f1(step: Step) -> float | None:
    if "metrics.json" in step.expect:
        return _read_json(os.path.join(step.out, "metrics.json"))["macro_f1"]
    if "cv.json" in step.expect:
        return _read_json(os.path.join(step.out, "cv.json"))["mean"]["macro_f1"]
    return None


# --- passes ------------------------------------------------------------------------


def run_pass(workload, index: int, tracer=None) -> dict:
    from oncograde.cli import main

    root = f"out/pass{index}"
    steps = workload.steps(root)
    results = []
    f1 = []
    with open(os.devnull, "w") as devnull:
        for step in steps:
            start, cpu_start = time.perf_counter(), time.process_time()
            with contextlib.redirect_stdout(devnull):
                if tracer is None:
                    code = main(step.argv)
                else:
                    with tracer.span(f"command.{step.subcommand}", "command") as span:
                        span.data["label"] = step.metric
                        code = main(step.argv)
            seconds = time.perf_counter() - start
            cpu_seconds = time.process_time() - cpu_start
            problems = check_step(step, code)
            if not problems and step.scored:
                f1.append(scored_f1(step))
            results.append(
                {
                    "metric": step.metric,
                    "seconds": seconds,
                    "cpu_s": cpu_seconds,
                    "primary": step.primary,
                    "problems": problems,
                }
            )
    return {
        "steps": results,
        "wall_s": sum(r["seconds"] for r in results if r["primary"]),
        "cpu_s": sum(r["cpu_s"] for r in results if r["primary"]),
        "total_s": sum(r["seconds"] for r in results),
        "macro_f1_mean": sum(f1) / len(f1) if f1 else None,
        "digests": tree_digests(root),
        "artifact_bytes": sum(os.path.getsize(os.path.join(d, n)) for d, _, ns in os.walk(root) for n in ns),
    }


def warm_up() -> None:
    """Run the probe once, untimed, before the first timed pass.

    Its commands import every module and run every layer, so first-use
    costs do not land in pass 0 alone and bias the traced-minus-untraced
    overhead. Every timed pass checks the same commands again.
    """
    from oncograde.cli import main

    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        for step in probe_steps("out/warmup"):
            main(step.argv)


def cmd_setup(args) -> dict:
    import oncograde.cli  # noqa: F401 - importing the program is part of set-up

    WORKLOADS[args.workload].build_inputs(args.seed)
    return {"inputs": tree_digests(".")}


def cmd_run(args) -> dict:
    workload = WORKLOADS[args.workload]
    passes = []
    warm_up()
    if args.trace:
        import layers
        from tracer import Tracer

        passes.append(run_pass(workload, 0))
        tracer = Tracer()
        layers.install(tracer)
        try:
            passes.append(run_pass(workload, 1, tracer))
        finally:
            tracer.uninstall()
        metrics = layers.layer_metrics(tracer)
        metrics["models.svm.kkt_max"] = layers.kkt_max(tracer.spans)
        metrics["cli.artifact_bytes"] = passes[1]["artifact_bytes"]
        metrics["trace.overhead_s"] = passes[1]["total_s"] - passes[0]["total_s"]
        return {
            "passes": passes,
            "layers": metrics,
            "commands": layers.command_uncovered(tracer),
        }
    started = time.perf_counter()
    while True:
        passes.append(run_pass(workload, len(passes)))
        if time.perf_counter() - started >= args.seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"passes": passes, "peak_rss_mb": peak_kb / 1024.0}


def environment() -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {k: os.environ.get(k, "") for k in ("ONCOGRADE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    os.chdir(args.work)
    result = cmd_setup(args) if args.phase == "setup" else cmd_run(args)
    result["environment"] = environment()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
