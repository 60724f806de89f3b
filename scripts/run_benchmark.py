#!/usr/bin/env python3
"""Train all seven classifier configurations on the same synthetic data
and assemble the comparison report.

Usage:
    python3 scripts/run_benchmark.py [--out DIR] [--seed N] [--n ROWS]

Produces one run directory per model plus comparison.csv/comparison.svg.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from oncograde.cli import main as oncograde_main  # noqa: E402
from oncograde.models.base import MODEL_NAMES  # noqa: E402


def run(out_dir: Path, seed: int, n_rows: int) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    run_dirs = []
    for name in MODEL_NAMES:
        cfg = {
            "seed": seed,
            "data": {"synthetic": {"n": n_rows, "class_proportions": [0.303, 0.332, 0.365]}},
            "model": {"name": name},
            "output_dir": str(out_dir / name),
        }
        cfg_path = out_dir / f"{name}.config.json"
        cfg_path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        started = time.time()
        code = oncograde_main(["train", "--config", str(cfg_path)])
        if code != 0:
            print(f"{name}: FAILED (exit {code})", file=sys.stderr)
            return code
        metrics = json.loads((out_dir / name / "metrics.json").read_text())
        print(
            f"{name:12s} accuracy={metrics['accuracy']:.4f} "
            f"macro_f1={metrics['macro_f1']:.4f} ({time.time() - started:.1f}s)"
        )
        run_dirs.append(str(out_dir / name))

    code = oncograde_main(["report", "--runs", *run_dirs, "--output-dir", str(out_dir / "report")])
    if code == 0:
        print(f"comparison written to {out_dir / 'report'}")
    return code


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/benchmark", help="output directory")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--n", type=int, default=1000, help="synthetic dataset size")
    args = parser.parse_args()
    sys.exit(run(Path(args.out), args.seed, args.n))
