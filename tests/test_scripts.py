"""The scripts under ``scripts/``, each run as a program on a copy of the
repository's ``scripts/`` and ``src/``, so nothing in the checkout is written."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from oncograde.models.base import MODEL_NAMES

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def checkout(tmp_path) -> Path:
    for name in ("scripts", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def run_script(checkout: Path, name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(checkout / "scripts" / name), *args],
        cwd=checkout, capture_output=True, text=True, timeout=300,
    )


def test_make_sample_data_rewrites_the_committed_csv(checkout):
    proc = run_script(checkout, "make_sample_data.py")
    assert proc.returncode == 0, proc.stderr
    written = (checkout / "data" / "sample_lung_cancer.csv").read_bytes()
    assert written == (ROOT / "data" / "sample_lung_cancer.csv").read_bytes()


def test_run_benchmark_writes_a_comparison_of_the_seven_models(checkout, tmp_path):
    out = tmp_path / "benchmark"
    proc = run_script(checkout, "run_benchmark.py", "--n", "90", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    header, *rows = (out / "report" / "comparison.csv").read_text().strip().splitlines()
    assert header.startswith("model,")
    assert sorted(row.split(",")[0] for row in rows) == sorted(MODEL_NAMES)
