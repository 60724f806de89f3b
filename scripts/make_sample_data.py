#!/usr/bin/env python3
"""Regenerate data/sample_lung_cancer.csv (12 rows, 4 per class)."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from oncograde.dataset import Dataset, save_csv, synth_generate


def main() -> None:
    d = synth_generate(30, 3, (1 / 3, 1 / 3, 1 / 3))
    keep = []
    for cls in range(3):
        keep.extend(int(i) for i in np.where(d.y == cls)[0][:4])
    sample = Dataset(X=d.X[keep], y=d.y[keep])
    out = Path(__file__).resolve().parents[1] / "data" / "sample_lung_cancer.csv"
    out.parent.mkdir(exist_ok=True)
    save_csv(sample, out)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
