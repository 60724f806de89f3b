import numpy as np
import pytest

from oncograde.dataset import (
    AGE_MAX,
    AGE_MIN,
    FEATURE_NAMES,
    largest_remainder_counts,
    load_csv,
    save_csv,
    synth_generate,
)

SAMPLE_CSV = "data/sample_lung_cancer.csv"


class TestSynthGenerate:
    def test_balanced_counts(self):
        d = synth_generate(300, 1, (1 / 3, 1 / 3, 1 / 3))
        assert np.bincount(d.y, minlength=3).tolist() == [100, 100, 100]

    def test_largest_remainder_example(self):
        d = synth_generate(1000, 9, (0.303, 0.332, 0.365))
        assert np.bincount(d.y, minlength=3).tolist() == [303, 332, 365]

    def test_largest_remainder_rounding(self):
        # 0.35*31=10.85, 0.33*31=10.23, 0.32*31=9.92 -> floors (10,10,9),
        # two units left for the .92 and .85 remainders
        assert largest_remainder_counts(31, (0.35, 0.33, 0.32)) == (11, 10, 10)

    def test_deterministic(self):
        a = synth_generate(120, 77)
        b = synth_generate(120, 77)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_value_ranges(self):
        d = synth_generate(400, 5)
        assert d.X.shape == (400, 23)
        age = d.X[:, 0]
        assert age.min() >= AGE_MIN and age.max() <= AGE_MAX
        gender = d.X[:, 1]
        assert set(np.unique(gender)) <= {1.0, 2.0}
        ordinals = d.X[:, 2:]
        assert ordinals.min() >= 1 and ordinals.max() <= 9
        assert np.array_equal(ordinals, np.round(ordinals))

    def test_n_too_small(self):
        with pytest.raises(ValueError, match=">= 30"):
            synth_generate(10, 1)

    @pytest.mark.parametrize("props", [(0.5, 0.5, 0.5), (1.0, -0.2, 0.2), (0.5, 0.5)])
    def test_bad_proportions(self, props):
        with pytest.raises(ValueError):
            synth_generate(100, 1, props)


def _write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _full_row(fill=3):
    # Age, Gender, then 21 ordinal features
    return [40, 1] + [fill] * 21


class TestLoadCsv:
    def test_label_names(self, tmp_path):
        p = tmp_path / "d.csv"
        header = list(FEATURE_NAMES) + ["Level"]
        rows = [_full_row() + ["Low"], _full_row() + ["Medium"], _full_row() + ["High"]]
        _write_csv(p, header, rows)
        d = load_csv(p)
        assert list(d.y) == [0, 1, 2]

    def test_numeric_labels(self, tmp_path):
        p = tmp_path / "d.csv"
        header = list(FEATURE_NAMES) + ["Level"]
        rows = [_full_row() + [1], _full_row() + [2], _full_row() + [3]]
        _write_csv(p, header, rows)
        assert list(load_csv(p).y) == [0, 1, 2]

    def test_header_matching_is_forgiving(self, tmp_path):
        p = tmp_path / "d.csv"
        header = [" aGe ", "GENDER"] + list(FEATURE_NAMES[2:]) + ["level"]
        rows = [_full_row() + ["Low"]]
        _write_csv(p, header, rows)
        d = load_csv(p)
        assert d.X[0, 0] == 40

    def test_column_order_irrelevant(self, tmp_path):
        p = tmp_path / "d.csv"
        header = ["Level"] + list(reversed(FEATURE_NAMES))
        rows = [["High"] + list(reversed(_full_row())) for _ in range(2)]
        _write_csv(p, header, rows)
        d = load_csv(p)
        assert d.X[0, 0] == 40 and list(d.y) == [2, 2]

    def test_missing_column(self, tmp_path):
        p = tmp_path / "d.csv"
        header = [n for n in FEATURE_NAMES if n != "Smoking"] + ["Level"]
        rows = [[1] * 22 + ["Low"]]
        _write_csv(p, header, rows)
        with pytest.raises(ValueError, match="missing column: Smoking"):
            load_csv(p)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        header = list(FEATURE_NAMES) + ["Level"]
        bad = _full_row()
        bad[2] = "high"
        _write_csv(p, header, [_full_row() + ["Low"], bad + ["Low"]])
        with pytest.raises(ValueError, match="row 2.*Air Pollution"):
            load_csv(p)

    def test_unknown_label(self, tmp_path):
        p = tmp_path / "d.csv"
        header = list(FEATURE_NAMES) + ["Level"]
        _write_csv(p, header, [_full_row() + ["Severe"]])
        with pytest.raises(ValueError, match="unknown label value: 'Severe'"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            load_csv(p)

    def test_patient_id_is_metadata_only(self, tmp_path):
        p = tmp_path / "d.csv"
        header = ["Patient Id"] + list(FEATURE_NAMES) + ["Level"]
        _write_csv(p, header, [["P7"] + _full_row() + ["Low"]])
        d = load_csv(p)
        assert d.patient_ids == ["P7"]
        assert d.X.shape == (1, 23)

    def test_roundtrip_save_load(self, tmp_path):
        d = synth_generate(60, 11)
        p = tmp_path / "round.csv"
        save_csv(d, p)
        d2 = load_csv(p)
        assert np.array_equal(d.X, d2.X)
        assert np.array_equal(d.y, d2.y)
        save_csv(d2, tmp_path / "round2.csv")
        assert (tmp_path / "round.csv").read_text() == (tmp_path / "round2.csv").read_text()


class TestSampleFile:
    def test_shipped_sample_loads(self):
        d = load_csv(SAMPLE_CSV)
        assert d.n_rows == 12
        assert d.patient_ids is not None and len(d.patient_ids) == 12
        assert sorted(set(d.y)) == [0, 1, 2]
