import csv
import io
import json
import re
import tempfile
from functools import partial
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oncograde import dataset
from oncograde.dataset import (
    _BLOCK_ROWS,
    AGE_MAX,
    AGE_MIN,
    FEATURE_NAMES,
    LABEL_NAME,
    Dataset,
    _norm,
    _parse_label,
    csv_text,
    iter_csv_blocks,
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

    @pytest.mark.parametrize(
        "header, row, name",
        [
            (["Age", *FEATURE_NAMES, "Level"], [50, *_full_row(), "Low"], "Age"),
            # matched as every header name is, case and surrounding spaces ignored
            ([*FEATURE_NAMES, "Level", " level"], [*_full_row(), "Low", "High"], "Level"),
        ],
    )
    def test_schema_column_named_twice_is_refused(self, tmp_path, header, row, name):
        # read silently, the last copy would win and the first be dropped
        p = tmp_path / "d.csv"
        _write_csv(p, header, [row])
        with pytest.raises(ValueError, match=f"^duplicate column: {name}$"):
            load_csv(p)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "d.csv"
        header = list(FEATURE_NAMES) + ["Level"]
        bad = _full_row()
        bad[2] = "high"
        _write_csv(p, header, [_full_row() + ["Low"], bad + ["Low"]])
        with pytest.raises(ValueError, match="row 2.*Air Pollution"):
            load_csv(p)

    @pytest.mark.parametrize("leading", [[], ["P1"]])
    def test_row_too_short_for_label_names_row_and_column(self, tmp_path, leading):
        p = tmp_path / "d.csv"
        header = ["Patient Id"] * bool(leading) + list(FEATURE_NAMES) + ["Level"]
        _write_csv(p, header, [leading + _full_row() + ["Low"], leading + _full_row()])
        with pytest.raises(ValueError, match="row 2 is too short to hold column 'Level'"):
            load_csv(p)

    def test_short_row_through_cli_exits_with_its_message(self, tmp_path, capsys):
        from oncograde.cli import main

        p = tmp_path / "d.csv"
        header = list(FEATURE_NAMES) + ["Level"]
        _write_csv(p, header, [_full_row() + ["Low"], _full_row()])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": {"csv_path": str(p)}}), encoding="utf-8")
        assert main(["profile", "--config", str(cfg), "--output-dir", str(tmp_path / "out")]) == 1
        assert "row 2 is too short to hold column 'Level'" in capsys.readouterr().err

    def test_first_bad_cell_in_row_major_order(self, tmp_path):
        p = tmp_path / "d.csv"
        header = ["Level"] + list(reversed(FEATURE_NAMES))
        two_bad = list(reversed(_full_row()))
        two_bad[0] = "x"  # Snoring, first in the file
        two_bad[-1] = "y"  # Age, first in the schema
        rows = [
            ["Low"] + list(reversed(_full_row())),
            ["Severe"] + list(reversed(_full_row())),
            ["Low"] + two_bad,
        ]
        _write_csv(p, header, rows)
        with pytest.raises(ValueError, match="unknown label value: 'Severe'"):
            load_csv(p)
        _write_csv(p, header, [rows[0], rows[2], rows[1]])
        with pytest.raises(ValueError, match="'y' at row 2, column 'Age'"):
            load_csv(p)

    def test_cells_read_as_float_of_the_trimmed_text(self, tmp_path):
        p = tmp_path / "d.csv"
        header = list(FEATURE_NAMES) + ["Level"]
        cells = [" 40 ", "\x1c1\x1f", " 3"] + ["1e0"] * 20 + [" medium "]
        _write_csv(p, header, [cells, _full_row() + ["3"]])
        d = load_csv(p)
        assert d.X[0, :3].tolist() == [40.0, 1.0, 3.0]
        assert d.y.tolist() == [1, 2]
        assert np.array_equal(d.X[1], _full_row())

    def test_unknown_label(self, tmp_path):
        p = tmp_path / "d.csv"
        header = list(FEATURE_NAMES) + ["Level"]
        _write_csv(p, header, [_full_row() + ["Severe"]])
        with pytest.raises(ValueError, match="unknown label value: 'Severe'"):
            load_csv(p)

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        _write_csv(p, list(FEATURE_NAMES), [_full_row()])
        with pytest.raises(ValueError, match="missing column: Level"):
            load_csv(p)

    def test_header_without_data_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        _write_csv(p, list(FEATURE_NAMES) + ["Level"], [])
        with pytest.raises(ValueError, match="no data rows in"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            load_csv(p)

    def test_patient_id_is_metadata_only(self, tmp_path):
        plain, with_ids = tmp_path / "plain.csv", tmp_path / "ids.csv"
        rows = [_full_row() + ["Low"], list(reversed(_full_row())) + ["High"]]
        _write_csv(plain, list(FEATURE_NAMES) + ["Level"], rows)
        header = ["Patient Id"] + list(FEATURE_NAMES) + ["Level", "Patient Id"]
        # the second row is short only of its trailing id cell
        _write_csv(with_ids, header, [["P7"] + rows[0] + ["P7"], ["P8"] + rows[1]])
        a, b = load_csv(plain), load_csv(with_ids)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_roundtrip_save_load(self, tmp_path):
        d = synth_generate(60, 11)
        p = tmp_path / "round.csv"
        save_csv(d, p)
        d2 = load_csv(p)
        assert np.array_equal(d.X, d2.X)
        assert np.array_equal(d.y, d2.y)
        save_csv(d2, tmp_path / "round2.csv")
        assert (tmp_path / "round.csv").read_text() == (tmp_path / "round2.csv").read_text()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with one
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        save_csv(synth_generate(60, 1), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = load_csv(plain), load_csv(marked)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("ends_in_one", [True, False])
    def test_every_line_ending_and_none_after_the_last_row(self, tmp_path, ending, ends_in_one):
        # the matrix is sized by the file's line breaks, so each ending the
        # csv reader takes must count as one, and a last row may lack one
        d = synth_generate(60, 4)
        plain, p = tmp_path / "plain.csv", tmp_path / "d.csv"
        save_csv(d, plain)
        lines = plain.read_text(encoding="utf-8").splitlines()
        p.write_bytes((ending.join(lines) + ending * ends_in_one).encode())
        d2 = load_csv(p)
        assert np.array_equal(d2.X, d.X)
        assert np.array_equal(d2.y, d.y)

    def test_a_byte_that_is_not_utf8_is_refused_as_the_reader_refuses_it(self, tmp_path):
        p = tmp_path / "d.csv"
        save_csv(synth_generate(60, 4), p)
        p.write_bytes(p.read_bytes().replace(b"Low", b"L\xffw", 1))
        with pytest.raises(UnicodeDecodeError) as reader:
            list(iter_csv_blocks(p))
        with pytest.raises(UnicodeDecodeError) as loader:
            load_csv(p)
        assert str(loader.value) == str(reader.value)


class TestDatasetRefusals:
    @pytest.mark.parametrize(
        "shape, y, message",
        [
            ((3, 23), [0, 1], "row count mismatch between X and y"),
            ((2, 22), [0, 1], "column count mismatch: X has 22 columns, the schema 23"),
            ((2, 23), [0, 3], "labels must lie in {0,1,2}"),
            ((2, 23), [-1, 0], "labels must lie in {0,1,2}"),
        ],
    )
    def test_refuses_by_message(self, shape, y, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Dataset(np.ones(shape), y)


class TestCsvBlocks:
    """Files longer than one parse block of ``_BLOCK_ROWS`` data rows."""

    HEADER = list(FEATURE_NAMES) + ["Level"]

    def test_three_blocks_load_as_written(self, tmp_path):
        n = 2 * _BLOCK_ROWS + 1
        d = synth_generate(n, 13)
        p = tmp_path / "blocks.csv"
        save_csv(d, p)
        assert [len(y) for _, y in iter_csv_blocks(p)] == [_BLOCK_ROWS, _BLOCK_ROWS, 1]
        d2 = load_csv(p)
        assert np.array_equal(d2.X, d.X)
        assert np.array_equal(d2.y, d.y)

    def test_bad_cells_in_the_third_block_name_their_row(self, tmp_path):
        p = tmp_path / "d.csv"
        rows = [_full_row() + ["Low"] for _ in range(2 * _BLOCK_ROWS + 10)]
        rows[2 * _BLOCK_ROWS + 3][10] = "lots"
        _write_csv(p, self.HEADER, rows)
        with pytest.raises(ValueError, match=f"'lots' at row {2 * _BLOCK_ROWS + 4}, column 'Smoking'"):
            load_csv(p)
        rows[2 * _BLOCK_ROWS + 3][10] = 3
        rows[2 * _BLOCK_ROWS + 5].pop()
        _write_csv(p, self.HEADER, rows)
        with pytest.raises(ValueError, match=f"row {2 * _BLOCK_ROWS + 6} is too short to hold column 'Level'"):
            load_csv(p)

    def test_first_block_error_is_raised(self, tmp_path):
        p = tmp_path / "d.csv"
        rows = [_full_row() + ["Low"] for _ in range(_BLOCK_ROWS + 10)]
        rows[_BLOCK_ROWS - 1][22] = "late"  # Snoring, last cell of block 1
        rows[_BLOCK_ROWS][0] = "early"  # Age, first cell of block 2
        _write_csv(p, self.HEADER, rows)
        with pytest.raises(ValueError, match=f"'late' at row {_BLOCK_ROWS}, column 'Snoring'"):
            load_csv(p)


def reference_blocks(path):
    """The csv-module reader that numpy's reads plain blocks in place of: the
    reference for ``iter_csv_blocks``, with ``dataset._BLOCK_ROWS`` rows a block."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = filter(None, csv.reader(fh))
        header = next(rows, None)
        if header is None:
            raise ValueError(f"empty file: {path}")
        names = [_norm(h) for h in header]
        col_of = {name: i for i, name in enumerate(names)}
        for name in (*FEATURE_NAMES, LABEL_NAME):
            if _norm(name) not in col_of:
                raise ValueError(f"missing column: {name}")
            if names.count(_norm(name)) > 1:
                raise ValueError(f"duplicate column: {name}")
        feature_idx = [col_of[_norm(name)] for name in FEATURE_NAMES]
        label_idx = col_of[_norm(LABEL_NAME)]

        done = 0
        while block := list(islice(rows, dataset._BLOCK_ROWS)):
            try:
                parsed = _reference_columns(block, feature_idx, label_idx)
            except (ValueError, IndexError):
                parsed = _reference_rows(block, done, feature_idx, label_idx)
            yield parsed
            done += len(block)
    if not done:
        raise ValueError(f"no data rows in {path}")


def _reference_columns(data_rows, feature_idx, label_idx):
    n = len(data_rows)
    X = np.empty((n, len(FEATURE_NAMES)), dtype=np.float64)
    for j, ci in enumerate(feature_idx):
        X[:, j] = np.fromiter(map(float, map(itemgetter(ci), data_rows)), np.float64, n)
    tokens = list(map(itemgetter(label_idx), data_rows))
    label_of = {t: _parse_label(t) for t in set(tokens)}
    y = np.fromiter(map(label_of.__getitem__, tokens), np.int64, n)
    return X, y


def _reference_rows(data_rows, done, feature_idx, label_idx):
    for r, row in enumerate(data_rows, done + 1):
        for j, ci in enumerate(feature_idx):
            cell = row[ci].strip() if ci < len(row) else ""
            try:
                float(cell)
            except ValueError:
                raise ValueError(f"non-numeric value {cell!r} at row {r}, column {FEATURE_NAMES[j]!r}") from None
        if label_idx >= len(row):
            raise ValueError(f"row {r} is too short to hold column {LABEL_NAME!r}")
        _parse_label(row[label_idx])
    trimmed = [[cell.strip() for cell in row] for row in data_rows]
    return _reference_columns(trimmed, feature_idx, label_idx)


def read_outcome(reader, path):
    """Every block's X bytes, shape and labels, then the error that ended the read, if any."""
    blocks = []
    try:
        for X, y in reader(path):
            blocks.append((X.shape, X.dtype.str, X.tobytes(), y.dtype.str, y.tolist()))
    except (ValueError, UnicodeDecodeError) as exc:
        return blocks, (type(exc), str(exc))
    return blocks, None


# cells numpy's reader and float() both read, cells only float() reads (as
# written or trimmed), and cells neither reads
NUMBERS = ["3", "7", "2.5", "1e0", "-0", " 3 ", "+4", "nan", "-nan", "inf", "-Infinity"]
ODD_NUMBERS = ["1_0", "\u0661", "\x1c1\x1f"]
BAD_NUMBERS = ["x", "", " ", "1__0", "3\x00", "0x10", '"1,5"', "nan(1)", "\u0661x"]
LABELS = ["Low", "Medium", "High", " low ", "HIGH", "1", "2", "3", "3.0", " 2 ", "\u0661"]
BAD_LABELS = ["Severe", "0", "4", "Low\x00", "", "1.5", '"Low,High"']
# an ignored column's cells: quoted commas and quoted line breaks, which make a block not plain
OTHER_CELLS = ['"a,b"', '"two\nlines"', '"three\r\nlines"', '"bare\rreturn"', '"say ""hi"""', ""]
ENDINGS = ["\n", "\r\n", "\r"]


@st.composite
def csv_files(draw):
    """CSV text around the schema: shuffled and respelled header names, then
    rows of cells both readers read, with a few oddities placed among them:
    odd and bad cells, quoted cells, blank lines, trailing commas, extra and
    short rows, and other line endings."""
    columns = [*FEATURE_NAMES, LABEL_NAME] + ["Patient Id"] * draw(st.integers(0, 2))
    columns = draw(st.permutations(columns))
    header = [draw(st.sampled_from([c, c.upper(), f" {c.lower()} "])) for c in columns]
    n = draw(st.integers(0, 12))
    rows = [
        [draw(st.sampled_from(LABELS if c == LABEL_NAME else NUMBERS if c in FEATURE_NAMES else ["P1"])) for c in columns]
        for _ in range(n)
    ]
    few = partial(st.lists, max_size=2)
    row_at = st.integers(0, max(n - 1, 0))
    kinds = [
        ([i for i, c in enumerate(columns) if c in FEATURE_NAMES], ODD_NUMBERS + BAD_NUMBERS),
        ([columns.index(LABEL_NAME)], BAD_LABELS),
        ([i for i, c in enumerate(columns) if c not in FEATURE_NAMES and c != LABEL_NAME], OTHER_CELLS),
    ]
    for at, odd in kinds:
        for r, c, cell in draw(few(st.tuples(row_at, st.sampled_from(at), st.sampled_from(odd)))) if n and at else []:
            rows[r][c] = cell
    for r, shape in draw(few(st.tuples(row_at, st.sampled_from(["trailing comma", "extra", "short"])))) if n else []:
        if shape == "trailing comma":
            rows[r].append("")
        elif shape == "extra":
            rows[r] += ["9", "z"]
        else:
            rows[r] = rows[r][: draw(st.integers(0, max(len(rows[r]) - 1, 0)))]
    lines = [",".join(row) for row in [header, *rows]]
    for at, blank in sorted(draw(few(st.tuples(st.integers(1, n + 1), st.sampled_from(["", "   "])))), reverse=True):
        lines.insert(at, blank)
    endings = [draw(st.sampled_from(ENDINGS))] * len(lines)
    for at, ending in draw(few(st.tuples(st.integers(0, len(lines) - 1), st.sampled_from(ENDINGS)))):
        endings[at] = ending
    if draw(st.booleans()):  # no line break after the last line
        endings[-1] = ""
    return "".join(map(str.__add__, lines, endings))


class TestCsvReaderPaths:
    @pytest.mark.filterwarnings("error")  # a loadtxt UserWarning fails the test
    @settings(max_examples=400, deadline=None)
    @given(csv_files())
    def test_readers_agree(self, text):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset, "_BLOCK_ROWS", 3)  # block boundaries fall inside the files
            path = Path(tmp) / "case.csv"
            path.write_bytes(text.encode("utf-8"))
            assert read_outcome(iter_csv_blocks, path) == read_outcome(reference_blocks, path)

    @pytest.mark.parametrize("ending", ENDINGS)
    def test_each_odd_cell_reads_as_the_reference_reads_it(self, tmp_path, monkeypatch, ending):
        # one odd cell in the second of three blocks, the others plain
        monkeypatch.setattr(dataset, "_BLOCK_ROWS", 3)
        header = ["Patient Id", *FEATURE_NAMES, LABEL_NAME]
        p = tmp_path / "d.csv"
        for column, cells in [(1, ODD_NUMBERS + BAD_NUMBERS), (len(header) - 1, LABELS + BAD_LABELS), (0, OTHER_CELLS)]:
            for cell in cells:
                rows = [["P1", *["3"] * len(FEATURE_NAMES), "Low"] for _ in range(7)]
                rows[4][column] = cell
                p.write_bytes(ending.join(",".join(row) for row in [header, *rows]).encode())
                assert read_outcome(iter_csv_blocks, p) == read_outcome(reference_blocks, p), cell

    @pytest.mark.parametrize("ending", ENDINGS)
    def test_plain_blocks_read_as_the_reference_reads_them(self, tmp_path, ending):
        p = tmp_path / "d.csv"
        save_csv(synth_generate(2 * _BLOCK_ROWS + 5, 8), p)
        p.write_bytes(p.read_bytes().replace(b"\r\n", ending.encode()))
        assert read_outcome(iter_csv_blocks, p) == read_outcome(reference_blocks, p)


class TestCsvText:
    def test_value_rule(self):
        row = ["a b", 3, np.int64(-4), 0.1, np.float64(1.0), np.float32(0.5), 1e-17]
        text = csv_text(["s", "i", "n", "f", "g", "h", "e"], [row])
        assert text == "s,i,n,f,g,h,e\na b,3,-4,0.1,1.0,0.5,1e-17\n"

    def test_no_rows_is_the_header_line(self):
        assert csv_text(["", "b"], []) == ",b\n"

    @pytest.mark.parametrize(
        "field,written",
        [
            ("x,y", '"x,y"'),
            ('say "hi"', '"say ""hi"""'),
            ("two\nlines", '"two\nlines"'),
            ("bare\rreturn", '"bare\rreturn"'),
            ("both\r\nends", '"both\r\nends"'),
        ],
    )
    def test_quotes_fields_that_need_it(self, field, written, tmp_path):
        text = csv_text(["name", "value"], [[field, 1]])
        assert text == f"name,value\n{written},1\n"
        assert list(csv.reader(io.StringIO(text))) == [["name", "value"], [field, "1"]]
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [["name", "value"], [field, "1"]]


class TestSampleFile:
    def test_shipped_sample_loads(self):
        d = load_csv(SAMPLE_CSV)
        assert d.n_rows == 12
        assert sorted(set(d.y)) == [0, 1, 2]
