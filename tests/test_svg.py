import hashlib
import re
import xml.etree.ElementTree as ET

import pytest

from oncograde.svg import render_svg

HEATMAP_DATA = {
    "title": "Confusion matrix",
    "counts": [[5, 1, 0], [0, 6, 2], [1, 0, 7]],
}
LINES_DATA = {
    "title": "curve",
    "x": [0.1, 0.5, 1.0],
    "series": [{"name": "train", "y": [0.8, 0.9, 0.95]}, {"name": "val", "y": [0.7, 0.8, 0.9]}],
    "x_label": "fraction",
    "y_label": "accuracy",
}
BARS_DATA = {
    "title": "comparison",
    "x": ["dnn", "bagging"],
    "series": [{"name": "accuracy", "y": [0.97, 0.93]}],
    "y_label": "score",
}
HIST_DATA = {
    "title": "feature",
    "x": [str(b) for b in range(1, 10)],
    "series": [
        {"name": "Low", "y": [3, 1, 0, 0, 1, 0, 0, 0, 0]},
        {"name": "Medium", "y": [0, 2, 2, 1, 0, 0, 0, 0, 0]},
        {"name": "High", "y": [0, 0, 0, 1, 2, 2, 1, 0, 0]},
    ],
}

ALL_CHARTS = [
    ("heatmap3x3", HEATMAP_DATA),
    ("lines", LINES_DATA),
    ("grouped_bars", BARS_DATA),
    ("histogram", HIST_DATA),
]


@pytest.mark.parametrize("chart,data", ALL_CHARTS)
def test_document_shell(chart, data, tmp_path):
    path = tmp_path / "c.svg"
    render_svg(chart, data, path)
    text = path.read_text()
    assert text.startswith('<?xml version="1.0"')
    assert '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="800" height="600"' in text
    assert text.rstrip().endswith("</svg>")


@pytest.mark.parametrize("chart,data", ALL_CHARTS)
def test_parses_to_one_svg_root(chart, data, tmp_path):
    path = tmp_path / "c.svg"
    render_svg(chart, data, path)
    assert ET.parse(path).getroot().tag == "{http://www.w3.org/2000/svg}svg"


@pytest.mark.parametrize("chart,data", ALL_CHARTS)
def test_byte_deterministic(chart, data, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_svg(chart, data, a)
    render_svg(chart, data, b)
    assert a.read_bytes() == b.read_bytes()


def test_heatmap_has_nine_cells_and_labels(tmp_path):
    path = tmp_path / "h.svg"
    render_svg("heatmap3x3", HEATMAP_DATA, path)
    text = path.read_text()
    assert len(re.findall(r"<rect ", text)) == 9
    for row in HEATMAP_DATA["counts"]:
        for v in row:
            assert f">{v}</text>" in text


def test_lines_axes_labeled(tmp_path):
    path = tmp_path / "l.svg"
    render_svg("lines", LINES_DATA, path)
    text = path.read_text()
    assert ">accuracy</text>" in text
    assert ">fraction</text>" in text
    assert len(re.findall(r"<polyline ", text)) == 2


def test_histogram_bar_count(tmp_path):
    path = tmp_path / "hist.svg"
    render_svg("histogram", HIST_DATA, path)
    text = path.read_text()
    # 9 bins x 3 series bars + 3 legend swatches
    assert len(re.findall(r"<rect ", text)) == 9 * 3 + 3


# one x value and flat series: both ranges are empty; x is widened to 1, y by 5% of its value each side
ONE_POINT_LINES = {
    "title": "one point",
    "x": [3],
    "series": [{"name": "flat", "y": [0.5]}, {"name": "also flat", "y": [0.5]}],
    "x_label": "epoch",
    "y_label": "accuracy",
}
# every bar 0: the y range is floored at 1e-9
ZERO_BARS = {
    "title": "zeros",
    "x": ["a", "b", "c"],
    "series": [{"name": "s1", "y": [0, 0, 0]}, {"name": "s2", "y": [0.0, 0.0, 0.0]}],
    "y_label": "count",
}


@pytest.mark.parametrize(
    "chart,data,digest",
    [
        ("lines", ONE_POINT_LINES, "277661e4937b4e06f909366918c31eae67496ed3de23b94874ea891d548f5d1e"),
        ("grouped_bars", ZERO_BARS, "6e274337b0b9a6f46cb5c3cf492e6c1c26098062a7ee83ba9a58175cd0178604"),
    ],
)
def test_degenerate_range_bytes(chart, data, digest, tmp_path):
    path = tmp_path / "d.svg"
    render_svg(chart, data, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_flat_lines_label_y_around_their_value(tmp_path):
    # widening a flat range to [y, y + 1] labelled a series of 0.818182 up to 1.86818
    data = {"title": "flat", "x": [1, 3], "series": [{"name": "val", "y": [0.818182, 0.818182]}]}
    path = tmp_path / "f.svg"
    render_svg("lines", data, path)
    texts = [el for el in ET.parse(path).iter() if el.tag.endswith("text") and el.get("text-anchor") == "end"]
    ticks = [float(el.text) for el in texts]
    assert len(ticks) == 6 and all(0.7 <= v <= 0.9 for v in ticks)
