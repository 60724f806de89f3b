"""Self-contained SVG 1.1 chart rendering on a fixed 800x600 canvas.

No plotting dependency: layout constants are fixed and all numbers are
formatted explicitly, so identical input data produces byte-identical
files (golden-file friendly).

The three x-and-series charts, ``lines``, ``grouped_bars`` and
``histogram``, read one payload: ``title``, ``x``, ``series`` (a list of
``{"name", "y"}``, each ``y`` as long as ``x``), ``x_label`` and
``y_label``. Lines plot ``x`` as numbers; bars label one slot per ``x``
and rotate labels over 8 characters; a histogram is grouped bars whose
labels are never rotated. Each is drawn in one frame, ``_frame``: its
renderer computes only the ranges, x ticks and marks. ``heatmap3x3``
reads ``title`` and a 3x3 ``counts`` grid. ``cli.py`` builds every
payload from values checked where they entered, so none is checked again.
"""

from __future__ import annotations

from .dataset import LABEL_VALUES

WIDTH, HEIGHT = 800, 600
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 80, 170, 60, 70
# the plot area's corners
X0, Y0, X1, Y1 = MARGIN_LEFT, MARGIN_TOP, WIDTH - MARGIN_RIGHT, HEIGHT - MARGIN_BOTTOM

PALETTE = ("#4C72B0", "#DD8452", "#55A868", "#C44E52", "#8172B3", "#937860")

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
)


def _num(v: float) -> str:
    return f"{float(v):.2f}".rstrip("0").rstrip(".")


def _tick_label(v: float) -> str:
    return f"{float(v):.6g}"


def _text(x, y, s, size=13, anchor="start", color="#222222", rotate=None) -> str:
    transform = f' transform="rotate({rotate} {_num(x)} {_num(y)})"' if rotate is not None else ""
    escaped = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (
        f'<text x="{_num(x)}" y="{_num(y)}" font-family="sans-serif" font-size="{size}" '
        f'fill="{color}" text-anchor="{anchor}"{transform}>{escaped}</text>\n'
    )


def _rect(x, y, w, h, fill, stroke="none") -> str:
    return (
        f'<rect x="{_num(x)}" y="{_num(y)}" width="{_num(w)}" height="{_num(h)}" '
        f'fill="{fill}" stroke="{stroke}"/>\n'
    )


def _line(x1, y1, x2, y2) -> str:
    return (
        f'<line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" '
        f'y2="{_num(y2)}" stroke="#888888" stroke-width="1"/>\n'
    )


def _polyline(points, color) -> str:
    pts = " ".join(f"{_num(x)},{_num(y)}" for x, y in points)
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>\n'


def _frame(data, ylo, yhi, x_ticks, marks) -> str:
    """The document around a chart's x ticks and marks: the title, a y
    axis from ``ylo`` to ``yhi`` with six ticks, the x axis, ``x_ticks``,
    the x label, ``marks`` and a legend of the payload's series."""
    parts = [_HEADER, _text(WIDTH / 2, 28, data.get("title", ""), size=17, anchor="middle")]
    parts.append(_line(X0, Y0, X0, Y1))
    for t in range(6):
        v = ylo + (yhi - ylo) * t / 5
        y = Y1 - (v - ylo) / (yhi - ylo) * (Y1 - Y0)
        parts.append(_line(X0 - 4, y, X0, y))
        parts.append(_text(X0 - 8, y + 4, _tick_label(v), size=11, anchor="end"))
    parts.append(_text(18, (Y0 + Y1) / 2, data.get("y_label", ""), anchor="middle", rotate=-90))
    parts.append(_line(X0, Y1, X1, Y1))
    parts += x_ticks
    parts.append(_text((X0 + X1) / 2, HEIGHT - 18, data.get("x_label", ""), anchor="middle"))
    parts += marks
    for i, s in enumerate(data["series"]):  # the legend, right of the plot area
        y = Y0 + 10 + 20 * i
        parts.append(_rect(X1 + 15, y - 9, 12, 12, PALETTE[i % len(PALETTE)]))
        parts.append(_text(X1 + 33, y + 2, s["name"], size=12))
    parts.append("</svg>\n")
    return "".join(parts)


def _render_lines(data) -> str:
    xs = [float(v) for v in data["x"]]
    series = data["series"]
    all_y = [float(v) for s in series for v in s["y"]]
    ylo, yhi = min(all_y), max(all_y)
    if yhi <= ylo:  # widened around its value by 5% of it, 0.05 at 0, as matplotlib's `nonsingular` does
        half = 0.05 * abs(ylo) or 0.05
        ylo, yhi = ylo - half, yhi + half
    pad = (yhi - ylo) * 0.05
    ylo, yhi = ylo - pad, yhi + pad
    xlo, xhi = min(xs), max(xs)
    if xhi == xlo:
        xhi = xlo + 1.0

    def px(v):
        return X0 + (v - xlo) / (xhi - xlo) * (X1 - X0)

    def py(v):
        return Y1 - (v - ylo) / (yhi - ylo) * (Y1 - Y0)

    ticks = []
    for v in xs if len(xs) <= 12 else xs[:: len(xs) // 10]:
        ticks.append(_line(px(v), Y1, px(v), Y1 + 4))
        ticks.append(_text(px(v), Y1 + 18, _tick_label(v), size=11, anchor="middle"))
    marks = [
        _polyline([(px(x), py(float(y))) for x, y in zip(xs, s["y"])], PALETTE[i % len(PALETTE)])
        for i, s in enumerate(series)
    ]
    return _frame(data, ylo, yhi, ticks, marks)


def _render_grouped_bars(data, rotate_long_labels=True) -> str:
    labels, series = data["x"], data["series"]
    yhi = max([float(v) for s in series for v in s["y"]] + [1e-9]) * 1.05
    slot = (X1 - X0) / len(labels)
    bar_w = slot * 0.8 / len(series)
    ticks = []  # each slot's bars, then its label, all before the x label
    for ci, cat in enumerate(labels):
        base = X0 + ci * slot + slot * 0.1
        for si, s in enumerate(series):
            top = Y1 - float(s["y"][ci]) / yhi * (Y1 - Y0)
            ticks.append(_rect(base + si * bar_w, top, bar_w, Y1 - top, PALETTE[si % len(PALETTE)]))
        rotate = -30 if len(str(cat)) > 8 and rotate_long_labels else None
        ticks.append(_text(base + slot * 0.4, Y1 + 18, str(cat), size=11, anchor="middle", rotate=rotate))
    return _frame(data, 0.0, yhi, ticks, [])


def _heat_color(v: float, vmax: float) -> str:
    # white -> deep blue ramp
    frac = 0.0 if vmax <= 0 else min(max(v / vmax, 0.0), 1.0)
    r = round(255 - 179 * frac)
    g = round(255 - 141 * frac)
    b = round(255 - 79 * frac)
    return f"rgb({r},{g},{b})"


def _render_heatmap3x3(data) -> str:
    counts = data["counts"]
    cell_w = (X1 - X0) / 3
    cell_h = (Y1 - Y0) / 3
    vmax = max(float(v) for row in counts for v in row)

    parts = [_HEADER, _text(WIDTH / 2, 28, data.get("title", ""), size=17, anchor="middle")]
    for i in range(3):
        for j in range(3):
            v = float(counts[i][j])
            cx = X0 + j * cell_w
            cy = Y0 + i * cell_h
            parts.append(_rect(cx, cy, cell_w, cell_h, _heat_color(v, vmax), stroke="#FFFFFF"))
            text_color = "#FFFFFF" if vmax > 0 and v / vmax > 0.55 else "#222222"
            parts.append(
                _text(cx + cell_w / 2, cy + cell_h / 2 + 6, str(int(v)), size=20,
                      anchor="middle", color=text_color)
            )
    for j, lab in enumerate(LABEL_VALUES):
        parts.append(_text(X0 + j * cell_w + cell_w / 2, Y1 + 22, lab, anchor="middle"))
    for i, lab in enumerate(LABEL_VALUES):
        parts.append(_text(X0 - 10, Y0 + i * cell_h + cell_h / 2 + 4, lab, anchor="end"))
    parts.append(_text((X0 + X1) / 2, HEIGHT - 18, "predicted", anchor="middle"))
    parts.append(_text(20, (Y0 + Y1) / 2, "true", anchor="middle", rotate=-90))
    parts.append("</svg>\n")
    return "".join(parts)


_RENDERERS = {
    "histogram": lambda data: _render_grouped_bars(data, rotate_long_labels=False),
    "heatmap3x3": _render_heatmap3x3,
    "lines": _render_lines,
    "grouped_bars": _render_grouped_bars,
}


def render_svg(chart: str, data: dict, path) -> None:
    """Render one chart to a standalone SVG file."""
    content = _RENDERERS[chart](data)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)
