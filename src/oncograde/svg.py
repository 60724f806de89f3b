"""Self-contained SVG 1.1 chart rendering on a fixed 800x600 canvas.

No plotting dependency: layout constants are fixed and all numbers are
formatted explicitly, so identical input data produces byte-identical
files (golden-file friendly).
"""

from __future__ import annotations

from .dataset import LABEL_VALUES

WIDTH, HEIGHT = 800, 600
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 80, 170, 60, 70

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


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _text(x, y, s, size=13, anchor="start", color="#222222", rotate=None) -> str:
    transform = f' transform="rotate({rotate} {_num(x)} {_num(y)})"' if rotate is not None else ""
    return (
        f'<text x="{_num(x)}" y="{_num(y)}" font-family="sans-serif" font-size="{size}" '
        f'fill="{color}" text-anchor="{anchor}"{transform}>{_esc(s)}</text>\n'
    )


def _rect(x, y, w, h, fill, stroke="none") -> str:
    return (
        f'<rect x="{_num(x)}" y="{_num(y)}" width="{_num(w)}" height="{_num(h)}" '
        f'fill="{fill}" stroke="{stroke}"/>\n'
    )


def _line(x1, y1, x2, y2, color="#888888", width=1) -> str:
    return (
        f'<line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" y2="{_num(y2)}" '
        f'stroke="{color}" stroke-width="{width}"/>\n'
    )


def _polyline(points, color, width=2) -> str:
    pts = " ".join(f"{_num(x)},{_num(y)}" for x, y in points)
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>\n'


def _plot_area():
    x0 = MARGIN_LEFT
    y0 = MARGIN_TOP
    x1 = WIDTH - MARGIN_RIGHT
    y1 = HEIGHT - MARGIN_BOTTOM
    return x0, y0, x1, y1


def _nice_range(lo: float, hi: float) -> tuple[float, float]:
    if hi <= lo:
        hi = lo + 1.0
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _y_axis(parts, lo, hi, label):
    x0, y0, x1, y1 = _plot_area()
    parts.append(_line(x0, y0, x0, y1))
    for t in range(6):
        v = lo + (hi - lo) * t / 5
        y = y1 - (v - lo) / (hi - lo) * (y1 - y0)
        parts.append(_line(x0 - 4, y, x0, y))
        parts.append(_text(x0 - 8, y + 4, _tick_label(v), size=11, anchor="end"))
    parts.append(_text(18, (y0 + y1) / 2, label, size=13, anchor="middle", rotate=-90))


def _legend(parts, names):
    x0 = WIDTH - MARGIN_RIGHT + 15
    y = MARGIN_TOP + 10
    for i, name in enumerate(names):
        parts.append(_rect(x0, y - 9, 12, 12, PALETTE[i % len(PALETTE)]))
        parts.append(_text(x0 + 18, y + 2, name, size=12))
        y += 20


def _title(parts, title):
    parts.append(_text(WIDTH / 2, 28, title, size=17, anchor="middle"))


def _render_lines(data) -> str:
    xs = [float(v) for v in data["x"]]
    series = data["series"]
    if not xs or not series:
        raise ValueError("lines chart needs x values and at least one series")
    for s in series:
        if len(s["y"]) != len(xs):
            raise ValueError(f"series {s['name']!r} length does not match x")
    x0, y0, x1, y1 = _plot_area()
    all_y = [float(v) for s in series for v in s["y"]]
    ylo, yhi = _nice_range(min(all_y), max(all_y))
    xlo, xhi = min(xs), max(xs)
    if xhi == xlo:
        xhi = xlo + 1.0

    def px(v):
        return x0 + (v - xlo) / (xhi - xlo) * (x1 - x0)

    def py(v):
        return y1 - (v - ylo) / (yhi - ylo) * (y1 - y0)

    parts = [_HEADER]
    _title(parts, data.get("title", ""))
    _y_axis(parts, ylo, yhi, data.get("y_label", ""))
    parts.append(_line(x0, y1, x1, y1))
    tick_xs = xs if len(xs) <= 12 else [xs[i] for i in range(0, len(xs), max(1, len(xs) // 10))]
    for v in tick_xs:
        parts.append(_line(px(v), y1, px(v), y1 + 4))
        parts.append(_text(px(v), y1 + 18, _tick_label(v), size=11, anchor="middle"))
    parts.append(_text((x0 + x1) / 2, HEIGHT - 18, data.get("x_label", ""), anchor="middle"))
    for i, s in enumerate(series):
        pts = [(px(x), py(float(y))) for x, y in zip(xs, s["y"])]
        parts.append(_polyline(pts, PALETTE[i % len(PALETTE)]))
    _legend(parts, [s["name"] for s in series])
    parts.append("</svg>\n")
    return "".join(parts)


def _render_grouped_bars(data, bin_mode=False) -> str:
    categories = list(data["categories"])
    series = data["series"]
    if not categories or not series:
        raise ValueError("bar chart needs categories and at least one series")
    for s in series:
        if len(s["values"]) != len(categories):
            raise ValueError(f"series {s['name']!r} length does not match categories")
    x0, y0, x1, y1 = _plot_area()
    all_v = [float(v) for s in series for v in s["values"]]
    ylo = 0.0
    yhi = max(all_v + [1e-9]) * 1.05

    def py(v):
        return y1 - (v - ylo) / (yhi - ylo) * (y1 - y0)

    parts = [_HEADER]
    _title(parts, data.get("title", ""))
    _y_axis(parts, ylo, yhi, data.get("y_label", ""))
    parts.append(_line(x0, y1, x1, y1))
    n_cat, n_ser = len(categories), len(series)
    slot = (x1 - x0) / n_cat
    bar_w = slot * 0.8 / n_ser
    for ci, cat in enumerate(categories):
        base = x0 + ci * slot + slot * 0.1
        for si, s in enumerate(series):
            v = float(s["values"][ci])
            parts.append(_rect(base + si * bar_w, py(v), bar_w, y1 - py(v), PALETTE[si % len(PALETTE)]))
        label_y = y1 + 18
        rotate = -30 if len(str(cat)) > 8 and not bin_mode else None
        parts.append(
            _text(base + slot * 0.4, label_y, str(cat), size=11, anchor="middle", rotate=rotate)
        )
    parts.append(_text((x0 + x1) / 2, HEIGHT - 18, data.get("x_label", ""), anchor="middle"))
    _legend(parts, [s["name"] for s in series])
    parts.append("</svg>\n")
    return "".join(parts)


def _render_histogram(data) -> str:
    return _render_grouped_bars(
        {
            "title": data.get("title", ""),
            "categories": data["bins"],
            "series": data["series"],
            "y_label": data.get("y_label", "count"),
            "x_label": data.get("x_label", ""),
        },
        bin_mode=True,
    )


def _heat_color(v: float, vmax: float) -> str:
    # white -> deep blue ramp
    frac = 0.0 if vmax <= 0 else min(max(v / vmax, 0.0), 1.0)
    r = round(255 - 179 * frac)
    g = round(255 - 141 * frac)
    b = round(255 - 79 * frac)
    return f"rgb({r},{g},{b})"


def _render_heatmap3x3(data) -> str:
    counts = data["counts"]
    if len(counts) != 3 or any(len(row) != 3 for row in counts):
        raise ValueError("heatmap3x3 requires a 3x3 count grid")
    x0, y0, x1, y1 = _plot_area()
    cell_w = (x1 - x0) / 3
    cell_h = (y1 - y0) / 3
    vmax = max(float(v) for row in counts for v in row)

    parts = [_HEADER]
    _title(parts, data.get("title", ""))
    for i in range(3):
        for j in range(3):
            v = float(counts[i][j])
            cx = x0 + j * cell_w
            cy = y0 + i * cell_h
            parts.append(_rect(cx, cy, cell_w, cell_h, _heat_color(v, vmax), stroke="#FFFFFF"))
            text_color = "#FFFFFF" if vmax > 0 and v / vmax > 0.55 else "#222222"
            parts.append(
                _text(cx + cell_w / 2, cy + cell_h / 2 + 6, str(int(v)), size=20,
                      anchor="middle", color=text_color)
            )
    for j, lab in enumerate(LABEL_VALUES):
        parts.append(_text(x0 + j * cell_w + cell_w / 2, y1 + 22, lab, anchor="middle"))
    for i, lab in enumerate(LABEL_VALUES):
        parts.append(_text(x0 - 10, y0 + i * cell_h + cell_h / 2 + 4, lab, anchor="end"))
    parts.append(_text((x0 + x1) / 2, HEIGHT - 18, "predicted", anchor="middle"))
    parts.append(_text(20, (y0 + y1) / 2, "true", anchor="middle", rotate=-90))
    parts.append("</svg>\n")
    return "".join(parts)


_RENDERERS = {
    "histogram": _render_histogram,
    "heatmap3x3": _render_heatmap3x3,
    "lines": _render_lines,
    "grouped_bars": _render_grouped_bars,
}


def render_svg(chart: str, data: dict, path) -> None:
    """Render one chart to a standalone SVG file."""
    if chart not in _RENDERERS:
        raise ValueError(f"unknown chart kind {chart!r}; expected one of {sorted(_RENDERERS)}")
    content = _RENDERERS[chart](data)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)
