"""Minimal static SVG line charts.

Writes standalone SVG documents with no third-party plotting dependency.
Supports multiple named series, optional log-scale y, axis ticks, and a
simple legend. Good enough for diagnostic artifacts, not publication.
"""

import math

import numpy as np

PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
]

WIDTH = 640
HEIGHT = 420
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 40
MARGIN_B = 50


def _ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * span:
        out.append(t)
        t += step
    return out


def _log_ticks(lo, hi):
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def _fmt_tick(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.0e}"
    return f"{v:g}"


def _log10(values):
    """log10 element by element through libm's scalar log10, as math.log10
    (numpy's array log10 may differ in the last bit)."""
    return np.fromiter(map(math.log10, values.tolist()), dtype=np.float64,
                       count=len(values))


def line_plot_svg(series, title="", xlabel="", ylabel="", logy=False):
    """Render named (x, y) series as an SVG string.

    series: mapping name -> (x values, y values). With logy=True, points
    with nonpositive y are dropped from the drawing (the line breaks).
    """
    if not series:
        raise ValueError("no series to plot")
    # per series: the x and y of its points and which of them are drawn
    points = []
    for xv, yv in series.values():
        x = np.asarray(xv, dtype=np.float64)
        y = np.asarray(yv, dtype=np.float64)
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        drawn = ~(y <= 0) if logy else np.ones(n, dtype=bool)
        points.append((x[drawn], y[drawn], np.flatnonzero(drawn)))
    xs_all = np.concatenate([x for x, _, _ in points]).tolist()
    ys_all = np.concatenate([y for _, y, _ in points]).tolist()
    if not xs_all:
        raise ValueError("no drawable points (all y nonpositive on log scale?)")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if logy:
        if y_hi == y_lo:
            y_hi = y_lo * 10.0
        y_lo_t, y_hi_t = math.log10(y_lo), math.log10(y_hi)
    else:
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        y_lo_t, y_hi_t = y_lo, y_hi

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    # pixel coordinates of a float or an array; py takes y on the axis
    # scale (log10 y with logy)
    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(t):
        return MARGIN_T + plot_h - (t - y_lo_t) / (y_hi_t - y_lo_t) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" '
            f'font-size="16" font-family="sans-serif">{_esc(title)}</text>'
        )
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{MARGIN_T + plot_h}" x2="{x:.2f}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{MARGIN_T + plot_h + 18}" '
            f'text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{_fmt_tick(t)}</text>'
        )
    y_ticks = _log_ticks(y_lo, y_hi) if logy else _ticks(y_lo, y_hi)
    for t in y_ticks:
        if logy and not (y_lo <= t <= y_hi):
            continue
        y = py(math.log10(t) if logy else t)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{y:.2f}" x2="{MARGIN_L}" '
            f'y2="{y:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{_fmt_tick(t)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 12}" '
            f'text-anchor="middle" font-size="13" '
            f'font-family="sans-serif">{_esc(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="18" y="{MARGIN_T + plot_h / 2}" text-anchor="middle" '
            f'font-size="13" font-family="sans-serif" '
            f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2})">'
            f"{_esc(ylabel)}</text>"
        )

    for i, (name, (x, y, where)) in enumerate(zip(series, points)):
        color = PALETTE[i % len(PALETTE)]
        coords = list(map("%.2f,%.2f".__mod__, zip(
            px(x).tolist(), py(_log10(y) if logy else y).tolist())))
        # a dropped point breaks the line: segments are runs of drawn points
        cuts = [0, *(np.flatnonzero(np.diff(where) > 1) + 1).tolist(), len(coords)]
        for lo, hi in zip(cuts, cuts[1:]):
            if lo == hi:  # a series with no drawn point
                continue
            parts.append(
                f'<polyline points="{" ".join(coords[lo:hi])}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        ly = MARGIN_T + 14 + 16 * i
        lx = MARGIN_L + plot_w - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-size="12" '
            f'font-family="sans-serif">{_esc(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _esc(s):
    return (
        str(s).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def write_line_plot(path, series, **kwargs):
    svg = line_plot_svg(series, **kwargs)
    with open(path, "w") as f:
        f.write(svg)
