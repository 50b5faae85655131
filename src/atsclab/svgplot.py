"""Minimal standalone SVG line charts: axes, legend, optional shaded spans."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DataError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT = 900, 360
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 60, 20, 40, 45
SPAN_COLOR, SPAN_OPACITY = "#add8e6", 0.45
TICKS = 6     # target tick count per axis


def escape(text: str) -> str:
    """`xml.sax.saxutils.escape`, without the urllib and http that import brings."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@dataclass
class Series:
    name: str
    x: list[float]
    y: list[float]


@dataclass
class ChartStyle:
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    step = max((hi - lo) / TICKS, 1e-12)
    # round step to 1/2/5 * 10^k
    k = math.floor(math.log10(step))
    base = step / 10 ** k
    nice = 1 if base <= 1 else 2 if base <= 2 else 5 if base <= 5 else 10
    step = nice * 10 ** k
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-9 * step:
        out.append(round(v, 10))
        v += step
    return out or [lo]


def render_svg(series: list[Series], path, style: ChartStyle | None = None,
               spans: list[tuple[float, float]] | None = None) -> None:
    """Write a line chart; `spans` are shaded x-intervals (e.g. flagged regions)."""
    if not series:
        raise DataError("nothing to plot")
    for s in series:
        if not s.x or len(s.x) != len(s.y):
            raise DataError(f"series {s.name!r} is empty or has mismatched x/y")
    style = style or ChartStyle()
    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pw = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    ph = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(v):
        return MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * pw

    def sy(v):
        return MARGIN_TOP + ph - (v - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    for a, b in spans or []:
        a, b = max(a, x_lo), min(b, x_hi)
        if b <= a:
            continue
        parts.append(
            f'<rect class="flag-span" x="{sx(a):.2f}" y="{MARGIN_TOP}" '
            f'width="{sx(b) - sx(a):.2f}" height="{ph}" fill="{SPAN_COLOR}" '
            f'opacity="{SPAN_OPACITY}"/>')
    # axes
    ax = MARGIN_LEFT
    ay = MARGIN_TOP + ph
    parts.append(f'<line x1="{ax}" y1="{MARGIN_TOP}" x2="{ax}" y2="{ay}" '
                 'stroke="black"/>')
    parts.append(f'<line x1="{ax}" y1="{ay}" x2="{ax + pw}" y2="{ay}" stroke="black"/>')
    for v in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{sx(v):.2f}" y1="{ay}" x2="{sx(v):.2f}" y2="{ay + 4}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{sx(v):.2f}" y="{ay + 16}" font-size="11" '
                     f'text-anchor="middle">{v:g}</text>')
    for v in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{ax - 4}" y1="{sy(v):.2f}" x2="{ax}" y2="{sy(v):.2f}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{ax - 7}" y="{sy(v):.2f}" font-size="11" '
                     f'text-anchor="end" dominant-baseline="middle">{v:g}</text>')
    if style.title:
        parts.append(f'<text x="{WIDTH / 2:.0f}" y="20" font-size="14" '
                     f'text-anchor="middle">{escape(style.title)}</text>')
    if style.xlabel:
        parts.append(f'<text x="{ax + pw / 2:.0f}" y="{HEIGHT - 8}" '
                     f'font-size="12" text-anchor="middle">{escape(style.xlabel)}</text>')
    if style.ylabel:
        parts.append(f'<text x="14" y="{MARGIN_TOP + ph / 2:.0f}" font-size="12" '
                     f'text-anchor="middle" transform="rotate(-90 14 '
                     f'{MARGIN_TOP + ph / 2:.0f})">{escape(style.ylabel)}</text>')
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(s.x, s.y))
        if len(s.x) == 1:
            parts.append(f'<circle cx="{sx(s.x[0]):.2f}" cy="{sy(s.y[0]):.2f}" r="3" '
                         f'fill="{color}"/>')
        else:
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         'stroke-width="1.4"/>')
        ly = MARGIN_TOP + 6 + 16 * i
        lx = MARGIN_LEFT + pw - 160
        parts.append(f'<g class="legend-entry"><line x1="{lx}" y1="{ly}" '
                     f'x2="{lx + 22}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
                     f'<text x="{lx + 28}" y="{ly + 4}" font-size="11">'
                     f'{escape(s.name)}</text></g>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
