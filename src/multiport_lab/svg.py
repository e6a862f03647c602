"""Minimal SVG line charts, built with numpy and the standard library.

Good enough to eyeball a transmission curve or a sensitivity profile; CSVs
remain the machine-readable output.  A polyline keeps, of each run of
samples in one pixel column, the first, last, lowest and highest (M4,
`_m4`), which draws the same line at the chart's size: a series with at
most 2 samples in every such run keeps every point, and a dense sweep
draws a few thousand points instead of every sample.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_PALETTE = ("#1f6fb2", "#c44e52", "#55a868", "#8172b2")

_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 24
_MARGIN_BOTTOM = 46

#: samples reduced per step (`_m4`): one block of a dense series at a time
#: keeps the reduction's temporaries small next to the series itself
_POINTS_PER_BLOCK = 4096


def _m4(cols: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Indices, increasing, of the samples that M4 keeps of `ys`: for each
    run of consecutive samples in one pixel column (equal `cols`), its
    first and last sample and the first of its lowest and of its highest.
    These draw the same raster line as the whole run (U. Jugel et al.,
    "M4: A Visualization-Oriented Time Series Data Aggregation", PVLDB
    7(10), 2014)."""
    n = len(ys)
    starts = np.flatnonzero(np.concatenate(([True], cols[1:] != cols[:-1])))
    lengths = np.diff(np.append(starts, n))
    # a mask, not np.unique: that imports numpy.ma on first use, which
    # raised a dense sweep's peak RSS by about 0.5 MB
    keep = np.zeros(n, dtype=bool)
    keep[starts] = True
    keep[starts + lengths - 1] = True
    for extreme in (np.minimum, np.maximum):
        hit = ys == np.repeat(extreme.reduceat(ys, starts), lengths)
        keep[np.minimum.reduceat(np.where(hit, np.arange(n), n), starts)] = True
    return np.flatnonzero(keep)


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1.0, 2.0, 2.5, 5.0, 10.0) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    # Far from 0, step can be near an ulp of t, where t += step stalls or
    # overshoots: the count of steps in the span, not t, ends the loop.
    count = math.floor((hi - first) / step + 1e-9) + 1
    out = []
    t = first
    for _ in range(count):
        if t > hi + min(1e-12 * abs(hi), 1e-9 * step) or (out and t == out[-1]):
            break
        out.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return out


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1000 or abs(v) < 0.01:
        return f"{v:.1e}"
    return f"{v:g}"


def line_chart(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    x_label: str,
    y_label: str,
    title: str = "",
    *,
    width: int = 720,
    height: int = 440,
    log_y: bool = False,
) -> str:
    """Render (label, xs, ys) series to an SVG document; xs and ys may be
    sequences or arrays of floats, and must hold no NaN."""
    columns = [(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
               for _, xs, ys in series]
    for (label, _, _), (xs, ys) in zip(series, columns):
        # min propagates a NaN anywhere in the array
        if any(a.size and math.isnan(a.min()) for a in (xs, ys)):
            raise ValueError(f"series {label!r} holds NaN")
    xs_all = [xs for xs, _ in columns if xs.size]
    ys_all = [ys for _, ys in columns if ys.size]
    if not xs_all:
        raise ValueError("nothing to plot")

    x_lo = float(np.min([xs.min() for xs in xs_all]))
    x_hi = float(np.max([xs.max() for xs in xs_all]))
    if log_y:
        positive = [p for p in (ys[ys > 0] for ys in ys_all) if p.size]
        floor = float(np.min([p.min() for p in positive])) if positive else 1e-12
        y_lo = math.log10(floor)
        y_hi = math.log10(max(float(np.max([ys.max() for ys in ys_all])), floor * 10))
    else:
        y_lo = float(np.min([ys.min() for ys in ys_all]))
        y_hi = float(np.max([ys.max() for ys in ys_all]))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x):
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):  # y already on the log scale for log_y
        return _MARGIN_TOP + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    def polyline(xs, ys):
        """The points attribute: the M4 points of each block (`_m4`), sx
        and sy elementwise (the same doubles as on scalars), log10 per
        value as math does it."""
        n = min(len(xs), len(ys))
        points = []
        for i in range(0, n, _POINTS_PER_BLOCK):
            j = min(i + _POINTS_PER_BLOCK, n)
            px = sx(xs[i:j])
            keep = _m4(np.floor(px), ys[i:j])
            py = ys[i:j][keep]
            if log_y:
                py = np.array([math.log10(y) if y > 0 else y_lo for y in py.tolist()])
            points += ["%.2f,%.2f" % p for p in zip(px[keep].tolist(), sy(py).tolist())]
        return " ".join(points)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="16" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )

    # axes box
    parts.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#444"/>'
    )

    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_TOP + plot_h}" x2="{px:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h + 4}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{_MARGIN_TOP + plot_h + 18}" '
            f'text-anchor="middle">{_fmt_tick(t)}</text>'
        )
    y_tick_vals = _ticks(y_lo, y_hi)
    for t in y_tick_vals:
        py = sy(t)
        label = _fmt_tick(10.0 ** t) if log_y else _fmt_tick(t)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 4}" y1="{py:.2f}" x2="{_MARGIN_LEFT}" '
            f'y2="{py:.2f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{py + 4:.2f}" '
            f'text-anchor="end">{label}</text>'
        )

    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{height - 8}" '
        f'text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_MARGIN_TOP + plot_h / 2:.1f})">{y_label}</text>'
    )

    for k, ((label, _, _), (xs, ys)) in enumerate(zip(series, columns)):
        color = _PALETTE[k % len(_PALETTE)]
        parts.append(
            f'<polyline points="{polyline(xs, ys)}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        if label:
            ly = _MARGIN_TOP + 16 + 16 * k
            lx = _MARGIN_LEFT + plot_w - 150
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
            parts.append(f'<text x="{lx + 28}" y="{ly}">{label}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
