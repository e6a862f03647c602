"""Minimal SVG line charts, built with numpy and the standard library.

Good enough to eyeball a transmission curve or a sensitivity profile; CSVs
remain the machine-readable output.  A polyline keeps, of each run of
samples in one pixel column, the first, last, lowest and highest (M4,
`m4`), which draws the same line at the chart's size: a series with at
most 2 samples in every such run keeps every point, and a dense sweep
draws a few thousand points instead of every sample.  `m4` needs only the
x range, so a stream can be reduced block by block and drawn at the end.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

_PALETTE = ("#1f6fb2", "#c44e52", "#55a868", "#8172b2")

#: chart size in pixels; its plot, inside the margins, is 640 x 370
_WIDTH, _HEIGHT = 720, 440
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 24
_MARGIN_BOTTOM = 46

#: samples reduced per step (`m4`): one block of a dense series at a time
#: keeps the reduction's temporaries small next to the series itself
_POINTS_PER_BLOCK = 4096


def _sx(x, x_lo: float, x_hi: float):
    """Horizontal pixel position of x on the chart."""
    return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT)


def m4(xs, ys, x_lo: float, x_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The samples of (xs, ys) that a chart over [x_lo, x_hi] draws.  Of
    each run of consecutive samples in one pixel column (within a block of
    `_POINTS_PER_BLOCK`), M4 keeps the first, the last and the first
    lowest and highest, which draw the same raster line as the run
    (U. Jugel et al., "M4: A Visualization-Oriented Time Series Data
    Aggregation", PVLDB 7(10), 2014).  On increasing xs the kept samples
    have the series' x and y range, though not its smallest positive y."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    n = min(len(xs), len(ys))
    kept = [np.zeros(0, dtype=np.intp)]
    for i in range(0, n, _POINTS_PER_BLOCK):
        j = min(i + _POINTS_PER_BLOCK, n)
        y, cols = ys[i:j], np.floor(_sx(xs[i:j], x_lo, x_hi))
        starts = np.flatnonzero(np.concatenate(([True], cols[1:] != cols[:-1])))
        lengths = np.diff(np.append(starts, j - i))
        # a mask, not np.unique: that imports numpy.ma on first use, which
        # raised a dense sweep's peak RSS by about 0.5 MB
        keep = np.zeros(j - i, dtype=bool)
        keep[starts] = keep[starts + lengths - 1] = True
        for extreme in (np.minimum, np.maximum):
            hit = y == np.repeat(extreme.reduceat(y, starts), lengths)
            keep[np.minimum.reduceat(np.where(hit, np.arange(j - i), j - i), starts)] = True
        kept.append(i + np.flatnonzero(keep))
    at = np.concatenate(kept)
    return xs[at], ys[at]


def _range(label: str, a: np.ndarray, log: bool = False) -> tuple[float, float]:
    """(min, max) of a nonempty series, refusing NaN and infinities; on a
    log scale -inf is drawn at the floor, with zeros and negatives."""
    lo, hi = float(a.min()), float(a.max())  # min propagates a NaN
    if math.isnan(lo):
        raise ValueError(f"series {label!r} holds NaN")
    if hi == math.inf or (lo == -math.inf and not log):
        raise ValueError(f"series {label!r} holds an infinity")
    return lo, hi


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
    log_y: bool = False,
    reduced: bool = False,
) -> str:
    """Render (label, xs, ys) series to an SVG document; xs and ys may be
    sequences or arrays of finite floats (`_range`).  Each polyline draws
    `m4` of its series, or with `reduced` the series as given, which must
    then be `m4`'s output over its own x range, of increasing xs (as a
    stream reduced block by block gives)."""
    columns, x_ranges, y_ranges = [], [], []
    for label, xs, ys in series:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        columns.append((xs, ys))
        x_ranges += [_range(label, xs)] if xs.size else []
        y_ranges += [_range(label, ys, log_y)] if ys.size else []
    if not x_ranges:
        raise ValueError("nothing to plot")

    x_lo = min(lo for lo, _ in x_ranges)
    x_hi = max(hi for _, hi in x_ranges)
    y_lo = min(lo for lo, _ in y_ranges)
    y_hi = max(hi for _, hi in y_ranges)
    if log_y:
        # the smallest positive y, without copying the positive values
        floor = min(float(np.min(ys, where=ys > 0, initial=math.inf)) for _, ys in columns)
        floor = floor if floor < math.inf else 1e-12
        y_lo = math.log10(floor)
        y_hi = math.log10(max(y_hi, floor * 10))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    if not reduced:
        columns = [m4(xs, ys, x_lo, x_hi) for xs, ys in columns]

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sy(y):  # y already on the log scale for log_y
        return _MARGIN_TOP + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    def polyline(xs, ys):
        """The points attribute: _sx and sy elementwise (the same doubles as
        on scalars), log10 per value as math does it."""
        if log_y:
            ys = np.array([math.log10(y) if y > 0 else y_lo for y in ys.tolist()])
        px = _sx(xs, x_lo, x_hi)
        return " ".join("%.2f,%.2f" % p for p in zip(px.tolist(), sy(ys).tolist()))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="16" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )

    # axes box
    parts.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#444"/>'
    )

    for t in _ticks(x_lo, x_hi):
        px = _sx(t, x_lo, x_hi)
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
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 8}" '
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
