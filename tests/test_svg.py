import math
import re

import numpy as np
import pytest

from multiport_lab import svg
from multiport_lab.svg import line_chart


def curve():
    xs = [i / 10 for i in range(11)]
    ys = [math.sin(x) for x in xs]
    return xs, ys


def test_chart_is_well_formed_svg():
    xs, ys = curve()
    out = line_chart([("sin", xs, ys)], x_label="x", y_label="sin x")
    assert out.startswith("<svg")
    assert out.rstrip().endswith("</svg>")
    assert out.count("<polyline") == 1
    assert "sin x" in out


def test_chart_multiple_series_and_title():
    xs, ys = curve()
    out = line_chart(
        [("a", xs, ys), ("b", xs, [y + 1 for y in ys])],
        x_label="x",
        y_label="y",
        title="two curves",
    )
    assert out.count("<polyline") == 2
    assert "two curves" in out


def test_chart_log_scale_accepts_positive_data():
    xs = [1.0, 2.0, 3.0]
    ys = [1e-3, 1.0, 1e3]
    out = line_chart([("s", xs, ys)], x_label="x", y_label="y", log_y=True)
    assert "<polyline" in out


def test_chart_is_deterministic():
    xs, ys = curve()
    a = line_chart([("s", xs, ys)], x_label="x", y_label="y")
    b = line_chart([("s", xs, ys)], x_label="x", y_label="y")
    assert a == b


def scalar_positions(series, log_y=False, width=720, height=440):
    """Each series' points attribute and the tick positions, from
    float-by-float sx/sy: the reference the array arithmetic of
    `line_chart` must match."""
    xs_all = [float(x) for _, xs, _ in series for x in xs]
    ys_all = [float(y) for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    if log_y:
        positive = [y for y in ys_all if y > 0]
        floor = min(positive) if positive else 1e-12
        y_lo = math.log10(floor)
        y_hi = math.log10(max(max(ys_all), floor * 10))
    else:
        y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    plot_w = width - svg._MARGIN_LEFT - svg._MARGIN_RIGHT
    plot_h = height - svg._MARGIN_TOP - svg._MARGIN_BOTTOM

    def sx(x):
        return svg._MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        if log_y:
            y = math.log10(y) if y > 0 else y_lo
        return svg._MARGIN_TOP + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h

    points = [" ".join(f"{sx(float(x)):.2f},{sy(float(y)):.2f}" for x, y in zip(xs, ys))
              for _, xs, ys in series]
    x_ticks = [f"{sx(t):.2f}" for t in svg._ticks(x_lo, x_hi)]
    y_ticks = [f"{svg._MARGIN_TOP + (1.0 - (t - y_lo) / (y_hi - y_lo)) * plot_h:.2f}"
               for t in svg._ticks(y_lo, y_hi)]
    return points, x_ticks, y_ticks


def positions(doc):
    return (re.findall(r'<polyline points="([^"]*)"', doc),
            re.findall(r'<line x1="(-?\d+\.\d\d)" y1="\d+" x2="\1"', doc),
            re.findall(r'<line x1="\d+" y1="(-?\d+\.\d\d)" x2="\d+" y2="\1"', doc))


# more than three blocks of points, and one over
LONG = np.linspace(-1.0, 7.0, 3 * svg._POINTS_PER_BLOCK + 1)


@pytest.mark.parametrize("series, log_y", [
    ([("T", LONG, np.sin(LONG) ** 2)], False),
    ([("T", LONG.tolist(), (np.sin(LONG) ** 2).tolist())], False),
    ([("a", LONG, np.cos(3 * LONG)), ("b", LONG[::7], 1e-9 * LONG[::7] + 0.3)], False),
    ([("flat", [2.0, 2.0, 2.0], [0.5, 0.5, 0.5])], False),
    ([("flat", [2.0, 2.0], [1e-3, 1e-3])], True),
    ([("s", LONG, np.exp(5 * np.sin(LONG)))], True),
    ([("s", [1.0, 2.0, 3.0, 4.0, 5.0], [0.0, -2.0, 1e-3, 1e3, 0.0])], True),
    ([("s", [1.0, 2.0], [0.0, -1.0])], True),
])
def test_chart_matches_scalar_formula(series, log_y):
    doc = line_chart(series, x_label="x", y_label="y", log_y=log_y)
    assert positions(doc) == scalar_positions(series, log_y=log_y)
