import math
import re
import tracemalloc

import numpy as np
import pytest

from multiport_lab import analysis, svg
from multiport_lab.svg import line_chart

BLOCK = svg._POINTS_PER_BLOCK


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


def m4_indices(cols, ys):
    """Plain-Python M4, `svg._POINTS_PER_BLOCK` samples at a time: of each
    run of consecutive samples with equal `cols`, the first, the last and
    the first lowest and first highest `ys`, as increasing indices."""
    block = svg._POINTS_PER_BLOCK
    keep = set()
    for start in range(0, len(ys), block):
        end = min(start + block, len(ys))
        i = start
        while i < end:
            j = i
            while j + 1 < end and cols[j + 1] == cols[i]:
                j += 1
            run = range(i, j + 1)
            keep |= {i, j, min(run, key=ys.__getitem__), max(run, key=ys.__getitem__)}
            i = j + 1
    return sorted(keep)


def scalar_points(series, log_y=False, width=720, height=440):
    """Each series' every point, from float-by-float sx/sy, with the
    indices of the points M4 keeps (`m4_indices` of the pixel columns
    ``floor(sx(x))`` and the raw ys), and the tick positions: the reference
    the array arithmetic of `line_chart` must match."""
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

    points = []
    for _, xs, ys in series:
        pairs = [(float(x), float(y)) for x, y in zip(xs, ys)]
        full = [f"{sx(x):.2f},{sy(y):.2f}" for x, y in pairs]
        points.append((full, m4_indices([math.floor(sx(x)) for x, _ in pairs],
                                        [y for _, y in pairs])))
    x_ticks = [f"{sx(t):.2f}" for t in svg._ticks(x_lo, x_hi)]
    y_ticks = [f"{svg._MARGIN_TOP + (1.0 - (t - y_lo) / (y_hi - y_lo)) * plot_h:.2f}"
               for t in svg._ticks(y_lo, y_hi)]
    return points, x_ticks, y_ticks


def scalar_positions(series, log_y=False):
    """Each series' points attribute, as M4 reduces it, and the tick
    positions, from `scalar_points`."""
    points, x_ticks, y_ticks = scalar_points(series, log_y=log_y)
    return [" ".join(full[i] for i in keep) for full, keep in points], x_ticks, y_ticks


def positions(doc):
    return (re.findall(r'<polyline points="([^"]*)"', doc),
            re.findall(r'<line x1="(-?\d+\.\d\d)" y1="\d+" x2="\1"', doc),
            re.findall(r'<line x1="\d+" y1="(-?\d+\.\d\d)" x2="\d+" y2="\1"', doc))


# more than three blocks of points, and one over
LONG = np.linspace(-1.0, 7.0, 3 * BLOCK + 1)


@pytest.mark.parametrize("series, log_y", [
    ([("T", LONG, np.sin(LONG) ** 2)], False),
    ([("T", LONG.tolist(), (np.sin(LONG) ** 2).tolist())], False),
    ([("a", LONG, np.cos(3 * LONG)), ("b", LONG[::7], 1e-9 * LONG[::7] + 0.3)], False),
    ([("flat", [2.0, 2.0, 2.0], [0.5, 0.5, 0.5])], False),
    ([("flat", [2.0, 2.0], [1e-3, 1e-3])], True),
    ([("s", LONG, np.exp(5 * np.sin(LONG)))], True),
    ([("s", [1.0, 2.0, 3.0, 4.0, 5.0], [0.0, -2.0, 1e-3, 1e3, 0.0])], True),
    ([("s", [1.0, 2.0], [0.0, -1.0])], True),
    # runs of one x whose lowest and highest values tie
    ([("ties", np.repeat([0.0, 1.0, 2.0], 5), np.tile([1.0, 0.0, 1.0, 0.0, 0.5], 3))], False),
])
def test_chart_matches_scalar_formula(series, log_y):
    doc = line_chart(series, x_label="x", y_label="y", log_y=log_y)
    assert positions(doc) == scalar_positions(series, log_y=log_y)


def test_chart_memory_stays_within_a_block():
    # The whole 2^17-point polyline as text is about 1.7 MB, and writing
    # its formatted points in chunks peaked at 3.7 MiB of traced memory;
    # M4 over one block at a time peaks at about 0.23 MiB.  It keeps at
    # most 4 points per pixel column and block: about a thousand points on
    # a 640-pixel plot, not 2^17.
    grid = analysis.GridSpec(0.0, 2.0 * math.pi, 1 << 17)
    curve = analysis.sweep(analysis.resolve_device("grover-michelson"), 0.7, grid)
    tracemalloc.start()
    try:
        doc = line_chart([("T", curve.phi1, curve.T)], x_label="phi1", y_label="T")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert doc.count(",") < 4 * (640 + (1 << 17) // BLOCK)


@pytest.mark.parametrize("xs, ys", [
    ([0.0, 1.0], [math.nan, math.nan]),
    ([0.0, math.nan, 1.0], [0.5, 0.5, 0.5]),
    (np.linspace(0.0, 1.0, BLOCK + 1), np.append(np.zeros(BLOCK), math.nan)),
])
def test_chart_refuses_nan_and_names_the_series(xs, ys):
    # a NaN once ended in _ticks with "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match="series 'T' holds NaN"):
        line_chart([("ok", [0.0, 1.0], [0.0, 1.0]), ("T", xs, ys)], x_label="x", y_label="y")


@pytest.mark.parametrize("xs, ys, log_y", [
    ([0.0, 1.0], [0.0, math.inf], False),
    ([0.0, 1.0], [0.0, math.inf], True),
    ([0.0, 1.0], [-math.inf, 1.0], False),
    ([0.0, math.inf], [0.5, 0.5], False),
    ([-math.inf, 0.0], [0.5, 0.5], True),
    (np.linspace(0.0, 1.0, BLOCK + 1), np.append(np.ones(BLOCK), math.inf), False),
])
def test_chart_refuses_infinities_and_names_the_series(xs, ys, log_y):
    # these ended in _ticks with "cannot convert float infinity to integer"
    with pytest.raises(ValueError, match="series 'T' holds an infinity"):
        line_chart([("ok", [0.0, 1.0], [1.0, 2.0]), ("T", xs, ys)], x_label="x", y_label="y",
                   log_y=log_y)


def test_log_chart_draws_minus_infinity_at_the_floor():
    doc = line_chart([("T", [1.0, 2.0, 3.0], [-math.inf, 1e-3, 0.0])], x_label="x",
                     y_label="y", log_y=True)
    floor = line_chart([("T", [1.0, 2.0, 3.0], [0.0, 1e-3, 0.0])], x_label="x",
                       y_label="y", log_y=True)
    assert doc == floor


def test_log_chart_floor_copies_no_series():
    # The smallest positive y was taken from a copy of the positive values:
    # 2.25 MiB of traced memory for 2^18 points.  Without it the chart
    # peaks at the mask of positive values and one block's reduction.
    xs = np.linspace(1e-5, 2.0 * math.pi, 1 << 18)
    ys = np.exp(5.0 * np.sin(xs))
    tracemalloc.start()
    try:
        line_chart([("s", xs, ys)], x_label="x", y_label="y", log_y=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("lo, hi", [
    (0.0, 2.0 * math.pi), (-1.0, 7.0), (0.0, 1.0), (-0.3, 5.2), (1e-5, 2.0 * math.pi - 1e-5),
    (1e16, 1e16 + 8.0), (1e17, 1e17 + 96.0), (-1e17 - 96.0, -1e17), (1e300, 1.0000001e300),
])
def test_ticks_lie_on_the_axis(lo, hi):
    # far from 0 an allowance of 1e-12*|hi| let about 6,260 ticks run past
    # the axis (the stalled loop at 1e16 is tested through the CLI, under
    # a timeout)
    ticks = svg._ticks(lo, hi)
    assert 1 <= len(ticks) <= 6
    assert all(lo <= t <= hi for t in ticks)
