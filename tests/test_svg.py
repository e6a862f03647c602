import math
import re
import sys
import tracemalloc

import numpy as np
import pytest

from multiport_lab import analysis, cli, floatfmt, svg
from multiport_lab.svg import line_chart

BLOCK = svg._POINTS_PER_BLOCK


def curve():
    xs = [i / 10 for i in range(11)]
    ys = [math.sin(x) for x in xs]
    return xs, ys


def test_chart_is_well_formed_svg():
    xs, ys = curve()
    out = "".join(line_chart([("sin", xs, ys)], x_label="x", y_label="sin x"))
    assert out.startswith("<svg")
    assert out.rstrip().endswith("</svg>")
    assert out.count("<polyline") == 1
    assert "sin x" in out


def test_chart_multiple_series_and_title():
    xs, ys = curve()
    out = "".join(line_chart(
        [("a", xs, ys), ("b", xs, [y + 1 for y in ys])],
        x_label="x",
        y_label="y",
        title="two curves",
    ))
    assert out.count("<polyline") == 2
    assert "two curves" in out


def test_chart_log_scale_accepts_positive_data():
    xs = [1.0, 2.0, 3.0]
    ys = [1e-3, 1.0, 1e3]
    out = "".join(line_chart([("s", xs, ys)], x_label="x", y_label="y", log_y=True))
    assert "<polyline" in out


def test_chart_is_deterministic():
    xs, ys = curve()
    a = "".join(line_chart([("s", xs, ys)], x_label="x", y_label="y"))
    b = "".join(line_chart([("s", xs, ys)], x_label="x", y_label="y"))
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
])
def test_chart_matches_scalar_formula(series, log_y):
    doc = "".join(line_chart(series, x_label="x", y_label="y", log_y=log_y))
    assert positions(doc) == scalar_positions(series, log_y=log_y)


def test_chart_chunks_hold_one_block_of_points_each():
    series = [("T", LONG, np.sin(LONG) ** 2)]
    chunks = line_chart(series, x_label="x", y_label="y")
    start = next(i for i, c in enumerate(chunks) if c.endswith('<polyline points="')) + 1
    blocks = chunks[start:start + 4]
    assert chunks[start + 4].startswith('" fill="none"')
    assert [c.count(",") for c in blocks] == [BLOCK, BLOCK, BLOCK, 1]
    assert "".join(blocks) == scalar_positions(series)[0][0]


def test_chart_memory_does_not_hold_the_document_at_once(tmp_path):
    # A 2^17-point polyline is about 1.7 MB of text.  Joining it into one
    # document string and encoding that peaked at about 9 MB of traced
    # memory; chunks of points written in turn at about 3.7 MB.
    grid = analysis.GridSpec(0.0, 2.0 * math.pi, 1 << 17)
    curve = analysis.sweep(analysis.resolve_device("grover-michelson"), 0.7, grid)
    floatfmt.format_pairs([1.0], [1.0])  # the tables, built once per process
    path = tmp_path / "chart.svg"
    tracemalloc.start()
    try:
        chunks = line_chart([("T", curve.phi1, curve.T)], x_label="phi1", y_label="T")
        cli._write(str(path), chunks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 1.5 * 2**20
    assert peak < 5 * 2**20


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


def pairs(xs, ys):
    return " ".join("%.2f,%.2f" % p for p in zip(np.asarray(xs, dtype=float).tolist(),
                                                  np.asarray(ys, dtype=float).tolist()))


def pair_corpus():
    """Doubles at every turn of ``"%.2f"``: signed zeros, subnormals,
    exact ties k/8, both neighbours of x.xx5, the 10**6 and 10**8
    boundaries, non-finite and huge values."""
    ties = np.arange(-1601, 1602) / 8
    fives = [float(f"{w}.{h:02d}5") for w in (0, 1, 9, 99, 640, 12345, 999999, 99999999)
             for h in (0, 1, 49, 50, 98, 99)]
    edges = [999999.995, 999999.985, 99999999.995, 99999999.99, 1e8, 0.005, 0.015, 0.001]
    rng = np.random.default_rng(20231010)
    finite = np.concatenate([ties, fives, edges, rng.uniform(-1000.0, 1000.0, 4096),
                             np.ldexp(1.0, np.arange(-1074, 64))])
    finite = np.concatenate([np.nextafter(finite, -np.inf), finite, np.nextafter(finite, np.inf)])
    subnormal = np.array([1, 2, 3, 2**52 - 1], dtype=np.uint64).view(np.float64)
    huge = [2.0**52, 2.0**53 + 2.0, 2.0**63, 2.0**64, 1e22, 1e300, sys.float_info.max]
    special = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]
    bits = rng.integers(0, 2**64, 4096, dtype=np.uint64, endpoint=False).view(np.float64)
    return np.concatenate([finite, -finite, subnormal, -subnormal, huge, np.negative(huge),
                           special, bits])


def test_pair_kernel_is_percent_2f_on_the_corpus():
    values = pair_corpus()
    for shift in (0, 1, 7):
        ys = np.roll(values, shift)
        got, want = floatfmt.format_pairs(values, ys).split(" "), pairs(values, ys).split(" ")
        assert len(got) == len(want)
        assert [(w, g) for g, w in zip(got, want) if g != w][:5] == []


@pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_pair_kernel_writes_whole_blocks(n):
    values = np.resize(pair_corpus()[::-1], 2 * n)
    xs, ys = values[:n], values[n:]
    assert floatfmt.format_pairs(xs, ys) == pairs(xs, ys)
