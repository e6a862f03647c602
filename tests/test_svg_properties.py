"""Property tests: a chart's polyline is the M4 reduction of its series,
for sorted and unsorted x, constant runs, tied extremes, and log y over
zeros and negatives.  Needs hypothesis; skipped without it."""

from unittest import mock

import pytest

from multiport_lab import svg
from test_svg import positions, scalar_points

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=200, deadline=None, database=None)

# runs of one x, eighths that a wide float beside them puts in one of the
# 640 pixel columns, and y values that tie
XS = st.integers(0, 12).map(lambda k: k / 8) | st.floats(-50.0, 50.0)
YS = st.sampled_from([0.0, -0.0, -1.0, 0.5, 1.0]) | st.floats(-1e3, 1e3) | st.floats(1e-6, 1e6)


@st.composite
def charts(draw):
    runs = draw(st.lists(st.tuples(XS, st.integers(1, 8)), min_size=1, max_size=16))
    xs = [x for x, count in runs for _ in range(count)]
    if draw(st.booleans()):
        xs.sort()
    ys = draw(st.lists(YS, min_size=len(xs), max_size=len(xs)))
    return xs, ys, draw(st.booleans()), draw(st.sampled_from([1, 2, 3, 7, 64, 4096]))


@SETTINGS
@hypothesis.given(charts())
def test_polyline_is_the_m4_subsequence_of_the_full_polyline(chart):
    xs, ys, log_y, block = chart
    series = [("s", xs, ys)]
    with mock.patch.object(svg, "_POINTS_PER_BLOCK", block):
        (points,), _, _ = positions(svg.line_chart(series, "x", "y", log_y=log_y))
        ((full, keep),), _, _ = scalar_points(series, log_y=log_y)
    got = points.split(" ")
    rest = iter(full)
    assert all(p in rest for p in got)  # a subsequence, in order
    # each block's pixel-column runs give their first, last, lowest and
    # highest point, and nothing else
    assert got == [full[i] for i in keep]
