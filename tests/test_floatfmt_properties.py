"""Property tests: the vectorized float formatters write any double as
Python's repr (CSV) and as ``"%.2f"`` (SVG points).  Needs hypothesis;
skipped without it."""

import numpy as np
import pytest

from multiport_lab import floatfmt

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=200, deadline=None, database=None)


def assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    lines = floatfmt.format_rows(values.reshape(-1, 1)).splitlines()
    assert lines == [repr(v) for v in values.tolist()]


@SETTINGS
@hypothesis.given(st.lists(st.floats(), min_size=1, max_size=64))
def test_any_float_is_written_as_repr(values):
    assert_repr(values)


@SETTINGS
@hypothesis.given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern_is_written_as_repr(patterns):
    assert_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def assert_percent_2f(values):
    values = np.asarray(values, dtype=np.float64)
    ys = values[::-1]
    want = " ".join("%.2f,%.2f" % p for p in zip(values.tolist(), ys.tolist()))
    assert floatfmt.format_pairs(values, ys) == want


@SETTINGS
@hypothesis.given(st.lists(st.floats() | st.floats(-1e9, 1e9), min_size=1, max_size=64))
def test_any_float_pair_is_written_as_percent_2f(values):
    assert_percent_2f(values)


@SETTINGS
@hypothesis.given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern_pair_is_written_as_percent_2f(patterns):
    assert_percent_2f(np.array(patterns, dtype=np.uint64).view(np.float64))
