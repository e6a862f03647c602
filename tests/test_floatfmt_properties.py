"""Property tests: the vectorized float formatter writes any double as
Python's repr.  Needs hypothesis; skipped without it."""

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
