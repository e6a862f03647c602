"""Property tests: the closed forms of the michelson and grover-michelson
built-ins agree with their netlists at random phases.  Needs hypothesis;
skipped without it."""

import math

import numpy as np
import pytest

from multiport_lab import analysis
from multiport_lab.netlist import builtin_netlist

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=200, deadline=None, database=None)


@SETTINGS
@hypothesis.given(st.sampled_from(sorted(analysis._CLOSED_FORMS)),
                  st.lists(st.floats(0.0, 2.0 * math.pi, exclude_max=True),
                           min_size=1, max_size=64),
                  st.floats(1e-2, 2.0 * math.pi - 1e-2))
def test_closed_forms_match_the_engine_at_random_phases(name, phi1, phi2):
    # over two runs of 600 x 64 random points grover-michelson's largest
    # gaps were 1.5e-13 in R and T and 3.1e-12 relative in the slope, and
    # michelson's about 1e-15
    probabilities, dT_dphi1 = analysis._CLOSED_FORMS[name]
    phi1 = np.array(phi1)
    R, T, slope = analysis.netlist_device(builtin_netlist(name), name).curve(phi1, phi2)
    want = probabilities(phi1, phi2)
    assert np.max(np.abs(R - want.R)) <= 1e-12
    assert np.max(np.abs(T - want.T)) <= 1e-12
    want_slope = dT_dphi1(phi1, phi2)
    assert np.all(np.abs(slope - want_slope) <= 1e-10 * np.maximum(1.0, np.abs(want_slope)))
