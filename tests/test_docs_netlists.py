"""The example netlists shipped under docs/ stay canonical and loadable."""

import math
from pathlib import Path

import numpy as np
import pytest

from multiport_lab import GridSpec, builtin_netlist, netlist_device, parse_netlist, render_netlist, sweep
from multiport_lab.netlist import compile_netlist

DOCS = Path(__file__).resolve().parent.parent / "docs" / "netlists"


@pytest.mark.parametrize(
    "name", ["michelson", "bs-cavity", "grover-michelson", "fusion"]
)
def test_shipped_netlist_matches_builtin(name):
    text = (DOCS / f"{name}.json").read_text()
    net = parse_netlist(text)
    assert net == builtin_netlist(name)
    assert render_netlist(net) == text


def test_link_form_of_the_coin_michelson():
    # phi1 on a link to a hadamard2 whose other port is mirrored at phase 0,
    # which reflects with amplitude -1: grover-michelson's physics, with
    # exp(i phi1/2) each way, so T's period is 4*pi and there is no one pole
    text = (DOCS / "grover-michelson-link.json").read_text()
    net = parse_netlist(text)
    assert render_netlist(net) == text
    assert compile_netlist(net).phi1_pole({"phi2": 0.5}) == (None, None, 4.0 * math.pi)
    link, grid = netlist_device(net), GridSpec(0.0, 2.0 * math.pi, 4097)
    for phi2 in (0.3, 1.0, 2.0, math.pi, 5.0):
        got, want = sweep(link, phi2, grid), sweep("grover-michelson", phi2, grid)
        for column in ("R", "T", "dT_dphi1"):
            a, b = getattr(got, column), getattr(want, column)
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), (phi2, column)
