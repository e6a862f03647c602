"""Closed-form two-phase devices vs the generic closure engine.

Every formula is checked two ways: against hand-derived special values and
against the matrix-inversion engine on a phase grid.  Energy conservation
(R + T = 1) holds everywhere a closed form is defined.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from multiport_lab import (
    DegeneratePhaseError,
    Link,
    Termination,
    block_diag,
    bs_cavity_probabilities,
    close_network,
    grover_michelson_amplitudes,
    grover_michelson_dT_dphi1,
    grover_michelson_probabilities,
    make_beam_splitter_4port,
    make_grover_coin,
    michelson_amplitudes,
    michelson_dT_dphi1,
    michelson_probabilities,
    seal_ports,
)

GRID = np.linspace(0.0, 2.0 * np.pi, 64)
# one full period with no duplicated endpoint: (0, 0) and (2pi, 2pi) are the
# same physical point for the two-phase devices
GRID_OPEN = np.linspace(0.0, 2.0 * np.pi, 65)[:-1]


def engine_two_port(S, seal_ports_phases):
    seals = [Termination(p, phi) for p, phi in seal_ports_phases]
    return close_network(S, seals).effective.matrix


# --- plain Michelson ---------------------------------------------------------

def test_michelson_amplitudes_special_points():
    a = michelson_amplitudes(0.0, 0.0)
    assert a.r == pytest.approx(-1.0)
    assert a.t == pytest.approx(0.0, abs=1e-16)
    a = michelson_amplitudes(np.pi, 0.0)
    assert abs(a.t) == pytest.approx(1.0)


def test_michelson_transmission_is_sine_squared():
    for p1 in GRID[::7]:
        for p2 in GRID[::7]:
            probs = michelson_probabilities(p1, p2)
            assert probs.T == pytest.approx(math.sin(0.5 * (p1 - p2)) ** 2, abs=1e-14)
            assert probs.R + probs.T == pytest.approx(1.0, abs=1e-14)


def test_michelson_matches_engine_on_grid():
    S = make_beam_splitter_4port()
    for p1 in GRID:
        for p2 in GRID:
            m = engine_two_port(
                make_beam_splitter_4port(), [("p3", float(p1)), ("p4", float(p2))]
            )
            a = michelson_amplitudes(float(p1), float(p2))
            assert abs(m[0, 0] - a.r) < 1e-12
            assert abs(m[1, 0] - a.t) < 1e-12
    del S


def test_michelson_depends_only_on_phase_difference():
    delta = 0.9
    base = michelson_probabilities(GRID, 0.0)
    shifted = michelson_probabilities(GRID + delta, delta)
    assert_allclose(shifted.T, base.T, atol=1e-13)


# --- beam splitter cavity ----------------------------------------------------

def test_bs_cavity_reflection_formula():
    for p1 in GRID:
        for p2 in GRID:
            probs = bs_cavity_probabilities(float(p1), float(p2))
            expected = 1.0 / (5.0 - 4.0 * math.cos(p1 + p2))
            assert probs.R == pytest.approx(expected, abs=1e-14)
            assert probs.R + probs.T == pytest.approx(1.0, abs=1e-13)


def test_bs_cavity_reflection_extremes():
    assert bs_cavity_probabilities(0.0, 0.0).R == pytest.approx(1.0)
    assert bs_cavity_probabilities(np.pi, 0.0).R == pytest.approx(1.0 / 9.0)


def test_bs_cavity_matches_engine():
    for p1 in GRID[::5]:
        for p2 in GRID[::5]:
            m = engine_two_port(
                make_beam_splitter_4port(), [("p2", float(p1)), ("p4", float(p2))]
            )
            probs = bs_cavity_probabilities(float(p1), float(p2))
            assert abs(np.abs(m[0, 0]) ** 2 - probs.R) < 1e-11


# --- one sealed port on the 4-port coin -------------------------------------

def test_single_seal_amplitudes_match_engine():
    # r = 1/(e^{i phi} - 2) back out of the input, t = 1 + r into each other port
    for phi in GRID:
        m = engine_two_port(make_grover_coin(4), [("p4", float(phi))])
        r = 1.0 / (np.exp(1j * phi) - 2.0)
        assert abs(m[0, 0] - r) < 1e-13
        assert abs(m[1, 0] - (1.0 + r)) < 1e-13


# --- the coin Michelson ------------------------------------------------------

def test_grover_michelson_amplitudes_unitary():
    for p1 in GRID_OPEN:
        for p2 in GRID_OPEN:
            if p1 == 0.0 and p2 == 0.0:
                continue
            a = grover_michelson_amplitudes(float(p1), float(p2))
            assert abs(a.r) ** 2 + abs(a.t) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_grover_michelson_matches_engine():
    for p1 in GRID_OPEN:
        for p2 in GRID_OPEN:
            if p1 == 0.0 and p2 == 0.0:
                continue
            m = engine_two_port(
                make_grover_coin(4), [("p3", float(p1)), ("p4", float(p2))]
            )
            a = grover_michelson_amplitudes(float(p1), float(p2))
            assert abs(m[0, 0] - a.r) < 1e-10
            assert abs(m[1, 0] - a.t) < 1e-10


def test_grover_michelson_full_transmission_at_pi_pi():
    a = grover_michelson_amplitudes(np.pi, np.pi)
    assert a.r == pytest.approx(0.0, abs=1e-15)
    assert a.t == pytest.approx(1.0, abs=1e-15)


def test_grover_michelson_zero_transmission_at_phi1_zero():
    for p2 in GRID_OPEN[1:]:
        probs = grover_michelson_probabilities(0.0, float(p2))
        assert probs.T == pytest.approx(0.0, abs=1e-15)


def test_grover_michelson_degenerate_corner_raises():
    with pytest.raises(DegeneratePhaseError):
        grover_michelson_amplitudes(0.0, 0.0)
    with pytest.raises(DegeneratePhaseError):
        grover_michelson_probabilities(1e-13, 1e-13)


def test_grover_michelson_probabilities_stable_near_corner():
    # the probability form must stay on [0, 1] even where the amplitude
    # quotient starts losing digits
    p = grover_michelson_probabilities(1e-5, 1e-5)
    assert 0.0 <= p.T <= 1.0
    assert p.R + p.T == pytest.approx(1.0, abs=1e-12)


def test_grover_michelson_reduces_to_fused_coin_seal():
    # sealing one port of the fused pair of 3-port coins reproduces the
    # 4-port coin device, so the closed form must agree there too
    S = block_diag(make_grover_coin(3), make_grover_coin(3))
    dev = close_network(
        S,
        terminations=[Termination("A.p2", 1.1), Termination("B.p3", 2.2)],
        links=[Link("A.p3", "B.p1", 0.0)],
    )
    a = grover_michelson_amplitudes(1.1, 2.2)
    m = dev.effective.matrix
    assert abs(m[0, 0] - a.r) < 1e-12
    assert abs(m[1, 0] - a.t) < 1e-12


# --- analytic slopes ---------------------------------------------------------

def fd(fn, p1, p2, h=1e-6):
    vals = [fn(p1 + k * h, p2).T for k in (-2, -1, 1, 2)]
    return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)


@pytest.mark.parametrize(
    "deriv,probs",
    [
        (michelson_dT_dphi1, michelson_probabilities),
        (grover_michelson_dT_dphi1, grover_michelson_probabilities),
    ],
)
def test_analytic_slope_matches_finite_difference(deriv, probs):
    rng = np.random.default_rng(5)
    for _ in range(100):
        p1 = float(rng.uniform(0.2, 2 * np.pi - 0.2))
        p2 = float(rng.uniform(0.2, 2 * np.pi - 0.2))
        assert deriv(p1, p2) == pytest.approx(fd(probs, p1, p2), abs=1e-6)


def test_michelson_slope_peaks_at_half():
    xs = np.linspace(0, 2 * np.pi, 100001)
    assert np.max(np.abs(michelson_dT_dphi1(xs, 0.0))) <= 0.5 + 1e-15
    assert michelson_dT_dphi1(np.pi / 2, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_grover_michelson_slope_vanishes_at_pi_pi():
    assert grover_michelson_dT_dphi1(np.pi, np.pi) == pytest.approx(0.0, abs=1e-14)


def test_grover_michelson_slope_degenerate_raises():
    with pytest.raises(DegeneratePhaseError):
        grover_michelson_dT_dphi1(0.0, 0.0)
