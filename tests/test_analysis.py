"""Sweeps, sensitivity maximization, bias search, and perturbation response."""

import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from multiport_lab import (
    GridSpec,
    Link,
    ScatteringMatrix,
    TargetUnreachableError,
    Termination,
    ValidationError,
    builtin_netlist,
    close_network,
    evaluate_phase,
    find_bias_point,
    max_sensitivity,
    michelson_probabilities,
    netlist_device,
    parse_netlist,
    perturbation_response,
    sensitivity_profile,
    slope,
    solve_phi2_for_sensitivity,
    sweep,
)
from multiport_lab.analysis import MODEL_NAMES, resolve_device

TWO_PI = 2.0 * math.pi


# --- device resolution -------------------------------------------------------

def test_model_names_cover_the_registry():
    assert set(MODEL_NAMES) == {
        "michelson",
        "bs-cavity",
        "grover-single-seal",
        "grover-michelson",
    }


def test_resolve_unknown_name():
    with pytest.raises(ValidationError):
        resolve_device("sagnac")


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_netlist_device_tracks_closed_form(name):
    model = netlist_device(builtin_netlist(name), device_id=name)
    ref = resolve_device(name)
    for p1, p2 in [(0.3, 1.0), (2.2, 4.4), (5.9, 0.2)]:
        got = model.probabilities(p1, p2)
        want = ref.probabilities(p1, p2)
        assert got.T == pytest.approx(want.T, abs=1e-12)
        assert got.R == pytest.approx(want.R, abs=1e-12)
        assert model.dT_dphi1(p1, p2) == pytest.approx(
            ref.dT_dphi1(p1, p2), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_netlist_sweep_matches_closed_form(name):
    got = sweep(netlist_device(builtin_netlist(name), device_id=name), 0.7,
                GridSpec(0.0, TWO_PI, 257))
    want = sweep(name, 0.7, GridSpec(0.0, TWO_PI, 257))
    assert_allclose(got.T, want.T, rtol=0, atol=1e-12)
    assert_allclose(got.dT_dphi1, want.dT_dphi1, rtol=1e-9, atol=1e-12)


def _random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


PHI1_PHASES = ("2*phi1", "-(phi1+pi/2)/3", "phi1*phi2", "phi1/3", "phi1")


def test_resolvent_slope_matches_central_difference_on_random_networks():
    """Exact dT/dphi1 of random sealed/linked unitaries vs a central difference
    of close_network at the same phases."""
    rng = np.random.default_rng(20230601)
    h = 1e-5
    for trial in range(24):
        n = int(rng.integers(4, 7))
        labels = [f"p{k + 1}" for k in range(n)]
        closed = [str(p) for p in rng.permutation(labels)[: int(rng.integers(2, n))]]
        u = _random_unitary(rng, n)
        n_links = int(rng.integers(0, len(closed) // 2 + 1))
        links = [{"port_a": f"u.{closed[2 * k]}", "port_b": f"u.{closed[2 * k + 1]}",
                  "round_trip_phase": str(rng.choice(PHI1_PHASES))}
                 for k in range(n_links)]
        seals = [{"device": "u", "port": p, "phase": str(rng.choice(PHI1_PHASES)),
                  "mirror": bool(rng.integers(0, 2))}
                 for p in closed[2 * n_links:]]
        net = parse_netlist(json.dumps({
            "devices": [{"id": "u", "kind": "matrix",
                         "matrix": [[[z.real, z.imag] for z in row] for row in u]}],
            "seals": seals, "links": links}))
        S = ScatteringMatrix(u, tuple(f"u.{l}" for l in labels))

        def T(phi1, phi2):
            b = {"phi1": phi1, "phi2": phi2}
            terms = [Termination(f"u.{s['port']}", evaluate_phase(s["phase"], b),
                                 s["mirror"]) for s in seals]
            pairs = [Link(l["port_a"], l["port_b"],
                          evaluate_phase(l["round_trip_phase"], b)) for l in links]
            col = close_network(S, terms, pairs).effective.matrix[:, 0]
            return float(np.sum(np.abs(col[1:]) ** 2))

        model = netlist_device(net)
        for _ in range(3):
            p1, p2 = rng.uniform(0.0, TWO_PI, 2)
            want = (T(p1 + h, p2) - T(p1 - h, p2)) / (2.0 * h)
            assert model.probabilities(p1, p2).T == pytest.approx(T(p1, p2), abs=1e-12)
            assert model.dT_dphi1(p1, p2) == pytest.approx(want, rel=1e-6, abs=1e-9), trial


# --- grids and sweeps --------------------------------------------------------

def test_grid_spec_values():
    assert_allclose(GridSpec(0.0, 1.0, 5).values(), [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_spec_rejects_degenerate():
    with pytest.raises(ValidationError):
        GridSpec(0.0, 1.0, 1).values()
    with pytest.raises(ValidationError):
        GridSpec(1.0, 1.0, 8).values()


def test_sweep_energy_conservation_and_order():
    curve = sweep("grover-michelson", 0.8, GridSpec(0.0, TWO_PI, 257))
    assert len(curve.phi1) == 257
    assert np.all(np.diff(curve.phi1) > 0)
    assert np.max(np.abs(curve.R + curve.T - 1.0)) <= 1e-10


def test_sweep_slope_column_tracks_transmission():
    curve = sweep("michelson", 0.0, GridSpec(0.1, 6.2, 400))
    expected = 0.5 * np.sin(curve.phi1)
    assert_allclose(curve.dT_dphi1, expected, atol=1e-6)


def test_slope_matches_analytic_value():
    got = slope("michelson", np.pi / 2, 0.0)
    assert got == pytest.approx(0.5, abs=1e-8)


def test_slope_is_exact_on_grid():
    # registry and netlist devices both return the derivative of the sine curve
    xs = np.linspace(0.0, TWO_PI, 1000)
    for device in ("michelson", builtin_netlist("michelson")):
        worst = max(
            abs(slope(device, float(x), 0.3) - 0.5 * math.sin(x - 0.3)) for x in xs
        )
        assert worst <= 1e-12


# --- sensitivity maximization ------------------------------------------------

def test_michelson_max_sensitivity_is_half_everywhere():
    for p2 in (0.0, 0.5, 2.0, math.pi, 5.5):
        argmax, s = max_sensitivity("michelson", p2)
        assert s == pytest.approx(0.5, abs=1e-11)
        # steepest point sits a quarter period from the transmission zero
        assert michelson_probabilities(argmax, p2).T == pytest.approx(0.5, abs=1e-7)


def test_grover_michelson_beats_michelson_at_pi():
    _, s_gm = max_sensitivity("grover-michelson", math.pi)
    assert s_gm > 0.5
    assert s_gm == pytest.approx(0.710310355, abs=1e-6)


@pytest.mark.parametrize("phi2", [math.pi, 0.1, 1e-2, 1e-3])
def test_netlist_max_sensitivity_matches_closed_form(phi2):
    # a finite-difference slope used to come out 23 % low at phi2 = 1e-3
    _, want = max_sensitivity("grover-michelson", phi2)
    _, got = max_sensitivity(builtin_netlist("grover-michelson"), phi2)
    assert got == pytest.approx(want, rel=1e-9)


def test_grover_michelson_sensitivity_diverges_toward_zero():
    _, s3 = max_sensitivity("grover-michelson", 1e-3)
    _, s5 = max_sensitivity("grover-michelson", 1e-5)
    assert s5 > s3 > 1e2


def test_sensitivity_profile_shape():
    prof = sensitivity_profile("grover-michelson", [0.5, math.pi])
    assert prof.device_id == "grover-michelson"
    assert [pt.phi2 for pt in prof.points] == [0.5, math.pi]
    assert prof.points[0].max_abs_slope > prof.points[1].max_abs_slope


# --- bias search -------------------------------------------------------------

def test_michelson_bias_at_half_transmission():
    bp = find_bias_point("michelson", 0.0, 0.5)
    assert min(abs(bp.phi1 - math.pi / 2), abs(bp.phi1 - 3 * math.pi / 2)) < 1e-8
    assert bp.T == pytest.approx(0.5, abs=1e-9)
    assert abs(bp.slope) == pytest.approx(0.5, abs=1e-9)


def test_grover_michelson_bias_sits_on_steep_flank():
    bp = find_bias_point("grover-michelson", math.pi / 8, 0.5)
    assert bp.T == pytest.approx(0.5, abs=1e-9)
    assert abs(bp.slope) > 0.5


def test_bias_on_narrow_resonance_flank():
    bp = find_bias_point("grover-michelson", 1e-3, 0.5)
    assert bp.T == pytest.approx(0.5, abs=1e-9)
    assert abs(bp.slope) > 1e4


def test_netlist_bias_on_narrow_resonance_flank():
    # refused as unreachable while netlist slopes were finite differences
    bp = find_bias_point(builtin_netlist("grover-michelson"), 1e-3, 0.5)
    assert bp.T == pytest.approx(0.5, abs=1e-9)
    assert abs(bp.slope) > 1e4


def test_bias_target_above_range():
    with pytest.raises(TargetUnreachableError):
        find_bias_point("michelson", 0.0, 2.0)
    with pytest.raises(TargetUnreachableError):
        find_bias_point("michelson", 0.0, -0.25)


# --- perturbation response ---------------------------------------------------

def test_zero_delta_is_inert():
    bp = find_bias_point("michelson", 0.0, 0.5)
    resp = perturbation_response("michelson", bp, 0.0)
    assert resp.delta_T == 0.0
    assert not resp.saturated


def test_small_delta_follows_the_local_slope():
    bp = find_bias_point("michelson", 0.0, 0.5)
    delta = 1e-4
    resp = perturbation_response("michelson", bp, delta)
    assert not resp.saturated
    assert resp.delta_T == pytest.approx(bp.slope * delta, rel=1e-3)


def test_steeper_device_modulates_more():
    delta = 0.05
    bp_m = find_bias_point("michelson", math.pi / 8, 0.5)
    bp_g = find_bias_point("grover-michelson", math.pi / 8, 0.5)
    resp_m = perturbation_response("michelson", bp_m, delta)
    resp_g = perturbation_response("grover-michelson", bp_g, delta)
    assert abs(resp_g.delta_T) > abs(resp_m.delta_T)


def test_large_delta_saturates():
    bp = find_bias_point("grover-michelson", 1e-3, 0.5)
    resp = perturbation_response("grover-michelson", bp, 1.0)
    assert resp.saturated


def test_negative_delta_scans_backwards():
    bp = find_bias_point("michelson", 0.0, 0.5)
    resp = perturbation_response("michelson", bp, -math.pi)
    assert resp.saturated


# --- phi2 targeting ----------------------------------------------------------

def test_low_target_met_at_pi():
    assert solve_phi2_for_sensitivity(0.1) == math.pi


def test_boundary_target_met_at_pi():
    _, s_pi = max_sensitivity("grover-michelson", math.pi)
    assert solve_phi2_for_sensitivity(s_pi) == math.pi


def test_moderate_target_bisected():
    p2 = solve_phi2_for_sensitivity(2.0)
    assert 0.0 < p2 < math.pi
    _, s = max_sensitivity("grover-michelson", p2)
    assert s >= 2.0 - 1e-6


def test_steep_target_needs_small_phi2():
    assert solve_phi2_for_sensitivity(1e3) < 0.1


def test_target_must_be_positive():
    with pytest.raises(ValidationError):
        solve_phi2_for_sensitivity(0.0)
