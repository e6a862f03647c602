"""Sweeps, sensitivity maximization, bias search, and perturbation response."""

import dataclasses
import json
import math
import time
import tracemalloc
from pathlib import Path

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
    grover_michelson_dT_dphi1,
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
from multiport_lab.analysis import MAX_GRID_POINTS, MODEL_NAMES, SweepCurve, resolve_device
from multiport_lab.cli import _phi2_grid_values
from multiport_lab.closure import CompiledClosure
from multiport_lab.devices import Probabilities
from multiport_lab.netlist import compile_netlist

TWO_PI = 2.0 * math.pi
DOCS = Path(__file__).resolve().parent.parent / "docs" / "netlists"


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


@pytest.mark.parametrize("name", ["michelson", "bs-cavity", "grover-michelson",
                                  "chain-8", "chain-32"])
def test_netlist_point_has_the_same_bits_alone_and_in_a_grid(name):
    # the searches compare golden-section (scalar) values with scan values
    net = (_chain_netlist(np.random.default_rng(501), int(name[6:])) if name.startswith("chain")
           else builtin_netlist(name))
    model = netlist_device(net)
    grid = np.linspace(0.0, TWO_PI, 3001)
    stack = model.closure().reduction({"phi2": 0.7}).stack_size
    assert stack < grid.size  # the grid spans stack boundaries
    probs, dT = model.probabilities(grid, 0.7), model.dT_dphi1(grid, 0.7)
    for i in sorted({0, stack - 1, stack, 2 * stack - 1, 2 * stack, 1500, grid.size - 1}):
        alone = model.probabilities(grid[i], 0.7)
        assert (alone.R, alone.T, model.dT_dphi1(grid[i], 0.7)) == \
            (probs.R[i], probs.T[i], dT[i]), i


def test_netlist_sweep_solves_stacks_not_samples(monkeypatch):
    solves = []
    solve = CompiledClosure.solve
    monkeypatch.setattr(CompiledClosure, "solve",
                        lambda self, *args: solves.append(1) or solve(self, *args))
    model = netlist_device(builtin_netlist("grover-michelson"))
    sweep(model, 0.7, GridSpec(0.0, TWO_PI, 257))
    # R, T and dT/dphi1 come from one pass over the grid
    assert len(solves) == math.ceil(257 / model.closure().reduction({"phi2": 0.7}).stack_size)
    # stacks are sized by the 1 x 1 reduced solve, not the 126 x 126 block
    solves.clear()
    sweep(netlist_device(_chain_netlist(np.random.default_rng(501), 32)), 0.7,
          GridSpec(0.0, TWO_PI, 65))
    assert len(solves) == 1


def _random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _chain_netlist(rng, devices):
    """Random 4-ports d_k in a chain, d_k.p3/p4 linked to d_{k+1}.p1/p2, the
    last sealed with phi1 and phi2/3; d0.p1 and d0.p2 stay open."""
    doc = {"devices": [{"id": f"d{k}", "kind": "matrix",
                        "matrix": [[[z.real, z.imag] for z in row]
                                   for row in _random_unitary(rng, 4)]}
                       for k in range(devices)],
           "links": [{"port_a": f"d{k}.{a}", "port_b": f"d{k + 1}.{b}",
                      "round_trip_phase": float(rng.uniform(0.0, TWO_PI))}
                     for k in range(devices - 1) for a, b in (("p3", "p1"), ("p4", "p2"))],
           "seals": [{"device": f"d{devices - 1}", "port": "p3", "phase": "phi1", "mirror": True},
                     {"device": f"d{devices - 1}", "port": "p4", "phase": "phi2/3",
                      "mirror": True}],
           "open_ports": ["d0.p1", "d0.p2"]}
    return parse_netlist(json.dumps(doc))


def test_healthy_netlist_sweeps_run_no_svd(monkeypatch):
    # the 1-norm screen clears every sample, so no SVD verifies one
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    docs = parse_netlist((DOCS / "grover-michelson.json").read_text())
    for net in (_chain_netlist(np.random.default_rng(8), 8), docs):
        curve = sweep(netlist_device(net), 0.7, GridSpec(0.0, TWO_PI, 257))
        assert np.all(np.isfinite(curve.dT_dphi1))
    assert calls == []


def test_one_factorization_of_the_constant_loops_per_phi2(monkeypatch):
    # every phi1 sample reuses the reduction at its phi2 (one inverse of the
    # m x m constant block) and solves only the 1 x 1 block of its phi1 seal
    inverted, solved = [], set()
    inv, solve = np.linalg.inv, np.linalg.solve
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a.shape) or inv(a))
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solved.add(a.shape[-2:]) or solve(a, b))
    chain = netlist_device(_chain_netlist(np.random.default_rng(8), 8))
    for phi2 in (0.7, 2.0):
        sweep(chain, phi2, GridSpec(0.0, TWO_PI, 257))
    assert inverted == [(30, 30)] * 2 and solved == {(1, 1)}
    inverted.clear()
    docs = parse_netlist((DOCS / "grover-michelson.json").read_text())
    for phi2 in (math.pi, 0.1):
        max_sensitivity(docs, phi2)
    assert inverted == [(2, 2)] * 2 and solved == {(1, 1)}


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


def test_grid_spec_refuses_an_overflowing_span():
    # linspace used to overflow with numpy RuntimeWarnings before the sweep
    # refused the grid of nans
    for start, stop in [(-1e308, 1e308), (-math.inf, 0.0), (0.0, math.inf)]:
        with pytest.raises(ValidationError, match="overflows"):
            GridSpec(start, stop, 3).checked()
    assert GridSpec(-8e307, 8e307, 3).checked().values()[1] == 0.0


def test_grid_spec_refuses_oversized_counts_before_allocating():
    assert GridSpec(0.0, 1.0, 2 ** 19).values().size == 2 ** 19  # the dense sweeps
    for count in (MAX_GRID_POINTS + 1, 10 ** 12):
        with pytest.raises(ValidationError):
            GridSpec(0.0, 1.0, count).values()


def test_sweep_energy_conservation_and_order():
    curve = sweep("grover-michelson", 0.8, GridSpec(0.0, TWO_PI, 257))
    assert len(curve.phi1) == 257
    assert np.all(np.diff(curve.phi1) > 0)
    assert np.max(np.abs(curve.R + curve.T - 1.0)) <= 1e-10


@pytest.mark.parametrize("phi1, R, message", [
    ([0.0, 1.0, 1.0], [0.5] * 3, "strictly increasing"),
    ([0.0, 2.0, 1.0], [0.5] * 3, "strictly increasing"),
    ([0.0, 1.0, 2.0], [0.5, 0.5, 0.5 + 1e-9], r"R \+ T deviates from 1 by 1\.000e-09"),
    ([0.0, 1.0], [0.5] * 3, "share one length"),
])
def test_sweep_curve_refuses_broken_invariants(phi1, R, message):
    with pytest.raises(ValidationError, match=message):
        SweepCurve("d", 0.0, np.array(phi1), np.array(R), np.full(3, 0.5), np.zeros(3))


@pytest.mark.parametrize("columns", [("phi1",), ("R",), ("T",), ("phi1", "R", "T")])
def test_sweep_curve_refuses_nan(columns):
    # every comparison with NaN is False, so NaN once passed both checks
    arrays = {"phi1": np.array([0.0, 1.0, 2.0]), "R": np.full(3, 0.5), "T": np.full(3, 0.5)}
    for name in columns:
        arrays[name][1] = np.nan
    with pytest.raises(ValidationError):
        SweepCurve("d", 0.0, arrays["phi1"], arrays["R"], arrays["T"], np.zeros(3))


def test_sweep_memory_is_its_four_columns():
    # A 2^17-point michelson sweep is four 1 MiB columns.  Copying R and T
    # and validating with full-length temporaries peaked at 8 MiB of traced
    # memory; without them at 5 MiB: the columns and one scratch column.
    grid = GridSpec(0.0, TWO_PI, 1 << 17)
    tracemalloc.start()
    try:
        curve = sweep("michelson", 0.7, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.T.nbytes == 2**20
    assert peak < 6 * 2**20


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


def _dense_max_abs_slope(dT, spans):
    """Max |dT(x)| over dense linear scans [(lo, hi, n)], each rescanned
    at a thousandth of its pitch around its eight largest samples."""
    best = 0.0
    for lo, hi, n in spans:
        x = np.linspace(lo, hi, n)
        s = np.abs(dT(x))
        pitch = x[1] - x[0]
        for k in np.argsort(s)[-8:]:
            fine = np.linspace(x[k] - pitch, x[k] + pitch, 2001)
            best = max(best, float(np.max(np.abs(dT(fine)))))
    return best


def test_default_sensitivity_grid_reaches_the_global_maximum():
    # the documented `sensitivity` default; the search used to return the
    # lower flank of the resonance on about one row in four
    for p2 in _phi2_grid_values(GridSpec(1e-5, TWO_PI - 1e-5, 64), "log-edges"):
        p2 = float(p2)
        width = math.remainder(p2, TWO_PI) ** 2
        want = _dense_max_abs_slope(
            lambda x: grover_michelson_dT_dphi1(x, p2),
            [(0.0, TWO_PI, 20001), (-p2 - 10.0 * width, -p2 + 10.0 * width, 40001)])
        _, got = max_sensitivity("grover-michelson", p2)
        # a few ulps of phi1 near 2*pi span this much of the resonance
        rtol = 1e-7 + 4.0 * math.ulp(TWO_PI) / width
        assert got >= want * (1.0 - rtol), p2


@pytest.mark.parametrize("phi2", [math.pi, 0.1, 1e-3, 1e-5])
def test_max_sensitivity_work_does_not_grow_as_the_resonance_narrows(phi2):
    # the scan used to densify as 1/phi2**2: 2.1M points at phi2 <= 1e-3
    model = resolve_device("grover-michelson")
    points = []

    def counted(f):
        def evaluate(phi1, p2):
            points.append(np.size(phi1))
            return f(phi1, p2)
        return evaluate

    max_sensitivity(dataclasses.replace(model, probabilities=counted(model.probabilities),
                                        dT_dphi1=counted(model.dT_dphi1)), phi2)
    assert sum(points) <= 20_000


# phi1 enters these closures through a link, through two seals, and through a
# phase that is not affine in it, so none has a pole and the fixed grid with
# its zoom cascade is the whole search.  Each pairs its netlist with dT/dphi1
# in closed form.
WITHOUT_POLE = {
    # the phi1 mirror moved behind a link to a 1-port mirror: r = -1, and
    # exp(i phi1/2) each way makes the same round trip
    "link": ({
        "devices": [{"id": "g", "kind": "grover(4)"},
                    {"id": "m", "kind": "matrix", "matrix": [[-1]]}],
        "seals": [{"device": "g", "port": "p4", "phase": "phi2"}],
        "links": [{"port_a": "g.p3", "port_b": "m.p1", "round_trip_phase": "phi1"}],
        "open_ports": ["g.p1", "g.p2"]},
        grover_michelson_dT_dphi1),
    # a second phi1 seal on a splitter that no light from g.p1 reaches
    "two-seals": ({
        "devices": [{"id": "g", "kind": "grover(4)"}, {"id": "h", "kind": "hadamard2"}],
        "seals": [{"device": "g", "port": "p3", "phase": "phi1"},
                  {"device": "g", "port": "p4", "phase": "phi2"},
                  {"device": "h", "port": "p1", "phase": "phi1"}],
        "open_ports": ["g.p1", "g.p2", "h.p2"]},
        grover_michelson_dT_dphi1),
    "not-affine": ({
        "devices": [{"id": "g", "kind": "grover(4)"}],
        "seals": [{"device": "g", "port": "p3", "phase": "phi1*phi1/(2*pi)"},
                  {"device": "g", "port": "p4", "phase": "phi2"}]},
        lambda x, p2: grover_michelson_dT_dphi1(x * x / TWO_PI, p2) * x / math.pi),
}


@pytest.mark.parametrize("case", sorted(WITHOUT_POLE))
def test_netlist_without_pole_max_sensitivity_matches_a_dense_scan(case):
    doc, dT = WITHOUT_POLE[case]
    net = parse_netlist(json.dumps(doc))
    assert compile_netlist(net).phi1_pole({"phi2": 0.5}) is None
    want = _dense_max_abs_slope(lambda x: dT(x, 0.5), [(0.0, TWO_PI, 65537)])
    _, got = max_sensitivity(net, 0.5)
    assert got == pytest.approx(want, rel=1e-9)


def test_pole_through_a_scaled_phase_places_both_resonances():
    # phase 2*phi1 - pi/3 puts two copies of the 1e-6-wide resonance in
    # [0, 2*pi], each twice as steep in phi1 as in the phase
    net = parse_netlist(json.dumps({
        "devices": [{"id": "g", "kind": "grover(4)"}],
        "seals": [{"device": "g", "port": "p3", "phase": "2*phi1-pi/3"},
                  {"device": "g", "port": "p4", "phase": "phi2"}]}))
    centre, half_width, period = compile_netlist(net).phi1_pole({"phi2": 1e-3})
    z = 2.0 - np.exp(1e-3j)
    assert (centre, half_width, period) == pytest.approx(
        ((np.angle(z) + math.pi / 3) / 2, np.log(np.abs(z)) / 2, math.pi), rel=1e-9)
    _, want = max_sensitivity("grover-michelson", 1e-3)
    _, got = max_sensitivity(net, 1e-3)
    assert got == pytest.approx(2.0 * want, rel=1e-9)


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


@pytest.mark.parametrize("phi2, target", [(1e-4, 0.9), (1e-5, 0.99), (0.1, 0.999999)])
def test_bias_reaches_targets_near_the_resonance_peak(phi2, target):
    # refused as unreachable while the range scan under-resolved the peak
    bp = find_bias_point("grover-michelson", phi2, target)
    # one ulp of phi1 moves T by |slope| ulp
    assert bp.T == pytest.approx(target, abs=max(1e-9, 4.0 * abs(bp.slope) * math.ulp(bp.phi1)))


@pytest.mark.parametrize("phi2, target, phi1", [
    # each crossing bisected on the closed form between the argmax and the
    # peak (T = 1 at 2*pi - phi2); the mirror crossings across the peak,
    # 6.182170928828558 and 6.273185207158713, lie on the other flank
    (0.1, 0.99, 6.1841795319701935),
    (0.01, 0.999999, 6.273185407177803),
])
def test_bias_on_the_steep_flank_keeps_its_crossing(phi2, target, phi1):
    bp = find_bias_point("grover-michelson", phi2, target)
    assert bp.T == pytest.approx(target, abs=1e-9)
    # both bisections stop within 1e-9 in T of the same crossing
    assert bp.phi1 == pytest.approx(phi1, abs=2e-9 / abs(bp.slope))
    x_star, _ = max_sensitivity("grover-michelson", phi2)
    assert np.sign(bp.slope) == np.sign(slope("grover-michelson", x_star, phi2))


@pytest.mark.parametrize("netlist, count, phi2_low", [(None, 60, 1e-5), ("grover-michelson", 16, 1e-3)])
def test_bias_lands_on_the_steepest_points_flank(netlist, count, phi2_low):
    # Each flank of grover-michelson is monotone from T = 0 at phi1 = 0 to
    # T = 1 at 2*pi - phi2, so the crossing on the steepest point's segment
    # has the slope's sign there.  phi2 is drawn log-uniform up to pi; half
    # the targets are moderate, half 1 - 10^-k next to the peak.
    device = "grover-michelson" if netlist is None else \
        netlist_device(parse_netlist((DOCS / f"{netlist}.json").read_text()))
    rng = np.random.default_rng(17)
    wrong = []
    for i in range(count):
        phi2 = math.exp(rng.uniform(math.log(phi2_low), math.log(math.pi)))
        target = rng.uniform(0.01, 0.99) if i % 2 else 1.0 - 10.0 ** -int(rng.integers(1, 7))
        bp = find_bias_point(device, phi2, target)
        assert bp.T == pytest.approx(target, abs=max(1e-9, 4.0 * abs(bp.slope) * math.ulp(bp.phi1)))
        x_star, _ = max_sensitivity(device, phi2)
        if np.sign(bp.slope) != np.sign(slope(device, x_star, phi2)):
            wrong.append((phi2, target, bp.phi1))
    assert not wrong


def test_bias_run_carries_on_through_ties():
    # T read to three decimals is flat over the grid's finest steps around
    # the steepest point: zero differences inside its flank's run
    gm = resolve_device("grover-michelson")

    def probabilities(phi1, phi2):
        T = np.round(gm.probabilities(phi1, phi2).T, 3)
        return Probabilities(R=1.0 - T, T=T)

    bp = find_bias_point(dataclasses.replace(gm, probabilities=probabilities), 0.1, 0.99)
    x_star, _ = max_sensitivity(gm, 0.1)
    assert slope(gm, x_star, 0.1) < 0.0
    assert bp.T == 0.99 and bp.slope < 0.0


def test_bias_target_above_range():
    with pytest.raises(TargetUnreachableError):
        find_bias_point("michelson", 0.0, 2.0)
    with pytest.raises(TargetUnreachableError):
        find_bias_point("michelson", 0.0, -0.25)


def test_bias_nan_target_is_invalid_not_unreachable():
    with pytest.raises(ValidationError, match="nan"):
        find_bias_point("michelson", 0.0, math.nan)


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


def test_delta_across_the_transmission_zero_saturates():
    # T = 0 at phi1 = 0 lies 1e5 resonance half-widths from the bias point,
    # and the slope changes sign there over a span of only about phi2
    bp = find_bias_point("grover-michelson", 1e-5, 0.5)
    assert perturbation_response("grover-michelson", bp, 1.5).saturated


def test_delta_of_many_periods_samples_one():
    # T repeats with the pole's period: 1.6e6 periods cost no more than one
    bp = find_bias_point("grover-michelson", math.pi / 8, 0.5)
    start = time.perf_counter()
    resp = perturbation_response("grover-michelson", bp, 1e7)
    assert time.perf_counter() - start < 1.0
    assert resp.saturated
    gm = resolve_device("grover-michelson")
    assert resp.delta_T == float(gm.probabilities(bp.phi1 + 1e7, bp.phi2).T) - bp.T


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
