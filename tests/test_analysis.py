"""Sweeps, sensitivity maximization, bias search, and perturbation response."""

import dataclasses
import json
import math
import subprocess
import sys
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
    render_netlist,
    sensitivity_profile,
    slope,
    solve_phi2_for_sensitivity,
    sweep,
)
from multiport_lab import analysis
from multiport_lab.analysis import _CLOSED_FORMS, MAX_GRID_POINTS, SweepCurve, resolve_device
from multiport_lab.cli import _phi2_grid_values
from multiport_lab.closure import CompiledClosure, Reduction
from multiport_lab.devices import Probabilities
from multiport_lab.netlist import BUILTIN_NETLIST_NAMES, compile_netlist

TWO_PI = 2.0 * math.pi
DOCS = Path(__file__).resolve().parent.parent / "docs" / "netlists"


# --- device resolution -------------------------------------------------------

def test_model_names_cover_the_registry():
    # every built-in netlist resolves to a model of that netlist; the closed
    # forms attach to michelson and grover-michelson, the others evaluate
    # their netlists
    assert set(_CLOSED_FORMS) == {"michelson", "grover-michelson"}
    assert set(BUILTIN_NETLIST_NAMES) == {
        "michelson", "bs-cavity", "grover-single-seal", "grover-michelson", "fusion"}
    for name in BUILTIN_NETLIST_NAMES:
        model = resolve_device(name)
        assert model.device_id == name and model.netlist == builtin_netlist(name)
        assert resolve_device(name) is model
        if name in _CLOSED_FORMS:
            assert (model.probabilities, model.dT_dphi1) == _CLOSED_FORMS[name]
            assert model.curve is None
        else:
            assert model.curve is not None


def test_a_netlist_resolves_to_one_model():
    # an equal netlist finds the same model, and so its cached anatomy
    text = (DOCS / "grover-michelson.json").read_text()
    model = resolve_device(parse_netlist(text))
    assert resolve_device(parse_netlist(text)) is model
    assert model.device_id == "netlist"


def test_resolve_unknown_name():
    with pytest.raises(ValidationError, match="built-ins: bs-cavity, fusion, grover-michelson"):
        resolve_device("sagnac")


def test_fusion_resolves_to_its_netlist():
    # no phi1 anywhere: T is the constant 3/4 of the 4-port coin
    curve = sweep("fusion", 0.0, GridSpec(0.0, math.pi, 5))
    assert_allclose(curve.T, 0.75, atol=1e-12)
    assert_allclose(curve.dT_dphi1, 0.0, atol=1e-12)


def test_a_model_compiles_its_netlist_once_on_first_use(monkeypatch):
    compiled = []
    monkeypatch.setattr("multiport_lab.analysis.compile_netlist",
                        lambda net: compiled.append(net) or compile_netlist(net))
    model = netlist_device(builtin_netlist("grover-michelson"))
    assert compiled == []
    find_bias_point(model, 0.3, 0.5)
    sweep(model, 0.3, GridSpec(0.0, TWO_PI, 9))
    assert compiled == [model.netlist] and model.closure() is model.closure()


def _cavity(s):
    """R, T and dT/dphi1 of one cavity of round-trip phase s fed through a
    50:50 split: R = 1/(5 - 4 cos s), dT/dphi1 = 4 sin s/(5 - 4 cos s)^2."""
    den = 5.0 - 4.0 * np.cos(s)
    return 1.0 / den, 1.0 - 1.0 / den, 4.0 * np.sin(s) / den ** 2


# R, T and dT/dphi1 in closed form: the accelerators of michelson and
# grover-michelson, and written out for the built-ins that evaluate their
# netlists, with s = phi1 + phi2 for bs-cavity and s = phi1 for the single seal
ORACLES = {
    **{name: lambda p1, p2, f=f: (*f[0](p1, p2), f[1](p1, p2))
       for name, f in _CLOSED_FORMS.items()},
    "bs-cavity": lambda p1, p2: _cavity(p1 + p2),
    "grover-single-seal": lambda p1, p2: _cavity(p1),
}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_netlist_device_tracks_closed_form(name):
    model = netlist_device(builtin_netlist(name), device_id=name)
    for p1, p2 in [(0.3, 1.0), (2.2, 4.4), (5.9, 0.2)]:
        got = model.probabilities(p1, p2)
        R, T, dT = ORACLES[name](p1, p2)
        assert got.T == pytest.approx(T, abs=1e-12)
        assert got.R == pytest.approx(R, abs=1e-12)
        assert model.dT_dphi1(p1, p2) == pytest.approx(dT, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_netlist_sweep_matches_closed_form(name):
    got = sweep(netlist_device(builtin_netlist(name), device_id=name), 0.7,
                GridSpec(0.0, TWO_PI, 257))
    _, T, dT = ORACLES[name](got.phi1, 0.7)
    assert_allclose(got.T, T, rtol=0, atol=1e-12)
    assert_allclose(got.dT_dphi1, dT, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("name", ["bs-cavity", "grover-single-seal"])
def test_builtin_without_closed_form_evaluates_its_netlist(name):
    # their closed forms are gone: the name sweeps its netlist, which must
    # still meet the formula to 1e-13 of each column's largest value
    assert resolve_device(name).curve is not None
    for phi2 in (0.0, 0.7, math.pi, 5.0):
        curve = sweep(name, phi2, GridSpec(0.0, TWO_PI, 257))
        want = ORACLES[name](curve.phi1, phi2)
        for got, ref in zip((curve.R, curve.T, curve.dT_dphi1), want):
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), phi2


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
    # every phi1 sample reuses the reduction at its phi2 (one solve of the
    # m x m constant block against I) and closes only the 1 x 1 block of its
    # phi1 seal; blocks of at most 2 x 2 are closed in closed form, so the
    # docs netlist never reaches np.linalg
    reductions, calls = [], []
    init = Reduction.__init__
    monkeypatch.setattr(Reduction, "__init__",
                        lambda self, *args: reductions.append(self) or init(self, *args))
    for name in ("inv", "solve", "svd"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *args, real=real, name=name, **kwargs:
                            calls.append((name, a.shape)) or real(a, *args, **kwargs))
    chain = netlist_device(_chain_netlist(np.random.default_rng(8), 8))
    for phi2 in (0.7, 2.0):
        sweep(chain, phi2, GridSpec(0.0, TWO_PI, 257))
    assert len(reductions) == 2 and calls == [("solve", (30, 30))] * 2
    assert [red.blocks[3].shape for red in reductions] == [(1, 1)] * 2
    reductions.clear()
    calls.clear()
    docs = parse_netlist((DOCS / "grover-michelson.json").read_text())
    for phi2 in (math.pi, 0.1):
        max_sensitivity(docs, phi2)
    assert [red.blocks[3].shape for red in reductions] == [(1, 1)] * 2 and calls == []


#: the answers of the engine with np.linalg on every block: the bias (phi1,
#: slope) of the closed-form grover-michelson at two phi2, and the bias and
#: a 5-point sweep (T, dT/dphi1) at phi2 = 0.5 of two docs netlists
LINALG_ANSWERS = {
    ("grover-michelson", 0.5): (5.948302347199695, -4.500351394901384),
    ("grover-michelson", 3e-5): (6.28315530807956, -555588776.1880175),
    "michelson.json": ((2.070796326794897, 0.49999999999999983),
                       [0.009966711079379183, 0.3305270132319412, 0.9407910979391425,
                        0.797549560159432, 0.14566511285436992],
                       [-0.09933466539753058, 0.4704029195869358, 0.2360152706449412,
                        -0.40182615550624395, -0.3527701627851958]),
    "grover-michelson.json": ((5.948302347199695, -4.500351394901389),
                              [0.034800108832550594, 0.1493626315176341, 0.20720414261895748,
                               0.3013768631054628, 0.29404415133038964],
                              [0.14279949664405553, 0.04615114174496937, 0.04199098051208294,
                               0.12163042948358098, -3.363569515245293]),
}


def _refuse_linalg(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")

    for name in ("inv", "solve", "svd"):
        monkeypatch.setattr(np.linalg, name, refuse)


def _close(got, want):
    return np.max(np.abs(np.subtract(got, want))) <= 1e-13 * np.max(np.abs(want))


def test_one_port_closures_run_without_linalg(monkeypatch):
    # the phi1 seal's 1 x 1 solve and the 2 x 2 constant block both close in
    # closed form, so no LAPACK is paged in, and the answers stay those of
    # the np.linalg path
    _refuse_linalg(monkeypatch)
    gm = analysis._builtin_device.__wrapped__("grover-michelson")  # a fresh, uncached model
    for phi2 in (0.5, 3e-5):
        bp = find_bias_point(gm, phi2, 0.5)
        assert _close((bp.phi1, bp.slope), LINALG_ANSWERS[("grover-michelson", phi2)]), phi2
    for name in ("michelson.json", "grover-michelson.json"):
        model = netlist_device(parse_netlist((DOCS / name).read_text()))
        (phi1, slope_), T, dT = LINALG_ANSWERS[name]
        bp = find_bias_point(model, 0.5, 0.5)
        assert _close(bp.phi1, phi1) and _close(bp.slope, slope_), name
        curve = sweep(model, 0.5, GridSpec(0.3, 6.0, 5))
        assert _close(curve.T, T) and _close(curve.dT_dphi1, dT), name


#: the answers of the engine with np.linalg on the 2 x 2 phi1 block of
#: `_link_netlist(28)`: the bias (phi1, slope) and a 5-point sweep (T,
#: dT/dphi1) at phi2 = 0.5
LINK_ANSWERS = ((5.644480615013277, -1.075219902606858),
                [0.0061532113136861, 0.03344814515438075, 0.14187374707335232,
                 0.6814370750956275, 0.22093552919271978],
                [0.002624892607280096, 0.038015093930393484, 0.13911122401643838,
                 0.7946836035058645, -0.5097542791424137])


def _link_netlist(seed):
    """A Haar-random 4-port whose only loop is a link of p3 and p4 with
    round-trip phase phi1 + phi2: m = r = 2."""
    u = _random_unitary(np.random.default_rng(seed), 4)
    doc = {"devices": [{"id": "u", "kind": "matrix",
                        "matrix": [[[z.real, z.imag] for z in row] for row in u]}],
           "links": [{"port_a": "u.p3", "port_b": "u.p4", "round_trip_phase": "phi1 + phi2"}],
           "open_ports": ["u.p1", "u.p2"]}
    return parse_netlist(json.dumps(doc))


def test_a_phi1_link_closes_without_linalg(monkeypatch):
    # the link's 2 x 2 block closes by its adjugate, stacked or alone
    _refuse_linalg(monkeypatch)
    model = netlist_device(_link_netlist(28))
    assert model.closure().reduction({"phi2": 0.5}).blocks[3].shape == (2, 2)
    (phi1, slope_), T, dT = LINK_ANSWERS
    bp = find_bias_point(model, 0.5, 0.5)
    assert _close(bp.phi1, phi1) and _close(bp.slope, slope_)
    curve = sweep(model, 0.5, GridSpec(0.3, 6.0, 5))
    assert _close(curve.T, T) and _close(curve.dT_dphi1, dT)


#: kB of OpenBLAS pages mapped in before and after the searches and sweeps
#: of the closed-form grover-michelson and the netlists named, or, with no
#: netlist named, around one complex @, which shows that the count sees
#: BLAS pages at all; each in a fresh process
BLAS_PAGES = """
import math, sys
from pathlib import Path
import numpy as np
from multiport_lab import GridSpec, close_netlist, find_bias_point, parse_netlist, sweep

def blas_kb():
    kb, inside = 0, False
    with open("/proc/self/smaps") as fh:
        for line in fh:
            head = line.split()
            if "-" in head[0]:  # a mapping's header line
                inside = len(head) >= 6 and "openblas" in head[5].lower()
            elif inside and head[0] == "Rss:":
                kb += int(head[1])
    return kb

before = blas_kb()
if len(sys.argv) == 1:
    np.ones((2, 2), complex) @ np.ones((2, 2), complex)
else:
    for phi2 in (0.5, 3e-5):
        find_bias_point("grover-michelson", phi2, 0.5)
    for name in sys.argv[1:]:
        net = parse_netlist(Path(name).read_text())
        close_netlist(net, {"phi1": 0.3, "phi2": 0.5})  # its condition number too
        if name.endswith("michelson.json"):  # and grover-michelson.json: a bias and a sweep
            find_bias_point(net, 0.5, 0.5)
            sweep(net, 0.5, GridSpec(0.0, 2.0 * math.pi, 257))
print(before, blas_kb())
"""


def test_one_port_closures_page_in_no_blas():
    # the closed forms of small blocks exist to keep OpenBLAS's code out of
    # memory: first calls of np.linalg.inv and a complex @ map in about 1 MB,
    # and an SVD, which `close_netlist`'s condition number once ran, 1.2 MB
    if not Path("/proc/self/smaps").exists():
        pytest.skip("no /proc/self/smaps")

    def pages(*netlists):
        out = subprocess.run([sys.executable, "-c", BLAS_PAGES, *netlists], capture_output=True,
                             text=True, check=True, timeout=120).stdout
        return tuple(map(int, out.split()))

    control = pages()
    if control[1] == control[0]:
        pytest.skip("this numpy's OpenBLAS pages are not visible in smaps")
    names = ("michelson.json", "bs-cavity.json", "grover-michelson.json", "fusion.json")
    before, after = pages(*(str(DOCS / name) for name in names))
    assert after == before


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


@pytest.mark.parametrize("count", [2, 3, 64, 65])
def test_log_edges_grid_is_the_sorted_edges_bit_for_bit(count):
    # the upper edge falls to pi, so reversing it sorts it
    grid = GridSpec(1e-5, TWO_PI - 1e-5, count)
    k_left = (count + 1) // 2
    left = np.geomspace(grid.start, math.pi, k_left).tolist()
    right = (TWO_PI - np.geomspace(TWO_PI - grid.stop, math.pi, count - k_left + 1))[:-1]
    want = left + sorted(right.tolist())
    got = _phi2_grid_values(grid, "log-edges")
    assert got.tobytes() == np.array(want).tobytes() and want == sorted(want)


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
    # the scan used to densify as 1/phi2**2: 2.1M points at phi2 <= 1e-3;
    # a coarse scan, its zoom and golden sections of both flanks took 13,386
    for device in ("grover-michelson", parse_netlist((DOCS / "grover-michelson.json").read_text())):
        model = resolve_device(device)
        points = []

        def counted(f):
            def evaluate(phi1, p2):
                points.append(np.size(phi1))
                return f(phi1, p2)
            return evaluate

        max_sensitivity(dataclasses.replace(model, probabilities=counted(model.probabilities),
                                            dT_dphi1=counted(model.dT_dphi1)), phi2)
        assert sum(points) <= 5_000, device


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
    pole = compile_netlist(net).phi1_pole({"phi2": 0.5})
    if case == "link":  # exp(i phi1/2) each way: no one pole, period 4*pi
        assert pole == (None, None, 4.0 * math.pi)
    elif case == "two-seals":  # exp(i phi1) on two seals: no one pole, period 2*pi
        assert pole == (None, None, TWO_PI)
    else:
        assert pole is None
    want = _dense_max_abs_slope(lambda x: dT(x, 0.5), [(0.0, TWO_PI, 65537)])
    _, got = max_sensitivity(net, 0.5)
    assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("phi2", [1e-3, 2e-3, 3e-3, 5e-3, 1e-2])
@pytest.mark.parametrize("case", ["link", "two-seals"])
def test_netlist_without_pole_finds_the_upper_flank_at_small_phi2(case, phi2):
    # the same physics as grover-michelson: at 3e-3, 72419.3432; the zoom
    # of the best sample alone found the lower flank, 71919.3427
    _, want = max_sensitivity("grover-michelson", phi2)
    _, got = max_sensitivity(parse_netlist(json.dumps(WITHOUT_POLE[case][0])), phi2)
    assert got == pytest.approx(want, rel=1e-9)


def _scaled_phi1(k):
    """The built-in grover-michelson netlist with its phi1 seal at k*phi1:
    T repeats every 2*pi/k."""
    doc = json.loads(render_netlist(builtin_netlist("grover-michelson")))
    seal, = (s for s in doc["seals"] if s["phase"] == "phi1")
    seal["phase"] = f"{k}*phi1"
    return parse_netlist(json.dumps(doc))


@pytest.mark.parametrize("phi2", [0.3, 1e-3])
@pytest.mark.parametrize("k", [3, 100000])
def test_a_period_below_two_pi_is_searched_once(k, phi2):
    # T(phi1) of k*phi1 is T(k*phi1) of phi1: every search reads one period
    # [0, 2*pi/k], so its work does not grow with k, and its answers are
    # those of phi1 scaled, in that period
    net, period = _scaled_phi1(k), TWO_PI / k
    model = resolve_device(net)
    assert analysis.anatomy(model, phi2).span == pytest.approx(period, rel=1e-15)
    assert len(analysis.anatomy(model, phi2).resonances) <= 3
    _, want = max_sensitivity(builtin_netlist("grover-michelson"), phi2)
    x, got = max_sensitivity(net, phi2)
    assert got == pytest.approx(k * want, rel=1e-9)
    assert 0.0 <= x < period
    bp = find_bias_point(net, phi2, 0.5)
    assert 0.0 <= bp.phi1 < period
    assert abs(bp.T - 0.5) <= 4.0 * abs(bp.slope) * math.ulp(TWO_PI)


def test_a_period_below_the_grid_resolution_is_refused():
    # 1024 ulps of 2*pi, about 9.1e-13: the uniform grid's pitch is then below
    # the zooms' absolute stop, and without the refusal both of these biases
    # come out at T = 0.487 for a target of 0.5
    for k in (10 ** 13, 10 ** 300):
        net = _scaled_phi1(k)
        with pytest.raises(ValidationError, match="below the searches' resolution"):
            max_sensitivity(net, 0.3)
        with pytest.raises(ValidationError, match="below the searches' resolution"):
            find_bias_point(net, 0.3, 0.5)
    for k in (10 ** 5, 10 ** 12):
        bp = find_bias_point(_scaled_phi1(k), 0.3, 0.5)
        assert 0.0 <= bp.phi1 < TWO_PI / k
        assert abs(bp.T - 0.5) <= abs(bp.slope) * math.ulp(TWO_PI)


#: a 3-port permutation with p3 sealed on itself: T is 1 at every phi1, and
#: its pole has |w| = 1, so the peak search samples a ring of equal zeros
FLAT_RING = {"devices": [{"id": "d", "kind": "matrix",
                          "matrix": [[0, 1, 0], [1, 0, 0], [0, 0, 1]]}],
             "seals": [{"device": "d", "port": "p3", "phase": "phi1"}],
             "open_ports": ["d.p1", "d.p2"]}


def test_flat_ring_takes_phi1_zero_as_its_steepest_point():
    # no sample of the ring is a strict peak of |dT/dphi1|
    net = parse_netlist(json.dumps(FLAT_RING))
    assert compile_netlist(net).phi1_pole({"phi2": 0.3})[2] == pytest.approx(TWO_PI)
    assert max_sensitivity(net, 0.3) == (0.0, 0.0)
    bias = find_bias_point(net, 0.3, 1.0)
    assert (bias.phi1, bias.slope) == (0.0, 0.0)
    for delta in (0.1, 7.0):
        assert perturbation_response(net, bias, delta) == (0.0, False)
    with pytest.raises(TargetUnreachableError):
        find_bias_point(net, 0.3, 0.5)


def _haar_netlist(u, link):
    """Haar 4-port u with phi2 sealed on p4 and phi1 on p3: on a seal
    (r = 1), or on a link to a 1-port mirror [[-1]] (r = 2)."""
    doc = {"devices": [{"id": "u", "kind": "matrix",
                        "matrix": [[[z.real, z.imag] for z in row] for row in u]}],
           "seals": [{"device": "u", "port": "p4", "phase": "phi2"}],
           "open_ports": ["u.p1", "u.p2"]}
    if link:
        doc["devices"].append({"id": "m", "kind": "matrix", "matrix": [[-1]]})
        doc["links"] = [{"port_a": "u.p3", "port_b": "m.p1", "round_trip_phase": "phi1"}]
    else:
        doc["seals"].append({"device": "u", "port": "p3", "phase": "phi1"})
    return parse_netlist(json.dumps(doc))


@pytest.mark.parametrize("link", [False, True])
def test_max_sensitivity_matches_a_dense_scan_on_random_networks(link):
    rng = np.random.default_rng(20261020 + link)
    for trial in range(20):
        model = resolve_device(_haar_netlist(_random_unitary(rng, 4), link))
        phi2 = float(rng.uniform(0.0, TWO_PI))
        want = _dense_max_abs_slope(lambda x: model.dT_dphi1(x, phi2), [(0.0, TWO_PI, 65537)])
        _, got = max_sensitivity(model, phi2)
        assert got == pytest.approx(want, rel=1e-9), trial


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


@pytest.mark.parametrize("phi2", [1e-2, 1e-3, 1e-4, 1e-5])
@pytest.mark.parametrize("netlist", [False, True])
def test_slope_times_half_width_tends_to_the_lorentzian_limit(phi2, netlist):
    # a full-contrast Lorentzian of half-width h is at most 3*sqrt(3)/(8*h)
    # steep, so the enhanced slope costs linewidth: slope * h reads about
    # 3*sqrt(3)/8 * (1 + 1.15*phi2) on both models, which checks the pole's
    # width and the zoom together
    device = builtin_netlist("grover-michelson") if netlist else "grover-michelson"
    _, half_width, _ = resolve_device(device).closure().phi1_pole({"phi2": phi2})
    _, top = max_sensitivity(device, phi2)
    assert 0.5 <= (top * half_width / (3.0 * math.sqrt(3.0) / 8.0) - 1.0) / phi2 <= 2.0


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
    assert bp.T == pytest.approx(target, abs=4.0 * abs(bp.slope) * math.ulp(bp.phi1) + 1e-14)


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
    # the phi1 above lie within 1e-9 in T of the crossing, which the zoom
    # resolves to float resolution
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
        assert bp.T == pytest.approx(target, abs=4.0 * abs(bp.slope) * math.ulp(bp.phi1) + 1e-14)
        x_star, _ = max_sensitivity(device, phi2)
        if np.sign(bp.slope) != np.sign(slope(device, x_star, phi2)):
            wrong.append((phi2, target, bp.phi1))
    assert not wrong


def test_michelson_closed_form_and_netlist_take_the_same_flank():
    # both flanks are equally steep, so a tie takes the rising one; the
    # netlist's rounding used to pick the mirror flank in 38 of these 96
    net = parse_netlist((DOCS / "michelson.json").read_text())
    for phi2 in np.linspace(0.0, TWO_PI, 32, endpoint=False).tolist():
        for target in (0.2, 0.5, 0.8):
            closed = find_bias_point("michelson", phi2, target)
            netlist = find_bias_point(net, phi2, target)
            assert closed.slope > 0.0 and netlist.slope > 0.0, (phi2, target)
            assert abs(math.remainder(closed.phi1 - netlist.phi1, TWO_PI)) < 1e-14


@pytest.mark.parametrize("ulps", [-4, 4])
def test_a_few_ulps_leave_a_symmetric_device_on_the_rising_flank(ulps):
    # grover-single-seal is mirror-symmetric about phi1 = 0: steepen the
    # slope on one side by a few ulps, and the tie still takes the rising flank
    model = resolve_device("grover-single-seal")
    scale = 1.0 + ulps * 2.0 ** -53

    def dT_dphi1(phi1, phi2):
        return model.dT_dphi1(phi1, phi2) * np.where(np.sin(phi1) > 0.0, scale, 1.0)

    tilted = dataclasses.replace(model, dT_dphi1=dT_dphi1)
    for phi2 in (0.3, math.pi / 8, 2.0):
        x_star, _ = max_sensitivity(tilted, phi2)
        assert dT_dphi1(x_star, phi2) > 0.0
        assert find_bias_point(tilted, phi2, 0.5).slope > 0.0


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


def _counted(base):
    """A new model of base, nothing cached, and the sizes of its evaluations."""
    sizes = []

    def counted(f):
        def evaluate(phi1, *args, **kwargs):
            sizes.append(np.size(phi1))
            return f(phi1, *args, **kwargs)
        return evaluate

    return dataclasses.replace(base, **{
        name: counted(getattr(base, name)) for name in ("probabilities", "dT_dphi1", "curve")
        if getattr(base, name) is not None}), sizes


@pytest.mark.parametrize("phi2, target", [(0.0, 0.0), (0.0, 1.0), (3 * math.pi / 2, 0.5)])
def test_michelson_bias_around_phi1_zero(phi2, target):
    # T = sin^2((phi1 - phi2)/2): a turning point, or at 3*pi/2 the steepest
    # point, sits at phi1 = 0, where a crossing may refine to a tiny
    # negative phi1 (whose % 2*pi rounds to 2*pi itself) or toward subnormals
    model, sizes = _counted(resolve_device("michelson"))
    bp = find_bias_point(model, phi2, target)
    assert len(sizes) <= 40
    assert 0.0 <= bp.phi1 < TWO_PI
    assert bp.T == pytest.approx(target, abs=1e-15)


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


@pytest.mark.parametrize("periods", [1024, 2048])
def test_delta_of_many_periods_without_a_resonance_samples_one(periods):
    # michelson's phi1 mirror faces no cavity (|w| = 0): T still repeats
    # with its seal's period, and a whole number of periods once aliased
    # every sample onto one slope sign
    bp = find_bias_point("michelson", 0.0, 0.5)
    resp = perturbation_response("michelson", bp, periods * TWO_PI)
    assert resp.saturated
    assert abs(resp.delta_T) < 1e-9


@pytest.mark.parametrize("phi2", [0.5, math.pi / 8])
@pytest.mark.parametrize("periods", [1024, 2048])
def test_delta_of_many_periods_through_a_link_samples_one(phi2, periods):
    # a link carries exp(i phi1/2) each way, so T repeats every 4*pi: whole
    # periods of 2*pi once aliased every sample onto one slope sign
    net = parse_netlist(json.dumps(WITHOUT_POLE["link"][0]))
    bp = find_bias_point(net, phi2, 0.5)
    assert perturbation_response(net, bp, periods * TWO_PI).saturated


@pytest.mark.parametrize("periods", [1024, 2048])
def test_delta_of_many_periods_on_two_phi1_seals_samples_one(periods):
    # phi1 on two seals: T repeats every 4*pi/gcd(2, 2) = 2*pi, and whole
    # periods once aliased the sampled slope onto one sign
    net = parse_netlist(json.dumps(WITHOUT_POLE["two-seals"][0]))
    assert compile_netlist(net).phi1_pole({"phi2": 0.5}) == (None, None, TWO_PI)
    bp = find_bias_point(net, 0.5, 0.5)
    assert perturbation_response(net, bp, periods * TWO_PI).saturated


def test_common_period_of_several_phi1_carriers():
    # each carrier's feedback repeats every 4*pi/|2*share*a|; a non-integer
    # 2*share*a leaves T with no known period
    doc = json.loads(json.dumps(WITHOUT_POLE["two-seals"][0]))
    for phases, period in [(("2*phi1", "3*phi1"), TWO_PI), (("4*phi1", "6*phi1"), math.pi),
                           (("phi1/2", "phi1"), 4.0 * math.pi), (("phi1", "phi1/3"), None)]:
        doc["seals"][0]["phase"], doc["seals"][2]["phase"] = phases
        pole = compile_netlist(parse_netlist(json.dumps(doc))).phi1_pole({"phi2": 0.5})
        assert pole == (None if period is None else (None, None, period)), phases


def test_delta_without_a_period_samples_the_slope():
    # a phase not affine in phi1 gives T no period: the check samples
    # dT/dphi1 over the traversed interval, as a dense scan of the exact
    # slope sees its sign changes
    doc, dT = WITHOUT_POLE["not-affine"]
    net = parse_netlist(json.dumps(doc))
    bp = find_bias_point(net, 0.5, 0.5)
    got = []
    for delta in (1e-3, 0.1, 1.0, -3.0):
        lo, hi = sorted((bp.phi1, bp.phi1 + delta))
        s = dT(np.linspace(lo, hi, 200001), 0.5)
        want = bool(np.any(s > 1e-9) and np.any(s < -1e-9))
        got.append(perturbation_response(net, bp, delta).saturated)
        assert got[-1] == want, delta
    assert got == [False, False, True, True]


@pytest.mark.parametrize("phi2", [3e-3, 1e-2])
@pytest.mark.parametrize("delta", [0.01, 1.5])
def test_delta_across_a_narrow_link_resonance_saturates(phi2, delta):
    # the link form has a period but no resonance centre: T peaks at
    # 2*pi - phi2 and falls to 0 at 2*pi, both inside one cell of a uniform
    # grid over its 4*pi period, so only a grid resolved around the steepest
    # point sees those turning points
    net = parse_netlist((DOCS / "grover-michelson-link.json").read_text())
    bp = find_bias_point(net, phi2, 0.5)
    assert perturbation_response(net, bp, delta).saturated


@pytest.mark.parametrize("netlist, phi2", [(None, 0.5), (None, 3e-5), ("grover-michelson", 0.5)])
def test_bias_deltas_evaluate_no_grid(netlist, phi2):
    # each delta once sampled dT/dphi1 on a grid of about 1,030-1,170
    # points; it now reads the cached turning points and evaluates T at the
    # shifted point only
    base = resolve_device("grover-michelson") if netlist is None else \
        netlist_device(parse_netlist((DOCS / f"{netlist}.json").read_text()))
    calls = {}
    for deltas in ([0.01], [0.01, 0.05, 1.5, -0.3, 1e3]):
        model, sizes = _counted(base)
        bias = find_bias_point(model, phi2, 0.5)
        assert len(sizes) <= 40  # the anatomy included
        for delta in deltas:
            perturbation_response(model, bias, delta)
        calls[len(deltas)] = (sum(n > 1 for n in sizes), sum(n == 1 for n in sizes))
    assert calls[5][0] == calls[1][0]
    assert calls[5][1] - calls[1][1] <= 2 * 4


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


@pytest.mark.parametrize("target", [10.0, 1e3, 1e6, 1e9, 1e11])
def test_target_is_met_to_relative_precision(target):
    # bisection in log phi2: the result meets the target and a relative
    # 1e-9 more does not, from a slope of 10 to one of 1e11 (phi2 ~ 2.5e-6)
    p2 = solve_phi2_for_sensitivity(target)
    assert max_sensitivity("grover-michelson", p2)[1] >= target
    assert max_sensitivity("grover-michelson", p2 * (1.0 + 1e-9))[1] < target


def test_target_must_be_positive():
    with pytest.raises(ValidationError):
        solve_phi2_for_sensitivity(0.0)
