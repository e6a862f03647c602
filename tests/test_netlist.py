"""Netlist parsing, validation, canonical rendering, and closure."""

import cmath
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from multiport_lab import (
    ParseError,
    PortError,
    ValidationError,
    builtin_netlist,
    close_netlist,
    grover_michelson_amplitudes,
    make_grover_coin,
    michelson_amplitudes,
    parse_netlist,
    render_netlist,
)
from multiport_lab.netlist import BUILTIN_NETLIST_NAMES, compile_netlist


def minimal_gm():
    return json.dumps(
        {
            "devices": [{"id": "g", "kind": "grover(4)"}],
            "seals": [
                {"device": "g", "port": "p3", "phase": "phi1"},
                {"device": "g", "port": "p4", "phase": "phi2"},
            ],
        }
    )


def test_parse_minimal_two_seal_netlist():
    net = parse_netlist(minimal_gm())
    assert len(net.devices) == 1
    assert net.free_symbols == frozenset({"phi1", "phi2"})
    assert net.open_ports == ("g.p1", "g.p2")


def test_close_netlist_matches_closed_form():
    net = parse_netlist(minimal_gm())
    dev = close_netlist(net, {"phi1": 1.0, "phi2": 2.5})
    a = grover_michelson_amplitudes(1.0, 2.5)
    m = dev.effective.matrix
    assert m.shape == (2, 2)
    assert abs(m[0, 0] - a.r) < 1e-12
    assert abs(m[1, 0] - a.t) < 1e-12


def test_close_netlist_literal_phases_need_no_bindings():
    text = json.dumps(
        {
            "devices": [{"id": "g", "kind": "grover(4)"}],
            "seals": [
                {"device": "g", "port": "p3", "phase": "pi"},
                {"device": "g", "port": "p4", "phase": "pi"},
            ],
        }
    )
    dev = close_netlist(parse_netlist(text))
    assert abs(dev.effective.matrix[1, 0]) == pytest.approx(1.0, abs=1e-12)


def test_open_ports_order_respected():
    data = json.loads(minimal_gm())
    data["open_ports"] = ["g.p2", "g.p1"]
    net = parse_netlist(json.dumps(data))
    dev = close_netlist(net, {"phi1": 0.4, "phi2": 1.1})
    ref = close_netlist(parse_netlist(minimal_gm()), {"phi1": 0.4, "phi2": 1.1})
    assert dev.effective.port_labels == ("g.p2", "g.p1")
    assert_allclose(
        dev.effective.matrix, ref.effective.matrix[np.ix_([1, 0], [1, 0])], atol=0
    )


def test_matrix_device_kind():
    s = 1.0 / math.sqrt(2.0)
    text = json.dumps(
        {
            "devices": [
                {
                    "id": "h",
                    "kind": "matrix",
                    "matrix": [[s, s], [s, -s]],
                    "labels": ["a", "b"],
                }
            ],
            "seals": [{"device": "h", "port": "b", "phase": 0}],
        }
    )
    net = parse_netlist(text)
    dev = close_netlist(net)
    assert dev.effective.port_labels == ("h.a",)


def test_matrix_device_complex_entries():
    text = json.dumps(
        {
            "devices": [
                {
                    "id": "ph",
                    "kind": "matrix",
                    "matrix": [[[0, 1]]],
                }
            ],
        }
    )
    net = parse_netlist(text)
    from multiport_lab.netlist import device_matrix

    assert device_matrix(net.devices[0]).matrix[0, 0] == 1j


def test_matrix_device_must_be_unitary():
    text = json.dumps(
        {
            "devices": [{"id": "m", "kind": "matrix", "matrix": [[0.9]]}],
        }
    )
    with pytest.raises(ValidationError):
        parse_netlist(text)


def test_bad_json_reports_position():
    with pytest.raises(ParseError) as err:
        parse_netlist('{"devices": [,]}')
    assert err.value.line == 1
    assert err.value.column is not None


def test_unknown_top_level_key_rejected():
    data = json.loads(minimal_gm())
    data["decorations"] = []
    with pytest.raises(ValidationError):
        parse_netlist(json.dumps(data))


def test_unknown_device_kind_rejected():
    text = json.dumps({"devices": [{"id": "x", "kind": "grover(2)"}]})
    with pytest.raises(ValidationError):
        parse_netlist(text)


def test_seal_referencing_missing_device():
    data = json.loads(minimal_gm())
    data["seals"][0]["device"] = "nope"
    with pytest.raises(ValidationError):
        parse_netlist(json.dumps(data))


def test_same_port_sealed_twice_rejected():
    data = json.loads(minimal_gm())
    data["seals"].append({"device": "g", "port": "p3", "phase": 0})
    with pytest.raises((ValidationError, PortError)):
        parse_netlist(json.dumps(data))


def test_port_both_sealed_and_linked_rejected():
    data = json.loads(minimal_gm())
    data["devices"].append({"id": "h", "kind": "grover(3)"})
    data["links"] = [{"port_a": "g.p3", "port_b": "h.p1"}]
    with pytest.raises((ValidationError, PortError)):
        parse_netlist(json.dumps(data))


def test_everything_closed_rejected():
    text = json.dumps(
        {
            "devices": [{"id": "g", "kind": "grover(3)"}],
            "seals": [
                {"device": "g", "port": "p1", "phase": 1},
                {"device": "g", "port": "p2", "phase": 1},
                {"device": "g", "port": "p3", "phase": 1},
            ],
        }
    )
    with pytest.raises(ValidationError):
        parse_netlist(text)


def test_open_ports_must_cover_free_ports():
    data = json.loads(minimal_gm())
    data["open_ports"] = ["g.p1"]
    with pytest.raises(ValidationError):
        parse_netlist(json.dumps(data))


def _random_matrix_netlist():
    # a seeded Haar-random 4 x 4 unitary at full double precision, its first
    # column turned so that entry [0][0] is real: rendered as a plain number,
    # every other entry as an [re, im] pair
    rng = np.random.default_rng(7)
    q, r = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    u[:, 0] *= abs(u[0, 0]) / u[0, 0]
    u[0, 0] = u[0, 0].real
    return parse_netlist(json.dumps({
        "devices": [{"id": "u", "kind": "matrix",
                     "matrix": [[[z.real, z.imag] for z in row] for row in u]}],
        "seals": [{"device": "u", "port": "p3", "phase": "phi1"},
                  {"device": "u", "port": "p4", "phase": "phi2/3"}]}))


def test_render_parse_round_trip():
    for net in [builtin_netlist(name) for name in BUILTIN_NETLIST_NAMES] + [_random_matrix_netlist()]:
        text = render_netlist(net)
        again = parse_netlist(text)
        assert again == net
        assert render_netlist(again) == text
    rows = json.loads(render_netlist(_random_matrix_netlist()))["devices"][0]["matrix"]
    assert [isinstance(z, float) for row in rows for z in row].count(True) == 1


def test_render_is_stable_json():
    net = builtin_netlist("grover-michelson")
    text = render_netlist(net)
    json.loads(text)  # stays plain JSON
    assert text.endswith("\n")


@pytest.mark.parametrize("name", sorted(BUILTIN_NETLIST_NAMES))
def test_builtin_netlists_close_to_unitary_devices(name):
    net = builtin_netlist(name)
    bindings = {s: 0.9 for s in net.free_symbols}
    dev = close_netlist(net, bindings)
    m = dev.effective.matrix
    assert_allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12)


def test_builtin_michelson_agrees_with_formula():
    dev = close_netlist(builtin_netlist("michelson"), {"phi1": 0.7, "phi2": 2.9})
    a = michelson_amplitudes(0.7, 2.9)
    m = dev.effective.matrix
    assert abs(m[0, 0] - a.r) < 1e-12
    assert abs(m[1, 0] - a.t) < 1e-12


def test_builtin_fusion_closes_to_grover4():
    dev = close_netlist(builtin_netlist("fusion"))
    assert_allclose(dev.effective.matrix, make_grover_coin(4).matrix, atol=1e-13)


@pytest.mark.parametrize("phi2", [math.pi, 0.1, 1e-3, 1e-5])
def test_grover_michelson_pole(phi2):
    # det(I - S_cc F) = 1 - (z1 + z2)/2 vanishes at z1 = 2 - z2
    centre, half_width, period = compile_netlist(
        builtin_netlist("grover-michelson")).phi1_pole({"phi2": phi2})
    want = 2.0 - cmath.exp(1j * phi2)
    assert centre == pytest.approx(cmath.phase(want), rel=1e-14, abs=1e-16)
    # |z*| - 1 ~ phi2**2 keeps about 16 + log10(phi2**2) digits
    assert half_width == pytest.approx(math.log(abs(want)), rel=1e-5)
    assert period == 2.0 * math.pi


@pytest.mark.parametrize("text, period", [
    # michelson's phi1 mirror: the splitter sends nothing straight back (w = 0)
    (render_netlist(builtin_netlist("michelson")), 2.0 * math.pi),
    # a bound state: the identity returns p2 to itself (|w| = 1), so no
    # light from p1 reaches it and T is flat
    (json.dumps({"devices": [{"id": "m", "kind": "matrix", "matrix": [[1, 0], [0, 1]]}],
                 "seals": [{"device": "m", "port": "p2", "phase": "phi1/2"}]}), 4.0 * math.pi),
])
def test_seal_without_a_resonance_keeps_its_period(text, period):
    pole = compile_netlist(parse_netlist(text)).phi1_pole({"phi2": 0.3})
    assert pole == (None, None, period)


def test_unknown_builtin_name():
    with pytest.raises(ValidationError):
        builtin_netlist("mach-zehnder")
