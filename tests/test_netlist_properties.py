"""Property tests: a netlist's canonical rendering parses back to an equal
netlist, is a fixed point of rendering, and closes to the same bits.  Needs
hypothesis; skipped without it."""

import json

import numpy as np
import pytest

from multiport_lab import MultiportError, close_netlist, parse_netlist, render_netlist

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
SETTINGS = hypothesis.settings(max_examples=200, deadline=None, database=None)

DEVICE_IDS = ["g", "bs", "left", "right_1", "m-2"]
LABELS = ["a", "b", "c", "in", "out", "x_1", "y-2"]
#: JSON numbers and expression strings, with and without the free symbols
PHASES = st.sampled_from(["phi1", "phi2", "pi/8", "2*phi2-1", "0.3", "-(phi1+pi/2)/3",
                          0.3, 0, -1.25])
ANGLES = st.floats(-10.0, 10.0)


def qr_unitary(seed, n, real):
    """A seeded unitary (orthogonal if `real`): the Q of a Gaussian matrix's
    QR, its columns rephased by R's diagonal."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n))
    if not real:
        z = z + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def devices(draw, dev_id):
    kind = draw(st.sampled_from(["grover", "beamsplitter4", "hadamard2", "matrix"]))
    device = {"id": dev_id, "kind": kind}
    if kind == "grover":
        n = draw(st.integers(3, 5))
        device["kind"] = f"grover({n})"
    elif kind == "matrix":
        n, real = draw(st.integers(1, 4)), draw(st.booleans())
        u = qr_unitary(draw(st.integers(0, 2**32 - 1)), n, real)
        device["matrix"] = [[float(z.real) if real else [float(z.real), float(z.imag)]
                             for z in row] for row in u]
    else:
        n = 4 if kind == "beamsplitter4" else 2
    labels = [f"p{k + 1}" for k in range(n)]
    if draw(st.booleans()):
        labels = draw(st.permutations(LABELS))[:n]
        device["labels"] = labels
    return device, [f"{dev_id}.{label}" for label in labels]


@st.composite
def documents(draw):
    """A valid netlist document: up to three devices, a random share of
    their ports sealed or linked in pairs, at least one left open."""
    ids = draw(st.permutations(DEVICE_IDS))[:draw(st.integers(1, 3))]
    doc, ports = {"devices": [], "seals": [], "links": []}, []
    for dev_id in ids:
        device, its_ports = draw(devices(dev_id))
        doc["devices"].append(device)
        ports += its_ports
    order = draw(st.permutations(ports))
    n_open = draw(st.integers(1, len(order)))
    closed, free = order[n_open:], order[:n_open]
    k = 0
    while k < len(closed):
        if k + 1 < len(closed) and draw(st.booleans()):
            link = {"port_a": closed[k], "port_b": closed[k + 1]}
            if draw(st.booleans()):
                link["round_trip_phase"] = draw(PHASES)
            doc["links"].append(link)
            k += 2
        else:
            device, port = closed[k].split(".")
            seal = {"device": device, "port": port, "phase": draw(PHASES)}
            if draw(st.booleans()):
                seal["mirror"] = draw(st.booleans())
            doc["seals"].append(seal)
            k += 1
    if draw(st.booleans()):
        doc["open_ports"] = free
    return doc


def closed_bits(net, bindings):
    """The closed device's labels, matrix bytes and condition, or the class
    of the error it raises."""
    try:
        dev = close_netlist(net, bindings)
    except MultiportError as exc:
        return type(exc)
    return (dev.open_port_labels, dev.effective.matrix.tobytes(),
            float(dev.closure_condition).hex())


@SETTINGS
@hypothesis.given(documents())
def test_rendering_round_trips_and_is_a_fixed_point(doc):
    net = parse_netlist(json.dumps(doc))
    text = render_netlist(net)
    again = parse_netlist(text)
    assert again == net and hash(again) == hash(net)
    assert render_netlist(again) == text


@SETTINGS
@hypothesis.given(documents(), ANGLES, ANGLES)
def test_reparsed_netlist_closes_to_the_same_bits(doc, phi1, phi2):
    net = parse_netlist(json.dumps(doc))
    again = parse_netlist(render_netlist(net))
    bindings = {"phi1": phi1, "phi2": phi2}
    assert closed_bits(again, bindings) == closed_bits(net, bindings)
