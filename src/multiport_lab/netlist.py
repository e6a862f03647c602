"""JSON netlists: declarative descriptions of sealed/linked multiport networks.

A netlist is a JSON object with keys ``devices``, ``seals``, ``links``, and
``open_ports``::

    {
      "devices": [{"id": "g", "kind": "grover(4)"}],
      "seals": [
        {"device": "g", "port": "p3", "phase": "phi1"},
        {"device": "g", "port": "p4", "phase": "phi2"}
      ],
      "links": [],
      "open_ports": ["g.p1", "g.p2"]
    }

Device kinds: ``grover(d)`` (d >= 3), ``beamsplitter4``, ``hadamard2``, and
``matrix`` (explicit unitary, entries as numbers or ``[re, im]`` pairs).
Ports elsewhere are referenced as ``"<device-id>.<port-label>"``; seal entries
name the device and port separately.  Phases may be JSON numbers (radians) or
expression strings such as ``"pi/8"``; the free symbols ``phi1``/``phi2`` are
allowed and bound at closure time, which is how a netlist-defined device
becomes sweepable.

`parse_netlist` -> `render_netlist` round-trips: rendering is canonical and
re-parsing the rendered text reproduces an equal `Netlist`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .closure import ClosedDevice, CompiledClosure, Termination
from .core import (
    DEFAULT_UNITARITY_TOL,
    ScatteringMatrix,
    check_unitary,
    default_port_labels,
    make_beam_splitter_4port,
    make_grover_coin,
    make_hadamard2,
)
from .errors import ParseError, ValidationError
from .phase_expr import PhaseExpr

_GROVER_KIND = re.compile(r"^grover\(\s*(\d+)\s*\)$")
_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_-]*$")


@dataclass(frozen=True)
class DeviceSpec:
    """One device instance: id, kind, port labels, and (for kind "matrix")
    the explicit unitary."""

    id: str
    kind: str
    labels: tuple[str, ...]
    matrix: Optional[tuple[tuple[complex, ...], ...]] = None

    @property
    def n_ports(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class SealSpec:
    device: str
    port: str
    phase: PhaseExpr
    mirror: bool = True


@dataclass(frozen=True)
class LinkSpec:
    port_a: str
    port_b: str
    round_trip_phase: PhaseExpr = field(default_factory=lambda: PhaseExpr("0"))


@dataclass(frozen=True)
class Netlist:
    devices: tuple[DeviceSpec, ...]
    seals: tuple[SealSpec, ...]
    links: tuple[LinkSpec, ...]
    open_ports: tuple[str, ...]

    @property
    def free_symbols(self) -> frozenset:
        out: frozenset = frozenset()
        for seal in self.seals:
            out |= seal.phase.free_symbols
        for link in self.links:
            out |= link.round_trip_phase.free_symbols
        return out


# --- parsing ---------------------------------------------------------------

def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _parse_phase(raw, where: str) -> PhaseExpr:
    if not isinstance(raw, (int, float, str)) or isinstance(raw, bool):
        raise ValidationError(f"{where}: phase must be a number or expression string")
    return PhaseExpr.parse(raw)


def _parse_matrix_literal(raw, device_id: str) -> tuple[tuple[complex, ...], ...]:
    _require(isinstance(raw, list) and raw, f"device {device_id!r}: 'matrix' must be a non-empty array of rows")
    n = len(raw)
    rows = []
    for r, row in enumerate(raw):
        _require(isinstance(row, list) and len(row) == n,
                 f"device {device_id!r}: matrix row {r} is not a length-{n} array")
        entries = []
        for c, entry in enumerate(row):
            if isinstance(entry, (int, float)) and not isinstance(entry, bool):
                entries.append(complex(entry))
            elif (isinstance(entry, list) and len(entry) == 2
                  and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)):
                entries.append(complex(entry[0], entry[1]))
            else:
                raise ValidationError(
                    f"device {device_id!r}: matrix entry [{r}][{c}] must be a number or [re, im] pair"
                )
        rows.append(tuple(entries))
    return tuple(rows)


def _parse_device(raw, seen_ids: set, unitarity_tol: float) -> DeviceSpec:
    _require(isinstance(raw, dict), "each device must be an object")
    unknown = set(raw) - {"id", "kind", "labels", "matrix"}
    _require(not unknown, f"device has unknown keys {sorted(unknown)}")
    dev_id = raw.get("id")
    _require(isinstance(dev_id, str) and _NAME.match(dev_id) is not None,
             f"device id {dev_id!r} must be a simple identifier (no dots)")
    _require(dev_id not in seen_ids, f"duplicate device id {dev_id!r}")
    seen_ids.add(dev_id)

    kind_raw = raw.get("kind")
    _require(isinstance(kind_raw, str), f"device {dev_id!r}: 'kind' must be a string")
    matrix = None
    m = _GROVER_KIND.match(kind_raw)
    if m:
        d = int(m.group(1))
        _require(d >= 3, f"device {dev_id!r}: grover coin needs at least 3 ports, got {d}")
        kind, n_ports = f"grover({d})", d
    elif kind_raw == "beamsplitter4":
        kind, n_ports = kind_raw, 4
    elif kind_raw == "hadamard2":
        kind, n_ports = kind_raw, 2
    elif kind_raw == "matrix":
        _require("matrix" in raw, f"device {dev_id!r}: kind 'matrix' requires a 'matrix' key")
        matrix = _parse_matrix_literal(raw["matrix"], dev_id)
        kind, n_ports = kind_raw, len(matrix)
        dev = check_unitary(ScatteringMatrix(np.array(matrix)), unitarity_tol)
        if not dev.ok:
            raise ValidationError(
                f"device {dev_id!r}: matrix is not unitary "
                f"(deviation {dev.deviation:.3e} > {unitarity_tol:.3e})"
            )
    else:
        raise ValidationError(
            f"device {dev_id!r}: unknown kind {kind_raw!r} "
            "(expected grover(d), beamsplitter4, hadamard2, or matrix)"
        )
    _require(matrix is not None or "matrix" not in raw,
             f"device {dev_id!r}: 'matrix' key is only valid for kind 'matrix'")

    labels_raw = raw.get("labels")
    if labels_raw is None:
        labels = default_port_labels(n_ports)
    else:
        _require(isinstance(labels_raw, list) and len(labels_raw) == n_ports,
                 f"device {dev_id!r}: 'labels' must list exactly {n_ports} port names")
        _require(all(isinstance(l, str) and _NAME.match(l) is not None for l in labels_raw),
                 f"device {dev_id!r}: port labels must be simple identifiers (no dots)")
        _require(len(set(labels_raw)) == n_ports,
                 f"device {dev_id!r}: port labels must be distinct")
        labels = tuple(labels_raw)
    return DeviceSpec(id=dev_id, kind=kind, labels=labels, matrix=matrix)


def parse_netlist(text: str, *, unitarity_tol: float = DEFAULT_UNITARITY_TOL) -> Netlist:
    """Parse and validate netlist JSON.

    Raises ParseError (with line/column) for malformed JSON or phase
    expressions, ValidationError for structurally invalid netlists (unknown
    references, double-sealed ports, non-unitary matrix literals, ...).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None

    _require(isinstance(doc, dict), "netlist must be a JSON object")
    unknown = set(doc) - {"devices", "seals", "links", "open_ports"}
    _require(not unknown, f"unknown top-level keys {sorted(unknown)}")
    devices_raw = doc.get("devices")
    _require(isinstance(devices_raw, list) and devices_raw,
             "netlist needs a non-empty 'devices' array")

    seen_ids: set = set()
    devices = tuple(_parse_device(d, seen_ids, unitarity_tol) for d in devices_raw)
    by_id = {d.id: d for d in devices}

    def resolve(ref: str, where: str) -> str:
        _require(isinstance(ref, str) and ref.count(".") == 1,
                 f"{where}: port reference {ref!r} must look like 'device.port'")
        dev_id, port = ref.split(".")
        _require(dev_id in by_id, f"{where}: unknown device {dev_id!r}")
        _require(port in by_id[dev_id].labels,
                 f"{where}: device {dev_id!r} has no port {port!r}")
        return ref

    used_ports: set = set()

    def claim(ref: str, where: str) -> None:
        _require(ref not in used_ports, f"{where}: port {ref!r} is already sealed or linked")
        used_ports.add(ref)

    seals = []
    for k, raw in enumerate(doc.get("seals", []) or []):
        where = f"seals[{k}]"
        _require(isinstance(raw, dict), f"{where}: each seal must be an object")
        unknown = set(raw) - {"device", "port", "phase", "mirror"}
        _require(not unknown, f"{where}: unknown keys {sorted(unknown)}")
        _require("device" in raw and "port" in raw and "phase" in raw,
                 f"{where}: needs 'device', 'port', and 'phase'")
        dev_id, port = raw["device"], raw["port"]
        _require(isinstance(dev_id, str) and isinstance(port, str),
                 f"{where}: 'device' and 'port' must be strings")
        ref = resolve(f"{dev_id}.{port}", where)
        claim(ref, where)
        mirror = raw.get("mirror", True)
        _require(isinstance(mirror, bool), f"{where}: 'mirror' must be true or false")
        seals.append(SealSpec(device=dev_id, port=port,
                              phase=_parse_phase(raw["phase"], where), mirror=mirror))

    links = []
    for k, raw in enumerate(doc.get("links", []) or []):
        where = f"links[{k}]"
        _require(isinstance(raw, dict), f"{where}: each link must be an object")
        unknown = set(raw) - {"port_a", "port_b", "round_trip_phase"}
        _require(not unknown, f"{where}: unknown keys {sorted(unknown)}")
        _require("port_a" in raw and "port_b" in raw, f"{where}: needs 'port_a' and 'port_b'")
        a = resolve(raw["port_a"], where)
        b = resolve(raw["port_b"], where)
        _require(a != b, f"{where}: cannot link port {a!r} to itself")
        claim(a, where)
        claim(b, where)
        phase = _parse_phase(raw.get("round_trip_phase", 0), where)
        links.append(LinkSpec(port_a=a, port_b=b, round_trip_phase=phase))

    all_ports = [f"{d.id}.{lbl}" for d in devices for lbl in d.labels]
    free = [p for p in all_ports if p not in used_ports]
    _require(bool(free), "every port is sealed or linked; at least one must stay open")

    open_raw = doc.get("open_ports")
    if open_raw is None:
        open_ports = tuple(free)
    else:
        _require(isinstance(open_raw, list) and all(isinstance(p, str) for p in open_raw),
                 "'open_ports' must be an array of port references")
        for p in open_raw:
            resolve(p, "open_ports")
            _require(p not in used_ports, f"open_ports: port {p!r} is sealed or linked")
        _require(len(set(open_raw)) == len(open_raw), "open_ports: duplicate entries")
        _require(set(open_raw) == set(free),
                 f"open_ports must list every unsealed, unlinked port: expected {free}")
        open_ports = tuple(open_raw)

    return Netlist(devices=devices, seals=tuple(seals), links=tuple(links),
                   open_ports=open_ports)


# --- rendering -------------------------------------------------------------

def _matrix_entry_json(z: complex):
    if z.imag == 0.0:
        return float(z.real)
    return [float(z.real), float(z.imag)]


def render_netlist(netlist: Netlist) -> str:
    """Canonical JSON rendering; parse_netlist(render_netlist(n)) == n."""
    doc = {
        "devices": [
            {
                "id": d.id,
                "kind": d.kind,
                "labels": list(d.labels),
                **({"matrix": [[_matrix_entry_json(z) for z in row] for row in d.matrix]}
                   if d.matrix is not None else {}),
            }
            for d in netlist.devices
        ],
        "seals": [
            {"device": s.device, "port": s.port, "phase": s.phase.text, "mirror": s.mirror}
            for s in netlist.seals
        ],
        "links": [
            {"port_a": l.port_a, "port_b": l.port_b,
             "round_trip_phase": l.round_trip_phase.text}
            for l in netlist.links
        ],
        "open_ports": list(netlist.open_ports),
    }
    return json.dumps(doc, indent=2) + "\n"


# --- building --------------------------------------------------------------

def device_matrix(spec: DeviceSpec) -> ScatteringMatrix:
    """Instantiate one device's scattering matrix with its own labels."""
    m = _GROVER_KIND.match(spec.kind)
    if m:
        S = make_grover_coin(int(m.group(1)))
    elif spec.kind == "beamsplitter4":
        S = make_beam_splitter_4port()
    elif spec.kind == "hadamard2":
        S = make_hadamard2()
    elif spec.kind == "matrix":
        S = ScatteringMatrix(np.array(spec.matrix, dtype=np.complex128))
    else:  # unreachable after parse validation
        raise ValidationError(f"unknown device kind {spec.kind!r}")
    return S.relabeled(spec.labels)


def combined_matrix(netlist: Netlist) -> ScatteringMatrix:
    """Direct sum of all devices, ports labeled '<device-id>.<port-label>'."""
    mats = [device_matrix(d).matrix for d in netlist.devices]
    n = sum(m.shape[0] for m in mats)
    big = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for m in mats:
        k = m.shape[0]
        big[at:at + k, at:at + k] = m
        at += k
    labels = tuple(f"{d.id}.{lbl}" for d in netlist.devices for lbl in d.labels)
    return ScatteringMatrix(big, labels)


def compile_netlist(netlist: Netlist) -> CompiledClosure:
    """The netlist's closure, partitioned once, with open ports in
    `netlist.open_ports` order; its phases stay `PhaseExpr`s, to be evaluated
    (and differentiated) per solve."""
    seals = [Termination(f"{s.device}.{s.port}", s.phase, s.mirror) for s in netlist.seals]
    return CompiledClosure(combined_matrix(netlist), seals, netlist.links, netlist.open_ports)


def close_netlist(netlist: Netlist,
                  bindings: Mapping[str, float] | None = None) -> ClosedDevice:
    """Close the netlist into its effective device.

    `bindings` supplies values for any phi1/phi2 symbols appearing in phases
    (ValidationError if one is unbound).  Open ports come out in
    `netlist.open_ports` order.
    """
    closure = compile_netlist(netlist)
    effective, condition, _ = closure.solve(lambda phase: phase.evaluate(bindings))
    return ClosedDevice(ScatteringMatrix(effective, closure.labels), condition)


# --- built-in topologies ---------------------------------------------------

def _netlist(devices, seals=(), links=(), open_ports=None) -> Netlist:
    parts = {"devices": devices, "seals": list(seals), "links": list(links)}
    if open_ports is not None:
        parts["open_ports"] = open_ports
    return parse_netlist(json.dumps(parts))


_BUILTINS = {
    # 50:50 beam splitter, mirrors on both output ports: the classic
    # two-arm interferometer.
    "michelson": lambda: _netlist(
        [{"id": "bs", "kind": "beamsplitter4"}],
        seals=[{"device": "bs", "port": "p3", "phase": "phi1"},
               {"device": "bs", "port": "p4", "phase": "phi2"}],
        open_ports=["bs.p1", "bs.p2"],
    ),
    # Mirrors on one port of each side: the mirrors face each other through
    # the splitter and form a true cavity.
    "bs-cavity": lambda: _netlist(
        [{"id": "bs", "kind": "beamsplitter4"}],
        seals=[{"device": "bs", "port": "p2", "phase": "phi1"},
               {"device": "bs", "port": "p4", "phase": "phi2"}],
        open_ports=["bs.p1", "bs.p3"],
    ),
    # 4-port Grover coin with a single sealed port: three open ports.
    "grover-single-seal": lambda: _netlist(
        [{"id": "g", "kind": "grover(4)"}],
        seals=[{"device": "g", "port": "p4", "phase": "phi1"}],
        open_ports=["g.p1", "g.p2", "g.p3"],
    ),
    # 4-port Grover coin with two sealed ports: the two-open-port
    # interferometer with tunable response shape.
    "grover-michelson": lambda: _netlist(
        [{"id": "g", "kind": "grover(4)"}],
        seals=[{"device": "g", "port": "p3", "phase": "phi1"},
               {"device": "g", "port": "p4", "phase": "phi2"}],
        open_ports=["g.p1", "g.p2"],
    ),
    # Two 3-port coins joined by a zero-phase link: closes to the 4-port coin.
    "fusion": lambda: _netlist(
        [{"id": "left", "kind": "grover(3)"},
         {"id": "right", "kind": "grover(3)"}],
        links=[{"port_a": "left.p3", "port_b": "right.p1",
                "round_trip_phase": 0}],
        open_ports=["left.p1", "left.p2", "right.p2", "right.p3"],
    ),
}

BUILTIN_NETLIST_NAMES = tuple(sorted(_BUILTINS))


def builtin_netlist(name: str) -> Netlist:
    """Netlist for a named topology (michelson, bs-cavity, grover-single-seal,
    grover-michelson, fusion)."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ValidationError(
            f"unknown device {name!r}; built-ins: {', '.join(BUILTIN_NETLIST_NAMES)}"
        ) from None
    return factory()
