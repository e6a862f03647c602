"""Command-line front end.

Commands:
  smatrix      effective scattering matrix of a device at fixed phases
  sweep        R/T/slope over a phi1 grid at fixed phi2 -> CSV (+ SVG)
  sensitivity  max |dT/dphi1| vs phi2 for grover-michelson and michelson -> CSV (+ SVG)
  bias         solve T(phi1) = target, report slope, optional perturbation table

Devices are built-in names (michelson, bs-cavity, grover-single-seal,
grover-michelson, fusion) or paths to netlist JSON files; a built-in name
wins over a file of the same name in every command.  sweep and bias use the
closed form of a built-in that has one.
Phase-valued options accept expressions like ``pi/8`` or ``2*pi/3``.

Exit codes: 0 success; 1 parse or validation failure; 2 singular closure
(resonant trap) or degenerate phase point; 3 unreachable target.

The default tolerance (netlist unitarity validation) is 1e-12, overridable by
the MULTIPORT_LAB_TOL environment variable and per-run by --tol.

CSV output is locale-independent and deterministic: '.' decimals, '\\n' line
endings, shortest round-trip float formatting; identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import analysis, svg
from .analysis import GridSpec
from .core import DEFAULT_UNITARITY_TOL, check_unitary
from .errors import (
    DegeneratePhaseError,
    DimensionError,
    MultiportError,
    ParseError,
    PortError,
    SingularClosureError,
    TargetUnreachableError,
    ValidationError,
)
from .netlist import (
    BUILTIN_NETLIST_NAMES,
    builtin_netlist,
    close_netlist,
    parse_netlist,
)
from .phase_expr import evaluate_phase

TWO_PI = 2.0 * math.pi

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SINGULAR = 2
EXIT_UNREACHABLE = 3

SWEEP_CSV_HEADER = "phi1,R,T,dT_dphi1"
SENSITIVITY_CSV_HEADER = "phi2,max_slope_gm,max_slope_michelson,argmax_phi1"


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage through our exit-code contract."""

    def error(self, message):
        raise ValidationError(message)


def _env_tol() -> float:
    raw = os.environ.get("MULTIPORT_LAB_TOL")
    if raw is None:
        return DEFAULT_UNITARITY_TOL
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"MULTIPORT_LAB_TOL={raw!r} is not a number") from None
    if not value > 0:
        raise ValidationError(f"MULTIPORT_LAB_TOL must be positive, got {raw!r}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="multiport-lab",
                     description="sealed/linked multiport network workbench")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, device=True):
        if device:
            p.add_argument("--device", required=True,
                           help="registry name or netlist JSON path")
        p.add_argument("--degrees", action="store_true",
                       help="interpret phase-valued options in degrees")
        p.add_argument("--tol", type=float, default=None,
                       help="validation tolerance (default 1e-12 or MULTIPORT_LAB_TOL)")

    p = sub.add_parser("smatrix", help="print the effective scattering matrix")
    common(p)
    p.add_argument("--phi1", default="0", help="phase expression bound to phi1")
    p.add_argument("--phi2", default="0", help="phase expression bound to phi2")

    p = sub.add_parser("sweep", help="transmission curve over a phi1 grid")
    common(p)
    p.add_argument("--phi2", required=True, help="fixed phi2 (expression)")
    p.add_argument("--phi1-grid", default="0:2*pi:257", metavar="START:STOP:COUNT",
                   help="phi1 grid (default 0:2*pi:257)")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.add_argument("--svg", help="also write an SVG plot of T vs phi1")

    p = sub.add_parser("sensitivity",
                       help="max sensitivity vs phi2 (grover-michelson and michelson)")
    common(p, device=False)
    p.add_argument("--phi2-grid", default="1e-5:2*pi-1e-5:64", metavar="START:STOP:COUNT",
                   help="phi2 grid in (0, 2*pi) (default 1e-5:2*pi-1e-5:64)")
    p.add_argument("--spacing", choices=("linear", "log-edges"), default="log-edges",
                   help="grid spacing; log-edges clusters points near 0 and 2*pi")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.add_argument("--svg", help="also write an SVG plot (log y)")

    p = sub.add_parser("bias", help="calibrate phi1 for a target transmission")
    common(p)
    p.add_argument("--phi2", required=True, help="fixed phi2 (expression)")
    p.add_argument("--target", required=True, type=float,
                   help="target transmission probability T")
    p.add_argument("--delta", default=None,
                   help="comma-separated perturbation phases to tabulate")

    return parser


# --- helpers ---------------------------------------------------------------

def _angle(expr: str, degrees: bool) -> float:
    value = evaluate_phase(expr)
    return math.radians(value) if degrees else value


def _parse_grid(spec: str, degrees: bool) -> GridSpec:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValidationError(f"grid {spec!r} must look like START:STOP:COUNT")
    start = _angle(parts[0], degrees)
    stop = _angle(parts[1], degrees)
    try:
        count = int(parts[2])
    except ValueError:
        raise ValidationError(f"grid count {parts[2]!r} must be an integer") from None
    if count < 2:
        raise ValidationError(f"grid count must be at least 2, got {count}")
    if not stop > start:
        raise ValidationError(f"grid stop must exceed start in {spec!r}")
    return GridSpec(start=start, stop=stop, count=count)


def _resolve_device(name: str, tol: float):
    """--device value -> (device id, Netlist): built-in name first, then file."""
    if name in BUILTIN_NETLIST_NAMES:
        return name, builtin_netlist(name)
    path = Path(name)
    if path.exists():
        return path.stem, parse_netlist(path.read_text(encoding="utf-8"), unitarity_tol=tol)
    raise ValidationError(
        f"unknown device {name!r}: not a builtin netlist "
        f"({', '.join(BUILTIN_NETLIST_NAMES)}) or file"
    )


def _device_model(name: str, tol: float):
    """Closed form for a registry name, else the resolved netlist's model."""
    if name in analysis.MODEL_NAMES:
        return analysis.resolve_device(name)
    device_id, netlist = _resolve_device(name, tol)
    return analysis.netlist_device(netlist, device_id=device_id)


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# --- commands --------------------------------------------------------------

def cmd_smatrix(args, tol: float) -> int:
    _, netlist = _resolve_device(args.device, tol)
    bindings = {
        "phi1": _angle(args.phi1, args.degrees),
        "phi2": _angle(args.phi2, args.degrees),
    }
    closed = close_netlist(netlist, bindings)
    S = closed.effective
    print("ports:", " ".join(S.port_labels))
    for row in S.matrix:
        print("  ".join(f"{z.real:.15g} {z.imag:.15g}" for z in row))
    print(f"unitarity deviation: {check_unitary(S).deviation:.3e}")
    print(f"closure condition: {closed.closure_condition:.6g}")
    return EXIT_OK


def cmd_sweep(args, tol: float) -> int:
    model = _device_model(args.device, tol)
    phi2 = _angle(args.phi2, args.degrees)
    grid = _parse_grid(args.phi1_grid, args.degrees)
    curve = analysis.sweep(model, phi2, grid)
    rows = zip(curve.phi1, curve.R, curve.T, curve.dT_dphi1)
    _write_text(args.out, _csv(SWEEP_CSV_HEADER, rows))
    if args.svg:
        chart = svg.line_chart(
            [(f"T ({curve.device_id})", curve.phi1, curve.T)],
            x_label="phi1 (rad)", y_label="T",
            title=f"transmission at phi2={phi2:.6g}",
        )
        _write_text(args.svg, chart)
    return EXIT_OK


def _phi2_grid_values(grid: GridSpec, spacing: str) -> np.ndarray:
    if not (0.0 < grid.start and grid.stop < TWO_PI):
        raise ValidationError(
            "sensitivity grid must stay strictly inside (0, 2*pi)"
        )
    if spacing == "linear":
        return grid.values()
    if not (grid.start < math.pi < grid.stop):
        raise ValidationError("log-edges spacing needs a grid straddling pi; "
                              "use --spacing linear for one-sided grids")
    # log-edges: half the points geometric from `start` up to pi, the other
    # half mirrored down from 2*pi - `stop`; resolves both divergent ends.
    k_left = (grid.count + 1) // 2
    k_right = grid.count - k_left
    left = np.geomspace(grid.start, math.pi, k_left)
    right = TWO_PI - np.geomspace(TWO_PI - grid.stop, math.pi, k_right + 1)
    return np.concatenate([left, np.sort(right[:-1])])


def cmd_sensitivity(args, tol: float) -> int:
    grid = _parse_grid(args.phi2_grid, args.degrees)
    phi2_values = _phi2_grid_values(grid, args.spacing)
    gm = analysis.sensitivity_profile("grover-michelson", phi2_values)
    mich = analysis.sensitivity_profile("michelson", phi2_values)
    rows = [
        (g.phi2, g.max_abs_slope, m.max_abs_slope, g.argmax_phi1)
        for g, m in zip(gm.points, mich.points)
    ]
    _write_text(args.out, _csv(SENSITIVITY_CSV_HEADER, rows))
    if args.svg:
        chart = svg.line_chart(
            [
                ("grover-michelson", [p.phi2 for p in gm.points],
                 [p.max_abs_slope for p in gm.points]),
                ("michelson", [p.phi2 for p in mich.points],
                 [p.max_abs_slope for p in mich.points]),
            ],
            x_label="phi2 (rad)", y_label="max |dT/dphi1|",
            title="maximum sensitivity", log_y=True,
        )
        _write_text(args.svg, chart)
    return EXIT_OK


def cmd_bias(args, tol: float) -> int:
    model = _device_model(args.device, tol)
    phi2 = _angle(args.phi2, args.degrees)
    bias = analysis.find_bias_point(model, phi2, args.target)
    print(f"device: {model.device_id}")
    print(f"phi2 = {_fmt(bias.phi2)}")
    print(f"phi1 = {_fmt(bias.phi1)}")
    print(f"T = {_fmt(bias.T)}")
    print(f"slope = {_fmt(bias.slope)}")
    if args.delta is not None:
        print("delta,dT,saturated")
        for part in args.delta.split(","):
            delta = _angle(part.strip(), args.degrees)
            resp = analysis.perturbation_response(model, bias, delta)
            flag = "true" if resp.saturated else "false"
            print(f"{_fmt(delta)},{_fmt(resp.delta_T)},{flag}")
    return EXIT_OK


_COMMANDS = {
    "smatrix": cmd_smatrix,
    "sweep": cmd_sweep,
    "sensitivity": cmd_sensitivity,
    "bias": cmd_bias,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        tol = args.tol if args.tol is not None else _env_tol()
        if not tol > 0:
            raise ValidationError(f"--tol must be positive, got {tol}")
        return _COMMANDS[args.command](args, tol)
    except ParseError as exc:
        place = ""
        if exc.line is not None:
            place = f"line {exc.line}, column {exc.column}: "
        print(f"error: {place}{exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValidationError, PortError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (SingularClosureError, DegeneratePhaseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except TargetUnreachableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except MultiportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
