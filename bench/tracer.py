"""Spans around the program's layer boundaries, installed from outside.

`install` replaces public functions at every multiport_lab module attribute
that holds them (so ``cli.close_netlist`` and ``analysis.close_netlist`` are
both traced), wraps two methods on their classes, and wraps every
`DeviceModel` that ``analysis.resolve_device`` or ``analysis.netlist_device``
returns so each model evaluation becomes a ``devices.eval`` span.  A target
that a later refactor removes is listed as absent and its metrics read 0.

Spans live in flat arrays (name, op, parent, start, end, error flag and two
numeric attributes) and are written out once, at the end.  A span's self
time is its duration minus the durations of its direct children; calls are
strictly nested because the program is single-threaded.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import sys
from array import array
from time import perf_counter

import numpy as np

NAN = math.nan

#: (module, attribute, span name)
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("analysis", "sweep", "analysis.sweep"),
    ("analysis", "sensitivity_profile", "analysis.sensitivity_profile"),
    ("analysis", "max_sensitivity", "analysis.max_sensitivity"),
    ("analysis", "find_bias_point", "analysis.find_bias_point"),
    ("analysis", "perturbation_response", "analysis.perturbation_response"),
    ("netlist", "parse_netlist", "netlist.parse_netlist"),
    ("netlist", "close_netlist", "netlist.close_netlist"),
    ("closure", "close_network", "closure.close_network"),
    ("core", "check_unitary", "core.check_unitary"),
    ("svg", "line_chart", "svg.line_chart"),
)
#: (module, class, method, span name)
METHODS = (
    ("core", "ScatteringMatrix", "__post_init__", "core.ScatteringMatrix"),
    ("phase_expr", "PhaseExpr", "evaluate", "phase_expr.evaluate"),
)
#: counted without a span: one tokenizer is built per phase text parsed
COUNTED = (("phase_expr", "_Tokenizer", "__init__", "phase_expr.parse"),)
MODEL_FACTORIES = ("resolve_device", "netlist_device")
SEARCH_SPANS = ("analysis.max_sensitivity", "analysis.find_bias_point",
                "analysis.perturbation_response")

#: per-layer metrics, in report order, with units
PER_LAYER = (
    ("import.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("svg.line_chart.calls", "count"),
    ("svg.line_chart.self_s", "s"),
    ("analysis.max_sensitivity.calls", "count"),
    ("analysis.max_sensitivity.self_s", "s"),
    ("analysis.max_sensitivity.points_per_call", "points/call"),
    ("analysis.find_bias_point.self_s", "s"),
    ("analysis.perturbation_response.self_s", "s"),
    ("analysis.search.scalar_evals", "count"),
    ("analysis.sweep.evals_per_row", "evals/row"),
    ("devices.eval.calls", "count"),
    ("devices.eval.points", "count"),
    ("devices.eval.self_s", "s"),
    ("netlist.parse_netlist.calls", "count"),
    ("netlist.parse_netlist.self_s", "s"),
    ("netlist.close_netlist.calls", "count"),
    ("netlist.close_netlist.self_s", "s"),
    ("closure.close_network.calls", "count"),
    ("closure.close_network.self_s", "s"),
    ("closure.close_network.errors", "count"),
    ("closure.close_network.max_condition", "ratio"),
    ("closure.closed_ports.max", "count"),
    ("core.ScatteringMatrix.calls", "count"),
    ("core.ScatteringMatrix.self_s", "s"),
    ("core.check_unitary.calls", "count"),
    ("core.check_unitary.self_s", "s"),
    ("phase_expr.evaluate.calls", "count"),
    ("phase_expr.evaluate.self_s", "s"),
    ("phase_expr.parse.calls", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class Spans:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.err = array("b")
        self.x = array("d")
        self.y = array("d")
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.current_op = -1
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.t0)
        self.name.append(nid)
        self.op.append(self.current_op)
        self.parent.append(self._stack[-1])
        self.err.append(0)
        self.x.append(NAN)
        self.y.append(NAN)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def close(self, idx: int, failed: bool = False) -> None:
        self.t1[idx] = perf_counter()
        self._stack.pop()
        if failed:
            self.err[idx] = 1

    def wrap(self, name, fn, annotate=None):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, failed=True)
                raise
            self.close(idx)
            if annotate is not None:
                try:
                    self.x[idx], self.y[idx] = annotate(args, result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    pass
            return result

        traced._bench_traced = True
        return traced

    def count(self, name, fn):
        self.counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "t0": np.frombuffer(self.t0),
            "t1": np.frombuffer(self.t1),
            "err": np.frombuffer(self.err, dtype=np.int8),
            "x": np.frombuffer(self.x),
            "y": np.frombuffer(self.y),
        }

    def save(self, path, op_ids):
        np.savez(path, names=np.array(self.names), op_ids=np.array(op_ids),
                 **self.arrays())


def _annotate_sweep(args, curve):
    return NAN, float(len(curve.phi1))


def _annotate_closure(args, closed):
    S = args[0]
    return float(closed.closure_condition), float(S.n_ports - closed.effective.n_ports)


def _annotate_eval(args, result):
    return float(np.size(args[0])), NAN


def _replace_everywhere(original, replacement):
    """Point every multiport_lab module attribute holding `original` at `replacement`."""
    for modname, module in list(sys.modules.items()):
        if modname == "multiport_lab" or modname.startswith("multiport_lab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(spans: Spans) -> None:
    """Wrap the program's layer boundaries; call after importing multiport_lab."""
    mods = {}
    for short in ("cli", "analysis", "netlist", "closure", "core", "svg", "phase_expr"):
        try:
            mods[short] = importlib.import_module(f"multiport_lab.{short}")
        except ImportError:
            mods[short] = None
    annotations = {"analysis.sweep": _annotate_sweep,
                   "closure.close_network": _annotate_closure}
    for mod, attr, name in FUNCTIONS:
        fn = getattr(mods[mod], attr, None)
        if fn is None:
            spans.absent.append(name)
            continue
        _replace_everywhere(fn, spans.wrap(name, fn, annotations.get(name)))
    for mod, cls_name, method, name in METHODS:
        cls = getattr(mods[mod], cls_name, None)
        fn = getattr(cls, method, None) if cls is not None else None
        if fn is None:
            spans.absent.append(name)
            continue
        setattr(cls, method, spans.wrap(name, fn))
    for mod, cls_name, method, name in COUNTED:
        cls = getattr(mods[mod], cls_name, None)
        if cls is None or method not in vars(cls):
            spans.absent.append(name)
            continue
        setattr(cls, method, spans.count(name, vars(cls)[method]))
    _install_models(spans, mods["analysis"])


def _install_models(spans, analysis):
    DeviceModel = getattr(analysis, "DeviceModel", None)

    def wrap_model(model):
        if not isinstance(model, DeviceModel) or getattr(model.probabilities, "_bench_traced", False):
            return model
        fields = {"probabilities": spans.wrap("devices.eval", model.probabilities, _annotate_eval)}
        if getattr(model, "dT_dphi1", None) is not None:
            fields["dT_dphi1"] = spans.wrap("devices.eval", model.dT_dphi1, _annotate_eval)
        return dataclasses.replace(model, **fields)

    factories = [getattr(analysis, f, None) for f in MODEL_FACTORIES]
    if DeviceModel is None or None in factories or not dataclasses.is_dataclass(DeviceModel):
        spans.absent.append("devices.eval")
        return
    for factory in factories:
        @functools.wraps(factory)
        def wrapped(*args, _factory=factory, **kwargs):
            return wrap_model(_factory(*args, **kwargs))
        _replace_everywhere(factory, wrapped)


def _under(parent, name, target_ids, depth=64):
    """Mask of spans having an ancestor whose name id is in target_ids."""
    found = np.zeros(parent.shape, dtype=bool)
    anc = parent.copy()
    for _ in range(depth):
        live = anc >= 0
        if not live.any():
            break
        found[live] |= np.isin(name[anc[live]], target_ids)
        anc[live] = parent[anc[live]]
    return found


def layer_metrics(spans: Spans) -> dict[str, float]:
    """Per-layer calls, self time and work counts from the recorded spans."""
    a = spans.arrays()
    name, parent = a["name"], a["parent"]
    dur = a["t1"] - a["t0"]
    child = parent >= 0
    self_s = dur - np.bincount(parent[child], weights=dur[child], minlength=dur.size)

    def ids(*names):
        return [spans.name_id(n) for n in names]

    def mask(n):
        return name == spans.name_id(n)

    out = {}
    for layer in ("cli.main", "svg.line_chart", "analysis.max_sensitivity",
                  "analysis.find_bias_point", "analysis.perturbation_response",
                  "devices.eval", "netlist.parse_netlist", "netlist.close_netlist",
                  "closure.close_network", "core.ScatteringMatrix",
                  "core.check_unitary", "phase_expr.evaluate"):
        m = mask(layer)
        out[f"{layer}.calls"] = int(m.sum())
        out[f"{layer}.self_s"] = float(self_s[m].sum())
    evals = mask("devices.eval")
    points = np.nan_to_num(a["x"])
    out["devices.eval.points"] = int(points[evals].sum())
    in_max = evals & _under(parent, name, ids("analysis.max_sensitivity"))
    calls = out["analysis.max_sensitivity.calls"]
    out["analysis.max_sensitivity.points_per_call"] = (
        float(points[in_max].sum()) / calls if calls else 0.0)
    in_search = evals & _under(parent, name, ids(*SEARCH_SPANS))
    out["analysis.search.scalar_evals"] = int(np.sum(points[in_search] == 1))
    rows = float(np.nansum(a["y"][mask("analysis.sweep")]))
    in_sweep = evals & _under(parent, name, ids("analysis.sweep"))
    out["analysis.sweep.evals_per_row"] = float(points[in_sweep].sum()) / rows if rows else 0.0
    closes = mask("closure.close_network")
    out["closure.close_network.errors"] = int(a["err"][closes].sum())
    out["closure.close_network.max_condition"] = (
        float(np.nanmax(a["x"][closes])) if np.any(closes & ~np.isnan(a["x"])) else 0.0)
    out["closure.closed_ports.max"] = (
        int(np.nanmax(a["y"][closes])) if np.any(closes & ~np.isnan(a["y"])) else 0)
    out["phase_expr.parse.calls"] = spans.counts.get("phase_expr.parse", 0)
    return out
