"""Independent output checks for the benchmark's operations.

Nothing here imports multiport_lab: the closed forms are written out again
from the physics, and netlists are closed by a separate numpy implementation
of the feedback closure (dense solve, exact resolvent derivative, and the
truncated round-trip series with its error bound).  Every check returns a
list of problems; an empty list means the output passed.

Floating-point tolerances follow the conditioning of what is checked.  Near
the grover-michelson resonance (half-width ~ phi2**2) one ulp of phi1 moves T
by |slope| * ulp(phi1), so point checks accept any value the oracle takes
within a few ulps of the reported phi1.
"""

from __future__ import annotations

import ast
import json
import math
import operator

import numpy as np

TWO_PI = 2.0 * math.pi
#: 2*pi = TWO_PI + TWO_PI_LO exactly enough for argument reduction near 2*pi*k
TWO_PI_LO = 2.4492935982947064e-16
ULPS = 4
BIAS_TOL = 1e-9  # the CLI's bisection tolerance on |T - target|
SERIES_BOUND = 1e-12
SERIES_MAX_TRIPS = 5000


# --- closed forms ----------------------------------------------------------

def _reduce(x):
    """x - 2*pi*k in (-pi, pi], with 2*pi carried in two parts."""
    x = np.asarray(x, dtype=np.float64)
    k = np.round(x / TWO_PI)
    return (x - k * TWO_PI) - k * TWO_PI_LO


def _michelson(p1, p2):
    d = _reduce(np.asarray(p1) - np.asarray(p2))
    return np.sin(0.5 * d) ** 2, 0.5 * np.sin(d)


def _bs_cavity(p1, p2):
    s = _reduce(np.asarray(p1) + np.asarray(p2))
    den = 5.0 - 4.0 * np.cos(s)
    return 1.0 - 1.0 / den, 4.0 * np.sin(s) / den**2


def _grover_michelson(p1, p2):
    # T = N / D with N = 16 s1^2 s2^2, D = 4 a^2 + N, a = sin((p1+p2)/2),
    # s_j = sin(p_j/2); dT/dp1 = 64 s1 s2^3 a / D^2.  Reducing both phases
    # first keeps a accurate at the resonance, where p1 + p2 ~ 2*pi.
    r1, r2 = _reduce(p1), _reduce(p2)
    s1, s2 = np.sin(0.5 * r1), np.sin(0.5 * r2)
    a = np.sin(0.5 * (r1 + r2))
    n = 16.0 * (s1 * s2) ** 2
    d = 4.0 * a * a + n
    return n / d, 64.0 * s1 * s2**3 * a / d**2


CLOSED_FORMS = {
    "michelson": _michelson,
    "bs-cavity": _bs_cavity,
    "grover-michelson": _grover_michelson,
}


def closed_form(name, p1, p2):
    """(T, dT/dphi1) of a named device, vectorised over phi1."""
    return CLOSED_FORMS[name](np.asarray(p1, dtype=np.float64), p2)


def extrema(name, p2):
    """phi1 values (mod period) where dT/dphi1 changes sign, and the period."""
    if name == "michelson":
        return [p2], math.pi
    if name == "bs-cavity":
        return [-p2], math.pi
    # T = 1 / (1 + (sin(u + c) / sin(u))^2 / (4 sin^2 c)) with u = p1/2,
    # c = p2/2: the ratio is monotone in u between poles, so the only
    # extrema are T = 0 at p1 = 0 and T = 1 at p1 = -p2.
    return [0.0, -p2], TWO_PI


def _local_maxima(s, count):
    """Indices of the `count` largest local maxima of s."""
    peak = np.ones(s.size, dtype=bool)
    peak[1:] &= s[1:] >= s[:-1]
    peak[:-1] &= s[:-1] >= s[1:]
    idx = np.flatnonzero(peak)
    return idx[np.argsort(s[idx])[::-1][:count]]


def max_abs_slope(name, p2, peaks=4):
    """Global maximum of |dT/dphi1| over phi1, and the resonance half-width.

    Scans the whole period and, for grover-michelson, the resonance at
    phi1 = -phi2 (half-width ~ dist(phi2, 2*pi k)**2), then rescans the
    largest local maxima of each scan at a thousandth of its pitch.
    """
    dist = abs(math.remainder(p2, TWO_PI))
    width = max(dist * dist, 1e-300)
    spans = [(0.0, TWO_PI, 20001)]
    if name == "grover-michelson":
        centre = (-p2) % TWO_PI
        spans.append((centre - 10.0 * width, centre + 10.0 * width, 40001))
    best = 0.0
    for lo, hi, n in spans:
        x = np.linspace(lo, hi, n)
        s = np.abs(closed_form(name, x, p2)[1])
        pitch = x[1] - x[0]
        for k in _local_maxima(s, peaks):
            fine = np.linspace(x[k] - pitch, x[k] + pitch, 2001)
            best = max(best, float(np.max(np.abs(closed_form(name, fine, p2)[1]))))
    return best, width


def _ulp_span(f, x, k=ULPS):
    """(min, max) of f over the floats within k ulps of x."""
    xs = np.asarray(x, dtype=np.float64)
    steps = np.arange(-k, k + 1, dtype=np.float64) * np.spacing(abs(float(xs)))
    vals = np.asarray(f(xs + steps), dtype=np.float64)
    return float(vals.min()), float(vals.max())


def _within(value, span, tol):
    return span[0] - tol <= value <= span[1] + tol


# --- phase expressions and netlists ----------------------------------------

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}


def phase_value(expr, phi1, phi2):
    """Evaluate a netlist phase (number or + - * / expression over pi, phi1, phi2)."""
    if isinstance(expr, (int, float)):
        return float(expr)
    names = {"pi": math.pi, "phi1": phi1, "phi2": phi2}

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id in names:
            return names[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        raise ValueError(f"unsupported phase expression {expr!r}")

    return ev(ast.parse(expr, mode="eval"))


def _device_matrix(dev):
    kind = dev["kind"]
    if kind.startswith("grover("):
        d = int(kind[len("grover("):-1])
        m = np.full((d, d), 2.0 / d)
        np.fill_diagonal(m, 2.0 / d - 1.0)
        return m.astype(np.complex128)
    s = 1.0 / math.sqrt(2.0)
    if kind == "beamsplitter4":
        return np.array([[0, 0, s, s], [0, 0, s, -s],
                         [s, s, 0, 0], [s, -s, 0, 0]], dtype=np.complex128)
    if kind == "hadamard2":
        return np.array([[s, s], [s, -s]], dtype=np.complex128)
    if kind == "matrix":
        return np.array([[complex(*e) if isinstance(e, list) else complex(e)
                          for e in row] for row in dev["matrix"]])
    raise ValueError(f"unknown device kind {kind!r}")


class NetlistOracle:
    """Feedback closure of a netlist document, independent of the program."""

    def __init__(self, doc):
        mats, labels = [], []
        for dev in doc["devices"]:
            m = _device_matrix(dev)
            mats.append(m)
            names = dev.get("labels") or [f"p{i + 1}" for i in range(m.shape[0])]
            labels += [f"{dev['id']}.{lbl}" for lbl in names]
        n = len(labels)
        self.S = np.zeros((n, n), dtype=np.complex128)
        at = 0
        for m in mats:
            k = m.shape[0]
            self.S[at:at + k, at:at + k] = m
            at += k
        index = {lbl: i for i, lbl in enumerate(labels)}
        # feedback entries: (row port, column port, phase expr, sign, one-way)
        self.entries = []
        for seal in doc.get("seals", []):
            p = index[f"{seal['device']}.{seal['port']}"]
            sign = -1.0 if seal.get("mirror", True) else 1.0
            self.entries.append((p, p, seal["phase"], sign, 1.0))
        for link in doc.get("links", []):
            a, b = index[link["port_a"]], index[link["port_b"]]
            phase = link.get("round_trip_phase", "0")
            self.entries += [(a, b, phase, 1.0, 0.5), (b, a, phase, 1.0, 0.5)]
        closed = sorted({e[0] for e in self.entries})
        self.closed = closed
        self.pos = {p: k for k, p in enumerate(closed)}
        if "open_ports" in doc:
            self.open = [index[p] for p in doc["open_ports"]]
        else:
            self.open = [i for i in range(n) if i not in self.pos]
        self.open_labels = [labels[i] for i in self.open]
        ix = np.ix_
        self.S_oo = self.S[ix(self.open, self.open)]
        self.S_oc = self.S[ix(self.open, closed)]
        self.S_co = self.S[ix(closed, self.open)]
        self.S_cc = self.S[ix(closed, closed)]

    @classmethod
    def from_file(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def feedback(self, phi1, phi2):
        """F and dF/dphi1, stacked over a phi1 array."""
        phi1 = np.atleast_1d(np.asarray(phi1, dtype=np.float64))
        c = len(self.closed)
        F = np.zeros((phi1.size, c, c), dtype=np.complex128)
        dF = np.zeros_like(F)
        for row, col, expr, sign, share in self.entries:
            theta = np.array([phase_value(expr, x, phi2) for x in phi1])
            # phases are affine in phi1, so a unit central difference is exact
            dtheta = 0.5 * (phase_value(expr, 1.0, phi2) - phase_value(expr, -1.0, phi2))
            amp = sign * np.exp(1j * share * theta)
            F[:, self.pos[row], self.pos[col]] = amp
            dF[:, self.pos[row], self.pos[col]] = 1j * share * dtheta * amp
        return F, dF

    def close(self, phi1, phi2):
        """Effective matrices, dS/dphi1 and cond(I - S_cc F), stacked over phi1."""
        F, dF = self.feedback(phi1, phi2)
        eye = np.eye(len(self.closed))
        A = eye - self.S_cc @ F
        X = np.linalg.solve(A, np.broadcast_to(self.S_co, A.shape[:1] + self.S_co.shape))
        S_eff = self.S_oo + self.S_oc @ (F @ X)
        # d(F A^-1) = (I - F S_cc)^-1 dF A^-1: the resolvent identity
        dS = self.S_oc @ np.linalg.solve(eye - F @ self.S_cc, dF @ X)
        return S_eff, dS, np.linalg.cond(A)

    def transmission(self, phi1, phi2):
        """(T, dT/dphi1) for input at the first open port, over a phi1 array."""
        S_eff, dS, cond = self.close(phi1, phi2)
        col, dcol = S_eff[:, 1:, 0], dS[:, 1:, 0]
        T = np.sum(np.abs(col) ** 2, axis=1)
        dT = 2.0 * np.sum((col.conj() * dcol).real, axis=1)
        return T, dT, cond

    def series(self, phi1, phi2):
        """Round-trip series closure to within SERIES_BOUND, or None when the
        proven bound 2 rho^(N+1) / (1 - rho) needs more than SERIES_MAX_TRIPS."""
        F = self.feedback(phi1, phi2)[0][0]
        loop = self.S_cc @ F
        rho = float(np.max(np.abs(np.linalg.eigvals(loop)))) if len(self.closed) else 0.0
        if rho >= 1.0:
            return None, rho
        trips = 0
        if rho > 0.0:
            trips = max(0, math.ceil(math.log(SERIES_BOUND * (1 - rho) / 2) / math.log(rho)) - 1)
        if trips > SERIES_MAX_TRIPS:
            return None, rho
        total = self.S_oo.copy()
        reaching = self.S_co
        for _ in range(trips + 1):
            fed = F @ reaching
            total += self.S_oc @ fed
            reaching = self.S_cc @ fed
        return total, rho


# --- output parsers ----------------------------------------------------------

def read_csv(path, header):
    with open(path, "rb") as fh:
        data = fh.read()
    first, _, body = data.partition(b"\n")
    if first.decode() != header:
        raise ValueError(f"header {first!r}, expected {header!r}")
    cols = header.count(",") + 1
    values = np.array(body.replace(b"\n", b",").split(b",")[:-1], dtype=np.float64)
    if values.size % cols or not data.endswith(b"\n"):
        raise ValueError("ragged CSV")
    return values.reshape(-1, cols)


def _close(a, b, atol, rtol=0.0):
    """Largest violation of |a - b| <= atol + rtol |b|, or 0."""
    excess = np.abs(a - b) - (atol + rtol * np.abs(b))
    return float(max(0.0, np.max(excess))) if np.size(excess) else 0.0


# --- per-operation checks ---------------------------------------------------

def check_sweep(spec, stdout):
    """CSV of a sweep against a closed form or the netlist oracle."""
    rows = read_csv(spec["csv"], "phi1,R,T,dT_dphi1")
    phi1, R, T, dT = rows.T
    want = np.linspace(*spec["grid"])
    problems = []
    if phi1.shape != want.shape or _close(phi1, want, 1e-12):
        return [f"phi1 grid differs from linspace{tuple(spec['grid'])}"]
    # the CLI's slope is a 5-point difference with h = 1e-6: rounding in T,
    # which a netlist closure amplifies by its condition number, over 12h
    if spec.get("model"):
        T_o, dT_o = closed_form(spec["model"], phi1, spec["phi2"])
        dT_atol = 1e-6
    else:
        T_o, dT_o, cond = NetlistOracle.from_file(spec["netlist"]).transmission(phi1, spec["phi2"])
        dT_atol = 1e-6 + 2e-10 * np.max(cond)
    if bad := _close(T, T_o, 1e-9):
        problems.append(f"T off the oracle by {bad:.3g} beyond 1e-9")
    if bad := _close(R, 1.0 - T_o, 1e-9):
        problems.append(f"R off 1 - T by {bad:.3g} beyond 1e-9")
    if bad := _close(dT, dT_o, dT_atol, 1e-6):
        problems.append(f"dT_dphi1 off the oracle by {bad:.3g} beyond tolerance")
    return problems


def check_sensitivity(spec, stdout):
    rows = read_csv(spec["csv"], "phi2,max_slope_gm,max_slope_michelson,argmax_phi1")
    start, stop, count = spec["grid"]
    k_left = (count + 1) // 2
    left = np.geomspace(start, math.pi, k_left)
    right = TWO_PI - np.geomspace(TWO_PI - stop, math.pi, count - k_left + 1)
    want = np.concatenate([left, np.sort(right[:-1])])
    phi2, gm, mich, argmax = rows.T
    if phi2.shape != want.shape or _close(phi2, want, 0.0, 1e-12):
        return ["phi2 column differs from the log-edges grid"]
    problems = []
    if bad := _close(mich, np.full_like(mich, 0.5), 1e-9):
        problems.append(f"michelson max slope off 1/2 by {bad:.3g}")
    for p2, s, x in zip(phi2.tolist(), gm.tolist(), argmax.tolist()):
        span = _ulp_span(lambda v: np.abs(closed_form("grover-michelson", v, p2)[1]), x)
        if not _within(s, span, 1e-7 * s):
            problems.append(f"phi2={p2!r}: max slope {s!r} is not |dT/dphi1| at "
                            f"argmax {x!r} (oracle {span[0]!r}..{span[1]!r})")
        # the maximum is global: a few ulps of phi1 inside the resonance
        # half-width is as close as float phases can place it
        best, width = max_abs_slope("grover-michelson", p2)
        rtol = 1e-7 + ULPS * np.spacing(TWO_PI) / width
        if s < best * (1.0 - rtol):
            problems.append(f"phi2={p2!r}: max slope {s!r} is {1 - s / best:.3g} below "
                            f"the global maximum {best!r}")
    return problems


def _parse_bias(stdout):
    lines = stdout.splitlines()
    fields = {}
    table = []
    for line in lines:
        if " = " in line:
            key, value = line.split(" = ")
            fields[key] = float(value)
        elif line and line[0] in "-0123456789" and "," in line:
            delta, dT, flag = line.split(",")
            table.append((float(delta), float(dT), flag == "true"))
    return fields, table


def check_bias(spec, stdout):
    model, phi2, target = spec["model"], spec["phi2"], spec["target"]
    fields, table = _parse_bias(stdout)
    if not {"phi1", "phi2", "T", "slope"} <= set(fields):
        return ["bias output lacks phi1/phi2/T/slope"]
    problems = []
    x = fields["phi1"]
    if _close(fields["phi2"], phi2, 0.0, 1e-15):
        problems.append(f"reported phi2 {fields['phi2']!r} is not {phi2!r}")

    def T_of(v):
        return closed_form(model, v, phi2)[0]

    T_span = _ulp_span(T_of, x)
    if not _within(target, T_span, BIAS_TOL):
        problems.append(f"T(phi1={x!r}) = {T_span} misses target {target} by more "
                        f"than max({BIAS_TOL}, |slope| ulp)")
    if not _within(fields["T"], T_span, BIAS_TOL):
        problems.append(f"reported T {fields['T']!r} is not T(phi1) = {T_span}")
    s_span = _ulp_span(lambda v: closed_form(model, v, phi2)[1], x)
    s_tol = 1e-6 * max(1.0, abs(fields["slope"]))
    if not _within(fields["slope"], s_span, s_tol):
        problems.append(f"reported slope {fields['slope']!r} is not dT/dphi1 = {s_span}")
    if len(table) != len(spec["deltas"]):
        return problems + [f"{len(table)} perturbation rows for {len(spec['deltas'])} deltas"]
    points, period = extrema(model, phi2)
    for (delta, dT, saturated), want_delta in zip(table, spec["deltas"]):
        if _close(delta, want_delta, 0.0, 1e-15):
            problems.append(f"perturbation row {delta!r} is not delta {want_delta!r}")
            continue
        shifted = x + delta
        d_span = _ulp_span(T_of, shifted)
        dT_lo = d_span[0] - T_span[1]
        dT_hi = d_span[1] - T_span[0]
        if not dT_lo - 1e-9 <= dT <= dT_hi + 1e-9:
            problems.append(f"delta={delta!r}: dT {dT!r} outside oracle [{dT_lo!r}, {dT_hi!r}]")
        # saturated iff an extremum of T lies inside [x, x + delta]; an
        # extremum within the scan pitch of either end may go either way
        a, b = sorted((x, shifted))
        margin = 2e-3 * abs(delta) + 1e-8
        inside = edge = False
        for e in points:
            k0 = math.ceil((a - margin - e) / period)
            for k in range(k0, k0 + int((b - a + 2 * margin) / period) + 2):
                p = e + k * period
                if a + margin < p < b - margin:
                    inside = True
                elif a - margin <= p <= b + margin:
                    edge = True
        if (inside or not edge) and saturated != inside:
            problems.append(f"delta={delta!r}: saturated={saturated} but an extremum "
                            f"{'is' if inside else 'is not'} crossed")
    return problems


def _parse_smatrix(stdout):
    lines = stdout.splitlines()
    labels = lines[0].split()[1:]
    n = len(labels)
    m = np.array([[float(v) for v in line.split()] for line in lines[1:1 + n]])
    matrix = m[:, 0::2] + 1j * m[:, 1::2]
    tail = dict(line.split(": ") for line in lines[1 + n:])
    return labels, matrix, float(tail["closure condition"])


def check_smatrix(spec, stdout):
    labels, S, cond = _parse_smatrix(stdout)
    oracle = NetlistOracle.from_file(spec["netlist"])
    p1, p2 = spec["phi1"], spec["phi2"]
    if labels != oracle.open_labels:
        return [f"open ports {labels} differ from {oracle.open_labels}"]
    problems = []
    S_o, _, cond_o = oracle.close(p1, p2)
    S_o, cond_o = S_o[0], float(cond_o[0])
    # printed with 15 significant digits; the solve itself loses ~cond eps
    tol = 1e-14 + 1e-15 * cond_o
    if bad := _close(S, S_o, tol):
        problems.append(f"matrix off the oracle closure by {bad:.3g} beyond {tol:.3g}")
    deviation = float(np.max(np.abs(S.conj().T @ S - np.eye(len(labels)))))
    if deviation > 1e-12 + 1e-15 * cond_o:
        problems.append(f"effective matrix not unitary (deviation {deviation:.3g})")
    if abs(cond - cond_o) > 1e-4 * cond_o + 1e-15 * cond_o**2:
        problems.append(f"closure condition {cond!r} differs from {cond_o!r}")
    series, _ = oracle.series(p1, p2)
    if series is not None and (bad := _close(S, series, 100 * SERIES_BOUND + 1e-14)):
        problems.append(f"matrix off the round-trip series by {bad:.3g}")
    if spec.get("model"):
        T_o = float(closed_form(spec["model"], p1, p2)[0])
        T = float(np.sum(np.abs(S[1:, 0]) ** 2))
        if abs(T - T_o) > 1e-12:
            problems.append(f"T = {T!r} differs from the closed form {T_o!r}")
    return problems


CHECKS = {
    "sweep": check_sweep,
    "sensitivity": check_sensitivity,
    "bias": check_bias,
    "smatrix": check_smatrix,
}


def check(spec, stdout):
    """Problems with one operation's output (empty list when it passes)."""
    try:
        return CHECKS[spec["type"]](spec, stdout)
    except (ValueError, KeyError, IndexError, OSError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
