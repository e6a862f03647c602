"""Sweeps, slope/sensitivity estimation, and bias-point calibration.

The central quantity is the sensitivity |dT/dphi1| of a transmission curve at
fixed phi2: its maximum over phi1 measures how steeply a device can respond
to a small phase perturbation.  For the grover-michelson device that maximum
grows without bound as phi2 approaches a multiple of 2*pi, while the plain
michelson stays pinned at 1/2; `solve_phi2_for_sensitivity` inverts that
relationship to pick an operating phi2 for a requested sensitivity.

Every device carries its exact dT/dphi1: the closed forms differentiate
their formulas, and a netlist device differentiates the closure itself with
the resolvent identity, so no derivative here is a finite difference.

Every device also carries its closure (a closed form that of its built-in
netlist), whose pole places each resonance in phi1 and gives its half-width
w (~ phi2**2 for the grover-michelson): the searches resolve every scale
around it on top of one fixed grid.  Without a pole the grid searches alone.

Everything here is deterministic: fixed grids, fixed iteration counts, no
randomness.  Devices are referenced by registry name ("michelson",
"bs-cavity", "grover-single-seal", "grover-michelson"), by a parsed
`Netlist`, or by an explicit `DeviceModel`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .devices import (
    Probabilities,
    bs_cavity_dT_dphi1,
    bs_cavity_probabilities,
    grover_michelson_dT_dphi1,
    grover_michelson_probabilities,
    grover_single_seal_dT_dphi1,
    grover_single_seal_probabilities,
    michelson_dT_dphi1,
    michelson_probabilities,
)
from .errors import DegeneratePhaseError, TargetUnreachableError, ValidationError
from .closure import CompiledClosure
from .netlist import Netlist, builtin_netlist, compile_netlist

TWO_PI = 2.0 * math.pi

COARSE_POINTS = 1024
ZOOM_POINTS = 4096
GOLDEN_TOL = 1e-9
BISECT_TOL = 1e-9
#: zoom cascades stop once the grid pitch is below this
ZOOM_PITCH = 1e-9
#: slopes below this are indistinguishable from evaluation roundoff
SLOPE_NOISE_FLOOR = 1e-9
#: largest grid `GridSpec` builds (2^22): `sweep` holds four float64
#: columns of this length, 32 MiB each; `sweep_blocks` one block at a time
MAX_GRID_POINTS = 2 ** 22
#: samples per block of `sweep_blocks`: the chart's `svg._POINTS_PER_BLOCK`,
#: so a chart folded in block by block keeps the samples of whole arrays
SWEEP_BLOCK = 4096


# --- device models ---------------------------------------------------------

@dataclass(frozen=True)
class DeviceModel:
    """Evaluatable device: vectorized (phi1, phi2) -> (R, T), plus the exact
    derivative dT/dphi1 with the same signature.  closure, when set, returns
    the device's `CompiledClosure`, off whose pole the searches read phi1's
    resonances; curve, when set, gives R, T and dT/dphi1 stacked on a
    leading axis from one evaluation.
    """

    device_id: str
    probabilities: Callable[..., Probabilities]
    dT_dphi1: Callable[..., np.ndarray]
    closure: Optional[Callable[[], CompiledClosure]] = None
    curve: Optional[Callable[..., np.ndarray]] = None


@functools.cache
def _builtin_closure(name: str) -> CompiledClosure:
    # compiled on first use: importing the package parses no netlist
    return compile_netlist(builtin_netlist(name))


#: closed forms, each attached to the built-in netlist of its name
_MODELS = {name: DeviceModel(name, *forms, functools.partial(_builtin_closure, name))
           for name, forms in {
    "michelson": (michelson_probabilities, michelson_dT_dphi1),
    "bs-cavity": (bs_cavity_probabilities, bs_cavity_dT_dphi1),
    "grover-single-seal": (grover_single_seal_probabilities, grover_single_seal_dT_dphi1),
    "grover-michelson": (grover_michelson_probabilities, grover_michelson_dT_dphi1),
}.items()}

MODEL_NAMES = tuple(sorted(_MODELS))

DeviceLike = Union[str, Netlist, DeviceModel]


def netlist_device(netlist: Netlist, device_id: str = "netlist") -> DeviceModel:
    """Wrap a netlist as a sweepable device.

    Input enters the first open port; R is the probability of exiting back out
    of it and T the total probability over the remaining open ports.  phi1 and
    phi2 are bound to any matching free symbols in the netlist's phases.  The
    netlist is compiled once and reduced once per phi2
    (`CompiledClosure.reduction`).  A phi1 grid then closes just the loops
    that carry phi1, `Reduction.stack_size` samples at a time so that each
    stack's r-sized arrays stay within `closure.STACK_BYTES` (64 KiB).  One
    pass gives R, T and the exact dT/dphi1 = 2 Re sum_{i>=1} conj(s_i0)
    ds_i0, and a point gets the same bits alone as inside a grid.
    """
    closure = compile_netlist(netlist)

    def evaluate(phi1, phi2, slope: bool = True) -> np.ndarray:
        """R, T and (if slope) dT/dphi1 stacked on a leading axis."""
        grid = np.asarray(phi1, dtype=np.float64)
        flat = grid.reshape(-1)
        out = np.empty((3 if slope else 2, flat.size))
        reduced = closure.reduction({"phi2": float(phi2)})
        stack = reduced.stack_size
        for at in range(0, flat.size, stack):
            b = {"phi1": flat[at:at + stack], "phi2": float(phi2)}
            S, dS = closure.solve(lambda p: p.evaluate(b),
                                  (lambda p: p.derivative("phi1", b)) if slope else None, reduced)
            # |s_i0|^2 and Re(conj(s_i0) ds_i0) in real arithmetic, which
            # rounds alike in every SIMD lane
            re, im = S[..., :, 0].real, S[..., :, 0].imag
            rows = [re[..., 0] ** 2 + im[..., 0] ** 2,
                    np.sum(re[..., 1:] ** 2 + im[..., 1:] ** 2, axis=-1)]
            if slope:
                ds = dS[..., 1:, 0]
                rows.append(2.0 * np.sum(re[..., 1:] * ds.real + im[..., 1:] * ds.imag, axis=-1))
            for row, value in zip(out, rows):  # broadcasts if no phase has phi1
                row[at:at + stack] = value
        return out.reshape(out.shape[:1] + grid.shape)

    def probabilities(phi1, phi2):
        R, T = evaluate(phi1, phi2, False)
        return Probabilities(R=R[()], T=T[()])

    return DeviceModel(device_id=device_id, probabilities=probabilities,
                       dT_dphi1=lambda phi1, phi2: evaluate(phi1, phi2)[2][()],
                       closure=lambda: closure, curve=evaluate)


def resolve_device(device: DeviceLike) -> DeviceModel:
    """Registry name, Netlist, or DeviceModel -> DeviceModel."""
    if isinstance(device, DeviceModel):
        return device
    if isinstance(device, Netlist):
        return netlist_device(device)
    if isinstance(device, str):
        try:
            return _MODELS[device]
        except KeyError:
            raise ValidationError(
                f"unknown device {device!r}; registered: {', '.join(MODEL_NAMES)}"
            ) from None
    raise ValidationError(f"cannot interpret {device!r} as a device")


# --- result types ----------------------------------------------------------

class GridSpec(NamedTuple):
    """Inclusive linear grid start..stop with `count` points, 2 to
    `MAX_GRID_POINTS`."""

    start: float
    stop: float
    count: int

    def checked(self) -> "GridSpec":
        """self, or ValidationError if count or bounds are out of range."""
        if not 2 <= self.count <= MAX_GRID_POINTS:
            raise ValidationError(
                f"grid needs 2 to {MAX_GRID_POINTS} points, got {self.count}")
        if not self.stop > self.start:
            raise ValidationError(
                f"grid stop must exceed start, got [{self.start}, {self.stop}]"
            )
        if not math.isfinite(self.stop - self.start):
            raise ValidationError(
                f"grid span stop - start overflows, got [{self.start}, {self.stop}]"
            )
        return self

    def values(self) -> np.ndarray:
        """The grid's points; refuses a bad grid before allocating it."""
        return self.checked().block(0, self.count)

    def block(self, i: int, j: int) -> np.ndarray:
        """Points i to j - 1 of a checked grid, bit for bit those of
        np.linspace(start, stop, count): its arithmetic on that slice."""
        x = np.arange(i, j, dtype=np.float64)
        delta = self.stop - self.start
        step = delta / (self.count - 1)
        if step == 0.0:  # linspace's branch for a span of subnormals
            x /= self.count - 1
            x *= delta
        else:
            x *= step
        x += self.start
        if j == self.count:
            x[-1] = self.stop
        return x


@dataclass(frozen=True, eq=False)
class SweepCurve:
    """Transmission curve at fixed phi2: parallel arrays over the phi1 grid.

    Invariants (checked): phi1 strictly increasing, R + T = 1 within 1e-10;
    so phi1, R and T hold no NaN.
    """

    device_id: str
    phi2: float
    phi1: np.ndarray
    R: np.ndarray
    T: np.ndarray
    dT_dphi1: np.ndarray

    def __post_init__(self):
        for name in ("phi1", "R", "T", "dT_dphi1"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.phi1.shape[0]
        if any(getattr(self, name).shape != (n,) for name in ("R", "T", "dT_dphi1")):
            raise ValidationError("sweep arrays must share one length")
        # no full-length temporaries but one scratch column: grids reach
        # MAX_GRID_POINTS; the tests are negated so that a NaN fails them
        if not np.all(self.phi1[1:] > self.phi1[:-1]):
            raise ValidationError("sweep grid must be strictly increasing in phi1")
        scratch = np.add(self.R, self.T)
        scratch -= 1.0
        worst = float(np.max(np.abs(scratch, out=scratch)))
        if not worst <= 1e-10:
            raise ValidationError(f"R + T deviates from 1 by {worst:.3e}")


class ProfilePoint(NamedTuple):
    phi2: float
    max_abs_slope: float
    argmax_phi1: float


@dataclass(frozen=True)
class SensitivityProfile:
    """max |dT/dphi1| (over phi1) as a function of phi2, for one device."""

    device_id: str
    points: tuple[ProfilePoint, ...]


@dataclass(frozen=True)
class BiasPoint:
    """Operating point: phases, transmission there, and the local slope."""

    phi1: float
    phi2: float
    T: float
    slope: float


class PerturbationResponse(NamedTuple):
    delta_T: float
    saturated: bool


# --- derivatives -----------------------------------------------------------

def slope(device: DeviceLike, phi1: float, phi2: float) -> float:
    """Exact dT/dphi1 at a point."""
    return float(resolve_device(device).dT_dphi1(phi1, phi2))


# --- sweeps ----------------------------------------------------------------

def sweep_blocks(device: DeviceLike, phi2: float, grid: GridSpec) -> Iterator[SweepCurve]:
    """R, T, dT/dphi1 over a phi1 grid at fixed phi2, as consecutive
    `SweepCurve`s of `SWEEP_BLOCK` samples, each evaluated and checked when
    it is asked for, so memory stays one block's.  phi1 must also increase
    strictly from each block into the next (same message)."""
    model = resolve_device(device)
    count = grid.checked().count
    last = -math.inf
    for i in range(0, count, SWEEP_BLOCK):
        phi1 = grid.block(i, min(i + SWEEP_BLOCK, count))
        if model.curve is not None:
            R, T, dT = model.curve(phi1, phi2)
        else:
            dT = model.dT_dphi1(phi1, phi2)
            R, T = model.probabilities(phi1, phi2)
        if not phi1[0] > last:
            raise ValidationError("sweep grid must be strictly increasing in phi1")
        last = phi1[-1]
        # a device with no phi1 dependence may give R and T unbroadcast
        yield SweepCurve(model.device_id, float(phi2), phi1, np.broadcast_to(R, phi1.shape),
                         np.broadcast_to(T, phi1.shape), dT)


def sweep(device: DeviceLike, phi2: float, grid: GridSpec) -> SweepCurve:
    """Evaluate R, T, dT/dphi1 over a phi1 grid at fixed phi2: the blocks of
    `sweep_blocks`, gathered into whole columns."""
    model = resolve_device(device)
    columns = np.empty((4, grid.checked().count))
    for at, block in zip(range(0, grid.count, SWEEP_BLOCK), sweep_blocks(model, phi2, grid)):
        columns[:, at:at + SWEEP_BLOCK] = (block.phi1, block.R, block.T, block.dT_dphi1)
    return SweepCurve(model.device_id, float(phi2), *columns)


# --- resonances ------------------------------------------------------------

def _resonances(model: DeviceModel, phi2: float, lo: float,
                hi: float) -> list[tuple[float, float]]:
    """(centre, half-width) of the model's pole resonances in phi1, from the
    last centre at or below lo to the first at or above hi."""
    pole = None if model.closure is None else model.closure().phi1_pole({"phi2": float(phi2)})
    if pole is None:
        return []
    c, w, p = pole
    return [(c + k * p, w) for k in range(math.floor((lo - c) / p), math.ceil((hi - c) / p) + 1)]


def _search_grid(lo: float, hi: float, features) -> np.ndarray:
    """Sorted samples of [lo, hi]: a uniform grid plus, around each feature
    (centre c, width w), the offsets c +- w*2^(k/8), which cover every scale
    from w out to the far end of the interval."""
    parts = [np.linspace(lo, hi, COARSE_POINTS + 1)]
    for c, w in features:
        octaves = math.log2(max(abs(c - lo), abs(c - hi), w) / w)
        offsets = w * 2.0 ** (np.arange(math.ceil(8.0 * octaves) + 1) / 8.0)
        parts += [[c], c - offsets, c + offsets]
    # sorted(), not np.sort: that pages in ~0.4 MB of SIMD sort code
    x = np.array(sorted(np.concatenate(parts).tolist()))
    return x[(x >= lo) & (x <= hi)]


def _golden_max(f: Callable[[float], float], lo: float, hi: float,
                tol: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal f on [lo, hi]."""
    tol = max(tol, 4.0 * math.ulp(max(abs(lo), abs(hi))))  # else never met
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    if fc > fd:
        return c, fc
    return d, fd


# --- sensitivity maximization ----------------------------------------------

def max_sensitivity(device: DeviceLike, phi2: float) -> tuple[float, float]:
    """Global maximum of |dT/dphi1| over phi1 in [0, 2*pi] at fixed phi2,
    as (argmax_phi1, max_abs_slope).

    A fixed coarse grid, zoom rescans around its best cell down to a 1e-9
    pitch and a golden section find the background's maximum.  Each pole
    resonance (centre c, half-width w) adds a golden section of each flank,
    [c - 4w, c] and [c, c + 4w], to 1e-6 w: |dT/dphi1| peaks once on each,
    about w/sqrt(3) from c, however narrow w is.  The best of these wins.
    """
    model = resolve_device(device)
    lo, hi, n, x_best, s_best = 0.0, TWO_PI, COARSE_POINTS, 0.0, -1.0
    while True:
        x = np.linspace(lo, hi, n + 1)
        s = np.abs(model.dT_dphi1(x, phi2))
        k = int(np.argmax(s))
        if s[k] > s_best:
            x_best, s_best = float(x[k]), float(s[k])
        pitch = (hi - lo) / n
        if pitch <= ZOOM_PITCH:
            break
        lo, hi, n = x_best - pitch, x_best + pitch, ZOOM_POINTS

    brackets = [(x_best - pitch, x_best + pitch, GOLDEN_TOL)]
    for c, w in _resonances(model, phi2, 0.0, TWO_PI):
        if 0.0 <= c <= TWO_PI:
            brackets += [(c - 4.0 * w, c, 1e-6 * w), (c, c + 4.0 * w, 1e-6 * w)]
    for lo, hi, tol in brackets:
        gx, gs = _golden_max(lambda x: float(np.abs(model.dT_dphi1(x, phi2))), lo, hi, tol)
        if gs > s_best:
            x_best, s_best = gx, gs
    return x_best % TWO_PI, s_best


def sensitivity_profile(device: DeviceLike,
                        phi2_values: Sequence[float]) -> SensitivityProfile:
    """max_sensitivity at each phi2, collected into a profile."""
    model = resolve_device(device)
    points = []
    for p2 in phi2_values:
        x, s = max_sensitivity(model, float(p2))
        points.append(ProfilePoint(phi2=float(p2), max_abs_slope=s, argmax_phi1=x))
    return SensitivityProfile(device_id=model.device_id, points=tuple(points))


# --- bias calibration ------------------------------------------------------

def _bisect_T(model: DeviceModel, phi2: float, target: float,
              a: float, b: float, tol: float) -> float:
    """Bisection for T(phi1) = target on [a, b], where T(a), T(b) straddle it.

    `tol` bounds the residual in T, not the interval width; iteration stops
    early only when the bracket collapses to float resolution.
    """
    Ta = float(model.probabilities(a, phi2).T)
    sign = 1.0 if Ta <= target else -1.0
    mid = 0.5 * (a + b)
    while True:
        Tm = float(model.probabilities(mid, phi2).T)
        if abs(Tm - target) <= tol:
            return mid
        if sign * (Tm - target) <= 0.0:
            a = mid
        else:
            b = mid
        nxt = 0.5 * (a + b)
        if nxt == a or nxt == b:  # bracket at float resolution
            return nxt
        mid = nxt


def find_bias_point(device: DeviceLike, phi2: float, target_T: float,
                    *, tol: float = BISECT_TOL) -> BiasPoint:
    """phi1 with T(phi1, phi2) = target_T, preferring the steep monotone
    segment through the max-|slope| point (the natural readout region).

    The crossing is read off the search grid, with T's refined extremes
    added: the samples through the steepest point along which T keeps its
    slope sign there (a tie too) are the segment.  The step where they cross
    the target is bisected, else the grid's first crossing.

    Raises ValidationError for a NaN target, and TargetUnreachableError when
    the target lies outside the curve's range at this phi2.
    """
    model = resolve_device(device)
    target = float(target_T)
    if math.isnan(target):
        raise ValidationError("target T must be a number, got nan")

    # Attainable range: a grid resolving every scale around the resonances
    # and the steepest point, its extreme samples refined between neighbours.
    x_star, _ = max_sensitivity(model, phi2)
    grid = _search_grid(0.0, TWO_PI, _resonances(model, phi2, 0.0, TWO_PI) + [(x_star, GOLDEN_TOL)])
    T_grid = np.broadcast_to(model.probabilities(grid, phi2).T, grid.shape)
    for sign in (1.0, -1.0):
        k = int(np.argmax(sign * T_grid))
        a, b = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
        x, sT = _golden_max(lambda x: sign * float(model.probabilities(x, phi2).T),
                            a, b, 1e-6 * (b - a))
        at = np.searchsorted(grid, x)
        grid, T_grid = np.insert(grid, at, x), np.insert(T_grid, at, sign * sT)
    t_lo, t_hi = float(np.min(T_grid)), float(np.max(T_grid))
    if not (t_lo - tol <= target <= t_hi + tol):
        raise TargetUnreachableError(
            f"target T={target!r} outside attainable range "
            f"[{t_lo:.6g}, {t_hi:.6g}] at phi2={phi2!r}"
        )
    goal = min(max(target, t_lo), t_hi)

    # the segment runs between the steps against x_star's slope (turns)
    i = int(np.searchsorted(grid, x_star))
    turns = np.nonzero(np.diff(T_grid) * model.dT_dphi1(x_star, phi2) < 0.0)[0]
    start, stop = turns[turns < i].max(initial=-1) + 1, turns[turns >= i].min(initial=grid.size)
    crossed = np.nonzero((T_grid[:-1] - goal) * (T_grid[1:] - goal) <= 0.0)[0]
    on_run = crossed[(crossed >= start) & (crossed < stop)]
    k = int(on_run[0] if on_run.size else crossed[0])
    phi1 = _bisect_T(model, phi2, goal, float(grid[k]), float(grid[k + 1]), tol) % TWO_PI
    return BiasPoint(phi1, float(phi2), float(model.probabilities(phi1, phi2).T),
                     float(model.dT_dphi1(phi1, phi2)))


def perturbation_response(device: DeviceLike, bias: BiasPoint,
                          delta: float) -> PerturbationResponse:
    """Transmittance change when phi1 shifts by delta from the bias point.

    saturated reports whether dT/dphi1 changes sign anywhere on the traversed
    interval, sampled on a grid that resolves every scale around the
    resonances: if it does, the operating point crossed an extremum and the
    readout no longer maps |delta T| back to a unique delta.  T repeats with
    the pole's period, so at most one period from the bias point is sampled.
    """
    if delta == 0.0:
        return PerturbationResponse(delta_T=0.0, saturated=False)
    model = resolve_device(device)
    T0 = float(model.probabilities(bias.phi1, bias.phi2).T)
    T1 = float(model.probabilities(bias.phi1 + delta, bias.phi2).T)
    pole = None if model.closure is None else model.closure().phi1_pole({"phi2": float(bias.phi2)})
    span = delta if pole is None else math.copysign(min(abs(delta), pole[2]), delta)
    lo, hi = sorted((bias.phi1, bias.phi1 + span))
    grid = _search_grid(lo, hi, _resonances(model, bias.phi2, lo, hi))
    s = model.dT_dphi1(grid, bias.phi2)
    saturated = bool(np.any(s > SLOPE_NOISE_FLOOR) and np.any(s < -SLOPE_NOISE_FLOOR))
    return PerturbationResponse(delta_T=T1 - T0, saturated=saturated)


# --- sensitivity-targeted tuning -------------------------------------------

def solve_phi2_for_sensitivity(target_slope: float, *, tol: float = 1e-6,
                               phi2_floor: float = 1e-8) -> float:
    """Largest phi2 in (0, pi] whose grover-michelson max sensitivity meets
    target_slope.

    The maximum sensitivity decreases from unbounded (phi2 -> 0) to its
    minimum at phi2 = pi, so any positive target is reachable: if the pi
    value already suffices, pi is returned; otherwise bisection brackets the
    crossing to within `tol`, floored at `phi2_floor`.
    """
    if not target_slope > 0.0:
        raise ValidationError(f"target slope must be positive, got {target_slope!r}")
    gm = _MODELS["grover-michelson"]

    def meets(p2: float) -> bool:
        try:
            return max_sensitivity(gm, p2)[1] >= target_slope
        except DegeneratePhaseError:
            # The refinement walked into the degenerate corner where the
            # response is no longer representable; the sensitivity there
            # exceeds any finite target.
            return True

    if meets(math.pi):
        return math.pi
    lo, hi = phi2_floor, math.pi
    if not meets(lo):
        return lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if meets(mid):
            lo = mid
        else:
            hi = mid
    return lo
