"""Sweeps, slope/sensitivity estimation, and bias-point calibration.

The central quantity is the sensitivity |dT/dphi1| of a transmission curve at
fixed phi2: its maximum over phi1 measures how steeply a device can respond
to a small phase perturbation.  For the grover-michelson device that maximum
grows without bound as phi2 approaches a multiple of 2*pi, while the plain
michelson stays pinned at 1/2; `solve_phi2_for_sensitivity` inverts that
relationship to pick an operating phi2 for a requested sensitivity.

Every device carries its exact dT/dphi1: the closed forms differentiate
their formulas, and a netlist device differentiates the closure itself with
the resolvent identity, so no derivative here is a finite difference and no
resonance is low-passed by a step size.

Everything here is deterministic: fixed grids, fixed iteration counts, no
randomness.  Devices are referenced by registry name ("michelson",
"bs-cavity", "grover-single-seal", "grover-michelson"), by a parsed
`Netlist`, or by an explicit `DeviceModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

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
from .errors import DegeneratePhaseError
from .errors import TargetUnreachableError, ValidationError
from .netlist import Netlist, compile_netlist

TWO_PI = 2.0 * math.pi

COARSE_POINTS = 1024
ZOOM_POINTS = 4096
GOLDEN_TOL = 1e-9
BISECT_TOL = 1e-9
MAX_SCAN_POINTS = 2_097_152
SCAN_CHUNK = 262_144
#: adaptive-scan feature width clamp (radians); the narrow-resonance devices
#: develop slope features of half-width ~ dist(phi2, 2*pi*Z)^2
NARROW_WIDTH_FLOOR = 3e-12
NARROW_WIDTH_CAP = 1e-2
#: zoom cascades stop once the grid pitch is below this
ZOOM_PITCH_NARROW = 1e-12
ZOOM_PITCH_SMOOTH = 1e-9
#: slopes below this are indistinguishable from evaluation roundoff
SLOPE_NOISE_FLOOR = 1e-9


# --- device models ---------------------------------------------------------

@dataclass(frozen=True)
class DeviceModel:
    """Evaluatable device: vectorized (phi1, phi2) -> (R, T), plus the exact
    derivative dT/dphi1 with the same signature.

    narrow_resonance marks devices whose slope develops features of
    half-width ~ dist(phi2, 2*pi*Z)^2; scans densify accordingly.
    """

    device_id: str
    probabilities: Callable[..., Probabilities]
    dT_dphi1: Callable[..., np.ndarray]
    narrow_resonance: bool = False


_MODELS = {
    "michelson": DeviceModel("michelson", michelson_probabilities,
                             michelson_dT_dphi1),
    "bs-cavity": DeviceModel("bs-cavity", bs_cavity_probabilities,
                             bs_cavity_dT_dphi1),
    "grover-single-seal": DeviceModel("grover-single-seal",
                                      grover_single_seal_probabilities,
                                      grover_single_seal_dT_dphi1),
    "grover-michelson": DeviceModel("grover-michelson",
                                    grover_michelson_probabilities,
                                    grover_michelson_dT_dphi1,
                                    narrow_resonance=True),
}

MODEL_NAMES = tuple(sorted(_MODELS))

DeviceLike = Union[str, Netlist, DeviceModel]


def netlist_device(netlist: Netlist, device_id: str = "netlist") -> DeviceModel:
    """Wrap a netlist as a sweepable device.

    Input enters the first open port; R is the probability of exiting back out
    of it and T the total probability over the remaining open ports.  phi1 and
    phi2 are bound to any matching free symbols in the netlist's phases.  The
    netlist is compiled once and each sample is one closure solve, which also
    gives the exact dT/dphi1 = 2 Re sum_{i>=1} conj(s_i0) ds_i0.
    """
    closure = compile_netlist(netlist)

    def per_sample(phi1, phi2):
        grid = np.asarray(phi1, dtype=np.float64)
        out = np.empty((3,) + grid.shape)
        for i, x in np.ndenumerate(grid):
            b = {"phi1": float(x), "phi2": float(phi2)}
            S, _, dS = closure.solve(lambda p: p.evaluate(b),
                                     lambda p: p.derivative("phi1", b))
            t = S[1:, 0]
            out[(slice(None),) + i] = (abs(S[0, 0]) ** 2, np.sum(np.abs(t) ** 2),
                                       2.0 * np.sum(t.conj() * dS[1:, 0]).real)
        return out

    def probabilities(phi1, phi2):
        R, T, _ = per_sample(phi1, phi2)
        return Probabilities(R=R[()], T=T[()])

    return DeviceModel(device_id=device_id, probabilities=probabilities,
                       dT_dphi1=lambda phi1, phi2: per_sample(phi1, phi2)[2][()])


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
    """Inclusive linear grid start..stop with `count` points."""

    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        if self.count < 2:
            raise ValidationError(f"grid needs at least 2 points, got {self.count}")
        if not self.stop > self.start:
            raise ValidationError(
                f"grid stop must exceed start, got [{self.start}, {self.stop}]"
            )
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True, eq=False)
class SweepCurve:
    """Transmission curve at fixed phi2: parallel arrays over the phi1 grid.

    Invariants (checked): phi1 strictly increasing, R + T = 1 within 1e-10.
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
        if np.any(np.diff(self.phi1) <= 0):
            raise ValidationError("sweep grid must be strictly increasing in phi1")
        worst = float(np.max(np.abs(self.R + self.T - 1.0)))
        if worst > 1e-10:
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

def sweep(device: DeviceLike, phi2: float, grid: GridSpec) -> SweepCurve:
    """Evaluate R, T, dT/dphi1 over a phi1 grid at fixed phi2."""
    model = resolve_device(device)
    phi1 = grid.values()
    # slope first: on 2^19-point grids this order measured about 15 MB less
    # peak RSS than the reverse
    dT = model.dT_dphi1(phi1, phi2)
    probs = model.probabilities(phi1, phi2)
    return SweepCurve(
        device_id=model.device_id,
        phi2=float(phi2),
        phi1=phi1,
        R=np.broadcast_to(probs.R, phi1.shape).copy(),
        T=np.broadcast_to(probs.T, phi1.shape).copy(),
        dT_dphi1=dT,
    )


# --- sensitivity maximization ----------------------------------------------

def _scan_points(model: DeviceModel, phi2: float) -> int:
    """Coarse-scan size: a few points per slope-feature width.

    For narrow-resonance devices the feature half-width shrinks like the
    *square* of the distance from phi2 to the nearest multiple of 2*pi, so
    the wanted density is usually capped; the zoom cascade in
    `max_sensitivity` does the rest.  The cap is chosen so that even at the
    cap the |slope| tail of the resonance (falling off as 1/u^3) still
    dominates the smooth background at the nearest grid point, keeping the
    coarse argmax inside the right basin.
    """
    if not model.narrow_resonance:
        return COARSE_POINTS
    dist = abs(math.remainder(phi2, TWO_PI))  # distance to nearest 2*pi*k
    width = min(max(dist * dist, NARROW_WIDTH_FLOOR), NARROW_WIDTH_CAP)
    wanted = int(math.ceil(2.0 * TWO_PI / width))
    return min(max(COARSE_POINTS, wanted), MAX_SCAN_POINTS)


def _scan_max_abs_slope(model: DeviceModel, phi2: float,
                        lo: float, hi: float, count: int) -> tuple[float, float, float]:
    """Max |dT/dphi1| over a linear grid, chunked; returns (x*, |s|*, spacing)."""
    spacing = (hi - lo) / count
    best_x, best_s = lo, -1.0
    for start in range(0, count + 1, SCAN_CHUNK):
        idx = np.arange(start, min(start + SCAN_CHUNK, count + 1))
        x = lo + spacing * idx
        s = np.abs(model.dT_dphi1(x, phi2))
        k = int(np.argmax(s))
        if s[k] > best_s:
            best_s = float(s[k])
            best_x = float(x[k])
    return best_x, best_s, spacing


def _golden_max(f: Callable[[float], float], lo: float, hi: float,
                tol: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal f on [lo, hi]."""
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


def max_sensitivity(device: DeviceLike, phi2: float) -> tuple[float, float]:
    """Global maximum of |dT/dphi1| over phi1 in [0, 2*pi] at fixed phi2.

    Coarse grid scan (densified near resonances), then a cascade of zoom
    rescans around the best cell until the grid pitch resolves the feature,
    finished with golden-section refinement to 1e-9 in phi1.  The |slope|
    landscape around a resonance is a pair of peaks falling off
    monotonically, so each level's argmax stays in the winning basin and the
    final bracket is unimodal.  Returns (argmax_phi1, max_abs_slope).
    """
    model = resolve_device(device)
    n = _scan_points(model, phi2)
    x_best, s_best, pitch = _scan_max_abs_slope(model, phi2, 0.0, TWO_PI, n)

    floor = ZOOM_PITCH_NARROW if model.narrow_resonance else ZOOM_PITCH_SMOOTH
    while pitch > floor:
        zx, zs, pitch = _scan_max_abs_slope(
            model, phi2, x_best - pitch, x_best + pitch, ZOOM_POINTS
        )
        if zs > s_best:
            x_best, s_best = zx, zs

    gx, gs = _golden_max(
        lambda x: float(np.abs(model.dT_dphi1(x, phi2))),
        x_best - pitch, x_best + pitch, GOLDEN_TOL,
    )
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

    Raises TargetUnreachableError when the target lies outside the curve's
    range at this phi2.
    """
    model = resolve_device(device)
    target = float(target_T)

    x_star, _ = max_sensitivity(model, phi2)

    # Attainable range: a global scan, refined locally around the steepest
    # point so that a resonance much narrower than the global pitch still
    # contributes its full excursion.
    n = min(_scan_points(model, phi2), ZOOM_POINTS * 32)
    grid = np.linspace(0.0, TWO_PI, n + 1)
    T_grid = np.broadcast_to(model.probabilities(grid, phi2).T, grid.shape).copy()
    spacing = TWO_PI / n
    local = x_star + np.linspace(-spacing, spacing, ZOOM_POINTS + 1)
    T_local = np.broadcast_to(model.probabilities(local, phi2).T, local.shape)
    t_lo = min(float(np.min(T_grid)), float(np.min(T_local)))
    t_hi = max(float(np.max(T_grid)), float(np.max(T_local)))
    if not (t_lo - tol <= target <= t_hi + tol):
        raise TargetUnreachableError(
            f"target T={target!r} outside attainable range "
            f"[{t_lo:.6g}, {t_hi:.6g}] at phi2={phi2!r}"
        )

    # March away from the steepest point along its monotone segment until T
    # crosses the target, then bisect inside the crossing step.  Offsets
    # double each step, so a feature of any width down to ~1e-9 rad is
    # resolved near the start while the whole period is still covered in
    # a few dozen evaluations.
    def march(direction: float):
        x_prev = x_star
        T_prev = float(model.probabilities(x_prev, phi2).T)
        s_prev = float(model.dT_dphi1(x_prev, phi2))
        offset = GOLDEN_TOL
        while offset < TWO_PI:
            x_next = x_star + direction * offset
            T_next = float(model.probabilities(x_next, phi2).T)
            if (T_prev - target) * (T_next - target) <= 0.0:
                return _bisect_T(model, phi2, target, x_prev, x_next, tol)
            s_next = float(model.dT_dphi1(x_next, phi2))
            if s_next * s_prev < 0.0:
                return None  # left the monotone segment without crossing
            x_prev, T_prev, s_prev = x_next, T_next, s_next
            offset *= 2.0
        return None

    solution = march(+1.0)
    if solution is None:
        solution = march(-1.0)
    if solution is None:
        # Target is attainable but not on the steep segment: take any
        # crossing of the dense scan.
        straddle = np.nonzero((T_grid[:-1] - target) * (T_grid[1:] - target) <= 0.0)[0]
        if straddle.size == 0:
            raise TargetUnreachableError(
                f"no phi1 with T={target!r} found at phi2={phi2!r}"
            )
        k = int(straddle[0])
        solution = _bisect_T(model, phi2, target, float(grid[k]), float(grid[k + 1]), tol)

    phi1 = solution % TWO_PI
    return BiasPoint(
        phi1=phi1,
        phi2=float(phi2),
        T=float(model.probabilities(phi1, phi2).T),
        slope=float(model.dT_dphi1(phi1, phi2)),
    )


def perturbation_response(device: DeviceLike, bias: BiasPoint,
                          delta: float) -> PerturbationResponse:
    """Transmittance change when phi1 shifts by delta from the bias point.

    saturated reports whether dT/dphi1 changes sign anywhere on the traversed
    interval: if it does, the operating point crossed an extremum and the
    readout no longer maps |delta T| back to a unique delta.
    """
    model = resolve_device(device)
    T0 = float(model.probabilities(bias.phi1, bias.phi2).T)
    T1 = float(model.probabilities(bias.phi1 + delta, bias.phi2).T)
    if delta == 0.0:
        return PerturbationResponse(delta_T=0.0, saturated=False)

    lo, hi = sorted((bias.phi1, bias.phi1 + delta))
    n_density = _scan_points(model, bias.phi2)
    count = int(math.ceil((hi - lo) / TWO_PI * n_density))
    count = min(max(count, COARSE_POINTS), MAX_SCAN_POINTS)
    has_pos = False
    has_neg = False
    for start in range(0, count + 1, SCAN_CHUNK):
        idx = np.arange(start, min(start + SCAN_CHUNK, count + 1))
        x = lo + (hi - lo) * idx / count
        s = model.dT_dphi1(x, bias.phi2)
        has_pos = has_pos or bool(np.any(s > SLOPE_NOISE_FLOOR))
        has_neg = has_neg or bool(np.any(s < -SLOPE_NOISE_FLOOR))
        if has_pos and has_neg:
            break
    return PerturbationResponse(delta_T=T1 - T0, saturated=has_pos and has_neg)


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
