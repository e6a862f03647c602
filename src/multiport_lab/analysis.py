"""Sweeps, slope/sensitivity estimation, and bias-point calibration.

The central quantity is the sensitivity |dT/dphi1| of a transmission curve at
fixed phi2: its maximum over phi1 measures how steeply a device can respond
to a small phase perturbation.  For the grover-michelson device that maximum
grows without bound as phi2 approaches a multiple of 2*pi, while the plain
michelson stays pinned at 1/2; `solve_phi2_for_sensitivity` inverts that
relationship to pick an operating phi2 for a requested sensitivity.

The searches read one cached `anatomy` of the curve per model and phi2.  Its
closure's pole gives T's period in phi1 and places each resonance with its
half-width w (~ phi2**2 for the grover-michelson), so the grids resolve
every scale around it on top of one fixed grid; without a pole the grid
searches alone.  On top come the peaks of |dT/dphi1|, each zoomed to float
resolution, and the steepest of them; and T's turning points over one
period, refined alike, which cut T into the monotone pieces that the bias
search reads.  Every device carries its exact dT/dphi1: a netlist device
differentiates the closure with the resolvent identity, and a closed form
(`devices`) attached to a built-in netlist as its accelerator
differentiates its formula, so no derivative here is a finite difference.

Everything here is deterministic: fixed grids, fixed iteration counts, no
randomness.  Devices are referenced by built-in netlist name
(`netlist.BUILTIN_NETLIST_NAMES`: "michelson" and "grover-michelson", which
evaluate closed forms, and "bs-cavity", "grover-single-seal" and "fusion",
which evaluate their netlists), by a parsed `Netlist`, or by an explicit
`DeviceModel`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .devices import (
    Probabilities,
    grover_michelson_dT_dphi1,
    grover_michelson_probabilities,
    michelson_dT_dphi1,
    michelson_probabilities,
)
from .errors import DegeneratePhaseError, TargetUnreachableError, ValidationError
from .closure import CompiledClosure
from .netlist import Netlist, builtin_netlist, compile_netlist

TWO_PI = 2.0 * math.pi

COARSE_POINTS = 1024
#: steps of each zoom level of `Anatomy.peaks` and `_crossings`
ZOOM_POINTS = 64
#: slack on a bias target beyond T's range, and the feature width that
#: `Anatomy.turns` gives the steepest point where the pole places no resonance
BISECT_TOL = 1e-9
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
    """Evaluatable device built from its netlist: vectorized (phi1, phi2) ->
    (R, T), plus the exact derivative dT/dphi1 with the same signature.
    closure returns the netlist's `CompiledClosure`, off whose pole the
    searches read phi1's resonances; curve, when set, gives R, T and
    dT/dphi1 stacked on a leading axis from one evaluation.
    """

    device_id: str
    netlist: Netlist
    probabilities: Callable[..., Probabilities]
    dT_dphi1: Callable[..., np.ndarray]
    closure: Callable[[], CompiledClosure]
    curve: Optional[Callable[..., np.ndarray]] = None


#: closed forms, each an accelerator of the built-in netlist of its name
_CLOSED_FORMS = {
    "michelson": (michelson_probabilities, michelson_dT_dphi1),
    "grover-michelson": (grover_michelson_probabilities, grover_michelson_dT_dphi1),
}

DeviceLike = Union[str, Netlist, DeviceModel]


def netlist_device(netlist: Netlist, device_id: str = "netlist") -> DeviceModel:
    """Wrap a netlist as a sweepable device.

    Input enters the first open port; R is the probability of exiting back out
    of it and T the total probability over the remaining open ports.  phi1 and
    phi2 are bound to any matching free symbols in the netlist's phases.  The
    netlist is compiled on first use, once, and reduced once per phi2
    (`CompiledClosure.reduction`).  A phi1 grid then closes just the loops
    that carry phi1, `Reduction.stack_size` samples at a time so that each
    stack's r-sized arrays stay within `closure.STACK_BYTES` (64 KiB).  One
    pass gives R, T and the exact dT/dphi1 = 2 Re sum_{i>=1} conj(s_i0)
    ds_i0, and a point gets the same bits alone as inside a grid.
    """
    compiled = functools.cache(functools.partial(compile_netlist, netlist))

    def evaluate(phi1, phi2, slope: bool = True) -> np.ndarray:
        """R, T and (if slope) dT/dphi1 stacked on a leading axis."""
        grid = np.asarray(phi1, dtype=np.float64)
        flat = grid.reshape(-1)
        out = np.empty((3 if slope else 2, flat.size))
        closure = compiled()
        stack = closure.reduction({"phi2": float(phi2)}).stack_size
        for at in range(0, flat.size, stack):
            S, dS = closure.solve({"phi1": flat[at:at + stack], "phi2": float(phi2)}, slope)
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

    return DeviceModel(device_id=device_id, netlist=netlist, probabilities=probabilities,
                       dT_dphi1=lambda phi1, phi2: evaluate(phi1, phi2)[2][()],
                       closure=compiled, curve=evaluate)


@functools.cache
def _builtin_device(name: str) -> DeviceModel:
    # built on first use: importing the package parses no netlist
    model = netlist_device(builtin_netlist(name), name)
    if name not in _CLOSED_FORMS:
        return model
    probabilities, dT_dphi1 = _CLOSED_FORMS[name]
    return replace(model, probabilities=probabilities, dT_dphi1=dT_dphi1, curve=None)


#: one model per netlist, so that a search finds its cached `anatomy` again
_netlist_model = functools.lru_cache(maxsize=16)(netlist_device)


def resolve_device(device: DeviceLike) -> DeviceModel:
    """Built-in name, Netlist, or DeviceModel -> DeviceModel.  A built-in
    evaluates its closed form where `devices` has one, else its netlist."""
    if isinstance(device, DeviceModel):
        return device
    if isinstance(device, Netlist):
        return _netlist_model(device)
    if isinstance(device, str):
        return _builtin_device(device)
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


# --- curve anatomy ---------------------------------------------------------

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


def _crossings(f: Callable[[np.ndarray], np.ndarray], lo: np.ndarray,
               hi: np.ndarray) -> np.ndarray:
    """A zero of f in each bracket [lo, hi] across whose ends f does not
    keep its sign, all brackets refined at once: each level rescans every
    bracket in `ZOOM_POINTS` steps and keeps its first cell across which f
    does not keep its sign, until that cell is an ulp of 2*pi wide (an
    absolute stop: a relative one refines into subnormals around 0) or
    stops narrowing (phi1 of 8 or more, where floats are sparser).  Returns
    the end of each last cell where |f| is smaller."""
    found, todo = np.empty(lo.shape), np.arange(lo.size)
    while todo.size:
        grid = np.linspace(lo, hi, ZOOM_POINTS + 1, axis=-1)
        v = np.broadcast_to(f(grid), grid.shape)
        sign = np.sign(v)
        rows, k = np.arange(todo.size), np.argmax(sign[:, :-1] * sign[:, 1:] <= 0.0, axis=-1)
        width, lo, hi = hi - lo, grid[rows, k], grid[rows, k + 1]
        done = (hi - lo <= math.ulp(TWO_PI)) | (hi - lo >= width)
        found[todo[done]] = np.where(np.abs(v[rows, k]) <= np.abs(v[rows, k + 1]), lo, hi)[done]
        todo, lo, hi = todo[~done], lo[~done], hi[~done]
    return found


class Anatomy:
    """What the searches read off the curve T(phi1) of one model at one
    phi2: the pole, then, each on first use, the peaks of |dT/dphi1| and
    the steepest of them, and T's turning points.  It refuses a period of
    at most `COARSE_POINTS` ulps of 2*pi, where the grid's pitch would be
    below the zooms' stop."""

    def __init__(self, model: DeviceModel, phi2: float):
        self.model, self.phi2 = model, float(phi2)
        c, w, p = model.closure().phi1_pole({"phi2": self.phi2}) or (None, None, None)
        #: T's period in phi1 (`phi1_pole`), None if there is none
        self.period = p
        if p is not None and p <= COARSE_POINTS * math.ulp(TWO_PI):
            raise ValidationError(
                f"phi1's period {p:.3g} at phi2={self.phi2!r} is below the searches' resolution "
                f"{COARSE_POINTS * math.ulp(TWO_PI):.3g}")
        #: whether one period fits in [0, 2*pi]: the searched window [0, span]
        #: is then that period, a ring as T(span) is T(0), and else [0, 2*pi]
        self.ring = p is not None and p <= TWO_PI
        self.span = p if self.ring else TWO_PI
        #: (centre, half-width) of the pole's resonances from the last at or
        #: below phi1 = 0 to the first at or above span (and so one period)
        self.resonances = [] if c is None else [
            (c + k * p, w) for k in range(math.floor(-c / p), math.ceil((self.span - c) / p) + 1)]

    @functools.cached_property
    def peaks(self) -> tuple[tuple[float, float], ...]:
        """(phi1, dT/dphi1) at the local maxima of |dT/dphi1| sampled on the
        search grid of [0, span], a ring where `ring`, each zoomed to float
        resolution once for each sign of dT/dphi1: a resonance narrower than
        the grid, whose two flanks slope opposite ways, may hide between two
        samples.  A zoom rescans the two cells around its point in
        `ZOOM_POINTS` steps and recentres on its best point of its sign so
        far, until the pitch is a couple of ulps of phi1 near 2*pi."""
        dT, phi2, n, span = self.model.dT_dphi1, self.phi2, ZOOM_POINTS, self.span
        x = _search_grid(0.0, span, self.resonances)
        if self.ring:  # the sample at span repeats phi1 = 0's
            x = x[:-1]
        s = np.broadcast_to(dT(x, phi2), x.shape)
        # each end's outer neighbour: the other end across the ring, else none
        a = np.abs(s)
        a = np.concatenate((a[-1:], a, a[:1]) if self.ring else ([-1.0], a, [-1.0]))
        xs = np.concatenate(([x[-1] - span], x, [span]) if self.ring else (x[:1], x, x[-1:]))
        k = np.nonzero((a[1:-1] >= a[:-2]) & (a[1:-1] > a[2:]))[0]
        if not k.size:  # a ring whose samples all tie: phi1 = 0 stands for them
            k = np.zeros(1, dtype=int)
        k, sign = np.tile(k, 2), np.repeat([1.0, -1.0], k.size)
        best, top = x[k], sign * s[k]
        lo, hi = xs[k], xs[k + 2]
        found = []
        while best.size:
            grid = np.linspace(lo, hi, n + 1, axis=-1)
            up = sign[:, None] * np.broadcast_to(dT(grid, phi2), grid.shape)
            on = (np.arange(best.size), np.argmax(up, axis=-1))
            better = up[on] > top
            best, top = np.where(better, grid[on], best), np.where(better, up[on], top)
            pitch = (hi - lo) / n
            going = pitch > 2.0 * math.ulp(TWO_PI)
            found += zip(best[~going].tolist(), (sign * top)[~going].tolist())
            best, top, sign, pitch = best[going], top[going], sign[going], pitch[going]
            lo, hi = best - pitch, best + pitch
        return tuple(found)

    @functools.cached_property
    def steepest(self) -> tuple[float, float]:
        """(argmax_phi1, max_abs_slope): see `max_sensitivity`."""
        top = max(abs(s) for _, s in self.peaks)
        x, s = max((p for p in self.peaks if abs(p[1]) >= top * (1.0 - 1e-12)),
                   key=lambda p: (p[1] > 0.0, abs(p[1])))
        return x % self.span % self.span, abs(s)  # a tiny negative x % span is span itself

    @functools.cached_property
    def turns(self) -> tuple[float, ...]:
        """phi1 of T's turning points in one period: the sign changes of
        dT/dphi1 beyond `SLOPE_NOISE_FLOOR` on the search grid of [0,
        period], and the one across its two ends, each refined to float
        resolution by `_crossings`.  Without a period, those of [0, 2*pi].
        The grid resolves the resonances; where the pole places none (a
        link, or a seal without a cavity), the steepest point and its shifts
        by 2*pi within the period, as that search covers [0, 2*pi] only."""
        span, dT = self.period or TWO_PI, self.model.dT_dphi1
        features = self.resonances or [((self.steepest[0] + TWO_PI * k) % span, BISECT_TOL)
                                       for k in range(math.ceil(span / TWO_PI))]
        x = _search_grid(0.0, span, features)
        s = np.broadcast_to(dT(x, self.phi2), x.shape)
        kept = np.abs(s) > SLOPE_NOISE_FLOOR
        x, up = x[kept], s[kept] > 0.0
        if self.period is not None and x.size:  # the turn across the period's ends
            x, up = np.append(x, x[0] + span), np.append(up, up[0])
        steps = np.nonzero(up[:-1] != up[1:])[0]
        return tuple(_crossings(lambda t: dT(t, self.phi2), x[steps], x[steps + 1]).tolist())


#: anatomy(model, phi2): the `Anatomy`, built once per model and phi2
anatomy = functools.lru_cache(maxsize=16)(Anatomy)


# --- sensitivity maximization ----------------------------------------------

def max_sensitivity(device: DeviceLike, phi2: float) -> tuple[float, float]:
    """Global maximum of |dT/dphi1| over phi1 in [0, 2*pi] at fixed phi2,
    as (argmax_phi1, max_abs_slope): the steepest point of its `anatomy`.

    The largest of `Anatomy.peaks`, each sampled peak of the slope zoomed
    to float resolution.  The search grid samples each pole resonance
    (centre c, half-width w) at c +- w*2^(k/8), so each flank's maximum,
    about w/sqrt(3) from c, is a peak of its own however narrow w is.
    Where T's period p is below 2*pi, one period holds every value of T:
    the search reads [0, p], and argmax_phi1 lies in [0, p).
    Peaks within 1e-12 relative of the largest tie, and a tie takes the
    rising flank (dT/dphi1 > 0), so mirror-image flanks do not choose by
    rounding.
    """
    return anatomy(resolve_device(device), phi2).steepest


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

def find_bias_point(device: DeviceLike, phi2: float, target_T: float) -> BiasPoint:
    """phi1 with T(phi1, phi2) = target_T, preferring the steep monotone
    piece through the max-|slope| point (the natural readout region).

    T's turning points (`Anatomy.turns`), shifted by whole periods into the
    anatomy's window (0, span), cut [0, span] into pieces on which T is
    monotone; where span is T's period, the copies just beyond either end
    stand in for 0 and span, so a piece runs on across phi1 = 0.  T at the
    piece ends is the attainable range.  The crossing is refined by
    `_crossings` on the piece through the steepest point if T crosses the
    target there, else on the first piece where it does, and reduced into
    [0, span): [0, p) for a period p <= 2*pi, else [0, 2*pi).

    Raises ValidationError for a NaN target or a period below the searches'
    resolution, and TargetUnreachableError when the target lies outside the
    curve's range at this phi2.
    """
    model = resolve_device(device)
    target = float(target_T)
    if math.isnan(target):
        raise ValidationError("target T must be a number, got nan")

    shape = anatomy(model, phi2)
    p, span = shape.period or TWO_PI, shape.span
    copies = [t + p * k for t in shape.turns
              for k in range(math.floor(-t / p) - 1, math.ceil((span - t) / p) + 2)]
    # sorted(), not np.sort or np.unique: see `_search_grid`
    ends = [0.0] + sorted(c for c in copies if 0.0 < c < span) + [span]
    if shape.ring and copies:  # T(span) is T(0): a piece may run on across phi1 = 0
        ends[0], ends[-1] = max(c for c in copies if c <= 0.0), min(c for c in copies if c >= span)
    ends = np.array(ends)
    T_ends = np.broadcast_to(model.probabilities(ends, phi2).T, ends.shape)
    t_lo, t_hi = float(np.min(T_ends)), float(np.max(T_ends))
    if not (t_lo - BISECT_TOL <= target <= t_hi + BISECT_TOL):
        raise TargetUnreachableError(
            f"target T={target!r} outside attainable range "
            f"[{t_lo:.6g}, {t_hi:.6g}] at phi2={phi2!r}"
        )
    goal = min(max(target, t_lo), t_hi)

    side = np.sign(T_ends - goal)
    crossed = side[:-1] * side[1:] <= 0.0
    i = int(np.searchsorted(ends, shape.steepest[0], side="right")) - 1
    if not crossed[i]:
        i = int(np.argmax(crossed))
    x, = _crossings(lambda t: model.probabilities(t, phi2).T - goal, ends[[i]], ends[[i + 1]])
    phi1 = float(x) % span % span  # in [0, span), as in `Anatomy.steepest`
    return BiasPoint(phi1, float(phi2), float(model.probabilities(phi1, phi2).T),
                     float(model.dT_dphi1(phi1, phi2)))


def perturbation_response(device: DeviceLike, bias: BiasPoint,
                          delta: float) -> PerturbationResponse:
    """Transmittance change when phi1 shifts by delta from the bias point.

    saturated reports whether a turning point of T, one of `Anatomy.turns`
    shifted by a whole number of periods, lies strictly inside the traversed
    interval: the operating point crossed an extremum, so the readout no
    longer maps |delta T| back to a unique delta.  Without a period (phi1 in
    several loops, or a phase not affine in it), it reports whether dT/dphi1
    sampled over the interval changes sign beyond `SLOPE_NOISE_FLOOR`.
    """
    if delta == 0.0:
        return PerturbationResponse(delta_T=0.0, saturated=False)
    model = resolve_device(device)
    T0 = float(model.probabilities(bias.phi1, bias.phi2).T)
    T1 = float(model.probabilities(bias.phi1 + delta, bias.phi2).T)
    lo, hi = sorted((bias.phi1, bias.phi1 + delta))
    shape = anatomy(model, bias.phi2)
    if shape.period is None:
        s = model.dT_dphi1(_search_grid(lo, hi, []), bias.phi2)
        saturated = bool(np.any(s > SLOPE_NOISE_FLOOR) and np.any(s < -SLOPE_NOISE_FLOOR))
    else:  # the first copy of each turn above lo
        p = shape.period
        saturated = any(t + p * (math.floor((lo - t) / p) + 1) < hi for t in shape.turns)
    return PerturbationResponse(delta_T=T1 - T0, saturated=saturated)


# --- sensitivity-targeted tuning -------------------------------------------

def solve_phi2_for_sensitivity(target_slope: float) -> float:
    """Largest phi2 in (0, pi] whose grover-michelson max sensitivity meets
    target_slope.

    The maximum sensitivity decreases from unbounded (phi2 -> 0) to its
    minimum at phi2 = pi, so any positive target is reachable: if the pi
    value already suffices, pi is returned; otherwise bisection in log phi2
    from [1e-8, pi] brackets the crossing to float resolution, so the result
    meets the target and a relative 1e-9 more does not.  At phi2 up to
    about 1.41e-6 the search refuses (DegeneratePhaseError), which counts as
    meeting, so a target above about 3.2e11 returns about 1.41e-6.
    """
    if not target_slope > 0.0:
        raise ValidationError(f"target slope must be positive, got {target_slope!r}")
    gm = resolve_device("grover-michelson")

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
    lo, hi = 1e-8, math.pi
    if not meets(lo):
        return lo
    # the geometric midpoint is an end once lo and hi are adjacent doubles
    while (mid := math.sqrt(lo * hi)) not in (lo, hi):
        lo, hi = (mid, hi) if meets(mid) else (lo, mid)
    return lo
