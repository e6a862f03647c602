"""Feedback closure: sealed and linked ports of a multiport network.

Sealing a port with a mirror (round-trip phase phi) or linking two ports of a
composite device turns those ports into internal cavity modes.  The device
seen from the remaining open ports is obtained by coherently summing every
internal round-trip path.  With the port set split into open (o) and closed
(c) blocks and F the feedback matrix mapping outgoing closed-port amplitudes
to the amplitudes re-entering the device, the effective matrix is

    S_eff = S_oo + S_oc F (I - S_cc F)^(-1) S_co

which this module evaluates by a dense LU solve, for one phase sample or a
whole stack of them at once (`CompiledClosure.solve`).  The same solve gives
(I - S_cc F)^(-1), whose 1-norm condition screens each sample for
singularity; only samples the screen catches get the SVD that decides, so a
well-conditioned solve does no SVD.  `CompiledClosure.condition` reports the
2-norm condition of one sample.  The equivalent truncated
round-trip series is kept as an independent cross-check
(`close_series_truncated`); it converges whenever the spectral radius of
S_cc F is below one.  The root of det(I - S_cc F) places phi1's resonance
(`CompiledClosure.phi1_pole`).

Feedback conventions:
  * mirror seal      -> diagonal entry -exp(i*phi)   (mirror contributes the
                        pi phase on top of the round-trip phase phi)
  * bare phase loop  -> diagonal entry +exp(i*phi)   (Termination with
                        has_mirror=False)
  * link             -> exchange of the two linked ports, amplitude
                        exp(i*theta/2) per one-way traversal so the observable
                        round-trip phase is theta
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .core import ScatteringMatrix
from .errors import PortError, SingularClosureError
from .phase_expr import PhaseExpr

#: Reciprocal-condition threshold below which (I - S_cc F) counts as a
#: lossless resonance and closure refuses to solve.
SINGULARITY_RCOND = 1e-12

#: Byte budget of one stack of (m, m) complex closed blocks; callers solving
#: a grid take `CompiledClosure.stack_size` samples per stack.  A solve holds
#: a few arrays of that size at once (the blocks, their LU, A^-1 S_cc and
#: the inverse the singularity screen reads).  On a netlist bias and a 30-closed-port sweep,
#: 1 MiB measured about 3 MB more peak RSS than solving one sample at a
#: time; 64 KiB measured under 0.5 MB more.
STACK_BYTES = 64 * 1024


@dataclass(frozen=True)
class Termination:
    """A sealed port: mirror (optional) plus accumulated round-trip phase
    (radians; `CompiledClosure` also takes phase expressions)."""

    port: str
    round_trip_phase: float
    has_mirror: bool = True


@dataclass(frozen=True)
class Link:
    """Lossless connection between two ports; round_trip_phase is the
    observable phase for one full traversal there and back."""

    port_a: str
    port_b: str
    round_trip_phase: float = 0.0


@dataclass(frozen=True)
class LinkSet:
    """Collection of links; every port may appear in at most one link."""

    pairs: tuple[Link, ...]

    def __init__(self, pairs: Iterable[Link] = ()):
        object.__setattr__(self, "pairs", tuple(pairs))
        seen: set[str] = set()
        for link in self.pairs:
            if link.port_a == link.port_b:
                raise PortError(f"link cannot join port {link.port_a!r} to itself")
            for p in (link.port_a, link.port_b):
                if p in seen:
                    raise PortError(f"port {p!r} appears in more than one link")
                seen.add(p)


@dataclass(frozen=True)
class ClosedDevice:
    """Result of a closure: effective matrix on the surviving open ports."""

    effective: ScatteringMatrix
    closure_condition: float  # condition number of (I - S_cc F); 1.0 if nothing closed

    @property
    def open_port_labels(self) -> tuple[str, ...]:
        return self.effective.port_labels


def _closed_partition(
    S: ScatteringMatrix,
    terminations: Sequence[Termination],
    links: LinkSet | Sequence[Link] | None,
):
    """Index bookkeeping for `CompiledClosure`.

    Returns (open_idx, closed_idx, loops) with closed ports in device order
    and, per seal or link, its positions in the closed block, the sign and
    share of its round-trip phase per pass, and the phase itself,
    unevaluated.
    """
    link_pairs = ()
    if links is not None:
        link_pairs = links.pairs if isinstance(links, LinkSet) else LinkSet(links).pairs

    used: set[str] = set()
    for term in terminations:
        if term.port in used:
            raise PortError(f"port {term.port!r} sealed twice")
        used.add(term.port)
    for link in link_pairs:
        for p in (link.port_a, link.port_b):
            if p in used:
                raise PortError(f"port {p!r} both sealed and linked, or linked twice")
            used.add(p)

    closed_idx = sorted(S.port_index(p) for p in used)
    pos = {idx: k for k, idx in enumerate(closed_idx)}
    open_idx = [i for i in range(S.n_ports) if i not in pos]
    if not open_idx and used:
        raise PortError("closure must leave at least one open port")

    def at(*ports):
        return [pos[S.port_index(p)] for p in ports]

    loops = [(at(t.port), -1.0 if t.has_mirror else 1.0, 1.0, t.round_trip_phase)
             for t in terminations]
    loops += [(at(l.port_a, l.port_b), 1.0, 0.5, l.round_trip_phase) for l in link_pairs]
    return open_idx, closed_idx, loops


class CompiledClosure:
    """S split once into open and closed blocks for feedback through the
    given seals and links, to be solved at many phase values.

    Phases may be numbers or expressions.  Numbers and expressions without
    a free symbol are evaluated here, once; the others are mapped to radians
    by `value` each time the feedback is built.  Open ports keep device
    order unless `open_ports` orders them.

    F has one entry per column, F[perm[c], c] = f[c]: a seal's on the
    diagonal, a link's two swapped across it.  So products with F permute
    and scale (`_right`, `_left`) rather than multiply matrices.
    """

    def __init__(self, S: ScatteringMatrix, terminations=(), links=None, open_ports=None):
        open_idx, closed_idx, self.loops = _closed_partition(S, terminations, links)
        if open_ports is not None:
            open_idx = [S.port_index(p) for p in open_ports]
        o, c, m = open_idx, closed_idx, S.matrix
        # (S_oo, S_oc, S_co, S_cc)
        self.blocks = m[np.ix_(o, o)], m[np.ix_(o, c)], m[np.ix_(c, o)], m[np.ix_(c, c)]
        self._rhs = np.hstack(self.blocks[2:])  # [S_co | S_cc]
        self.labels = tuple(S.port_labels[i] for i in open_idx)
        self.closed = tuple(S.port_labels[i] for i in closed_idx)
        self.perm = np.arange(len(closed_idx))
        self._owner = np.empty_like(self.perm)  # the loop of each closed port
        for i, (k, *_) in enumerate(self.loops):
            self.perm[k], self._owner[k] = k[::-1], i
        self._sign, self._share = (np.array([loop[j] for loop in self.loops]) for j in (1, 2))
        # loops whose phase `value` maps per solve; the others' radians, once
        phases = [loop[3] for loop in self.loops]
        self._varying = [i for i, p in enumerate(phases)
                         if isinstance(p, PhaseExpr) and p.free_symbols]
        self._phase = np.array([0.0 if i in self._varying else
                                p.evaluate() if isinstance(p, PhaseExpr) else float(p)
                                for i, p in enumerate(phases)])

    @property
    def stack_size(self) -> int:
        """Samples per stacked solve: their closed blocks fit `STACK_BYTES`
        (at least one)."""
        return max(1, STACK_BYTES // (16 * max(1, len(self.closed)) ** 2))

    def feedback(self, value=float, slope=None):
        """Entries f of the feedback matrix F and, when `slope` maps a phase
        to its phi1-derivative, those of dF/dphi1 (else None).

        `value` and `slope` see only the phases with a free symbol; the
        others keep the value evaluated once and slope 0.  Phases that
        `value` maps to arrays give f and df their broadcast shape as
        leading batch axes: (..., m) for m closed ports.
        """
        def per_loop(of, constant):  # (..., loops)
            if not self._varying:
                return constant
            varying = np.broadcast_arrays(*(of(self.loops[i][3]) for i in self._varying))
            out = np.empty(varying[0].shape + constant.shape)
            out[...] = constant
            out[..., self._varying] = np.stack(varying, -1)
            return out

        # products with a purely real or imaginary factor are exact up to one
        # rounding, so a sample gets the same bits alone or stacked
        amp = self._sign * np.exp(1j * (self._share * per_loop(value, self._phase)))
        if slope is None:
            return amp[..., self._owner], None
        dphase = per_loop(slope, np.zeros_like(self._phase))
        return amp[..., self._owner], (1j * (self._share * dphase) * amp)[..., self._owner]

    def _right(self, M, f):
        """M F for the feedback entries f."""
        return M[..., :, self.perm] * f[..., None, :]

    def _left(self, f, M):
        """F M for the feedback entries f."""
        return f[..., self.perm, None] * M[..., self.perm, :]

    def phi1_pole(self, bindings: Mapping[str, float]) -> Optional[tuple[float, float, float]]:
        """(centre, half-width, period) in phi1 of the resonance of the one
        seal whose phase a*phi1 + b carries phi1, at `bindings` of the other
        symbols; None if phi1 enters a link, several entries or a phase not
        affine in it.

        The seal's entry sign*z scales one column of I - S_cc F, so the
        determinant is affine in z and vanishes at z* = d(0)/(d(0) - d(1)):
        centre (arg z* - b)/a, half-width |log|z*||/|a|, the Fabry-Perot
        linewidth.  A root on the unit circle is a bound state that the open
        ports never see.
        """
        carriers = [loop for loop in self.loops
                    if isinstance(loop[3], PhaseExpr) and "phi1" in loop[3].free_symbols]
        if len(carriers) != 1:
            return None
        k, sign, share, phase = carriers[0]
        if share != 1.0 or not phase.is_affine_in("phi1"):
            return None
        at0 = {**bindings, "phi1": 0.0}
        a, b = phase.derivative("phi1", at0), phase.evaluate(at0)
        f, _ = self.feedback(lambda p: p.evaluate(at0))

        def det(z):
            f[k] = sign * z
            return complex(np.linalg.det(np.eye(len(f)) - self._right(self.blocks[3], f)))

        d0, d1 = det(0.0), det(1.0)
        root = d0 / (d0 - d1) if d0 != d1 else 0.0
        if a == 0.0 or abs(root) in (0.0, 1.0):
            return None
        return (cmath.phase(root) - b) / a, abs(math.log(abs(root)) / a), 2.0 * math.pi / abs(a)

    def _block(self, f):
        """A = I - S_cc F for the feedback entries f."""
        return np.eye(len(self.closed)) - self._right(self.blocks[3], f)

    def condition(self, value=float) -> float:
        """2-norm condition number of I - S_cc F at one phase sample (one
        SVD); 1.0 if nothing is closed."""
        if not self.closed:
            return 1.0
        f, _ = self.feedback(value)
        return float(1.0 / _rcond(self._block(f)))

    def _gate(self, A):
        """Raise SingularClosureError if any block of the stack A has a
        2-norm rcond below SINGULARITY_RCOND, with the worst one."""
        worst = float(np.min(_rcond(A)))
        if worst < SINGULARITY_RCOND:
            raise SingularClosureError(
                f"singular closure: feedback through ports {list(self.closed)} is "
                f"resonant and traps a lossless bound state (rcond={worst:.2e})"
            )

    def solve(self, value=float, slope=None):
        """(S_eff, dS_eff/dphi1 or None); see `feedback`.

        With X = (I - S_cc F)^-1 S_co, S_eff = S_oo + S_oc F X.  The resolvent
        identity d(A^-1) = -A^-1 dA A^-1 gives dS_eff = S_oc (I - F S_cc)^-1 dF X
        = S_oc (I + F Y) dF X, with Y = (I - S_cc F)^-1 S_cc from X's solve.

        Array-valued phases are solved as one stack over their batch axes,
        which lead every result; scalar phases are the shape-() stack.  The
        gate raises SingularClosureError if any sample of the stack has a
        2-norm rcond below SINGULARITY_RCOND, with the worst rcond; it runs
        an SVD only on samples that the 1-norm screen of `_screen` catches,
        or on the whole stack if the LU solve meets an exactly singular
        sample.  Each sample gets the same bits alone as in any stack.
        """
        S_oo, S_oc, S_co, _ = self.blocks
        if not self.closed:
            return S_oo, None if slope is None else np.zeros_like(S_oo)
        f, df = self.feedback(value, slope)
        A = self._block(f)
        n_open = S_co.shape[1]
        try:
            # numpy < 2 reads a b of lower rank than the stack as vectors
            XY = np.linalg.solve(A, np.broadcast_to(self._rhs, A.shape[:-1] + self._rhs.shape[-1:]))
        except np.linalg.LinAlgError:  # a zero pivot: let the SVD decide
            self._gate(A)
            raise
        X, Y = XY[..., :n_open], XY[..., n_open:]
        self._screen(A, Y, f)
        FX = self._left(f, X)
        if df is None:
            return S_oo + S_oc @ FX, None
        V = self._left(df, X)
        # one product with S_oc for S_eff and dS_eff
        out = S_oc @ np.concatenate((FX, V + self._left(f, Y @ V)), axis=-1)
        return S_oo + out[..., :n_open], out[..., n_open:]

    def _screen(self, A, Y, f):
        """Gate the samples of the stack A whose 1-norm rcond, read off the
        inverse A^-1 = I + Y F (A^-1 S_cc F = A^-1 - I), does not prove them
        regular.

        For m x m blocks ||M||_2 <= sqrt(m) ||M||_1, so rcond_2 >= rcond_1 / m:
        a sample with rcond_1 >= 100 m SINGULARITY_RCOND has rcond_2 >= 100
        SINGULARITY_RCOND.  The computed inverse is off by about m u kappa
        (u the unit roundoff), under 1e-5 relative for kappa_1 <= 1e10 / m
        at the bound, and the SVD's rcond by about m u; the factor 100 covers
        both many times over, so the screen passes no sample that the SVD
        would refuse.  NaN and inf from an overflowing solve are caught.
        """
        m = A.shape[-1]
        inverse = np.eye(m) + self._right(Y, f)
        rcond = 1.0 / (_norm1(A) * _norm1(inverse))
        caught = ~(rcond >= 100.0 * m * SINGULARITY_RCOND)
        if np.any(caught):
            self._gate(A[caught])


def _norm1(M):
    """1-norm (largest column sum of moduli) of each block of the stack M."""
    return np.abs(M).sum(axis=-2).max(axis=-1)


def _rcond(A):
    """2-norm reciprocal condition of each block of the stack A, from its
    singular values."""
    sv = np.linalg.svd(A, compute_uv=False)
    top = sv[..., 0]
    return sv[..., -1] / np.where(top > 0.0, top, np.inf)


def close_network(
    S: ScatteringMatrix,
    terminations: Sequence[Termination] = (),
    links: LinkSet | Sequence[Link] | None = None,
) -> ClosedDevice:
    """Close sealed and linked ports of S into an effective open-port device.

    The effective matrix equals the coherent sum over all internal round-trip
    paths, computed exactly via one LU solve of (I - S_cc F) X = S_co.  For a
    unitary S and lossless feedback the result is again unitary.

    Raises SingularClosureError when (I - S_cc F) is numerically singular,
    i.e. the closed ports support a lossless bound state that traps energy.
    """
    closure = CompiledClosure(S, terminations, links)
    effective, _ = closure.solve()
    return ClosedDevice(ScatteringMatrix(effective, closure.labels), closure.condition())


def seal_ports(S: ScatteringMatrix, terminations: Sequence[Termination]) -> ClosedDevice:
    """Seal ports with mirrors/phases and return the effective open-port device."""
    return close_network(S, terminations=terminations)


def link_close(S: ScatteringMatrix, links: LinkSet | Sequence[Link]) -> ClosedDevice:
    """Join pairs of ports of S by lossless phase connections and close them out."""
    return close_network(S, links=links)


def block_diag(SA: ScatteringMatrix, SB: ScatteringMatrix) -> ScatteringMatrix:
    """Direct sum of two devices with zero cross-blocks.

    Labels are namespaced "A.<label>" / "B.<label>" so any two inputs compose
    without collisions.
    """
    na, nb = SA.n_ports, SB.n_ports
    m = np.zeros((na + nb, na + nb), dtype=np.complex128)
    m[:na, :na] = SA.matrix
    m[na:, na:] = SB.matrix
    labels = tuple(f"A.{l}" for l in SA.port_labels) + tuple(f"B.{l}" for l in SB.port_labels)
    return ScatteringMatrix(m, labels)


def close_series_truncated(
    S: ScatteringMatrix,
    n_round_trips: int,
    terminations: Sequence[Termination] = (),
    links: LinkSet | Sequence[Link] | None = None,
) -> ScatteringMatrix:
    """Round-trip series approximation to close_network.

    Returns the partial sum

        S_oo + sum_{n=0..N} S_oc F (S_cc F)^n S_co,   N = n_round_trips

    so N=0 keeps only the single-bounce path.  Converges to the exact closure
    as N grows whenever the spectral radius of S_cc F is below one; kept as an
    independent oracle for the linear-solve engine, never as the compute path.
    """
    if n_round_trips < 0:
        raise ValueError(f"n_round_trips must be >= 0, got {n_round_trips}")
    closure = CompiledClosure(S, terminations, links)
    if not closure.closed:
        return S
    f, _ = closure.feedback()
    S_oo, S_oc, S_co, S_cc = closure.blocks
    total = S_oo.astype(np.complex128, copy=True)
    reaching = S_co  # (S_cc F)^n S_co for the current n
    for _ in range(n_round_trips + 1):
        fed_back = closure._left(f, reaching)
        total += S_oc @ fed_back
        reaching = S_cc @ fed_back
    return ScatteringMatrix(total, closure.labels)


def closure_spectral_radius(
    S: ScatteringMatrix,
    terminations: Sequence[Termination] = (),
    links: LinkSet | Sequence[Link] | None = None,
) -> float:
    """Spectral radius of the internal round-trip operator S_cc F.

    Values below one guarantee the round-trip series converges; one signals a
    lossless bound state (perfect mirror loop).
    """
    closure = CompiledClosure(S, terminations, links)
    if not closure.closed:
        return 0.0
    f, _ = closure.feedback()
    return float(np.max(np.abs(np.linalg.eigvals(closure._right(closure.blocks[3], f)))))
