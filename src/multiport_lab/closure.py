"""Feedback closure: sealed and linked ports of a multiport network.

Sealing a port with a mirror (round-trip phase phi) or linking two ports of a
composite device turns those ports into internal cavity modes.  The device
seen from the remaining open ports is obtained by coherently summing every
internal round-trip path.  With the port set split into open (o) and closed
(c) blocks and F the feedback matrix mapping outgoing closed-port amplitudes
to the amplitudes re-entering the device, the effective matrix is

    S_eff = S_oo + S_oc F (I - S_cc F)^(-1) S_co

which this module evaluates by a dense LU solve.  The equivalent truncated
round-trip series is kept as an independent cross-check
(`close_series_truncated`); it converges whenever the spectral radius of
S_cc F is below one.

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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import ScatteringMatrix
from .errors import PortError, SingularClosureError

#: Reciprocal-condition threshold below which (I - S_cc F) counts as a
#: lossless resonance and closure refuses to solve.
SINGULARITY_RCOND = 1e-12


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
    and, per seal or link, its feedback entries (rows, cols) on the closed
    block, the sign and share of its round-trip phase per pass, and the phase
    itself, unevaluated.
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

    def entries(*ports):
        k = [pos[S.port_index(p)] for p in ports]
        return k, k[::-1]

    loops = [(entries(t.port), -1.0 if t.has_mirror else 1.0, 1.0, t.round_trip_phase)
             for t in terminations]
    loops += [(entries(l.port_a, l.port_b), 1.0, 0.5, l.round_trip_phase) for l in link_pairs]
    return open_idx, closed_idx, loops


class CompiledClosure:
    """S split once into open and closed blocks for feedback through the
    given seals and links, to be solved at many phase values.

    Phases are kept as given and mapped to radians by `value` when the
    feedback is built, so they may be numbers or expressions.  Open ports
    keep device order unless `open_ports` orders them.
    """

    def __init__(self, S: ScatteringMatrix, terminations=(), links=None, open_ports=None):
        open_idx, closed_idx, self.loops = _closed_partition(S, terminations, links)
        if open_ports is not None:
            open_idx = [S.port_index(p) for p in open_ports]
        o, c, m = open_idx, closed_idx, S.matrix
        # (S_oo, S_oc, S_co, S_cc)
        self.blocks = m[np.ix_(o, o)], m[np.ix_(o, c)], m[np.ix_(c, o)], m[np.ix_(c, c)]
        self.labels = tuple(S.port_labels[i] for i in open_idx)
        self.closed = tuple(S.port_labels[i] for i in closed_idx)

    def feedback(self, value=float, slope=None):
        """Feedback matrix F and, when `slope` maps a phase to its
        phi1-derivative, dF/dphi1 (else None)."""
        F = np.zeros((len(self.closed),) * 2, dtype=np.complex128)
        dF = None if slope is None else np.zeros_like(F)
        for where, sign, share, phase in self.loops:
            F[where] = amp = sign * cmath.exp(1j * share * value(phase))
            if slope is not None:
                dF[where] = 1j * share * slope(phase) * amp
        return F, dF

    def solve(self, value=float, slope=None):
        """(S_eff, condition of I - S_cc F, dS_eff/dphi1 or None); see `feedback`.

        With X = (I - S_cc F)^-1 S_co, S_eff = S_oo + S_oc F X.  The resolvent
        identity d(A^-1) = -A^-1 dA A^-1 gives dS_eff = S_oc (I - F S_cc)^-1 dF X
        = S_oc (I + F Y) dF X, with Y = (I - S_cc F)^-1 S_cc from X's solve.
        """
        S_oo, S_oc, S_co, S_cc = self.blocks
        F, dF = self.feedback(value, slope)
        if not self.closed:
            return S_oo, 1.0, None if dF is None else np.zeros_like(S_oo)
        A = np.eye(len(F)) - S_cc @ F
        sv = np.linalg.svd(A, compute_uv=False)
        rcond = float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0
        if rcond < SINGULARITY_RCOND:
            raise SingularClosureError(
                f"singular closure: feedback through ports {list(self.closed)} is "
                f"resonant and traps a lossless bound state (rcond={rcond:.2e})"
            )
        if dF is None:
            X = np.linalg.solve(A, S_co)
            return S_oo + S_oc @ (F @ X), 1.0 / rcond, None
        XY = np.linalg.solve(A, np.hstack((S_co, S_cc)))
        X, Y = XY[:, :S_co.shape[1]], XY[:, S_co.shape[1]:]
        V = dF @ X
        return S_oo + S_oc @ (F @ X), 1.0 / rcond, S_oc @ (V + F @ (Y @ V))


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
    effective, condition, _ = closure.solve()
    return ClosedDevice(ScatteringMatrix(effective, closure.labels), condition)


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
    F, _ = closure.feedback()
    S_oo, S_oc, S_co, S_cc = closure.blocks
    total = S_oo.astype(np.complex128, copy=True)
    reaching = S_co  # (S_cc F)^n S_co for the current n
    for _ in range(n_round_trips + 1):
        fed_back = F @ reaching
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
    F, _ = closure.feedback()
    return float(np.max(np.abs(np.linalg.eigvals(closure.blocks[3] @ F))))
