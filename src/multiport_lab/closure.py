"""Feedback closure: sealed and linked ports of a multiport network.

Sealing a port with a mirror (round-trip phase phi) or linking two ports of a
composite device turns those ports into internal cavity modes.  The device
seen from the remaining open ports is obtained by coherently summing every
internal round-trip path.  With the port set split into open (o) and closed
(c) blocks and F the feedback matrix mapping outgoing closed-port amplitudes
to the amplitudes re-entering the device, the effective matrix is

    S_eff = S_oo + S_oc F (I - S_cc F)^(-1) S_co

Only phi1 is swept, so at fixed values of the other symbols every loop whose
phase misses phi1 is constant.  A `Reduction` closes those loops first, by
one LU solve (closing loops in sequence equals closing them together: the
Redheffer star product, or Schur reduction), and leaves a device M on the open
ports and the r ports of the loops that carry phi1.  Each phi1 sample, alone
or in a stack, then closes just those: an r x r solve.  The Woodbury identity
(the Schur block inverse) gives (I - S_cc F)^(-1) from that solve at O(m^2)
per sample, so each sample's exact 1-norm condition screens it for
singularity, and only samples the screen catches get the SVD that decides.
`CompiledClosure.condition` reports the 2-norm condition of one sample, and
the reduced M_kk places phi1's resonance (`CompiledClosure.phi1_pole`).  The
truncated round-trip series is kept as an independent cross-check
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

#: Byte budget of one stack of (m, m) complex closed blocks (`stack_size`).
#: On a netlist bias and a 30-closed-port sweep, 1 MiB measured about 3 MB
#: more peak RSS than one sample at a time; 64 KiB measured under 0.5 MB.
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

    Phases may be numbers or expressions; those without a free symbol are
    evaluated here, once, the others by `value` per solve.  Open ports keep
    device order unless `open_ports` orders them.  F has one entry per
    column, F[perm[c], c] = f[c] (a seal's on the diagonal, a link's two
    swapped across it), so products with F permute and scale (`_left`, and
    S_cc F = `_gathered` times f) rather than multiply matrices.
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
        self.perm = np.arange(len(closed_idx))
        self._owner = np.empty_like(self.perm)  # the loop of each closed port
        for i, (k, *_) in enumerate(self.loops):
            self.perm[k], self._owner[k] = k[::-1], i
        self._gathered = self.blocks[3][:, self.perm]
        self._sign, self._share = (np.array([loop[j] for loop in self.loops]) for j in (1, 2))
        # loops whose phase `value` maps per solve; the others' radians, once
        phases = [loop[3] for loop in self.loops]
        self._varying = [i for i, p in enumerate(phases)
                         if isinstance(p, PhaseExpr) and p.free_symbols]
        self._carriers = [i for i in self._varying if "phi1" in phases[i].free_symbols]
        self._phase = np.array([0.0 if i in self._varying else
                                p.evaluate() if isinstance(p, PhaseExpr) else float(p)
                                for i, p in enumerate(phases)])
        self._reduced = None  # (bindings, Reduction) of the last `reduction`

    @property
    def stack_size(self) -> int:
        """Samples per stacked solve: their closed blocks fit `STACK_BYTES`
        (at least one)."""
        return max(1, STACK_BYTES // (16 * max(1, len(self.closed)) ** 2))

    def feedback(self, value=float, slope=None, ports=None):
        """Entries f of the feedback matrix F and, when `slope` maps a phase
        to its phi1-derivative, those of dF/dphi1 (else None), for the
        closed ports `ports` (default all) in that order.  `value` and
        `slope` see only the phases with a free symbol (the others keep
        their value and slope 0); arrays they return lead f and df as batch
        axes: (..., m) for m ports.
        """
        # no np.unique: sorting pages in ~0.7 MB of SIMD sort code
        owners = (self._owner if ports is None else self._owner[ports]).tolist()
        loops = sorted(set(owners))
        owner = [loops.index(i) for i in owners]
        varying = [i in self._varying for i in loops]

        def per_loop(of, constant):  # (..., loops)
            if not any(varying):
                return constant
            values = [of(self.loops[i][3]) if v else c for i, v, c in zip(loops, varying, constant)]
            return np.stack(np.broadcast_arrays(*values), -1)

        # products with a purely real or imaginary factor are exact up to one
        # rounding, so a sample gets the same bits alone or stacked
        share = self._share[loops]
        amp = self._sign[loops] * np.exp(1j * (share * per_loop(value, self._phase[loops])))
        if slope is None:
            return amp[..., owner], None
        return amp[..., owner], (1j * (share * per_loop(slope, np.zeros(len(loops)))) * amp)[..., owner]

    def reduction(self, bindings: Mapping[str, float]) -> "Reduction":
        """The `Reduction` at `bindings` of the symbols other than phi1, all
        numbers.  The last one is kept, so calls at one phi2 share it."""
        key = sorted((k, float(v)) for k, v in bindings.items() if k != "phi1")
        if self._reduced is None or self._reduced[0] != key:
            self._reduced = key, Reduction(self, lambda p: p.evaluate(bindings))
        return self._reduced[1]

    def phi1_pole(self, bindings: Mapping[str, float]) -> Optional[tuple[float, float, float]]:
        """(centre, half-width, period) in phi1 of the resonance of the one
        seal whose phase a*phi1 + b carries phi1, at `bindings` of the other
        symbols; None if phi1 enters a link, several entries or a phase not
        affine in it.  The reduction leaves 1 - w z with w = sign M_kk, zero
        at z* = 1/w: centre (-arg w - b)/a, half-width |log|w||/|a| (the
        Fabry-Perot linewidth).  |w| = 1 is a bound state the open ports
        never see.
        """
        if len(self._carriers) != 1:
            return None
        _, sign, share, phase = self.loops[self._carriers[0]]
        if share != 1.0 or not phase.is_affine_in("phi1"):
            return None
        M_kk = self.reduction(bindings).blocks[3]
        at0 = {**bindings, "phi1": 0.0}
        a, b = phase.derivative("phi1", at0), phase.evaluate(at0)
        w = sign * complex(M_kk[0, 0]) if M_kk.shape == (1, 1) else 0.0
        if a == 0.0 or abs(w) in (0.0, 1.0):
            return None
        return (-cmath.phase(w) - b) / a, abs(math.log(abs(w)) / a), 2.0 * math.pi / abs(a)

    def _block(self, f):
        """A = I - S_cc F for the feedback entries f."""
        return np.eye(len(self.closed)) - self._gathered * f[..., None, :]

    def condition(self, value=float) -> float:
        """2-norm condition number of I - S_cc F at one phase sample (one
        SVD); 1.0 if nothing is closed."""
        if not self.closed:
            return 1.0
        f, _ = self.feedback(value)
        return float(1.0 / _rcond(self._block(f)))

    def _gate(self, worst: float):
        """Raise SingularClosureError if the worst 2-norm rcond of a stack is
        below SINGULARITY_RCOND."""
        if worst < SINGULARITY_RCOND:
            raise SingularClosureError(
                f"singular closure: feedback through ports {list(self.closed)} is "
                f"resonant and traps a lossless bound state (rcond={worst:.2e})"
            )

    def solve(self, value=float, slope=None, reduced: Optional["Reduction"] = None):
        """(S_eff, dS_eff/dphi1 or None) for the phases that `value` and
        `slope` map as in `feedback`, closing only the loops that carry phi1
        on `reduced` (by default the `Reduction` at `value`).

        With D = I - M_kk F and X = D^-1 M_ko, S_eff = M_oo + M_ok F X, and
        the resolvent identity gives dS_eff = M_ok (I - F M_kk)^-1 dF X =
        M_ok (I + F Y) dF X, with Y = D^-1 M_kk from X's solve.  Array-valued
        phases are one stack over their batch axes, which lead every result;
        each sample gets the same bits alone as in any stack.  The gate
        raises SingularClosureError, with the worst 2-norm rcond, if any
        sample's is below SINGULARITY_RCOND; it runs an SVD only on samples
        that `_screen` catches, or on all if the LU meets a zero pivot.
        """
        red = Reduction(self, value) if reduced is None else reduced
        M_oo, M_ok, M_ko, _ = red.blocks
        if not red.K.size:
            return M_oo, None if slope is None else np.zeros_like(M_oo)
        f, df = self.feedback(value, slope, red.K)
        p, n_open = red.perm, M_ko.shape[1]
        D = np.eye(len(p)) - red.gathered * f[..., None, :]
        try:
            # numpy < 2 reads a b of lower rank than the stack as vectors
            XY = np.linalg.solve(D, np.broadcast_to(red.rhs, D.shape[:-1] + red.rhs.shape[-1:]))
        except np.linalg.LinAlgError:  # a zero pivot: let the SVD decide
            self._gate_full(red, f)
            raise
        X, Y = XY[..., :n_open], XY[..., n_open:]
        self._screen(red, Y, f)
        FX = _left(f, X, p)
        if df is None:
            return M_oo + M_ok @ FX, None
        V = _left(df, X, p)
        # one product with M_ok for S_eff and dS_eff
        out = M_ok @ np.concatenate((FX, V + _left(f, Y @ V, p)), axis=-1)
        return M_oo + out[..., :n_open], out[..., n_open:]

    def _screen(self, red, Y, f):
        """Gate the samples whose 1-norm rcond of the full block A = I - S_cc F
        does not prove them regular.  A = B - S_ck F E_k^T, so A^-1 = B^-1 +
        B^-1 S_ck F D^-1 (B^-1)_k. (Woodbury), with D^-1 = I + Y F: O(m^2) per
        sample, and D^-1 itself when every loop is open to the samples.

        For m x m blocks ||M||_2 <= sqrt(m) ||M||_1, so rcond_2 >= rcond_1 / m:
        a sample with rcond_1 >= 100 m SINGULARITY_RCOND has rcond_2 >= 100
        SINGULARITY_RCOND.  The computed inverse is off by about m u kappa
        (u the unit roundoff), under 1e-5 relative for kappa_1 <= 1e10 / m
        at the bound, and the SVD's rcond by about m u; the factor 100 covers
        both many times over, so the screen passes no sample that the SVD
        would refuse.  NaN and inf from an overflowing solve are caught.
        """
        p = red.perm
        inverse = np.eye(len(p)) + Y[..., :, p] * f[..., None, :]
        if len(p) < len(self.closed):  # some loop closed in the reduction
            inverse = red.G @ _left(f, inverse, p) @ red.HI
            inverse += red.Binv
        norm = np.maximum(red.norm0, _norm1(red.eye - red.cols * f[..., None, :]))
        caught = ~(1.0 / (norm * _norm1(inverse)) >= 100.0 * len(self.closed) * SINGULARITY_RCOND)
        if np.any(caught):
            self._gate_full(red, f[caught])

    def _gate_full(self, red, f):
        """`_gate` on the full blocks at the carrier entries f of `red`."""
        full = np.tile(red.f0, f.shape[:-1] + (1,))
        full[..., red.K] = f
        self._gate(float(np.min(_rcond(self._block(full)))))


class Reduction:
    """A `CompiledClosure` with every loop that misses phi1 closed, at one
    value of the other symbols.  With the ports k of the loops that carry
    phi1 cut (F0: F without their entries), one LU inverse of B = I - S_cc F0
    gives the device left on the open ports and k, `blocks` = (M_oo, M_ok,
    M_ko, M_kk): M = S + S_.c F0 B^-1 S_c. on rows and columns o and k.  If
    B fails the screen's bound (`CompiledClosure._screen`), or a phase without
    phi1 maps to an array, every loop stays open to the samples: F0 = 0 and
    M = S.  It holds arrays only, for `CompiledClosure.solve`.
    """

    def __init__(self, closure: CompiledClosure, value=float):
        c = closure
        S_oo, S_oc, S_co, S_cc = c.blocks
        m, n = len(c.closed), len(c.labels)
        for loops in (c._carriers, range(len(c.loops))):
            cut = np.array([i in loops for i in c._owner.tolist()], dtype=bool)
            K, rest = np.flatnonzero(cut), np.flatnonzero(~cut)
            f0, r = np.zeros(m, dtype=complex), len(K)
            entries, _ = c.feedback(value, ports=rest)
            if entries.ndim > 1:  # varies along a stack
                continue
            f0[rest] = entries
            B = c._block(f0)
            try:
                Binv = np.linalg.inv(B)
            except np.linalg.LinAlgError:
                continue
            if not m or 1.0 / (_norm1(B) * _norm1(Binv)) >= 100.0 * m * SINGULARITY_RCOND:
                break
        XY = Binv @ np.hstack((S_co, S_cc[:, K]))  # B^-1 [S_co | S_ck]
        F0XY = _left(f0, XY, c.perm)
        self.blocks = (S_oo + S_oc @ F0XY[:, :n], S_oc[:, K] + S_oc @ F0XY[:, n:],
                       XY[K, :n], XY[K, n:])
        self.rhs = XY[K]  # [M_ko | M_kk]
        place = np.zeros(m, dtype=int)
        place[K] = np.arange(r)
        self.f0, self.K, self.perm = f0, K, place[c.perm[K]]
        self.gathered = self.blocks[3][:, self.perm]  # M_kk F = this times f
        # the screen's constants: A's constant columns' largest 1-norm, its
        # others before F scales them, and B^-1 S_ck, B^-1 and its rows k
        self.norm0 = np.abs(B).sum(axis=0)[rest].max(initial=0.0)
        self.cols, self.eye = S_cc[:, K][:, self.perm], np.eye(m)[:, K]
        self.G, self.Binv, self.HI = XY[:, n:], Binv, Binv[K]


def _left(f, M, perm):
    """F M for the feedback entries f paired by perm (an involution)."""
    return f[..., perm, None] * M[..., perm, :]


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
    """Close sealed and linked ports of S into an effective open-port device:
    the coherent sum over all internal round-trip paths, exactly, and unitary
    for a unitary S.  Raises SingularClosureError when (I - S_cc F) is
    numerically singular: the closed ports trap a lossless bound state.
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
        fed_back = _left(f, reaching, closure.perm)
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
    return float(np.max(np.abs(np.linalg.eigvals(closure._gathered * f))))
