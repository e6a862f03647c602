"""Feedback closure: sealed and linked ports of a multiport network.

Sealing a port with a mirror (round-trip phase phi) or linking two ports of a
composite device turns those ports into internal cavity modes.  The device
seen from the remaining open ports is obtained by coherently summing every
internal round-trip path.  With the port set split into open (o) and closed
(c) blocks and F the feedback matrix mapping outgoing closed-port amplitudes
to the amplitudes re-entering the device, the effective matrix is

    S_eff = S_oo + S_oc F (I - S_cc F)^(-1) S_co

Only phi1 is swept, so at fixed values of the other symbols every loop whose
phase misses phi1 is constant.  A `Reduction` closes those loops once, by one
inverse of the block of the m closed ports (closing loops in sequence equals
closing them together: the Redheffer star product), and each phi1 sample,
alone or in a stack, then closes only the r ports of the loops that carry
phi1: an r x r solve.  Both go through `_solve`, which closes blocks of at
most two ports in closed form (the adjugate over the determinant; for one
port, a division), so a phi1 seal or link needs no LAPACK or BLAS, whose
first call in a process pages in 0.3-0.8 MB of OpenBLAS; the link form of
docs/netlists still solves its 4-port constant block by LU.  The solve's
1-norm condition, bounded in O(r^2) through the Woodbury identity, screens
each sample for singularity, and only the samples it catches get the SVD
that decides.  The truncated round-trip series is kept as an independent
cross-check (`close_series_truncated`); it converges whenever the spectral
radius of S_cc F is below one.

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

#: Byte budget of a stacked solve's per-sample arrays, (r + n_open)^2 complex
#: entries for r carrier and n_open open ports (`Reduction.stack_size`); 1 MiB
#: measured 3 MB more peak RSS than one sample at a time, 64 KiB under 0.5 MB.
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
    evaluated here, once, the others at each call's bindings.  Open ports keep
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
        # loops whose phase is evaluated per call; the others' radians, once
        phases = [loop[3] for loop in self.loops]
        self._varying = [i for i, p in enumerate(phases)
                         if isinstance(p, PhaseExpr) and p.free_symbols]
        self._carriers = [i for i in self._varying if "phi1" in phases[i].free_symbols]
        self._phase = np.array([0.0 if i in self._varying else
                                p.evaluate() if isinstance(p, PhaseExpr) else float(p)
                                for i, p in enumerate(phases)])
        self._reduced = None  # (bindings, Reduction) of the last `reduction`

    def feedback(self, bindings=None, slope=False, ports=None):
        """Entries f of the feedback matrix F at `bindings` (symbol ->
        number; phi1 may be an array) and, if `slope`, those of dF/dphi1
        (else None), for the closed ports `ports` (default all) in that
        order.  Each port evaluates the phase of its loop if it has a free
        symbol (the others keep their value and slope 0); arrays lead f and
        df as batch axes: (..., m) for m ports.
        """
        owner = (self._owner if ports is None else self._owner[ports]).tolist()
        varying = [self.loops[i][3] if i in self._varying else None for i in owner]

        def per_port(of, constant):  # (..., ports)
            if not any(p is not None for p in varying):
                return constant
            values = [c if p is None else of(p) for p, c in zip(varying, constant)]
            return np.stack(np.broadcast_arrays(*values), -1)

        # products with a purely real or imaginary factor are exact up to one
        # rounding, so a sample gets the same bits alone or stacked
        share = self._share[owner]
        amp = self._sign[owner] * np.exp(1j * (share * per_port(
            lambda p: p.evaluate(bindings), self._phase[owner])))
        if not slope:
            return amp, None
        return amp, 1j * (share * per_port(lambda p: p.derivative("phi1", bindings),
                                           np.zeros(len(owner)))) * amp

    def reduction(self, bindings: Optional[Mapping[str, float]] = None) -> "Reduction":
        """The `Reduction` at `bindings` of the symbols other than phi1, all
        numbers.  The last one is kept, so calls at one phi2 share it."""
        bindings = bindings or {}
        key = sorted((k, float(v)) for k, v in bindings.items() if k != "phi1")
        if self._reduced is None or self._reduced[0] != key:
            self._reduced = key, Reduction(self, bindings)
        return self._reduced[1]

    def phi1_pole(self, bindings: Mapping[str, float]
                  ) -> Optional[tuple[Optional[float], Optional[float], float]]:
        """(centre, half-width, period) in phi1 of the resonance of the one
        seal or link whose phase a*phi1 + b carries phi1, at `bindings` of
        the other symbols; None if phi1 enters several entries or a phase not
        affine in it, or if a = 0.  For a seal the reduction leaves 1 - w z
        with w = sign M_kk, zero at z* = 1/w: centre (-arg w - b)/a,
        half-width |log|w||/|a| (the Fabry-Perot linewidth).  Centre and
        half-width are None for a link (a 2 x 2 block), or if |w| is 0 (no
        cavity) or 1 (a bound state, so M_ok = 0 and T is flat); T still
        repeats with the period 2*pi/|share*a|: 2*pi/|a| for a seal, 4*pi/|a|
        for a link, whose feedback carries exp(i*share*(a*phi1 + b)).
        """
        if len(self._carriers) != 1:
            return None
        _, sign, share, phase = self.loops[self._carriers[0]]
        if not phase.is_affine_in("phi1"):
            return None
        M_kk = self.reduction(bindings).blocks[3]
        at0 = {**bindings, "phi1": 0.0}
        a, b = phase.derivative("phi1", at0), phase.evaluate(at0)
        w = sign * complex(M_kk[0, 0]) if M_kk.shape == (1, 1) else 0.0
        if a == 0.0:
            return None
        period = 2.0 * math.pi / abs(share * a)
        if abs(w) in (0.0, 1.0):
            return None, None, period
        return (-cmath.phase(w) - b) / a, abs(math.log(abs(w)) / a), period

    def _block(self, f):
        """A = I - S_cc F for the feedback entries f."""
        return np.eye(len(self.closed)) - self._gathered * f[..., None, :]

    def condition(self, bindings=None) -> float:
        """2-norm condition number of I - S_cc F at one phase sample (one
        SVD); 1.0 if nothing is closed."""
        if not self.closed:
            return 1.0
        f, _ = self.feedback(bindings)
        return float(1.0 / _rcond(self._block(f)))

    def solve(self, bindings=None, slope=False):
        """(S_eff, dS_eff/dphi1 if `slope`, else None) at `bindings` as in
        `feedback`, closing only the loops that carry phi1 on the
        `reduction` at `bindings`.

        With D = I - M_kk F and X = D^-1 M_ko, S_eff = M_oo + M_ok F X, and
        the resolvent identity gives dS_eff = M_ok (I - F M_kk)^-1 dF X =
        M_ok (I + F Y) dF X, with Y = D^-1 M_kk from X's solve (`_solve`:
        closed form for r <= 2).  An array phi1 is one stack over its batch
        axes, which lead every result; each sample gets the same bits alone
        as in any stack.  The gate raises SingularClosureError, with the
        worst 2-norm rcond, if any sample's is below SINGULARITY_RCOND; it
        runs an SVD only on samples that `_screen` catches, or on all if a
        block of the stack is exactly singular.
        """
        red = self.reduction(bindings)
        M_oo, M_ok, M_ko, _ = red.blocks
        if not red.K.size:
            return M_oo, np.zeros_like(M_oo) if slope else None
        f, df = self.feedback(bindings, slope, red.K)
        p, n_open = red.perm, M_ko.shape[1]
        D = np.eye(len(p)) - _mul(red.gathered, f[..., None, :])
        try:
            XY = _solve(D, red.rhs)
        except np.linalg.LinAlgError:  # an exactly singular block: let the SVD decide
            self._gate_full(red, f)
            raise
        X, Y = XY[..., :n_open], XY[..., n_open:]
        self._screen(red, Y, f)
        FX = _left(f, X, p)
        if df is None:
            return M_oo + _dot(M_ok, FX), None
        V = _left(df, X, p)
        # one product with M_ok for S_eff and dS_eff
        out = _dot(M_ok, np.concatenate((FX, V + _left(f, _dot(Y, V), p)), axis=-1))
        return M_oo + out[..., :n_open], out[..., n_open:]

    def _screen(self, red, Y, f):
        """Gate the samples whose 1-norm rcond of the full block A = I - S_cc F,
        bounded below by `Reduction.norms`, does not prove them regular.

        For m x m blocks ||M||_2 <= sqrt(m) ||M||_1, so rcond_2 >= rcond_1 / m:
        a sample with rcond_1 >= 100 m SINGULARITY_RCOND has rcond_2 >= 100
        SINGULARITY_RCOND.  The computed inverse is off by about m u kappa
        (u the unit roundoff), under 1e-5 relative for kappa_1 <= 1e10 / m
        at the bound, and the SVD's rcond by about m u; the factor 100 covers
        both many times over, so the screen passes no sample that the SVD
        would refuse.  NaN and inf from an overflowing solve are caught.
        """
        norm, inverse = red.norms(Y, f)
        caught = ~(1.0 / (norm * inverse) >= 100.0 * len(self.closed) * SINGULARITY_RCOND)
        if np.any(caught):
            self._gate_full(red, f[caught])

    def _gate_full(self, red, f):
        """Raise SingularClosureError if the worst 2-norm rcond of the full
        blocks at the carrier entries f of `red` is below SINGULARITY_RCOND."""
        full = np.tile(red.f0, f.shape[:-1] + (1,))
        full[..., red.K] = f
        worst = float(np.min(_rcond(self._block(full))))
        if worst < SINGULARITY_RCOND:
            raise SingularClosureError(
                f"singular closure: feedback through ports {list(self.closed)} is "
                f"resonant and traps a lossless bound state (rcond={worst:.2e})"
            )


class Reduction:
    """A `CompiledClosure` with every loop that misses phi1 closed, at
    `bindings` of the other symbols, all numbers.  With the ports k of the
    loops that carry phi1 cut (F0: F without their entries), one inverse of
    B = I - S_cc F0 (`_solve(B, I)`: closed form up to 2 x 2, LU above)
    gives the device left on the open ports and k, `blocks` = (M_oo, M_ok,
    M_ko, M_kk): M = S + S_.c F0 B^-1 S_c. on rows and columns o and k.  If
    B misses the screen's rcond bound (`CompiledClosure._screen`), every
    loop stays open to the samples: F0 = 0 and M = S.  It holds what
    `CompiledClosure.solve` and its screen read.
    """

    def __init__(self, closure: CompiledClosure, bindings: Mapping[str, float]):
        c = closure
        S_oo, S_oc, S_co, S_cc = c.blocks
        m, n = len(c.closed), len(c.labels)
        for loops in (c._carriers, range(len(c.loops))):
            cut = np.array([i in loops for i in c._owner.tolist()], dtype=bool)
            K, rest = np.flatnonzero(cut), np.flatnonzero(~cut)
            f0, r = np.zeros(m, dtype=complex), len(K)
            f0[rest], _ = c.feedback(bindings, ports=rest)
            B = c._block(f0)
            try:  # B = I when no constant loop is left closed
                Binv = _solve(B, np.eye(m)) if len(rest) else np.eye(m, dtype=complex)
            except np.linalg.LinAlgError:
                continue
            if not m or 1.0 / (_norm1(B) * _norm1(Binv)) >= 100.0 * m * SINGULARITY_RCOND:
                break
        XY = _dot(Binv, np.hstack((S_co, S_cc[:, K])))  # B^-1 [S_co | S_ck]
        F0XY = f0[c.perm, None] * XY[c.perm]
        self.blocks = (S_oo + _dot(S_oc, F0XY[:, :n]), S_oc[:, K] + _dot(S_oc, F0XY[:, n:]),
                       XY[K, :n], XY[K, n:])
        self.rhs = XY[K]  # [M_ko | M_kk]
        self.f0, self.K, self.perm = f0, K, np.searchsorted(K, c.perm[K])  # perm within K
        self.gathered = self.blocks[3][:, self.perm]  # M_kk F = this times f
        self.stack_size = max(1, STACK_BYTES // (16 * (r + n) ** 2))  # samples per solve
        # `norms`' constants; the Woodbury norms are 0 and 1 if A = D
        self.diag = S_cc[K, c.perm[K]]
        self.off = np.abs(S_cc[:, c.perm[K]]).sum(axis=0) - np.abs(self.diag)
        self.norm0 = np.abs(B).sum(axis=0)[rest].max(initial=0.0)
        self.binv1, self.gh1 = ((_norm1(Binv), _norm1(XY[:, n:]) * _norm1(Binv[K]))
                                if r < m else (0.0, 1.0))

    def norms(self, Y, f):
        """||A||_1 and a bound on ||A^-1||_1 for each sample's full block A =
        I - S_cc F in O(r^2), from carrier entries f and Y = D^-1 M_kk of
        `CompiledClosure.solve`.  As |f| = 1, carrier column c of A sums to
        off_c + |1 - d_c f_c| (d_c = s_c, off_c the other |s_i|, s = S_cc[:,
        perm[c]]); A's other columns are B's.  A = B - S_ck F E_k^T, so A^-1
        = B^-1 + B^-1 S_ck F D^-1 (B^-1)_k. (Woodbury), with D^-1 = I + Y F
        and ||F||_1 = 1: ||A^-1||_1 <= ||B^-1|| + ||B^-1 S_ck|| ||D^-1||
        ||(B^-1)_k.||, or ||D^-1||_1 when every loop is open (A = D)."""
        p = self.perm
        norm = np.max(self.off + np.abs(1.0 - self.diag * f), axis=-1)
        inverse = _norm1(np.eye(len(p)) + Y[..., :, p] * f[..., None, :])
        return np.maximum(self.norm0, norm), self.binv1 + self.gh1 * inverse


def _left(f, M, perm):
    """F M for the feedback entries f paired by perm (an involution)."""
    return _mul(f[..., perm, None], M[..., perm, :])


def _mul(a, b):
    """a * b from products with a real or an imaginary factor, each exact to
    one rounding, where numpy's complex product rounds differently in long
    stacks than in short ones: a sample gets the same bits in any stack."""
    return a * b.real + (1j * a) * b.imag


def _solve(A, b):
    """A^-1 b for each block of the stack A.  A block of at most two ports
    is closed in closed form, the reciprocal or the adjugate over a `_mul`
    determinant, which needs no LAPACK (its first call pages in about 0.7
    MB) and gives a block the same bits alone as in any stack; larger ones
    go to np.linalg.solve.  Raises LinAlgError if a block is exactly
    singular; an overflow gives inf or nan, with no warning."""
    m = A.shape[-1]
    if m > 2:  # numpy < 2 reads a b of lower rank than the stack as vectors
        return np.linalg.solve(A, np.broadcast_to(b, A.shape[:-1] + b.shape[-1:]))
    if m == 2:
        (w, x), (y, z) = np.moveaxis(A, (-2, -1), (0, 1))
        det = _mul(w, z) - _mul(x, y)
        b = _dot(np.moveaxis(np.array([[z, -x], [-y, w]]), (0, 1), (-2, -1)), b)
    else:  # the reciprocal, or the empty solve
        det = A[..., 0, 0] if m else np.ones(A.shape[:-2])
    if not np.all(det):
        raise np.linalg.LinAlgError("Singular matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        return b / det[..., None, None]


def _dot(a, b):
    """a @ b over the last two axes; for an inner size of at most 2, a sum of
    broadcast `_mul` products, which needs no BLAS (its first complex
    product pages in 0.3-0.4 MB)."""
    if a.shape[-1] > 2:
        return a @ b
    return _mul(a[..., :, :, None], b[..., None, :, :]).sum(axis=-2)


def _norm1(M):
    """1-norm (largest column sum of moduli) of each block of the stack M."""
    return np.abs(M).sum(axis=-2).max(axis=-1, initial=0.0)


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
    return _direct_sum([("A", SA), ("B", SB)])


def _direct_sum(parts: Sequence[tuple[str, ScatteringMatrix]]) -> ScatteringMatrix:
    """Direct sum of the (name, device) parts with zero cross-blocks, each
    port labeled "<name>.<label>"."""
    n = sum(S.n_ports for _, S in parts)
    m = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for _, S in parts:
        m[at:at + S.n_ports, at:at + S.n_ports] = S.matrix
        at += S.n_ports
    return ScatteringMatrix(m, tuple(f"{name}.{l}" for name, S in parts for l in S.port_labels))


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
