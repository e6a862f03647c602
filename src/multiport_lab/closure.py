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
phi1: an r x r solve.  Blocks of at most two ports close in closed form (the
adjugate over the determinant; for r = 1, a division), and LAPACK and BLAS
serve only larger ones: their first call in a process pages in 0.3-0.8 MB of
OpenBLAS, and every built-in netlist has m <= 2 and r <= 1.  The solve's
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

    def condition(self, value=float) -> float:
        """2-norm condition number of I - S_cc F at one phase sample (one
        SVD); 1.0 if nothing is closed."""
        if not self.closed:
            return 1.0
        f, _ = self.feedback(value)
        return float(1.0 / _rcond(self._block(f)))

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
        D = np.eye(len(p)) - _mul(red.gathered, f[..., None, :])
        # r = 1 and no zero pivot: the solve is a division and every product
        # an outer one, with no LAPACK or BLAS; an overflow reaches the screen
        tiny = len(p) == 1 and np.all(D)
        dot = _mul if tiny else np.matmul
        try:  # numpy < 2 reads a b of lower rank than the stack as vectors
            with np.errstate(over="ignore", invalid="ignore"):
                XY = red.rhs / D if tiny else np.linalg.solve(
                    D, np.broadcast_to(red.rhs, D.shape[:-1] + red.rhs.shape[-1:]))
        except np.linalg.LinAlgError:  # a zero pivot: let the SVD decide
            self._gate_full(red, f)
            raise
        X, Y = XY[..., :n_open], XY[..., n_open:]
        self._screen(red, Y, f)
        FX = _left(f, X, p)
        if df is None:
            return M_oo + dot(M_ok, FX), None
        V = _left(df, X, p)
        # one product with M_ok for S_eff and dS_eff
        out = dot(M_ok, np.concatenate((FX, V + _left(f, dot(Y, V), p)), axis=-1))
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
    """A `CompiledClosure` with every loop that misses phi1 closed, at one
    value of the other symbols.  With the ports k of the loops that carry
    phi1 cut (F0: F without their entries), one inverse of B = I - S_cc F0
    (`_inv`: closed form up to 2 x 2, LU above) gives the device left on the
    open ports and k, `blocks` = (M_oo, M_ok, M_ko, M_kk): M = S + S_.c F0
    B^-1 S_c. on rows and columns o and k.  If B misses the screen's rcond
    bound (`CompiledClosure._screen`), or a phase without phi1 maps to an
    array, every loop stays open to the samples: F0 = 0 and M = S.  It holds
    what `CompiledClosure.solve` and its screen read.
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
                Binv = _inv(B)
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


def _inv(B):
    """B^-1 for a square B; for at most 2 x 2, the reciprocal or the
    adjugate over the determinant, which needs no LAPACK (its first call
    pages in about 0.7 MB).  Raises LinAlgError if B is exactly singular."""
    m = len(B)
    if m > 2:
        return np.linalg.inv(B)
    if m == 2:
        (a, b), (c, d) = B
        adj, det = np.array([[d, -b], [-c, a]]), a * d - b * c
    else:  # the reciprocal, or the empty inverse
        adj, det = np.ones_like(B), B[0, 0] if m else 1.0
    if det == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    return adj / det


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
