"""Feedback closure: sealing and linking ports of a unitary network.

The reference values here come from hand algebra on small networks (2x2 and
4x4 cases solved symbolically) rather than from the engine itself, so the
engine and the formulas fail independently.
"""

import cmath
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from multiport_lab import (
    Link,
    LinkSet,
    PortError,
    ScatteringMatrix,
    SingularClosureError,
    Termination,
    block_diag,
    close_network,
    close_series_truncated,
    closure_spectral_radius,
    link_close,
    make_beam_splitter_4port,
    make_grover_coin,
    parse_netlist,
    seal_ports,
)
from multiport_lab.closure import SINGULARITY_RCOND, CompiledClosure
from multiport_lab.netlist import close_netlist, combined_matrix
from multiport_lab.phase_expr import PhaseExpr

DOCS = Path(__file__).resolve().parent.parent / "docs" / "netlists"


def random_unitary(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return ScatteringMatrix(q * (np.diagonal(r) / np.abs(np.diagonal(r))))


# --- sealing -----------------------------------------------------------------

def test_seal_one_port_of_grover4_matches_rational_form():
    # Sealing one port of the 4-port coin with a mirror of round-trip phase
    # phi leaves a 3-port device with reflection r = 1/(e^{i phi} - 2) and
    # transmission t = 1 + r on the remaining ports.
    for phi in np.linspace(0.0, 2 * np.pi, 37):
        dev = seal_ports(make_grover_coin(4), [Termination("p4", float(phi))])
        r = 1.0 / (np.exp(1j * phi) - 2.0)
        t = 1.0 + r
        expected = np.full((3, 3), t, dtype=complex)
        np.fill_diagonal(expected, r)
        assert_allclose(dev.effective.matrix, expected, atol=1e-13)


def test_seal_phase_zero_gives_three_sided_mirror():
    dev = seal_ports(make_grover_coin(4), [Termination("p4", 0.0)])
    assert_allclose(np.abs(np.diag(dev.effective.matrix)), 1.0, atol=1e-14)


def test_seal_phase_pi_gives_grover3():
    dev = seal_ports(make_grover_coin(4), [Termination("p4", np.pi)])
    assert_allclose(dev.effective.matrix, make_grover_coin(3).matrix, atol=1e-14)


def test_sealed_device_is_unitary():
    dev = seal_ports(random_unitary(5, 11), [Termination("p2", 1.3), Termination("p5", 0.4)])
    m = dev.effective.matrix
    assert_allclose(m @ m.conj().T, np.eye(3), atol=1e-12)


def test_seal_keeps_unsealed_labels_in_order():
    dev = seal_ports(make_grover_coin(4), [Termination("p2", 0.7)])
    assert dev.open_port_labels == ("p1", "p3", "p4")


def test_mirror_and_bare_loop_differ_by_sign():
    # A mirror contributes -e^{i phi}, a bare loop +e^{i phi}; sealing with a
    # mirror at phi must equal sealing with a bare loop at phi + pi.
    S = random_unitary(4, 3)
    a = seal_ports(S, [Termination("p1", 0.9, has_mirror=True)])
    b = seal_ports(S, [Termination("p1", 0.9 + np.pi, has_mirror=False)])
    assert_allclose(a.effective.matrix, b.effective.matrix, atol=1e-12)


def test_seal_unknown_port_rejected():
    with pytest.raises(PortError):
        seal_ports(make_grover_coin(3), [Termination("p9", 0.0)])


def test_seal_same_port_twice_rejected():
    with pytest.raises(PortError):
        seal_ports(
            make_grover_coin(4),
            [Termination("p1", 0.0), Termination("p1", 1.0)],
        )


def test_seal_all_ports_rejected():
    with pytest.raises(PortError):
        seal_ports(
            make_grover_coin(3),
            [Termination(p, 0.5) for p in ("p1", "p2", "p3")],
        )


def test_singular_closure_names_trapped_ports():
    # Three zero-phase mirrors on the 4-port coin trap a bound state.
    with pytest.raises(SingularClosureError) as err:
        seal_ports(
            make_grover_coin(4),
            [Termination(p, 0.0) for p in ("p1", "p2", "p3")],
        )
    assert "p1" in str(err.value)


def test_closure_condition_reported():
    dev = seal_ports(make_grover_coin(4), [Termination("p4", np.pi / 3)])
    assert dev.closure_condition >= 1.0
    assert np.isfinite(dev.closure_condition)


# --- links -------------------------------------------------------------------

def test_link_two_beam_splitters_forms_interferometer():
    # Two 50:50 splitters joined on both intermediate arms: a Mach-Zehnder
    # with zero internal phase routes everything to the cross output.
    A = make_beam_splitter_4port()
    B = make_beam_splitter_4port()
    S = block_diag(A, B)
    links = LinkSet(
        [Link("A.p3", "B.p1", 0.0), Link("A.p4", "B.p2", 0.0)]
    )
    dev = link_close(S, links)
    assert dev.open_port_labels == ("A.p1", "A.p2", "B.p3", "B.p4")
    m = dev.effective.matrix
    assert_allclose(m @ m.conj().T, np.eye(4), atol=1e-12)
    # input on A.p1 leaves entirely through the B-side outputs
    assert_allclose(np.abs(m[2, 0]) ** 2 + np.abs(m[3, 0]) ** 2, 1.0, atol=1e-12)


def test_link_phase_is_one_round_trip():
    # Splitting the round-trip phase evenly across both directions of the
    # link must reproduce a bare loop with the same total.
    S = block_diag(make_grover_coin(3), make_grover_coin(3))
    theta = 1.1
    dev = link_close(S, [Link("A.p3", "B.p1", theta)])
    S2 = block_diag(make_grover_coin(3), make_grover_coin(3))
    ref = link_close(S2, [Link("B.p1", "A.p3", theta)])
    assert_allclose(dev.effective.matrix, ref.effective.matrix, atol=1e-13)


def test_grover3_pair_fuses_into_grover4():
    S = block_diag(make_grover_coin(3), make_grover_coin(3))
    dev = link_close(S, [Link("A.p3", "B.p1", 0.0)])
    assert_allclose(dev.effective.matrix, make_grover_coin(4).matrix, atol=1e-13)


@pytest.mark.parametrize(
    "da,db", [(3, 3), (3, 4), (4, 4), (5, 3), (6, 6)]
)
def test_grover_fusion_rule(da, db):
    # linking one port of G_a to one of G_b with zero net phase yields
    # G_{a+b-2} on the remaining ports
    S = block_diag(make_grover_coin(da), make_grover_coin(db))
    dev = link_close(S, [Link("A.p1", f"B.p{db}", 0.0)])
    assert_allclose(
        dev.effective.matrix, make_grover_coin(da + db - 2).matrix, atol=1e-12
    )


def test_link_set_rejects_self_loop():
    with pytest.raises(PortError):
        LinkSet([Link("A.p1", "A.p1", 0.0)])


def test_link_set_rejects_reused_port():
    with pytest.raises(PortError):
        LinkSet([Link("A.p1", "A.p2", 0.0), Link("A.p2", "A.p3", 0.0)])


def test_mixed_seal_and_link_closure():
    S = block_diag(make_grover_coin(4), make_grover_coin(3))
    dev = close_network(
        S,
        terminations=[Termination("A.p4", np.pi)],
        links=[Link("A.p3", "B.p1", 0.0)],
    )
    # seal at pi turns G4 into G3; fusing G3 with G3 then gives G4
    assert_allclose(dev.effective.matrix, make_grover_coin(4).matrix, atol=1e-12)


# --- series expansion --------------------------------------------------------

def test_series_truncation_converges_geometrically():
    S = make_grover_coin(4)
    seals = [Termination("p4", 1.2)]
    rho = closure_spectral_radius(S, seals)
    assert rho == pytest.approx(0.5, abs=1e-15)
    exact = close_network(S, seals).effective.matrix
    for N in (0, 1, 2, 5, 10, 20):
        approx = close_series_truncated(S, N, seals).matrix
        err = np.max(np.abs(approx - exact))
        bound = 2.0 * rho ** (N + 1) / (1.0 - rho)
        assert err <= bound + 1e-12


def test_series_bound_random_networks():
    kept = 0
    seed = 0
    while kept < 20:
        seed += 1
        S = random_unitary(5, seed)
        seals = [Termination("p1", 0.8 * seed % 6.0), Termination("p3", 0.3 * seed % 6.0)]
        rho = closure_spectral_radius(S, seals)
        if rho > 0.9:
            continue
        kept += 1
        exact = close_network(S, seals).effective.matrix
        for N in (3, 8, 15):
            approx = close_series_truncated(S, N, seals).matrix
            err = np.max(np.abs(approx - exact))
            assert err <= 2.0 * rho ** (N + 1) / (1.0 - rho) + 1e-12, (seed, N)


def test_series_zeroth_order_is_direct_plus_single_bounce():
    S = make_grover_coin(4)
    seals = [Termination("p4", 0.7)]
    approx = close_series_truncated(S, 0, seals).matrix
    f = -np.exp(0.7j)
    expected = S.matrix[:3, :3] + S.matrix[:3, 3:] * f @ S.matrix[3:, :3]
    assert_allclose(approx, expected, atol=1e-15)


def test_spectral_radius_bare_loop_full_reflection():
    # a bare loop on one port of a 2x2 with unit reflection there is resonant
    S = ScatteringMatrix(np.eye(2, dtype=complex))
    rho = closure_spectral_radius(S, [Termination("p2", 0.0, has_mirror=False)])
    assert rho == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(SingularClosureError):
        seal_ports(S, [Termination("p2", 0.0, has_mirror=False)])


# --- stacked solves ------------------------------------------------------------

STACK_PHASES = ("2*phi1", "phi1*phi2", "-(phi1+pi/2)/3", "pi/5", "1.25")


def dense_closure(S, seals, links, open_labels, bindings):
    """The blocks (S_oo, S_oc, S_co, S_cc) and the dense F and dF/dphi1 of
    a closure at one sample, F from cmath."""
    closed = sorted([S.port_index(t.port) for t in seals]
                    + [S.port_index(p) for l in links for p in (l.port_a, l.port_b)])
    pos = {idx: k for k, idx in enumerate(closed)}
    o = [S.port_index(p) for p in open_labels]
    m = S.matrix
    S_oo, S_oc, S_co, S_cc = (m[np.ix_(a, b)] for a, b in ((o, o), (o, closed),
                                                           (closed, o), (closed, closed)))
    F = np.zeros((len(closed),) * 2, dtype=complex)
    dF = np.zeros_like(F)
    for t in seals:
        k = pos[S.port_index(t.port)]
        F[k, k] = (-1.0 if t.has_mirror else 1.0) * cmath.exp(
            1j * t.round_trip_phase.evaluate(bindings))
        dF[k, k] = 1j * t.round_trip_phase.derivative("phi1", bindings) * F[k, k]
    for l in links:
        a, b = pos[S.port_index(l.port_a)], pos[S.port_index(l.port_b)]
        F[a, b] = F[b, a] = cmath.exp(0.5j * l.round_trip_phase.evaluate(bindings))
        dF[a, b] = dF[b, a] = 0.5j * l.round_trip_phase.derivative("phi1", bindings) * F[a, b]
    return (S_oo, S_oc, S_co, S_cc), F, dF


def reference_solve(S, seals, links, open_labels, bindings):
    """The per-sample closure kept as the reference: dense F from cmath, one
    LU solve for S_eff and a second one, of (I - F S_cc) Z = dF X, for the
    resolvent derivative."""
    (S_oo, S_oc, S_co, S_cc), F, dF = dense_closure(S, seals, links, open_labels, bindings)
    eye = np.eye(len(F))
    X = np.linalg.solve(eye - S_cc @ F, S_co)
    return S_oo + S_oc @ F @ X, S_oc @ np.linalg.solve(eye - F @ S_cc, dF @ X)


def random_closure(rng, phases=STACK_PHASES):
    n = int(rng.integers(4, 8))
    S = random_unitary(n, int(rng.integers(1 << 30)))
    closed = [str(p) for p in rng.permutation(S.port_labels)[: int(rng.integers(2, n))]]
    n_links = int(rng.integers(0, len(closed) // 2 + 1))
    phase = lambda: PhaseExpr.parse(str(rng.choice(phases)))
    links = [Link(closed[2 * k], closed[2 * k + 1], phase()) for k in range(n_links)]
    seals = [Termination(p, phase(), bool(rng.integers(0, 2))) for p in closed[2 * n_links:]]
    return S, seals, links


def test_stacked_solve_matches_a_per_sample_loop_on_random_networks():
    rng = np.random.default_rng(20261018)
    for trial in range(10):
        S, seals, links = random_closure(rng)
        closure = CompiledClosure(S, seals, links)
        # not a multiple of the stack size the grid would be chunked by
        phi1 = rng.uniform(0.0, 2.0 * np.pi, 2 * closure.stack_size + 37)
        bindings = {"phi1": phi1, "phi2": float(rng.uniform(0.0, 2.0 * np.pi))}
        got, dgot = closure.solve(lambda p: p.evaluate(bindings),
                                  lambda p: p.derivative("phi1", bindings))
        # a network whose phases all miss phi1 gives one unbatched answer
        shape = phi1.shape + (len(closure.labels),) * 2
        got, dgot = np.broadcast_to(got, shape), np.broadcast_to(dgot, shape)
        for i, x in enumerate(phi1):
            want, dwant = reference_solve(S, seals, links, closure.labels,
                                          {**bindings, "phi1": float(x)})
            assert np.max(np.abs(got[i] - want)) <= 1e-12 * np.max(np.abs(want)), trial
            assert np.max(np.abs(dgot[i] - dwant)) <= 1e-12 * np.max(np.abs(dwant)), trial


def test_constant_phases_are_evaluated_once():
    S = random_unitary(6, 4)
    seals = [Termination("p1", PhaseExpr.parse("phi1")), Termination("p2", PhaseExpr.parse("pi/5")),
             Termination("p3", 1.25)]
    closure = CompiledClosure(S, seals, [Link("p4", "p5", PhaseExpr.parse("-(1+pi)/3"))])
    seen = []

    def value(p):
        seen.append(p)
        return p.evaluate({"phi1": 0.3})

    closure.solve(value, lambda p: seen.append(p) or p.derivative("phi1", {"phi1": 0.3}))
    assert seen == [seals[0].round_trip_phase] * 2
    # the constants keep the bits a per-solve evaluation gave them
    f, df = closure.feedback(value, lambda p: 1.0)
    assert f[2] == -np.exp(1j * 1.25) and f[3] == np.exp(0.5j * PhaseExpr.parse("-(1+pi)/3").evaluate())
    assert df[0] == 1j * f[0] and not np.any(df[1:])


def test_one_singular_sample_stops_the_stack_with_the_scalar_message():
    # three zero-phase mirrors on the 4-port coin trap a bound state
    closure = CompiledClosure(make_grover_coin(4), [
        Termination("p1", PhaseExpr.parse("phi1")), Termination("p2", 0.0),
        Termination("p3", 0.0)])
    phi1 = np.array([0.3, 1.0, 0.0, 2.0, 2.5])
    with pytest.raises(SingularClosureError) as alone:
        closure.solve(lambda p: p.evaluate({"phi1": 0.0}) if isinstance(p, PhaseExpr) else p)
    with pytest.raises(SingularClosureError) as stacked:
        closure.solve(lambda p: p.evaluate({"phi1": phi1}) if isinstance(p, PhaseExpr) else p)
    assert str(stacked.value) == str(alone.value)
    assert "['p1', 'p2', 'p3']" in str(stacked.value)


# --- singularity gate ----------------------------------------------------------

REFERENCE_SVD = np.linalg.svd


def reference_gate(closure, value):
    """The SVD gate kept as the reference: I - S_cc F for every sample of the
    stack, from the closure's feedback entries (F[perm[c], c] = f[c]), and
    the 2-norm rcond of each."""
    f, _ = closure.feedback(value)
    A = np.eye(len(closure.closed)) - closure.blocks[3][:, closure.perm] * f[..., None, :]
    sv = REFERENCE_SVD(A, compute_uv=False)
    return A, sv[..., -1] / np.where(sv[..., 0] > 0.0, sv[..., 0], np.inf)


def gate_message(closure, rcond):
    """The message the reference gate raises with for these rconds, or None."""
    worst = float(np.min(rcond))
    if worst >= SINGULARITY_RCOND:
        return None
    return (f"singular closure: feedback through ports {list(closure.closed)} is "
            f"resonant and traps a lossless bound state (rcond={worst:.2e})")


def raised_message(closure, phi1):
    try:
        closure.solve(lambda p: p.evaluate({"phi1": phi1}))
    except SingularClosureError as err:
        return str(err)
    return None


def trapping_closure(rng, exact):
    """A random closure beside a block whose ports are all closed, one of
    them by a mirror of phase phi1: its bound state is trapped at one phi1
    per period.  Returns the closure and that phi1.

    Every phase but phi1's is constant, so det(I - S_cc F) is affine in
    z = exp(i phi1); with d(1) and d(-1) the root is z* = -(d(1) + d(-1)) /
    (d(1) - d(-1)), on the unit circle since the closed block is unitary.
    """
    outer = random_unitary(int(rng.integers(3, 6)), int(rng.integers(1 << 30)))
    k = 2 if exact else int(rng.integers(2, 5))
    swap = ScatteringMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    inner = swap if exact else random_unitary(k, int(rng.integers(1 << 30)))
    S = block_diag(outer, inner)
    constant = lambda: PhaseExpr.parse(0) if exact else PhaseExpr.parse(float(rng.uniform(0.0, 7.0)))
    closed = [f"A.{p}" for p in rng.permutation(outer.port_labels)[: int(rng.integers(0, outer.n_ports))]]
    inner_ports = [f"B.{p}" for p in rng.permutation(inner.port_labels)]
    n_outer = int(rng.integers(0, len(closed) // 2 + 1))
    n_inner = 0 if exact else int(rng.integers(0, (k - 1) // 2 + 1))
    links = [Link(closed[2 * i], closed[2 * i + 1], constant()) for i in range(n_outer)]
    links += [Link(inner_ports[1 + 2 * i], inner_ports[2 + 2 * i], constant()) for i in range(n_inner)]
    seals = [Termination(p, constant(), bool(rng.integers(0, 2))) for p in closed[2 * n_outer:]]
    seals += [Termination(p, constant()) for p in inner_ports[1 + 2 * n_inner:]]
    seals.append(Termination(inner_ports[0], PhaseExpr.parse("phi1")))
    closure = CompiledClosure(S, seals, links)
    d1, dm1 = (np.linalg.det(reference_gate(closure, lambda p: p.evaluate({"phi1": x}))[0])
               for x in (0.0, np.pi))
    return closure, float(np.angle(-(d1 + dm1) / (d1 - dm1)))


def test_screened_gate_decides_like_the_svd_gate(monkeypatch):
    # the phi1 seal's phase sweeps across an eigenphase of S_cc F, so the
    # rcond spans about 1e-17 to 1e-5, and the mirror-sealed swaps (their
    # block of I - S_cc F is exactly [[1, 1], [1, 1]] at phi1 = 0) give
    # exactly singular samples
    verified = []

    def svd(a, *args, **kwargs):
        verified.append(a.shape)
        return REFERENCE_SVD(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    rng = np.random.default_rng(20261019)
    rconds, exactly_singular = [], 0
    for trial in range(12):
        closure, pole = trapping_closure(rng, exact=trial % 3 == 0)
        offsets = 10.0 ** -np.arange(5.0, 17.01, 0.25)
        ulps = pole + np.arange(-2, 3) * np.spacing(pole)
        phi1 = np.sort(np.concatenate((pole - offsets, ulps, pole + offsets)))
        A, rcond = reference_gate(closure, lambda p: p.evaluate({"phi1": phi1}))
        rconds.append(rcond)
        rcond1 = 1.0 / np.linalg.cond(A, 1)  # no SVD: inf for a singular block
        exactly_singular += int(np.sum(rcond1 == 0.0))
        bound = 100.0 * len(closure.closed) * SINGULARITY_RCOND
        for i, x in enumerate(phi1):
            verified.clear()
            assert raised_message(closure, float(x)) == gate_message(closure, rcond[i]), (trial, i)
            # the SVD runs on just the samples whose 1-norm rcond misses the bound
            if abs(rcond1[i] / bound - 1.0) > 1e-3:
                assert bool(verified) == (rcond1[i] < bound), (trial, i, rcond1[i])
        for lo in range(len(phi1) - 2):
            assert raised_message(closure, phi1[lo:lo + 3]) == \
                gate_message(closure, rcond[lo:lo + 3]), (trial, lo)
        assert raised_message(closure, phi1) == gate_message(closure, rcond)
    rconds = np.concatenate(rconds)
    assert exactly_singular > 0
    assert np.min(rconds) < 1e-16 and np.max(rconds) > 1e-6
    assert np.sum(rconds < SINGULARITY_RCOND) > 0 and np.sum(rconds >= SINGULARITY_RCOND) > 0


def test_reported_condition_is_the_two_norm_one():
    rng = np.random.default_rng(20261020)
    for trial in range(10):
        S, seals, links = random_closure(rng, ("pi/5", "1.25", "-2.5", "0.4+pi"))
        dev = close_network(S, seals, links)
        blocks, F, _ = dense_closure(S, seals, links, dev.open_port_labels, {})
        want = np.linalg.cond(np.eye(len(F)) - blocks[3] @ F)
        assert dev.closure_condition == pytest.approx(want, rel=1e-12), trial
    for name in ("michelson", "bs-cavity", "grover-michelson", "fusion"):
        net = parse_netlist((DOCS / f"{name}.json").read_text())
        bindings = {"phi1": float(rng.uniform(0.0, 2.0 * np.pi)), "phi2": 0.7}
        dev = close_netlist(net, bindings)
        seals = [Termination(f"{s.device}.{s.port}", s.phase, s.mirror) for s in net.seals]
        blocks, F, _ = dense_closure(combined_matrix(net), seals, net.links,
                                     net.open_ports, bindings)
        want = np.linalg.cond(np.eye(len(F)) - blocks[3] @ F)
        assert dev.closure_condition == pytest.approx(want, rel=1e-12), name


# --- reduction onto the phi1 loops --------------------------------------------

CARRIER_PHASES = ("2*phi1", "phi1*phi2", "-(phi1+pi/2)/3", "phi1+phi2")
CONSTANT_PHASES = ("pi/5", "1.25", "phi2/3", "0.4-phi2")
# which loops carry phi1 (of two links, then the seals) and the r they leave
CARRIERS = {"one seal": ([2], 1), "a link": ([0], 2), "two seals": ([2, 3], 2),
            "every loop": (None, None)}


def carrier_network(rng, carriers):
    """A random unitary with two open ports, two links and two to four
    seals; the loops at `carriers` (all if None) carry phi1."""
    n = int(rng.integers(8, 11))
    S = random_unitary(n, int(rng.integers(1 << 30)))
    ports = [str(p) for p in rng.permutation(S.port_labels)]
    closed = ports[2:]
    loops = 2 + len(closed) - 4
    phases = [PhaseExpr.parse(str(rng.choice(
        CARRIER_PHASES if carriers is None or i in carriers else CONSTANT_PHASES)))
        for i in range(loops)]
    links = [Link(closed[0], closed[1], phases[0]), Link(closed[2], closed[3], phases[1])]
    seals = [Termination(p, phase, bool(rng.integers(0, 2)))
             for p, phase in zip(closed[4:], phases[2:])]
    return S, seals, links, ports[:2]


def probabilities_and_slope(S, dS):
    """R, T and dT/dphi1 for input at the first open port."""
    s, ds = S[..., :, 0], dS[..., :, 0]
    return (np.abs(s[..., 0]) ** 2, np.sum(np.abs(s[..., 1:]) ** 2, axis=-1),
            2.0 * np.sum((s[..., 1:].conj() * ds[..., 1:]).real, axis=-1))


@pytest.mark.parametrize("case", sorted(CARRIERS))
def test_reduced_closure_matches_the_reference_solve(case):
    carriers, r = CARRIERS[case]
    rng = np.random.default_rng(20261021)
    for trial in range(6):
        S, seals, links, open_ports = carrier_network(rng, carriers)
        closure = CompiledClosure(S, seals, links, open_ports)
        phi2 = float(rng.uniform(0.0, 2.0 * np.pi))
        reduced = closure.reduction({"phi2": phi2})
        assert reduced.blocks[3].shape == ((r, r) if r else (len(closure.closed),) * 2)
        b = {"phi1": rng.uniform(0.0, 2.0 * np.pi, 41), "phi2": phi2}
        got = probabilities_and_slope(*closure.solve(lambda p: p.evaluate(b),
                                                     lambda p: p.derivative("phi1", b), reduced))
        want = np.transpose([probabilities_and_slope(*reference_solve(
            S, seals, links, open_ports, {**b, "phi1": float(x)})) for x in b["phi1"]])
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w)), (case, trial)


def test_constant_loops_that_trap_a_bound_state_raise_the_full_message():
    # the constant loops alone hold a bound state: a mirror-sealed swap at
    # phase 0 (block [[1, 1], [1, 1]]), or a 2-port unitary sealed by bare
    # loops at the phase that puts an eigenvalue of its round trip at 1
    rng = np.random.default_rng(20261022)
    for trial in range(6):
        outer = random_unitary(int(rng.integers(3, 6)), int(rng.integers(1 << 30)))
        if trial % 2:
            inner = random_unitary(2, int(rng.integers(1 << 30)))
            u = inner.matrix
            alpha = float(np.angle(-(1.0 - u[0, 0]) / (np.linalg.det(u) - u[1, 1])))
            trap = [Termination("B.p1", 0.0, False), Termination("B.p2", alpha, False)]
        else:
            inner = ScatteringMatrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
            trap = [Termination("B.p1", 0.0), Termination("B.p2", 0.0)]
        seals = [Termination("A.p1", PhaseExpr.parse("phi1")),
                 Termination("A.p2", float(rng.uniform(0.0, 7.0)))] + trap
        closure = CompiledClosure(block_diag(outer, inner), seals)
        # the constant block is singular or fails the screen, so every loop
        # stays open to the samples
        assert closure.reduction({}).blocks[3].shape == (4, 4), trial
        phi1 = rng.uniform(0.0, 2.0 * np.pi, 7)
        _, rcond = reference_gate(closure, lambda p: p.evaluate({"phi1": phi1}))
        assert np.all(rcond < SINGULARITY_RCOND), trial
        assert raised_message(closure, phi1) == gate_message(closure, rcond), trial
        assert raised_message(closure, phi1[3]) == gate_message(closure, rcond[3:4]), trial
