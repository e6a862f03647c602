"""Feedback closure: sealing and linking ports of a unitary network.

The reference values here come from hand algebra on small networks (2x2 and
4x4 cases solved symbolically) rather than from the engine itself, so the
engine and the formulas fail independently.
"""

import cmath

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
    seal_ports,
)
from multiport_lab.closure import CompiledClosure
from multiport_lab.phase_expr import PhaseExpr


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


def reference_solve(S, seals, links, open_labels, bindings):
    """The per-sample closure kept as the reference: dense F from cmath, one
    LU solve for S_eff and a second one, of (I - F S_cc) Z = dF X, for the
    resolvent derivative."""
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
    eye = np.eye(len(closed))
    X = np.linalg.solve(eye - S_cc @ F, S_co)
    return S_oo + S_oc @ F @ X, S_oc @ np.linalg.solve(eye - F @ S_cc, dF @ X)


def random_closure(rng):
    n = int(rng.integers(4, 8))
    S = random_unitary(n, int(rng.integers(1 << 30)))
    closed = [str(p) for p in rng.permutation(S.port_labels)[: int(rng.integers(2, n))]]
    n_links = int(rng.integers(0, len(closed) // 2 + 1))
    phase = lambda: PhaseExpr.parse(str(rng.choice(STACK_PHASES)))
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
        got, _, dgot = closure.solve(lambda p: p.evaluate(bindings),
                                     lambda p: p.derivative("phi1", bindings))
        # a network whose phases all miss phi1 gives one unbatched answer
        shape = phi1.shape + (len(closure.labels),) * 2
        got, dgot = np.broadcast_to(got, shape), np.broadcast_to(dgot, shape)
        for i, x in enumerate(phi1):
            want, dwant = reference_solve(S, seals, links, closure.labels,
                                          {**bindings, "phi1": float(x)})
            assert np.max(np.abs(got[i] - want)) <= 1e-12 * np.max(np.abs(want)), trial
            assert np.max(np.abs(dgot[i] - dwant)) <= 1e-12 * np.max(np.abs(dwant)), trial


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
