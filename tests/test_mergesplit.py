import dataclasses

import numpy as np
import pytest

from mergekit import states
from mergekit.kidecomp import ki_decompose_tripartite
from mergekit.locc import (
    InfeasibleError,
    branch_fidelity,
    majorizes,
    simulate,
    spectrum,
)
from mergekit.mergesplit import (
    approx_merge_candidate,
    fraction_in_interval,
    merge_converse_search,
    merge_cost_catalytic,
    merge_cost_noncatalytic,
    merge_protocol,
    qubit_optimal,
    simulate_split,
    split_min_cost,
    verify_merge_protocol,
    verify_split,
)
from mergekit.qcore import Bipartition, Ket, random_ket, reduced_state, schmidt_rank


def test_fraction_in_interval():
    f = fraction_in_interval(0.32, 0.34)
    assert f is not None and 0.32 <= float(f) <= 0.34
    assert fraction_in_interval(0.5, 0.5) == 0.5
    assert fraction_in_interval(0.3, 0.2) is None


def test_split_costs():
    for d in (2, 3, 4):
        assert abs(split_min_cost(states.ghz(3, d)) - np.log2(d)) < 1e-12
    # moved subsystem pure: zero cost
    psi = Ket(np.kron(states.bell("phi+").amps, [1, 0]), (2, 2, 2))
    assert split_min_cost(psi) < 1e-12
    # rank-2 state embedded in a larger moved system
    rng = np.random.default_rng(0)
    base = random_ket([2, 2, 2], rng)
    t = np.zeros((2, 2, 4), dtype=complex)
    t[:, :, :2] = base.tensor()
    psi = Ket(t.reshape(-1), (2, 2, 4))
    assert abs(split_min_cost(psi) - 1.0) < 1e-12


def test_split_cost_counts_a_small_schmidt_coefficient():
    # Schmidt coefficients proportional to 1 and 1e-6 across the moved cut:
    # rank 2 by the singular-value rule, so moving it costs one ebit
    amps = np.zeros(4)
    amps[[0, 3]] = [1.0, 1e-6]
    psi = Ket(amps / np.linalg.norm(amps), (2, 1, 2))
    assert split_min_cost(psi) == 1.0
    assert schmidt_rank(psi, Bipartition([2], [0, 1])) == 2
    assert schmidt_rank(psi, Bipartition([0], [1, 2])) == 2
    with pytest.raises(InfeasibleError):
        simulate_split(psi, 1)
    branches, _ = simulate_split(psi, 2)
    for b in branches:
        t = b.state.tensor()
        got = Ket(t[:, :, 0, :, 0].reshape(-1), psi.dims, normalized=False)
        assert branch_fidelity(got, psi) > 1 - 1e-10


def test_split_protocol_exact():
    rng = np.random.default_rng(1)
    psi = random_ket([2, 2, 3], rng)
    branches, meta = simulate_split(psi, 3)
    # output layout: (reference, keeper, sender-out, moved, junk)
    assert len(branches) == 9
    for b in branches:
        t = b.state.tensor()
        assert np.linalg.norm(t[..., 1:]) < 1e-8
        got = Ket(t[:, :, 0, :, 0].reshape(-1), psi.dims, normalized=False)
        assert branch_fidelity(got, psi) > 1 - 1e-10


def test_split_protocol_oversized_resource():
    rng = np.random.default_rng(2)
    psi = random_ket([2, 2, 2], rng)
    branches, _ = simulate_split(psi, 3)
    for b in branches:
        t = b.state.tensor()
        assert np.linalg.norm(t[..., 1:]) < 1e-8
        got = Ket(t[:, :, 0, :, 0].reshape(-1), psi.dims, normalized=False)
        assert branch_fidelity(got, psi) > 1 - 1e-10


def test_verify_split_reads_the_branch_layout():
    # worst infidelity and branch count of the (reference, keeper,
    # sender-out, moved, junk) branches against psi, as a per-branch loop
    # over simulate_split reads them
    rng = np.random.default_rng(1)
    for dims, rank in (([2, 2, 3], 3), ([2, 2, 2], 3), ([3, 1, 2], 2)):
        psi = random_ket(dims, rng)
        worst, count = verify_split(psi, rank)
        branches, _ = simulate_split(psi, rank)
        assert count == len(branches)
        fid = np.array([branch_fidelity(Ket(
            b.state.tensor()[:, :, 0, :, 0].reshape(-1), psi.dims,
            normalized=False), psi) for b in branches])
        assert np.isfinite(fid).all()
        assert abs(worst - max(0.0, np.max(1 - fid))) < 1e-15
        assert worst < 1e-10


def test_verifying_a_merge_audits_its_sender_family_once(monkeypatch):
    import mergekit.locc as locc

    calls = []
    real = locc._check_complete

    def counting(ops, *args, **kwargs):
        calls.append(ops)
        return real(ops, *args, **kwargs)

    monkeypatch.setattr(locc, "_check_complete", counting)
    psi = states.generate_example("ex2")
    proto = merge_protocol(psi, "non-catalytic")
    ok, _, _ = verify_merge_protocol(psi, proto)
    assert ok
    assert sum(ops is proto.one_way.a_ops for ops in calls) == 1


def test_a_nan_branch_fidelity_fails_the_merge_and_split_checks(
        monkeypatch):
    # max(0.0, nan) is 0.0: a NaN infidelity must not read as exact
    import mergekit.mergesplit as ms

    real = ms.branch_fidelities

    def one_nan(*args):
        fid = real(*args)
        fid[-1] = np.nan
        return fid

    monkeypatch.setattr(ms, "branch_fidelities", one_nan)
    psi = states.ghz(3, 2)
    ok, worst, _ = verify_merge_protocol(psi, merge_protocol(psi))
    assert not ok and np.isnan(worst)
    worst, _ = verify_split(psi, 2)
    assert np.isnan(worst) and not worst < 1e-8


def test_split_infeasible():
    rng = np.random.default_rng(3)
    psi = random_ket([2, 2, 3], rng)  # moved rank 3
    with pytest.raises(InfeasibleError):
        simulate_split(psi, 2)


def test_ghz_merge_costs_and_protocols():
    for d in (2, 3, 4):
        psi = states.ghz(3, d)
        ki = ki_decompose_tripartite(psi)
        rep = merge_cost_catalytic(ki)
        assert abs(rep.catalytic_cost) < 1e-9
        assert abs(rep.non_catalytic_cost) < 1e-9
        for setting in ("non-catalytic", "catalytic"):
            proto = merge_protocol(psi, setting, ki=ki)
            ok, worst, _ = verify_merge_protocol(psi, proto)
            assert ok, f"GHZ_{d} {setting} worst infidelity {worst}"


def test_negative_cost_state():
    psi = states.negative_cost_state()
    ki = ki_decompose_tripartite(psi)
    rep = merge_cost_catalytic(ki)
    assert abs(rep.catalytic_cost + 1.0) < 1e-9
    assert abs(rep.non_catalytic_cost) < 1e-9
    for setting in ("non-catalytic", "catalytic"):
        proto = merge_protocol(psi, setting, ki=ki)
        ok, worst, _ = verify_merge_protocol(psi, proto)
        assert ok, f"{setting} worst infidelity {worst}"


def test_converse_gap_state_costs():
    psi = states.converse_gap_state()
    ki = ki_decompose_tripartite(psi)
    rep = merge_cost_catalytic(ki)
    assert abs(rep.catalytic_cost - 1.0) < 1e-6
    assert abs(rep.non_catalytic_cost - 1.0) < 1e-9
    rep2 = merge_cost_noncatalytic(ki)
    assert rep2.resource_rank == 2


def test_asymmetric_state_costs():
    psi = states.asymmetric_state(False)
    ki = ki_decompose_tripartite(psi)
    rep = merge_cost_noncatalytic(ki)
    assert abs(rep.non_catalytic_cost - 1.0) < 1e-9
    psi2 = states.asymmetric_state(True)
    ki2 = ki_decompose_tripartite(psi2)
    rep2 = merge_cost_noncatalytic(ki2)
    # the generic construction still needs one ebit; optimality is restored
    # by the dedicated three-qubit route below
    assert abs(rep2.non_catalytic_cost - 1.0) < 1e-9


def test_converse_search_basics():
    psi = states.converse_gap_state()
    rep = merge_converse_search(psi)
    assert rep.feasible
    assert rep.closed_form is not None
    assert abs(rep.closed_form - np.log2(1.5)) < 1e-9
    assert 0.5849 < rep.closed_form < 0.5850
    # the bound never exceeds achievability
    ki = ki_decompose_tripartite(psi)
    ach = merge_cost_catalytic(ki)
    assert rep.bound <= ach.catalytic_cost + 1e-9


def test_converse_monotone_in_caps():
    psi = states.converse_gap_state()
    small = merge_converse_search(psi, l_max=1, k_max=2)
    big = merge_converse_search(psi, l_max=4, k_max=8)
    assert big.bound <= small.bound + 1e-12


def test_converse_maximally_mixed_receiver():
    # receiver maximally mixed with full-rank reference: K = 1 suffices
    psi = states.ghz(3, 2)
    rep = merge_converse_search(psi)
    assert rep.feasible
    assert rep.witness is not None
    assert rep.bound <= 0.0 + 1e-12


def test_converse_infeasible_within_caps():
    psi = states.converse_gap_state()
    rep = merge_converse_search(psi, l_max=1, k_max=1)
    assert not rep.feasible
    assert rep.bound == float("inf")


def _reference_converse(psi, l_max=None, k_max=None):
    """The kron + spectrum + majorizes double loop, as an oracle."""
    ev_r = np.clip(np.linalg.eigvalsh(reduced_state(psi, [0]).mat), 0, None)
    d_ref = int(np.sum(ev_r > 1e-9 * ev_r.max()))
    l_max = l_max if l_max is not None else d_ref ** 2
    k_max = k_max if k_max is not None else d_ref ** 3
    ev_b = np.clip(np.linalg.eigvalsh(reduced_state(psi, [2]).mat), 0, None)
    ev_ab = np.clip(np.linalg.eigvalsh(reduced_state(psi, [1, 2]).mat), 0,
                    None)
    best, witness = None, None
    for k in range(1, k_max + 1):
        for l in range(1, l_max + 1):
            value = np.log2(k) - np.log2(l)
            if best is not None and value >= best:
                continue
            lhs = np.kron(np.full(k, 1.0 / k), ev_b)
            rhs = np.kron(np.full(l, 1.0 / l), ev_ab)
            n = max(lhs.size, rhs.size)
            if majorizes(spectrum(lhs, n), spectrum(rhs, n)):
                best, witness = value, (k, l)
    return (float("inf") if best is None else float(best)), witness


def test_converse_search_matches_kron_oracle():
    rng = np.random.default_rng(2024)
    cases = [(states.converse_gap_state(), None, None),
             (states.converse_gap_state(), 1, 2),
             (states.converse_gap_state(), 1, 1),
             (states.ghz(3, 3), None, None)]
    for _ in range(24):
        dims = [int(d) for d in rng.integers(2, 5, size=3)]
        cases.append((random_ket(dims, rng), None, None))
    for psi, l_max, k_max in cases:
        rep = merge_converse_search(psi, l_max=l_max, k_max=k_max)
        bound, witness = _reference_converse(psi, l_max, k_max)
        assert rep.bound == bound, psi.dims
        assert rep.witness == witness, psi.dims


def test_teleport_tables_and_max_entangled_are_read_only_caches():
    from mergekit.locc import _teleport_bell_bra, _teleport_correction

    for table in (_teleport_bell_bra, _teleport_correction):
        for d, m2 in ((1, 0), (2, 3), (3, 5)):
            a = table(d, m2)
            with pytest.raises(ValueError):
                a[0, 0] = 1.0
            assert np.array_equal(table(d, m2), a)
    phi = states.max_entangled(3)
    with pytest.raises(ValueError):
        phi.amps[0] = 0.0
    assert np.array_equal(states.max_entangled(3).amps, phi.amps)


def _kron_shift_phases(d):
    """The shift-phase operators X^l Z^l' in outcome order (l, l')."""
    x, z = states.pauli_x(d), states.pauli_z(d)
    return [np.linalg.matrix_power(x, l) @ np.linalg.matrix_power(z, lp)
            for l in range(d) for lp in range(d)]


def _kron_bell_bra(d, sigma):
    return (np.kron(np.eye(d), sigma)
            @ states.max_entangled(d).amps).conj().reshape(1, -1)


def _reference_split_teleport_ops(psi, k):
    """split_protocol's sender and receiver operators of the k*k teleport
    outcomes, each Bell bra and the encoder rebuilt with kron per outcome."""
    dr, da, dm = psi.dims
    rho_m = reduced_state(psi, [2]).mat
    rank = schmidt_rank(psi, Bipartition([2], [0, 1]))
    ev, vec = np.linalg.eigh(rho_m)
    vec = vec[:, np.argsort(ev)[::-1]]
    embed = np.zeros((k, rank), dtype=complex)
    embed[:rank, :] = np.eye(rank)
    u_split = embed @ vec[:, :rank].conj().T
    junk = int(np.ceil(k / dm)) + 1
    decode = np.zeros((dm * junk, k), dtype=complex)
    for l in range(rank):
        for b in range(dm):
            decode[b * junk + 0, l] = vec[b, l]
    for l in range(rank, k):
        decode[l % dm * junk + 1 + (l - rank) // dm, l] = 1.0
    a_mats, b_mats = [], []
    for sigma in _kron_shift_phases(k):
        a_mats.append(_kron_bell_bra(k, sigma) @ np.kron(u_split, np.eye(k)))
        b_mats.append(decode @ sigma.T)
    return a_mats, b_mats


def test_teleport_and_split_operators_match_kron_reference():
    # the cached Bell bras and corrections must reproduce the per-outcome
    # kron construction bit for bit, signed zeros included
    from mergekit.locc import teleport_protocol
    from mergekit.mergesplit import split_protocol

    def same_bits(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    rng = np.random.default_rng(31)
    for d in range(2, 6):
        proto = teleport_protocol(d)
        sigmas = _kron_shift_phases(d)
        assert len(proto.a_ops) == len(sigmas)
        for a, b, sigma in zip(proto.a_ops, proto.b_ops, sigmas):
            assert same_bits(a.mat, _kron_bell_bra(d, sigma))
            assert same_bits(b.mat, sigma.T)
        # moved subsystem of dimension d with a rank-2 marginal, so every
        # resource rank k in 2..5 is feasible
        iso = np.linalg.qr(rng.normal(size=(d, 2))
                           + 1j * rng.normal(size=(d, 2)))[0]
        t = np.einsum("abr,mr->abm", random_ket([2, 2, 2], rng).tensor(),
                      iso)
        psi = Ket(t.reshape(-1), (2, 2, d))
        for k in range(2, 6):
            proto, _ = split_protocol(psi, k)
            a_ref, b_ref = _reference_split_teleport_ops(psi, k)
            for op, ref in zip(proto.a_ops, a_ref):
                assert same_bits(op.mat, ref), (d, k)
            for op, ref in zip(proto.b_ops, b_ref):
                assert same_bits(op.mat, ref), (d, k)


def test_su2_from_so3_adjoint_action_reproduces_rotation():
    from mergekit.mergesplit import _su2_from_so3

    paulis = [np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.array([[1, 0], [0, -1]], dtype=complex)]
    rng = np.random.default_rng(23)

    def rotation(axis, angle):
        n = axis / np.linalg.norm(axis)
        cross = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]],
                          [-n[1], n[0], 0]])
        return (np.eye(3) + np.sin(angle) * cross
                + (1 - np.cos(angle)) * cross @ cross)

    # identity, half turns about the coordinate axes, 16 angles within
    # 1e-9 of pi about random axes, and 30 random rotations
    rots = [np.eye(3)] + [rotation(np.eye(3)[i], np.pi) for i in range(3)]
    rots += [rotation(rng.normal(size=3), np.pi - rng.uniform(0, 1e-9))
             for _ in range(16)]
    rots += [rotation(rng.normal(size=3), rng.uniform(0, np.pi))
             for _ in range(30)]
    assert len(rots) == 50
    for o in rots:
        u = _su2_from_so3(o)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
        adj = np.array([[0.5 * np.trace(si @ u @ sj @ u.conj().T).real
                         for sj in paulis] for si in paulis])
        assert np.max(np.abs(adj - o)) < 1e-12


def test_qubit_optimal_cases():
    cost, _ = qubit_optimal(states.asymmetric_state(False))
    assert cost == 1
    cost, proto = qubit_optimal(states.asymmetric_state(True))
    assert cost == 0
    psi = states.asymmetric_state(True)
    from mergekit.locc import one_way_to_locc
    branches = simulate(one_way_to_locc(proto, (1,), (2,)), psi)
    # output layout: (reference, sender-out, merged, receiver)
    live = [b for b in branches if b.prob > 1e-12]
    assert len(live) == 2
    tn = psi.amps / np.linalg.norm(psi.amps)
    for b in live:
        t = b.state.tensor()
        got = t[:, 0, :, :].reshape(-1)
        assert abs(np.vdot(tn, got / np.linalg.norm(got))) ** 2 > 1 - 1e-8


def test_qubit_optimal_branchwise_maximal_entanglement():
    # each live branch, before the receiver isometry, is maximally entangled
    # between reference and receiver; verified through exact output fidelity
    psi = states.asymmetric_state(True)
    cost, proto = qubit_optimal(psi)
    assert cost == 0
    for m, a_op in enumerate(proto.a_ops):
        amp = np.einsum("a,Rab->Rb", a_op.mat[0], psi.tensor())
        p = np.linalg.norm(amp) ** 2
        if p < 1e-12:
            continue
        ev = np.linalg.eigvalsh(amp @ amp.conj().T / p)
        assert np.allclose(np.sort(ev), [0.5, 0.5], atol=1e-8)


def test_qubit_optimal_ghz():
    # GHZ has a maximally mixed receiver marginal, so the three-qubit
    # criterion yields zero cost, consistent with the block-based cost
    psi = states.ghz(3, 2)
    cost, proto = qubit_optimal(psi)
    assert cost == 0
    from mergekit.locc import one_way_to_locc
    branches = simulate(one_way_to_locc(proto, (1,), (2,)), psi)
    tn = psi.amps / np.linalg.norm(psi.amps)
    for b in branches:
        got = b.state.tensor()[:, 0, :, :].reshape(-1)
        assert abs(np.vdot(tn, got / np.linalg.norm(got))) ** 2 > 1 - 1e-8


def test_qubit_optimal_teleport_protocol_exact():
    psi = states.converse_gap_state()
    cost, proto = qubit_optimal(psi)
    assert cost == 1
    inp = psi.kron(states.max_entangled(2))
    from mergekit.locc import one_way_to_locc
    locc = one_way_to_locc(proto, a_slots=(1, 3), b_slots=(2, 4))
    branches = simulate(locc, inp)
    tn = psi.amps / np.linalg.norm(psi.amps)
    for b in branches:
        t = b.state.tensor()  # (R, 1, B(own), merged?, ...)
        got = t[:, 0, :, :].transpose(0, 2, 1).reshape(-1)
        fid = abs(np.vdot(tn, got / np.linalg.norm(got))) ** 2
        assert fid > 1 - 1e-8


def test_qubit_optimal_rejects_bad_inputs():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        qubit_optimal(random_ket([2, 2, 3], rng))
    skew = np.zeros(8, dtype=complex)
    skew[0] = np.sqrt(0.8)
    skew[7] = np.sqrt(0.2)
    with pytest.raises(ValueError):
        qubit_optimal(Ket(skew, (2, 2, 2)))


def test_random_three_qubit_mixed_receiver_protocol():
    # random 2x2x2 state with non-uniform receiver marginal: K = 2, exact
    rng = np.random.default_rng(8)
    for _ in range(3):
        psi = random_ket([2, 2, 2], rng)
        ki = ki_decompose_tripartite(psi)
        rep = merge_cost_noncatalytic(ki)
        assert rep.resource_rank == 2
        proto = merge_protocol(psi, "non-catalytic", ki=ki)
        ok, worst, _ = verify_merge_protocol(psi, proto)
        assert ok, f"worst infidelity {worst}"


def test_sandwich_on_random_states():
    rng = np.random.default_rng(99)
    for trial in range(40):
        dims = [int(rng.integers(2, 5)) for _ in range(3)]
        psi = random_ket(dims, rng)
        ki = ki_decompose_tripartite(psi)
        rep = merge_cost_catalytic(ki)
        conv = merge_converse_search(psi)
        assert conv.feasible
        assert conv.bound <= rep.catalytic_cost + 1e-9
        assert rep.catalytic_cost <= rep.non_catalytic_cost + 1e-9
        # merging never beats splitting of the whole sender share
        rank_a = schmidt_rank(psi, Bipartition([1], [0, 2]))
        assert rep.non_catalytic_cost <= np.log2(rank_a) + 1e-9


def test_block_costs_bounded_by_sender_rank():
    # per-block bound: lambda0 * dimR <= rank of the sender marginal
    rng = np.random.default_rng(123)
    for trial in range(20):
        psi = random_ket([2, 4, 4], rng)
        ki = ki_decompose_tripartite(psi)
        rank_a = schmidt_rank(psi, Bipartition([1], [0, 2]))
        for blk in ki.blocks:
            lam0 = float(blk.omega_spectrum[0])
            assert np.log2(lam0 * blk.dim_right) <= np.log2(rank_a) + 1e-9


def test_merge_protocol_on_schmidt_subspace_states():
    # the protocol built for psi also merges the corresponding maximally
    # entangled state and random subspace superpositions exactly
    psi = states.ghz(3, 2)
    proto = merge_protocol(psi, "non-catalytic")
    rng = np.random.default_rng(7)
    from mergekit.qcore import schmidt_decompose
    form = schmidt_decompose(psi, Bipartition([0], [1, 2]))
    for _ in range(5):
        alpha = rng.normal(size=form.rank) + 1j * rng.normal(size=form.rank)
        alpha /= np.linalg.norm(alpha)
        amps = np.zeros(psi.amps.size, dtype=complex)
        t = np.zeros((2, 2, 2), dtype=complex)
        for l in range(form.rank):
            t += (alpha[l] * form.coeffs[l] * np.sqrt(2)
                  * np.einsum("r,ab->rab", form.left_basis[l].amps,
                              form.right_basis[l].amps.reshape(2, 2)))
        phi = Ket(t.reshape(-1), (2, 2, 2))
        ok, worst, _ = verify_merge_protocol(phi, proto)
        assert ok, f"subspace state infidelity {worst}"


def test_approx_merge_candidate():
    psi = states.ghz(3, 2)
    out = approx_merge_candidate(psi, psi, eps=0.0)
    assert out["accepted"]
    assert abs(out["report"].catalytic_cost) < 1e-9
    # perturbed state accepted at matching tolerance
    rng = np.random.default_rng(11)
    noise = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps = psi.amps + 0.01 * noise / np.linalg.norm(noise)
    pert = Ket(amps / np.linalg.norm(amps), (2, 2, 2))
    overlap = abs(np.vdot(psi.amps, pert.amps)) ** 2
    eps = 2.2 * np.sqrt(1 - overlap)
    out = approx_merge_candidate(pert, psi, eps=eps)
    assert out["accepted"]
    assert out["achieved_fidelity"] >= 1 - eps ** 2 - 1e-9
    # orthogonal candidate rejected
    orth = Ket(np.roll(np.eye(8)[0], 1), (2, 2, 2))
    out = approx_merge_candidate(psi, orth, eps=0.1)
    assert not out["accepted"]


def test_merge_protocol_equivalence_on_corresponding_max_entangled():
    # the protocol synthesized for a state with non-uniform reference
    # spectrum also merges the corresponding rank-D maximally entangled
    # state and random superpositions on its Schmidt subspace
    from mergekit.qcore import schmidt_decompose

    rng = np.random.default_rng(1234)
    base = random_ket([3, 3, 2], rng)
    proto = merge_protocol(base, "non-catalytic")
    cut = Bipartition([0], [1, 2])
    form = schmidt_decompose(base, cut)
    d = form.rank
    dims = base.dims

    def subspace_state(alpha):
        t = np.zeros(dims, dtype=complex)
        for l in range(d):
            t += alpha[l] * np.einsum(
                "r,x->rx", form.left_basis[l].amps,
                form.right_basis[l].amps).reshape(
                    dims[0], dims[1], dims[2])
        return Ket(t.reshape(-1), dims)

    uniform = subspace_state(np.full(d, 1 / np.sqrt(d)))
    ok, worst, _ = verify_merge_protocol(uniform, proto)
    assert ok, f"corresponding maximally entangled state failed: {worst}"
    for _ in range(3):
        alpha = rng.normal(size=d) + 1j * rng.normal(size=d)
        alpha /= np.linalg.norm(alpha)
        ok, worst, _ = verify_merge_protocol(subspace_state(alpha), proto)
        assert ok, f"subspace superposition failed: {worst}"


def test_catalytic_protocol_with_nontrivial_rational_layout():
    # redundant pair with spectrum (3/4, 1/4) times a maximally entangled
    # quantum part: the exact construction needs K = 6, L = 4 and returns
    # log2(3/2) net cost
    omega = (np.sqrt(0.75) * np.kron([1, 0], [1, 0])
             + np.sqrt(0.25) * np.kron([0, 1], [0, 1])).reshape(2, 2)
    phi = np.zeros((2, 2), dtype=complex)
    phi[0, 0] = phi[1, 1] = 1 / np.sqrt(2)
    t = np.einsum("Rx,ab->Raxb", phi, omega)
    psi = Ket(t.reshape(-1), (2, 4, 2))
    ki = ki_decompose_tripartite(psi)
    rep = merge_cost_catalytic(ki)
    assert rep.resource_rank == 6 and rep.returned_rank == 4
    assert abs(rep.catalytic_cost - np.log2(1.5)) < 1e-12
    proto = merge_protocol(psi, "catalytic", ki=ki)
    ok, worst, branches = verify_merge_protocol(psi, proto)
    assert ok, f"worst infidelity {worst}"
    assert branches == 24


def test_oversized_catalytic_reports_and_refusal(monkeypatch):
    # irrational redundant-part spectra force large common multiples; the
    # cost report is still returned with exact integers, while protocol
    # synthesis refuses beyond the cap
    import mergekit.mergesplit as ms

    rng = np.random.default_rng(5)
    amps = np.zeros((3, 2, 3, 2, 2, 3, 2), dtype=complex)
    for j in range(3):
        lam = rng.uniform(0.55, 0.95)
        w = np.diag([np.sqrt(lam), np.sqrt(1 - lam)])
        for r2 in range(2):
            for l in range(2):
                for bl in range(2):
                    amps[j, r2, j, l, r2, j, bl] += w[l, bl] / np.sqrt(6)
    psi = Ket(amps.reshape(6, 12, 6), (6, 12, 6))
    ki = ki_decompose_tripartite(psi)
    rep = merge_cost_catalytic(ki, delta=1e-3)
    assert rep.resource_rank > 100          # exact integers survive
    assert rep.catalytic_cost <= rep.non_catalytic_cost + 1e-9
    assert rep.catalytic_cost <= max(
        b["block_cost"] for b in rep.per_block) + 1e-3
    monkeypatch.setattr(ms, "K_EXPLOSION_CAP", 100)
    capped = merge_cost_catalytic(ki, delta=1e-3)
    assert capped.oversized
    with pytest.raises(InfeasibleError):
        merge_protocol(psi, "catalytic", ki=ki, delta=1e-3)


def test_catalytic_layouts_on_rational_spectra():
    # small-denominator redundant spectra against maximally entangled
    # quantum parts: the construction hits the exact cost and every branch
    # is exact across a spread of (K, L) layouts
    rng = np.random.default_rng(99)
    done = 0
    while done < 4:
        den = int(rng.choice([4, 8, 16]))
        num = int(rng.integers(den // 2 + 1, den))
        lam = num / den
        dq = int(rng.integers(2, 4))
        omega = np.diag([np.sqrt(lam), np.sqrt(1 - lam)])
        phi = np.eye(dq) / np.sqrt(dq)
        t = np.einsum("Rx,ab->Raxb", phi, omega)
        psi = Ket(t.reshape(-1), (dq, 2 * dq, 2))
        ki = ki_decompose_tripartite(psi)
        rep = merge_cost_catalytic(ki)
        exact = np.log2(lam * dq)
        assert exact - 1e-9 <= rep.catalytic_cost <= exact + 1e-3 + 1e-9
        if rep.resource_rank > 100:
            continue
        proto = merge_protocol(psi, "catalytic", ki=ki)
        ok, worst, _ = verify_merge_protocol(psi, proto)
        assert ok, f"lam={num}/{den} dq={dq} worst={worst}"
        done += 1


def test_receiver_extension_is_canonical(monkeypatch):
    # (2, 4, 2) state with redundant spectrum (3/4, 1/4): every receiver map
    # leaves a degenerate deficit (rank 4 catalytic, rank 2 non-catalytic)
    # whose eigenvectors used to fill the free rows arbitrarily, so that
    # operators 17, 19 and 3, 7, 11, 15 jumped with last-bit changes; the
    # coordinate-order extension moves no more than the maps when they are
    # nudged by 1e-15
    import mergekit.mergesplit as ms
    from mergekit.locc import _extend_isometry

    omega = np.diag([np.sqrt(0.75), np.sqrt(0.25)])
    t = np.einsum("Rx,ab->Raxb", np.eye(2) / np.sqrt(2), omega)
    psi = Ket(t.reshape(-1), (2, 4, 2))
    ki = ki_decompose_tripartite(psi)
    for setting, jumped, rank in (("catalytic", [17, 19], 4),
                                  ("non-catalytic", [3, 7, 11, 15], 2)):
        rng = np.random.default_rng(11)
        deficits = []

        def nudged(mat, dim_in):
            gram = np.einsum("nri,nrj->nij", mat.conj(), mat)
            deficits.extend(np.rint(np.trace(np.eye(dim_in) - gram,
                                             axis1=1, axis2=2).real))
            noise = rng.normal(size=mat.shape) + 1j * rng.normal(
                size=mat.shape)
            return _extend_isometry(mat + 1e-15 * noise, dim_in)

        base = merge_protocol(psi, setting, ki=ki).one_way.b_ops
        monkeypatch.setattr(ms, "_extend_isometry", nudged)
        moved = merge_protocol(psi, setting, ki=ki).one_way.b_ops
        monkeypatch.undo()
        assert deficits == [rank] * len(deficits)
        assert set(jumped) <= set(range(len(deficits)))
        for a, b in zip(base[:len(deficits)], moved):
            assert np.max(np.abs(a.mat - b.mat)) <= 1e-12


def _tiled_fourier_combine(terms, n1, n2, weights, shape):
    """The block-Fourier combination over a tiled replica
    (n1, n2, n_blocks, rows, cols) of every block's terms, taken as one
    product: the reference that the chunked combination must reproduce."""
    n_blocks = weights.shape[1]
    rows, cols = shape
    tiled = np.empty((n1, n2, n_blocks, rows, cols), dtype=complex)
    for j, t in enumerate(terms):
        nj, n2j = t.shape[:2]
        view = tiled.reshape(n1 // nj, nj, n2 // n2j, n2j, n_blocks,
                             rows, cols)
        view[:, :, :, :, j] = t[None, :, None]
    out = weights @ tiled.reshape(n1 * n2, n_blocks, rows * cols)
    return out.reshape(-1, rows, cols)


def test_fourier_combine_matches_the_tiled_product_bit_for_bit(monkeypatch):
    import mergekit.mergesplit as ms

    rng = np.random.default_rng(23)
    rows, cols = 5, 3
    n1, n2 = 6, 4
    # four blocks with unequal label counts (n_out_j, n2_j), and a lone
    # block that covers every pair (n_out_j, n2_j) = (n1, n2)
    for labels in ([(2, 1), (3, 4), (6, 2), (1, 4)], [(6, 4)]):
        terms = [rng.normal(size=(nj, n2j, rows, cols))
                 + 1j * rng.normal(size=(nj, n2j, rows, cols))
                 for nj, n2j in labels]
        n_blocks = len(labels)
        fourier = np.exp(-2j * np.pi * np.outer(
            np.arange(n_blocks), np.arange(n_blocks)) / n_blocks)
        weights = fourier * rng.uniform(0.1, 1.0, size=n_blocks)
        want = _tiled_fourier_combine(terms, n1, n2, weights, (rows, cols))
        pair_bytes = n_blocks * rows * cols * 16
        # one product over all 24 pairs, one pair per product, and chunks
        # of 5 and 7 pairs, which end inside an m1 row and leave a short
        # last chunk
        for chunk_bytes in (ms._COMBINE_BYTES, 1, 5 * pair_bytes,
                            7 * pair_bytes + 1):
            monkeypatch.setattr(ms, "_COMBINE_BYTES", chunk_bytes)
            got = ms._fourier_combine(terms, n1, n2, weights, (rows, cols))
            assert got.shape == (n1 * n2 * n_blocks, rows, cols)
            assert got.tobytes() == want.tobytes(), (labels, chunk_bytes)
            monkeypatch.undo()


def test_merge_protocol_holds_its_receiver_family_once():
    import tracemalloc

    from mergekit import twoway

    inst = twoway.default_instance()
    ki = ki_decompose_tripartite(inst.psi)
    tracemalloc.start()
    try:
        proto = merge_protocol(inst.psi, "non-catalytic", ki=ki)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stacks = {}
    for op in proto.one_way.a_ops + proto.one_way.b_ops:
        base = op.mat if op.mat.base is None else op.mat.base
        stacks[id(base)] = base.nbytes
    held = sum(stacks.values())
    # the 96 receiver operators (363 x 22) are most of it; a replica of
    # the family tiled per block would take the peak to twice the result
    assert held > 12 * 10 ** 6
    assert peak < 1.5 * held, (peak, held)


def _loop_prefix_sums(ev, r_max, n):
    """Oracle: one cumsum per repetition count r, padded with its total."""
    desc = np.sort(ev)[::-1]
    out = np.empty((r_max, n))
    for r in range(1, r_max + 1):
        c = np.cumsum(np.repeat(desc * (1.0 / r), r))
        out[r - 1, :c.size] = c
        out[r - 1, c.size:] = c[-1]
    return out


def test_padded_prefix_sums_match_the_loop_oracle_bit_for_bit():
    from mergekit.mergesplit import _padded_prefix_sums

    rng = np.random.default_rng(2311)
    for d in (2, 3, 4):
        spectra = [rng.random(d) for _ in range(8)]
        tied = rng.random(d)
        tied[1:] = tied[0]
        zero = rng.random(d)
        zero[rng.integers(d)] = 0.0
        spectra += [tied, zero, np.eye(d)[0]]
        for ev in spectra:
            ev = ev / ev.sum()
            # the converse search's caps: K up to d^3, L up to d^2, with
            # the receiver spectrum d long and the joint one d^2 long
            for size, r_max in ((ev, d ** 3), (np.repeat(ev, d) / d, d ** 2)):
                n = max(d ** 3 * d, d ** 2 * d * d)
                want = _loop_prefix_sums(size, r_max, n)
                got = _padded_prefix_sums(size, r_max, n)
                assert np.array_equal(got, want)
                assert got.tobytes() == want.tobytes()


def test_merge_synthesis_and_verification_plan_no_einsum_path(monkeypatch):
    # each per-block contraction follows its fixed path as numpy's einsum
    # would, without a per-call path search; np.einsum looks einsum_path
    # up in the module that defines it
    import importlib

    def refuse(*args, **kwargs):
        raise AssertionError("an einsum path was planned")

    monkeypatch.setattr(np, "einsum_path", refuse)
    monkeypatch.setattr(importlib.import_module(
        np.einsum._implementation.__module__), "einsum_path", refuse)
    with pytest.raises(AssertionError, match="planned"):
        np.einsum("ij,jk,kl->il", np.eye(2), np.eye(2), np.eye(2),
                  optimize=["einsum_path", (0, 1), (0, 1)])
    rng = np.random.default_rng(2312)
    for psi in (states.generate_example("ki-example"),
                random_ket((2, 3, 4), rng), random_ket((4, 3, 2), rng)):
        ki = ki_decompose_tripartite(psi)
        for setting in ("catalytic", "non-catalytic"):
            merge_protocol(psi, setting, ki=ki, sender_only=True)
            proto = merge_protocol(psi, setting, ki=ki)
            assert verify_merge_protocol(psi, proto)[0]


def test_cost_reports_are_kept_once_per_decomposition(monkeypatch):
    import mergekit.mergesplit as ms

    psi = states.generate_example("ki-example")
    ki = ki_decompose_tripartite(psi)
    calls = []
    real = ms._block_costs
    monkeypatch.setattr(ms, "_block_costs",
                        lambda k: calls.append(k) or real(k))
    cat = merge_cost_catalytic(ki)
    nc = merge_cost_noncatalytic(ki)
    for setting in ("catalytic", "non-catalytic"):
        assert merge_protocol(psi, setting, ki=ki).report is (
            cat if setting == "catalytic" else nc)
    assert merge_cost_noncatalytic(ki) is nc and len(calls) == 1
    assert isinstance(nc.per_block, tuple) and nc.per_block is cat.per_block
    # another delta is another report; a fresh decomposition starts empty
    assert merge_cost_catalytic(ki, delta=1e-2) is not cat
    assert len(calls) == 2
    fresh = ki_decompose_tripartite(psi)
    assert not fresh._reports and merge_cost_catalytic(fresh) == cat
    # the kept reports take no part in comparison or repr
    field, = [f for f in dataclasses.fields(ki) if f.name == "_reports"]
    assert not field.compare and not field.repr and not field.init


def test_planned_contractions_match_numpy_einsum_bit_for_bit():
    # the per-block contractions on shapes with and without size-1 indices,
    # which numpy sums out of an operand or multiplies elementwise
    from mergekit.mergesplit import _BRAS_FIRST, _contract

    rng = np.random.default_rng(2314)
    specs = [("uxlc,vrd,lra->uvxadc", _BRAS_FIRST),
             ("uxlk,vrx,lra->uvak", _BRAS_FIRST),
             ("lP,lrA,BPq,pqb->rABpb", [(2, 3), (0, 1), (0, 1)]),
             ("vrd,rABpb,uxpc->uvABxbdc", [(1, 2), (0, 1)]),
             ("vrx,rABpb,uxpc->uvABbc", [(0, 2), (0, 1)])]
    for spec, path in specs:
        letters = sorted(set(spec) - set(",->"))
        for trial in range(12):
            size = dict(zip(letters, rng.integers(1, 4, len(letters))))
            ops = [(rng.normal(size=[size[k] for k in t])
                    + 1j * rng.normal(size=[size[k] for k in t])).conj()
                   for t in spec.split("->")[0].split(",")]
            want = np.einsum(spec, *ops, optimize=["einsum_path", *path])
            got = _contract(spec, path, *ops)
            assert got.shape == want.shape
            assert (np.ascontiguousarray(got).tobytes()
                    == np.ascontiguousarray(want).tobytes()), (spec, size)
