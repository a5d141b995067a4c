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
    from mergekit.mergesplit import _teleport_bell_bra, _teleport_correction

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
        ki = ki_decompose_tripartite(psi, seed=trial)
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
        ki = ki_decompose_tripartite(psi, seed=trial)
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
