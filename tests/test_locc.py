import numpy as np
import pytest

from mergekit import states
from mergekit.locc import (
    PRUNE_TOL,
    CompletenessError,
    InfeasibleError,
    LoccProtocol,
    OneWayProtocol,
    ProtocolOp,
    Round,
    audit_protocol,
    branch_fidelity,
    distill_to_max_entangled,
    majorizes,
    nielsen_convertible,
    one_way_to_locc,
    op_majorizes,
    simulate,
    spectrum,
    teleport_protocol,
)
from mergekit.qcore import (Bipartition, DensityOp, Ket, random_ket,
                            random_unitary, schmidt_decompose)

RNG = np.random.default_rng(42)


def test_majorizes_basics():
    assert majorizes([0.5, 0.5], [1.0, 0.0])
    assert not majorizes([0.6, 0.4], [0.5, 0.5])
    assert majorizes([0.3, 0.3, 0.4], [0.4, 0.35, 0.25])
    with pytest.raises(ValueError):
        majorizes([0.5, 0.5], [1.0])


def test_majorizes_requires_equal_total():
    assert not majorizes([0.4, 0.4], [0.5, 0.5])


def test_majorization_converse_gap_state():
    # Derived oracle: eigenvalues of (1_K/K x psi^B) vs the full psi^{AB}
    # for the converse-gap example with K=2, L=1.
    psi = states.converse_gap_state()
    from mergekit.qcore import reduced_state

    rho_b = reduced_state(psi, [2]).mat
    rho_ab = reduced_state(psi, [1, 2]).mat
    lhs = np.kron(np.eye(2) / 2, rho_b)
    ev_l = np.linalg.eigvalsh(lhs)
    ev_r = spectrum(np.clip(np.linalg.eigvalsh(rho_ab), 0, None), 4)
    assert majorizes(spectrum(np.clip(ev_l, 0, None), 4), ev_r)


def test_op_majorizes():
    ident = DensityOp(np.eye(2) / 2, (2,))
    pure = DensityOp(np.diag([1.0, 0.0]), (2,))
    assert op_majorizes(ident, pure)
    assert not op_majorizes(pure, ident)
    assert op_majorizes(pure, pure)
    with pytest.raises(ValueError):
        op_majorizes(np.array([[0, 1], [0, 0]]), np.eye(2))


def test_op_majorizes_matches_prefix_sums():
    for _ in range(20):
        a = np.sort(RNG.random(4))[::-1]
        b = np.sort(RNG.random(4))[::-1]
        a /= a.sum()
        b /= b.sum()
        da = DensityOp(np.diag(a), (4,), check=False)
        db = DensityOp(np.diag(b), (4,), check=False)
        assert op_majorizes(da, db) == majorizes(a, b)


def test_nielsen_convertible():
    cut = Bipartition([0], [1])
    bell = states.bell("phi+")
    assert nielsen_convertible(bell, random_ket([2, 2], RNG), cut)
    prod = Ket(np.kron([1, 0], [1, 0]), (2, 2))
    assert not nielsen_convertible(prod, bell, cut)
    # rank-3 maximally entangled converts into a rank-2 one (padded spectra)
    phi3 = states.max_entangled(3)
    target = Ket(np.kron(states.bell("phi+").amps, states.basis_ket(3, 0))
                 .reshape(2, 2, 3).transpose(0, 2, 1).reshape(-1), (2, 3, 2),
                 normalized=False)
    # simpler: compare spectra directly
    assert majorizes([1 / 3] * 3, [0.5, 0.5, 0.0])
    assert nielsen_convertible(phi3, phi3, Bipartition([0], [1]))
    del target


def test_teleport_qubit_identity():
    proto = teleport_protocol(2)
    psi = random_ket([2], RNG)
    inp = Ket(np.kron(psi.amps, states.max_entangled(2).amps), (2, 2, 2))
    branches = simulate(one_way_to_locc(proto, (0, 1), (2,)), inp)
    assert len(branches) == 4
    for b in branches:
        assert abs(b.prob - 0.25) < 1e-10
        assert branch_fidelity(b.state, psi) > 1 - 1e-10


def test_teleport_qutrit_identity():
    proto = teleport_protocol(3)
    psi = random_ket([3], RNG)
    inp = Ket(np.kron(psi.amps, states.max_entangled(3).amps), (3, 3, 3))
    branches = simulate(one_way_to_locc(proto, (0, 1), (2,)), inp)
    assert len(branches) == 9
    for b in branches:
        assert abs(b.prob - 1 / 9) < 1e-10
        assert branch_fidelity(b.state, psi) > 1 - 1e-10


def test_teleport_completeness():
    proto = teleport_protocol(3)
    acc = sum(op.mat.conj().T @ op.mat for op in proto.a_ops)
    assert np.allclose(acc, np.eye(9), atol=1e-10)


def test_entanglement_swapping():
    d = 3
    proto = teleport_protocol(d)
    inp = states.max_entangled(d).kron(states.max_entangled(d))
    # slots: R=0, A=(1,2), B=3
    locc = one_way_to_locc(proto, (1, 2), (3,))
    branches = simulate(locc, inp)
    target = states.max_entangled(d)
    assert len(branches) == d * d
    for b in branches:
        assert branch_fidelity(b.state, target) > 1 - 1e-10


def test_born_rule_probabilities():
    proto = teleport_protocol(2)
    psi = random_ket([2], RNG)
    inp = Ket(np.kron(psi.amps, states.max_entangled(2).amps), (2, 2, 2))
    amp_input = inp.amps
    for m, b in enumerate(simulate(one_way_to_locc(proto, (0, 1), (2,)), inp)):
        op = proto.a_ops[m]
        full = np.kron(op.mat, np.eye(2))
        expect = np.linalg.norm(full @ amp_input) ** 2
        assert abs(b.prob - expect) < 1e-10


def test_incomplete_instrument_rejected():
    bad = [ProtocolOp(np.eye(2) * 0.5, (2,), (2,))]
    with pytest.raises(CompletenessError):
        audit_protocol(LoccProtocol({"A": (0,)}, [Round("A", {(): bad})]))


def test_distill_identity_on_maximally_entangled():
    src = states.max_entangled(2)
    proto = distill_to_max_entangled(src, 2)
    branches = simulate(one_way_to_locc(proto, (0,), (1,)), src)
    target = states.max_entangled(2)
    for b in branches:
        # output register pair (2), (2, junk); junk stays |0>
        t = b.state.tensor()
        assert np.linalg.norm(t[..., 1:]) < 1e-9
        flat = Ket(t[:, :, 0].reshape(-1), (2, 2), normalized=False)
        assert branch_fidelity(flat, target) > 1 - 1e-10


def test_distill_three_coefficient_source():
    coeffs = np.sqrt([0.5, 0.3, 0.2])
    amps = np.zeros(9, dtype=complex)
    for i, c in enumerate(coeffs):
        amps[i * 3 + i] = c
    src = Ket(amps, (3, 3))
    proto = distill_to_max_entangled(src, 2)
    branches = simulate(one_way_to_locc(proto, (0,), (1,)), src)
    assert sum(b.prob for b in branches) > 1 - 1e-9
    target = states.max_entangled(2)
    for b in branches:
        t = b.state.tensor()
        assert np.linalg.norm(t[:, :, 1:]) < 1e-8
        flat = Ket(t[:, :, 0].reshape(-1), (2, 2), normalized=False)
        assert branch_fidelity(flat, target) > 1 - 1e-8


def test_distill_product_of_bells_relabel():
    src = states.max_entangled(2).kron(states.max_entangled(2))
    cut = Bipartition([0, 2], [1, 3])
    proto = distill_to_max_entangled(src, 4, cut)
    locc = one_way_to_locc(proto, (0, 2), (1, 3))
    branches = simulate(locc, src)
    target = states.max_entangled(4)
    for b in branches:
        t = b.state.tensor()
        assert np.linalg.norm(t[:, :, 1:]) < 1e-9
        flat = Ket(t[:, :, 0].reshape(-1), (4, 4), normalized=False)
        assert branch_fidelity(flat, target) > 1 - 1e-9


def test_distill_infeasible():
    src = Ket(np.kron([1, 0], [1, 0]), (2, 2))
    with pytest.raises(InfeasibleError):
        distill_to_max_entangled(src, 2)


def test_distill_random_feasible_sources():
    for trial in range(100):
        rng = np.random.default_rng(1000 + trial)
        n = int(rng.integers(2, 5))
        L = int(rng.integers(2, n + 1))
        # random spectrum with peak <= 1/L
        lam = rng.random(n)
        lam = lam / lam.sum()
        lam = np.sort(lam)[::-1]
        if lam[0] > 1 / L:
            lam = (lam + 1.0 / n) / 2
            lam = lam / lam.sum()
            excess = lam[0] - 1 / L
            if excess > 0:
                lam = np.full(n, 1.0 / n)
        amps = np.zeros(n * n, dtype=complex)
        for i in range(n):
            amps[i * n + i] = np.sqrt(lam[i])
        src = Ket(amps, (n, n))
        proto = distill_to_max_entangled(src, L)
        target = states.max_entangled(L)
        for b in simulate(one_way_to_locc(proto, (0,), (1,)), src):
            t = b.state.tensor()
            flat = Ket(t[:, :, 0].reshape(-1), (L, L), normalized=False)
            assert np.linalg.norm(t[:, :, 1:]) < 1e-8
            assert branch_fidelity(flat, target) > 1 - 1e-8


def test_nielsen_agrees_with_distill_feasibility():
    for trial in range(60):
        rng = np.random.default_rng(2000 + trial)
        n = int(rng.integers(2, 5))
        L = int(rng.integers(2, 5))
        lam = rng.random(n)
        lam /= lam.sum()
        lam = np.sort(lam)[::-1]
        amps = np.zeros(n * n, dtype=complex)
        for i in range(n):
            amps[i * n + i] = np.sqrt(lam[i])
        src = Ket(amps, (n, n))
        feasible = lam[0] <= 1.0 / L + 1e-12
        try:
            distill_to_max_entangled(src, L)
            built = True
        except InfeasibleError:
            built = False
        assert built == feasible


def _distill_sources():
    """The three-coefficient source and 20 seeded sources of Schmidt rank n
    in rotated local bases, each with a feasible target rank L."""
    amps = np.zeros(9, dtype=complex)
    amps[[0, 4, 8]] = np.sqrt([0.5, 0.3, 0.2])
    yield Ket(amps, (3, 3)), 2
    for trial in range(20):
        rng = np.random.default_rng(3000 + trial)
        n = int(rng.integers(2, 5))
        L = int(rng.integers(1, n + 1))
        lam = np.sort(rng.dirichlet(np.ones(n)))[::-1]
        if lam[0] > 1 / L:        # mix toward uniform until the peak is 1/L
            s = (1 / L - 1 / n) / (lam[0] - 1 / n)
            lam = s * lam + (1 - s) / n
        da, db = n + int(rng.integers(0, 2)), n + int(rng.integers(0, 2))
        core = np.zeros((da, db), dtype=complex)
        core[range(n), range(n)] = np.sqrt(lam)
        m = random_unitary(da, rng) @ core @ random_unitary(db, rng).T
        yield Ket(m.reshape(-1), (da, db)), L


def test_distill_branches_are_uniform():
    # one branch per Schmidt coordinate, each of probability 1/n
    for src, L in _distill_sources():
        n = len(np.flatnonzero(np.linalg.svd(
            src.tensor(), compute_uv=False) > 1e-9))
        branches = simulate(one_way_to_locc(
            distill_to_max_entangled(src, L), (0,), (1,)), src)
        assert len(branches) == n
        assert np.allclose([b.prob for b in branches], 1 / n, atol=1e-12)
        target = states.max_entangled(L)
        for b in branches:
            t = b.state.tensor()
            assert np.linalg.norm(t[:, :, 1:]) < 1e-8
            flat = Ket(t[:, :, 0].reshape(-1), (L, L), normalized=False)
            assert branch_fidelity(flat, target) > 1 - 1e-10


def _two_pass_projector_with_diagonal(d, rank):
    """The former construction: the forward transfer chain is run once to
    find its steps and a second time to record the intermediate diagonals."""
    n = d.size
    start = np.zeros(n)
    start[:rank] = 1.0
    steps = []
    z = d.astype(float).copy()
    for i in range(rank):
        deficit = start[i] - z[i]
        while deficit > 1e-12:
            j = n - 1
            while j > i and z[j] <= 1e-12:
                j -= 1
            if j <= i:
                raise InfeasibleError("diagonal profile is not majorized")
            delta = min(deficit, z[j])
            z[i] += delta
            z[j] -= delta
            steps.append((i, j))
            deficit = start[i] - z[i]
    p = np.diag(start.astype(complex))
    u = np.eye(n, dtype=complex)
    diags = [d.astype(float).copy()]
    z = d.astype(float).copy()
    for (i, j) in steps:
        delta = min(start[i] - z[i], z[j])
        z = z.copy()
        z[i] += delta
        z[j] -= delta
        diags.append(z)
    for t in range(len(steps) - 1, -1, -1):
        i, j = steps[t]
        want = diags[t][i]
        a, b, c = p[i, i].real, p[j, j].real, p[i, j]
        radius = np.hypot((a - b) / 2, abs(c))
        if radius < 1e-15:
            continue
        chi = np.arctan2(abs(c), (a - b) / 2)
        cosv = np.clip((want - (a + b) / 2) / radius, -1.0, 1.0)
        theta = (chi - np.arccos(cosv)) / 2
        phi = np.angle(c) if abs(c) > 1e-15 else 0.0
        rot = np.eye(n, dtype=complex)
        rot[i, i] = np.cos(theta)
        rot[i, j] = np.exp(1j * phi) * np.sin(theta)
        rot[j, i] = -np.exp(-1j * phi) * np.sin(theta)
        rot[j, j] = np.cos(theta)
        p = rot @ p @ rot.conj().T
        u = rot @ u
    return u


def test_projector_with_diagonal_matches_two_pass_oracle(monkeypatch):
    import mergekit.locc as locc
    from mergekit.mergesplit import merge_protocol

    profiles = []
    for trial in range(40):
        rng = np.random.default_rng(4000 + trial)
        n = int(rng.integers(1, 9))
        rank = int(rng.integers(1, n + 1))
        lam = np.sort(rng.dirichlet(np.ones(n)))[::-1]
        if lam[0] > 1 / rank:
            s = (1 / rank - 1 / n) / (lam[0] - 1 / n)
            lam = s * lam + (1 - s) / n
        profiles.append((rank * lam, rank))
    # the built-in examples' spectra across each single-subsystem cut, at
    # every feasible rank, and the profiles merge synthesis meets on them
    names = ("ghz", "ghz:3:3", "ex2", "ex3", "ex4", "ex4-swapped",
             "qutrit-choi", "ki-example")
    for name in names:
        psi = states.generate_example(name)
        for k in range(psi.nsys):
            lam = schmidt_decompose(
                psi, Bipartition([k], nsys=psi.nsys)).coeffs ** 2
            profiles += [(rank * lam, rank) for rank in range(1, lam.size + 1)
                         if lam[0] <= 1 / rank + 1e-9]
    real = locc._projector_with_diagonal

    def recording(d, rank):
        profiles.append((d.copy(), rank))
        return real(d, rank)

    monkeypatch.setattr(locc, "_projector_with_diagonal", recording)
    for name in names:
        for setting in ("catalytic", "non-catalytic"):
            merge_protocol(states.generate_example(name), setting)
    assert len(profiles) > 100
    for d, rank in profiles:
        assert np.array_equal(real(d, rank),
                              _two_pass_projector_with_diagonal(d, rank))


def test_simulate_prunes_zero_probability():
    # measurement in the computational basis of |0>: outcome 1 never fires
    ops = [ProtocolOp(np.diag([1.0, 0.0]), (2,), (2,)),
           ProtocolOp(np.diag([0.0, 1.0]), (2,), (2,))]
    proto = LoccProtocol({"A": (0,)}, [Round("A", {(): ops})])
    branches = simulate(proto, Ket([1, 0], (2,)))
    assert len(branches) == 1
    assert branches[0].outcomes == (0,)


def test_mixed_convertible_witness():
    from mergekit.locc import mixed_convertible_witness

    cut = Bipartition([0], [1])
    bell = states.bell("phi+")
    prod = Ket(np.kron([1, 0], [1, 0]), (2, 2))
    # a maximally entangled pair converts into any pure-state mixture
    ens = [(0.5, prod), (0.5, states.bell("psi+"))]
    assert mixed_convertible_witness(bell, ens, cut)
    # a product state cannot reach an entangled mixture
    ens = [(1.0, bell)]
    assert not mixed_convertible_witness(prod, ens, cut)
    with pytest.raises(ValueError):
        mixed_convertible_witness(bell, [(0.7, prod)], cut)


def test_nielsen_rank_three_to_embedded_rank_two():
    # uniform rank three converts into a rank-two maximally entangled pair
    # on the same systems
    cut = Bipartition([0], [1])
    phi3 = states.max_entangled(3)
    target_amps = np.zeros(9, dtype=complex)
    target_amps[0] = target_amps[3 + 1] = 1 / np.sqrt(2)
    target = Ket(target_amps, (3, 3))
    assert nielsen_convertible(phi3, target, cut)
    assert not nielsen_convertible(target, phi3, cut)


def _per_operator_simulate(protocol, state, prune=PRUNE_TOL):
    """Reference simulator: one transpose, matmul and transpose back per
    operator, the Born weight from vdot."""
    owners = [None] * state.nsys
    for name, slots in protocol.parties.items():
        for s in slots:
            owners[s] = name
    branches = [((), 1.0, state.amps, list(state.dims), owners)]
    for rnd in protocol.rounds:
        new = []
        for outcomes, prob, amps, dims, owners in branches:
            ops = rnd.instruments.get(outcomes, rnd.instruments.get(()))
            pos = [k for k, o in enumerate(owners) if o == rnd.party]
            rest = [k for k in range(len(dims)) if k not in pos]
            n_before = len([k for k in rest if k < min(pos, default=0)])
            for m, op in enumerate(ops):
                t = np.transpose(amps.reshape(dims), pos + rest)
                out = op.mat @ t.reshape(op.mat.shape[1], -1)
                n_out = len(op.out_dims)
                out = out.reshape(list(op.out_dims) + [dims[k] for k in rest])
                order = ([n_out + i for i in range(n_before)]
                         + list(range(n_out))
                         + [n_out + i for i in range(n_before, len(rest))])
                out = np.transpose(out, order).reshape(-1)
                p = float(np.vdot(out, out).real) * prob
                if p < prune:
                    continue
                rest_dims = [dims[k] for k in rest]
                rest_owners = [owners[k] for k in rest]
                new.append((
                    outcomes + (m,), p, out / np.linalg.norm(out),
                    rest_dims[:n_before] + list(op.out_dims)
                    + rest_dims[n_before:],
                    rest_owners[:n_before] + [rnd.party] * n_out
                    + rest_owners[n_before:]))
        branches = new
    return branches


def _mixed_shape_rounds():
    """Three rounds on slots (A, B, A): A's first instrument leaves its slot
    with dimension 1 or 2, so the conditioned rounds see branches of
    different dims; B's instruments per key differ in length and shape."""
    h = np.sqrt(0.5)
    first = [ProtocolOp(h * np.array([[1, 0]]), (2,), (1,)),
             ProtocolOp(h * np.eye(2), (2,), (2,)),
             ProtocolOp(h * np.array([[0, 1]]), (2,), (1,))]
    u = random_unitary(3, np.random.default_rng(3))
    c, s = np.cos(0.3), np.sin(0.3)
    b_round = {
        (0,): [ProtocolOp(u, (3,), (3,))],
        (1,): [ProtocolOp(c * u[:2], (3,), (2,)),
               ProtocolOp(s * u, (3,), (3,)),
               ProtocolOp(c * u[2:], (3,), (1,))],
        (2,): [ProtocolOp(h * np.eye(3), (3,), (3,)),
               ProtocolOp(h * u, (3,), (3,))],
    }
    a_round = {}
    for key in [(0, 0), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]:
        if key[0] == 1:
            a_round[key] = [ProtocolOp(h * np.eye(2), (2,), (2,)),
                            ProtocolOp(h * np.array([[0, 1], [1, 0]]), (2,),
                                       (2,))]
        else:
            a_round[key] = [ProtocolOp(np.eye(1), (1,), (1,))]
    return [Round("A", {(): first}), Round("B", b_round), Round("A", a_round)]


def _simulator_cases():
    from mergekit import twoway
    from mergekit.mergesplit import merge_protocol, split_protocol

    rng = np.random.default_rng(1903)
    cases = []
    psi = random_ket([3], rng)
    cases.append((one_way_to_locc(teleport_protocol(3), (0, 1), (2,)),
                  psi.kron(states.max_entangled(3))))
    psi = random_ket([2, 3, 3], rng)
    proto, meta = split_protocol(psi, 3)
    cases.append((one_way_to_locc(proto, (2, 3), (4,)),
                  psi.kron(states.max_entangled(meta["resource_rank"]))))
    # redundant pair with spectrum (3/4, 1/4): catalytic K = 6, L = 4
    omega = np.diag([np.sqrt(0.75), np.sqrt(0.25)])
    t = np.einsum("Rx,ab->Raxb", np.eye(2) / np.sqrt(2), omega)
    psi = Ket(t.reshape(-1), (2, 4, 2))
    merge = merge_protocol(psi, "catalytic")
    cases.append((merge.locc(), merge.input_state(psi)))
    # receiver measures first, the sender's family is conditioned on it:
    # the zero-ebit protocol with the shifts the two-way check resolves
    inst = twoway.default_instance()
    cases.append((twoway.two_way_protocol(inst.gamma2, {1: 6, 2: 3}),
                  inst.psi))
    # mixed output shapes in one instrument, held on a middle slot
    h = np.sqrt(0.5)
    ops = [ProtocolOp(h * np.array([[1, 0]]), (2,), (1,)),
           ProtocolOp(h * np.eye(2), (2,), (2,)),
           ProtocolOp(h * np.array([[0, 1]]), (2,), (1,))]
    cases.append((LoccProtocol({"A": (1,)}, [Round("A", {(): ops})]),
                  random_ket([3, 2, 2], rng)))
    # conditioned rounds over branches of different dims, per-key
    # instruments of different lengths and shapes
    rounds = _mixed_shape_rounds()
    cases.append((LoccProtocol({"A": (1,), "B": (2,)}, rounds),
                  random_ket([2, 2, 3], rng)))
    # unconditioned rounds after the branching one, reached by every branch
    ident = [ProtocolOp(np.eye(2), (2,), (2,))]
    cases.append((LoccProtocol({"A": (0,), "B": (1,)},
                               [Round("B", {(): ident}),
                                Round("A", {(): rounds[0].instruments[()]}),
                                Round("B", {(): ident})]),
                  random_ket([2, 2], rng)))
    return cases


def test_simulate_matches_per_operator_reference():
    for protocol, inp in _simulator_cases():
        got = simulate(protocol, inp)
        want = _per_operator_simulate(protocol, inp)
        assert [b.outcomes for b in got] == [w[0] for w in want]
        assert [b.ownership for b in got] == [tuple(w[4]) for w in want]
        for b, (_, p, amps, dims, _) in zip(got, want):
            assert b.state.dims == tuple(dims)
            assert abs(b.prob - p) <= 1e-12
            assert np.max(np.abs(b.state.amps - amps)) <= 1e-12


def test_simulate_prunes_below_tolerance_like_reference():
    # outcome 1 fires with probability 1e-14, under PRUNE_TOL
    eps = 1e-14
    ops = [ProtocolOp(np.sqrt(1 - eps) * np.eye(2), (2,), (2,)),
           ProtocolOp(np.sqrt(eps) * np.eye(2), (2,), (2,)),
           ProtocolOp(np.zeros((1, 2)), (2,), (1,))]
    proto = LoccProtocol({"A": (0,)}, [Round("A", {(): ops})])
    inp = random_ket([2, 3], RNG)
    got = simulate(proto, inp)
    want = _per_operator_simulate(proto, inp)
    assert [b.outcomes for b in got] == [w[0] for w in want] == [(0,)]
    assert abs(got[0].prob - want[0][1]) <= 1e-12
    assert np.max(np.abs(got[0].state.amps - want[0][2])) <= 1e-12


def test_incomplete_instrument_on_one_branch_is_named():
    rounds = _mixed_shape_rounds()
    short = dict(rounds[1].instruments)
    short[(2,)] = short[(2,)][:1]            # reached only by branch (2,)
    proto = LoccProtocol({"A": (1,), "B": (2,)},
                         [rounds[0], Round("B", short)])
    with pytest.raises(CompletenessError, match=r"given \(2,\)"):
        simulate(proto, random_ket([2, 2, 3], RNG))
    # the first failing key in branch order is named, whichever kind of
    # instrument fails first
    bad = dict(rounds[1].instruments)
    bad[(0,)] = [ProtocolOp(0.5 * np.eye(3), (3,), (3,))]
    bad[(1,)] = bad[(1,)][:2]
    proto = LoccProtocol({"A": (1,), "B": (2,)},
                         [rounds[0], Round("B", bad)])
    with pytest.raises(CompletenessError, match=r"given \(0,\)"):
        simulate(proto, random_ket([2, 2, 3], RNG))
    with pytest.raises(CompletenessError, match=r"given \(0,\)"):
        audit_protocol(proto)
    # an instrument no branch reaches is not audited by the simulator:
    # outcome 2 is pruned; the whole-table audit refuses it all the same
    inp = Ket(np.kron([1, 0, 0, 0], random_ket([3], RNG).amps), (2, 2, 3))
    proto = LoccProtocol({"A": (1,), "B": (2,)},
                         [rounds[0], Round("B", short)])
    assert [b.outcomes for b in simulate(proto, inp)] == [
        (0, 0), (1, 0), (1, 1), (1, 2)]
    with pytest.raises(CompletenessError, match=r"given \(2,\)"):
        audit_protocol(proto)
    audit_protocol(LoccProtocol({"A": (1,), "B": (2,)}, rounds))


def test_simulate_returns_branch_states_as_row_views(monkeypatch):
    import mergekit.qcore as qcore

    proto = LoccProtocol({"A": (1,), "B": (2,)}, _mixed_shape_rounds())
    inp = random_ket([2, 2, 3], RNG)
    tele_inp = random_ket([3], RNG).kron(states.max_entangled(3))
    calls = []
    init = qcore.Ket.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(qcore.Ket, "__init__", counting_init)
    branches = simulate(proto, inp)
    assert not calls                # no Ket is built, per round or branch
    for b in branches:
        amps = b.state.amps
        assert isinstance(b.state, Ket) and not b.state.normalized
        assert amps.base is not None and not amps.flags.writeable
        assert amps.shape == (int(np.prod(b.state.dims)),)
        assert b.state.tensor().shape == b.state.dims
    teleported = simulate(
        one_way_to_locc(teleport_protocol(3), (0, 1), (2,)), tele_inp)
    assert not calls
    # the branches of one layout view consecutive rows of one frozen stack,
    # as they record, and stack back without a copy
    from mergekit.locc import _stack_of

    base = teleported[0].state.amps.base
    rows = _stack_of([b.state for b in teleported], "amps")
    assert rows.base is base and rows.shape == (len(teleported), 3)
    assert not rows.flags.writeable
    assert all(np.array_equal(r, b.state.amps)
               for r, b in zip(rows, teleported))


def test_branch_fidelities_read_a_large_family_of_row_views_in_place():
    import tracemalloc

    from mergekit.locc import _ket_views, branch_fidelities

    rng = np.random.default_rng(5)
    stack = rng.normal(size=(128, 1024)) + 1j * rng.normal(size=(128, 1024))
    want = branch_fidelities(stack.copy(), stack[3])
    rows = _ket_views(stack, (1024,))   # 2 MiB of rows
    tracemalloc.start()
    try:
        got = branch_fidelities(rows, stack[3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    # the norms' conjugate takes one stack's worth; a stacked copy of the
    # rows would take another
    assert peak < 1.5 * stack.nbytes, peak
    # rows out of order are copied, and read the same
    assert np.array_equal(branch_fidelities(rows[::-1], stack[3]),
                          want[::-1])


def test_completeness_audit_reuses_a_stack_only_its_own_views_form():
    from mergekit.locc import _check_complete, _op_views

    # a rank-one measurement: four 1x4 operators sum to the identity
    stack = np.eye(4, dtype=complex).reshape(4, 1, 4).copy()
    ops = _op_views(stack, (4,), (1,))
    (idx, _, _, got), = _check_complete(ops, "views")
    assert idx == [0, 1, 2, 3] and got.base is stack
    # reordered views are copied in the operators' order
    (_, _, _, got), = _check_complete(ops[::-1], "reordered")
    assert got.base is not stack and np.array_equal(got, stack[::-1])
    # four views of the stack, one repeated and one missing, are incomplete
    with pytest.raises(CompletenessError):
        _check_complete([ops[0], ops[0], ops[2], ops[3]], "repeated")


def _corrupted(ops, row, scale):
    """The family ``ops`` rebuilt as views of one stack, one row scaled."""
    from mergekit.locc import _op_views

    stack = np.array([op.mat for op in ops])
    stack[row] *= scale
    return _op_views(stack, ops[0].in_dims, ops[0].out_dims)


def _replaced(ops, row, scale):
    """The family ``ops`` with one operator replaced by a scaled copy."""
    op = ops[row]
    return (ops[:row] + [ProtocolOp(scale * op.mat, op.in_dims, op.out_dims)]
            + ops[row + 1:])


def test_families_audited_as_stacks_fail_as_operator_lists_do():
    from mergekit.mergesplit import merge_protocol

    psi = states.generate_example("ki-example")
    proto = merge_protocol(psi, "catalytic")
    a, b = proto.one_way.a_ops, proto.one_way.b_ops
    # 16 synthesized sender rows and 2 completion operators, all rows of
    # one stack; each receiver is a single-operator instrument
    assert len(a) == 18 and [op._row for op in a] == list(range(18))
    assert all(op._stack is a[0]._stack for op in a)
    sender = "round for A given () completeness deviates by "
    receiver = "round for B given (2,) completeness deviates by "
    cases = [
        (_corrupted(a, 1, 1.25), b, sender + "7.031e-02"),
        (_replaced(a, 1, 1.25), b, sender + "7.031e-02"),
        (_corrupted(a, 16, 1.25), b, sender + "5.625e-01"),   # completion
        (_replaced(a, 16, 1.25), b, sender + "5.625e-01"),
        (a, _corrupted(b, 2, 1.25), receiver + "5.625e-01"),
        (a, _replaced(b, 2, 1.25), receiver + "5.625e-01"),
        # two failing receivers: the first in branch order is named
        (a, _corrupted(_corrupted(b, 5, 1.25), 2, 0.5),
         receiver + "7.500e-01"),
        (a, _replaced(_replaced(b, 5, 1.25), 2, 0.5), receiver + "7.500e-01"),
    ]
    for a_ops, b_ops, message in cases:
        locc = one_way_to_locc(OneWayProtocol(a_ops, b_ops), (1, 3), (2, 4))
        for run in (lambda: simulate(locc, proto.input_state(psi)),
                    lambda: audit_protocol(locc)):
            with pytest.raises(CompletenessError) as err:
                run()
            assert str(err.value) == message


def _loop_uniform_distill(source, target_rank, cut):
    """Oracle: ``uniform_distill`` with one product per outcome."""
    from mergekit.locc import _projector_with_diagonal

    form = schmidt_decompose(source, cut)
    lam, n, L = form.coeffs ** 2, form.rank, target_rank
    ua = np.array([b.amps.conj() for b in form.left_basis])
    ub = np.array([b.amps.conj() for b in form.right_basis])
    c0 = _projector_with_diagonal(L * lam, L).conj().T[:L, :]
    inv_sqrt = 1.0 / np.sqrt(lam)
    omega = np.exp(2j * np.pi / n)
    a_mats, b_mats = [], []
    for t in range(n):
        d_t = omega ** (t * np.arange(n))
        m_coord = (c0 * d_t[None, :]) * inv_sqrt[None, :] / np.sqrt(n * L)
        a_mats.append(m_coord @ ua)
        b_mats.append((c0 * d_t[None, :]).conj() @ ub)
    return np.array(a_mats), np.array(b_mats), n


def test_uniform_distill_matches_the_per_outcome_loop_bit_for_bit():
    from mergekit.locc import uniform_distill

    rng = np.random.default_rng(2313)
    for dims, cut, p, rank in (
            ((3, 3), Bipartition([0], nsys=2), [0.4, 0.35, 0.25], 2),
            ((4, 2, 4), Bipartition([0, 1], nsys=3), [0.3, 0.3, 0.25, 0.15],
             3),
            ((2, 5), Bipartition([0], nsys=2), [0.5, 0.5], 2)):
        # a source with Schmidt spectrum p in random local bases
        da = int(np.prod([dims[k] for k in cut.left]))
        db = int(np.prod(dims)) // da
        m = (random_unitary(da, rng)[:, :len(p)] * np.sqrt(p)
             @ random_unitary(db, rng)[:len(p)])
        source = Ket(m.reshape(-1), dims)
        got = uniform_distill(source, rank, cut)
        want = _loop_uniform_distill(source, rank, cut)
        assert got[2] == want[2]
        for g, w in zip(got[:2], want[:2]):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
