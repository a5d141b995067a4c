"""The 11 x 11 one-shot separation instance: a triple of orthogonal states
mergeable at one ebit by one-way communication but at zero ebits when the
receiver measures first.

The receiver's three-outcome measurement makes the large-block components
orthogonal; the sender's thirty-three-outcome measurement (conditioned on the
receiver's outcome) then leaves a rank-three maximally entangled pair with
the reference in every branch, which the receiver rotates into the target.
Both protocols run through the exhaustive simulator ``locc.simulate``; the
four two-way checks are read from its audit, its branch probabilities and
its branches' reference-cut amplitudes.  The literal variant's zero-padded
sender family fails that audit, so its branch checks are not run: they
read false and its total probability is None.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kidecomp import ki_decompose_tripartite
from .locc import (CompletenessError, LoccProtocol, OneWayProtocol,
                   ProtocolOp, Round, _extend_isometry, _shift_phase,
                   branch_fidelities, one_way_to_locc, simulate)
from .qcore import (Bipartition, Ket, conditional_entropy, random_unitary,
                    reduced_state)
from .states import max_entangled, pauli_x, pauli_z

DIM = 11    # a qubit block then a nonet block
# two-way protocols act on (reference, sender, receiver)
_PARTIES = {"A": (1,), "B": (2,)}
_TOL = 1e-8     # rank-three eigenvalues and component-image overlaps


@dataclass(frozen=True)
class SeparationInstance:
    """Unit-modulus parameters, the three orthogonal states, and their
    purification with a qutrit reference."""

    gamma1: complex
    gamma2: complex
    components: tuple   # three Kets on (11, 11)
    psi: Ket            # Ket on (3, 11, 11)


def build_instance(gamma1: complex, gamma2: complex) -> SeparationInstance:
    """Construct the instance; rejects parameters violating the constraints
    (unit modulus, nonreal, gamma2 distinct from +-i gamma1^2)."""
    g1, g2 = complex(gamma1), complex(gamma2)
    for name, g in (("gamma1", g1), ("gamma2", g2)):
        if not np.isfinite(g):
            raise ValueError(f"{name} must be finite, got {g}")
        if abs(abs(g) - 1.0) > 1e-12:
            raise ValueError(f"{name} must have unit modulus, got |{name}|="
                             f"{abs(g)}")
        if abs(g.imag) < 1e-12:
            raise ValueError(f"{name} must be nonreal")
    for sign in (1, -1):
        if abs(g2 - sign * 1j * g1 * g1) < 1e-12:
            raise ValueError(
                "gamma2 must differ from +-i gamma1^2")

    phi2 = max_entangled(2).amps.reshape(2, 2)
    phi9 = max_entangled(9).amps.reshape(9, 9)
    x2, z2, x9 = pauli_x(2), pauli_z(2), pauli_x(9)

    def component(qubit_op, nonet_op, qubit_phase):
        t = np.zeros((DIM, DIM), dtype=complex)
        t[:2, :2] = np.sqrt(2 / 11) * qubit_phase * (qubit_op @ phi2)
        t[2:, 2:] = np.sqrt(9 / 11) * (nonet_op @ phi9)
        return Ket(t.reshape(-1), (DIM, DIM))

    comps = (
        component(np.eye(2), np.eye(9), 1.0),
        component(x2, np.linalg.matrix_power(x9, 3), g1),
        component(z2, np.linalg.matrix_power(x9, 6), g2),
    )
    tri = np.zeros((3, DIM, DIM), dtype=complex)
    for l, c in enumerate(comps):
        tri[l] = c.amps.reshape(DIM, DIM) / np.sqrt(3)
    psi = Ket(tri.reshape(-1), (3, DIM, DIM))
    gram = np.array([[c1.overlap(c2) for c2 in comps] for c1 in comps])
    if np.max(np.abs(gram - np.eye(3))) > 1e-10:
        raise ValueError("component states failed orthonormality")
    return SeparationInstance(gamma1=g1, gamma2=g2, components=comps, psi=psi)


def default_instance() -> SeparationInstance:
    return build_instance(np.exp(1j * np.pi / 4), np.exp(1j * np.pi / 3))


def _analytic_blocks(inst: SeparationInstance):
    """Block data of the purified instance: the qubit block is fully quantum
    of size two; the nonet splits into three cyclic blocks of size three."""
    blocks = []
    # block 0: amplitudes of phi_0 on (reference, coords, receiver coords)
    phi0 = np.zeros((3, 2, 2), dtype=complex)
    phi2 = max_entangled(2).amps.reshape(2, 2)
    ops = [np.eye(2), inst.gamma1 * pauli_x(2), inst.gamma2 * pauli_z(2)]
    for l, op in enumerate(ops):
        phi0[l] = (op @ phi2) / np.sqrt(3)
    grid0 = np.zeros((2, DIM), dtype=complex)
    grid0[0, 0] = 1.0
    grid0[1, 1] = 1.0
    blocks.append({"prob": 2 / 11, "dim": 2, "grid": grid0, "phi": phi0})
    # blocks 1..3: subspaces {0,3,6}, {1,4,7}, {2,5,8} of the nonet; the
    # state there is the cyclic form sum_l |l> |l+m> |m> / 3
    for j in range(1, 4):
        idx = [j - 1 + 3 * t for t in range(3)]
        grid = np.zeros((3, DIM), dtype=complex)
        for t, i in enumerate(idx):
            grid[t, 2 + i] = 1.0
        phi = np.zeros((3, 3, 3), dtype=complex)
        for l in range(3):
            for m in range(3):
                phi[l, (l + m) % 3, m] = 1 / 3
        blocks.append({"prob": 3 / 11, "dim": 3, "grid": grid, "phi": phi})
    return blocks


def one_way_protocol(inst: SeparationInstance) -> OneWayProtocol:
    """One-ebit protocol: teleport the qubit block, measure the cyclic
    blocks in the computational basis, and combine coherently through a
    Fourier measurement of the block label."""
    blocks = _analytic_blocks(inst)
    n_blocks = len(blocks)
    k_total = 2
    # per-block sender families on (block coords x resource), each padded to
    # a common outcome count with uniform branch amplitudes
    per_block_a, per_block_b = [], []
    # block 0: shifted-phase basis on (coords 2, resource 2)
    a0, b0 = [], []
    phi2 = max_entangled(2).amps
    for m in range(4):
        sigma = _shift_phase(2, m)
        a0.append((np.kron(np.eye(2), sigma) @ phi2).conj().reshape(1, 4))
        b0.append(sigma.T)      # resource half -> merged block coords
    per_block_a.append(a0)
    per_block_b.append(b0)
    for j in range(1, 4):
        aj, bj = [], []
        for x in range(3):
            for w in range(2):
                bra = np.zeros((1, 6), dtype=complex)
                bra[0, x * 2 + w] = 1.0
                aj.append(bra)
                v = np.zeros((9, 3), dtype=complex)   # y -> (merged, own)
                for y in range(3):
                    for m in range(3):
                        v[((x - y + m) % 3) * 3 + m, y] = 1 / np.sqrt(3)
                bj.append((v, w))
        per_block_a.append(aj)
        per_block_b.append(bj)

    n2 = 12  # lcm(4, 6)
    junk = 2
    out_b_dims = (DIM, DIM, junk)
    d_out = DIM * DIM * junk
    a_ops, b_ops = [], []
    for m2 in range(n2):
        for m3 in range(n_blocks):
            a_mat = np.zeros((1, DIM * k_total), dtype=complex)
            b_mat = np.zeros((d_out, DIM * k_total), dtype=complex)
            for j, blk in enumerate(blocks):
                n_j = len(per_block_a[j])
                scale = 1.0 / np.sqrt((n2 // n_j) * n_blocks)
                phase_a = np.exp(-2j * np.pi * j * m3 / n_blocks)
                phase_b = np.exp(2j * np.pi * j * m3 / n_blocks)
                coord = blk["grid"].conj()        # (dim_j, 11) bras
                bra = per_block_a[j][m2 % n_j].reshape(blk["dim"], k_total)
                term = np.einsum("ck,ca->ak", bra, coord, optimize=True)
                a_mat[0] += scale * phase_a * term.reshape(-1)
                b_mat += phase_b * _one_way_b_term(
                    blk, per_block_b[j][m2 % n_j], j == 0, junk)
            a_ops.append(ProtocolOp(a_mat, (DIM, k_total), (1,)))
            b_ops.append(ProtocolOp(_extend_isometry(b_mat, DIM * k_total),
                                    (DIM, k_total), out_b_dims))
    return OneWayProtocol(a_ops, b_ops)


def _one_way_b_term(blk, corr, is_teleport, junk):
    """Receiver-side term of one block: map (receiver, resource half) to
    (merged copy, receiver, junk)."""
    dim = blk["dim"]
    grid = blk["grid"]                  # (dim, 11) ambient vectors
    coord = grid.conj()                 # coordinate bras
    embed = grid.T                      # (11, dim) coordinate kets
    out = np.zeros((DIM, DIM, junk, DIM, 2), dtype=complex)
    if is_teleport:
        sigma_t = corr                  # resource half -> merged coords
        core = np.einsum("Ac,cd,By,yb->ABbd", embed, sigma_t, embed, coord,
                         optimize=True)
        out[:, :, 0] = core
        return out.reshape(DIM * DIM * junk, DIM * 2)
    v, w = corr                         # creation map, resource outcome
    vmap = v.reshape(dim, dim, dim)     # (merged coord, own coord, y)
    core = np.einsum("Ac,Bm,cmy,yb->ABb", embed, embed, vmap, coord,
                     optimize=True)
    for vbar in range(2):
        out[:, :, vbar ^ w, :, vbar] = core
    return out.reshape(DIM * DIM * junk, DIM * 2)


def _coarse_structure_check(inst: SeparationInstance, psi: Ket,
                            tol: float = 1e-8) -> dict:
    """Check the state against the protocol's coarse block structure: one
    fully quantum block of size two and three cyclic blocks of size three,
    with weights (2/11, 3/11, 3/11, 3/11) and an exact reassembly."""
    blocks = _analytic_blocks(inst)
    t = psi.tensor()
    probs = []
    rebuilt = np.zeros_like(t)
    for blk in blocks:
        grid = blk["grid"]
        comp = np.einsum("ca,Rab->Rcb", grid.conj(), t, optimize=True)
        probs.append(float(np.linalg.norm(comp) ** 2))
        # receiver-side block subspaces mirror the sender-side ones
        part = np.einsum("Rcy,ca,yb->Rab", blk["phi"], grid, grid,
                         optimize=True)
        rebuilt += np.sqrt(blk["prob"]) * part
    residual = float(np.linalg.norm(rebuilt - t))
    expected = [b["prob"] for b in blocks]
    return {
        "block_probs": probs,
        "expected_probs": expected,
        "reassembly_residual": residual,
        "dims_right": sorted(b["dim"] for b in blocks),
        "ok": bool(np.allclose(probs, expected, atol=1e-9)
                   and residual <= tol),
    }


def verify_one_way(inst: SeparationInstance, tamper: bool = False,
                   check_ki: bool = True) -> dict:
    """Build and exhaustively simulate the one-ebit protocol, check the
    coarse block structure it relies on, and cross-check the refined
    partition computed from scratch."""
    psi = inst.psi
    if tamper:
        t = psi.tensor().copy()
        t[:, :2, :2] *= np.sqrt(9 / 2)
        t[:, 2:, 2:] *= np.sqrt(2 / 9)
        t /= np.linalg.norm(t)
        psi = Ket(t.reshape(-1), psi.dims)
    proto = one_way_protocol(inst)
    inp = psi.kron(max_entangled(2))
    locc = one_way_to_locc(proto, a_slots=(1, 3), b_slots=(2, 4))
    branches = simulate(locc, inp)
    target = np.zeros((3, 1, DIM, DIM, 2), dtype=complex)
    target[:, 0, :, :, 0] = psi.tensor()
    fid = branch_fidelities([b.state.amps for b in branches], target)
    worst = max(0.0, float(np.max(1.0 - fid)))
    structure = _coarse_structure_check(inst, psi)
    report = {
        "resource_rank": 2,
        "returned_rank": 1,
        "cost_ebits": 1.0,
        "branches": len(branches),
        "worst_infidelity": float(worst),
        "protocol_block_dims_right": structure["dims_right"],
        "protocol_block_probs": structure["block_probs"],
        "structure_ok": structure["ok"],
        "pass": bool(worst <= 1e-8 and structure["ok"]),
    }
    if check_ki and not tamper:
        # the refinement procedure reaches a finer partition with the same
        # block count and weights; record it alongside the coarse structure
        ki = ki_decompose_tripartite(inst.psi)
        report["computed_partition_dims"] = sorted(
            (b.dim_left, b.dim_right) for b in ki.blocks)
        report["computed_partition_probs"] = sorted(
            round(p, 9) for p in ki.probs)
        report["computed_partition_matches_weights"] = bool(np.allclose(
            sorted(ki.probs), sorted([2 / 11, 3 / 11, 3 / 11, 3 / 11]),
            atol=1e-9))
        report["pass"] &= report["computed_partition_matches_weights"]
    return report


def generic_one_way_cost(inst: SeparationInstance) -> float:
    """Non-catalytic cost of the unmodified block protocol on the coarse
    structure, which teleports each cyclic block wholesale."""
    return float(np.log2(max(blk["dim"] for blk in _analytic_blocks(inst))))


# ---------------------------------------------------------------------------
# two-way protocol


def receiver_measurement() -> list:
    """The receiver's three-outcome measurement, as operators on its
    subsystem: a uniform shrink of the qubit block plus projections onto
    the three nonet sectors."""
    ops = []
    for j in range(3):
        m = np.zeros((DIM, DIM), dtype=complex)
        m[0, 0] = m[1, 1] = np.sqrt(1 / 3)
        for t in range(3):
            i = 2 + 3 * j + t
            m[i, i] = 1.0
        ops.append(ProtocolOp(m, (DIM,), (DIM,)))
    return ops


_PAIR_GROUPS = [(0, 4, 6), (1, 5, 7), (2, 3, 8)]
_FOURIER_GROUPS = [(0, 4, 8), (1, 5, 6), (2, 3, 7)]


def sender_vectors(gamma2: complex) -> list:
    """The 33 unnormalized vectors defining the sender's measurement for the
    receiver outcome zero."""
    vecs = []
    for (x, y, z) in _PAIR_GROUPS:
        for t in range(8):
            qubit = t % 4 // 2          # 0,0,1,1,0,0,1,1
            qsign = 1.0 if t % 2 == 0 else -1.0
            xsign = 1.0 if qubit == 0 else -1.0
            ysign = 1.0 if t < 4 else -1.0
            v = np.zeros(DIM, dtype=complex)
            v[qubit] = qsign * np.sqrt(3 / 36)
            v[2 + x] = xsign * np.sqrt(1 / 36)
            v[2 + y] = ysign * np.sqrt(1 / 36)
            v[2 + z] = -np.conj(gamma2) * np.sqrt(1 / 36)
            vecs.append(v)
    for (x, y, z) in _FOURIER_GROUPS:
        for n in range(3):
            v = np.zeros(DIM, dtype=complex)
            w = np.exp(2j * np.pi * n / 3)
            v[2 + x] = np.sqrt(28 / 36) / np.sqrt(3)
            v[2 + y] = np.sqrt(28 / 36) / np.sqrt(3) * w
            v[2 + z] = np.sqrt(28 / 36) / np.sqrt(3) * w * w
            vecs.append(v)
    return vecs


def sender_measurement(gamma2: complex, shift_power: int,
                       literal: bool = False) -> list:
    """The sender's 33-outcome family for one receiver outcome, as
    operators on its subsystem: the base bras composed with a block shift.
    ``literal`` uses the zero-padded shift that fails completeness on the
    qubit block."""
    op = np.zeros((DIM, DIM), dtype=complex)
    if not literal:
        op[0, 0] = op[1, 1] = 1.0
    op[2:, 2:] = np.linalg.matrix_power(pauli_x(9), shift_power)
    return [ProtocolOp(v.conj().reshape(1, DIM) @ op, (DIM,), (1,))
            for v in sender_vectors(gamma2)]


def _run(rounds, state: Ket) -> list:
    """Simulate rounds over the parties (reference, sender, receiver); the
    simulator audits every instrument a branch reaches."""
    return simulate(LoccProtocol(_PARTIES, rounds, check=False), state)


def two_way_protocol(gamma2: complex, shifts: dict,
                     literal: bool = False) -> LoccProtocol:
    """The zero-ebit protocol: the receiver measures first, then the sender
    measures the family for the receiver's outcome ``j``, block-shifted by
    ``shifts[j]`` for ``j`` in {1, 2} and unshifted for outcome zero.
    ``literal`` zero-pads the shifted families.  Left unaudited here:
    ``simulate`` audits the instruments it reaches."""
    sender = {(j,): sender_measurement(gamma2, p, literal and j > 0)
              for j, p in {0: 0, **shifts}.items()}
    return LoccProtocol(_PARTIES, [Round("B", {(): receiver_measurement()}),
                                   Round("A", sender)], check=False)


def _reference_grams(branches) -> np.ndarray:
    """Per branch, the 3 x 3 Gram matrix G of its (3, DIM) reference-cut
    amplitudes, whose row l is the branch's image of component l: G is the
    identity over three iff the branch leaves a rank-three maximally
    entangled pair with the reference."""
    amps = np.array([b.state.amps for b in branches]).reshape(-1, 3, DIM)
    return amps @ amps.conj().transpose(0, 2, 1)


def _rank_three(grams: np.ndarray) -> bool:
    return bool(np.all(np.abs(np.linalg.eigvalsh(grams) - 1 / 3) <= _TOL))


def verify_two_way(inst: SeparationInstance, literal: bool = False) -> dict:
    """Run the four checks of the zero-ebit two-way protocol, all read from
    the exhaustive simulator.

    (i) receiver completeness and (ii) sender completeness for every
    receiver outcome are the simulator's audit; (iii) every branch leaves a
    rank-three maximally entangled pair with the reference; (iv) the branch
    probabilities sum to one.  ``discrimination``: in every branch the
    images of the three components are orthogonal.  The shift for receiver
    outcomes one and two is the first power in {3, 6} whose family passes
    (iii) on that outcome's branch.  The audit refuses the zero-padded
    literal variant, which fails (ii); its branch checks are not run, so
    they read false and ``total_probability`` is None.
    """
    checks = dict.fromkeys(("receiver_completeness", "sender_completeness",
                            "branches_maximally_entangled",
                            "total_probability"), False)
    resolved = {1: 3, 2: 3}
    report = {"checks": checks, "resolved_shift": resolved,
              "total_probability": None, "cost_ebits": 0.0,
              "discrimination": False, "pass": False}
    try:
        after_b = _run([Round("B", {(): receiver_measurement()})], inst.psi)
        checks["receiver_completeness"] = True
        for b in [] if literal else after_b[1:]:
            resolved[b.outcomes[0]] = next((p for p in (3, 6) if _rank_three(
                _reference_grams(_run([Round("A", {(): sender_measurement(
                    inst.gamma2, p)})], b.state)))), None)
        # an unresolved outcome keeps the shift 3 family
        branches = simulate(two_way_protocol(
            inst.gamma2, {j: p or 3 for j, p in resolved.items()}, literal),
            inst.psi)
    except CompletenessError:
        return report
    total = sum(b.prob for b in branches)
    grams = _reference_grams(branches)
    # component l's image M B c_l has squared norm 3 p G_ll; the images
    # that reach a branch must be pairwise orthogonal
    diag = np.einsum("bii->bi", grams).real
    seen = 3 * np.array([b.prob for b in branches])[:, None] * diag > 1e-18
    pairs = seen[:, :, None] & seen[:, None, :] & ~np.eye(3, dtype=bool)
    cos = np.abs(grams) / np.sqrt(np.maximum(
        diag[:, :, None] * diag[:, None, :], 1e-300))
    checks.update(sender_completeness=True,
                  branches_maximally_entangled=_rank_three(grams),
                  total_probability=bool(abs(total - 1.0) <= 1e-7))
    report.update({"total_probability": float(total),
                   "discrimination": not bool(np.any(cos[pairs] > _TOL)),
                   "pass": all(checks.values())})
    return report


def entropy_monotonicity_trial(psi: Ket, seed: int = 0, n_outcomes: int = 2):
    """One random receiver-instrument trial: returns the conditional entropy
    of the sender given the receiver before, and its average after the
    instrument with sender-side unitary corrections, simulated as a
    two-round protocol."""
    if psi.nsys != 3:
        raise ValueError("expected a tripartite state")
    rng = np.random.default_rng(seed)
    _, da, db = psi.dims
    gs = [rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
          for _ in range(n_outcomes)]
    norm = sum(g.conj().T @ g for g in gs)
    ev, vec = np.linalg.eigh(norm)
    inv_sqrt = (vec * (1.0 / np.sqrt(np.clip(ev, 1e-12, None)))) @ vec.conj().T
    receiver = [ProtocolOp(g @ inv_sqrt, (db,), (db,)) for g in gs]
    sender = {(j,): [ProtocolOp(random_unitary(da, rng), (da,), (da,))]
              for j in range(n_outcomes)}
    cut = Bipartition([0], [1])
    lhs = conditional_entropy(reduced_state(psi, [1, 2]), cut)
    rhs = sum(b.prob * conditional_entropy(reduced_state(b.state, [1, 2]), cut)
              for b in _run([Round("B", {(): receiver}), Round("A", sender)],
                            psi))
    return float(lhs), float(rhs)
