import numpy as np
import pytest

from mergekit import states
from mergekit.kidecomp import (
    KIBlock,
    KIPartition,
    NO_REFINEMENT,
    NoRefinement,
    ki_decompose_tripartite,
    ki_partition,
    l_decompose_step,
    maximality_check,
    r_combine_step,
    steered_states,
    steering_family,
    _vector_candidates,
)
from mergekit.qcore import Ket, random_ket, random_unitary, reduced_state

RNG = np.random.default_rng(7)


def _trivial_partition(dim_a):
    grid = np.eye(dim_a, dtype=complex).reshape(dim_a, 1, dim_a)
    return KIPartition([KIBlock(grid)], dim_a)


def _prepared(psi, seed=0):
    dr, da = psi.dims[0], psi.dims[1]
    psi_ra = reduced_state(psi, [0, 1]).mat
    family = steering_family(dr, seed=seed)
    steered = steered_states(psi_ra, (dr, da), family)
    rng = np.random.default_rng(seed + 1)
    cands = {d: _vector_candidates(d, 8, rng) for d in range(1, da + 1)}
    return psi_ra, steered, cands


def test_l_step_splits_worked_example():
    psi = states.ki_worked_example()
    _, steered, cands = _prepared(psi)
    part = _trivial_partition(6)
    out = l_decompose_step(part, steered, cands)
    assert not isinstance(out, NoRefinement)
    assert out.refinement_index() > part.refinement_index()
    dims = sorted(b.dim_left for b in out.blocks)
    assert sum(b.dim_left * b.dim_right for b in out.blocks) == 6
    assert len(dims) == 2


def test_l_step_no_refinement_on_product():
    # product sender-reference state: all steered operators equal
    rho = np.kron(np.eye(2) / 2, np.diag([0.7, 0.3]))
    part = _trivial_partition(2)
    family = steering_family(2)
    steered = steered_states(rho, (2, 2), family)
    rng = np.random.default_rng(1)
    cands = {d: _vector_candidates(d, 8, rng) for d in (1, 2)}
    assert isinstance(l_decompose_step(part, steered, cands), NoRefinement)


def test_l_step_no_refinement_on_maximally_entangled():
    # fully quantum block: the final partition has a single (1, d) block, so
    # from that partition no further left split fires
    psi = states.max_entangled(3)
    psi3 = Ket(np.kron(psi.amps, [1.0]), (3, 3, 1))
    ki = ki_decompose_tripartite(psi3)
    assert ki.partition_a.block_dims == [(1, 3)]


def test_r_step_combines_coherent_blocks():
    # two Bell blocks in coherent superposition combine into one quantum block
    v = np.zeros(16, dtype=complex)
    # state (|0>_R |0>_A + |1>_R |1>_A + |2>_R |2>_A + |3>_R |3>_A)/2 with
    # A of dimension 4 seen as two 2-dim blocks
    for l in range(4):
        v[l * 4 + l] = 0.5
    psi = Ket(v, (4, 4))
    rho = np.outer(psi.amps, psi.amps.conj())
    part = KIPartition([
        KIBlock(np.eye(4, dtype=complex)[:2].reshape(2, 1, 4)),
        KIBlock(np.eye(4, dtype=complex)[2:].reshape(2, 1, 4)),
    ], 4)
    family = steering_family(4)
    steered = steered_states(rho, (4, 4), family)
    rng = np.random.default_rng(2)
    cands = {d: _vector_candidates(d, 8, rng) for d in range(1, 5)}
    out = r_combine_step(part, steered, cands)
    assert not isinstance(out, NoRefinement)
    assert out.refinement_index() > part.refinement_index()


def test_r_step_no_refinement_for_block_diagonal():
    # incoherent (classically correlated) blocks never combine
    psi = states.ghz(3, 2)
    psi_ra = reduced_state(psi, [0, 1]).mat
    part = KIPartition([
        KIBlock(np.eye(2, dtype=complex)[:1].reshape(1, 1, 2)),
        KIBlock(np.eye(2, dtype=complex)[1:].reshape(1, 1, 2)),
    ], 2)
    family = steering_family(2)
    steered = steered_states(psi_ra, (2, 2), family)
    rng = np.random.default_rng(3)
    cands = {d: _vector_candidates(d, 8, rng) for d in (1, 2)}
    assert isinstance(r_combine_step(part, steered, cands), NoRefinement)


def test_maximality_check_cases():
    # trivial partition on a GHZ sender-reference pair is not maximal
    psi = states.ghz(3, 2)
    psi_ra = reduced_state(psi, [0, 1]).mat
    assert not maximality_check(_trivial_partition(2), psi_ra, (2, 2))
    # single block on a product state is maximal
    rho = np.kron(np.eye(2) / 2, np.diag([0.7, 0.3]))
    assert maximality_check(_trivial_partition(2), rho, (2, 2))


def test_ki_worked_example_full():
    psi = states.ki_worked_example()
    ki = ki_decompose_tripartite(psi)
    assert len(ki.blocks) == 2
    dims = sorted((b.dim_left, b.dim_right) for b in ki.blocks)
    assert dims == [(2, 1), (2, 2)]
    assert np.allclose(sorted(ki.probs), [0.5, 0.5], atol=1e-9)
    assert ki.reassembly_residual() < 1e-8


def test_ki_ghz_blocks():
    for d in (2, 3):
        psi = states.ghz(3, d)
        ki = ki_decompose_tripartite(psi)
        assert len(ki.blocks) == d
        assert all(b.dim_left == 1 and b.dim_right == 1 for b in ki.blocks)
        assert np.allclose(ki.probs, [1 / d] * d, atol=1e-9)
        assert ki.reassembly_residual() < 1e-8


def test_ki_deterministic_given_seed():
    psi = states.ki_worked_example()
    a = ki_decompose_tripartite(psi, seed=5)
    b = ki_decompose_tripartite(psi, seed=5)
    assert a.block_summary() == b.block_summary()


def test_ki_candidate_order_invariance():
    psi = states.ki_worked_example()
    a = ki_decompose_tripartite(psi, seed=0)
    b = ki_decompose_tripartite(psi, seed=123)
    dims_a = sorted((x["dim_left"], x["dim_right"]) for x in a.block_summary())
    dims_b = sorted((x["dim_left"], x["dim_right"]) for x in b.block_summary())
    assert dims_a == dims_b
    assert np.allclose(sorted(a.probs), sorted(b.probs), atol=1e-8)


def test_ki_local_unitary_covariance():
    psi = states.ki_worked_example()
    rng = np.random.default_rng(11)
    ua = random_unitary(6, rng)
    ub = random_unitary(3, rng)
    rotated = np.einsum("ax,by,Rxy->Rab", ua, ub, psi.tensor(), optimize=True)
    psi2 = Ket(rotated.reshape(-1), psi.dims)
    k1 = ki_decompose_tripartite(psi)
    k2 = ki_decompose_tripartite(psi2)
    key = lambda ki: sorted(
        (b.dim_left, b.dim_right, round(b.prob, 8)) for b in ki.blocks)
    assert key(k1) == key(k2)


def test_ki_classical_blocks_commute_with_block_measurement():
    # blocks with trivial factors behave classically: projecting onto a block
    # and reassembling reproduces the block component exactly
    psi = states.ghz(3, 2)
    ki = ki_decompose_tripartite(psi)
    amp = psi.tensor()
    for blk in ki.blocks:
        flat = blk.grid_a.reshape(-1, psi.dims[1])
        proj = flat.conj().T @ flat
        comp = np.einsum("ab,Rbc->Rac", proj, amp, optimize=True)
        t = np.einsum("lx,Rry->Rlrxy", blk.omega, blk.phi, optimize=True)
        t = t.reshape(psi.dims[0], blk.dim_left * blk.dim_right,
                      blk.dim_bleft * blk.dim_bright)
        rebuilt = np.einsum("Rgy,ga,by->Rab", t, flat, blk.receiver_map,
                            optimize=True)
        assert np.linalg.norm(np.sqrt(blk.prob) * rebuilt - comp) < 1e-8


def test_ki_random_states_terminate_and_reassemble():
    for trial in range(10):
        rng = np.random.default_rng(300 + trial)
        psi = random_ket([2, 4, 3], rng)
        ki = ki_decompose_tripartite(psi)
        assert ki.reassembly_residual() < 1e-8
        # blocks always tile the full sender space
        assert sum(b.dim_left * b.dim_right
                   for b in ki.partition_a.blocks) == 4


def test_ki_refinement_index_bound():
    psi = states.ki_worked_example()
    ki = ki_decompose_tripartite(psi)
    r = ki.partition_a.refinement_index()
    da = 6
    assert 1 <= r <= da * (da + 1) // 2


def test_ki_rejects_non_tripartite():
    with pytest.raises(ValueError):
        ki_decompose_tripartite(states.bell("phi+"))


@pytest.mark.xfail(strict=True, reason=(
    "block dimensions depend on the local basis when rho_A has a kernel: "
    "ex3 gives [[2, 1], [4, 2]] or [[4, 1], [4, 2]] depending on the "
    "reference rotation; ROADMAP item 2 (deterministic block decomposition "
    "from the operator algebra) is to fix it"))
def test_ki_block_dims_invariant_under_reference_rotation_ex3():
    psi = states.negative_cost_state()
    dims = []
    for seed in (0, 3):
        ur = random_unitary(3, np.random.default_rng(seed))
        rotated = np.einsum("rx,xab->rab", ur, psi.tensor(), optimize=True)
        ki = ki_decompose_tripartite(Ket(rotated.reshape(-1), psi.dims))
        dims.append(sorted([b.dim_left, b.dim_right] for b in ki.blocks))
    assert dims[0] == dims[1]
