import json

import numpy as np
import pytest

from mergekit import states
from mergekit.cli import run
from mergekit.locc import CompletenessError, simulate
from mergekit.qcore import Ket, random_ket, reduced_state
from mergekit.twoway import (
    build_instance,
    default_instance,
    entropy_monotonicity_trial,
    generic_one_way_cost,
    sender_vectors,
    two_way_protocol,
    verify_one_way,
    verify_two_way,
)


def test_build_instance_validation():
    inst = build_instance(np.exp(1j * np.pi / 4), np.exp(1j * np.pi / 3))
    assert inst.psi.dims == (3, 11, 11)
    with pytest.raises(ValueError):
        build_instance(1.0, np.exp(1j * np.pi / 3))        # real gamma1
    with pytest.raises(ValueError):
        build_instance(np.exp(1j * np.pi / 4), 2.0j)       # not unit modulus
    g1 = np.exp(1j * np.pi / 4)
    with pytest.raises(ValueError):
        build_instance(g1, 1j * g1 * g1)                   # excluded value
    with pytest.raises(ValueError):
        build_instance(g1, -1j * g1 * g1)


def test_build_instance_rejects_non_finite_gammas():
    g = np.exp(1j * np.pi / 3)
    for bad in (complex(np.nan, np.nan), complex(0.5, np.nan),
                complex(np.inf, 0.0), complex(0.0, -np.inf)):
        with pytest.raises(ValueError, match="gamma1 must be finite"):
            build_instance(bad, g)
        with pytest.raises(ValueError, match="gamma2 must be finite"):
            build_instance(g, bad)


def test_components_orthonormal_on_constraint_manifold():
    rng = np.random.default_rng(17)
    count = 0
    while count < 50:
        t1, t2 = rng.uniform(0, 2 * np.pi, size=2)
        g1, g2 = np.exp(1j * t1), np.exp(1j * t2)
        if abs(g1.imag) < 1e-3 or abs(g2.imag) < 1e-3:
            continue
        if min(abs(g2 - 1j * g1 * g1), abs(g2 + 1j * g1 * g1)) < 1e-3:
            continue
        inst = build_instance(g1, g2)
        gram = np.array([[c1.overlap(c2) for c2 in inst.components]
                         for c1 in inst.components])
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10
        count += 1


def test_reference_marginal():
    inst = default_instance()
    rho_r = reduced_state(inst.psi, [0]).mat
    assert np.allclose(rho_r, np.eye(3) / 3, atol=1e-10)


def test_one_way_verification():
    inst = default_instance()
    rep = verify_one_way(inst)
    assert rep["pass"]
    assert rep["resource_rank"] == 2
    assert rep["returned_rank"] == 1
    assert rep["cost_ebits"] == 1.0
    assert rep["branches"] == 96
    assert rep["worst_infidelity"] < 1e-8
    assert rep["protocol_block_dims_right"] == [2, 3, 3, 3]
    assert np.allclose(sorted(rep["protocol_block_probs"]),
                       sorted([2 / 11, 3 / 11, 3 / 11, 3 / 11]), atol=1e-9)
    assert rep["computed_partition_matches_weights"]


def test_one_way_generic_cost_is_log2_3():
    inst = default_instance()
    assert abs(generic_one_way_cost(inst) - np.log2(3)) < 1e-12


def test_one_way_tampered_fails():
    inst = default_instance()
    rep = verify_one_way(inst, tamper=True)
    assert not rep["pass"]


def test_two_way_verification():
    inst = default_instance()
    rep = verify_two_way(inst)
    assert rep["pass"]
    assert all(rep["checks"].values())
    assert rep["cost_ebits"] == 0.0
    assert abs(rep["total_probability"] - 1.0) < 1e-7
    assert rep["discrimination"]
    assert set(rep["resolved_shift"].values()) == {3, 6}
    assert rep["resolved_shift"] == {1: 6, 2: 3}


def test_two_way_protocol_branches_from_simulator():
    # the protocol the two-way check certifies, run on its own: every
    # branch carries the reference-cut amplitudes of a rank-three pair
    inst = default_instance()
    branches = simulate(two_way_protocol(inst.gamma2, {1: 6, 2: 3}), inst.psi)
    assert abs(sum(b.prob for b in branches) - 1.0) < 1e-12
    for b in branches:
        amps = b.state.amps.reshape(3, 11)
        assert np.allclose(amps @ amps.conj().T, np.eye(3) / 3, atol=1e-10)
    # the other shift assignment leaves some branch short of rank three
    swapped = simulate(two_way_protocol(inst.gamma2, {1: 3, 2: 6}), inst.psi)
    grams = [b.state.amps.reshape(3, 11) @ b.state.amps.reshape(3, 11).conj().T
             for b in swapped]
    assert not all(np.allclose(g, np.eye(3) / 3, atol=1e-8) for g in grams)


def test_literal_protocol_refused_by_simulator():
    inst = default_instance()
    with pytest.raises(CompletenessError):
        simulate(two_way_protocol(inst.gamma2, {1: 3, 2: 3}, literal=True),
                 inst.psi)


def test_two_way_literal_conditioning_fails_completeness(capsys):
    inst = default_instance()
    rep = verify_two_way(inst, literal=True)
    assert not rep["checks"]["sender_completeness"]
    assert not rep["pass"]
    # the simulator refuses the incomplete family: the branch checks are
    # not run, so they read false and no total probability is reported
    assert rep["checks"]["receiver_completeness"] is True
    assert rep["checks"]["branches_maximally_entangled"] is False
    assert rep["checks"]["total_probability"] is False
    assert rep["total_probability"] is None
    assert rep["discrimination"] is False
    assert run(["twoway", "verify", "--literal"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["results"]["two_way"]["total_probability"] is None
    assert [k for k, v in out["checks"].items() if v is True] == [
        "one_way_exact_at_one_ebit", "two_way_receiver_completeness"]


def test_two_way_other_gammas():
    inst = build_instance(np.exp(0.7j), np.exp(2.1j))
    rep = verify_two_way(inst)
    assert rep["pass"]


def test_sender_base_family_complete():
    # the 24 paired vectors plus the 9 Fourier vectors resolve the identity
    vecs = sender_vectors(np.exp(1j * np.pi / 3))
    acc = sum(np.outer(v, v.conj()) for v in vecs)
    assert np.max(np.abs(acc - np.eye(11))) < 1e-10


def test_monotonicity_trials():
    # product state: both sides vanish
    prod = Ket(np.kron(np.kron([1, 0], [1, 0]), [1, 0]), (2, 2, 2))
    lhs, rhs = entropy_monotonicity_trial(prod, seed=0)
    assert abs(lhs) < 1e-8 and abs(rhs) < 1e-8
    # maximally entangled sender-receiver pair with trivial reference
    bell = Ket(np.kron([1.0], states.bell("phi+").amps), (1, 2, 2))
    lhs, rhs = entropy_monotonicity_trial(bell, seed=1, n_outcomes=1)
    assert abs(lhs + 1) < 1e-8
    assert rhs >= lhs - 1e-7
    rng = np.random.default_rng(5)
    for trial in range(50):
        psi = random_ket([2, 2, 2], rng)
        lhs, rhs = entropy_monotonicity_trial(psi, seed=trial)
        assert lhs <= rhs + 1e-7


def test_two_way_near_excluded_parameters():
    # the four checks hold right up to (but not on) the excluded manifold
    g1 = np.exp(1j * 0.9)
    excluded = 1j * g1 * g1
    g2 = excluded * np.exp(1j * 1e-4)
    inst = build_instance(g1, g2)
    rep = verify_two_way(inst)
    assert rep["pass"]
    one = verify_one_way(inst)
    assert one["worst_infidelity"] < 1e-8
