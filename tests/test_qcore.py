import numpy as np
import pytest

from mergekit import states
from mergekit.qcore import (
    Bipartition,
    DensityOp,
    Ket,
    StateError,
    conditional_entropy,
    fidelity,
    hmax_conditional,
    partial_trace,
    purified_distance,
    purify,
    random_density,
    random_ket,
    random_unitary,
    reduced_state,
    schmidt_decompose,
    schmidt_rank,
    schmidt_reconstruct,
    trace_distance,
    von_neumann_entropy,
)
from mergekit.qcore import HMAX_STEP_CAP, _sqrtm_psd

RNG = np.random.default_rng(20240811)


def test_ket_invariants():
    with pytest.raises(ValueError):
        Ket([1, 0, 0], (2, 2))
    with pytest.raises(StateError):
        Ket([1, 1], (2,))
    k = Ket([1, 1], (2,), normalized=False)
    assert k.dims == (2,)


def test_partial_trace_maximally_entangled():
    rho = states.max_entangled(2).density()
    red = partial_trace(rho, [0])
    assert np.allclose(red.mat, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product_factorization():
    r1 = random_density([2], RNG)
    r2 = random_density([3], RNG)
    r3 = random_density([2], RNG)
    big = DensityOp(np.kron(np.kron(r1.mat, r2.mat), r3.mat), (2, 3, 2), check=False)
    red = partial_trace(big, [0])
    assert np.allclose(red.mat, r1.mat, atol=1e-12)


def test_partial_trace_ki_example_spectrum():
    # Oracle: direct 6x6 diagonalization of the reduced state on A.
    psi = states.ki_worked_example()
    rho_a = reduced_state(psi, [1])
    ev = np.sort(np.linalg.eigvalsh(rho_a.mat))[::-1]
    expected = np.array([0.5, 0.125, 0.125, 0.125, 0.125, 0.0])
    assert np.allclose(ev, expected, atol=1e-10)


def test_partial_trace_rejects_bad_keep():
    rho = states.max_entangled(2).density()
    with pytest.raises(ValueError):
        partial_trace(rho, [])
    with pytest.raises(ValueError):
        partial_trace(rho, [5])


def test_partial_trace_preserves_trace_and_positivity():
    for _ in range(1000):
        rho = random_density([2, 3, 2], RNG)
        red = partial_trace(rho, [0, 2])
        assert abs(np.trace(red.mat) - 1) < 1e-10
        assert np.linalg.eigvalsh(red.mat).min() > -1e-10


def test_schmidt_bell():
    form = schmidt_decompose(states.bell("phi+"), Bipartition([0], [1]))
    assert form.rank == 2
    assert np.allclose(form.coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_schmidt_product_rank_one():
    k = Ket(np.kron([1, 0], [1, 1] / np.sqrt(2)), (2, 2))
    assert schmidt_decompose(k, Bipartition([0], [1])).rank == 1


def test_schmidt_ghz_cut():
    form = schmidt_decompose(states.ghz(3, 2), Bipartition([0], [1, 2]))
    assert form.rank == 2
    assert np.allclose(form.coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)


def _planted_ket(coeffs, dl, dr, rng):
    """Ket on (dl, dr) with the given Schmidt coefficients in random bases."""
    c = np.asarray(coeffs, dtype=float)
    c = c / np.linalg.norm(c)
    u = random_unitary(dl, rng)[:, :len(c)]
    v = random_unitary(dr, rng)[:, :len(c)]
    return Ket(((u * c) @ v.T).reshape(-1), (dl, dr))


def test_schmidt_rank_matches_decomposition():
    rng = np.random.default_rng(4242)
    cases = [
        (Ket(np.kron([1, 0], [1, 1] / np.sqrt(2)), (2, 2)),
         Bipartition([0], [1]), 1),
        (states.bell("phi+"), Bipartition([0], [1]), 2),
        (states.ghz(3, 2), Bipartition([0], [1, 2]), 2),
        (states.ghz(3, 3), Bipartition([1], [0, 2]), 3),
    ]
    for rank, dl, dr in [(1, 3, 4), (2, 4, 4), (3, 3, 5), (4, 4, 6)]:
        cases.append((_planted_ket(rng.uniform(0.2, 1.0, rank), dl, dr, rng),
                      Bipartition([0], [1]), rank))
    # coefficients 3x above and 3x below the relative threshold 1e-9, and
    # one that only a threshold relative to the largest coefficient counts
    cases.append((_planted_ket([1.0, 0.5, 3e-9, 3e-10], 4, 5, rng),
                  Bipartition([0], [1]), 3))
    cases.append((_planted_ket([1.0, 1.0, 1.0, 1.0, 1.5e-9], 5, 6, rng),
                  Bipartition([0], [1]), 5))
    cases.append((_planted_ket([1.0, 1e-10], 3, 3, rng),
                  Bipartition([1], [0]), 1))
    for psi, cut, rank in cases:
        assert schmidt_rank(psi, cut) == rank
        assert schmidt_decompose(psi, cut).rank == rank
    with pytest.raises(ValueError):
        schmidt_rank(states.bell("phi+"), Bipartition([0], [1]), tol=1.0)
    with pytest.raises(StateError):
        schmidt_rank(Ket([1, 0, 0, 1], (2, 2), normalized=False),
                     Bipartition([0], [1]))
    with pytest.raises(ValueError):
        schmidt_rank(states.ghz(3, 2), Bipartition([0], [1]))


def test_schmidt_reconstruction_roundtrip():
    for _ in range(20):
        psi = random_ket([2, 3, 2], RNG)
        cut = Bipartition([1], [0, 2])
        form = schmidt_decompose(psi, cut)
        back = schmidt_reconstruct(form, cut, psi.dims)
        assert np.linalg.norm(back.amps - psi.amps) < 1e-8


def test_schmidt_matches_reduced_spectrum():
    psi = random_ket([3, 4], RNG)
    form = schmidt_decompose(psi, Bipartition([0], [1]))
    ev = np.sort(np.linalg.eigvalsh(reduced_state(psi, [0]).mat))[::-1]
    assert np.allclose(form.coeffs ** 2, ev[: form.rank], atol=1e-10)


def test_purify_maximally_mixed():
    rho = DensityOp(np.eye(2) / 2, (2,))
    out = purify(rho)
    assert out.dims == (2, 2)
    form = schmidt_decompose(out, Bipartition([0], [1]))
    assert np.allclose(form.coeffs, [1 / np.sqrt(2)] * 2, atol=1e-10)


def test_purify_pure_state_trivial_aux():
    rho = DensityOp(np.diag([1.0, 0.0]), (2,))
    out = purify(rho)
    assert out.dims == (2, 1)
    assert abs(out.amps[0]) > 1 - 1e-10


def test_purify_qutrit_choi_marginals():
    # The purified Choi state must have maximally mixed reference and
    # receiver marginals; compare against the explicit construction.
    psi = states.qutrit_choi_state()
    rho_rb = reduced_state(psi, [0, 2])
    out = purify(rho_rb)
    assert np.allclose(reduced_state(out, [0]).mat, np.eye(3) / 3, atol=1e-9)
    back = partial_trace(out.density(), [0, 1])
    assert np.allclose(back.mat, rho_rb.mat, atol=1e-8)
    assert np.allclose(reduced_state(psi, [0]).mat, np.eye(3) / 3, atol=1e-10)
    assert np.allclose(reduced_state(psi, [2]).mat, np.eye(3) / 3, atol=1e-10)


def test_fidelity_and_distances():
    rho = random_density([2, 2], RNG)
    assert abs(fidelity(rho, rho) - 1) < 1e-9
    assert purified_distance(rho, rho) < 1e-6
    zero = Ket([1, 0], (2,)).density()
    one = Ket([0, 1], (2,)).density()
    assert fidelity(zero, one) < 1e-9
    assert abs(trace_distance(zero, one) - 2) < 1e-12
    plus = Ket(states.plus(), (2,)).density()
    # closed-form overlap |<0|+>| = 1/sqrt(2)
    assert abs(fidelity(zero, plus) - 1 / np.sqrt(2)) < 1e-9
    assert abs(purified_distance(zero, plus) - 1 / np.sqrt(2)) < 1e-9


def test_fidelity_of_pure_state_is_exact():
    # sqrt(rho) of a pure state must not pick up the ~1e-8 square roots of
    # its rounding-level eigenvalues
    rng = np.random.default_rng(5)
    for _ in range(200):
        psi = random_ket([2, 2], rng)
        sigma = random_density([2, 2], rng)
        exact = np.sqrt(np.vdot(psi.amps, sigma.mat @ psi.amps).real)
        assert abs(fidelity(psi.density(), sigma) - exact) < 1e-12
        assert abs(fidelity(sigma, psi.density()) - exact) < 1e-12


def test_fuchs_van_de_graaf():
    for _ in range(30):
        rho = random_density([2, 2], RNG)
        sig = random_density([2, 2], RNG)
        f = fidelity(rho, sig)
        td = trace_distance(rho, sig)
        assert 1 - td / 2 <= f + 1e-8
        assert f <= np.sqrt(max(0.0, 1 - (td / 2) ** 2)) + 1e-8


def test_purified_distance_triangle_and_monotone():
    for _ in range(20):
        a = random_density([2, 2], RNG)
        b = random_density([2, 2], RNG)
        c = random_density([2, 2], RNG)
        assert purified_distance(a, b) <= (
            purified_distance(a, c) + purified_distance(c, b) + 1e-8
        )
        assert purified_distance(
            partial_trace(a, [0]), partial_trace(b, [0])
        ) <= purified_distance(a, b) + 1e-8


def test_entropy_values():
    assert abs(von_neumann_entropy(DensityOp(np.eye(2) / 2, (2,))) - 1) < 1e-12
    bell = states.bell("phi+").density()
    assert abs(conditional_entropy(bell, Bipartition([0], [1])) + 1) < 1e-10


def test_entropy_isometry_invariance():
    rho = random_density([3], RNG)
    u = random_unitary(3, RNG)
    iso = np.zeros((5, 3), dtype=complex)
    iso[:3, :] = u
    out = DensityOp(iso @ rho.mat @ iso.conj().T, (5,), check=False)
    assert abs(von_neumann_entropy(rho) - von_neumann_entropy(out)) < 1e-8


def test_conditional_entropy_ghz_marginal():
    # Oracle: H(AB) = 1 and H(B) = 1 by direct diagonalization.
    psi = states.ghz(3, 2)
    rho_ab = reduced_state(psi, [1, 2])
    assert abs(von_neumann_entropy(rho_ab) - 1) < 1e-10
    assert abs(conditional_entropy(rho_ab, Bipartition([0], [1]))) < 1e-10


def test_hmax_product_state():
    k = Ket(np.kron([1, 0], states.plus()), (2, 2))
    res = hmax_conditional(k, [0], [1], restarts=8)
    assert abs(res["value"]) < 1e-4


def test_hmax_bell():
    # Derived: the objective is constant at -1 over all conditioning states.
    res = hmax_conditional(states.bell("phi+"), [0], [1], restarts=4)
    assert abs(res["value"] + 1) < 1e-6


def test_hmax_monotone_in_restarts_and_bounded():
    psi = states.converse_gap_state()
    lo = hmax_conditional(psi, [1], [2], restarts=2, seed=3)["value"]
    hi = hmax_conditional(psi, [1], [2], restarts=12, seed=3)["value"]
    assert hi >= lo - 1e-9
    res = hmax_conditional(psi, [1], [2], restarts=12, seed=3)
    assert "upper_bound" in res
    assert res["value"] <= res["upper_bound"] + 1e-6
    assert abs(res["upper_bound"] - np.log2(1.5)) < 1e-9


def test_hmax_rejects_unnormalized_input():
    bad = Ket([1, 0, 0, 1], (2, 2), normalized=False)
    with pytest.raises(StateError):
        hmax_conditional(bad, [0], [1], restarts=1)


def test_hmax_bounded_by_closed_form_on_random_states():
    # random states with maximally mixed complement: the heuristic ascent
    # stays below the closed-form bound
    for trial in range(6):
        rng = np.random.default_rng(31 + trial)
        d = int(rng.integers(2, 4))
        v = random_unitary(4, rng)
        t = np.zeros((d, 4), dtype=complex)
        for l in range(d):
            t[l] = v[:, l] / np.sqrt(d)
        psi = Ket(t.reshape(-1), (d, 2, 2))
        res = hmax_conditional(psi, [1], [2], restarts=6, seed=trial)
        assert "upper_bound" in res
        assert res["value"] <= res["upper_bound"] + 1e-6


def _general_states():
    """Six general random pure states on (R, A, B) with dims 2-3, where the
    optimal sigma_B is near-singular and the fixed point stalls."""
    rng = np.random.default_rng(85)
    out = []
    for _ in range(6):
        dims = tuple(int(d) for d in rng.integers(2, 4, size=3))
        out.append(random_ket(dims, rng))
    return out


def _mixed_complement_state(rng, d):
    v = random_unitary(4, rng)
    t = np.zeros((d, 4), dtype=complex)
    for l in range(d):
        t[l] = v[:, l] / np.sqrt(d)
    return Ket(t.reshape(-1), (d, 2, 2))


def _closed_form_trial_state(trial):
    """State ``trial`` of test_hmax_bounded_by_closed_form_on_random_states."""
    rng = np.random.default_rng(31 + trial)
    return _mixed_complement_state(rng, int(rng.integers(2, 4)))


def _rng84_state():
    v = random_unitary(4, np.random.default_rng(84))
    return Ket((v[:, :2].T / np.sqrt(2)).reshape(-1), (2, 2, 2))


def _reference_hmax_value(psi, cut_a, cut_b, restarts, seed, tol=1e-6):
    """The Nelder-Mead fallback written per evaluation: the factor W of
    rho_AB from schmidt_decompose, 1 x g built with kron at every
    evaluation, and the objective 2 log2 ||(1 x g) W||_1 - log2 Tr(g+ g)
    from singular values."""
    from scipy import optimize

    rest = [k for k in range(psi.nsys) if k not in cut_a + cut_b]
    dim_a = int(np.prod([psi.dims[k] for k in cut_a]))
    dim_b = int(np.prod([psi.dims[k] for k in cut_b]))
    form = schmidt_decompose(psi, Bipartition(rest, cut_a + cut_b))
    w = np.stack([c * k.amps for c, k in zip(form.coeffs, form.right_basis)],
                 axis=1)
    n = dim_b * dim_b

    def neg_obj(x):
        g = (x[:n] + 1j * x[n:]).reshape(dim_b, dim_b)
        norm2 = np.vdot(g, g).real
        if norm2 <= 1e-300:
            g, norm2 = np.eye(dim_b), dim_b
        s = np.linalg.svd(np.kron(np.eye(dim_a), g) @ w, compute_uv=False)
        return np.log2(norm2) - 2.0 * np.log2(np.sum(s))

    root_b = _sqrtm_psd(reduced_state(psi, cut_b).mat)
    rng = np.random.default_rng(seed)
    starts = [np.concatenate([np.eye(dim_b).reshape(-1), np.zeros(n)]),
              np.concatenate([root_b.real.reshape(-1),
                              root_b.imag.reshape(-1)])]
    while len(starts) < max(2, restarts):
        starts.append(rng.normal(size=2 * n))
    best = -np.inf
    for x0 in starts:
        res = optimize.minimize(neg_obj, x0, method="Nelder-Mead",
                                options={"maxiter": 4000, "xatol": tol,
                                         "fatol": tol * 1e-2})
        best = max(best, -res.fun)
    return float(best)


def test_hmax_matches_per_evaluation_reference():
    # on this general state the fixed point stalls and the Nelder-Mead
    # fallback sets the value; the einsum-free product and the kron product
    # differ in the last bits only, so the two searches agree to 1e-10
    psi = _general_states()[4]
    res = hmax_conditional(psi, [1], [2], restarts=2, seed=0)
    assert res["steps"] == HMAX_STEP_CAP
    ref = _reference_hmax_value(psi, [1], [2], restarts=2, seed=0)
    assert abs(res["value"] - ref) < 1e-10


def test_hmax_reports_restarts_at_iteration_cap(monkeypatch):
    # general state on which the fallback runs and the first of its two
    # Nelder-Mead starts stops at the 4000-iteration cap (status 2)
    from scipy import optimize

    statuses = []
    minimize = optimize.minimize

    def recording(*args, **kwargs):
        res = minimize(*args, **kwargs)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(optimize, "minimize", recording)
    res = hmax_conditional(_general_states()[0], [1], [2], restarts=2, seed=0)
    assert statuses == [2, 0]
    assert res["restarts_at_cap"] == 1
    statuses.clear()
    res = hmax_conditional(states.bell("phi+"), [0], [1], restarts=2)
    assert res["restarts_at_cap"] == statuses.count(2) == 0


def test_hmax_fallback_keeps_the_interval_on_general_states():
    for psi in _general_states():
        res = hmax_conditional(psi, [1], [2], restarts=2, seed=0)
        assert res["steps"] == HMAX_STEP_CAP
        assert res["lower"] <= res["value"] <= res["upper"]
        assert res["value"] == res["lower"]


def _clipped_objective(rho_ab, sigma_b, dim_a):
    # the objective the Nelder-Mead search used to evaluate: eigenvalues of
    # sqrt(rho) (1 x sigma) sqrt(rho) clipped at zero and square-rooted, so
    # a rounding eigenvalue of 4e-17 adds 6e-9 to the trace
    s = _sqrtm_psd(rho_ab)
    inner = s @ np.kron(np.eye(dim_a), sigma_b) @ s
    ev = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0, None)
    return 2.0 * np.log2(np.sum(np.sqrt(ev)))


# (sigma_00, sigma_01, sigma_11) at which the Nelder-Mead search returned
# its value, recorded from that search: the converse-gap state at 4
# restarts (as in the benchmark), the default_rng(84) state at 2, and
# trials 3-5 of test_hmax_bounded_by_closed_form_on_random_states at 6
_NELDER_MEAD_SIGMAS = [
    (states.converse_gap_state,
     (0.9999999987612002, -2.0531953252720852e-05 + 2.255313292419365e-05j,
      1.2387998368627918e-09)),
    (_rng84_state,
     (0.6818510112029136, -0.24378452918935944 - 0.3968618297183526j,
      0.31814898879708636)),
    (lambda: _closed_form_trial_state(3),
     (0.8639596955592045, 0.3163790920356897 - 0.13205153672380585j,
      0.13604030444079554)),
    (lambda: _closed_form_trial_state(4),
     (0.6193382360421018, -0.48522630115308224 - 0.01771500079317802j,
      0.38066176395789814)),
    (lambda: _closed_form_trial_state(5),
     (0.5454696546898564, 0.3872914270893928 - 0.3129502528229757j,
      0.45453034531014364)),
]


def test_hmax_value_is_certified_where_the_clipped_objective_was_not():
    # the clipped objective at the sigma found by the old search lies above
    # the rigorous upper bound, so its "certified" value was no lower bound;
    # the interval reached without the fallback contains the value and
    # stays within the gap target of that old value
    for make, (s00, s01, s11) in _NELDER_MEAD_SIGMAS:
        psi = make()
        res = hmax_conditional(psi, [1], [2], restarts=2, seed=0)
        assert res["restarts_at_cap"] == 0 and res["steps"] < HMAX_STEP_CAP
        assert res["gap"] <= 1e-6
        assert res["lower"] <= res["value"] <= res["upper"] + 1e-12
        sigma = np.array([[s00, s01], [np.conj(s01), s11]])
        old = _clipped_objective(reduced_state(psi, [1, 2]).mat, sigma, 2)
        assert old > res["upper"]
        assert res["lower"] >= old - 1e-6


def test_hmax_interval_invariant_under_local_unitaries():
    psis = [states.converse_gap_state()]
    psis += [_mixed_complement_state(np.random.default_rng([6550, 4, k]), 3)
             for k in (1, 2)]
    psis += [_closed_form_trial_state(trial) for trial in range(6)]
    rng = np.random.default_rng(86)
    for psi in psis:
        res = hmax_conditional(psi, [1], [2])
        assert res["steps"] < HMAX_STEP_CAP and res["gap"] <= 1e-6
        assert res["value"] <= res["upper_bound"] + 1e-9
        u = np.kron(np.kron(random_unitary(psi.dims[0], rng),
                            random_unitary(2, rng)), random_unitary(2, rng))
        moved = hmax_conditional(Ket(u @ psi.amps, psi.dims), [1], [2])
        assert abs(moved["lower"] - res["lower"]) <= 1e-9
        assert abs(moved["upper"] - res["upper"]) <= 1e-9


@pytest.mark.parametrize("psi, cut_a, cut_b, expected", [
    (states.bell("phi+"), [0], [1], -1.0),
    (Ket(np.kron([1, 0], states.plus()), (2, 2)), [0], [1], 0.0),
    # no rest system: W is psi itself, a single column, and the optimal
    # sigma_B is the rank-one projector onto a GHZ branch
    (states.ghz(3, 2), [0], [1, 2], -1.0),
], ids=["bell", "zero-plus", "ghz-no-rest"])
def test_hmax_degenerate_cases_close_at_once(psi, cut_a, cut_b, expected):
    # mixing HMAX_MIX into a rank-one optimum costs about 0.72 * 1e-12
    res = hmax_conditional(psi, cut_a, cut_b)
    assert res["steps"] <= 2
    assert abs(res["gap"]) <= 1e-12
    assert abs(res["value"] - expected) <= 1e-12


def test_ket_kron_is_numpy_kron_bit_for_bit():
    rng = np.random.default_rng(2315)
    a, b = random_ket((2, 3), rng), random_ket((4,), rng)
    k = a.kron(b)
    assert k.dims == (2, 3, 4)
    assert k.amps.tobytes() == Ket(np.kron(a.amps, b.amps),
                                   (2, 3, 4)).amps.tobytes()


def test_array_holding_dataclasses_compare_by_identity():
    # equality of two distinct instances used to compare their arrays and
    # raise; now it answers with a bool, identity, and instances hash
    from mergekit import kidecomp, locc, msize

    def build():
        psi = states.generate_example("ki-example")
        ki = kidecomp.ki_decompose_tripartite(psi)
        return ki, [
            Ket([1, 0, 0, 0], (2, 2)),
            DensityOp(np.eye(2) / 2, (2,)),
            schmidt_decompose(psi, Bipartition([0], [1, 2])),
            locc.ProtocolOp(np.eye(2), (2,), (2,)),
            ki.partition_a.blocks[0],
            ki.blocks[0],
            msize.GraphState(np.zeros((2, 2), dtype=bool),
                             ("target", "target")),
        ]

    (ki, objs), (ki_twin, twins) = build(), build()
    assert len(objs) == 7
    for a, b in zip(objs, twins):
        assert type(a) is type(b)
        assert (a == a) is True and (a == b) is False and (a != b) is True
        assert hash(a) == hash(a) and len({a, b, a}) == 2
    # containers compare field by field without raising
    assert (ki == ki) is True and (ki == ki_twin) is False
    ket = objs[0]
    assert locc.SimBranch((0,), 1.0, ket) == locc.SimBranch((0,), 1.0, ket)
    assert locc.SimBranch((0,), 1.0, ket) != locc.SimBranch((0,), 1.0,
                                                            twins[0])
