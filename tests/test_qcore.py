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
from mergekit.qcore import _sqrtm_psd

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


def _reference_hmax_value(psi, cut_a, cut_b, restarts, seed, tol=1e-6):
    """The max-entropy search as first written: the objective takes the
    square root of rho_AB and builds 1 x sigma_B with kron at every
    evaluation."""
    from scipy import optimize

    def objective(rho_ab, sigma_b, dim_a):
        big = np.kron(np.eye(dim_a), sigma_b)
        s = _sqrtm_psd(rho_ab.mat)
        inner = s @ big @ s
        ev = np.clip(np.linalg.eigvalsh((inner + inner.conj().T) / 2), 0.0,
                     None)
        val = float(np.sum(np.sqrt(ev)))
        return -np.inf if val <= 0 else 2.0 * np.log2(val)

    rho_ab = reduced_state(psi, cut_a + cut_b)
    dim_a = int(np.prod([psi.dims[k] for k in cut_a]))
    dim_b = int(np.prod([psi.dims[k] for k in cut_b]))
    merged = sorted(cut_a + cut_b)
    perm = [merged.index(k) for k in cut_a] + [merged.index(k) for k in cut_b]
    md = [psi.dims[k] for k in merged]
    t = np.transpose(rho_ab.mat.reshape(md + md),
                     perm + [len(md) + p for p in perm])
    rho_ab = DensityOp(t.reshape(dim_a * dim_b, dim_a * dim_b),
                       (dim_a, dim_b), check=False)
    rng = np.random.default_rng(seed)

    def neg_obj(x):
        g = (x[: dim_b * dim_b] + 1j * x[dim_b * dim_b:]).reshape(dim_b,
                                                                  dim_b)
        s = g.conj().T @ g
        tr = np.trace(s).real
        sigma = np.eye(dim_b) / dim_b if tr <= 1e-300 else s / tr
        return -objective(rho_ab, sigma, dim_a)

    rb = partial_trace(rho_ab, [1]).mat
    starts = [np.concatenate([np.eye(dim_b).reshape(-1),
                              np.zeros(dim_b * dim_b)]),
              np.concatenate([_sqrtm_psd(rb).real.reshape(-1),
                              _sqrtm_psd(rb).imag.reshape(-1)])]
    while len(starts) < max(2, restarts):
        starts.append(rng.normal(size=2 * dim_b * dim_b))
    best = -np.inf
    for x0 in starts[: max(2, restarts)]:
        res = optimize.minimize(neg_obj, x0, method="Nelder-Mead",
                                options={"maxiter": 4000, "xatol": tol,
                                         "fatol": tol * 1e-2})
        best = max(best, -res.fun)
    return float(best)


def test_hmax_matches_per_evaluation_reference():
    # the hoisted square root and the block-diagonal 1 x sigma_B leave every
    # objective value, hence the whole Nelder-Mead path, bit-identical
    psi = states.converse_gap_state()
    assert (hmax_conditional(psi, [1], [2], restarts=4, seed=0)["value"]
            == _reference_hmax_value(psi, [1], [2], restarts=4, seed=0))
    for trial in range(3):
        rng = np.random.default_rng(81 + trial)
        d = 2 + trial % 2
        v = random_unitary(4, rng)
        t = np.zeros((d, 4), dtype=complex)
        for l in range(d):
            t[l] = v[:, l] / np.sqrt(d)
        psi = Ket(t.reshape(-1), (d, 2, 2))
        assert (hmax_conditional(psi, [1], [2], restarts=2, seed=trial)[
            "value"] == _reference_hmax_value(psi, [1], [2], restarts=2,
                                              seed=trial))


def test_hmax_reports_restarts_at_iteration_cap(monkeypatch):
    # mixed-complement qubit state on which one of the two Nelder-Mead
    # starts stops at the 4000-iteration cap (status 2)
    from scipy import optimize

    statuses = []
    minimize = optimize.minimize

    def recording(*args, **kwargs):
        res = minimize(*args, **kwargs)
        statuses.append(res.status)
        return res

    monkeypatch.setattr(optimize, "minimize", recording)
    v = random_unitary(4, np.random.default_rng(84))
    psi = Ket((v[:, :2].T / np.sqrt(2)).reshape(-1), (2, 2, 2))
    res = hmax_conditional(psi, [1], [2], restarts=2, seed=0)
    assert statuses == [2, 0]
    assert res["restarts_at_cap"] == 1
    statuses.clear()
    res = hmax_conditional(states.bell("phi+"), [0], [1], restarts=2)
    assert res["restarts_at_cap"] == statuses.count(2) == 0
