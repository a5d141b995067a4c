"""Built-in generators for the concrete states exercised by the test suite
and the command line."""

from __future__ import annotations

import functools

import numpy as np

from .qcore import Ket

_SQ2 = np.sqrt(2.0)


def basis_ket(d: int, l: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[l] = 1.0
    return v


def plus() -> np.ndarray:
    return np.array([1.0, 1.0], dtype=complex) / _SQ2


def pauli_x(d: int = 2) -> np.ndarray:
    """Generalized shift: |l> -> |l+1 mod d>."""
    m = np.zeros((d, d), dtype=complex)
    for l in range(d):
        m[(l + 1) % d, l] = 1.0
    return m


def pauli_z(d: int = 2) -> np.ndarray:
    """Generalized phase: |l> -> exp(2 pi i l / d) |l>."""
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


@functools.lru_cache(maxsize=None)
def max_entangled(d: int) -> Ket:
    """|Phi_d^+> on two d-dimensional subsystems, cached per ``d``; the
    returned ``Ket`` and its amplitudes are read-only."""
    v = np.zeros(d * d, dtype=complex)
    for l in range(d):
        v[l * d + l] = 1.0
    return Ket(v / np.sqrt(d), (d, d))


def bell(kind: str = "phi+") -> Ket:
    v = {
        "phi+": [1, 0, 0, 1],
        "phi-": [1, 0, 0, -1],
        "psi+": [0, 1, 1, 0],
        "psi-": [0, 1, -1, 0],
    }[kind]
    return Ket(np.array(v, dtype=complex) / _SQ2, (2, 2))


def ghz(n: int = 3, d: int = 2) -> Ket:
    v = np.zeros(d ** n, dtype=complex)
    step = (d ** n - 1) // (d - 1) if d > 1 else 0
    for l in range(d):
        v[l * step] = 1.0
    return Ket(v / np.sqrt(d), (d,) * n)


def kron_kets(*vecs) -> np.ndarray:
    out = np.array([1.0], dtype=complex)
    for v in vecs:
        out = np.kron(out, v)
    return out


def converse_gap_state() -> Ket:
    """Three-qubit state whose exact-merge converse exceeds the max-entropy
    bound: (|0> psi+ + |1> |00>)/sqrt(2) on (R, A, B)."""
    psi_plus = (kron_kets(basis_ket(2, 0), basis_ket(2, 1))
                + kron_kets(basis_ket(2, 1), basis_ket(2, 0))) / _SQ2
    v = (np.kron(basis_ket(2, 0), psi_plus)
         + np.kron(basis_ket(2, 1), kron_kets(basis_ket(2, 0), basis_ket(2, 0)))) / _SQ2
    return Ket(v, (2, 2, 2))


def asymmetric_state(interchanged: bool = False) -> Ket:
    """Three-qubit state (|0>|0>|0> + |1>|1>|+>)/sqrt(2); with
    ``interchanged`` the A and B roles are swapped."""
    if not interchanged:
        v = (kron_kets(basis_ket(2, 0), basis_ket(2, 0), basis_ket(2, 0))
             + kron_kets(basis_ket(2, 1), basis_ket(2, 1), plus())) / _SQ2
    else:
        v = (kron_kets(basis_ket(2, 0), basis_ket(2, 0), basis_ket(2, 0))
             + kron_kets(basis_ket(2, 1), plus(), basis_ket(2, 1))) / _SQ2
    return Ket(v, (2, 2, 2))


def negative_cost_state() -> Ket:
    """12 x 12 tripartite state whose exact merging distills one net ebit.

    R is a qutrit; A = A1 A2 A3 and B = B1 B2 B3 with dims 3, 2, 2 each.
    The three branches share Bell pairs on (A2,B2) and (A3,B3) that form the
    redundant part.
    """
    phi_p = bell("phi+").amps
    phi_m = bell("phi-").amps
    psi_p = bell("psi+").amps
    psi_m = bell("psi-").amps

    def interleave(a1b1, a2b2, a3b3):
        # amplitudes indexed (A1,B1),(A2,B2),(A3,B3) -> reorder to A1A2A3 B1B2B3
        t = np.outer(np.outer(a1b1, a2b2).reshape(-1), a3b3).reshape(3, 3, 2, 2, 2, 2)
        t = np.transpose(t, (0, 2, 4, 1, 3, 5))
        return t.reshape(-1)

    # branch 0: |Psi+> on (A1,B1) restricted to the qutrit's {0,1} block
    psi_p_33 = np.zeros(9, dtype=complex)
    psi_p_33[0 * 3 + 1] = 1 / _SQ2
    psi_p_33[1 * 3 + 0] = 1 / _SQ2
    b0 = interleave(psi_p_33, phi_m, phi_p)
    # branch 1: |0>|0> on (A1,B1)
    zz = np.zeros(9, dtype=complex)
    zz[0] = 1.0
    b1 = interleave(zz, phi_m, phi_p)
    # branch 2: |2>|2> on (A1,B1), |0>|0> on (A2,B2), |Psi-> on (A3,B3)
    two_two = np.zeros(9, dtype=complex)
    two_two[2 * 3 + 2] = 1.0
    zz2 = np.zeros(4, dtype=complex)
    zz2[0] = 1.0
    b2 = interleave(two_two, zz2, psi_m)

    v = np.zeros(3 * 144, dtype=complex)
    for l, b in enumerate((b0, b1, b2)):
        v[l * 144:(l + 1) * 144] = b / np.sqrt(3)
    return Ket(v, (3, 12, 12))


def qutrit_choi_state() -> Ket:
    """Three-qutrit purification of the antisymmetric Werner-Holevo Choi
    state; both the reference and receiver marginals are maximally mixed."""
    pairs = [((2, 1), (1, 2)), ((0, 2), (2, 0)), ((1, 0), (0, 1))]
    v = np.zeros(27, dtype=complex)
    for a, ((r1, b1), (r2, b2)) in enumerate(pairs):
        # index order (R, A, B)
        v[r1 * 9 + a * 3 + b1] += 1 / np.sqrt(6)
        v[r2 * 9 + a * 3 + b2] -= 1 / np.sqrt(6)
    return Ket(v, (3, 3, 3))


def ki_worked_example() -> Ket:
    """Tripartite state of dims (3, 6, 3) with a two-block decomposition:
    (|0>|0> + |1>|1>)(|0>|0> + |1>|1>)/(2 sqrt(2)) + |2>|2>|0>|2>/sqrt(2),
    indexed (R, A1 A2, B)."""
    v = np.zeros(3 * 6 * 3, dtype=complex)

    def put(r, a1, a2, b, amp):
        v[r * 18 + (a1 * 2 + a2) * 3 + b] += amp

    c = 1 / (2 * _SQ2)
    for r_a1 in (0, 1):
        for a2_b in (0, 1):
            put(r_a1, r_a1, a2_b, a2_b, c)
    put(2, 2, 0, 2, 1 / _SQ2)
    return Ket(v, (3, 6, 3))


def rab_decoupled_state(which: str, rng=None) -> Ket:
    """Product states with one subsystem decoupled, for boundary checks."""
    rng = rng or np.random.default_rng(0)
    if which == "R-AB":
        nu = bell("phi+")
        return Ket(np.kron(basis_ket(2, 0), nu.amps), (2, 2, 2))
    if which == "B-RA":
        nu = bell("phi+")
        t = np.kron(nu.amps, basis_ket(2, 0)).reshape(2, 2, 2)
        return Ket(t.reshape(-1), (2, 2, 2))
    if which == "A-RB":
        nu = bell("phi+")
        t = np.kron(nu.amps, basis_ket(2, 0)).reshape(2, 2, 2)
        t = np.transpose(t, (0, 2, 1))
        return Ket(t.reshape(-1), (2, 2, 2))
    raise ValueError(f"unknown decoupled layout {which}")


FIVE_QUBIT_CODE_TERMS = {
    0: [("00000", 1), ("11000", 1), ("01100", 1), ("00110", 1),
        ("00011", 1), ("10001", 1), ("10100", -1), ("01010", -1),
        ("00101", -1), ("10010", -1), ("01001", -1), ("11110", -1),
        ("01111", -1), ("10111", -1), ("11011", -1), ("11101", -1)],
    1: [("11111", 1), ("00111", 1), ("10011", 1), ("11001", 1),
        ("11100", 1), ("01110", 1), ("01011", -1), ("10101", -1),
        ("11010", -1), ("01101", -1), ("10110", -1), ("00001", -1),
        ("10000", -1), ("01000", -1), ("00100", -1), ("00010", -1)],
}


def five_qubit_code_kets() -> list:
    """The two logical code states of the five-qubit code."""
    out = []
    for l in (0, 1):
        v = np.zeros(32, dtype=complex)
        for bits, sign in FIVE_QUBIT_CODE_TERMS[l]:
            v[int(bits, 2)] = sign / 4.0
        out.append(Ket(v, (2,) * 5))
    return out


def generate_example(name: str) -> Ket:
    """Build a named example state; unknown names raise ``ValueError``.

    Supported: ``ghz[:n[:d]]``, ``ex2``, ``ex3``, ``ex4``, ``ex4-swapped``,
    ``qutrit-choi``, ``ki-example``, ``chapter4``, ``fivequbit:0|1``,
    ``bell:phi+|phi-|psi+|psi-``, ``maxent:d``.
    """
    parts = name.split(":")
    head = parts[0]
    if head == "ghz":
        n = int(parts[1]) if len(parts) > 1 else 3
        d = int(parts[2]) if len(parts) > 2 else 2
        return ghz(n, d)
    if head == "ex2":
        return converse_gap_state()
    if head == "ex3":
        return negative_cost_state()
    if head == "ex4":
        return asymmetric_state(False)
    if head == "ex4-swapped":
        return asymmetric_state(True)
    if head == "qutrit-choi":
        return qutrit_choi_state()
    if head == "ki-example":
        return ki_worked_example()
    if head == "chapter4":
        from .twoway import default_instance
        return default_instance().psi
    if head == "fivequbit":
        l = int(parts[1]) if len(parts) > 1 else 0
        return five_qubit_code_kets()[l]
    if head == "bell":
        return bell(parts[1] if len(parts) > 1 else "phi+")
    if head == "maxent":
        return max_entangled(int(parts[1]) if len(parts) > 1 else 2)
    raise ValueError(f"unknown example state {name!r}")
