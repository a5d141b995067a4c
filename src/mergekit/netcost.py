"""Tree networks: per-edge entanglement costs and simulated protocols for
exact construction, spreading, and concentrating of quantum information.

Spreading walks the tree from the root, splitting off each child's share;
concentrating walks the leaves back, merging each party's share into the
remainder.  Both are simulated exhaustively branch by branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kidecomp import ki_decompose_tripartite
from .locc import InfeasibleError, _check_complete
from .mergesplit import merge_protocol, verify_split
from .qcore import (DEFAULT_TOL, Bipartition, Ket, _rank_above,
                    schmidt_rank, singular_rank)
from .states import max_entangled

BRANCH_CAP = 10 ** 5


class BranchCapError(RuntimeError):
    """Raised when exhaustive enumeration exceeds the branch cap."""


@dataclass(frozen=True)
class RootedTree:
    """Tree on parties 1..n with ascending labels: parent(k) < k."""

    n: int
    parent: dict

    def __init__(self, n, parent):
        n = int(n)
        parent = {int(k): int(v) for k, v in parent.items()}
        if n < 1:
            raise ValueError("a tree needs at least one vertex")
        if sorted(parent.keys()) != list(range(2, n + 1)):
            raise ValueError("parent map must cover vertices 2..n")
        for k, p in parent.items():
            if not 1 <= p < k:
                raise ValueError(
                    f"labeling is not ascending: parent({k}) = {p}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "parent", parent)

    def edges(self):
        return [(self.parent[k], k) for k in range(2, self.n + 1)]

    def children(self, k):
        return [c for c, p in self.parent.items() if p == k]

    def descendants_and_self(self, k):
        out = {k}
        changed = True
        while changed:
            changed = False
            for c, p in self.parent.items():
                if p in out and c not in out:
                    out.add(c)
                    changed = True
        return sorted(out)


@dataclass(frozen=True)
class IsometrySpec:
    """Logical dimension, per-party physical dimensions, and the orthonormal
    code states."""

    logical_dim: int
    dims: tuple
    code_kets: list

    def __init__(self, code_kets, dims=None):
        code_kets = list(code_kets)
        if not code_kets:
            raise ValueError("need at least one code state")
        dims = tuple(dims) if dims is not None else code_kets[0].dims
        for k in code_kets:
            if k.dims != tuple(dims):
                raise ValueError("code states live on different systems")
        gram = np.array([[a.overlap(b) for b in code_kets] for a in code_kets])
        if np.max(np.abs(gram - np.eye(len(code_kets)))) > 1e-9:
            raise ValueError("code states are not orthonormal")
        object.__setattr__(self, "logical_dim", len(code_kets))
        object.__setattr__(self, "dims", tuple(dims))
        object.__setattr__(self, "code_kets", code_kets)

    def encoded_max_entangled(self) -> Ket:
        """(1/sqrt(D)) sum_l |l>_ref |code_l>, reference first."""
        d = self.logical_dim
        amps = np.zeros((d,) + tuple(self.dims), dtype=complex)
        for l, k in enumerate(self.code_kets):
            amps[l] = k.tensor() / np.sqrt(d)
        return Ket(amps.reshape(-1), (d,) + tuple(self.dims))


@dataclass(frozen=True)
class EdgeCost:
    edge: tuple
    rank: int
    log2: float = field(default=0.0)

    def __post_init__(self):
        object.__setattr__(self, "log2", float(np.log2(self.rank)))


def spreading_costs(tree: RootedTree, iso: IsometrySpec) -> list:
    """Per edge, the rank of the encoded state reduced to the child side."""
    if len(iso.dims) != tree.n:
        raise ValueError("one subsystem per party required")
    phi = iso.encoded_max_entangled()
    out = []
    for (p, k) in tree.edges():
        side = [v for v in tree.descendants_and_self(k)]
        cut = Bipartition([0] + [v for v in range(1, tree.n + 1)
                                 if v not in side], side)
        rank = schmidt_rank(phi, cut)
        out.append(EdgeCost(edge=(p, k), rank=rank))
    return out


def construction_costs(tree: RootedTree, psi: Ket) -> list:
    """Per edge, the Schmidt rank across the edge-deletion bipartition."""
    if psi.nsys != tree.n:
        raise ValueError("one subsystem per vertex required")
    out = []
    for (p, k) in tree.edges():
        side = [v - 1 for v in tree.descendants_and_self(k)]
        rest = [v for v in range(tree.n) if v not in side]
        rank = schmidt_rank(psi, Bipartition(rest, side))
        out.append(EdgeCost(edge=(p, k), rank=rank))
    return out


def spreading_protocol(tree: RootedTree, iso: IsometrySpec, ranks=None,
                       inputs=None) -> dict:
    """Sequentially split each child's share off its parent, verifying every
    teleportation branch; returns a report with per-edge branch counts.

    ``ranks`` optionally overrides the per-edge resource ranks (must meet
    the spreading bound); ``inputs`` optionally supplies additional logical
    states to verify by linearity.
    """
    costs = {e.edge: e.rank for e in spreading_costs(tree, iso)}
    if ranks is not None:
        for edge, r in ranks.items():
            if r < costs[tuple(edge)]:
                raise InfeasibleError(
                    f"edge {edge} needs rank {costs[tuple(edge)]}, got {r}")
            costs[tuple(edge)] = r
    states_to_check = [iso.encoded_max_entangled()]
    if inputs:
        states_to_check.extend(inputs)
    total_branches = 1
    per_edge = {}
    worst = 0.0
    # process edges so that a parent splits off each child in turn; the
    # ascending labeling makes edge order by child index valid
    for (p, k) in tree.edges():
        r = costs[(p, k)]
        total_branches *= r * r
        if total_branches > BRANCH_CAP:
            raise BranchCapError(
                f"branch count {total_branches} exceeds {BRANCH_CAP}")
        side = tree.descendants_and_self(k)
        for phi in states_to_check:
            worst = max(worst, _verify_split_edge(phi, tree.n, side, r))
        per_edge[(p, k)] = r * r
    return {
        "edge_ranks": {e: costs[e] for e in costs},
        "per_edge_branches": per_edge,
        "total_branches": total_branches,
        "worst_infidelity": worst,
        "pass": bool(worst <= 1e-8),
    }


def _verify_split_edge(phi: Ket, n_parties: int, side, rank: int) -> float:
    """Exhaustively simulate one split and return the worst branch
    infidelity against the unchanged state."""
    keep = [0] + [v for v in range(1, n_parties + 1) if v not in side]
    move = list(side)
    grouped = phi.permute(keep + move)
    d_keep = int(np.prod([phi.dims[i] for i in keep]))
    d_move = int(np.prod([phi.dims[i] for i in move]))
    return verify_split(Ket(grouped.amps, (d_keep, 1, d_move)), rank)[0]


def concentrating_simulate(tree: RootedTree, iso: IsometrySpec,
                           audit_cuts: bool = False) -> dict:
    """Run the merge recursion from the last party down to the root,
    exhaustively over branches; per-edge cost is the maximum resource rank
    over reached branches.

    Only the sender-side measurements are applied during the walk; the
    matching receiver isometries are deferred to the root, so the recursion
    tracks raw post-measurement states whose shares the root can recreate.
    The final check is that every branch ends maximally entangled between
    the reference and the root's holdings at the logical rank.
    """
    if len(iso.dims) != tree.n:
        raise ValueError("one subsystem per party required")
    phi = iso.encoded_max_entangled()
    d_log = iso.logical_dim
    # branch: (amplitude tensor, prob, owners); factor 0 is the reference
    branches = [(phi.tensor(), 1.0, [0] + list(range(1, tree.n + 1)))]
    edge_rank = {e: 1 for e in tree.edges()}
    audit_ok = True
    for k in range(tree.n, 1, -1):
        edge = (tree.parent[k], k)
        parent = tree.parent[k]
        new_branches = []
        for (state, prob, own) in branches:
            r_pos = [i for i, o in enumerate(own) if o == 0]
            a_pos = [i for i, o in enumerate(own) if o == k]
            b_pos = [i for i, o in enumerate(own) if o not in (0, k)]
            d_r = int(np.prod([state.shape[i] for i in r_pos]))
            d_a = int(np.prod([state.shape[i] for i in a_pos]))
            d_b = int(np.prod([state.shape[i] for i in b_pos]))
            tri = Ket(np.transpose(state, r_pos + a_pos + b_pos).reshape(-1),
                      (d_r, d_a, d_b))
            ki = ki_decompose_tripartite(tri)
            proto = merge_protocol(tri, "non-catalytic", ki=ki,
                                   sender_only=True)
            k_res = proto.resource_rank
            edge_rank[edge] = max(edge_rank[edge], k_res)
            tens = np.einsum("Rab,xy->Raxby", tri.tensor(),
                             max_entangled(k_res).amps.reshape(k_res, k_res),
                             optimize=True)
            if audit_cuts:
                # the fresh resource pair raises the measured party's cut
                # by its rank
                before = {v: r * k_res for v, r in
                          _party_cut_ranks(state, own, tree.n).items()}
            # remaining factors: reference, group, resource half at the
            # parent; drop the trivial sender output register
            new_dims = ([state.shape[i] for i in r_pos]
                        + [state.shape[i] for i in b_pos] + [k_res])
            new_own = [0] * len(r_pos) + [own[i] for i in b_pos] + [parent]
            pruned_total = 0.0
            a_ops = proto.one_way.a_ops
            _check_complete(a_ops, what="sender measurement")
            for a_op in a_ops:
                m = a_op.mat.reshape(d_a, k_res)  # returned rank is one
                amp = np.einsum("ax,Raxby->Rby", m, tens, optimize=True)
                p = float(np.linalg.norm(amp) ** 2) * prob
                if p < 1e-12:
                    continue
                pruned_total += p
                flat = amp.reshape(d_r, d_b, k_res)
                new_state = (flat / np.linalg.norm(flat)).reshape(new_dims)
                if audit_cuts and audit_ok:
                    after = _party_cut_ranks(new_state, new_own, tree.n)
                    audit_ok = all(after[v] <= cap for v, cap in before.items()
                                   if v in after)
                new_branches.append((new_state, p, new_own))
            if abs(pruned_total - prob) > 1e-7:
                raise RuntimeError("branch probabilities failed to close")
            if len(new_branches) > BRANCH_CAP:
                raise BranchCapError(
                    f"branch count {len(new_branches)} exceeds {BRANCH_CAP}")
        branches = new_branches
    # all information now flows to the root; recover the logical pair from
    # the reference cut's spectra, one batched svd per branch shape
    by_shape = {}
    for (state, _, _) in branches:
        by_shape.setdefault(state.shape, []).append(state)
    worst = 0.0
    for shape, same in by_shape.items():
        s = np.linalg.svd(np.reshape(same, (len(same), shape[0], -1)),
                          compute_uv=False)
        rank = _rank_above(s, DEFAULT_TOL)
        dev = np.ones(len(same))
        ok = rank == d_log
        dev[ok] = np.abs(s[ok, :d_log] - 1 / np.sqrt(d_log)).max(axis=1)
        worst = max(worst, float(dev.max()))
    out = {
        "edge_costs": [EdgeCost(edge=e, rank=edge_rank[e])
                       for e in tree.edges()],
        "branches": len(branches),
        "worst_deviation": worst,
        "pass": bool(worst <= 1e-8),
    }
    if audit_cuts:
        out["rank_audit_ok"] = bool(audit_ok)
    return out


def _party_cut_ranks(state: np.ndarray, own, n_parties: int) -> dict:
    """Schmidt rank of an amplitude tensor across every cut between one
    party's factors and the rest, for parties holding some but not all."""
    ranks = {}
    for v in range(1, n_parties + 1):
        mine = [i for i, o in enumerate(own) if o == v]
        if not mine or len(mine) == state.ndim:
            continue
        rest = [i for i in range(state.ndim) if i not in mine]
        d_mine = int(np.prod([state.shape[i] for i in mine]))
        ranks[v] = singular_rank(
            np.transpose(state, mine + rest).reshape(d_mine, -1))
    return ranks


def star_tree() -> RootedTree:
    return RootedTree(3, {2: 1, 3: 1})


def star_isometry() -> IsometrySpec:
    """Two-logical-level code on three qubits whose second logical state
    carries a plus state at the root."""
    zero = np.zeros(8, dtype=complex)
    zero[0] = 1.0
    one = np.zeros(8, dtype=complex)
    one[0 * 4 + 1 * 2 + 1] = 1 / np.sqrt(2)   # |0>|1>|1>
    one[1 * 4 + 1 * 2 + 1] = 1 / np.sqrt(2)   # |1>|1>|1>
    return IsometrySpec([Ket(zero, (2, 2, 2)), Ket(one, (2, 2, 2))])


def relabeled_star_isometry() -> IsometrySpec:
    """The star code with the two leaves interchanged."""
    base = star_isometry()
    kets = [Ket(np.transpose(k.tensor(), (0, 2, 1)).reshape(-1), k.dims)
            for k in base.code_kets]
    return IsometrySpec(kets)


def line_tree(n: int) -> RootedTree:
    return RootedTree(n, {k: k - 1 for k in range(2, n + 1)})


def five_qubit_isometry() -> IsometrySpec:
    from .states import five_qubit_code_kets

    return IsometrySpec(five_qubit_code_kets())
