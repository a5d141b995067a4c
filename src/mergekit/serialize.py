"""File formats: states, protocols, trees, code isometries, circuits, and
schedules, all as JSON with complex numbers rendered as [re, im] pairs."""

from __future__ import annotations

import json
import math

import numpy as np

from .locc import LoccProtocol, ProtocolOp, Round, audit_protocol
from .msize import CircuitSpec, Configuration
from .netcost import IsometrySpec, RootedTree
from .qcore import Ket, StateError


def _to_pairs(a: np.ndarray) -> list:
    """Nested lists of [re, im] float pairs, one per entry of ``a``."""
    return np.stack([a.real, a.imag], -1).tolist()


def _from_pairs(p, ndim: int) -> np.ndarray:
    """Complex array with ``ndim`` axes from nested [re, im] pairs; each
    pair's floats become the entry's real and imaginary parts exactly."""
    try:
        arr = np.asarray(p)
    except ValueError as e:     # ragged nesting
        raise StateError(
            f"complex entries must be [re, im] pairs: {e}") from e
    if (arr.ndim != ndim + 1 or arr.shape[-1] != 2
            or arr.dtype.kind not in "biuf"):
        raise StateError(
            f"complex entries must be [re, im] pairs of numbers in a "
            f"{ndim}-dimensional array; got shape {arr.shape}")
    arr = np.ascontiguousarray(arr, dtype=float)
    if not np.isfinite(arr).all():
        raise StateError("complex entries must be finite [re, im] pairs")
    return arr.view(complex)[..., 0]


def ket_to_dict(ket: Ket) -> dict:
    out = {"dims": list(ket.dims), "amps": _to_pairs(ket.amps)}
    if not ket.normalized:
        out["normalized"] = False
    return out


def ket_from_dict(data: dict) -> Ket:
    dims = data["dims"]
    amps = _from_pairs(data["amps"], 1)
    normalized = data.get("normalized", True)
    if normalized and abs(np.linalg.norm(amps) - 1.0) > 1e-6:
        raise StateError(
            f"state norm {np.linalg.norm(amps)} deviates from 1; set "
            "\"normalized\": false to load anyway")
    return Ket(amps, dims, normalized=normalized)


def save_ket(ket: Ket, path: str):
    with open(path, "w") as f:
        f.write(json.dumps(ket_to_dict(ket)))


def load_ket(path: str) -> Ket:
    with open(path) as f:
        return ket_from_dict(json.load(f))


def op_to_dict(op: ProtocolOp) -> dict:
    """Sparse (format 2) operator: its ``shape``, the ascending flat indices
    ``nz`` of the entries whose bits are not those of +0.0+0.0j, and their
    [re, im] pairs ``val``.  Selecting by bit pattern keeps -0.0 entries,
    so the round trip is bit-exact."""
    mat = np.ascontiguousarray(op.mat)
    nz = np.flatnonzero(mat.view(np.uint64).reshape(-1, 2).any(1))
    return {"in_dims": list(op.in_dims), "out_dims": list(op.out_dims),
            "shape": list(mat.shape), "nz": nz.tolist(),
            "val": _to_pairs(mat.reshape(-1)[nz])}


def _flat_indices(nz, size: int) -> np.ndarray:
    """``nz`` as strictly ascending integer indices into ``size`` entries."""
    try:
        idx = np.asarray(nz)
    except ValueError as e:     # ragged nesting
        raise StateError(f"operator indices nz must be integers: {e}") from e
    if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
        raise StateError("operator indices nz must be a flat list of "
                         f"integers; got {idx.dtype} with shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise StateError(f"operator index out of range [0, {size})")
    idx = idx.astype(np.intp)   # a uint64 difference would wrap
    if (np.diff(idx) <= 0).any():
        raise StateError("operator indices nz must ascend strictly")
    return idx


def op_from_dict(d: dict, version: int = 2) -> ProtocolOp:
    """One operator of a format 1 (dense ``mat``) or format 2 (sparse)
    protocol table."""
    in_dims = tuple(int(x) for x in d["in_dims"])
    out_dims = tuple(int(x) for x in d["out_dims"])
    if version == 1:
        return ProtocolOp(_from_pairs(d["mat"], 2), in_dims, out_dims)
    shape = [math.prod(out_dims), math.prod(in_dims)]
    if d["shape"] != shape:
        raise StateError(f"operator shape {d['shape']!r} does not match "
                         f"{out_dims} x {in_dims}")
    nz = _flat_indices(d["nz"], shape[0] * shape[1])
    if not isinstance(d["val"], list) or len(d["val"]) != nz.size:
        raise StateError(f"operator has {nz.size} indices nz but val is "
                         "not a list of as many [re, im] pairs")
    mat = np.zeros(shape, dtype=complex)
    if nz.size:
        mat.reshape(-1)[nz] = _from_pairs(d["val"], 1)
    return ProtocolOp(mat, in_dims, out_dims)


def protocol_to_dict(proto: LoccProtocol) -> dict:
    rounds = []
    for r in proto.rounds:
        instruments = {}
        for key, ops in r.instruments.items():
            skey = ",".join(str(k) for k in key)
            instruments[skey] = [op_to_dict(o) for o in ops]
        rounds.append({"party": r.party, "instruments": instruments})
    return {"format": 2,
            "parties": {k: list(v) for k, v in proto.parties.items()},
            "rounds": rounds}


def protocol_from_dict(d: dict) -> LoccProtocol:
    """A protocol table of format 2, or of format 1 (no ``format`` key),
    with every instrument audited: one that no branch reaches is refused
    too."""
    version = d.get("format", 1)
    if version not in (1, 2):
        raise StateError(f"unknown protocol table format {version!r}")
    rounds = []
    for r in d["rounds"]:
        instruments = {}
        for skey, ops in r["instruments"].items():
            key = tuple(int(x) for x in skey.split(",")) if skey else ()
            instruments[key] = [op_from_dict(o, version) for o in ops]
        rounds.append(Round(r["party"], instruments))
    proto = LoccProtocol(parties={k: tuple(v)
                                  for k, v in d["parties"].items()},
                         rounds=rounds)
    audit_protocol(proto)
    return proto


def load_protocol(path: str) -> LoccProtocol:
    with open(path) as f:
        return protocol_from_dict(json.load(f))


def tree_from_dict(d: dict) -> RootedTree:
    return RootedTree(d["n"], {int(k): int(v)
                               for k, v in d["parent"].items()})


def tree_to_dict(tree: RootedTree) -> dict:
    return {"n": tree.n, "parent": {str(k): v
                                    for k, v in tree.parent.items()}}


def load_tree(path: str) -> RootedTree:
    with open(path) as f:
        return tree_from_dict(json.load(f))


def isometry_from_dict(d) -> IsometrySpec:
    if isinstance(d, list):
        return IsometrySpec([ket_from_dict(k) for k in d])
    kets = [ket_from_dict(k) for k in d["code_kets"]]
    return IsometrySpec(kets, dims=d.get("dims"))


def load_isometry(path: str) -> IsometrySpec:
    with open(path) as f:
        return isometry_from_dict(json.load(f))


def circuit_from_dict(d: dict) -> CircuitSpec:
    return CircuitSpec(d["n_qubits"], [tuple(g) for g in d["gates"]])


def load_circuit(path: str) -> CircuitSpec:
    with open(path) as f:
        return circuit_from_dict(json.load(f))


def schedule_from_dict(d: dict):
    config = Configuration({int(k): int(v)
                            for k, v in d["config"].items()})
    steps = []
    for s in d["steps"]:
        step = dict(s)
        if step["op"] == "unitary":
            step["matrix"] = _from_pairs(step["matrix"], 2)
        if step["op"] == "send":
            step["from"] = tuple(step["from"])
            step["to"] = tuple(step["to"])
        steps.append(step)
    return config, steps


def load_schedule(path: str):
    with open(path) as f:
        return schedule_from_dict(json.load(f))
