"""File formats: states, protocols, trees, code isometries, circuits, and
schedules, all as JSON with complex numbers rendered as [re, im] pairs."""

from __future__ import annotations

import json

import numpy as np

from .locc import LoccProtocol, ProtocolOp, Round
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
    return {"in_dims": list(op.in_dims), "out_dims": list(op.out_dims),
            "mat": _to_pairs(op.mat)}


def op_from_dict(d: dict) -> ProtocolOp:
    mat = _from_pairs(d["mat"], 2)
    return ProtocolOp(mat, d["in_dims"], d["out_dims"])


def protocol_to_dict(proto: LoccProtocol) -> dict:
    rounds = []
    for r in proto.rounds:
        instruments = {}
        for key, ops in r.instruments.items():
            skey = ",".join(str(k) for k in key)
            instruments[skey] = [op_to_dict(o) for o in ops]
        rounds.append({"party": r.party, "instruments": instruments})
    return {"parties": {k: list(v) for k, v in proto.parties.items()},
            "rounds": rounds}


def protocol_from_dict(d: dict) -> LoccProtocol:
    rounds = []
    for r in d["rounds"]:
        instruments = {}
        for skey, ops in r["instruments"].items():
            key = tuple(int(x) for x in skey.split(",")) if skey else ()
            instruments[key] = [op_from_dict(o) for o in ops]
        rounds.append(Round(r["party"], instruments))
    return LoccProtocol(parties={k: tuple(v)
                                 for k, v in d["parties"].items()},
                        rounds=rounds)


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
