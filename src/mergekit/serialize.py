"""File formats: states, protocols, trees, code isometries, circuits, and
schedules, all as JSON with complex numbers rendered as [re, im] pairs."""

from __future__ import annotations

import json
import math
import re
from typing import TYPE_CHECKING

import numpy as np

from .qcore import Ket, StateError

if TYPE_CHECKING:
    from .locc import LoccProtocol, ProtocolOp
    from .msize import CircuitSpec
    from .netcost import IsometrySpec, RootedTree


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
    dims = _ints(data["dims"], "dims")
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
    protocol table; ``nz``, ``val`` and ``mat`` may be JSON lists or the
    arrays ``load_protocol`` reads them into."""
    from .locc import ProtocolOp

    in_dims = tuple(_ints(d["in_dims"], "an operator's in_dims"))
    out_dims = tuple(_ints(d["out_dims"], "an operator's out_dims"))
    if version == 1:
        return ProtocolOp(_from_pairs(d["mat"], 2), in_dims, out_dims)
    shape = [math.prod(out_dims), math.prod(in_dims)]
    if d["shape"] != shape:
        raise StateError(f"operator shape {d['shape']!r} does not match "
                         f"{out_dims} x {in_dims}")
    nz = _flat_indices(d["nz"], shape[0] * shape[1])
    if (not isinstance(d["val"], (list, np.ndarray))
            or len(d["val"]) != nz.size):
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


def save_protocol(proto: LoccProtocol, path: str):
    """Write ``json.dumps(protocol_to_dict(proto))`` to ``path``, byte for
    byte, one operator at a time, so that no JSON tree of the whole table
    is held."""
    parties = {k: list(v) for k, v in proto.parties.items()}
    with open(path, "w") as f:
        f.write(f'{{"format": 2, "parties": {json.dumps(parties)}, '
                '"rounds": [')
        for i, r in enumerate(proto.rounds):
            f.write(f'{", " if i else ""}{{"party": {json.dumps(r.party)}, '
                    '"instruments": {')
            for j, (key, ops) in enumerate(r.instruments.items()):
                skey = ",".join(str(k) for k in key)
                f.write(f'{", " if j else ""}{json.dumps(skey)}: [')
                for m, op in enumerate(ops):
                    f.write(f'{", " if m else ""}{json.dumps(op_to_dict(op))}')
                f.write("]")
            f.write("}}")
        f.write("]}")


def protocol_from_dict(d: dict) -> LoccProtocol:
    """A protocol table of format 2, or of format 1 (no ``format`` key),
    with every instrument audited: one that no branch reaches is refused
    too."""
    from .locc import LoccProtocol, Round, audit_protocol

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


def _compact_operator(d: dict) -> dict:
    """``json.load`` object hook of ``load_protocol``: an operator's ``nz``
    and ``val`` (format 2) or ``mat`` (format 1) list becomes the array
    that ``op_from_dict`` would make of it, so that the table's numbers are
    not all held as Python objects.  Anything that is not a numeric array
    stays a list, for ``op_from_dict`` to refuse with its own message."""
    if "in_dims" not in d:
        return d
    for key in ("nz", "val", "mat"):
        if isinstance(d.get(key), list):
            try:
                arr = np.asarray(d[key])
            except (ValueError, TypeError, OverflowError):
                continue
            if arr.dtype.kind in "biuf":
                d[key] = arr
    return d


def load_protocol(path: str) -> LoccProtocol:
    """``protocol_from_dict`` of the table at ``path``, each operator's
    entries read into an array as the file is parsed, not into a JSON
    tree of the whole table."""
    with open(path) as f:
        return protocol_from_dict(json.load(f, object_hook=_compact_operator))


def _object(d, what: str) -> dict:
    if not isinstance(d, dict):
        raise StateError(f"{what} must be a JSON object, got {d!r}")
    return d


def _int(x, what: str) -> int:
    """An integer field: a JSON integer, or an object key that spells one.
    A fraction, a boolean or any other value raises ``StateError``."""
    if isinstance(x, str) and re.fullmatch(r"-?[0-9]+", x):
        return int(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise StateError(f"{what} must be an integer, got {x!r}")


def _list(xs, what: str, length: int = None) -> list:
    """A JSON list, of the given length if one is given."""
    if not isinstance(xs, list) or length not in (None, len(xs)):
        raise StateError(f"{what} must be a list"
                         f"{'' if length is None else f' of {length}'}, "
                         f"got {xs!r}")
    return xs


def _ints(xs, what: str, length: int = None) -> list:
    return [_int(x, f"an entry of {what}")
            for x in _list(xs, what, length)]


def tree_from_dict(d: dict) -> RootedTree:
    from .netcost import RootedTree

    d = _object(d, "a tree")
    return RootedTree(_int(d["n"], "tree size n"), {
        _int(k, "a tree vertex"): _int(v, f"the parent of vertex {k}")
        for k, v in _object(d["parent"], "the parent map").items()})


def tree_to_dict(tree: RootedTree) -> dict:
    return {"n": tree.n, "parent": {str(k): v
                                    for k, v in tree.parent.items()}}


def load_tree(path: str) -> RootedTree:
    with open(path) as f:
        return tree_from_dict(json.load(f))


def isometry_from_dict(d) -> IsometrySpec:
    from .netcost import IsometrySpec

    if isinstance(d, list):
        return IsometrySpec([ket_from_dict(k) for k in d])
    kets = [ket_from_dict(k) for k in d["code_kets"]]
    return IsometrySpec(kets, dims=d.get("dims"))


def load_isometry(path: str) -> IsometrySpec:
    with open(path) as f:
        return isometry_from_dict(json.load(f))


def circuit_from_dict(d: dict) -> CircuitSpec:
    from .msize import CircuitSpec

    d = _object(d, "a circuit")
    return CircuitSpec(_int(d["n_qubits"], "n_qubits"),
                       [tuple(_ints(g, "a gate", 2))
                        for g in _list(d["gates"], "gates")])


def load_circuit(path: str) -> CircuitSpec:
    with open(path) as f:
        return circuit_from_dict(json.load(f))


def schedule_from_dict(d: dict):
    from .msize import Configuration

    d = _object(d, "a schedule")
    config = Configuration({
        _int(k, "a party"): _int(v, f"the slot count of party {k}")
        for k, v in _object(d["config"], "the config").items()})
    steps = []
    for s in _list(d["steps"], "steps"):
        step = dict(_object(s, "a step"))
        for key in ("party", "slot"):
            if key in step:
                step[key] = _int(step[key], f"a step's {key}")
        if "slots" in step:
            step["slots"] = _ints(step["slots"], "a step's slots")
        for key in ("from", "to"):
            if key in step:
                step[key] = tuple(_ints(step[key], f"a send's {key!r}", 2))
        if step["op"] == "unitary":
            step["matrix"] = _from_pairs(step["matrix"], 2)
        steps.append(step)
    return config, steps


def load_schedule(path: str):
    with open(path) as f:
        return schedule_from_dict(json.load(f))
