"""Canonical JSON serialization of structures and content digests.

Rationals are serialized as "num/den" strings (always reduced, positive
denominator) so interchange is bit-exact; prime-field scalars as decimal
residue strings.  Tensor-space labels serialize as nested arrays.  Sparse
data is emitted as index tuples in sorted order, making the byte output
deterministic for a given structure.
"""

from __future__ import annotations

import hashlib
import json

from .hopf import HopfAlgebraData
from .linalg import BasedSpace, Element, Field, LinearOp


def field_to_json(field: Field):
    return "rational" if field.p == 0 else field.p


def field_from_json(data) -> Field:
    """"rational", or a JSON integer p (not a bool) for F_p."""
    if data == "rational":
        return Field(0)
    if type(data) is not int:
        raise ValueError('expected "rational" or an integer, got '
                         + json.dumps(data))
    return Field(data)


def label_to_json(label):
    if isinstance(label, tuple):
        return [label_to_json(part) for part in label]
    return label


def label_from_json(data):
    if isinstance(data, list):
        return tuple(label_from_json(part) for part in data)
    return data


def space_to_json(space: BasedSpace) -> list:
    return [label_to_json(lab) for lab in space.labels]


def element_entries(elem: Element) -> list:
    field = elem.space.field
    return [[i, field.render(c)] for i, c in elem.items()]


def map_entries(op: LinearOp) -> list:
    """Sparse matrix as [row, col, scalar] triples, column-major sorted."""
    field = op.domain.field
    out = []
    for j, col in enumerate(op.columns):
        for i, c in col.items():
            out.append([i, j, field.render(c)])
    return out


def mul_entries(h: HopfAlgebraData) -> list:
    """[i, j, k, scalar]: the coefficient of e_k in e_i · e_j."""
    out = []
    dim = h.dim
    for p, col in enumerate(h.mul.columns):
        i, j = divmod(p, dim)
        for k, c in col.items():
            out.append([i, j, k, h.field.render(c)])
    return out


def comul_entries(h: HopfAlgebraData) -> list:
    """[i, j, k, scalar]: the coefficient of e_j ⊗ e_k in Δ(e_i)."""
    out = []
    dim = h.dim
    for i, col in enumerate(h.comul.columns):
        for p, c in col.items():
            j, k = divmod(p, dim)
            out.append([i, j, k, h.field.render(c)])
    return out


def hopf_to_decl(name: str, h: HopfAlgebraData) -> dict:
    return {
        "kind": "hopf",
        "name": name,
        "basis": space_to_json(h.space),
        "mul": mul_entries(h),
        "unit": element_entries(h.unit),
        "comul": comul_entries(h),
        "counit": [[i, h.field.render(h._eps[i])] for i in range(h.dim)
                   if h._eps[i] != 0],
        "antipode": map_entries(h.antipode),
    }


def map_to_decl(name: str, op: LinearOp, on: str | None = None) -> dict:
    decl = {"kind": "map", "name": name, "matrix": map_entries(op)}
    if on is not None:
        decl["on"] = on
    else:
        decl["domain"] = space_to_json(op.domain)
        decl["codomain"] = space_to_json(op.codomain)
    return decl


def document(field: Field, declarations: list) -> dict:
    return {"version": 1, "field": field_to_json(field),
            "declarations": declarations}


def canonical_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def digest(obj) -> str:
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


def dump_document(doc: dict) -> str:
    """Human-readable but deterministic rendering of a definition file."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
