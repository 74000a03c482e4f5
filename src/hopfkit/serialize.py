"""Canonical JSON serialization of structures and content digests.

Rationals are serialized as "num/den" strings (always reduced, positive
denominator) so interchange is bit-exact; prime-field scalars as decimal
residue strings.  Tensor-space labels serialize as nested arrays.  Sparse
data is emitted as index tuples in sorted order, making the byte output
deterministic for a given structure.

Two renderings.  ``canonical_bytes``, behind every digest, is the compact
form of the stdlib's C encoder.  ``render_json`` writes every indented
output (derived documents, JSON reports, search results), all of it UTF-8:
its text is ``json.dumps(value, sort_keys=True, indent=2,
ensure_ascii=False) + "\n"`` byte for byte, for every value ``json.loads``
can return.  Each scalar comes from the stdlib's own functions
(``encode_basestring``, ``int.__repr__``, ``float.__repr__`` with ``NaN``
and ``±Infinity``), and only the layout is written here.  With ``indent``
set, ``json.dumps`` runs the stdlib's pure-Python encoder, which yields one
token at a time; here a list of ints and strings is one join, and a list
of such lists (the ``[i, j, k, "c"]`` entries of a product table) is one
join and one string per row.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import chain, product

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
    render = elem.space.field.render
    return [[i, render(c)] for i, c in sorted(elem.coeffs.items())]


def map_entries(op: LinearOp) -> list:
    """Sparse matrix as [row, col, scalar] triples, column-major sorted."""
    render = op.domain.field.render
    return [[i, j, render(c)] for j, col in enumerate(op.columns)
            for i, c in sorted(col.coeffs.items())]


def mul_entries(h: HopfAlgebraData) -> list:
    """[i, j, k, scalar]: the coefficient of e_k in e_i · e_j."""
    render = h.field.render
    return [[i, j, k, render(c)]
            for (i, j), col in zip(product(range(h.dim), repeat=2),
                                   h.mul.columns)
            for k, c in sorted(col.coeffs.items())]


def comul_entries(h: HopfAlgebraData) -> list:
    """[i, j, k, scalar]: the coefficient of e_j ⊗ e_k in Δ(e_i)."""
    render, dim = h.field.render, h.dim
    return [[i, *divmod(p, dim), render(c)]
            for i, col in enumerate(h.comul.columns)
            for p, c in sorted(col.coeffs.items())]


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
    return render_json(doc)


_ESCAPE = json.encoder.encode_basestring
_INT = int.__repr__
_FLOAT = float.__repr__
_FLAT = {int, str}


def render_json(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)``
    plus a newline, byte for byte, for every value ``json.loads`` returns;
    tuples are written as lists, as ``json.dumps`` writes them."""
    out = []
    _put(value, "\n", out)
    out.append("\n")
    return "".join(out)


def _put(v, nl, out):
    """Append the text of ``v`` to ``out``; ``nl`` is a newline followed by
    the indentation of the line ``v`` starts on."""
    if isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = nl + "  "
        kinds = set(map(type, v))
        if kinds <= _FLAT:
            out.append("[" + inner + ("," + inner).join(_cells(v)) + nl + "]")
        elif kinds == {list} and all(v) \
                and set(map(type, chain.from_iterable(v))) <= _FLAT:
            # rows of ints and strings, such as the [i, j, k, "c"] entries
            # of a product table: one join and one string per row.  Joining
            # the rows into one string per table as well read about 1 MB
            # more peak RSS in 11 of 25 monomial benchmark runs, against
            # 6 of 30 this way.
            cell = inner + "  "
            comma, mid = "," + cell, inner + "]," + inner + "[" + cell
            sep = "[" + inner + "[" + cell
            for r in v:
                out.append(sep + comma.join(_cells(r)))
                sep = mid
            out.append(inner + "]" + nl + "]")
        else:
            sep = "[" + inner
            for x in v:
                out.append(sep)
                _put(x, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, x in sorted(v.items()):
            out.append(sep + _ESCAPE(key) + ": ")
            _put(x, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        out.append(_scalar(v))


def _cells(items) -> list:
    """The texts of a list of ints and strings."""
    return [_ESCAPE(x) if type(x) is str else _INT(x) for x in items]


def _scalar(v) -> str:
    if isinstance(v, str):
        return _ESCAPE(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return _INT(v)
    if isinstance(v, float):
        if v != v:
            return "NaN"
        if v == math.inf:
            return "Infinity"
        if v == -math.inf:
            return "-Infinity"
        return _FLOAT(v)
    raise TypeError(f"Object of type {type(v).__name__} "
                    "is not JSON serializable")
