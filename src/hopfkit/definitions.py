"""Definition-file parsing: named groups, Hopf algebras, linear maps,
actions and constructions in a JSON document.

Documents are a versioned header plus an ordered list of declarations;
names may reference earlier declarations only, which makes reference
graphs acyclic by construction.  Parsing performs shape checks and builds
the base objects; axiom sweeps are run by the ``verify``/``check``
commands, not the parser.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from . import groups as gr
from .errors import (CyclicReference, DefinitionSyntaxError,
                     DimensionMismatch, UnknownReference)
from .hopf import (HopfAlgebraData, ModuleAction, adjoint_map, group_algebra,
                   hopf_from_structure, scalar_space, trivial_map,
                   unit_counit_map)
from .linalg import (BasedSpace, Element, Field, LinearOp, tensor_index,
                     tensor_space)
from .serialize import field_from_json, label_from_json

KINDS = ("group", "hopf", "map", "action", "rb", "brace", "smash",
         "factorization", "cocycle")

# Largest declared group order and explicit Hopf basis length.  Checked
# before any table is built: a group of order n costs an n^2 table and an
# n^3 associativity check, a basis of length d allocates d^2 product
# columns.  256 leaves room for re-reading derived carriers such as the
# 144-dimensional embedding ambient of D6.  It also caps the degree of
# permutation generators, which every closure step copies; no group is
# lost, since a group of order n acts faithfully on n points.
MAX_DECLARED_SIZE = 256
# Largest carrier dimension (dim_H·dim_K for 'smash') of the derive targets
# that build tables on H ⊗ H or a tensor ambient: the product table of the
# 'embed' ambient has n^4 columns, 973 MB and 215 s at n = 32.
MAX_DERIVE_DIM = 32


@dataclass
class Declaration:
    kind: str
    name: str
    raw: dict
    obj: object = None          # built object for base kinds
    group: object = None        # backing FiniteGroup for group-algebra hopfs
    on: str | None = None       # carrier name for maps
    rota_baxter: bool = False   # maps flagged for the Rota-Baxter sweep
    refs: dict = dc_field(default_factory=dict)


@dataclass
class DefinitionFile:
    field: Field
    declarations: list[Declaration]

    def __getitem__(self, name: str) -> Declaration:
        for d in self.declarations:
            if d.name == name:
                return d
        raise UnknownReference(f"unknown name '{name}'")

    def first(self, *kinds: str) -> Declaration | None:
        for d in self.declarations:
            if d.kind in kinds:
                return d
        return None


def parse_file(path, field_override: Field | None = None) -> DefinitionFile:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read(), field_override)


def parse_text(text: str, field_override: Field | None = None) -> DefinitionFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DefinitionSyntaxError(f"not valid JSON: {exc}") from None
    return parse_document(doc, field_override)


def parse_document(doc, field_override: Field | None = None) -> DefinitionFile:
    if not isinstance(doc, dict):
        raise DefinitionSyntaxError("document must be a JSON object")
    if doc.get("version") != 1:
        raise DefinitionSyntaxError("unsupported or missing version (expected 1)",
                                    "version")
    try:
        field = field_from_json(doc.get("field", "rational"))
    except (ValueError, TypeError) as exc:
        raise DefinitionSyntaxError(f"bad field spec: {exc}", "field") from None
    if field_override is not None:
        field = field_override
    decls_raw = doc.get("declarations")
    if not isinstance(decls_raw, list):
        raise DefinitionSyntaxError("'declarations' must be a list", "declarations")

    out = DefinitionFile(field, [])
    seen: dict[str, Declaration] = {}
    for pos, raw in enumerate(decls_raw):
        path = f"declarations[{pos}]"
        if not isinstance(raw, dict):
            raise DefinitionSyntaxError("declaration must be an object", path)
        kind = raw.get("kind")
        name = raw.get("name")
        if kind not in KINDS:
            raise DefinitionSyntaxError(f"unknown kind {kind!r}", path)
        if not isinstance(name, str) or not name:
            raise DefinitionSyntaxError("declaration needs a non-empty name", path)
        if name in seen:
            raise DefinitionSyntaxError(f"duplicate name '{name}'", path)
        decl = _build(kind, name, raw, seen, field, path)
        seen[name] = decl
        out.declarations.append(decl)
    return out


def _resolve(seen, name, want_kinds, path, current: str):
    if name == current:
        raise CyclicReference(f"'{name}' references itself", path)
    if not isinstance(name, str) or name not in seen:
        raise UnknownReference(f"unknown reference {name!r}", path)
    decl = seen[name]
    if decl.kind not in want_kinds:
        raise DefinitionSyntaxError(
            f"'{name}' is a {decl.kind}, expected one of {want_kinds}", path)
    return decl


def _scalar(field: Field, text, path):
    try:
        return field.parse(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise DefinitionSyntaxError(f"bad scalar {text!r}: {exc}", path) from None


def _flag(raw, key, path) -> bool:
    """A declaration flag: JSON true, or false the same as absent."""
    value = raw.get(key, False)
    if type(value) is not bool:
        raise DefinitionSyntaxError(
            f"'{key}' must be true or false, got {value!r}", path)
    return value


def _entries(raw, width, path):
    if not isinstance(raw, list):
        raise DefinitionSyntaxError("expected a list of entries", path)
    for row in raw:
        if not isinstance(row, list) or len(row) != width:
            raise DimensionMismatch(
                f"entry {row!r} at {path} must have {width} fields")
    return raw


def _build(kind, name, raw, seen, field, path) -> Declaration:
    builder = {
        "group": _build_group, "hopf": _build_hopf, "map": _build_map,
        "action": _build_action, "rb": _build_rb, "brace": _build_brace,
        "smash": _build_smash, "factorization": _build_factorization,
        "cocycle": _build_cocycle,
    }[kind]
    return builder(name, raw, seen, field, path)


# -- groups ------------------------------------------------------------------------

def _check_size(n: int, what: str, path):
    if n > MAX_DECLARED_SIZE:
        raise DefinitionSyntaxError(
            f"{what} {n} exceeds the limit of {MAX_DECLARED_SIZE}", path)


GROUP_KINDS = ("table", "cyclic", "dihedral", "symmetric", "quaternion",
               "permutations")


def _group_from_spec(raw, path) -> gr.FiniteGroup:
    if not isinstance(raw, dict):
        raise DefinitionSyntaxError("group spec must be an object", path)
    kinds = [key for key in GROUP_KINDS if key in raw]
    if len(kinds) > 1:
        raise DefinitionSyntaxError(
            f"group spec names more than one kind: {', '.join(kinds)}", path)
    if "quaternion" in raw and raw["quaternion"] is not True:
        raise DefinitionSyntaxError(
            f"'quaternion' must be true, got {raw['quaternion']!r}", path)
    for key in ("cyclic", "dihedral", "symmetric"):
        if key in raw and type(raw[key]) is not int:
            raise DefinitionSyntaxError(
                f"'{key}' must be an integer, got {raw[key]!r}", path)
    if "table" in raw:
        table = raw["table"]
        if not isinstance(table, list):
            raise DefinitionSyntaxError("table must be a list of rows", path)
        _check_size(len(table), "group order", path)
        if not all(isinstance(r, list) for r in table) or \
                {type(x) for r in table for x in r} - {int}:
            raise DefinitionSyntaxError("table rows must be lists of integers",
                                        path)
        labels = (raw["labels"] if "labels" in raw
                  else [f"g{i}" for i in range(len(table))])
        if not isinstance(labels, list) or \
                not all(isinstance(lab, str) for lab in labels):
            raise DefinitionSyntaxError("labels must be a list of strings", path)
        return gr.FiniteGroup(tuple(tuple(r) for r in table), tuple(labels))
    if "cyclic" in raw:
        n = raw["cyclic"]
        _check_size(n, "group order", path)
        return gr.cyclic(n)
    if "dihedral" in raw:
        n = raw["dihedral"]
        _check_size(2 * n, "group order", path)
        return gr.dihedral(n)
    if "symmetric" in raw:
        return gr.symmetric(raw["symmetric"])
    if "quaternion" in raw:
        return gr.quaternion_group()
    if "permutations" in raw:
        return _group_from_permutations(raw["permutations"], path)
    raise DefinitionSyntaxError("unrecognized group spec", path)


def _group_from_permutations(gens, path) -> gr.FiniteGroup:
    if not isinstance(gens, list) or not gens or \
            not all(isinstance(g, list) for g in gens):
        raise DefinitionSyntaxError(
            "permutations must be a non-empty list of lists", path)
    degree = len(gens[0])
    _check_size(degree, "permutation degree", path)
    for g in gens:
        if len(g) != degree or any(type(x) is not int for x in g) \
                or sorted(g) != list(range(degree)):
            raise DefinitionSyntaxError(
                f"{g} is not a permutation of 0..{degree - 1}", path)
    gens = [tuple(g) for g in gens]
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(degree))
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
                    if len(elems) > MAX_DECLARED_SIZE:
                        raise DefinitionSyntaxError(
                            "permutations generate more than "
                            f"{MAX_DECLARED_SIZE} elements", path)
        frontier = nxt
    order = sorted(elems)
    index = {p: i for i, p in enumerate(order)}
    table = tuple(tuple(index[tuple(p[q[i]] for i in range(degree))]
                        for q in order) for p in order)
    # one-line images "021"; above degree 10 two-digit points would make
    # labels collide, so the points are joined with dots there
    sep = "" if degree <= 10 else "."
    labels = tuple(sep.join(str(x) for x in p) for p in order)
    return gr.FiniteGroup(table, labels, "perm-group")


def _build_group(name, raw, seen, field, path) -> Declaration:
    spec = raw.get("group", raw)
    return Declaration("group", name, raw, obj=_group_from_spec(spec, path))


# -- Hopf algebras ------------------------------------------------------------------

def _labels(data, what: str, path) -> tuple:
    """The labels of a ``basis``, ``domain`` or ``codomain`` list, an array
    read as a tensor label.  Anything but a list is refused, not read item
    by item, and so is a JSON object at any depth: it cannot be hashed."""
    if not isinstance(data, list):
        raise DefinitionSyntaxError(f"{what} must be a list of labels", path)
    labels = tuple(label_from_json(lab) for lab in data)
    try:
        hash(labels)
    except TypeError:
        raise DefinitionSyntaxError(
            f"{what} holds a JSON object, which is no label", path) from None
    return labels


def _build_hopf(name, raw, seen, field, path) -> Declaration:
    if "group_algebra" in raw:
        src = raw["group_algebra"]
        if isinstance(src, str):
            g = _resolve(seen, src, ("group",), path, name).obj
        else:
            g = _group_from_spec(src, path)
        return Declaration("hopf", name, raw, obj=group_algebra(g, field),
                           group=g)
    for key in ("basis", "mul", "unit", "comul", "counit", "antipode"):
        if key not in raw:
            raise DefinitionSyntaxError(f"hopf declaration missing '{key}'", path)
    labels = _labels(raw["basis"], "hopf 'basis'", path)
    _check_size(len(labels), "basis length", path)
    space = BasedSpace(labels, field)
    dim = space.dim
    hh = tensor_space(space, space)

    def check_idx(i, what):
        if not (type(i) is int and 0 <= i < dim):
            raise DimensionMismatch(f"{what} index {i!r} out of range at {path}")
        return i

    mul_data = [dict() for _ in range(dim * dim)]
    for i, j, k, c in _entries(raw["mul"], 4, f"{path}.mul"):
        check_idx(i, "mul"), check_idx(j, "mul"), check_idx(k, "mul")
        mul_data[tensor_index(i, j, dim)][k] = _scalar(field, c, f"{path}.mul")
    comul_data = [dict() for _ in range(dim)]
    for i, j, k, c in _entries(raw["comul"], 4, f"{path}.comul"):
        check_idx(i, "comul"), check_idx(j, "comul"), check_idx(k, "comul")
        comul_data[i][tensor_index(j, k, dim)] = _scalar(field, c, f"{path}.comul")
    unit_data = {}
    for i, c in _entries(raw["unit"], 2, f"{path}.unit"):
        unit_data[check_idx(i, "unit")] = _scalar(field, c, f"{path}.unit")
    eps = [field.zero] * dim
    for i, c in _entries(raw["counit"], 2, f"{path}.counit"):
        eps[check_idx(i, "counit")] = _scalar(field, c, f"{path}.counit")
    anti_data = [dict() for _ in range(dim)]
    for i, j, c in _entries(raw["antipode"], 3, f"{path}.antipode"):
        check_idx(i, "antipode"), check_idx(j, "antipode")
        anti_data[j][i] = _scalar(field, c, f"{path}.antipode")

    ssp = scalar_space(field)
    h = hopf_from_structure(
        space,
        LinearOp(hh, space, [Element(space, d) for d in mul_data]),
        Element(space, unit_data),
        LinearOp(space, hh, [Element(hh, d) for d in comul_data]),
        LinearOp(space, ssp, [ssp.basis(0).scale(e) for e in eps]),
        LinearOp(space, space, [Element(space, d) for d in anti_data]))
    return Declaration("hopf", name, raw, obj=h)


# -- linear maps ---------------------------------------------------------------------

def _build_map(name, raw, seen, field, path) -> Declaration:
    rota_baxter, identity, unit_counit = (
        _flag(raw, key, path) for key in ("rota_baxter", "identity", "unit_counit"))
    on = raw.get("on")
    if on is not None:
        carrier_decl = _resolve(seen, on, ("hopf",), path, name)
        h: HopfAlgebraData = carrier_decl.obj
        domain = codomain = h.space
    else:
        carrier_decl = None
        if "domain" not in raw or "codomain" not in raw:
            raise DefinitionSyntaxError(
                "map needs 'on' or explicit 'domain'/'codomain'", path)
        if rota_baxter:
            raise DefinitionSyntaxError("rota_baxter needs an 'on' carrier", path)
        domain, codomain = (BasedSpace(_labels(raw[key], f"'{key}'", path),
                                       field) for key in ("domain", "codomain"))

    if identity:
        if domain != codomain:
            raise DimensionMismatch(f"identity map needs equal spaces at {path}")
        op = LinearOp.identity(domain)
    elif unit_counit:
        if carrier_decl is None:
            raise DefinitionSyntaxError("unit_counit needs an 'on' carrier", path)
        op = unit_counit_map(carrier_decl.obj)
    elif "group_map" in raw:
        if carrier_decl is None or carrier_decl.group is None:
            raise DefinitionSyntaxError(
                "group_map needs an 'on' carrier built as a group algebra", path)
        g = carrier_decl.group
        how = raw["group_map"]
        if how == "inversion":
            table = g.inverse
        elif how == "trivial":
            table = (g.identity,) * g.order
        elif how == "identity":
            table = tuple(range(g.order))
        else:
            raise DefinitionSyntaxError(f"unknown group_map {how!r}", path)
        op = LinearOp(domain, codomain, [domain.basis(t) for t in table])
    elif "images" in raw:
        images = raw["images"]
        if not isinstance(images, dict):
            raise DefinitionSyntaxError("'images' must be an object", path)
        cols = []
        for lab in domain.labels:
            key = lab if isinstance(lab, str) else json.dumps(label_from_json(lab))
            if key not in images:
                raise DimensionMismatch(f"missing image for {key!r} at {path}")
            cols.append(codomain.basis(_label_index(codomain, images[key],
                                                    path)))
        op = LinearOp(domain, codomain, cols)
    elif "matrix" in raw:
        cols = [dict() for _ in range(domain.dim)]
        for r, c, v in _entries(raw["matrix"], 3, f"{path}.matrix"):
            if not (type(r) is int and 0 <= r < codomain.dim
                    and type(c) is int and 0 <= c < domain.dim):
                raise DimensionMismatch(f"matrix index ({r},{c}) out of range "
                                        f"at {path}")
            cols[c][r] = _scalar(field, v, f"{path}.matrix")
        op = LinearOp(domain, codomain,
                      [Element(codomain, d) for d in cols])
    else:
        raise DefinitionSyntaxError("unrecognized map body", path)
    return Declaration("map", name, raw, obj=op, on=on,
                       rota_baxter=rota_baxter)


def _label_index(space: BasedSpace, data, path) -> int:
    try:
        return space.index_of(label_from_json(data))
    except KeyError:
        raise DimensionMismatch(
            f"image {data!r} is not a basis label at {path}") from None


# -- actions ---------------------------------------------------------------------------

def _build_action(name, raw, seen, field, path) -> Declaration:
    trivial, adjoint = (_flag(raw, key, path) for key in ("trivial", "adjoint"))
    actor = _resolve(seen, raw.get("actor"), ("hopf",), path, name).obj
    carrier = _resolve(seen, raw.get("carrier"), ("hopf",), path, name).obj
    dom = tensor_space(actor.space, carrier.space)
    if trivial:
        op = trivial_map(actor, carrier)
    elif adjoint:
        if actor.space != carrier.space:
            raise DimensionMismatch(f"adjoint action needs actor == carrier "
                                    f"at {path}")
        actor, op = carrier, adjoint_map(carrier)
    elif "group_action" in raw:
        table = raw["group_action"]
        if not isinstance(table, dict):
            raise DefinitionSyntaxError("'group_action' must be an object", path)
        cols = []
        for a in range(actor.dim):
            key = actor.space.labels[a]
            if not isinstance(key, str) or key not in table:
                raise DimensionMismatch(
                    f"group_action missing actor label {key!r} at {path}")
            perm = table[key]
            if not isinstance(perm, dict):
                raise DefinitionSyntaxError(
                    f"group_action entry {key!r} must be an object", path)
            for i in range(carrier.dim):
                lab = carrier.space.labels[i]
                if not isinstance(lab, str) or lab not in perm:
                    raise DimensionMismatch(
                        f"group_action missing carrier label {lab!r} at {path}")
                cols.append(carrier.basis(_label_index(carrier.space,
                                                       perm[lab], path)))
        op = LinearOp(dom, carrier.space, cols)
    elif "matrix" in raw:
        cols_data = [dict() for _ in range(dom.dim)]
        for a, i, j, v in _entries(raw["matrix"], 4, f"{path}.matrix"):
            if not (type(a) is int and 0 <= a < actor.dim
                    and type(i) is int and 0 <= i < carrier.dim
                    and type(j) is int and 0 <= j < carrier.dim):
                raise DimensionMismatch(f"action index out of range at {path}")
            cols_data[tensor_index(a, i, carrier.dim)][j] = \
                _scalar(field, v, f"{path}.matrix")
        op = LinearOp(dom, carrier.space,
                      [Element(carrier.space, d) for d in cols_data])
    else:
        raise DefinitionSyntaxError("unrecognized action body", path)
    return Declaration("action", name, raw,
                       obj=ModuleAction(actor, carrier, op))


# -- constructions (built lazily by commands) --------------------------------------------

def _build_rb(name, raw, seen, field, path) -> Declaration:
    refs = {"hopf": _resolve(seen, raw.get("hopf"), ("hopf",), path, name),
            "map": _resolve(seen, raw.get("map"), ("map",), path, name)}
    return Declaration("rb", name, raw, refs=refs)


def _build_brace(name, raw, seen, field, path) -> Declaration:
    refs = {}
    if "rb" in raw:
        refs["rb"] = _resolve(seen, raw["rb"], ("rb",), path, name)
    elif "flip" in raw:
        refs["flip"] = _resolve(seen, raw["flip"], ("hopf",), path, name)
    elif "dot" in raw and "circle" in raw:
        refs["dot"] = _resolve(seen, raw["dot"], ("hopf",), path, name)
        refs["circle"] = _resolve(seen, raw["circle"], ("hopf",), path, name)
    else:
        raise DefinitionSyntaxError(
            "brace needs 'rb', 'flip', or 'dot'+'circle'", path)
    return Declaration("brace", name, raw, refs=refs)


def _build_smash(name, raw, seen, field, path) -> Declaration:
    refs = {"left": _resolve(seen, raw.get("left"), ("hopf",), path, name),
            "right": _resolve(seen, raw.get("right"), ("hopf",), path, name),
            "action": _resolve(seen, raw.get("action"), ("action",), path, name)}
    return Declaration("smash", name, raw, refs=refs)


def _build_factorization(name, raw, seen, field, path) -> Declaration:
    refs = {"ambient": _resolve(seen, raw.get("ambient"), ("hopf",), path, name)}
    labels = refs["ambient"].obj.space.labels
    for key in ("h", "l", "m"):
        if not isinstance(raw.get(key), list):
            raise DefinitionSyntaxError(f"factorization needs label list '{key}'",
                                        path)
        for lab in raw[key]:
            if lab not in labels:
                raise DefinitionSyntaxError(
                    f"'{key}' label {lab!r} is not a basis label of the ambient",
                    path)
        dup = [lab for i, lab in enumerate(raw[key]) if lab in raw[key][:i]]
        if dup:
            raise DefinitionSyntaxError(
                f"'{key}' repeats the label {dup[0]!r}", path)
    spec = raw.get("middle_rb", "inversion")     # absent: no operator to build
    if isinstance(spec, dict) and "images" in spec:
        images = spec["images"]
        if not isinstance(images, dict):
            raise DefinitionSyntaxError("middle_rb 'images' must be an object",
                                        path)
        for lab in raw["l"]:
            if lab not in images:
                raise DefinitionSyntaxError(
                    f"middle_rb images miss the L label {lab!r}", path)
            if images[lab] not in raw["l"]:
                raise DefinitionSyntaxError(
                    f"middle_rb image {images[lab]!r} of {lab!r} is not in L",
                    path)
    elif spec not in ("inversion", "unit-counit"):
        raise DefinitionSyntaxError(f"unrecognized middle_rb spec {spec!r}", path)
    return Declaration("factorization", name, raw, refs=refs)


def _build_cocycle(name, raw, seen, field, path) -> Declaration:
    refs = {"source": _resolve(seen, raw.get("source"), ("hopf",), path, name),
            "target": _resolve(seen, raw.get("target"), ("hopf",), path, name),
            "action": _resolve(seen, raw.get("action"), ("action",), path, name),
            "map": _resolve(seen, raw.get("map"), ("map",), path, name)}
    return Declaration("cocycle", name, raw, refs=refs)
