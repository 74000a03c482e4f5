"""The indented JSON renderer against the stdlib call it stands for.

``serialize.render_json`` writes every indented output (derived documents,
JSON reports, search results).  Its text must be
``json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False) + "\\n"``
byte for byte: on random JSON values, on every derive target of the shipped
fixtures and of the ``kernel_op`` carriers, and through the CLI.
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from hopfkit import brace as brace_mod
from hopfkit import cli
from hopfkit import cocycle as cocycle_mod
from hopfkit import groups as gr
from hopfkit.definitions import MAX_DERIVE_DIM, parse_document
from hopfkit.errors import DefinitionError
from hopfkit.hopf import group_algebra
from hopfkit.linalg import QQ, Field
from hopfkit.serialize import document, hopf_to_decl, render_json

from conftest import KERNEL_OPS
from test_kernel_aliasing import SKIPPED, fixture_defs

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "docs" / "fixtures"
FIELDS = [QQ, Field(7)]


def stdlib(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


# -- random JSON values ----------------------------------------------------------------

TEXT = st.text(st.characters() | st.sampled_from(
    '"\\/\x00\b\t\n\x1f\x7f\x80 é₂\ud800\U0001f600'), max_size=6)
INTS = st.integers() | st.sampled_from([0, -1, 2 ** 63, -2 ** 64 - 1, 10 ** 40])
FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 1e300, -1e-300, 5e-324])
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXT
CELLS = INTS | TEXT


@st.composite
def tables(draw):
    """Rows of one length, each column drawn from ints, strings, both or any
    scalar: the product-table shape and its near misses."""
    columns = draw(st.lists(st.sampled_from([INTS, TEXT, CELLS, SCALARS]),
                            min_size=1, max_size=4))
    return draw(st.lists(st.tuples(*columns).map(list), max_size=5))


JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(TEXT, inner, max_size=5)
                   | st.lists(st.lists(CELLS, max_size=4), max_size=4)
                   | tables()),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
@example([[0, 1, 2, "1/2"], [3, 4, 5, "-1"]])
@example({"S₃": {"count": 2, "operators": [[0, 1], [1, 0]], "order": 2}})
@example([[], [1], ["a", "b"]])
@example([[1, "a"], ["b", 2]])
@example([[True, 1], [False, 0]])
def test_render_json_is_the_stdlib_rendering(value):
    assert render_json(value) == stdlib(value)


def test_render_json_reads_tuples_as_lists():
    value = {"a": (1, ("x", 2.5)), "b": [(0, 1), (2, 3)], "c": ()}
    assert render_json(value) == stdlib(value)


def test_render_json_refuses_what_json_cannot_write():
    with pytest.raises(TypeError):
        render_json({"a": {1, 2}})


# -- derived documents -------------------------------------------------------------

def derive(defs, what):
    return cli.run_derive(defs, what, None,
                          "phi_id" if what == "conjugate" else None)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.json")),
                         ids=lambda p: p.name)
def test_fixture_documents_render_as_the_stdlib(path, field):
    defs = fixture_defs(path, field)
    ran = 0
    for what in cli.DERIVE_TARGETS:
        try:
            doc = derive(defs, what)
        except DefinitionError:
            continue          # the fixture declares nothing this target reads
        assert render_json(doc) == stdlib(doc)
        ran += 1
    assert ran > 0 or path.name == "f1_z2.json"


def kernel_defs(b):
    """A file declaring the operator ``b`` on its carrier H, the identity of
    H, the smash product of H by its adjoint action and the canonical
    cocycle of the brace of ``b``, read back."""
    h, field = b.carrier, b.carrier.field
    coc = cocycle_mod.canonical_from_brace(brace_mod.brace_from_rb(b))[1]
    decls = cli.rb_decls("H", h, "B", b.map) + [
        {"kind": "map", "name": "phi_id", "on": "H", "identity": True},
        {"kind": "action", "name": "adj", "actor": "H", "carrier": "H",
         "adjoint": True},
        {"kind": "smash", "name": "G", "left": "H", "right": "H",
         "action": "adj"},
        hopf_to_decl("Hcirc", coc.source),
        {"kind": "action", "name": "act", "actor": "Hcirc", "carrier": "H",
         "matrix": [[*divmod(p, h.dim), k, field.render(c)]
                    for p, col in enumerate(coc.action.act.columns)
                    for k, c in col.items()]},
        {"kind": "map", "name": "pi", "on": "Hcirc", "identity": True},
        {"kind": "cocycle", "name": "C", "source": "Hcirc", "target": "H",
         "action": "act", "map": "pi"},
    ]
    return parse_document(document(field, decls))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", sorted(KERNEL_OPS))
def test_kernel_op_documents_render_as_the_stdlib(kernel_op, name, field):
    b = kernel_op(name, field)
    defs = kernel_defs(b)
    skipped = set(SKIPPED.get(name, ()))
    if b.carrier.dim ** 2 > MAX_DERIVE_DIM:
        skipped.add("smash")      # the CLI refuses it; 36 dimensions on S3
    for what in cli.DERIVE_TARGETS:
        if what not in skipped:
            doc = derive(defs, what)
            assert render_json(doc) == stdlib(doc)


# -- through the CLI -----------------------------------------------------------------

ODD_LABELS = [1.5, True, None, ["a", [1e300, None]]]


def test_derive_keeps_float_bool_null_and_nested_labels(tmp_path, capsys):
    # Q[Z4] with labels of every JSON kind but an object, and B = ε(x)1
    carrier = hopf_to_decl("H", group_algebra(gr.cyclic(4), QQ))
    carrier["basis"] = ODD_LABELS
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(document(QQ, [
        carrier, {"kind": "map", "name": "B", "on": "H", "unit_counit": True,
                  "rota_baxter": True}])))
    out = tmp_path / "derived.json"
    for what in ("circle", "tilde", "posthopf", "matched-pair", "ybe",
                 "embed"):
        assert cli.main(["derive", what, str(path), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert text == stdlib(doc)
        square = [[x, y] for x in ODD_LABELS for y in ODD_LABELS]
        for decl in doc["declarations"]:
            for key in ("basis", "domain", "codomain"):
                assert decl.get(key, ODD_LABELS) in (ODD_LABELS, square)
        assert cli.main(["verify", str(out)]) == 0
    assert capsys.readouterr().err == ""
