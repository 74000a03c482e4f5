"""Definition-file parsing, CLI commands, determinism, round trips."""

import argparse
import hashlib
import json
import time
from pathlib import Path
from unittest import mock

import pytest

import hopfkit as hk
from hopfkit import cli
from hopfkit import fixtures as fx
from hopfkit.definitions import (MAX_DECLARED_SIZE, MAX_DERIVE_DIM, MAX_NESTING,
                                parse_text)
from hopfkit.errors import (DefinitionSyntaxError, DimensionMismatch,
                            UnknownReference)

from conftest import Built

ROOT = Path(__file__).resolve().parent.parent

F2_BINV = json.dumps({
    "version": 1,
    "field": "rational",
    "declarations": [
        {"kind": "hopf", "name": "F2", "group_algebra": {"dihedral": 3}},
        {"kind": "map", "name": "B_inv", "on": "F2",
         "group_map": "inversion", "rota_baxter": True},
    ],
})

SMASH_DOC = json.dumps({
    "version": 1,
    "field": "rational",
    "declarations": [
        {"kind": "hopf", "name": "H", "group_algebra": {"cyclic": 3}},
        {"kind": "hopf", "name": "K", "group_algebra": {"cyclic": 2}},
        {"kind": "action", "name": "inv_act", "actor": "K", "carrier": "H",
         "group_action": {"e": {"e": "e", "g": "g", "g2": "g2"},
                          "g": {"e": "e", "g": "g2", "g2": "g"}}},
        {"kind": "smash", "name": "G", "left": "H", "right": "K",
         "action": "inv_act"},
    ],
})


@pytest.fixture
def f2_file(tmp_path):
    path = tmp_path / "f2.json"
    path.write_text(F2_BINV)
    return str(path)


@pytest.fixture
def smash_file(tmp_path):
    path = tmp_path / "smash.json"
    path.write_text(SMASH_DOC)
    return str(path)


# -- parsing ---------------------------------------------------------------------

def test_parse_fixture_two_declarations():
    defs = parse_text(F2_BINV)
    assert len(defs.declarations) == 2
    assert defs["F2"].kind == "hopf"
    assert defs["B_inv"].rota_baxter


def test_parse_unknown_reference():
    doc = json.dumps({"version": 1, "field": "rational", "declarations": [
        {"kind": "map", "name": "B", "on": "missing", "identity": True}]})
    with pytest.raises(UnknownReference):
        parse_text(doc)


def test_parse_forward_reference_rejected():
    doc = json.dumps({"version": 1, "field": "rational", "declarations": [
        {"kind": "map", "name": "B", "on": "H", "identity": True},
        {"kind": "hopf", "name": "H", "group_algebra": {"cyclic": 2}}]})
    with pytest.raises(UnknownReference):
        parse_text(doc)


def test_parse_wrong_length_row():
    doc = json.dumps({"version": 1, "field": "rational", "declarations": [
        {"kind": "hopf", "name": "H", "basis": ["e", "g"],
         "mul": [[0, 0, "1/1"]],  # wrong width: needs [i, j, k, scalar]
         "unit": [[0, "1/1"]], "comul": [[0, 0, 0, "1/1"], [1, 1, 1, "1/1"]],
         "counit": [[0, "1/1"], [1, "1/1"]],
         "antipode": [[0, 0, "1/1"], [1, 1, "1/1"]]}]})
    with pytest.raises(DimensionMismatch):
        parse_text(doc)


def test_parse_bad_version():
    with pytest.raises(DefinitionSyntaxError):
        parse_text(json.dumps({"version": 2, "declarations": []}))


def test_parse_duplicate_name():
    doc = json.dumps({"version": 1, "declarations": [
        {"kind": "hopf", "name": "H", "group_algebra": {"cyclic": 2}},
        {"kind": "hopf", "name": "H", "group_algebra": {"cyclic": 3}}]})
    with pytest.raises(DefinitionSyntaxError):
        parse_text(doc)


def test_parse_explicit_structure_constants():
    # Q[Z2] written out in full
    doc = json.dumps({"version": 1, "field": "rational", "declarations": [
        {"kind": "hopf", "name": "H", "basis": ["e", "g"],
         "mul": [[0, 0, 0, "1/1"], [0, 1, 1, "1/1"],
                 [1, 0, 1, "1/1"], [1, 1, 0, "1/1"]],
         "unit": [[0, "1/1"]],
         "comul": [[0, 0, 0, "1/1"], [1, 1, 1, "1/1"]],
         "counit": [[0, "1/1"], [1, "1/1"]],
         "antipode": [[0, 0, "1/1"], [1, 1, "1/1"]]}]})
    defs = parse_text(doc)
    h = defs["H"].obj
    assert hk.verify_hopf(h).passed
    assert h.structure_equal(fx.f1())


def test_parse_permutation_group():
    doc = json.dumps({"version": 1, "declarations": [
        {"kind": "group", "name": "S3",
         "group": {"permutations": [[1, 0, 2], [0, 2, 1]]}}]})
    defs = parse_text(doc)
    assert defs["S3"].obj.order == 6


def test_permutation_labels_distinct_above_degree_ten():
    # without a separator (0,11,1,3,...,10,2) and (0,1,11,3,...,10,2) both
    # render as 01113456789102
    gens = [[0, 2, 1] + list(range(3, 12)), [0, 1, 11] + list(range(3, 11)) + [2]]
    doc = json.dumps({"version": 1, "declarations": [
        {"kind": "hopf", "name": "A", "group_algebra": {"permutations": gens}}]})
    h = parse_text(doc)["A"].obj
    assert h.dim == 6 and h.validated
    assert "0.11.1.3.4.5.6.7.8.9.10.2" in h.space.labels
    assert "0.1.11.3.4.5.6.7.8.9.10.2" in h.space.labels


def test_permutation_labels_unchanged_up_to_degree_ten():
    doc = json.dumps({"version": 1, "declarations": [
        {"kind": "group", "name": "G", "group": {"permutations": [
            [1, 0, 2, 3, 4, 5, 6, 7, 8, 9]]}}]})
    assert parse_text(doc)["G"].obj.labels == ("0123456789", "1023456789")


@pytest.mark.parametrize("spec", ["1e400", "7.5", "true", "[7]"])
def test_bad_document_field_exits_two(tmp_path, spec, capsys):
    path = tmp_path / "field.json"
    path.write_text(F2_BINV.replace('"rational"', spec))
    assert cli.main(["verify", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: bad field spec: ")
    assert out.err.endswith(f"got {json.dumps(json.loads(spec))} at field\n")


def test_parse_prime_field_override():
    from hopfkit.linalg import Field
    defs = parse_text(F2_BINV, Field(5))
    assert defs.field.p == 5
    assert hk.verify_hopf(defs["F2"].obj).passed


# -- commands --------------------------------------------------------------------

def test_verify_exit_zero_nine_checks(f2_file, capsys):
    assert cli.main(["verify", f2_file]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 9 + 1  # 9 checks plus the summary line
    assert "result: PASS (9 checks)" in out


def test_verify_smash_file(smash_file, capsys):
    assert cli.main(["verify", smash_file]) == 0
    assert "result: PASS (16 checks)" in capsys.readouterr().out


def test_verify_failing_map_exit_one(tmp_path, capsys):
    doc = json.dumps({"version": 1, "declarations": [
        {"kind": "hopf", "name": "H", "group_algebra": {"dihedral": 3}},
        {"kind": "map", "name": "B", "on": "H", "group_map": "identity",
         "rota_baxter": True}]})
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert cli.main(["verify", str(path)]) == 1
    assert "FAIL  B.rota-baxter" in capsys.readouterr().out


def failing_carrier_doc(body, g_squared):
    """A two-dimensional carrier H with group-like e and g, ε = 1, S = id
    and g·g = ``g_squared``·g, which fails the antipode axiom, and an action
    of H on itself with the given body."""
    return json.dumps({"version": 1, "declarations": [
        {"kind": "hopf", "name": "H", "basis": ["e", "g"],
         "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"],
                 [1, 1, 1, g_squared]],
         "unit": [[0, "1"]],
         "comul": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
         "counit": [[0, "1"], [1, "1"]],
         "antipode": [[0, 0, "1"], [1, 1, "1"]]},
        {"kind": "action", "name": "act", "actor": "H", "carrier": "H",
         **body}]})


@pytest.mark.parametrize("body, g_squared, compat, first_failure", [
    ({"trivial": True}, "1", "PASS  H.bialgebra-compatibility",
     "[at (g): lhs = 1/1*g, rhs = 1/1*e]"),
    ({"adjoint": True}, "2",
     "FAIL  H.bialgebra-compatibility  [at (g, g): lhs = 2/1*(g,g), "
     "rhs = 4/1*(g,g)]",
     "[at (g, g): lhs = 2/1*(g,g), rhs = 4/1*(g,g)]"),
], ids=["trivial", "adjoint"])
def test_action_on_failing_carrier_reports_every_check(tmp_path, capsys, body,
                                                       g_squared, compat,
                                                       first_failure):
    # The action line fails with the carrier's first Hopf failure, as a
    # rota-baxter line does; parsing the adjoint body sweeps nothing.
    path = tmp_path / "bad_carrier.json"
    path.write_text(failing_carrier_doc(body, g_squared))
    assert cli.main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = [line for line in captured.out.splitlines()
             if not line.startswith("digest")]
    assert lines == [
        "field: rational",
        "PASS  H.associativity", "PASS  H.unit", "PASS  H.coassociativity",
        "PASS  H.counit", compat,
        f"FAIL  H.antipode  [at (g): lhs = {g_squared}/1*g, rhs = 1/1*e]",
        "FAIL  H.cocommutative",
        f"FAIL  act.module-bialgebra  {first_failure}",
        "result: FAIL (8 checks)"]


def swapped_smash_file(tmp_path):
    """z3z2_smash.json with the Z2 generator swapping e and g of Z3: a
    module coalgebra, but not a module algebra."""
    doc = json.loads((ROOT / "docs" / "fixtures" / "z3z2_smash.json")
                     .read_text())
    doc["declarations"][2]["group_action"]["g"] = {"e": "g", "g": "e",
                                                   "g2": "g2"}
    path = tmp_path / "swapped_smash.json"
    path.write_text(json.dumps(doc))
    return str(path)


SWAPPED_FAILURE = ("module-algebra-product: at (g,e,e): lhs = 1/1*g, "
                   "rhs = 1/1*g2")


def test_derive_smash_of_non_module_algebra_fails(tmp_path, capsys):
    assert cli.main(["derive", "smash", swapped_smash_file(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("FAIL  construction invalid at stage "
                            f"'module-bialgebra': {SWAPPED_FAILURE}\n")


def test_verify_smash_of_non_module_algebra_fails(tmp_path, capsys):
    assert cli.main(["verify", swapped_smash_file(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL  inv_act.module-bialgebra  [at (g, e, e): lhs = 1/1*g, " \
        "rhs = 1/1*g2]" in lines
    assert ("FAIL  G.smash  [at (): lhs = construction invalid at stage "
            f"'module-bialgebra': {SWAPPED_FAILURE}, rhs = ]") in lines
    assert lines[-1] == "result: FAIL (16 checks)"


def test_parse_error_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["verify", str(path)]) == 2


OVERSIZED = {
    "cyclic": {"kind": "group", "name": "G", "group": {"cyclic": 10 ** 9}},
    "dihedral": {"kind": "group", "name": "G", "group": {"dihedral": 10 ** 9}},
    # S6 has order 720: the closure has to stop at the cap.
    "permutations": {"kind": "group", "name": "G", "group": {
        "permutations": [[1, 2, 3, 4, 5, 0], [1, 0, 2, 3, 4, 5]]}},
    # a single 10^6-cycle: refused on its degree before it is copied
    "permutation-degree": {"kind": "group", "name": "G", "group": {
        "permutations": [list(range(1, 10 ** 6)) + [0]]}},
    "basis": {"kind": "hopf", "name": "H",
              "basis": [f"b{i}" for i in range(MAX_DECLARED_SIZE + 1)],
              "mul": [], "unit": [], "comul": [], "counit": [], "antipode": []},
}


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_declarations_exit_two_before_allocating(tmp_path, capsys, case):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"version": 1, "declarations": [OVERSIZED[case]]}))
    start = time.perf_counter()
    assert cli.main(["verify", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("error: ")


def derive_doc(order, left=11, right=3):
    """A cyclic group algebra H of the given order with an operator, a brace,
    a cocycle, and a smash product of cyclic L and R of orders left·right,
    one source for every tensor-building derive target."""
    return json.dumps({"version": 1, "declarations": [
        {"kind": "hopf", "name": "H", "group_algebra": {"cyclic": order}},
        {"kind": "map", "name": "B", "on": "H", "group_map": "inversion",
         "rota_baxter": True},
        {"kind": "map", "name": "pi", "on": "H", "identity": True},
        {"kind": "action", "name": "T", "actor": "H", "carrier": "H",
         "trivial": True},
        {"kind": "cocycle", "name": "C", "source": "H", "target": "H",
         "action": "T", "map": "pi"},
        {"kind": "hopf", "name": "L", "group_algebra": {"cyclic": left}},
        {"kind": "hopf", "name": "R", "group_algebra": {"cyclic": right}},
        {"kind": "action", "name": "U", "actor": "R", "carrier": "L",
         "trivial": True},
        {"kind": "smash", "name": "S", "left": "L", "right": "R",
         "action": "U"}]})


@pytest.mark.parametrize("what", cli.TENSOR_TARGETS)
def test_oversized_derive_targets_exit_two_before_building(tmp_path, capsys,
                                                          what):
    # a 33-element cyclic group (smash: 11 · 3): the embed ambient of a
    # 33-dimensional carrier would have a 33^4-column product table
    path = tmp_path / "big.json"
    path.write_text(derive_doc(33))
    start = time.perf_counter()
    assert cli.main(["derive", what, str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: derive {what}: carrier dimension 33 "
                            f"exceeds the limit of {MAX_DERIVE_DIM}\n")


BUILDERS = {"posthopf": "hopfkit.posthopf.posthopf_from_rb",
            "matched-pair": "hopfkit.matched.matched_pair_from_rb",
            "ybe": "hopfkit.matched.ybe_from_rb",
            "embed": "hopfkit.brace.embed_into_rb",
            "smash": "hopfkit.constructions.smash_product",
            "cocycle-rb": "hopfkit.cocycle.rb_hopf_from_cocycle"}


@pytest.mark.parametrize("what", cli.TENSOR_TARGETS)
def test_derive_targets_at_the_limit_reach_their_construction(tmp_path, what):
    # dimension 32 (smash: 8 · 4) passes the limit and reaches the builder
    path = tmp_path / "limit.json"
    path.write_text(derive_doc(MAX_DERIVE_DIM, 8, 4))
    with mock.patch(BUILDERS[what], side_effect=Built):
        with pytest.raises(Built):
            cli.main(["derive", what, str(path)])


@pytest.mark.parametrize("gens", [[5], [[0, 1], 3], [[0.0, 1]], [[True, 0]],
                                  [[0, 1], [0, 1, 2]]], ids=str)
def test_malformed_permutations_exit_two(tmp_path, capsys, gens):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, "declarations": [
        {"kind": "group", "name": "G", "group": {"permutations": gens}}]}))
    assert cli.main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


Z2 = {"kind": "hopf", "name": "H", "group_algebra": {"cyclic": 2}}
# Q[Z2] written out, for the cases that replace its basis
Z2_BY_HAND = {"kind": "hopf", "name": "H", "basis": ["e", "g"],
              "mul": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"],
                      [1, 1, 0, "1"]],
              "unit": [[0, "1"]], "comul": [[0, 0, 0, "1"], [1, 1, 1, "1"]],
              "counit": [[0, "1"], [1, "1"]],
              "antipode": [[0, 0, "1"], [1, 1, "1"]]}


def nested(value, depth):
    """``value`` inside ``depth`` arrays."""
    for _ in range(depth):
        value = [value]
    return value


# Each case is read, not swept: it must exit 2 with "error: ..." instead of
# raising out of cli.main (or, for a fractional order, being truncated).
# A string is the declarations' JSON text, for nesting json.dumps refuses.
MALFORMED = {
    "table-of-ints": [{"kind": "group", "name": "G", "group": {"table": [1, 2]}}],
    "labels-not-list": [{"kind": "group", "name": "G",
                         "group": {"table": [[0]], "labels": 5}}],
    "table-of-strings": [{"kind": "group", "name": "G",
                          "group": {"table": [["a"]]}}],
    "cyclic-null": [{"kind": "group", "name": "G", "group": {"cyclic": None}}],
    "dihedral-list": [{"kind": "group", "name": "G", "group": {"dihedral": [3]}}],
    "symmetric-null": [{"kind": "group", "name": "G",
                        "group": {"symmetric": None}}],
    "cyclic-fraction": [{"kind": "group", "name": "G", "group": {"cyclic": 2.5}}],
    # only JSON true names the quaternion group
    "quaternion-int": [{"kind": "group", "name": "G", "group": {"quaternion": 1}}],
    "quaternion-string": [{"kind": "group", "name": "G",
                           "group": {"quaternion": "yes"}}],
    # a spec names one kind; none of them wins over another
    "two-kinds": [{"kind": "group", "name": "G",
                   "group": {"cyclic": 3, "dihedral": 2}}],
    # explicit labels are used as given, never replaced by generated ones
    "labels-empty-string": [{"kind": "group", "name": "G", "group": {
        "table": [[0, 1], [1, 0]], "labels": ""}}],
    "labels-too-few": [{"kind": "group", "name": "G",
                        "group": {"table": [[0]], "labels": []}}],
    "group-algebra-int": [{"kind": "hopf", "name": "H", "group_algebra": 5}],
    "map-image-not-label": [Z2, {"kind": "map", "name": "B", "on": "H",
                                 "images": {"e": 5, "g": "g"}}],
    "action-image-not-label": [Z2, {"kind": "action", "name": "A", "actor": "H",
                                    "carrier": "H", "group_action": {
                                        "e": {"e": "e", "g": "g"},
                                        "g": {"e": "x", "g": "e"}}}],
    "action-table-int": [Z2, {"kind": "action", "name": "A", "actor": "H",
                              "carrier": "H", "group_action": 5}],
    "action-permutation-int": [Z2, {"kind": "action", "name": "A", "actor": "H",
                                    "carrier": "H", "group_action": {
                                        "e": 5, "g": {"e": "g", "g": "e"}}}],
    "action-matrix-string-index": [Z2, {"kind": "action", "name": "A",
                                        "actor": "H", "carrier": "H",
                                        "matrix": [["a", 0, 0, "1"]]}],
    # JSON true and false are no basis indices: with them read as 1 and 0
    # each of these three documents would verify
    "hopf-bool-index": [{"kind": "hopf", "name": "H", "basis": ["e", "g"],
                         "mul": [[0, 0, 0, "1"], [0, True, 1, "1"],
                                 [1, 0, 1, "1"], [1, 1, 0, "1"]],
                         "unit": [[0, "1"]],
                         "comul": [[0, 0, 0, "1"], [True, 1, 1, "1"]],
                         "counit": [[0, "1"], [1, "1"]],
                         "antipode": [[0, 0, "1"], [1, 1, "1"]]}],
    "map-matrix-bool-index": [Z2, {"kind": "map", "name": "B", "on": "H",
                                   "matrix": [[0, 0, "1"], [True, True, "1"]]}],
    "action-matrix-bool-index": [Z2, {"kind": "action", "name": "A",
                                      "actor": "H", "carrier": "H",
                                      "matrix": [[0, 0, 0, "1"], [0, 1, 1, "1"],
                                                 [1, 0, 0, "1"],
                                                 [True, True, True, "1"]]}],
    # without a carrier there is no Hopf algebra to sweep the identity on
    "rota-baxter-without-carrier": [Z2, {"kind": "map", "name": "B",
                                         "domain": ["e", "g"],
                                         "codomain": ["e", "g"],
                                         "identity": True,
                                         "rota_baxter": True}],
    # a flag is JSON true or false: read by truthiness, the string "false"
    # would run the Rota-Baxter sweep and "no" would build the trivial action
    "rota-baxter-string": [Z2, {"kind": "map", "name": "B", "on": "H",
                                "identity": True, "rota_baxter": "false"}],
    "identity-int": [Z2, {"kind": "map", "name": "B", "on": "H",
                          "identity": 1}],
    "unit-counit-string": [Z2, {"kind": "map", "name": "B", "on": "H",
                                "unit_counit": "true"}],
    "unit-counit-null-beside-identity": [Z2, {"kind": "map", "name": "B",
                                              "on": "H", "identity": True,
                                              "unit_counit": None}],
    "trivial-string": [Z2, {"kind": "action", "name": "A", "actor": "H",
                            "carrier": "H", "trivial": "no"}],
    "adjoint-int": [Z2, {"kind": "action", "name": "A", "actor": "H",
                         "carrier": "H", "adjoint": 1}],
    # a label is compared and hashed, which a JSON object cannot be, at any
    # depth of a tensor label; a label list given as a string would be read
    # one character at a time
    "basis-label-object": [dict(Z2_BY_HAND, basis=[{"a": 1}, "g"])],
    "basis-label-object-in-array": [dict(Z2_BY_HAND,
                                         basis=[["e", {"a": 1}], "g"])],
    "domain-label-object": [{"kind": "map", "name": "B",
                             "domain": [{"a": 1}], "codomain": ["e"],
                             "matrix": []}],
    "codomain-label-object": [{"kind": "map", "name": "B", "domain": ["e"],
                               "codomain": [{"a": 1}], "matrix": []}],
    "domain-string": [{"kind": "map", "name": "B", "domain": "ab",
                       "codomain": ["a", "b"], "identity": True}],
    # a document nests arrays and objects at most MAX_NESTING deep: labels
    # and messages are read recursively, and so is the JSON text itself
    "basis-label-500-deep": [dict(Z2_BY_HAND, basis=[nested("e", 500), "g"])],
    "declarations-5000-deep": "[" * 5000 + "]" * 5000,
}


def test_false_flags_read_as_absent(tmp_path, capsys):
    flagged = [Z2, {"kind": "map", "name": "B", "on": "H", "identity": True,
                    "unit_counit": False, "rota_baxter": False},
               {"kind": "action", "name": "A", "actor": "H", "carrier": "H",
                "trivial": False, "adjoint": True}]
    bare = [Z2, {"kind": "map", "name": "B", "on": "H", "identity": True},
            {"kind": "action", "name": "A", "actor": "H", "carrier": "H",
             "adjoint": True}]
    outs = []
    for decls in (flagged, bare):
        path = tmp_path / "flags.json"
        path.write_text(json.dumps({"version": 1, "declarations": decls}))
        assert cli.main(["verify", str(path)]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
    assert "rota-baxter" not in outs[0].out


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_declarations_exit_two(tmp_path, capsys, case):
    path = tmp_path / "bad.json"
    decls = MALFORMED[case]
    text = decls if isinstance(decls, str) else json.dumps(decls)
    path.write_text('{"version": 1, "declarations": %s}' % text)
    assert cli.main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_nesting_limit_is_max_nesting(tmp_path, capsys):
    # the document, its declarations, the map and its label lists take
    # four levels, so a label in MAX_NESTING - 4 arrays reaches the limit
    for depth, code in ((MAX_NESTING, 0), (MAX_NESTING + 1, 2)):
        label = nested("e", depth - 4)
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"version": 1, "declarations": [
            {"kind": "map", "name": "B", "domain": [label],
             "codomain": [label], "identity": True}]}))
        assert cli.main(["verify", str(path)]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else
                       "error: document nests arrays and objects more than "
                       f"{MAX_NESTING} deep\n")


def test_check_prop49_identity_map_witness(tmp_path, capsys):
    doc = json.dumps({"version": 1, "declarations": [
        {"kind": "hopf", "name": "H", "group_algebra": {"dihedral": 3}},
        {"kind": "map", "name": "B", "on": "H", "group_map": "identity"}]})
    path = tmp_path / "id.json"
    path.write_text(doc)
    assert cli.main(["check", "prop49", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "(r,s" in out


@pytest.mark.parametrize("condition", ["op-module", "symmetric", "prop44",
                                       "prop48", "prop49", "central-image",
                                       "lemma218"])
def test_check_conditions_on_b_inv(f2_file, condition, capsys):
    code = cli.main(["check", condition, f2_file])
    out = capsys.readouterr().out
    if condition == "central-image":
        assert code == 1 and "FAIL" in out
    else:
        assert code == 0 and "PASS" in out


DERIVE_DIGESTS = json.loads(
    (ROOT / "tests" / "golden" / "derive_digests.json").read_text())


@pytest.mark.parametrize("field", sorted(DERIVE_DIGESTS))
@pytest.mark.parametrize("job", sorted(DERIVE_DIGESTS["rational"]))
def test_derive_bytes_match_golden_digest(job, field, tmp_path):
    # the derive runs of the CI step "Derive from the shipped fixtures"; each
    # derived document must verify as well
    what, fixture = job.split()
    out = tmp_path / "derived.json"
    flag = [] if field == "rational" else ["--field", field]
    assert cli.main(["derive", what, str(ROOT / "docs" / "fixtures" / fixture),
                     *flag, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        DERIVE_DIGESTS[field][job]
    assert cli.main(["verify", str(out), "--out", str(tmp_path / "r")]) == 0


def test_derive_ybe_digest_stable(f2_file, tmp_path):
    out1 = tmp_path / "y1.json"
    out2 = tmp_path / "y2.json"
    assert cli.main(["derive", "ybe", f2_file, "--out", str(out1)]) == 0
    assert cli.main(["derive", "ybe", f2_file, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    c_decl = [d for d in doc["declarations"] if d["name"] == "B_inv_ybe_c"][0]
    assert len(c_decl["domain"]) == 36
    assert len(c_decl["matrix"]) == 36  # permutation-like braiding


def test_derive_circle_round_trip(f2_file, tmp_path, f2, b_inv_f2):
    out = tmp_path / "circle.json"
    assert cli.main(["derive", "circle", f2_file, "--out", str(out)]) == 0
    defs = parse_text(out.read_text())
    reparsed = defs["B_inv_circle"].obj
    direct = hk.descend(b_inv_f2).hopf
    assert reparsed.structure_equal(direct)


def test_derive_tilde_round_trip(f2_file, tmp_path, b_inv_f2):
    out = tmp_path / "tilde.json"
    assert cli.main(["derive", "tilde", f2_file, "--out", str(out)]) == 0
    defs = parse_text(out.read_text())
    assert defs["B_inv_tilde"].obj == hk.rb_tilde(b_inv_f2).map
    assert cli.main(["verify", str(out)]) == 0


def test_derive_embed(f2_file, tmp_path, f2):
    out = tmp_path / "embed.json"
    assert cli.main(["derive", "embed", f2_file, "--out", str(out)]) == 0
    defs = parse_text(out.read_text())
    assert defs["B_inv_ambient"].obj.dim == 36
    emb = hk.embed_into_rb(hk.brace_from_rb(fx.b_inv(f2)))
    assert defs["B_inv_ambient"].obj.structure_equal(emb.ambient)


def test_derive_smash(smash_file, tmp_path, f2):
    out = tmp_path / "smash_out.json"
    assert cli.main(["derive", "smash", smash_file, "--out", str(out)]) == 0
    defs = parse_text(out.read_text())
    smash = defs["G_smash"].obj
    assert hk.verify_hopf(smash).passed


def test_derive_conjugate_requires_using(f2_file, capsys):
    assert cli.main(["derive", "conjugate", f2_file]) == 2


@pytest.mark.parametrize("using", ["nosuch", "B_inv"],
                         ids=["unknown-name", "map-name"])
@pytest.mark.parametrize("what", ["circle", "embed"])
def test_derive_refuses_using_off_conjugate(what, using, capsys):
    # only conjugate reads --using; any other target would ignore it
    fixture = str(ROOT / "docs" / "fixtures" / "f2_s3_binv.json")
    assert cli.main(["derive", what, fixture, "--using", using]) == 2
    assert capsys.readouterr() == (
        "", f"error: --using applies only to derive conjugate, not to derive "
            f"{what}\n")


@pytest.mark.parametrize("decls", [
    [{"kind": "map", "name": "M", "domain": ["a", "b"], "codomain": ["a", "b"],
      "identity": True}],
    [{"kind": "hopf", "name": "K", "group_algebra": {"cyclic": 2}},
     {"kind": "map", "name": "M", "on": "K", "identity": True}]],
    ids=["domain-codomain", "on-another-carrier"])
def test_derive_conjugate_refuses_a_map_off_the_carrier(decls, tmp_path,
                                                        capsys):
    # an input error, found before the operator is built
    doc = json.loads(F2_BINV)
    doc["declarations"] += decls
    path = tmp_path / "conj.json"
    path.write_text(json.dumps(doc))
    with mock.patch.object(cli, "rb_from_decl", side_effect=Built):
        assert cli.main(["derive", "conjugate", str(path), "--using", "M"]) == 2
    assert capsys.readouterr() == (
        "", "error: --using 'M' does not map the carrier of 'B_inv' to "
            "itself\n")


@pytest.mark.parametrize("argv, message", [
    (["derive", "smash", "z3z2_smash.json", "--name", "H"],
     "'H' is not a smash declaration"),
    (["derive", "cocycle-rb", "s3_flip_cocycle.json", "--name", "pi"],
     "'pi' is not a cocycle declaration"),
    (["derive", "embed", "f2_s3_binv.json", "--name", "F2"],
     "'F2' is not a brace or Rota-Baxter declaration"),
    *[(["check", c, "f2_s3_binv.json", "--name", "F2"],
       "'F2' is not a brace or Rota-Baxter declaration")
      for c in ("op-module", "symmetric", "prop44")],
    (["derive", "circle", "f2_s3_binv.json", "--name", "F2"],
     "'F2' is not a Rota-Baxter declaration")])
def test_name_of_the_wrong_kind_is_named(argv, message, capsys):
    *head, fixture, flag, name = argv
    path = str(ROOT / "docs" / "fixtures" / fixture)
    assert cli.main([*head, path, flag, name]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_derive_posthopf_round_trip(f2_file, tmp_path, f2, b_inv_f2):
    out = tmp_path / "post.json"
    assert cli.main(["derive", "posthopf", f2_file, "--out", str(out)]) == 0
    defs = parse_text(out.read_text())
    p = hk.posthopf_from_rb(b_inv_f2)
    assert defs["B_inv_tri"].obj == p.tri
    assert defs["B_inv_beta"].obj == p.beta


def test_derive_matched_pair_round_trip(f2_file, tmp_path, b_inv_f2):
    out = tmp_path / "mp.json"
    assert cli.main(["derive", "matched-pair", f2_file, "--out", str(out)]) == 0
    defs = parse_text(out.read_text())
    m = hk.matched_pair_from_rb(b_inv_f2)
    assert defs["B_inv_lact"].obj == m.lact
    assert defs["B_inv_ract"].obj == m.ract
    assert defs["B_inv_circle"].obj.structure_equal(m.left)


def test_derive_cocycle_rb(tmp_path, f2):
    # an explicit identity cocycle over the flip brace's derived action
    br = hk.flip_brace(f2)
    from hopfkit.serialize import hopf_to_decl
    from hopfkit.brace import derived_action_map
    act = derived_action_map(br)
    act_entries = []
    for a in range(6):
        for i in range(6):
            col = act.columns[a * 6 + i]
            for j, c in col.items():
                act_entries.append([a, i, j, f2.field.render(c)])
    doc = {
        "version": 1, "field": "rational",
        "declarations": [
            hopf_to_decl("Hcirc", br.circle),
            hopf_to_decl("Hdot", br.dot),
            {"kind": "action", "name": "act", "actor": "Hcirc",
             "carrier": "Hdot", "matrix": act_entries},
            {"kind": "map", "name": "pi", "on": "Hcirc", "identity": True},
        ],
    }
    # identity map's domain is Hcirc's space but the cocycle goes to Hdot;
    # both share the space, so the parser accepts it
    doc["declarations"].append({"kind": "cocycle", "name": "C",
                                "source": "Hcirc", "target": "Hdot",
                                "action": "act", "map": "pi"})
    path = tmp_path / "coc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["verify", str(path)]) == 0
    out = tmp_path / "cocrb.json"
    assert cli.main(["derive", "cocycle-rb", str(path), "--out", str(out)]) == 0
    defs = parse_text(out.read_text())
    built = defs["C_ambient"].obj
    assert hk.verify_hopf(built).passed
    assert built.dim == 36


def test_report_byte_identical_across_thread_counts(f2_file, tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert cli.main(["report", f2_file, "--format", "json", "--threads", "1",
                     "--out", str(r1)]) == 0
    assert cli.main(["report", f2_file, "--format", "json", "--threads", "8",
                     "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_search_rb_group(tmp_path, capsys):
    doc = json.dumps({"version": 1, "declarations": [
        {"kind": "group", "name": "S3", "group": {"dihedral": 3}}]})
    path = tmp_path / "grp.json"
    path.write_text(doc)
    assert cli.main(["search", "rb-group", str(path)]) == 0
    out = capsys.readouterr().out
    assert "group S3: 8 operators" in out


def test_search_json_writes_group_names_as_utf8(tmp_path, capsys):
    # a non-ASCII name is written as it is, as in every other JSON output
    doc = json.dumps({"version": 1, "declarations": [
        {"kind": "group", "name": "Z₂", "group": {"cyclic": 2}},
        {"kind": "group", "name": "Z3", "group": {"cyclic": 3}}]})
    path = tmp_path / "grp.json"
    path.write_text(doc)
    out = tmp_path / "found.json"
    assert cli.main(["search", "rb-group", str(path), "--format", "json",
                     "--out", str(out)]) == 0
    assert out.read_bytes() == """{
  "Z3": {
    "count": 3,
    "operators": [
      [
        0,
        0,
        0
      ],
      [
        0,
        1,
        2
      ],
      [
        0,
        2,
        1
      ]
    ],
    "order": 3
  },
  "Z₂": {
    "count": 2,
    "operators": [
      [
        0,
        0
      ],
      [
        0,
        1
      ]
    ],
    "order": 2
  }
}
""".encode("utf-8")
    assert capsys.readouterr().err == ""


def test_search_includes_group_algebra_backing_group(f2_file, capsys):
    assert cli.main(["search", "rb-group", f2_file]) == 0
    assert "F2: 8 operators" in capsys.readouterr().out


def test_negative_search_budget_exits_two(f2_file, capsys):
    assert cli.main(["search", "rb-group", f2_file, "--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: bad --budget: -1 is below 0\n"
    assert captured.out == ""


def test_zero_search_budget_is_exceeded_at_the_root(f2_file, capsys):
    # the root node is the first search node, so budget 0 is exceeded at once
    assert cli.main(["search", "rb-group", f2_file, "--budget", "0"]) == 1
    assert capsys.readouterr().err == "FAIL  search budget 0 exceeded on D3\n"


def test_field_flag_switches_to_prime_field(f2_file, capsys):
    assert cli.main(["verify", f2_file, "--field", "7"]) == 0
    assert "field: 7" in capsys.readouterr().out


@pytest.mark.parametrize("bad", ["6", "abc", str(2 ** 64 + 13), "7.5", "+7"])
def test_bad_field_flag_exits_two(f2_file, bad, capsys):
    assert cli.main(["verify", f2_file, "--field", bad]) == 2
    assert capsys.readouterr().err.startswith("error: bad --field: ")


# verify passes (exit 0) and check central-image fails (exit 1) on B_inv;
# both exit 2 when the output cannot be written.
@pytest.mark.parametrize("argv", [["verify"], ["check", "central-image"]])
def test_unwritable_out_exits_two(f2_file, tmp_path, capsys, argv):
    out = tmp_path / "missing" / "x"
    assert cli.main(argv + [f2_file, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {out}: "
                            "No such file or directory\n")


@pytest.mark.parametrize("where, reason", [
    ("missing/x", "No such file or directory"),
    ("file/x", "Not a directory"),
    ("", "Is a directory")], ids=["missing-parent", "file-parent", "directory"])
def test_unwritable_out_exits_before_reading_the_input(f2_file, tmp_path, capsys,
                                                      monkeypatch, where,
                                                      reason):
    (tmp_path / "file").write_text("kept")

    def unread(*args):
        raise AssertionError("the input was read")
    monkeypatch.setattr(cli, "parse_file", unread)
    out = tmp_path / where
    assert cli.main(["verify", f2_file, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: {reason}\n"
    assert (tmp_path / "file").read_text() == "kept"


def test_input_error_leaves_an_existing_out_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    out = tmp_path / "report.txt"
    out.write_text("kept")
    assert cli.main(["verify", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_text() == "kept"


def run_main(argv, capsys):
    """cli.main's exit code, stdout and stderr, argparse exits included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_is_reentrant(f2_file, tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "circle.json")
    calls = [["derive", "nosuch", f2_file], ["--help"], ["derive", "--help"],
             ["derive", "circle", f2_file, "--name", "B_inv", "--out", out],
             ["verify", f2_file], ["check", "prop49", f2_file, "--field", "7"],
             ["verify", f2_file]]
    parsed = []
    parse_args = cli.PARSER.parse_args

    def recording(*args, **kwargs):
        parsed.append(parse_args(*args, **kwargs))
        return parsed[-1]

    monkeypatch.setattr(cli.PARSER, "parse_args", recording)
    shared = [run_main(argv, capsys) for argv in calls]
    derived = Path(out).read_bytes()
    monkeypatch.undo()
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "PARSER", cli._build_parser())
        fresh.append(run_main(argv, capsys))
    assert shared == fresh
    # The first three calls exit inside parse_args; no value of an earlier
    # call (--out, --name, --field) leaks into a later one.
    assert [vars(ns) for ns in parsed] == [
        vars(cli._build_parser().parse_args(argv)) for argv in calls[3:]]
    assert parsed[-1].out is None and parsed[-1].field is None
    assert Path(out).read_bytes() == derived
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 0, 0]
    assert shared[4] == shared[6] and shared[4][1].startswith("field: rational")


def test_main_builds_no_parser(f2_file, tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["verify", f2_file], ["report", f2_file, "--format", "json"],
                 ["check", "prop49", f2_file, "--field", "7"],
                 ["derive", "circle", f2_file, "--out",
                  str(tmp_path / "c.json")],
                 ["search", "rb-group", f2_file]):
        assert cli.main(argv) == 0
    assert built == []
    cli._build_parser()
    assert built                    # the counter sees a construction


def test_cocycle_and_brace_declarations(tmp_path, capsys):
    # brace from rb construction; cocycle via matrices is exercised through
    # the canonical identity cocycle of the flip brace
    doc = json.dumps({"version": 1, "declarations": [
        {"kind": "hopf", "name": "H", "group_algebra": {"dihedral": 3}},
        {"kind": "map", "name": "B", "on": "H", "group_map": "inversion"},
        {"kind": "rb", "name": "RB", "hopf": "H", "map": "B"},
        {"kind": "brace", "name": "Br", "rb": "RB"}]})
    path = tmp_path / "brace.json"
    path.write_text(doc)
    assert cli.main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "PASS  RB.rota-baxter" in out
    assert "PASS  Br.brace" in out
    assert cli.main(["check", "symmetric", str(path)]) == 0


def test_factorization_declaration(tmp_path, capsys):
    doc = json.dumps({"version": 1, "declarations": [
        {"kind": "hopf", "name": "H", "group_algebra": {"dihedral": 3}},
        {"kind": "factorization", "name": "F", "ambient": "H",
         "h": ["e"], "l": ["e", "r", "r2"], "m": ["e", "s"],
         "middle_rb": "unit-counit"}]})
    path = tmp_path / "fact.json"
    path.write_text(doc)
    assert cli.main(["verify", str(path)]) == 0
    assert "PASS  F.factorization" in capsys.readouterr().out


# Each entry replaces one field of the D3 factorization below with input
# that the parser must refuse.
BAD_FACTORIZATIONS = {
    "unknown-m-label": {"m": ["e", "zz"]},
    "list-as-label": {"l": [["e"]]},
    "images-not-object": {"middle_rb": {"images": 5}},
    "images-miss-l-label": {"middle_rb": {"images": {"e": "e", "r": "r"}}},
    "image-outside-l": {"middle_rb": {"images": {"e": "e", "r": "r2",
                                                 "r2": "s"}}},
    "unknown-spec": {"middle_rb": "bogus"},
    # sizes 2·3·1 match D3, so only the repeat itself can refuse it
    "repeated-h-label": {"h": ["e", "e"], "m": ["e"]},
}


@pytest.mark.parametrize("case", sorted(BAD_FACTORIZATIONS))
def test_bad_factorization_exits_two(tmp_path, capsys, case):
    decl = {"kind": "factorization", "name": "F", "ambient": "H",
            "h": ["e"], "l": ["e", "r", "r2"], "m": ["e", "s"],
            "middle_rb": "unit-counit", **BAD_FACTORIZATIONS[case]}
    path = tmp_path / "fact.json"
    path.write_text(json.dumps({"version": 1, "declarations": [
        {"kind": "hopf", "name": "H", "group_algebra": {"dihedral": 3}},
        decl]}))
    assert cli.main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


# -- definition paths through the entry point, over Q and F_7 ------------------

FIELD_FLAGS = {"rational": [], "7": ["--field", "7"]}

# A group declared alone and named by a group algebra, the symmetric and
# quaternion specs, a map declared by the images of its basis (i -> j -> k
# -> i, an automorphism of Q8) and the trivial group map.
GROUP_DOC = {"version": 1, "declarations": [
    {"kind": "group", "name": "S3", "group": {"symmetric": 3}},
    {"kind": "hopf", "name": "kS3", "group_algebra": "S3"},
    {"kind": "hopf", "name": "kQ8", "group_algebra": {"quaternion": True}},
    {"kind": "map", "name": "T", "on": "kS3", "group_map": "trivial",
     "rota_baxter": True},
    {"kind": "map", "name": "R", "on": "kQ8",
     "images": {"1": "1", "-1": "-1", "i": "j", "-i": "-j", "j": "k",
                "-j": "-k", "k": "i", "-k": "-i"}}]}

# the digest of the group S3, the same over every field, and of the map R
S3_DIGEST = "297f5258b6dc5e2bbc0958a2e0d5ef919efb79c7b11b45ff9e34cbc3b39f3b2c"
R_DIGESTS = {
    "rational": "23a8b95e5b248e770e0685cbaf82d3594ee82fbe01382d6c00e3af3d59acc67f",
    "7": "3ad7ac3a75056b82cbc9838d6b23e0be287058febf98605f24711fe97f27b646"}


def write_doc(tmp_path, doc) -> str:
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("field", sorted(FIELD_FLAGS))
def test_group_declarations_verify_and_search(tmp_path, capsys, field):
    path = write_doc(tmp_path, GROUP_DOC)
    code, out, err = run_main(["verify", path, *FIELD_FLAGS[field]], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:2] == [f"field: {field}", "PASS  S3.group-axioms"]
    for line in ("PASS  T.coalgebra-morphism", "PASS  T.rota-baxter",
                 "PASS  R.coalgebra-morphism", f"digest  S3  {S3_DIGEST}",
                 f"digest  R  {R_DIGESTS[field]}", "result: PASS (18 checks)"):
        assert line in lines
    # ROADMAP item 2 counts 8 operators on each of S3 and Q8
    code, out, err = run_main(["search", "rb-group", path,
                               *FIELD_FLAGS[field]], capsys)
    assert (code, err) == (0, "")
    assert [line for line in out.splitlines() if line.startswith("group")] == [
        "group S3: 8 operators", "group kQ8: 8 operators",
        "group kS3: 8 operators"]


BRACE_DOC = {"version": 1, "declarations": [
    {"kind": "hopf", "name": "H", "group_algebra": {"symmetric": 3}},
    {"kind": "brace", "name": "Flip", "flip": "H"},
    {"kind": "brace", "name": "Same", "dot": "H", "circle": "H"}]}


@pytest.mark.parametrize("field", sorted(FIELD_FLAGS))
def test_flip_and_dot_circle_brace_declarations(tmp_path, capsys, field):
    path = write_doc(tmp_path, BRACE_DOC)
    flags = FIELD_FLAGS[field]
    code, out, _ = run_main(["verify", path, *flags], capsys)
    assert code == 0
    assert "PASS  Flip.brace\nPASS  Same.brace\n" in out
    assert run_main(["check", "symmetric", path, "--name", "Flip", *flags],
                    capsys) == (0, "PASS  symmetric\n", "")
    assert run_main(["check", "op-module", path, "--name", "Same", *flags],
                    capsys) == (0, "PASS  op-module\n", "")


# middle_rb given by name and by the images of L.  On D3 = ⟨r⟩⟨s⟩ the
# inversion of L fails the hypothesis mC(l) = C(l)m at (m, l) = (s, r):
# s r2 = rs but r2 s.  On the abelian Z6 = ⟨g2⟩⟨g3⟩ it holds.
MIDDLE_RB = {
    "D3-inversion": ({"dihedral": 3}, ["e", "r", "r2"], ["e", "s"],
                     "inversion"),
    "D3-images": ({"dihedral": 3}, ["e", "r", "r2"], ["e", "s"],
                  {"images": {"e": "e", "r": "r2", "r2": "r"}}),
    "Z6-inversion": ({"cyclic": 6}, ["e", "g2", "g4"], ["e", "g3"],
                     "inversion"),
    "Z6-images": ({"cyclic": 6}, ["e", "g2", "g4"], ["e", "g3"],
                  {"images": {"e": "e", "g2": "g4", "g4": "g2"}}),
}
MIDDLE_RB_LINES = {
    "rational": "FAIL  F.factorization  [at (s, r): lhs = 1/1*rs, rhs = 1/1*r2s]",
    "7": "FAIL  F.factorization  [at (s, r): lhs = 1*rs, rhs = 1*r2s]"}


@pytest.mark.parametrize("field", sorted(FIELD_FLAGS))
@pytest.mark.parametrize("case", sorted(MIDDLE_RB))
def test_middle_rb_by_name_and_by_images(tmp_path, capsys, case, field):
    group, l, m, spec = MIDDLE_RB[case]
    path = write_doc(tmp_path, {"version": 1, "declarations": [
        {"kind": "hopf", "name": "H", "group_algebra": group},
        {"kind": "factorization", "name": "F", "ambient": "H",
         "h": ["e"], "l": l, "m": m, "middle_rb": spec}]})
    code, out, _ = run_main(["verify", path, *FIELD_FLAGS[field]], capsys)
    if case.startswith("D3"):
        assert code == 1
        assert MIDDLE_RB_LINES[field] in out.splitlines()
    else:
        assert code == 0
        assert "PASS  F.factorization" in out.splitlines()
