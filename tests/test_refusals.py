"""Refusals of malformed inputs: each test builds one input that a check
of shapes, fields or factors refuses before any sweep runs, and pins the
exception type and message.  The CLI cases pin the exit code and the
``error:`` line of the real entry point.
"""

import json

import pytest

import hopfkit as hk
from hopfkit import brace as brace_mod
from hopfkit import cli
from hopfkit import fixtures as fx
from hopfkit import groups as gr
from hopfkit import hopf as hopf_mod
from hopfkit.errors import (ConstructionInvalid, DimensionMismatch,
                            FieldMismatch, NotCoalgebraMap)
from hopfkit.hopf import HopfAlgebraData, trivial_map
from hopfkit.linalg import BasedSpace, Field, LinearOp

from conftest import sweedler_four_dim


def refused(exc_type, message, fn, *args):
    with pytest.raises(exc_type) as exc:
        fn(*args)
    assert type(exc.value) is exc_type
    assert str(exc.value) == message


def zero_map(domain, codomain):
    return LinearOp.zero(domain.space, codomain.space)


# -- Hopf structures and linear maps -------------------------------------------

@pytest.mark.parametrize("part, message", [
    ("mul", "mul must map H⊗H to H"),
    ("comul", "comul must map H to H⊗H"),
    ("counit", "counit must map H to the ground field"),
    ("antipode", "antipode must map H to H"),
    ("unit", "unit must live in H")])
def test_structure_maps_of_the_wrong_shape_are_refused(part, message):
    h = fx.f1()
    maps = {"mul": h.mul, "unit": h.unit, "comul": h.comul,
            "counit": h.counit, "antipode": h.antipode}
    maps[part] = {"mul": h.antipode, "comul": h.antipode,
                  "counit": h.antipode, "antipode": h.counit,
                  "unit": h.hh.basis(0)}[part]
    refused(DimensionMismatch, message, HopfAlgebraData, h.space,
            maps["mul"], maps["unit"], maps["comul"], maps["counit"],
            maps["antipode"])


def test_linear_maps_of_the_wrong_shape_are_refused():
    two = BasedSpace(("a", "b"))
    three = BasedSpace(("x", "y", "z"))
    refused(DimensionMismatch, "expected 2 columns, got 1", LinearOp,
            two, two, [two.basis(0)])
    refused(DimensionMismatch, "column lives in the wrong codomain",
            LinearOp, two, two, [three.basis(0), two.basis(1)])
    seven = BasedSpace(("a", "b"), Field(7))
    refused(FieldMismatch, "domain and codomain over different fields",
            LinearOp, two, seven, [seven.basis(0), seven.basis(1)])
    refused(DimensionMismatch, "only square maps can be inverted", hk.invert,
            LinearOp.zero(two, three))


def test_builders_refuse_mismatched_carriers():
    h, k = fx.f1(), hk.group_algebra(gr.cyclic(3))
    refused(DimensionMismatch, "tensor factors over different fields",
            hk.tensor_hopf, h, fx.f1(Field(7)))
    refused(DimensionMismatch, "transport map must start at the carrier",
            hk.transport_hopf, h, LinearOp.identity(k.space))
    refused(DimensionMismatch, "map does not go from H to K",
            hk.check_coalgebra_morphism, h.antipode, h, k)
    refused(DimensionMismatch, "action must map K⊗H to H", hk.ModuleAction,
            h, k, trivial_map(k, h))


def test_parts_that_are_no_hopf_subalgebra_are_refused():
    # Sweedler's algebra (1, g, x, gx): {1, x} is closed under the product
    # (x² = 0) but S(x) = -gx; {1, x, gx} under the product and S, but
    # Δ(x) = x⊗1 + g⊗x leaves it
    h4 = sweedler_four_dim()
    stage = "construction invalid at stage 'sub-hopf': "
    for labels, message in (
            (["g"], "part does not contain the unit"),
            (["1", "x"], "part not closed under the antipode at x"),
            (["1", "x", "gx"], "part is not a subcoalgebra at x")):
        refused(ConstructionInvalid, stage + message,
                hopf_mod.sub_hopf_indices, h4, labels)


# -- constructions on two carriers ---------------------------------------------

def test_braces_refuse_structures_on_different_coalgebras():
    h = fx.f2()
    other = fx.f1()
    refused(DimensionMismatch, "brace structures must share one space",
            hk.verify_brace, h, other)
    comul = LinearOp(h.space, h.hh, [h.hh.basis(0)] * h.dim)
    circle = HopfAlgebraData(h.space, h.mul, h.unit, comul, h.counit,
                             h.antipode)
    refused(DimensionMismatch, "brace structures must share the coalgebra",
            hk.verify_brace, h, circle)
    circle = HopfAlgebraData(h.space, h.mul, h.basis(1), h.comul, h.counit,
                             h.antipode)
    refused(ConstructionInvalid, "construction invalid at stage 'units': the "
            "two units differ; every construction in scope forces a shared "
            "unit", brace_mod.verify_brace, h, circle)


def test_matched_pairs_refuse_actions_of_the_wrong_shape():
    h = fx.f1()
    lact = trivial_map(h, h)
    refused(DimensionMismatch, "left action must map K⊗H to H",
            hk.verify_matched_pair, h, h, h.antipode, lact)
    refused(DimensionMismatch, "right action must map K⊗H to K",
            hk.verify_matched_pair, h, h, lact, h.antipode)


def test_relative_operators_and_cocycles_refuse_wrong_factors():
    # K = Q[Z2] and H = Q[Z3]; a relative operator K -> H needs H acting on
    # K, a cocycle H -> A the source acting on the target A
    k, h = fx.f1(), hk.group_algebra(gr.cyclic(3))
    acts = hk.trivial_action(h, k)
    refused(DimensionMismatch, "action actor must be the target Hopf algebra",
            hk.verify_relative_rb, k, h, hk.trivial_action(k, h),
            zero_map(k, h))
    refused(DimensionMismatch,
            "action carrier must be the source Hopf algebra",
            hk.verify_relative_rb, k, h, hk.trivial_action(h, h),
            zero_map(k, h))
    refused(NotCoalgebraMap, "tau is not a coalgebra morphism",
            hk.verify_relative_rb, k, h, acts, zero_map(k, h))
    refused(DimensionMismatch, "action actor must be the source Hopf algebra",
            hk.verify_cocycle, k, h, hk.trivial_action(h, k), zero_map(k, h))
    refused(DimensionMismatch,
            "action carrier must be the target Hopf algebra",
            hk.verify_cocycle, k, h, hk.trivial_action(k, k), zero_map(k, h))
    refused(NotCoalgebraMap, "pi is not a coalgebra morphism",
            hk.verify_cocycle, h, k, acts, zero_map(h, k))


def test_factor_constructions_refuse_operators_and_actions_elsewhere():
    z2, z3 = fx.f1(), hk.group_algebra(gr.cyclic(3))
    on_z2 = fx.b_inv(z2)
    fact = hk.triple_factorization(fx.f2(), ["e"], ["e", "r", "r2"],
                                   ["e", "s"])
    refused(DimensionMismatch, "operator must live on the middle factor L",
            hk.rb_from_triple_factorization, fact, on_z2)
    refused(DimensionMismatch, "the action actor must be the right factor K",
            hk.smash_product, z3, z2, hk.trivial_action(z3, z3))
    refused(DimensionMismatch,
            "the action carrier must be the left factor H",
            hk.smash_product, z3, z2, hk.trivial_action(z2, z2))
    sp = hk.smash_product(z2, z2, hk.trivial_action(z2, z2))
    refused(DimensionMismatch, "operator must live on the right factor K",
            hk.rb_on_smash, sp, fx.b_inv(z3))


# -- the command line -----------------------------------------------------------

@pytest.mark.parametrize("args, line", [
    ([], "error: no map declaration found"),
    (["--name", "Br"], "error: 'Br' does not name a (hopf, map) pair")])
def test_check_without_a_map_exits_two(args, line, tmp_path, capsys):
    path = tmp_path / "brace.json"
    path.write_text(json.dumps({"version": 1, "declarations": [
        {"kind": "hopf", "name": "S3", "group_algebra": {"dihedral": 3}},
        {"kind": "brace", "name": "Br", "flip": "S3"}]}))
    assert cli.main(["check", "prop48", str(path), *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == line + "\n"
