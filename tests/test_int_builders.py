"""The builders that sum Sweedler sums on int columns against their element
forms in ``conftest``: ``convolution``, ``twisted_product``, ``smash_mul``
and ``adjoint_map``.

Each output column must equal the element form's, coefficient by
coefficient and with the same scalar type (an int when integral, else a
reduced ``Fraction``), over Q and F_7: on the ``kernel_op`` carriers, on
the smash ambients of the dense ones, and on drawn dense maps.  The derive
documents of the dense carriers, whose columns have scales above 1, are
pinned by sha256.  Their kernel ``_leg_sum``, which groups a coproduct
column by its left leg, must equal the per-term sum on drawn int columns.
"""

import dataclasses
import hashlib
import json
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import hopfkit as hk
from hopfkit import cli
from hopfkit import hopf as hopf_mod
from hopfkit import linalg
from hopfkit.hopf import (adjoint_action, adjoint_map, convolution,
                          smash_mul, trivial_map, twisted_product)
from hopfkit.linalg import QQ, Element, Field, LinearOp, scaled_columns
from hopfkit.serialize import dump_document

from conftest import (KERNEL_OPS, reference_adjoint_map, reference_convolution,
                      reference_smash_mul_kh, reference_twisted_product)
from test_kernel_aliasing import SKIPPED
from test_render_json import derive, kernel_defs

FIELDS = [QQ, Field(7)]
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden"
                     / "kernel_derive_digests.json").read_text())


def typed(op):
    """Every column as its ``(index, scalar type, value)`` triples."""
    return [[(i, type(c).__name__, c) for i, c in sorted(col.coeffs.items())]
            for col in op.columns]


def assert_builders_match(h, f, g, m, act, smash=None):
    """All four builders on the carrier h against their element forms: f and
    g are maps from H, m a map on the tensor square of their codomains,
    ``act`` an action-shaped map H ⊗ H -> H, and ``smash`` the actor,
    carrier and action of ``smash_mul`` (by default H, H and act)."""
    ident = LinearOp.identity(h.space)
    assert typed(convolution(h.comul, f, g, m)) == \
        typed(reference_convolution(h, f, g, m))
    assert typed(twisted_product(h.comul, m, act, f=f, g=g)) == \
        typed(reference_twisted_product(h, m, act, f, g))
    assert typed(twisted_product(h.comul, m, act)) == \
        typed(reference_twisted_product(h, m, act, ident, ident))
    assert typed(adjoint_map(h)) == typed(reference_adjoint_map(h))
    assert_smash_matches(*(smash or (h, h, act)))


def assert_smash_matches(actor, carrier, act):
    space = linalg.tensor_space(actor.space, carrier.space)
    square = linalg.tensor_space(space, space)
    assert typed(smash_mul(actor, carrier, act, square)) == \
        typed(reference_smash_mul_kh(actor, carrier, act, square))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", sorted(KERNEL_OPS))
def test_builders_match_reference_on_kernel_op_carriers(kernel_op, name,
                                                        field):
    b = kernel_op(name, field)
    h = b.carrier
    # T = ((S∘B) ⋆ S) ⋆ B of descend, and the adjoint action
    sb = h.antipode.compose(b.map)
    assert_builders_match(h, sb, h.antipode, h.mul, adjoint_map(h))
    assert_builders_match(h, convolution(h.comul, sb, h.antipode, h.mul),
                          b.map, h.mul, adjoint_map(h))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", ["dense-Z2-inv", "dense-Z3-inv"])
def test_builders_match_reference_on_smash_ambients(kernel_op, name, field):
    h = kernel_op(name, field).carrier
    amb = hk.smash_product(h, h, adjoint_action(h)).product
    act = adjoint_map(amb)
    # the ambient acting on itself is 81-dimensional on dense Z3 (6561
    # columns), so smash_mul runs with H acting on it
    assert_builders_match(amb, LinearOp.identity(amb.space), amb.antipode,
                          amb.mul, act, (h, amb, trivial_map(h, amb)))


# -- drawn dense maps ------------------------------------------------------------

# Values with denominators 1 to 4: drawn columns hold non-integral
# coefficients, and sums of them reduce to ints or cancel.
VALUES = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2),
                          Fraction(1, 3), Fraction(-2, 3), Fraction(3, 4)])
# A map is one of the carrier's own ("id", "S", "B", "mul", "adj") or a dense
# one filled row by row from a drawn list of values, repeated to its size.
MAPS = st.sampled_from(["id", "S", "B"]) | st.lists(VALUES, min_size=1,
                                                     max_size=9).map(tuple)
PRODUCTS = st.sampled_from(["mul", "adj"]) | st.lists(
    VALUES, min_size=1, max_size=9).map(tuple)


def build(spec, h, b, domain):
    """The map ``spec`` on the carrier h with operator b, from ``domain``."""
    if spec == "adj":
        return adjoint_map(h)
    if isinstance(spec, str):
        return {"id": LinearOp.identity(h.space), "S": h.antipode, "B": b,
                "mul": h.mul}[spec]
    dim = h.dim
    return LinearOp(domain, h.space, [
        Element(h.space, {r: spec[(c * dim + r) % len(spec)]
                          for r in range(dim)}) for c in range(domain.dim)])


@settings(max_examples=30, deadline=None, database=None)
@given(field=st.sampled_from(FIELDS), name=st.sampled_from(sorted(KERNEL_OPS)),
       f=MAPS, g=MAPS, m=PRODUCTS, act=PRODUCTS, anti=MAPS)
# id ⋆ S = ε·1 on mixed S3: w5 = r2 - r2s has ε = 0, so its column cancels
# to zero, and w2 = r2 + r2s has Δ(w2) = (w2⊗w2 + w5⊗w5)/2 and ε = 2, an int
@example(field=QQ, name="mixed-S3-inv", f="id", g="S", m="mul", act="adj",
         anti="S")
@example(field=QQ, name="dense-Z3-inv", f=(Fraction(1, 2), -1, 0),
         g=(Fraction(1, 3), 2), m=(Fraction(3, 4), 1, -1, 0), act="adj",
         anti=(Fraction(-2, 3), 1))
def test_builders_match_reference_on_drawn_maps(kernel_op, field, name, f, g,
                                                m, act, anti):
    b = kernel_op(name, field)
    h = b.carrier
    # adjoint_map and smash_mul read h.antipode and h.mul
    h = dataclasses.replace(h, antipode=build(anti, h, b.map, h.space),
                            mul=build(m, h, b.map, h.hh))
    assert_builders_match(h, build(f, h, b.map, h.space),
                          build(g, h, b.map, h.space), h.mul,
                          build(act, h, b.map, h.hh))


def test_drawn_examples_reach_cancellation_fractions_and_ints(kernel_op):
    # the first example above: from columns with scale 2, one output column
    # cancels to zero and one sums to the int 2; x -> x_(1) x_(2) on dense Z3
    # gives Fractions
    h = kernel_op("mixed-S3-inv", QQ).carrier
    assert scaled_columns(h.comul)[0] == 2
    got = convolution(h.comul, LinearOp.identity(h.space), h.antipode, h.mul)
    assert len(h.comul.columns[5].coeffs) > 1 and got.columns[5].coeffs == {}
    assert typed(got)[2] == [(0, "int", 2)]
    h = kernel_op("dense-Z3-inv", QQ).carrier
    ident = LinearOp.identity(h.space)
    cols = typed(convolution(h.comul, ident, ident, h.mul))
    assert any(t == "Fraction" for col in cols for _, t, _ in col)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_builders_sum_no_elements(kernel_op, field):
    h = kernel_op("dense-Z3-inv", field).carrier
    act = adjoint_map(h)
    square = linalg.tensor_space(h.hh, h.hh)
    want = (typed(reference_convolution(h, h.antipode, h.antipode, h.mul)),
            typed(reference_twisted_product(h, h.mul, act, h.antipode,
                                            h.antipode)),
            typed(reference_smash_mul_kh(h, h, act, square)),
            typed(reference_adjoint_map(h)))

    def boom(*args, **kwargs):
        raise AssertionError("an element sum in an int builder")
    with mock.patch.object(linalg, "accumulate", boom), \
            mock.patch.object(hopf_mod, "apply2", boom), \
            mock.patch.object(hopf_mod, "_sum_mod", boom), \
            mock.patch.object(hopf_mod, "_sum_ratio", boom):
        got = (typed(convolution(h.comul, h.antipode, h.antipode, h.mul)),
               typed(twisted_product(h.comul, h.mul, act, f=h.antipode,
                                     g=h.antipode)),
               typed(smash_mul(h, h, act, square)), typed(adjoint_map(h)))
    assert got == want


# -- derive bytes with non-integral coefficients ------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", ["dense-Z2-inv", "dense-Z3-inv"])
def test_dense_derive_bytes_match_golden_digest(kernel_op, name, field):
    # recorded while the builders summed elements; every target but the
    # SKIPPED pairs of tests/test_kernel_aliasing.py
    golden = GOLDEN["rational" if field == QQ else str(field.p)]
    defs = kernel_defs(kernel_op(name, field))
    ran = []
    for what in cli.DERIVE_TARGETS:
        if what not in SKIPPED.get(name, ()):
            text = dump_document(derive(defs, what))
            assert hashlib.sha256(text.encode()).hexdigest() == \
                golden[f"{what} {name}"], what
            ran.append(f"{what} {name}")
    assert sorted(ran) == sorted(j for j in golden if j.endswith(name))


# -- the grouped Sweedler kernel ------------------------------------------------------

INTS = st.integers(-3, 3)


@st.composite
def leg_sums(draw):
    """Arguments of ``_leg_sum``: a table on an na ⊗ dim product, ``split``
    right legs (split != dim), left legs and a column whose flat indices
    repeat left legs, with weights that may be 0 or other than 1."""
    na, dim, nout, nleft = (draw(st.integers(1, 3)) for _ in range(4))
    split = draw(st.integers(1, 4).filter(lambda s: s != dim))

    def cols(n, size):
        return [tuple(draw(st.dictionaries(st.integers(0, size - 1), INTS,
                                           max_size=3)).items())
                for _ in range(n)]
    table = cols(na * dim, nout)
    col = draw(st.lists(st.tuples(st.integers(0, nleft * split - 1), INTS),
                        max_size=6, unique_by=lambda t: t[0]))
    return table, dim, col, split, cols(nleft, na), cols(split, dim)


def per_term_leg_sum(table, dim, col, split, left, right):
    """Σ c·table(left[q // split] ⊗ right[q % split]), one term at a time."""
    out: dict = {}
    for q, c in col:
        for a, x in left[q // split]:
            for b, y in right[q % split]:
                for k, t in table[a * dim + b]:
                    out[k] = out.get(k, 0) + c * x * y * t
    return out


def nonzero(d):
    return {k: v for k, v in d.items() if v}


def on_column(col):
    """A fixed table, legs and split (3, against dim 2) around ``col``."""
    table = [((0, 2),), ((0, 1), (1, 5)), ((1, 1),), ((0, -1), (1, 2))]
    return (table, 2, col, 3, [((0, 1), (1, 2)), ((1, 3),)],
            [((1, 1),), ((0, 3),), ((0, 1), (1, -1))])


@settings(max_examples=300, deadline=None, database=None)
@given(args=leg_sums())
@example(args=on_column(((4, -2),)))
@example(args=on_column(((0, 2), (1, 3), (2, 1), (4, -1))))
@example(args=on_column(()))
def test_leg_sum_is_the_per_term_sum(args):
    assert nonzero(hopf_mod._leg_sum(*args)) == \
        nonzero(per_term_leg_sum(*args))
