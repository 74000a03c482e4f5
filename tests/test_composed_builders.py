"""Builders of derived maps that are compositions of maps, and structures
carried along maps: each against the loop it replaced, kept in conftest.py
as a reference oracle, over Q and F_7, on the dense carriers of
``kernel_op`` and on edited inputs."""

import dataclasses
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import hopfkit as hk
from hopfkit import brace as brace_mod
from hopfkit import cocycle as cocycle_mod
from hopfkit import constructions as constr_mod
from hopfkit import groups as gr
from hopfkit import hopf as hopf_mod
from hopfkit.brace import derived_action_map
from hopfkit.cocycle import Cocycle
from hopfkit.errors import (ConstructionInvalid, HypothesisFails,
                            NotExactFactorization)
from hopfkit.hopf import (ModuleAction, adjoint_map, smash_hopf,
                          tensor_coalgebra, transport_hopf, trivial_map,
                          twisted_product)
from hopfkit.linalg import (QQ, BasedSpace, Element, Field, LinearOp,
                            flip_tensor, invert, kron, tensor_elem,
                            tensor_space)
from hopfkit.rb import RotaBaxterOp

from conftest import (KERNEL_OPS, Built, edited, reference_beta,
                      reference_cocycle_circle, reference_embedding_operator,
                      reference_factorization_circle, reference_onto_hk,
                      reference_phi, reference_restriction,
                      reference_smash_antipode, reference_transport_tables,
                      reference_triple_rb_columns, sweedler_four_dim)

FIELDS = [QQ, Field(7)]
ORACLE = settings(max_examples=25, deadline=None, database=None)
EDITS = dict(col=st.integers(0, 80), row=st.integers(0, 80),
             offset=st.one_of(st.none(), st.integers(1, 6),
                              st.fractions(min_value=-2, max_value=2,
                                           max_denominator=3).filter(bool)))
# one operator per dense carrier: Z2, Z3 and S3 with r2 and r2s mixed
CARRIERS = ["dense-Z2-inv", "dense-Z3-inv", "mixed-S3-inv"]


def unitriangular(space, target=None):
    """The bijection e_i -> t_i + Σ_{j<i} (j+1)/2 t_j from ``space`` onto
    ``target`` (fresh labels v0, v1, ... when None), invertible over every
    field of odd characteristic."""
    if target is None:
        target = BasedSpace(tuple(f"v{i}" for i in range(space.dim)),
                            space.field)
    return LinearOp(space, target, [
        Element(target, {j: Fraction(j + 1, 2) if j < i else 1
                         for j in range(i + 1)}) for i in range(space.dim)])


def raise_built(*args):
    """Stands in for the step after the builder: hands back its last
    argument."""
    raise Built(args[-1])


# -- transport, the cocycle circle, β and B' on the dense carriers ---------------

@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", CARRIERS)
def test_transport_is_the_loop(kernel_op, field, name):
    h = kernel_op(name, field).carrier
    p = unitriangular(h.space)
    k = transport_hopf(h, p)
    assert (list(k.mul.columns), list(k.comul.columns),
            list(k.counit.columns)) == reference_transport_tables(h, p)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", CARRIERS)
def test_cocycle_circle_is_the_loop(kernel_op, field, name):
    # π is a bijection of H onto itself that is no algebra map, so
    # π(π⁻¹(a) π⁻¹(b)) is a product of its own; verify_brace would refuse
    # it, so the table is read off before.
    h = kernel_op(name, field).carrier
    pi = unitriangular(h.space, h.space)
    pi_inv = invert(pi)
    with mock.patch.object(cocycle_mod, "verify_brace", raise_built):
        with pytest.raises(Built) as exc:
            hk.rb_hopf_from_cocycle(Cocycle(h, h, None, pi, pi_inv))
    circle = exc.value.args[0]
    assert list(circle.mul.columns) == reference_cocycle_circle(h, pi, pi_inv)
    assert circle.antipode == pi.compose(h.antipode).compose(pi_inv)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", CARRIERS)
def test_cocycle_circle_keeps_the_target_coalgebra(kernel_op, field, name):
    # The canonical cocycle of a brace, moved along a dense bijection ψ of
    # its target: π = ψ is a verified cocycle onto ψ(A), so the carried
    # unit, Δ and ε are those of ψ(A).
    br = hk.brace_from_rb(kernel_op(name, field))
    psi = unitriangular(br.dot.space)
    a = transport_hopf(br.dot, psi)
    act = psi.compose(derived_action_map(br)).compose(
        kron(LinearOp.identity(br.dot.space), invert(psi)))
    c = hk.verify_cocycle(br.circle, a, ModuleAction(br.circle, a, act), psi)
    with mock.patch.object(cocycle_mod, "verify_brace", raise_built):
        with pytest.raises(Built) as exc:
            hk.rb_hopf_from_cocycle(c)
    circle = exc.value.args[0]
    assert (circle.unit, circle.comul, circle.counit) == \
        (a.unit, a.comul, a.counit)
    assert list(circle.mul.columns) == \
        reference_cocycle_circle(br.circle, psi, c.pi_inverse)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", sorted(KERNEL_OPS))
def test_beta_is_the_loop(kernel_op, field, name):
    b = kernel_op(name, field)
    h = b.carrier
    post = hk.posthopf_from_rb(b)
    s_star = hk.convolution_inverse(h, LinearOp.identity(h.space),
                                    twisted_product(h.comul, h.mul, post.tri),
                                    h.unit)
    assert list(post.beta.columns) == reference_beta(h, post.tri, s_star)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", sorted(KERNEL_OPS))
def test_embedding_operator_is_the_loop(kernel_op, field, name):
    br = hk.brace_from_rb(kernel_op(name, field))
    emb = hk.embed_into_rb(br)
    assert list(emb.rb.map.columns) == \
        reference_embedding_operator(br.dot, br.circle)


# -- the smash antipode, unvalidated, on dense and non-cocommutative actors -------

@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", CARRIERS)
def test_smash_antipode_is_the_loop(kernel_op, field, name):
    h = kernel_op(name, field).carrier
    other = kernel_op("dense-Z3-inv", field).carrier
    for actor, carrier, act in ((h, h, adjoint_map(h)),
                                (h, other, trivial_map(h, other)),
                                (other, h, trivial_map(other, h))):
        assert list(smash_hopf(actor, carrier, act).antipode.columns) == \
            reference_smash_antipode(actor, carrier, act)


def smash_inputs(which, field, kernel_op):
    """(actor, carrier, act): Sweedler's 4-dimensional algebra acting on
    itself by its adjoint action or on dense Z3 trivially, or dense S3
    acting on itself by its adjoint action."""
    h4 = sweedler_four_dim(field)
    z3 = kernel_op("dense-Z3-inv", field).carrier
    s3 = kernel_op("mixed-S3-inv", field).carrier
    return {"sweedler-adjoint": (h4, h4, adjoint_map(h4)),
            "sweedler-on-z3": (h4, z3, trivial_map(h4, z3)),
            "s3-adjoint": (s3, s3, adjoint_map(s3))}[which]


@ORACLE
@given(field=st.sampled_from(FIELDS),
       which=st.sampled_from(["sweedler-adjoint", "sweedler-on-z3",
                              "s3-adjoint"]),
       part=st.sampled_from(["act", "actor-antipode", "carrier-antipode",
                             "actor-comul"]), **EDITS)
def test_smash_antipode_is_the_loop_on_edits(kernel_op, field, which, part,
                                             col, row, offset):
    actor, carrier, act = smash_inputs(which, field, kernel_op)
    if part == "act":
        act = edited(act, col, row, offset)
    elif part == "actor-antipode":
        actor = dataclasses.replace(
            actor, antipode=edited(actor.antipode, col, row, offset))
    elif part == "carrier-antipode":
        carrier = dataclasses.replace(
            carrier, antipode=edited(carrier.antipode, col, row, offset))
    else:
        actor = dataclasses.replace(
            actor, comul=edited(actor.comul, col, row, offset))
    assert list(smash_hopf(actor, carrier, act).antipode.columns) == \
        reference_smash_antipode(actor, carrier, act)


# -- structures carried along maps: restriction and the smash flip ----------------

# Hopf subalgebras spanned by transported basis vectors: the whole dense Z2
# and Z3, and k[Z2] inside S3 twice (e with s, e with rs)
SUBALGEBRAS = [("dense-Z2-inv", ["w0", "w1"]),
               ("dense-Z3-inv", ["w0", "w1", "w2"]),
               ("mixed-S3-inv", ["w0", "w3"]), ("mixed-S3-inv", ["w0", "w4"])]


def tables(h):
    return (list(h.mul.columns), h.unit, list(h.comul.columns),
            list(h.counit.columns), list(h.antipode.columns))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name, labels", SUBALGEBRAS)
def test_sub_hopf_is_the_restriction(kernel_op, field, name, labels):
    h = kernel_op(name, field).carrier
    idx = [h.space.index_of(x) for x in labels]
    sub, inclusion = hk.sub_hopf(h, labels)
    assert tables(sub) == reference_restriction(h, idx)
    assert list(inclusion.columns) == [h.basis(i) for i in idx]


@ORACLE
@given(field=st.sampled_from(FIELDS), labels=st.sampled_from(
    [["w0", "w3"], ["w0", "w4"]]), part=st.sampled_from(
    ["mul", "comul", "counit", "antipode"]), **EDITS)
def test_sub_hopf_is_the_restriction_on_edits(kernel_op, field, labels, part,
                                              col, row, offset):
    # The entry edited lies in a column and a row of the part, so the part
    # stays closed; the restriction is read off before it is verified.
    h = kernel_op("mixed-S3-inv", field).carrier
    idx = [h.space.index_of(x) for x in labels]
    n, dim = len(idx), h.dim
    i, j, a, b = (idx[x % n] for x in (col, col // n, row, row // n))
    at = {"mul": (i * dim + j, a), "comul": (i, a * dim + b),
          "counit": (i, 0), "antipode": (i, a)}[part]
    h = dataclasses.replace(h, **{part: edited(getattr(h, part), *at,
                                               offset)})
    with mock.patch.object(hopf_mod, "verify_hopf", raise_built):
        with pytest.raises(Built) as exc:
            hk.sub_hopf(h, labels)
    assert tables(exc.value.args[0]) == reference_restriction(h, idx)


def check_onto_hk(actor, carrier, act):
    """``_onto_hk`` of the K ⊗ H product and antipode of ``smash_hopf``
    against the reindexing loop.  The K ⊗ H coalgebra and unit, carried
    along the same flip, are the middle-flip coalgebra and the unit of
    H ⊗ K, which ``smash_product`` takes from the tensor product."""
    kh = smash_hopf(actor, carrier, act)
    comul, counit = tensor_coalgebra(carrier, actor)
    space = comul.domain
    for op in (kh.mul, kh.antipode):
        assert constr_mod._onto_hk(op, space, carrier.dim) == \
            reference_onto_hk(op, space, carrier.dim)
    flip = LinearOp(kh.space, space, [flip_tensor(kh.space, space, e, carrier.dim)
                                      for e in kh._basis])
    carried = hopf_mod._carried(kh, flip, invert(flip))
    assert (carried.comul, carried.counit) == (comul, counit)
    assert carried.unit == tensor_elem(space, carrier.unit, actor.unit)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", CARRIERS)
def test_onto_hk_is_the_reindexing(kernel_op, field, name):
    h = kernel_op(name, field).carrier
    other = kernel_op("dense-Z3-inv", field).carrier
    for actor, carrier, act in ((h, h, adjoint_map(h)),
                                (h, other, trivial_map(h, other)),
                                (other, h, trivial_map(other, h))):
        check_onto_hk(actor, carrier, act)


@ORACLE
@given(field=st.sampled_from(FIELDS),
       which=st.sampled_from(["sweedler-adjoint", "sweedler-on-z3",
                              "s3-adjoint"]),
       part=st.sampled_from(["act", "actor-mul", "actor-antipode",
                             "carrier-antipode", "actor-comul"]), **EDITS)
def test_onto_hk_is_the_reindexing_on_edits(kernel_op, field, which, part,
                                            col, row, offset):
    actor, carrier, act = smash_inputs(which, field, kernel_op)
    if part == "act":
        act = edited(act, col, row, offset)
    elif part == "carrier-antipode":
        carrier = dataclasses.replace(
            carrier, antipode=edited(carrier.antipode, col, row, offset))
    else:
        key = part.split("-")[1]
        actor = dataclasses.replace(
            actor, **{key: edited(getattr(actor, key), col, row, offset)})
    check_onto_hk(actor, carrier, act)


# -- the two factorization builders ------------------------------------------------

TRIPLES = [
    (gr.dihedral(3), ["e"], ["e", "r", "r2"], ["e", "s"]),
    (gr.cyclic(6), ["e"], ["e", "g2", "g4"], ["e", "g3"]),
    (gr.cyclic(6), ["e", "g3"], ["e", "g2", "g4"], ["e"]),
]
_TRIPLES: dict = {}


def triple(case, field):
    if (case, field) not in _TRIPLES:
        group, *labels = TRIPLES[case]
        _TRIPLES[case, field] = hk.triple_factorization(
            hk.group_algebra(group, field), *labels)
    return _TRIPLES[case, field]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("case", range(len(TRIPLES)))
def test_triple_factorization_operator_is_the_loop(field, case):
    f = triple(case, field)
    c = hk.verify_rb(f.sub_l, hk.unit_counit_map(f.sub_l))
    b = hk.rb_from_triple_factorization(f, c)
    assert list(b.map.columns) == reference_triple_rb_columns(f, c)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("case", range(len(TRIPLES)))
def test_triple_factorization_phi_is_the_loop(field, case):
    f = triple(case, field)
    assert list(invert(f.factor).columns) == \
        reference_phi(f.ambient, f.h_idx, f.l_idx, f.m_idx)


@ORACLE
@given(field=st.sampled_from(FIELDS), case=st.sampled_from(range(len(TRIPLES))),
       **EDITS)
def test_triple_factorization_phi_is_the_loop_on_edits(field, case, col, row,
                                                       offset):
    # An edited product is no longer associative, so φ must bracket each
    # word as (hl)m; φ is read off before it is inverted.
    group, *labels = TRIPLES[case]
    g = hk.group_algebra(group, field)
    g = dataclasses.replace(g, mul=edited(g.mul, col, row, offset))
    with mock.patch.object(constr_mod, "invert", raise_built):
        try:
            hk.triple_factorization(g, *labels)
        except (ConstructionInvalid, HypothesisFails):
            assume(False)   # a part is not closed, or lh = hl fails
        except Built as exc:
            phi = exc.args[0]
    idx = [sorted(g.space.index_of(x) for x in part) for part in labels]
    assert list(phi.columns) == reference_phi(g, *idx)


@ORACLE
@given(field=st.sampled_from(FIELDS), case=st.sampled_from([1, 2]),
       part=st.sampled_from(["factor", "c", "counit", "antipode"]), **EDITS)
def test_triple_factorization_operator_is_the_loop_on_edits(field, case, part,
                                                            col, row, offset):
    # Z6 is abelian, so mC(l) = C(l)m holds for every edited C; the map is
    # read off before verify_rb.  A counit edit moves ε on the part H.
    f = triple(case, field)
    g = f.ambient
    maps = {"factor": f.factor, "c": hk.unit_counit_map(f.sub_l),
            "counit": g.counit, "antipode": g.antipode}
    if part == "counit":
        col = f.h_idx[col % len(f.h_idx)]
    maps[part] = edited(maps[part], col, row, offset)
    g = dataclasses.replace(g, counit=maps["counit"],
                            antipode=maps["antipode"])
    f = dataclasses.replace(f, ambient=g, factor=maps["factor"])
    c = RotaBaxterOp(f.sub_l, maps["c"], True)
    with mock.patch.object(constr_mod, "verify_rb", raise_built):
        with pytest.raises(Built) as exc:
            hk.rb_from_triple_factorization(f, c)
    assert list(exc.value.args[0].columns) == reference_triple_rb_columns(f, c)


EXACT = [
    (gr.dihedral(3), ["e", "r", "r2"], ["e", "s"]),
    (gr.dihedral(4), ["e", "r", "r2", "r3"], ["e", "s"]),
    (gr.cyclic(6), ["e", "g2", "g4"], ["e", "g3"]),
]


def exact_parts(h, a_labels, b_labels):
    """The ambient indices of A and B and the multiplication map
    A ⊗ B -> H."""
    a_idx, b_idx = (sorted(h.space.index_of(x) for x in labels)
                    for labels in (a_labels, b_labels))
    ab = tensor_space(*(BasedSpace(tuple(h.label(i) for i in idx), h.field)
                        for idx in (a_idx, b_idx)))
    return a_idx, b_idx, LinearOp(ab, h.space, [h.mul_basis(i, j) for i in a_idx
                                                for j in b_idx])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("case", range(len(EXACT)))
def test_exact_factorization_circle_is_the_loop(field, case):
    group, a_labels, b_labels = EXACT[case]
    h = hk.group_algebra(group, field)
    br = hk.brace_from_exact_factorization(h, a_labels, b_labels)
    a_idx, b_idx, phi = exact_parts(h, a_labels, b_labels)
    assert list(br.circle.mul.columns) == \
        reference_factorization_circle(h, a_idx, b_idx, invert(phi))


@ORACLE
@given(field=st.sampled_from(FIELDS), case=st.sampled_from(range(len(EXACT))),
       part=st.sampled_from(["factor", "mul"]), **EDITS)
def test_exact_factorization_circle_is_the_loop_on_edits(field, case, part,
                                                         col, row, offset):
    # An edited product is no longer associative, so the brackets of
    # a a' b' b must be those of the loop.  The table is read off before
    # the antipode is solved for.
    group, a_labels, b_labels = EXACT[case]
    h = hk.group_algebra(group, field)
    if part == "mul":
        h = dataclasses.replace(h, mul=edited(h.mul, col, row, offset))

    def factor(phi):
        inv = invert(phi)
        return edited(inv, col, row, offset) if part == "factor" else inv

    def stop(source, f, target_mul, target_unit):
        raise Built(target_mul)
    with mock.patch.object(brace_mod, "invert", factor), \
            mock.patch.object(brace_mod, "convolution_inverse", stop):
        try:
            hk.brace_from_exact_factorization(h, a_labels, b_labels)
        except (ConstructionInvalid, NotExactFactorization):
            assume(False)   # a part is not closed, or A ⊗ B -> H is singular
        except Built as exc:
            circle_mul = exc.args[0]
    a_idx, b_idx, phi = exact_parts(h, a_labels, b_labels)
    assert list(circle_mul.columns) == \
        reference_factorization_circle(h, a_idx, b_idx, factor(phi))
