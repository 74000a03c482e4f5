"""Matched pairs, Yang-Baxter maps, and brace reconstruction."""

from fractions import Fraction

import pytest

import hopfkit as hk
from hopfkit import fixtures as fx
from hopfkit import groups as gr
from hopfkit.errors import AxiomFails
from hopfkit.hopf import transport_hopf
from hopfkit.linalg import (QQ, BasedSpace, Element, Field, LinearOp,
                            accumulate, invert, tensor_index, tensor_space)


def test_trivial_actions_form_matched_pair(f2):
    lact = LinearOp(f2.hh, f2.space,
                    [f2.basis(a).scale(f2._eps[x])
                     for x in range(6) for a in range(6)])
    ract = LinearOp(f2.hh, f2.space,
                    [f2.basis(x).scale(f2._eps[a])
                     for x in range(6) for a in range(6)])
    hk.verify_matched_pair(f2, f2, lact, ract)


def test_matched_pair_from_b_inv(f2, b_inv_f2):
    m = hk.matched_pair_from_rb(b_inv_f2)
    g = gr.dihedral(3)
    for h in range(6):
        for k in range(6):
            # h ⇀ k = h^{-1} k h and h ↼ k = h on group-likes
            want = f2.space.basis(g.mul(g.mul(g.inv(h), k), h))
            assert m.lact.columns[tensor_index(h, k, 6)] == want
            assert m.ract.columns[tensor_index(h, k, 6)] == f2.space.basis(h)


def test_matched_pair_from_b_eps(f2, b_eps_f2):
    # ε-collapse: h ⇀ k = k and h ↼ k = S(k_(1)) h k_(2) (conjugation)
    m = hk.matched_pair_from_rb(b_eps_f2)
    g = gr.dihedral(3)
    for h in range(6):
        for k in range(6):
            assert m.lact.columns[tensor_index(h, k, 6)] == f2.space.basis(k)
            want = f2.space.basis(g.mul(g.mul(g.inv(k), h), k))
            assert m.ract.columns[tensor_index(h, k, 6)] == want


def test_matched_pair_abelian_trivial(f1):
    m = hk.matched_pair_from_rb(fx.b_inv(f1))
    for h in range(2):
        for k in range(2):
            assert m.lact.columns[tensor_index(h, k, 2)] == f1.space.basis(k)
            assert m.ract.columns[tensor_index(h, k, 2)] == f1.space.basis(h)


def test_multiplication_as_left_action_rejected(f2):
    lact = LinearOp(f2.hh, f2.space,
                    [f2.mul_basis(x, a) for x in range(6) for a in range(6)])
    ract = LinearOp(f2.hh, f2.space,
                    [f2.basis(x).scale(f2._eps[a])
                     for x in range(6) for a in range(6)])
    with pytest.raises(AxiomFails):
        hk.verify_matched_pair(f2, f2, lact, ract)


# -- Yang-Baxter maps ---------------------------------------------------------------

def test_ybe_from_b_inv_conjugation_braiding(f2, b_inv_f2):
    y = hk.ybe_from_rb(b_inv_f2)
    g = gr.dihedral(3)
    hh = tensor_space(f2.space, f2.space)
    for a in range(6):
        for b in range(6):
            u = g.mul(g.mul(g.inv(a), b), a)   # a^{-1} b a
            want = hh.basis(tensor_index(u, a, 6))
            assert y.c.columns[tensor_index(a, b, 6)] == want


def test_ybe_inverse_formula(f2, b_inv_f2):
    # c^{-1}(u ⊗ v) = v ⊗ v u v^{-1} on group-likes
    y = hk.ybe_from_rb(b_inv_f2)
    g = gr.dihedral(3)
    hh = tensor_space(f2.space, f2.space)
    for u in range(6):
        for v in range(6):
            want = hh.basis(tensor_index(v, g.mul(g.mul(v, u), g.inv(v)), 6))
            assert y.c_inverse.columns[tensor_index(u, v, 6)] == want


def test_ybe_two_sided_inverse(f2, b_inv_f2):
    y = hk.ybe_from_rb(b_inv_f2)
    assert y.c.compose(y.c_inverse).is_identity()
    assert y.c_inverse.compose(y.c).is_identity()


def test_ybe_from_b_eps(f2, b_eps_f2):
    # c(g⊗h) = h ⊗ h^{-1} g h: the conjugation braiding of the trivial action
    y = hk.ybe_from_rb(b_eps_f2)
    g = gr.dihedral(3)
    hh = tensor_space(f2.space, f2.space)
    for a in range(6):
        for b in range(6):
            want = hh.basis(tensor_index(b, g.mul(g.mul(g.inv(b), a), b), 6))
            assert y.c.columns[tensor_index(a, b, 6)] == want


def test_ybe_abelian_is_flip(f1):
    y = hk.ybe_from_rb(fx.b_eps(f1))
    hh = tensor_space(f1.space, f1.space)
    for a in range(2):
        for b in range(2):
            assert y.c.columns[tensor_index(a, b, 2)] == \
                hh.basis(tensor_index(b, a, 2))


def test_ybe_across_s3_corpus():
    for op in gr.enumerate_rb_group_ops(gr.dihedral(3)):
        hk.ybe_from_rb(gr.lift_to_group_algebra(op))


# -- brace reconstruction ---------------------------------------------------------------

def test_brace_from_matched_pair_round_trip(f2, b_inv_f2):
    m = hk.matched_pair_from_rb(b_inv_f2)
    circle = hk.descend(b_inv_f2).hopf
    br = hk.brace_from_matched_pair(m, circle)
    assert br.dot.mul == f2.mul
    assert br.dot.antipode == f2.antipode


def test_brace_from_matched_pair_trivial(f2, b_eps_f2):
    m = hk.matched_pair_from_rb(b_eps_f2)
    circle = hk.descend(b_eps_f2).hopf
    br = hk.brace_from_matched_pair(m, circle)
    assert br.dot.mul == f2.mul


def test_brace_round_trip_across_corpus():
    for op in gr.enumerate_rb_group_ops(gr.dihedral(3)):
        lift = gr.lift_to_group_algebra(op)
        m = hk.matched_pair_from_rb(lift)
        circle = hk.descend(lift).hopf
        br = hk.brace_from_matched_pair(m, circle)
        assert br.dot.mul == lift.carrier.mul
        assert br.dot.antipode == lift.carrier.antipode


# -- oracle: the actions term by term ---------------------------------------------------

def reference_actions(b):
    """The lact and ract columns of matched_pair_from_rb, with every map
    applied and every five-factor product formed inside each pair of
    Sweedler terms of x and a."""
    h = b.carrier
    dim = h.dim
    field = h.field
    lact = []
    for x in range(dim):
        wings = [(c, b.map.columns[x1], h.antipode(b.map.columns[x2]))
                 for c, (x1, x2) in h.sweedler(x, 2)]
        for a in range(dim):
            lact.append(accumulate(h.space, (
                (c, h.product_many([left, h.basis(a), right]))
                for c, left, right in wings)))
    ract = []
    for x in range(dim):
        for a in range(dim):
            terms = []
            for cx, (x1, x2, x3, x4, x5) in h.sweedler(x, 5):
                for ca, (a1, a2, a3, a4) in h.sweedler(a, 4):
                    u1 = lact[tensor_index(x1, a1, dim)]
                    u2 = lact[tensor_index(x2, a2, dim)]
                    u3 = lact[tensor_index(x4, a3, dim)]
                    u4 = lact[tensor_index(x5, a4, dim)]
                    terms.append((field.mul(cx, ca), h.product_many(
                        [h.antipode(b.map(u1)), h.antipode(u2), h.basis(x3),
                         u3, b.map(u4)])))
            ract.append(accumulate(h.space, terms))
    return lact, ract


def transported_op(group, field, columns, op):
    """The lift of a group-level Rota-Baxter operator, moved to the basis
    whose k-th vector has the coordinates ``columns[k]``."""
    h = hk.group_algebra(group, field)
    space = BasedSpace(tuple(f"w{k}" for k in range(h.dim)), field)
    p = invert(LinearOp(space, h.space,
                        [Element(h.space, col) for col in columns]))
    k = transport_hopf(h, p)
    return hk.verify_rb(k, p.compose(op(h)).compose(invert(p)))


# Z2 with both basis vectors spread over e and g; S3 with r2, r2s mixed
DENSE_Z2 = [{0: Fraction(1), 1: Fraction(1, 2)}, {0: Fraction(-2, 3), 1: 1}]
MIXED_S3 = [{0: 1}, {1: 1}, {2: 1, 5: 1}, {3: 1}, {4: 1}, {2: 1, 5: -1}]


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
@pytest.mark.parametrize("group, columns, op", [
    (gr.cyclic(2), DENSE_Z2, lambda h: h.antipode),
    (gr.cyclic(2), DENSE_Z2, lambda h: fx.b_eps(h).map),
    (gr.dihedral(3), MIXED_S3, lambda h: h.antipode),
    (gr.dihedral(3), MIXED_S3, lambda h: fx.b_eps(h).map),
], ids=["Z2-inv", "Z2-eps", "S3-inv", "S3-eps"])
def test_actions_match_term_by_term_reference(field, group, columns, op):
    b = transported_op(group, field, columns, op)
    assert len(b.carrier.comul.columns[b.carrier.dim - 1].coeffs) > 1
    m = hk.matched_pair_from_rb(b)
    lact, ract = reference_actions(b)
    assert list(m.lact.columns) == lact
    assert list(m.ract.columns) == ract
