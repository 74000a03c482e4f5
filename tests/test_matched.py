"""Matched pairs, Yang-Baxter maps, and brace reconstruction."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hopfkit as hk
from hopfkit import fixtures as fx
from hopfkit import groups as gr
from hopfkit import matched as matched_mod
from hopfkit.errors import (AxiomFails, HypothesisFails,
                            InternalTheoremViolation)
from hopfkit.hopf import (apply2, coalgebra_map_failures, convolution,
                          first_witness, tensor_coalgebra, transport_hopf,
                          twisted_product)
from hopfkit.linalg import (QQ, BasedSpace, Element, Field, LinearOp,
                            accumulate, invert, tensor_elem, tensor_index,
                            tensor_space, tensor_split)
from hopfkit.rb import rb_action_map

from conftest import (Built, matched_outcome, reference_verify_matched_pair,
                      sweedler)

ORACLE = settings(max_examples=20, deadline=None, database=None)


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
                 for c, (x1, x2) in sweedler(h, x, 2)]
        for a in range(dim):
            lact.append(accumulate(h.space, (
                (c, h.product_many([left, h.basis(a), right]))
                for c, left, right in wings)))
    ract = []
    for x in range(dim):
        for a in range(dim):
            terms = []
            for cx, (x1, x2, x3, x4, x5) in sweedler(h, x, 5):
                for ca, (a1, a2, a3, a4) in sweedler(h, a, 4):
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


# -- references: the matched-pair axioms and the ybe check as explicit loops ------------

def reference_ybe_coalgebra_failure(c, h):
    """The first basis pair (x, y) where the ybe check found
    Δ(c(x⊗y)) != (c⊗c)Δ(x⊗y) for the middle-flip coproduct, or None."""
    dim = h.dim
    field = h.field
    hh = tensor_space(h.space, h.space)
    hhhh = tensor_space(hh, hh)

    def tensor_comul(elem):
        out = {}
        for p, w in elem.coeffs.items():
            x, y = tensor_split(p, dim)
            for px, cx in h.comul.columns[x].coeffs.items():
                x1, x2 = tensor_split(px, dim)
                for py, cy in h.comul.columns[y].coeffs.items():
                    y1, y2 = tensor_split(py, dim)
                    key = tensor_index(tensor_index(x1, y1, dim),
                                       tensor_index(x2, y2, dim), hh.dim)
                    nv = field.add(out.get(key, field.zero),
                                   field.mul(w, field.mul(cx, cy)))
                    if nv == 0:
                        out.pop(key, None)
                    else:
                        out[key] = nv
        return Element(hhhh, out, _canonical=True)

    for p in range(hh.dim):
        lhs = tensor_comul(c.columns[p])
        x, y = tensor_split(p, dim)
        rhs_terms = []
        for px, cx in h.comul.columns[x].coeffs.items():
            x1, x2 = tensor_split(px, dim)
            for py, cy in h.comul.columns[y].coeffs.items():
                y1, y2 = tensor_split(py, dim)
                rhs_terms.append((field.mul(cx, cy),
                                  tensor_elem(hhhh,
                                              c.columns[tensor_index(x1, y1, dim)],
                                              c.columns[tensor_index(x2, y2, dim)])))
        if lhs != accumulate(hhhh, rhs_terms):
            return x, y
    return None


def edited(op, col, row, offset):
    """op with one entry moved by ``offset``, or with one column zeroed
    when ``offset`` is None."""
    cols = list(op.columns)
    col %= len(cols)
    coeffs = {}
    if offset is not None:
        coeffs = dict(cols[col].coeffs)
        r = row % op.codomain.dim
        coeffs[r] = coeffs.get(r, 0) + offset
    cols[col] = Element(op.codomain, coeffs)
    return LinearOp(op.domain, op.codomain, cols)


CARRIERS = {
    "Z2-inv": lambda field: fx.b_inv(fx.f1(field)),
    "Z3-eps": lambda field: fx.b_eps(hk.group_algebra(gr.cyclic(3), field)),
    "S3-inv": lambda field: fx.b_inv(fx.f2(field)),
    "dense-Z2-inv": lambda field: transported_op(gr.cyclic(2), field, DENSE_Z2,
                                                 lambda h: h.antipode),
}
_PAIRS: dict = {}


def rb_pair(name, field):
    """(B, its matched pair), built once per carrier and field."""
    if (name, field) not in _PAIRS:
        b = CARRIERS[name](field)
        _PAIRS[name, field] = b, hk.matched_pair_from_rb(b)
    return _PAIRS[name, field]


EDITS = dict(col=st.integers(0, 80), row=st.integers(0, 80),
             offset=st.one_of(st.none(), st.integers(1, 6),
                              st.fractions(min_value=-2, max_value=2,
                                           max_denominator=3).filter(bool)))


@ORACLE
@given(field=st.sampled_from([QQ, Field(7)]),
       name=st.sampled_from(sorted(CARRIERS)),
       side=st.sampled_from(["lact", "ract"]), **EDITS)
def test_verify_matched_pair_matches_reference_on_edits(field, name, side, col,
                                                        row, offset):
    _, m = rb_pair(name, field)
    acts = {"lact": m.lact, "ract": m.ract}
    acts[side] = edited(acts[side], col, row, offset)
    args = (m.left, m.right, acts["lact"], acts["ract"])
    assert (matched_outcome(hk.verify_matched_pair, *args)
            == matched_outcome(reference_verify_matched_pair, *args))


def z3_z2_pair(field):
    """Z3 ⋈ Z2 from the exact factorization S3 = Z3·Z2, as (H, K, ⇀, ↼):
    for x in K = Z2 = {e, s} and a in H = Z3 = {e, r, r2} the product
    x·a in S3 factors uniquely as (x ⇀ a)(x ↼ a)."""
    s3 = fx.f2(field)
    h, _ = hk.sub_hopf(s3, ["e", "r", "r2"])
    k, _ = hk.sub_hopf(s3, ["e", "s"])
    g, index = gr.dihedral(3), s3.space.index_of
    split = {g.mul(index(a), index(x)): (h.space.index_of(a),
                                         k.space.index_of(x))
             for a in h.space.labels for x in k.space.labels}
    pairs = [split[g.mul(index(x), index(a))]
             for x in k.space.labels for a in h.space.labels]
    kh = tensor_space(k.space, h.space)
    return (h, k, LinearOp(kh, h.space, [h.basis(a) for a, _ in pairs]),
            LinearOp(kh, k.space, [k.basis(x) for _, x in pairs]))


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
def test_z3_z2_is_a_matched_pair(field):
    h, k, lact, ract = z3_z2_pair(field)
    assert (h.dim, k.dim) == (3, 2)
    # s·r = r2·s: s ⇀ r = r2 and s ↼ r = s
    assert str(lact.columns[1 * 3 + 1]) == str(h.basis(2))
    assert str(ract.columns[1 * 3 + 1]) == str(k.basis(1))
    m = hk.verify_matched_pair(h, k, lact, ract)
    assert (m.left, m.right) == (h, k)
    assert matched_outcome(reference_verify_matched_pair, h, k, lact,
                           ract) is None


@ORACLE
@given(field=st.sampled_from([QQ, Field(7)]),
       side=st.sampled_from(["lact", "ract"]), **EDITS)
def test_z3_z2_edits_match_reference(field, side, col, row, offset):
    # dim K = 2 and dim H = 3, so a swapped dimension in the index
    # arithmetic of the sweeps reads the wrong column or runs out of range
    h, k, lact, ract = z3_z2_pair(field)
    acts = {"lact": lact, "ract": ract}
    acts[side] = edited(acts[side], col, row, offset)
    args = (h, k, acts["lact"], acts["ract"])
    assert (matched_outcome(hk.verify_matched_pair, *args)
            == matched_outcome(reference_verify_matched_pair, *args))


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
def test_verify_matched_pair_later_tags_match_reference(field):
    """Inputs that reach the later tags, which one-entry edits never do:
    the sign action of Q[Z2] on itself (g as diag(1, -1)) on either side,
    the adjoint and right adjoint actions of S3 together, and Z2 acting on
    Q[Z4] from the right by swapping g and g2 (a coalgebra map that is not
    multiplicative)."""
    z2 = hk.group_algebra(gr.cyclic(2), field)
    e, g = z2.basis(0), z2.basis(1)
    sign = LinearOp(z2.hh, z2.space, [e, g, e, -g])        # x ⇀ a
    sign_r = LinearOp(z2.hh, z2.space, [e, e, g, -g])      # x ↼ a
    triv_l = LinearOp(z2.hh, z2.space, [e, g, e, g])        # ε(x) a
    triv_r = LinearOp(z2.hh, z2.space, [e, e, g, g])        # x ε(a)
    s3 = fx.f2(field)
    grp = gr.dihedral(3)

    def conj(x, a):                                          # x a x^-1
        return grp.table[grp.table[x][a]][grp.inverse[x]]
    ad_l = LinearOp(s3.hh, s3.space, [s3.basis(conj(x, a)) for x in range(6)
                                      for a in range(6)])
    ad_r = LinearOp(s3.hh, s3.space, [s3.basis(conj(grp.inverse[a], x))
                                      for x in range(6) for a in range(6)])
    z4 = hk.group_algebra(gr.cyclic(4), field)
    swap = [0, 2, 1, 3]
    kh = tensor_space(z4.space, z2.space)
    z4_l = LinearOp(kh, z2.space, [z2.basis(a) for x in range(4)
                                   for a in range(2)])
    z4_r = LinearOp(kh, z4.space, [z4.basis(swap[x] if a else x)
                                   for x in range(4) for a in range(2)])
    cases = {"left-module-coalgebra": (z2, z2, sign, triv_r),
             "right-module-coalgebra": (z2, z2, triv_l, sign_r),
             "compatibility-left": (s3, s3, ad_l, ad_r),
             "compatibility-right": (z2, z4, z4_l, z4_r)}
    for tag, args in cases.items():
        got = matched_outcome(hk.verify_matched_pair, *args)
        assert got == matched_outcome(reference_verify_matched_pair, *args)
        assert got[0] == tag


@ORACLE
@given(field=st.sampled_from([QQ, Field(7)]),
       name=st.sampled_from(["Z2-inv", "Z3-eps", "dense-Z2-inv"]), **EDITS)
def test_ybe_coalgebra_check_matches_reference(field, name, col, row, offset):
    b, _ = rb_pair(name, field)
    h = b.carrier
    c = edited(hk.ybe_from_rb(b).c, col, row, offset)
    coalgebra = tensor_coalgebra(h, h)
    comul, _ = coalgebra_map_failures(c, coalgebra, coalgebra)
    assert (None if comul is None else tensor_split(comul[0], h.dim)) == \
        reference_ybe_coalgebra_failure(c, h)


# Failures of coalgebra_map_failures as (index, lhs, rhs), per identity, on
# H ⊗ H for H = Q[D3], labels e, r, r2, s, rs, r2s: index 9 is (r, s) and 20
# is (s, r2).  The lower index is named, whichever identity fails there.
@pytest.mark.parametrize("fails, pair", [
    (((9, "lhs", "rhs"), None), "(r,s)"),
    ((None, (20, 1, 0)), "(s,r2)"),
    (((20, "lhs", "rhs"), (9, 1, 0)), "(r,s)"),
])
def test_ybe_coalgebra_failure_names_its_basis_pair(b_inv_f2, fails, pair):
    # the matched pair is built first, so only the check of c sees the patch
    m = hk.matched_pair_from_rb(b_inv_f2)
    with mock.patch.object(matched_mod, "matched_pair_from_rb", lambda b: m), \
            mock.patch.object(matched_mod, "coalgebra_map_failures",
                              lambda *args: fails):
        with pytest.raises(InternalTheoremViolation) as exc:
            hk.ybe_from_rb(b_inv_f2)
    assert str(exc.value) == f"c is not a coalgebra morphism at basis pair {pair}"


# -- oracles: the Sweedler sums of matched as explicit loops -----------------------------

def reference_compatibility_left(h, k, lact, ract):
    """(x_(1) ⇀ a_(1)) ((x_(2) ↼ a_(2)) ⇀ b) per basis triple (x, a, b)."""
    dim_h = h.dim
    out = []
    for x in range(k.dim):
        for a in range(dim_h):
            for b in range(dim_h):
                out.append(accumulate(h.space, (
                    (cx * ca, h.product(
                        lact.columns[tensor_index(x1, a1, dim_h)],
                        apply2(lact, ract.columns[tensor_index(x2, a2, dim_h)],
                               h.basis(b))))
                    for cx, (x1, x2) in sweedler(k, x, 2)
                    for ca, (a1, a2) in sweedler(h, a, 2))))
    return out


def reference_ybe_c(h, lact, ract):
    """c(x ⊗ y) = (x_(1) ⇀ y_(1)) ⊗ (x_(2) ↼ y_(2)), term by term."""
    dim = h.dim
    hh = tensor_space(h.space, h.space)
    cols = []
    for x in range(dim):
        for y in range(dim):
            cols.append(accumulate(hh, (
                (h.field.mul(cx, cy),
                 tensor_elem(hh, lact.columns[tensor_index(x1, y1, dim)],
                             ract.columns[tensor_index(x2, y2, dim)]))
                for cx, (x1, x2) in sweedler(h, x, 2)
                for cy, (y1, y2) in sweedler(h, y, 2))))
    return LinearOp(hh, hh, cols)


def reference_matched_brace(circle, lact, ract):
    """brace_from_matched_pair's three sums, term by term: the right side
    (a_(1) ⇀ b_(1)) ∘ (a_(2) ↼ b_(2)) of its hypothesis and the dot
    product a_(1) ∘ (T(a_(2)) ⇀ b), per basis pair, and the antipode
    S(a) = a_(1) ⇀ T(a_(2))."""
    dim = circle.dim
    field = circle.field
    t = circle.antipode

    def la(x, a):
        return lact.columns[tensor_index(x, a, dim)]

    def ra(x, a):
        return ract.columns[tensor_index(x, a, dim)]

    pairs = [(a, b) for a in range(dim) for b in range(dim)]
    hypothesis = [accumulate(circle.space, (
        (field.mul(ca, cb), apply2(circle.mul, la(a1, b1), ra(a2, b2)))
        for ca, (a1, a2) in sweedler(circle, a, 2)
        for cb, (b1, b2) in sweedler(circle, b, 2))) for a, b in pairs]
    dot = [accumulate(circle.space, (
        (w, apply2(circle.mul, circle.basis(a1),
                   apply2(lact, t.columns[a2], circle.basis(b))))
        for w, (a1, a2) in sweedler(circle, a, 2))) for a, b in pairs]
    s = LinearOp(circle.space, circle.space, [accumulate(circle.space, (
        (w, apply2(lact, circle.basis(a1), t.columns[a2]))
        for w, (a1, a2) in sweedler(circle, a, 2))) for a in range(dim)])
    return hypothesis, dot, s


MATCHED_NAMES = ["Z2-inv", "Z3-eps", "S3-inv", "dense-Z2-inv"]


@ORACLE
@given(field=st.sampled_from([QQ, Field(7)]), name=st.sampled_from(MATCHED_NAMES),
       side=st.sampled_from(["lact", "ract"]), **EDITS)
def test_matched_sums_match_reference_on_edited_actions(field, name, side, col,
                                                        row, offset):
    _, m = rb_pair(name, field)
    h = m.left
    acts = {"lact": m.lact, "ract": m.ract}
    acts[side] = edited(acts[side], col, row, offset)
    lact, ract = acts["lact"], acts["ract"]
    # verify_matched_pair's compatibility-left and ybe_from_rb's c
    assert list(twisted_product(tensor_coalgebra(h, h)[0], h.mul, lact,
                                f=lact, g=ract).columns) == \
        reference_compatibility_left(h, h, lact, ract)
    coalgebra = tensor_coalgebra(h, h)
    assert convolution(coalgebra[0], lact, ract,
                       LinearOp.identity(coalgebra[0].domain)) == \
        reference_ybe_c(h, lact, ract)


@ORACLE
@given(field=st.sampled_from([QQ, Field(7)]), name=st.sampled_from(MATCHED_NAMES),
       part=st.sampled_from(["lact", "ract", "antipode"]), **EDITS)
def test_brace_from_matched_pair_sums_match_reference(field, name, part, col,
                                                      row, offset):
    _, m = rb_pair(name, field)
    maps = {"lact": m.lact, "ract": m.ract, "antipode": m.left.antipode}
    maps[part] = edited(maps[part], col, row, offset)
    c = m.left
    circle = hk.hopf_from_structure(c.space, c.mul, c.unit, c.comul, c.counit,
                                    maps["antipode"])
    circle.validated = True
    hypothesis, dot, s = reference_matched_brace(circle, maps["lact"],
                                                 maps["ract"])
    want = first_witness((circle.space, circle.space), lambda a, b: (
        circle.mul_basis(a, b), hypothesis[a * circle.dim + b]))

    def stop(built, stage):
        raise Built(built)
    pair = matched_mod.MatchedPair(circle, circle, maps["lact"], maps["ract"])
    with mock.patch.object(matched_mod, "_verified", stop):
        with pytest.raises((HypothesisFails, Built)) as exc:
            hk.brace_from_matched_pair(pair, circle)
    if want is not None:
        assert exc.value.witness == want
    else:
        built = exc.value.args[0]
        assert list(built.mul.columns) == dot
        assert built.antipode == s


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
def test_ybe_and_matched_brace_match_reference(field, kernel_op):
    for name in MATCHED_NAMES:
        b, m = rb_pair(name, field)
        assert hk.ybe_from_rb(b).c == reference_ybe_c(b.carrier, m.lact, m.ract)
        _, dot, s = reference_matched_brace(m.left, m.lact, m.ract)
        br = hk.brace_from_matched_pair(m, m.left)
        assert list(br.dot.mul.columns) == dot
        assert br.dot.antipode == s
    for name in ("mixed-S3-inv", "mixed-S3-eps"):
        b = kernel_op(name, field)
        m = hk.matched_pair_from_rb(b)
        assert hk.ybe_from_rb(b).c == reference_ybe_c(b.carrier, m.lact, m.ract)


# -- oracle: the right action in Angiono-Galindo-Vendramin's form ----------------------

def group_pick(group):
    """The lift of the middle Rota-Baxter operator of ``group``'s sorted
    enumeration."""
    def make(field):
        ops = gr.enumerate_rb_group_ops(group)
        return gr.lift_to_group_algebra(ops[len(ops) // 2], field)
    return make


AGV_CARRIERS = {
    "F1-inv": lambda field: fx.b_inv(fx.f1(field)),
    "F2-inv": lambda field: fx.b_inv(fx.f2(field)),
    "F2-eps": lambda field: fx.b_eps(fx.f2(field)),
    "D4-pick": group_pick(gr.dihedral(4)),
    "Q8-pick": group_pick(gr.quaternion_group()),
}


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
@pytest.mark.parametrize("name", sorted(AGV_CARRIERS) + [
    "dense-Z2-inv", "dense-Z2-eps", "mixed-S3-inv", "mixed-S3-eps"])
def test_right_action_is_the_agv_convolution(field, name, kernel_op):
    # x ↼ a = T(x_(1) ⇀ a_(1)) ∘ x_(2) ∘ a_(2) in the descendent H(B),
    # with T its antipode (Angiono-Galindo-Vendramin)
    b = (AGV_CARRIERS[name](field) if name in AGV_CARRIERS
         else kernel_op(name, field))
    h = b.carrier
    hb = hk.descend(b).hopf
    agv = convolution(tensor_coalgebra(h, h)[0],
                      hb.antipode.compose(rb_action_map(b)), hb.mul, hb.mul)
    assert hk.matched_pair_from_rb(b).ract == agv
