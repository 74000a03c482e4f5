"""Triple factorizations and smash products with their operators."""

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hopfkit as hk
from hopfkit import constructions as constr_mod
from hopfkit import fixtures as fx
from hopfkit import groups as gr
from hopfkit.errors import HypothesisFails, NotExactFactorization
from hopfkit.hopf import ModuleAction, apply2, transport_hopf
from hopfkit.linalg import (QQ, BasedSpace, Element, Field, LinearOp,
                            accumulate, invert, kron, tensor_elem,
                            tensor_index, tensor_space, tensor_split)
from hopfkit.rb import RotaBaxterOp
from hopfkit.report import Witness

from conftest import (DENSE_Z2, Built, circle_product_element, edited,
                      sweedler)

MIXED_Z3 = [{0: 1}, {1: 1, 2: 1}, {1: 1, 2: -1}]


def z3_z2_inversion_action():
    h = hk.group_algebra(gr.cyclic(3))
    k = hk.group_algebra(gr.cyclic(2))
    cols = [h.space.basis(i if j == 0 else (-i) % 3)
            for j in range(2) for i in range(3)]
    act = LinearOp(tensor_space(k.space, h.space), h.space, cols)
    return h, k, hk.module_action(k, h, act)


def s3_iso_map(sp, f2):
    """(a^i, b^j) -> r^i s^j as a linear bijection smash -> Q[S3]."""
    cols = []
    for i in range(3):
        for j in range(2):
            rpart = "" if i == 0 else ("r" if i == 1 else "r2")
            lab = (rpart + ("s" if j else "")) or "e"
            cols.append(f2.space.basis(f2.space.index_of(lab)))
    return LinearOp(sp.product.space, f2.space, cols)


# -- triple factorizations ---------------------------------------------------------

def test_triple_factorization_s3_with_b_eps(f2):
    f = hk.triple_factorization(f2, ["e"], ["e", "r", "r2"], ["e", "s"])
    c = fx.b_eps(f.sub_l)
    b = hk.rb_from_triple_factorization(f, c)
    # B(r^i s^j) = ε(r^i) S(s^j) = s^j on the part basis
    for lab, want in [("e", "e"), ("r", "e"), ("r2", "e"),
                      ("s", "s"), ("rs", None), ("r2s", None)]:
        idx = f2.space.index_of(lab)
        if want is not None:
            assert b.map.columns[idx] == f2.space.basis(f2.space.index_of(want))
    # rs = r·s factors with l = r, m = s: B(rs) = ε(e)·C(r)·S(s) = s
    assert b.map.columns[f2.space.index_of("rs")] == \
        f2.space.basis(f2.space.index_of("s"))
    assert hk.check_factorization_descendent_iso(f, b, c)


def test_triple_factorization_hypothesis_violation(f2):
    f = hk.triple_factorization(f2, ["e"], ["e", "r", "r2"], ["e", "s"])
    c = fx.b_inv(f.sub_l)
    with pytest.raises(HypothesisFails) as exc:
        hk.rb_from_triple_factorization(f, c)
    assert exc.value.hypothesis == "mC(l) = C(l)m"


def test_triple_factorization_degenerate_is_c():
    z6 = hk.group_algebra(gr.cyclic(6))
    labels = list(z6.space.labels)
    f = hk.triple_factorization(z6, ["e"], labels, ["e"])
    c = fx.b_inv(f.sub_l)
    b = hk.rb_from_triple_factorization(f, c)
    assert b.map == z6.antipode
    assert hk.check_factorization_descendent_iso(f, b, c)


def test_triple_factorization_z6_as_z2_z3():
    z6 = hk.group_algebra(gr.cyclic(6))
    two_part = ["e", "g3"]
    three_part = ["e", "g2", "g4"]
    f = hk.triple_factorization(z6, ["e"], three_part, two_part)
    c = fx.b_inv(f.sub_l)
    b = hk.rb_from_triple_factorization(f, c)
    assert hk.check_factorization_descendent_iso(f, b, c)


def test_triple_factorization_bad_sizes(f2):
    with pytest.raises(NotExactFactorization):
        hk.triple_factorization(f2, ["e"], ["e", "s"], ["e", "rs"])


# -- smash products -----------------------------------------------------------------

def test_smash_z3_z2_is_s3(f2):
    h, k, act = z3_z2_inversion_action()
    sp = hk.smash_product(h, k, act)
    assert sp.brace.validated
    assert hk.check_hopf_isomorphism(s3_iso_map(sp, f2), sp.product, f2)


def test_smash_trivial_action_is_tensor():
    h = hk.group_algebra(gr.cyclic(3))
    k = hk.group_algebra(gr.cyclic(2))
    sp = hk.smash_product(h, k, hk.trivial_action(k, h))
    assert sp.product.structure_equal(sp.tensor)


def test_rb_on_smash_b_eps():
    h, k, act = z3_z2_inversion_action()
    sp = hk.smash_product(h, k, act)
    c = fx.b_eps(k)
    b = hk.rb_on_smash(sp, c)
    assert hk.check_smash_descendent_iso(sp, c, b)
    # descendent is trivial on the K part: ∘_B = smash product itself
    assert hk.descend(b).hopf.mul == sp.product.mul


def test_rb_on_smash_b_inv():
    h, k, act = z3_z2_inversion_action()
    sp = hk.smash_product(h, k, act)
    c = fx.b_inv(k)  # inversion on Z2 is the identity map
    assert c.map.is_identity()
    b = hk.rb_on_smash(sp, c)
    assert hk.check_smash_descendent_iso(sp, c, b)


def test_smash_embedding_matches_generic(f2):
    # the explicit ambient formulas on (H#K) ⊗ (H#K) agree with the
    # generic brace embedding applied to the smash brace
    h, k, act = z3_z2_inversion_action()
    sp = hk.smash_product(h, k, act)
    emb = hk.embed_into_rb(sp.brace)
    space = sp.product.space
    g2 = emb.ambient.space
    dim_k = k.dim
    from hopfkit.hopf import apply2
    from hopfkit.linalg import tensor_elem
    # B(h#k ⊗ h'#k') = T(h#k) ∘ (h'#k') ⊗ 1#1 with T the smash antipode
    t = sp.product.antipode
    for p in range(space.dim):
        for q in range(space.dim):
            want = tensor_elem(g2, apply2(sp.product.mul, t.columns[p],
                                          space.basis(q)),
                               sp.product.unit)
            assert emb.rb.map.columns[tensor_index(p, q, space.dim)] == want


def test_smash_ambient_multiplication_explicit_formula():
    # the ambient product on (H#K) ⊗ (H#K) in closed form:
    # (h#k ⊗ h'#k') * (g#l ⊗ g'#l') = h(k_(1)▷g) # k_(2)l ⊗ h'(k_(3)▷g') # k'l'
    h, k, act = z3_z2_inversion_action()
    sp = hk.smash_product(h, k, act)
    emb = hk.embed_into_rb(sp.brace)
    space = sp.product.space
    g2 = emb.ambient.space
    from hopfkit.hopf import accumulate, apply2
    from hopfkit.linalg import tensor_elem, tensor_split

    def explicit(p, q):
        hk1, hk2 = tensor_split(p, space.dim)
        gl1, gl2 = tensor_split(q, space.dim)
        ih, ik = tensor_split(hk1, k.dim)
        ih2, ik2 = tensor_split(hk2, k.dim)
        ig, il = tensor_split(gl1, k.dim)
        ig2, il2 = tensor_split(gl2, k.dim)
        terms = []
        for w, (k1, k2, k3) in sweedler(k, ik, 3):
            first = tensor_elem(space,
                                h.product(h.basis(ih), act.basis(k1, ig)),
                                k.mul_basis(k2, il))
            second = tensor_elem(space,
                                 h.product(h.basis(ih2), act.basis(k3, ig2)),
                                 k.mul_basis(ik2, il2))
            terms.append((w, tensor_elem(g2, first, second)))
        return accumulate(g2, terms)

    for p in range(g2.dim):
        for q in range(g2.dim):
            assert emb.ambient.mul.columns[p * g2.dim + q] == explicit(p, q)


def test_rb_on_smash_across_z2_operators():
    h, k, act = z3_z2_inversion_action()
    sp = hk.smash_product(h, k, act)
    for op in gr.enumerate_rb_group_ops(gr.cyclic(2)):
        c = gr.lift_to_group_algebra(op)
        # rebuild C on the same K carrier
        c_on_k = hk.verify_rb(k, LinearOp(k.space, k.space,
                                          [k.space.basis(t) for t in op.table]))
        b = hk.rb_on_smash(sp, c_on_k)
        assert hk.check_smash_descendent_iso(sp, c_on_k, b)


# -- oracles: the factorization and smash sweeps as explicit loops ------------------------

def reference_commutation_witness(g, h_labels, l_labels):
    """First (l, h) with l h != h l, in index order, as the old loop
    reported it."""
    h_idx = sorted(g.space.index_of(lab) for lab in h_labels)
    l_idx = sorted(g.space.index_of(lab) for lab in l_labels)
    for l in l_idx:
        for h in h_idx:
            if g.mul_basis(l, h) != g.mul_basis(h, l):
                return Witness((g.label(l), g.label(h)),
                               str(g.mul_basis(l, h)), str(g.mul_basis(h, l)))
    return None


def reference_middle_witness(f, c):
    """First (m, l) with m C(l) != C(l) m."""
    g = f.ambient
    c_in_g = [f.incl_l(c.map.columns[i]) for i in range(len(f.l_idx))]
    for mi in f.m_idx:
        for li, cl in enumerate(c_in_g):
            lhs = g.product(g.basis(mi), cl)
            rhs = g.product(cl, g.basis(mi))
            if lhs != rhs:
                return Witness((g.label(mi), g.label(f.l_idx[li])),
                               str(lhs), str(rhs))
    return None


def reference_factorization_descendent_iso(f, b, c):
    """check_factorization_descendent_iso as the six nested loops."""
    g = f.ambient
    circle_c = hk.descend(c).hopf
    l_pos = {amb: i for i, amb in enumerate(f.l_idx)}
    for ih in f.h_idx:
        for il in f.l_idx:
            for im in f.m_idx:
                left = g.product_many([g.basis(ih), g.basis(il), g.basis(im)])
                for jh in f.h_idx:
                    for jl in f.l_idx:
                        for jm in f.m_idx:
                            right = g.product_many([g.basis(jh), g.basis(jl),
                                                    g.basis(jm)])
                            lhs = circle_product_element(g, b.map, left, right)
                            circ = f.incl_l(
                                circle_c.mul_basis(l_pos[il], l_pos[jl]))
                            rhs = g.product_many([g.basis(ih), g.basis(jh),
                                                  circ, g.basis(jm),
                                                  g.basis(im)])
                            if lhs != rhs:
                                return False
    return True


FACTORIZATIONS = [
    (gr.dihedral(3), ["e"], ["e", "r", "r2"], ["e", "s"]),
    (gr.dihedral(3), ["e", "s"], ["e", "r", "r2"], ["e"]),
    (gr.dihedral(3), ["e", "rs"], ["e", "r", "r2"], ["e"]),
    (gr.dihedral(3), ["e", "r", "r2"], ["e", "s"], ["e"]),
    (gr.cyclic(6), ["e", "g3"], ["e", "g2", "g4"], ["e"]),
    (gr.cyclic(6), ["e"], ["e", "g2", "g4"], ["e", "g3"]),
]


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
@pytest.mark.parametrize("case", range(len(FACTORIZATIONS)))
def test_factorization_sweeps_match_reference(field, case):
    group, h_labels, l_labels, m_labels = FACTORIZATIONS[case]
    g = hk.group_algebra(group, field)
    want = reference_commutation_witness(g, h_labels, l_labels)
    if want is not None:
        with pytest.raises(HypothesisFails) as exc:
            hk.triple_factorization(g, h_labels, l_labels, m_labels)
        assert (exc.value.hypothesis, exc.value.witness) == ("lh = hl", want)
        return
    f = hk.triple_factorization(g, h_labels, l_labels, m_labels)
    l_group = gr.FiniteGroup(
        tuple(tuple(f.l_idx.index(group.mul(a, b)) for b in f.l_idx)
              for a in f.l_idx), tuple(f.sub_l.space.labels))
    operators = [hk.verify_rb(f.sub_l, gr.lift_map(f.sub_l, op.table))
                 for op in gr.enumerate_rb_group_ops(l_group)]
    built = []
    for c in operators:
        want = reference_middle_witness(f, c)
        if want is not None:
            with pytest.raises(HypothesisFails) as exc:
                hk.rb_from_triple_factorization(f, c)
            assert (exc.value.hypothesis, exc.value.witness) == \
                ("mC(l) = C(l)m", want)
        else:
            built.append((c, hk.rb_from_triple_factorization(f, c)))
    assert built
    for c in operators:
        for _, b in built:
            assert hk.check_factorization_descendent_iso(f, b, c) == \
                reference_factorization_descendent_iso(f, b, c)


def reference_smash_mul(h, k, act, k_mul):
    """(h#k)(h'#k') = h (k_(1) ▷ h') # k_(2) k', term by term."""
    space = tensor_space(h.space, k.space)
    dim_k = k.dim
    cols = []
    for p in range(space.dim):
        i, j = tensor_split(p, dim_k)
        legs = sweedler(k, j, 2)
        for q in range(space.dim):
            a, bb = tensor_split(q, dim_k)
            cols.append(accumulate(space, (
                (w, tensor_elem(space,
                                h.product(h.basis(i),
                                          act.columns[tensor_index(j1, a, h.dim)]),
                                k_mul.columns[tensor_index(j2, bb, dim_k)]))
                for w, (j1, j2) in legs)))
    return cols


def reference_twisted_action(h, k, act, c_map):
    """k ⊵ h = (k_(1) C(k_(2))) ▷ h, term by term."""
    cols = []
    for j in range(k.dim):
        actors = [(w, k.product(k.basis(j1), c_map.columns[j2]))
                  for w, (j1, j2) in sweedler(k, j, 2)]
        for i in range(h.dim):
            cols.append(accumulate(h.space, (
                (w, apply2(act, actor, h.basis(i))) for w, actor in actors)))
    return cols


def reference_smash_descendent_iso(sp, c, b):
    """check_smash_descendent_iso with both sweeps as explicit loops."""
    h, k = sp.left, sp.right
    circle_c = hk.descend(c).hopf
    twist = LinearOp(tensor_space(k.space, h.space), h.space,
                     reference_twisted_action(h, k, sp.action.act, c.map))
    if not hk.check_module_bialgebra(ModuleAction(circle_c, h, twist)).passed:
        return False
    want = reference_smash_mul(h, k, twist, circle_c.mul)
    return list(hk.descend(b).hopf.mul.columns) == want


def smash_data(field, dense):
    """Z2 acting on Z3 by inversion, in the group-like bases, or with g and
    g2 of Z3 mixed and Z2 moved to the dense basis DENSE_Z2."""
    h = hk.group_algebra(gr.cyclic(3), field)
    k = hk.group_algebra(gr.cyclic(2), field)
    act = LinearOp(tensor_space(k.space, h.space), h.space,
                   [h.space.basis(i if j == 0 else (-i) % 3)
                    for j in range(2) for i in range(3)])
    if dense:
        ph, pk = (invert(LinearOp(
            BasedSpace(tuple(f"w{i}" for i in range(a.dim)), field), a.space,
            [Element(a.space, col) for col in cols]))
            for a, cols in ((h, MIXED_Z3), (k, DENSE_Z2)))
        act = ph.compose(act).compose(kron(invert(pk), invert(ph)))
        h, k = transport_hopf(h, ph), transport_hopf(k, pk)
    return h, k, hk.module_action(k, h, act)


_SMASH: dict = {}


def smash(field, dense):
    if (field, dense) not in _SMASH:
        h, k, action = smash_data(field, dense)
        _SMASH[field, dense] = hk.smash_product(h, k, action)
    return _SMASH[field, dense]


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
@pytest.mark.parametrize("dense", [False, True], ids=["group-like", "dense"])
def test_smash_sweeps_match_reference(field, dense):
    sp = smash(field, dense)
    h, k = sp.left, sp.right
    assert list(sp.product.mul.columns) == \
        reference_smash_mul(h, k, sp.action.act, k.mul)
    ident = LinearOp.identity(k.space)
    operators = [hk.verify_rb(k, ident),
                 hk.verify_rb(k, LinearOp(k.space, k.space, [
                     k.unit.scale(k._eps[j]) for j in range(k.dim)]))]
    verdicts = []
    for c in operators:
        for c_b in operators:
            b = hk.rb_on_smash(sp, c_b)
            got = hk.check_smash_descendent_iso(sp, c, b)
            assert got == reference_smash_descendent_iso(sp, c, b)
            verdicts.append(got)
    assert True in verdicts and False in verdicts


@settings(max_examples=20, deadline=None, database=None)
@given(field=st.sampled_from([QQ, Field(7)]), dense=st.booleans(),
       part=st.sampled_from(["c", "act", "k_mul"]), col=st.integers(0, 40),
       row=st.integers(0, 40),
       offset=st.one_of(st.integers(1, 6),
                        st.fractions(min_value=-2, max_value=2,
                                     max_denominator=3).filter(bool)))
def test_smash_sums_match_reference_on_edits(field, dense, part, col, row,
                                             offset):
    sp = smash(field, dense)
    h, k = sp.left, sp.right
    maps = {"c": LinearOp.identity(k.space), "act": sp.action.act,
            "k_mul": k.mul}
    maps[part] = edited(maps[part], col, row, offset)
    assert list(constr_mod._smash_mul(h, k, maps["act"], maps["k_mul"]).columns) \
        == reference_smash_mul(h, k, maps["act"], maps["k_mul"])

    def stop(action):
        raise Built(action.act)
    # the twisted action of an edited C, read off before any sweep
    with mock.patch.object(constr_mod, "descend",
                           lambda r: SimpleNamespace(hopf=k)), \
            mock.patch.object(constr_mod, "check_module_bialgebra", stop):
        with pytest.raises(Built) as exc:
            hk.check_smash_descendent_iso(
                sp, RotaBaxterOp(k, maps["c"], True), None)
    assert list(exc.value.args[0].columns) == \
        reference_twisted_action(h, k, sp.action.act, maps["c"])
