"""Rota-Baxter verification, transforms, and the descendent Hopf algebra."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hopfkit as hk
from hopfkit import fixtures as fx
from hopfkit import groups as gr
from hopfkit.errors import NotAutomorphism, RBIdentityFails
from hopfkit.hopf import transport_hopf
from hopfkit.linalg import BasedSpace, Element, LinearOp, accumulate, invert
from hopfkit.report import Witness


def corpus_order_le_6():
    groups = [gr.trivial_group(), gr.cyclic(2), gr.cyclic(3), gr.cyclic(4),
              gr.direct_product(gr.cyclic(2), gr.cyclic(2)), gr.cyclic(5),
              gr.cyclic(6), gr.dihedral(3)]
    for g in groups:
        for op in gr.enumerate_rb_group_ops(g):
            yield gr.lift_to_group_algebra(op)


# -- verify_rb --------------------------------------------------------------------

def test_b_inv_valid(b_inv_f2):
    assert b_inv_f2.validated


def test_identity_map_fails_with_witness(f2):
    with pytest.raises(RBIdentityFails) as exc:
        hk.verify_rb(f2, LinearOp.identity(f2.space))
    w = exc.value.witness
    assert w.at == ("r", "s")
    assert w.lhs == "1/1*rs"
    assert w.rhs == "1/1*s"


def reference_rb_witness(h, b):
    """First pair (x, y) with B(x) B(y) != B(x_(1) B(x_(2)) y S(B(x_(3)))),
    the right side summed term by term over the three-leg coproduct."""
    for x in range(h.dim):
        for y in range(h.dim):
            lhs = h.product(b.columns[x], b.columns[y])
            rhs = b(accumulate(h.space, (
                (c, h.product_many([h.basis(x1), b.columns[x2], h.basis(y),
                                    h.antipode(b.columns[x3])]))
                for c, (x1, x2, x3) in h.sweedler(x, 3))))
            if lhs != rhs:
                return Witness((h.label(x), h.label(y)), str(lhs), str(rhs))
    return None


@settings(max_examples=20, deadline=None, database=None)
@given(group=st.sampled_from([gr.cyclic(3), gr.dihedral(3)]), data=st.data())
def test_rb_witness_matches_reference_on_transported_group_maps(group, data):
    # any map of group elements lifts to a coalgebra map, so the sweep of
    # the identity itself decides; the basis mixes the first three vectors
    h = hk.group_algebra(group)
    table = data.draw(st.lists(st.integers(0, group.order - 1),
                               min_size=group.order, max_size=group.order))
    space = BasedSpace(tuple(f"w{k}" for k in range(h.dim)))
    cols = [{0: 1, 1: Fraction(1, 2), 2: -1}, {0: 1, 1: 1, 2: Fraction(1, 3)},
            {0: -1, 1: 1, 2: 2}] + [{k: 1} for k in range(3, h.dim)]
    p = invert(LinearOp(space, h.space, [Element(h.space, c) for c in cols]))
    k = transport_hopf(h, p)
    b = p.compose(gr.lift_map(h, table)).compose(invert(p))
    want = reference_rb_witness(k, b)
    if want is None:
        assert hk.verify_rb(k, b).validated
    else:
        with pytest.raises(RBIdentityFails) as exc:
            hk.verify_rb(k, b)
        assert exc.value.witness == want


def test_b_eps_valid_on_any_carrier(f1, f2):
    for h in (f1, f2):
        fx.b_eps(h)


# -- the companion transform B~ ------------------------------------------------------

def test_tilde_of_b_inv_is_b_eps(f2, b_inv_f2, b_eps_f2):
    assert hk.rb_tilde(b_inv_f2).map == b_eps_f2.map


def test_tilde_of_b_eps_is_b_inv(f2, b_inv_f2, b_eps_f2):
    assert hk.rb_tilde(b_eps_f2).map == b_inv_f2.map


def test_tilde_involutive_on_fixtures(b_inv_f2, b_eps_f2):
    for b in (b_inv_f2, b_eps_f2):
        assert hk.rb_tilde(hk.rb_tilde(b)).map == b.map


def test_tilde_involutive_across_corpus():
    for lift in corpus_order_le_6():
        assert hk.rb_tilde(hk.rb_tilde(lift)).map == lift.map


# -- conjugation -----------------------------------------------------------------------

def test_conjugate_of_b_inv_is_b_inv(b_inv_f2, phi_r_f2):
    assert hk.rb_conjugate(b_inv_f2, phi_r_f2).map == b_inv_f2.map


def test_conjugate_by_identity(b_inv_f2, f2):
    assert hk.rb_conjugate(b_inv_f2, LinearOp.identity(f2.space)).map == \
        b_inv_f2.map


def test_conjugate_of_b_eps_is_b_eps(b_eps_f2, phi_r_f2):
    assert hk.rb_conjugate(b_eps_f2, phi_r_f2).map == b_eps_f2.map


def test_conjugate_rejects_non_automorphism(b_inv_f2, f2):
    with pytest.raises(NotAutomorphism):
        hk.rb_conjugate(b_inv_f2, f2.antipode)


def test_conjugate_round_trip(f2, b_inv_f2):
    from hopfkit.linalg import invert
    phi = fx.phi_r(f2)
    conj = hk.rb_conjugate(b_inv_f2, phi)
    assert hk.rb_conjugate(conj, invert(phi)).map == b_inv_f2.map


def test_tilde_conjugate_commute(b_inv_f2, b_eps_f2, phi_r_f2, f2):
    assert hk.check_tilde_conjugate_commute(b_inv_f2, phi_r_f2)
    assert hk.check_tilde_conjugate_commute(b_eps_f2, phi_r_f2)
    assert hk.check_tilde_conjugate_commute(b_inv_f2, LinearOp.identity(f2.space))


# -- the descendent Hopf algebra ---------------------------------------------------------

def test_descend_b_inv_gives_opposite_product(f2, b_inv_f2):
    d = hk.descend(b_inv_f2)
    for i in range(6):
        for j in range(6):
            assert d.hopf.mul_basis(i, j) == f2.mul_basis(j, i)
    assert d.hopf.antipode == b_inv_f2.map  # T = inversion


def test_descend_on_abelian_is_original(f1):
    for b in (fx.b_inv(f1), fx.b_eps(f1)):
        d = hk.descend(b)
        assert d.hopf.mul == f1.mul


def test_descend_b_eps_keeps_product_and_antipode(f2, b_eps_f2):
    d = hk.descend(b_eps_f2)
    assert d.hopf.mul == f2.mul
    assert d.hopf.antipode == f2.antipode


def test_descend_keeps_coalgebra(f2, b_inv_f2):
    d = hk.descend(b_inv_f2)
    assert d.hopf.comul is f2.comul
    assert d.hopf.counit is f2.counit
    assert d.hopf.unit == f2.unit


def test_descendent_passes_hopf_and_cocommutativity_corpus():
    for lift in corpus_order_le_6():
        d = hk.descend(lift)
        assert d.hopf.validated
        assert hk.check_cocommutative(d.hopf)


def test_descendent_antipode_inverse_identity(f2, b_inv_f2, b_eps_f2):
    assert hk.check_descendent_antipode_inverse(hk.descend(b_inv_f2))
    assert hk.check_descendent_antipode_inverse(hk.descend(b_eps_f2))


def test_descendent_antipode_inverse_on_embedding_operator(f2):
    emb = hk.embed_into_rb(hk.flip_brace(f2))
    assert hk.check_descendent_antipode_inverse(hk.descend(emb.rb))


# -- central image -------------------------------------------------------------------------

def test_central_image_abelian(f1):
    assert hk.check_central_image(fx.b_inv(f1))


def test_central_image_b_eps(b_eps_f2):
    assert hk.check_central_image(b_eps_f2)


def test_central_image_b_inv_false(b_inv_f2):
    # B(r) = r2 is not central: r2·s != s·r2
    assert not hk.check_central_image(b_inv_f2)


# -- descendent isomorphisms -----------------------------------------------------------------

def test_descendent_isos_f2(b_inv_f2, phi_r_f2):
    report = hk.check_descendent_isos(b_inv_f2, phi_r_f2)
    assert report.passed


def test_descendent_isos_trivial(f1):
    report = hk.check_descendent_isos(fx.b_inv(f1), LinearOp.identity(f1.space))
    assert report.passed


def test_antipode_multiplicativity_sweep(f2, b_inv_f2):
    # S(g ∘_B h) = S(g) ∘_B~ S(h) on all 36 pairs
    d = hk.descend(b_inv_f2)
    dt = hk.descend(hk.rb_tilde(b_inv_f2))
    s = f2.antipode
    for g in range(6):
        for x in range(6):
            assert s(d.hopf.mul_basis(g, x)) == \
                dt.hopf.product(s.columns[g], s.columns[x])


def test_descend_multiplicativity_of_b_corpus():
    # B(g ∘_B h) = B(g) B(h) is re-verified inside descend; spot-check the
    # equality directly on one nonabelian fixture
    f2 = fx.f2()
    b = fx.b_inv(f2)
    d = hk.descend(b)
    for g in range(6):
        for x in range(6):
            assert b.map(d.hopf.mul_basis(g, x)) == \
                f2.product(b.map.columns[g], b.map.columns[x])


def test_prime_field_rb(f2):
    from hopfkit.linalg import Field
    h7 = fx.f2(Field(7))
    b = fx.b_inv(h7)
    d = hk.descend(b)
    assert d.hopf.validated
