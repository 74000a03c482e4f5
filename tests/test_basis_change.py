"""The full pipeline on carriers without a group-like basis.

Group algebras have single-term coproducts, so on them every Sweedler
expansion is trivial.  Transporting a group algebra along a basis change
keeps all the axioms but spreads the coproducts over many terms with
non-unit coefficients, exercising every multi-leg code path.  Transport
commutes with each construction, which gives an independent oracle for
the computed structure constants.
"""

import random
from fractions import Fraction

import hopfkit as hk
from hopfkit import fixtures as fx
from hopfkit import groups as gr
from hopfkit.hopf import transport_hopf
from hopfkit.linalg import BasedSpace, Element, LinearOp, invert, kron


def idempotent_basis_z2():
    """Q[Z2] in the basis p± = (e ± g)/2: Δ(p+) = p+⊗p+ + p-⊗p- is
    visibly not group-like."""
    h = fx.f1()
    space = BasedSpace(("p+", "p-"))
    half = Fraction(1, 2)
    p = LinearOp(h.space, space, [
        Element(space, {0: half, 1: half}),       # e  -> (p+ + p-) ... = e
        Element(space, {0: half, 1: -half})])     # g  -> (p+ - p-)/1
    return h, transport_hopf(h, p), p


def mixed_basis(h, i, j):
    """Invertible change mixing basis vectors i and j only (keeps columns
    sparse while breaking group-likeness)."""
    labels = tuple(f"v{k}" for k in range(h.dim))
    space = BasedSpace(labels, h.field)
    cols = []
    one = h.field.one
    for k in range(h.dim):
        if k == i:
            cols.append(Element(space, {i: one, j: one}))
        elif k == j:
            cols.append(Element(space, {i: one, j: h.field.neg(one)}))
        else:
            cols.append(Element(space, {k: one}))
    return LinearOp(h.space, space, cols)


def dense_random_bijection(h, seed):
    rng = random.Random(seed)
    labels = tuple(f"w{k}" for k in range(h.dim))
    space = BasedSpace(labels, h.field)
    while True:
        cols = [Element(space, {k: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                for k in range(h.dim)})
                for _ in range(h.dim)]
        op = LinearOp(h.space, space, cols)
        if hk.rank(op) == h.dim:
            return op


def test_idempotent_basis_is_not_group_like():
    _, k, _ = idempotent_basis_z2()
    assert k.validated
    assert hk.check_cocommutative(k)
    # Δ(p+) has two terms
    assert len(k.comul.columns[0].coeffs) == 2


def test_transport_is_isomorphism():
    h, k, p = idempotent_basis_z2()
    assert hk.check_hopf_isomorphism(p, h, k)


def test_transported_antipode_recovery():
    h = hk.group_algebra(gr.cyclic(3))
    p = dense_random_bijection(h, 7)
    k = transport_hopf(h, p)
    assert hk.convolution_inverse(k, LinearOp.identity(k.space)) == k.antipode


def test_descend_commutes_with_transport():
    # transport(descend(B)) = descend(transport(B)) as structure constants
    h = fx.f2()
    b = fx.b_inv(h)
    p = mixed_basis(h, 1, 3)   # mix r and s
    k = transport_hopf(h, p)
    b_k = hk.verify_rb(k, p.compose(b.map).compose(invert(p)))
    d_k = hk.descend(b_k)
    d_h = hk.descend(b)
    transported = transport_hopf(d_h.hopf, p)
    assert d_k.hopf.structure_equal(transported)


def test_transported_rb_pipeline_s3():
    h = fx.f2()
    p = mixed_basis(h, 0, 2)   # mix e and r2
    k = transport_hopf(h, p)
    p_inv = invert(p)
    for b in (fx.b_inv(h), fx.b_eps(h)):
        b_k = hk.verify_rb(k, p.compose(b.map).compose(p_inv))
        br = hk.brace_from_rb(b_k)
        hk.derived_action(br)
        assert hk.check_descendent_antipode_inverse(hk.descend(b_k))


def test_transported_tilde_and_conjugate():
    h = fx.f2()
    p = mixed_basis(h, 1, 2)
    k = transport_hopf(h, p)
    p_inv = invert(p)
    b_k = hk.verify_rb(k, p.compose(fx.b_inv(h).map).compose(p_inv))
    phi_k = p.compose(fx.phi_r(h)).compose(p_inv)
    assert hk.check_bialgebra_automorphism(phi_k, k)
    assert hk.check_tilde_conjugate_commute(b_k, phi_k)
    assert hk.rb_tilde(hk.rb_tilde(b_k)).map == b_k.map
    assert hk.check_descendent_isos(b_k, phi_k).passed


def test_transported_symmetry_suite():
    h = hk.group_algebra(gr.cyclic(3))
    p = dense_random_bijection(h, 21)
    k = transport_hopf(h, p)
    b_k = hk.verify_rb(k, p.compose(h.antipode).compose(invert(p)))
    br = hk.brace_from_rb(b_k)
    assert hk.check_op_module(br)
    assert hk.check_symmetric(br)
    assert hk.check_symmetric_sufficient(br)
    assert hk.check_rb_op_module(k, b_k.map)
    assert hk.check_rb_symmetric_sufficient(k, b_k.map)


def test_transported_posthopf_and_subadjacent():
    h = fx.f2()
    p = mixed_basis(h, 3, 4)   # mix s and rs
    k = transport_hopf(h, p)
    b_k = hk.verify_rb(k, p.compose(fx.b_inv(h).map).compose(invert(p)))
    post = hk.posthopf_from_rb(b_k)
    sub = hk.subadjacent_hopf(post)
    assert sub.structure_equal(hk.descend(b_k).hopf)
    br = hk.brace_from_posthopf(post)
    back = hk.posthopf_from_brace(br)
    assert back.tri == post.tri and back.beta == post.beta


def test_transported_matched_pair_and_ybe():
    # five-leg Sweedler expansions with multi-term coproducts
    h = fx.f2()
    p = mixed_basis(h, 2, 5)   # mix r2 and r2s
    k = transport_hopf(h, p)
    p_inv = invert(p)
    b_k = hk.verify_rb(k, p.compose(fx.b_inv(h).map).compose(p_inv))
    y_k = hk.ybe_from_rb(b_k)
    assert y_k.c.compose(y_k.c_inverse).is_identity()
    # the braiding transports: c_k = (p⊗p) c (p⊗p)^{-1}
    y_h = hk.ybe_from_rb(fx.b_inv(h))
    pp = kron(p, p)
    assert y_k.c == pp.compose(y_h.c).compose(invert(pp))
    m = hk.matched_pair_from_rb(b_k)
    br = hk.brace_from_matched_pair(m, hk.descend(b_k).hopf)
    assert br.dot.mul == k.mul


def test_transported_cocycles_round_trip():
    h = hk.group_algebra(gr.cyclic(3))
    p = dense_random_bijection(h, 5)
    k = transport_hopf(h, p)
    b_k = hk.verify_rb(k, p.compose(h.antipode).compose(invert(p)))
    br = hk.brace_from_rb(b_k)
    rel, coc = hk.canonical_from_brace(br)
    assert hk.invert_cocycle(coc).tau == coc.pi_inverse
    assert hk.invert_relative_rb(rel).pi == rel.tau


def test_transported_embedding_small():
    h, k, p = idempotent_basis_z2()
    br = hk.trivial_brace(k)
    emb = hk.embed_into_rb(br)
    assert emb.ambient.dim == 4
    assert emb.ambient.validated
    # transport the whole embedding of the original brace and compare
    emb_h = hk.embed_into_rb(hk.trivial_brace(fx.f1()))
    pp = kron(p, p)
    assert emb.ambient.structure_equal(transport_hopf(emb_h.ambient, pp))
    assert emb.rb.map == pp.compose(emb_h.rb.map).compose(invert(pp))


def test_transported_embedding_s3():
    h = fx.f2()
    p = mixed_basis(h, 1, 2)
    k = transport_hopf(h, p)
    emb = hk.embed_into_rb(hk.flip_brace(k))
    assert emb.ambient.dim == 36
    assert emb.ambient.validated and emb.rb.validated


def test_transport_over_prime_field():
    from hopfkit.linalg import Field
    h = hk.group_algebra(gr.dihedral(3), Field(5))
    p = mixed_basis(h, 0, 3)
    k = transport_hopf(h, p)
    b_k = hk.verify_rb(k, p.compose(h.antipode).compose(invert(p)))
    assert hk.descend(b_k).hopf.validated
