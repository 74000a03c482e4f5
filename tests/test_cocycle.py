"""Relative Rota-Baxter operators, bijective 1-cocycles, correspondences."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hopfkit as hk
from hopfkit import cocycle as cocycle_mod
from hopfkit import fixtures as fx
from hopfkit import groups as gr
from hopfkit.errors import IdentityFails, SingularMap
from hopfkit.hopf import (HopfAlgebraData, ModuleAction, adjoint_action,
                          apply2, first_witness, tensor_coalgebra,
                          unit_counit_map)
from hopfkit.linalg import (QQ, Field, LinearOp, accumulate, invert, kron,
                            tensor_elem, tensor_space, tensor_split)
from hopfkit.report import AxiomReport

from conftest import edited, sweedler


def test_plain_rb_is_relative_over_adjoint_action(f2, b_inv_f2):
    # τ = B with the adjoint action reduces to the Rota-Baxter identity
    act = adjoint_action(f2)
    rel = hk.verify_relative_rb(f2, f2, act, b_inv_f2.map)
    assert rel.tau == b_inv_f2.map


def test_identity_relative_rb_for_flip_brace(f2):
    br = hk.flip_brace(f2)
    rel, coc = hk.canonical_from_brace(br)
    assert rel.tau.is_identity()
    assert coc.pi.is_identity()


def test_counit_collapse_is_singular(f2):
    br = hk.flip_brace(f2)
    act = ModuleAction(br.circle, br.dot, hk.brace.derived_action_map(br))
    with pytest.raises(SingularMap):
        hk.verify_cocycle(br.circle, br.dot, act, unit_counit_map(f2))


def test_invert_cocycle_gives_relative_rb(f2):
    br = hk.flip_brace(f2)
    _, coc = hk.canonical_from_brace(br)
    rel = hk.invert_cocycle(coc)
    assert rel.tau.is_identity()


def test_invert_relative_rb_round_trip(f2):
    br = hk.flip_brace(f2)
    rel, coc = hk.canonical_from_brace(br)
    coc2 = hk.invert_relative_rb(rel)
    assert coc2.pi == rel.tau  # identity both ways
    rel2 = hk.invert_cocycle(coc2)
    assert rel2.tau == rel.tau


def test_invert_relative_rb_singular_tau(f2):
    act = adjoint_action(f2)
    rel = hk.verify_relative_rb(f2, f2, act, fx.b_eps(f2).map)
    with pytest.raises(SingularMap):
        hk.invert_relative_rb(rel)


def test_canonical_from_brace_across_corpus():
    for op in gr.enumerate_rb_group_ops(gr.dihedral(3)):
        br = hk.brace_from_rb(gr.lift_to_group_algebra(op))
        rel, coc = hk.canonical_from_brace(br)
        assert rel.tau.is_identity() and coc.pi.is_identity()


def test_b_eps_relative_over_adjoint(f2, b_eps_f2):
    hk.verify_relative_rb(f2, f2, adjoint_action(f2), b_eps_f2.map)


# -- the cocycle-built Rota-Baxter Hopf algebra --------------------------------------------

def test_cocycle_rb_matches_embedding_flip_brace(f2):
    br = hk.flip_brace(f2)
    _, coc = hk.canonical_from_brace(br)
    built = hk.rb_hopf_from_cocycle(coc)
    emb = hk.embed_into_rb(br)
    assert built.ambient.structure_equal(emb.ambient)
    assert built.rb.map == emb.rb.map


def test_cocycle_rb_trivial_brace_f1(f1):
    br = hk.trivial_brace(f1)
    _, coc = hk.canonical_from_brace(br)
    built = hk.rb_hopf_from_cocycle(coc)
    assert built.ambient.dim == 4
    from hopfkit.linalg import tensor_elem, tensor_index
    g2 = built.ambient.space
    for x in range(2):
        for y in range(2):
            want = tensor_elem(g2, f1.product(f1.antipode.columns[x],
                                              f1.basis(y)), f1.unit)
            assert built.rb.map.columns[tensor_index(x, y, 2)] == want


def test_cocycle_rb_preserves_unit(f1):
    br = hk.trivial_brace(f1)
    _, coc = hk.canonical_from_brace(br)
    built = hk.rb_hopf_from_cocycle(coc)
    assert built.rb.map(built.ambient.unit) == built.ambient.unit


# -- oracle: the paper's formulas for the cocycle's Rota-Baxter Hopf algebra ----------------

def paper_cocycle_rb(c):
    """(ambient, B) on A ⊗ A from the π-formulas, as explicit loops:

        (x⊗y) * (z⊗t) = π(π^{-1}(x_(1)) π^{-1}(z))
                         ⊗ y S(x_(2)) π(π^{-1}(x_(3)) π^{-1}(t))
        S'(x⊗y)        = πSπ^{-1}(x_(1))
                         ⊗ π(Sπ^{-1}(x_(2)) π^{-1}(x_(3) S(y)))
        B(x⊗y)         = π(Sπ^{-1}(x) π^{-1}(y)) ⊗ 1

    with the inner products and the inner S in H, the outer ones in A.
    """
    h, a = c.source, c.target
    pi, pi_inv = c.pi, c.pi_inverse
    dim = a.dim
    aa = tensor_space(a.space, a.space)
    s_h, s_a = h.antipode, a.antipode

    def transported(u, v):
        return pi(h.product(pi_inv(u), pi_inv(v)))

    mul_cols = []
    for p in range(aa.dim):
        x, y = tensor_split(p, dim)
        legs = sweedler(a, x, 3)
        for q in range(aa.dim):
            z, t = tensor_split(q, dim)
            mul_cols.append(accumulate(aa, (
                (w, tensor_elem(aa, transported(a.basis(x1), a.basis(z)),
                                a.product_many([a.basis(y), s_a.columns[x2],
                                                transported(a.basis(x3),
                                                            a.basis(t))])))
                for w, (x1, x2, x3) in legs)))

    t_map = pi.compose(s_h).compose(pi_inv)
    anti_cols = []
    for p in range(aa.dim):
        x, y = tensor_split(p, dim)
        sy = s_a.columns[y]
        anti_cols.append(accumulate(aa, (
            (w, tensor_elem(aa, t_map.columns[x1],
                            pi(h.product(s_h(pi_inv(a.basis(x2))),
                                         pi_inv(a.product(a.basis(x3), sy))))))
            for w, (x1, x2, x3) in sweedler(a, x, 3))))

    b_cols = []
    for p in range(aa.dim):
        x, y = tensor_split(p, dim)
        b_cols.append(tensor_elem(
            aa, pi(h.product(s_h(pi_inv(a.basis(x))), pi_inv(a.basis(y)))),
            a.unit))

    comul, counit = tensor_coalgebra(a, a)
    ambient = HopfAlgebraData(aa, LinearOp(comul.codomain, aa, mul_cols),
                              tensor_elem(aa, a.unit, a.unit),
                              comul, counit, LinearOp(aa, aa, anti_cols))
    return ambient, LinearOp(aa, aa, b_cols)


def assert_matches_paper_formulas(coc):
    built = hk.rb_hopf_from_cocycle(coc)
    ambient, b_map = paper_cocycle_rb(coc)
    assert built.ambient.structure_equal(ambient)
    assert built.rb.map == b_map
    return built


def twisted_cocycle(br, phi):
    """φ as a bijective 1-cocycle H_circle -> H over the action
    x ⊗ u -> φ(x ⇀ φ^{-1}(u)), for an automorphism φ of the dot algebra:
    π = φ ∘ id is not the identity when φ is not."""
    act = hk.brace.derived_action_map(br)
    phi_inv = invert(phi)
    twisted = phi.compose(act).compose(
        kron(LinearOp.identity(br.circle.space), phi_inv))
    return hk.verify_cocycle(br.circle, br.dot,
                             ModuleAction(br.circle, br.dot, twisted), phi)


def d3_lifts(field):
    return [gr.lift_to_group_algebra(op, field)
            for op in gr.enumerate_rb_group_ops(gr.dihedral(3))]


def d3_twisted_cocycle(field):
    """The φ-twisted cocycle of the first D3 lift whose circle product φ
    does not preserve, φ the lift of conjugation by r: the brace that
    π = φ induces on A is then not the lift's own."""
    g = gr.dihedral(3)
    for lift in d3_lifts(field):
        br = hk.brace_from_rb(lift)
        phi = gr.lift_automorphism(br.dot, gr.conjugation_automorphism(g, 1))
        circle = br.circle.mul
        if phi.compose(circle) != circle.compose(kron(phi, phi)):
            return twisted_cocycle(br, phi)
    raise AssertionError("conjugation by r preserves every D3 circle product")


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
def test_cocycle_rb_with_pi_not_identity_matches_paper_formulas(field):
    coc = d3_twisted_cocycle(field)
    assert not coc.pi.is_identity()
    built = assert_matches_paper_formulas(coc)
    # the embedding of the lift's own brace is a different ambient
    own = hk.embed_into_rb(hk.verify_brace(coc.target, coc.source))
    assert not own.ambient.structure_equal(built.ambient)


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
def test_cocycle_rb_matches_paper_formulas_on_corpus(field):
    braces = [hk.flip_brace(fx.f2(field))]
    braces += [hk.brace_from_rb(b) for b in d3_lifts(field)]
    for br in braces:
        assert_matches_paper_formulas(hk.canonical_from_brace(br)[1])


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
@pytest.mark.parametrize("name", ["dense-Z2-inv", "dense-Z2-eps",
                                  "mixed-S3-inv", "mixed-S3-eps"])
def test_cocycle_rb_matches_paper_formulas_on_kernel_ops(kernel_op, name,
                                                         field):
    br = hk.brace_from_rb(kernel_op(name, field))
    assert_matches_paper_formulas(hk.canonical_from_brace(br)[1])


# -- oracles: the Sweedler sums of cocycle as explicit loops ---------------------------

def reference_relative_rhs(k, action, tau):
    """τ(a_(1) (τ(a_(2)) ⇀ b)) per basis pair, term by term."""
    return [tau(accumulate(k.space, (
        (c, k.product(k.basis(a1), apply2(action.act, tau.columns[a2],
                                          k.basis(b))))
        for c, (a1, a2) in sweedler(k, a, 2))))
        for a in range(k.dim) for b in range(k.dim)]


def reference_cocycle_rhs(h, a, action, pi):
    """π(x_(1)) (x_(2) ⇀ π(y)) per basis pair, term by term."""
    return [accumulate(a.space, (
        (c, a.product(pi.columns[x1], apply2(action.act, h.basis(x2),
                                             pi.columns[y])))
        for c, (x1, x2) in sweedler(h, x, 2)))
        for x in range(h.dim) for y in range(h.dim)]


_CANONICAL: dict = {}


def canonical_data(kernel_op, name, field):
    """(dot, circle, derived action) of the brace of a kernel operator."""
    if (name, field) not in _CANONICAL:
        br = hk.brace_from_rb(kernel_op(name, field))
        _CANONICAL[name, field] = (br.dot, br.circle,
                                   hk.brace.derived_action_map(br))
    return _CANONICAL[name, field]


def identity_outcome(run):
    """None when run() returns, the witness when it raises IdentityFails."""
    try:
        run()
    except IdentityFails as exc:
        return exc.witness
    return None


@settings(max_examples=20, deadline=None, database=None)
@given(field=st.sampled_from([QQ, Field(7)]),
       name=st.sampled_from(["dense-Z2-inv", "dense-Z2-eps", "dense-Z3-inv",
                             "mixed-S3-inv", "mixed-S3-eps"]),
       part=st.sampled_from(["map", "act"]), col=st.integers(0, 80),
       row=st.integers(0, 80),
       offset=st.one_of(st.integers(1, 6),
                        st.fractions(min_value=-2, max_value=2,
                                     max_denominator=3).filter(bool)))
def test_cocycle_sums_match_reference_on_edits(kernel_op, field, name, part,
                                               col, row, offset):
    # canonical_from_brace's pair, with the identity map or the derived
    # action edited; the module and coalgebra preconditions are skipped so
    # that the identity sweeps themselves run
    dot, circle, act = canonical_data(kernel_op, name, field)
    ident = LinearOp.identity(dot.space)
    if part == "map":
        ident = edited(ident, col, row, offset)
    else:
        act = edited(act, col, row, offset)
    action = ModuleAction(circle, dot, act)
    patches = [mock.patch.object(cocycle_mod, "check_module_bialgebra",
                                 lambda action: AxiomReport()),
               mock.patch.object(cocycle_mod, "module_algebra_report",
                                 lambda action: AxiomReport()),
               mock.patch.object(cocycle_mod, "check_coalgebra_morphism",
                                 lambda f, h, k: True)]
    for p in patches:
        p.start()
    try:
        rhs = reference_relative_rhs(dot, action, ident)
        assert identity_outcome(lambda: hk.verify_relative_rb(
            dot, circle, action, ident)) == first_witness(
                (dot.space, dot.space), lambda a, b: (
                    circle.product(ident.columns[a], ident.columns[b]),
                    rhs[a * dot.dim + b]))
        try:
            invert(ident)
        except SingularMap:
            return
        rhs = reference_cocycle_rhs(circle, dot, action, ident)
        assert identity_outcome(lambda: hk.verify_cocycle(
            circle, dot, action, ident)) == first_witness(
                (circle.space, circle.space), lambda x, y: (
                    ident(circle.mul_basis(x, y)), rhs[x * dot.dim + y]))
    finally:
        for p in patches:
            p.stop()
