"""Hopf braces: verification, derived action, embedding, symmetry suite."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hopfkit as hk
from hopfkit import fixtures as fx
from hopfkit import groups as gr
from hopfkit import brace as brace_mod
from hopfkit import rb as rb_mod
from hopfkit.brace import (HopfBrace, derived_action_map, rb_op_module_witness,
                           rb_symmetric_sufficient_witness)
from hopfkit.errors import (CompatibilityFails, DimensionMismatch,
                            HopfAxiomFails, HypothesisFails,
                            InternalTheoremViolation, NotExactFactorization)
from hopfkit.hopf import apply2, first_witness, transport_hopf
from hopfkit.linalg import (QQ, BasedSpace, Element, Field, LinearOp,
                            accumulate, invert, tensor_index)
from hopfkit.report import AxiomReport

from conftest import (Built, edited, reference_compatibility_witness,
                      reference_prop48, reference_prop49, sweedler)

ORACLE = settings(max_examples=10, deadline=None, database=None)


def conjugation_action(f2):
    """a ⇀ b = a^{-1} b a on the S3 group algebra."""
    g = gr.dihedral(3)
    cols = [f2.space.basis(g.mul(g.mul(g.inv(a), b), a))
            for a in range(6) for b in range(6)]
    return LinearOp(f2.hh, f2.space, cols)


def nonabelian_corpus_braces():
    """All braces from lifted Rota-Baxter operators on S3."""
    for op in gr.enumerate_rb_group_ops(gr.dihedral(3)):
        lift = gr.lift_to_group_algebra(op)
        yield lift, hk.brace_from_rb(lift)


# -- verify_brace ----------------------------------------------------------------

def test_flip_brace_on_s3(f2):
    br = hk.flip_brace(f2)
    assert br.validated
    i_r, i_s = f2.space.index_of("r"), f2.space.index_of("s")
    assert br.circle.mul_basis(i_r, i_s) == f2.mul_basis(i_s, i_r)


def test_trivial_brace(f2):
    assert hk.trivial_brace(f2).validated


def test_flip_brace_abelian_is_trivial(f1):
    br = hk.flip_brace(f1)
    assert br.circle.mul == f1.mul


def test_non_hopf_circle_rejected(f2):
    # g∘h := g·g·h fails the unit axiom of the circle structure
    cols = [f2.product(f2.mul_basis(i, i), f2.basis(j))
            for i in range(6) for j in range(6)]
    circle = hk.hopf_from_structure(f2.space, LinearOp(f2.hh, f2.space, cols),
                                    f2.unit, f2.comul, f2.counit, f2.antipode)
    with pytest.raises(HopfAxiomFails):
        hk.verify_brace(f2, circle)


def test_incompatible_hopf_pair_rejected():
    # transport the Z4 product along the non-automorphism basis bijection
    # fixing e, g and swapping g2 <-> g3: a genuine Hopf structure on the
    # same coalgebra that fails only the brace compatibility
    z4 = hk.group_algebra(gr.cyclic(4))
    sigma = [0, 1, 3, 2]
    inv_sigma = [0, 1, 3, 2]
    cols = []
    for i in range(4):
        for j in range(4):
            prod = (inv_sigma[i] + inv_sigma[j]) % 4
            cols.append(z4.space.basis(sigma[prod]))
    anti = LinearOp(z4.space, z4.space,
                    [z4.space.basis(sigma[(-inv_sigma[i]) % 4]) for i in range(4)])
    circle = hk.hopf_from_structure(z4.space, LinearOp(z4.hh, z4.space, cols),
                                    z4.unit, z4.comul, z4.counit, anti)
    assert hk.verify_hopf(circle).passed
    with pytest.raises(CompatibilityFails) as exc:
        hk.verify_brace(z4, circle)
    assert exc.value.witness is not None


# -- braces from Rota-Baxter operators ----------------------------------------------

def test_brace_from_b_inv_is_flip_brace(f2, b_inv_f2):
    br = hk.brace_from_rb(b_inv_f2)
    assert br.circle.mul == hk.flip_brace(f2).circle.mul


def test_brace_from_b_eps_is_trivial(f2, b_eps_f2):
    br = hk.brace_from_rb(b_eps_f2)
    assert br.circle.mul == f2.mul


def test_brace_from_rb_abelian_trivial(f1):
    br = hk.brace_from_rb(fx.b_inv(f1))
    assert br.circle.mul == f1.mul


def test_brace_family_with_automorphism(b_inv_f2, phi_r_f2):
    hk.brace_from_rb(b_inv_f2, phi_r_f2)


def test_brace_family_builds_each_descendent_once(monkeypatch, b_inv_f2,
                                                  phi_r_f2):
    # the isomorphism check reads the three descendents the braces were
    # verified on, built in the order B, B~, B^phi
    calls = []
    for mod, name in [(rb_mod, "descend"), (brace_mod, "descend"),
                      (rb_mod, "rb_tilde"), (rb_mod, "rb_conjugate")]:
        def counting(*args, _name=name, _real=getattr(mod, name)):
            calls.append((_name, args[0]))
            return _real(*args)
        monkeypatch.setattr(mod, name, counting)
    hk.brace_from_rb(b_inv_f2, phi_r_f2)
    assert [name for name, _ in calls] == [
        "descend", "rb_tilde", "descend", "rb_conjugate", "descend"]
    assert all(arg is b_inv_f2 for _, arg in calls[:2] + calls[3:4])


# -- derived action ---------------------------------------------------------------------

def test_derived_action_flip_brace_is_conjugation(f2):
    br = hk.flip_brace(f2)
    act = hk.derived_action(br)
    assert act.act == conjugation_action(f2)


def test_derived_action_trivial_brace(f2):
    br = hk.trivial_brace(f2)
    act = hk.derived_action(br)
    for a in range(6):
        for b in range(6):
            want = f2.basis(b).scale(f2._eps[a])
            assert act.basis(a, b) == want


def test_derived_action_rb_brace_closed_form(f2, b_inv_f2):
    # for an RB brace the action is a ⇀ b = B(a_(1)) b S(B(a_(2)))
    br = hk.brace_from_rb(b_inv_f2)
    act = hk.derived_action(br)
    b = b_inv_f2.map
    for a in range(6):
        for y in range(6):
            want = hk.linalg.accumulate(f2.space, (
                (c, f2.product_many([b.columns[a1], f2.basis(y),
                                     f2.antipode(b.columns[a2])]))
                for c, (a1, a2) in sweedler(f2, a, 2)))
            assert act.basis(a, y) == want


# -- embedding into a Rota-Baxter Hopf algebra ---------------------------------------------

def test_embed_flip_brace_full(f2):
    emb = hk.embed_into_rb(hk.flip_brace(f2))
    assert emb.ambient.dim == 36
    assert emb.ambient.validated
    assert emb.rb.validated


def test_embed_trivial_brace_f1(f1):
    emb = hk.embed_into_rb(hk.trivial_brace(f1))
    assert emb.ambient.dim == 4
    # B'(x⊗y) = S(x)y ⊗ 1 on group-likes (T = S, ∘ = ·)
    g2 = emb.ambient.space
    for x in range(2):
        for y in range(2):
            want = hk.tensor_elem(g2, f1.product(f1.antipode.columns[x],
                                                 f1.basis(y)), f1.unit)
            assert emb.rb.map.columns[tensor_index(x, y, 2)] == want


def test_embed_psi_unit(f2):
    emb = hk.embed_into_rb(hk.flip_brace(f2))
    assert emb.psi(f2.unit) == emb.ambient.unit


def test_embed_psi_restriction_reproduces_brace(f2):
    # ψ is a brace morphism: verified inside embed_into_rb; re-check the
    # circle restriction explicitly through an independently built
    # descendent of B'
    br = hk.flip_brace(f2)
    emb = hk.embed_into_rb(br)
    circle_ambient = hk.descend(emb.rb).hopf
    for g in range(6):
        for x in range(6):
            lhs = emb.psi(br.circle.mul_basis(g, x))
            rhs = circle_ambient.product(emb.psi.columns[g], emb.psi.columns[x])
            assert lhs == rhs


# -- symmetry suite ----------------------------------------------------------------------

def test_flip_brace_is_op_module_and_symmetric(f2):
    br = hk.flip_brace(f2)
    assert hk.check_op_module(br)
    assert hk.check_symmetric(br)
    assert hk.check_symmetric_sufficient(br)


def test_trivial_brace_is_op_module_and_symmetric(f2):
    br = hk.trivial_brace(f2)
    assert hk.check_op_module(br)
    assert hk.check_symmetric(br)


def test_rb_brace_symmetry_conditions(f2, b_inv_f2, b_eps_f2):
    assert hk.check_rb_op_module(f2, b_inv_f2.map)
    assert hk.check_rb_op_module(f2, b_eps_f2.map)
    assert hk.check_rb_symmetric_sufficient(f2, b_inv_f2.map)


def test_rb_op_module_false_for_identity_map(f2):
    assert not hk.check_rb_op_module(f2, LinearOp.identity(f2.space))


def test_symmetry_implications_across_s3_corpus():
    saw_negative = False
    for lift, br in nonabelian_corpus_braces():
        om = hk.check_op_module(br)
        sym = hk.check_symmetric(br)
        p44 = hk.check_symmetric_sufficient(br)
        p48 = hk.check_rb_symmetric_sufficient(lift.carrier, lift.map)
        p49 = hk.check_rb_op_module(lift.carrier, lift.map)
        assert p49 == om
        if om:
            assert sym
        if p44:
            assert sym
        if p48:
            assert sym
        if not om:
            saw_negative = True
            assert not sym  # the three power-map operators on S3
    assert saw_negative


def test_known_nonsymmetric_brace():
    # B: e,r,r2,s,rs,r2s -> e,r2,r,e,r,r2 is Rota-Baxter on S3 but its
    # brace is neither an op-module nor symmetric
    s3 = gr.dihedral(3)
    op = gr.verify_rb_group(s3, (0, 2, 1, 0, 1, 2))
    br = hk.brace_from_rb(gr.lift_to_group_algebra(op))
    assert not hk.check_op_module(br)
    assert not hk.check_symmetric(br)
    assert not hk.check_symmetric_sufficient(br)


# -- braces from op-actions and factorizations ----------------------------------------------

def test_brace_from_conjugation_action_is_flip(f2):
    br = hk.brace_from_op_action(f2, conjugation_action(f2))
    assert br.circle.mul == hk.flip_brace(f2).circle.mul


def test_brace_from_trivial_action_is_trivial(f2):
    cols = [f2.basis(b).scale(f2._eps[a]) for a in range(6) for b in range(6)]
    br = hk.brace_from_op_action(f2, LinearOp(f2.hh, f2.space, cols))
    assert br.circle.mul == f2.mul


def test_brace_from_adjoint_action_hypothesis_fails(f2):
    g = gr.dihedral(3)
    cols = [f2.space.basis(g.mul(g.mul(a, b), g.inv(a)))
            for a in range(6) for b in range(6)]
    with pytest.raises(HypothesisFails):
        hk.brace_from_op_action(f2, LinearOp(f2.hh, f2.space, cols))


def test_factorization_brace_s3(f2):
    br = hk.brace_from_exact_factorization(f2, ["e", "r", "r2"], ["e", "s"])
    assert hk.check_symmetric(br)
    assert hk.check_op_module(br)
    i_rs = f2.space.index_of("rs")
    i_r2s = f2.space.index_of("r2s")
    assert br.circle.mul_basis(i_rs, i_r2s) == f2.unit


def test_factorization_trivial_part_gives_dot(f2):
    br = hk.brace_from_exact_factorization(
        f2, ["e", "r", "r2", "s", "rs", "r2s"], ["e"])
    assert br.circle.mul == f2.mul


def test_factorization_wrong_sizes_rejected(f2):
    with pytest.raises(NotExactFactorization):
        hk.brace_from_exact_factorization(f2, ["e", "s"], ["e", "rs"])


# -- oracles: the sweeps term by term ----------------------------------------------------

def basis_change(h, columns):
    """The map sending the group basis to the basis whose k-th vector has
    the coordinates ``columns[k]``; a first column {0: 1} keeps the unit
    as the first basis vector."""
    space = BasedSpace(tuple(f"w{k}" for k in range(h.dim)), h.field)
    return invert(LinearOp(space, h.space,
                           [Element(h.space, col) for col in columns]))


DENSE_Z3 = [{0: 1},
            {0: Fraction(1, 2), 1: 1, 2: Fraction(1, 3)},
            {0: -1, 1: 1, 2: 2}]
DENSE_Z4 = [{0: 1},
            {0: Fraction(1, 2), 1: 1, 2: -1, 3: Fraction(2, 3)},
            {0: 1, 1: Fraction(-1, 3), 2: 2, 3: 1},
            {0: -1, 1: 1, 2: Fraction(1, 2), 3: 3}]


def test_compatibility_sweep_matches_reference_on_valid_braces():
    h = fx.f2()
    p = basis_change(h, [{0: 1}, {1: 1}, {2: 1, 5: 1}, {3: 1}, {4: 1},
                         {2: 1, 5: -1}])
    k = transport_hopf(h, p)
    for op in gr.enumerate_rb_group_ops(gr.dihedral(3)):
        lift = gr.lift_to_group_algebra(op)
        b_k = hk.verify_rb(k, p.compose(lift.map).compose(invert(p)))
        circle = hk.descend(b_k).hopf
        assert reference_compatibility_witness(k, circle) is None
        assert hk.verify_brace(k, circle).validated


@ORACLE
@given(sigma=st.sampled_from([(0, 2, 1, 3), (0, 1, 3, 2), (0, 2, 3, 1),
                              (0, 3, 1, 2)]),
       field=st.sampled_from([QQ, Field(7)]))
def test_compatibility_witness_matches_reference_on_dense_z4(sigma, field):
    # relabelling Z4 along a bijection that fixes e but is no automorphism
    # gives a second group structure on the same coalgebra; both are moved
    # to a dense basis whose first vector is still e, so every triple
    # (e, b, c) holds and the first failure lies further in
    z4 = hk.group_algebra(gr.cyclic(4), field)
    inv = [sigma.index(i) for i in range(4)]
    cols = [z4.space.basis(sigma[(inv[i] + inv[j]) % 4])
            for i in range(4) for j in range(4)]
    anti = LinearOp(z4.space, z4.space,
                    [z4.space.basis(sigma[-inv[i] % 4]) for i in range(4)])
    circle = hk.hopf_from_structure(z4.space, LinearOp(z4.hh, z4.space, cols),
                                    z4.unit, z4.comul, z4.counit, anti)
    assert hk.verify_hopf(circle).passed
    p = basis_change(z4, DENSE_Z4)
    dot_k, circle_k = transport_hopf(z4, p), transport_hopf(circle, p)
    want = reference_compatibility_witness(dot_k, circle_k)
    assert want is not None and want.at[0] != "w0"
    with pytest.raises(CompatibilityFails) as exc:
        hk.verify_brace(dot_k, circle_k)
    assert exc.value.witness == want


def perturbed(b, col, row, delta):
    cols = list(b.columns)
    coeffs = dict(cols[col].coeffs)
    coeffs[row] = coeffs.get(row, 0) + delta
    cols[col] = Element(b.codomain, coeffs)
    return LinearOp(b.domain, b.codomain, cols)


DELTAS = st.fractions(min_value=-2, max_value=2, max_denominator=3).filter(bool)


@ORACLE
@given(col=st.integers(1, 2), row=st.integers(0, 2), delta=DELTAS)
def test_adjoint_witnesses_match_reference_on_dense_z3(col, row, delta):
    # the inversion operator moved to a dense basis of Q[Z3] whose first
    # vector is e, with one entry off a column other than B(e)
    h = hk.group_algebra(gr.cyclic(3))
    p = basis_change(h, DENSE_Z3)
    k = transport_hopf(h, p)
    b = perturbed(p.compose(h.antipode).compose(invert(p)), col, row, delta)
    assert rb_symmetric_sufficient_witness(k, b) == reference_prop48(k, b)
    assert rb_op_module_witness(k, b) == reference_prop49(k, b)


@ORACLE
@given(col=st.integers(0, 5), row=st.integers(0, 5), delta=DELTAS,
       base=st.sampled_from(["inv", "eps"]))
def test_adjoint_witnesses_match_reference_on_s3(f2, col, row, delta, base):
    b = f2.antipode if base == "inv" else fx.b_eps(f2).map
    b = perturbed(b, col, row, delta)
    assert rb_symmetric_sufficient_witness(f2, b) == reference_prop48(f2, b)
    assert rb_op_module_witness(f2, b) == reference_prop49(f2, b)


def test_adjoint_verdicts_match_reference_across_s3_corpus(f2):
    for op in gr.enumerate_rb_group_ops(gr.dihedral(3)):
        b = gr.lift_to_group_algebra(op).map
        assert rb_symmetric_sufficient_witness(f2, b) == reference_prop48(f2, b)
        assert rb_op_module_witness(f2, b) == reference_prop49(f2, b)


# -- the (h, b) checks refuse a b that is no endomap of h ---------------------------

MAP_CHECKS = {"prop48": rb_symmetric_sufficient_witness,
              "prop49": rb_op_module_witness,
              "central-image": rb_mod.central_image_witness,
              "lemma218": rb_mod.descendent_antipode_inverse_witness}


@pytest.mark.parametrize("check", sorted(MAP_CHECKS))
def test_map_checks_refuse_a_basis_map_into_another_carrier(check):
    # every e_g of Q[S3] to the unit of Q[Z6]: six basis columns, which
    # every condition would pass if read on the indices of S3
    h = hk.group_algebra(gr.dihedral(3))
    z6 = hk.group_algebra(gr.cyclic(6))
    b = LinearOp(h.space, z6.space, [z6.unit] * h.dim)
    with pytest.raises(DimensionMismatch, match="endomap of the carrier"):
        MAP_CHECKS[check](h, b)


@pytest.mark.parametrize("check", sorted(MAP_CHECKS))
def test_map_checks_refuse_a_map_with_two_columns(check):
    # Q[Z2] -> Q[S3], e -> s and g -> r: too few columns to index by S3
    h = hk.group_algebra(gr.dihedral(3))
    z2 = hk.group_algebra(gr.cyclic(2))
    b = LinearOp(z2.space, h.space, [h.basis(3), h.basis(1)])
    with pytest.raises(DimensionMismatch, match="endomap of the carrier"):
        MAP_CHECKS[check](h, b)


# -- oracles: the Sweedler sums of brace as explicit loops ---------------------------

def reference_derived_action_map(dot, circle):
    """a ⇀ b = S(a_(1)) (a_(2) ∘ b), term by term."""
    cols = []
    for a in range(dot.dim):
        legs = sweedler(dot, a, 2)
        for b in range(dot.dim):
            cols.append(accumulate(dot.space, (
                (w, dot.product(dot.antipode.columns[a1],
                                circle.mul_basis(a2, b)))
                for w, (a1, a2) in legs)))
    return LinearOp(dot.hh, dot.space, cols)


def reference_left_twist(h, act):
    """a_(1) (a_(2) ⇀ b) per basis pair: the first reconstruction of
    derived_action and the circle product of brace_from_op_action."""
    dim = h.dim
    return [accumulate(h.space, ((c, h.product(h.basis(a1),
                                               act.columns[tensor_index(a2, b, dim)]))
                                 for c, (a1, a2) in sweedler(h, a, 2)))
            for a in range(dim) for b in range(dim)]


def reference_circle_twist(dot, circle, act):
    """a_(1) ∘ (T(a_(2)) ⇀ b) per basis pair, with T the circle antipode."""
    t = circle.antipode
    return [accumulate(dot.space, ((c, apply2(circle.mul, dot.basis(a1),
                                              apply2(act, t.columns[a2],
                                                     dot.basis(b))))
                                   for c, (a1, a2) in sweedler(dot, a, 2)))
            for a in range(dot.dim) for b in range(dot.dim)]


def reference_op_action_antipode(h, act):
    """T(a) = S(a_(1)) ⇀ S(a_(2)), term by term."""
    s = h.antipode
    return LinearOp(h.space, h.space, [accumulate(h.space, (
        (w, apply2(act, s.columns[a1], s.columns[a2]))
        for w, (a1, a2) in sweedler(h, a, 2))) for a in range(h.dim)])


def reference_reconstruction_failure(br, act):
    """The message derived_action raises for the first failing
    reconstruction identity, or None."""
    dot, circle = br.dot, br.circle
    for name, got, want in (
            ("a∘b = a1(a2⇀b)", reference_left_twist(dot, act), circle.mul),
            ("ab = a1∘(T(a2)⇀b)", reference_circle_twist(dot, circle, act),
             dot.mul)):
        for p, col in enumerate(got):
            if col != want.columns[p]:
                a, b = divmod(p, dot.dim)
                return (f"reconstruction {name} fails at "
                        f"({dot.label(a)},{dot.label(b)})")
    return None


_BRACES: dict = {}


def kernel_brace(kernel_op, name, field):
    if (name, field) not in _BRACES:
        _BRACES[name, field] = hk.brace_from_rb(kernel_op(name, field))
    return _BRACES[name, field]


BRACE_NAMES = ["dense-Z2-inv", "dense-Z2-eps", "dense-Z3-inv", "mixed-S3-inv",
               "mixed-S3-eps"]


@ORACLE
@given(field=st.sampled_from([QQ, Field(7)]), name=st.sampled_from(BRACE_NAMES),
       part=st.sampled_from(["mul", "antipode", "act"]),
       col=st.integers(0, 40), row=st.integers(0, 40), delta=DELTAS)
def test_derived_action_sums_match_reference_on_edits(kernel_op, field, name,
                                                      part, col, row, delta):
    br = kernel_brace(kernel_op, name, field)
    dot, circle = br.dot, br.circle
    mul, t = circle.mul, circle.antipode
    if part == "mul":
        mul = edited(mul, col, row, delta)
    elif part == "antipode":
        t = edited(t, col, row, delta)
    circle = hk.hopf_from_structure(dot.space, mul, dot.unit, dot.comul,
                                    dot.counit, t)
    edited_br = HopfBrace(dot, circle, True)
    act = reference_derived_action_map(dot, circle)
    assert derived_action_map(edited_br) == act
    if part == "act":
        act = edited(act, col, row, delta)
    want = reference_reconstruction_failure(edited_br, act)
    with mock.patch.object(brace_mod, "derived_action_map", lambda br: act), \
            mock.patch.object(brace_mod, "check_module_bialgebra",
                              lambda action: AxiomReport()):
        try:
            brace_mod.derived_action(edited_br)
            got = None
        except InternalTheoremViolation as exc:
            got = str(exc)
    assert got == want


@ORACLE
@given(field=st.sampled_from([QQ, Field(7)]), name=st.sampled_from(BRACE_NAMES),
       col=st.integers(0, 40), row=st.integers(0, 40),
       delta=st.one_of(st.none(), DELTAS))
def test_brace_from_op_action_sums_match_reference(kernel_op, field, name, col,
                                                   row, delta):
    # the derived action of the flip brace, b ⇀ c = S(b_(1)) c b_(2), is an
    # action of the opposite algebra; delta None keeps it unedited
    h = kernel_op(name, field).carrier
    act = reference_derived_action_map(h, hk.flip_brace(h).circle)
    if delta is not None:
        act = edited(act, col, row, delta)
    circle = reference_left_twist(h, act)
    want = first_witness((h.space, h.space, h.space), lambda a, b, c: (
        apply2(act, circle[a * h.dim + b], h.basis(c)),
        apply2(act, h.mul_basis(b, a), h.basis(c))))

    def stop(built, stage):
        raise Built(built)
    with mock.patch.object(brace_mod, "check_module_bialgebra",
                           lambda action: AxiomReport()), \
            mock.patch.object(brace_mod, "_verified", stop):
        with pytest.raises((HypothesisFails, Built)) as exc:
            hk.brace_from_op_action(h, act)
    if want is not None:
        assert exc.value.witness == want
    else:
        built = exc.value.args[0]
        assert list(built.mul.columns) == circle
        assert built.antipode == reference_op_action_antipode(h, act)
