"""Rota-Baxter verification, transforms, and the descendent Hopf algebra."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hopfkit as hk
from hopfkit import fixtures as fx
from hopfkit import groups as gr
from hopfkit import rb as rb_mod
from hopfkit.errors import HopfkitError, NotAutomorphism, RBIdentityFails
from hopfkit.hopf import adjoint_map, transport_hopf
from hopfkit.linalg import (QQ, BasedSpace, Element, Field, LinearOp,
                            accumulate, invert, kron)
from hopfkit.report import AxiomReport, Witness

from conftest import (circle_product_element, edited, reference_rb_witness,
                      sweedler, transported)


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


# -- reference: check_descendent_isos with explicit loops ------------------------------

def reference_descendent_isos(b, phi):
    """check_descendent_isos with both multiplicativity sweeps written out."""
    b.require_validated()
    h = b.carrier
    d = rb_mod.descend(b)
    d_tilde = rb_mod.descend(hk.rb_tilde(b))
    d_conj = rb_mod.descend(hk.rb_conjugate(b, phi))
    report = AxiomReport()

    s = h.antipode
    w = None
    if not s.compose(s).is_identity():
        w = Witness(("S∘S",), "S∘S", "id")
    report.add("antipode-bijective", w)

    w = None
    for g in range(h.dim):
        for x in range(h.dim):
            lhs = s(d.hopf.mul_basis(g, x))
            rhs = d_tilde.hopf.product(s.columns[g], s.columns[x])
            if lhs != rhs:
                w = Witness((h.label(g), h.label(x)), str(lhs), str(rhs))
                break
        if w:
            break
    report.add("antipode-multiplicative", w)

    w = None
    if not hk.check_coalgebra_morphism(s, d.hopf, d_tilde.hopf):
        w = Witness(("S",), "Δ∘S", "(S⊗S)∘Δ")
    report.add("antipode-coalgebra-morphism", w)

    w = None
    try:
        invert(phi)
    except HopfkitError:
        w = Witness(("phi",), "singular", "bijective")
    report.add("conjugate-bijective", w)

    w = None
    for g in range(h.dim):
        for x in range(h.dim):
            lhs = phi(d.hopf.mul_basis(g, x))
            rhs = d_conj.hopf.product(phi.columns[g], phi.columns[x])
            if lhs != rhs:
                w = Witness((h.label(g), h.label(x)), str(lhs), str(rhs))
                break
        if w:
            break
    report.add("conjugate-multiplicative", w)

    w = None
    if not hk.check_coalgebra_morphism(phi, d.hopf, d_conj.hopf):
        w = Witness(("phi",), "Δ∘phi", "(phi⊗phi)∘Δ")
    report.add("conjugate-coalgebra-morphism", w)
    return report


def edited_descend(real, which, part, col, row, offset):
    """``descend`` whose ``which``-th call (0: B, 1: B~, 2: B^phi) returns a
    descendent with one entry of its product or coproduct moved; the
    result is stamped validated so the morphism checks run on it."""
    calls = []

    def descend(b):
        d = real(b)
        calls.append(d)
        if len(calls) - 1 != which % 3:
            return d
        h = d.hopf
        maps = {"mul": h.mul, "comul": h.comul}
        op = maps[part]
        cols = list(op.columns)
        coeffs = dict(cols[col % len(cols)].coeffs)
        r = row % op.codomain.dim
        coeffs[r] = coeffs.get(r, 0) + offset
        cols[col % len(cols)] = Element(op.codomain, coeffs)
        maps[part] = LinearOp(op.domain, op.codomain, cols)
        moved = hk.hopf_from_structure(h.space, maps["mul"], h.unit,
                                       maps["comul"], h.counit, h.antipode)
        moved.validated = True
        return rb_mod.DescendentHopf(d.source, moved)
    return descend


@settings(max_examples=20, deadline=None, database=None)
@given(field=st.sampled_from([QQ, Field(7)]), op=st.sampled_from(["inv", "eps"]),
       which=st.integers(0, 2), part=st.sampled_from(["mul", "comul"]),
       col=st.integers(0, 40), row=st.integers(0, 40),
       offset=st.one_of(st.integers(1, 6),
                        st.fractions(min_value=-2, max_value=2,
                                     max_denominator=3).filter(bool)))
def test_descendent_isos_match_reference_on_edited_descendents(
        field, op, which, part, col, row, offset):
    h = fx.f2(field)
    b = (fx.b_inv if op == "inv" else fx.b_eps)(h)
    phi = fx.phi_r(h)
    with mock.patch.object(rb_mod, "descend", edited_descend(
            rb_mod.descend, which, part, col, row, offset)):
        got = str(hk.check_descendent_isos(b, phi))
    with mock.patch.object(rb_mod, "descend", edited_descend(
            rb_mod.descend, which, part, col, row, offset)):
        want = str(reference_descendent_isos(b, phi))
    assert got == want


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
def test_descendent_isos_match_reference_on_s3_corpus(field):
    h = fx.f2(field)
    phi = fx.phi_r(h)
    for op in gr.enumerate_rb_group_ops(gr.dihedral(3)):
        b = hk.verify_rb(h, LinearOp(h.space, h.space,
                                     [h.basis(t) for t in op.table]))
        assert str(hk.check_descendent_isos(b, phi)) == \
            str(reference_descendent_isos(b, phi))


# -- oracles: the Sweedler sums of rb as explicit loops ----------------------------------

def reference_tilde(h, b):
    """B~(x) = S(x_(1)) B(S(x_(2))), term by term."""
    return LinearOp(h.space, h.space, [accumulate(h.space, (
        (c, h.product(h.antipode.columns[x1], b(h.antipode.columns[x2])))
        for c, (x1, x2) in sweedler(h, x, 2))) for x in range(h.dim)])


def reference_descendent_antipode(h, b):
    """T(g) = S(B(g_(1))) S(g_(2)) B(g_(3)) over the three-leg coproduct."""
    return LinearOp(h.space, h.space, [accumulate(h.space, (
        (c, h.product_many([h.antipode(b.columns[g1]), h.antipode.columns[g2],
                            b.columns[g3]]))
        for c, (g1, g2, g3) in sweedler(h, g, 3))) for g in range(h.dim)])


def reference_antipode_inverse_witness(h, b, t):
    """First x with Σ B(x_(1)) B(T(x_(2))) != ε(x) 1."""
    for x in range(h.dim):
        lhs = accumulate(h.space, ((c, h.product(b.columns[x1], b(t.columns[x2])))
                                   for c, (x1, x2) in sweedler(h, x, 2)))
        rhs = h.unit.scale(h._eps[x])
        if lhs != rhs:
            return Witness((h.label(x),), str(lhs), str(rhs))
    return None


def reference_action_map(b):
    """x ⇀ y = B(x_(1)) y S(B(x_(2))), term by term."""
    h = b.carrier
    cols = []
    for x in range(h.dim):
        wings = [(c, b.map.columns[x1], h.antipode(b.map.columns[x2]))
                 for c, (x1, x2) in sweedler(h, x, 2)]
        for y in range(h.dim):
            cols.append(accumulate(h.space, (
                (c, h.product_many([left, h.basis(y), right]))
                for c, left, right in wings)))
    return LinearOp(h.hh, h.space, cols)


EDIT = dict(col=st.integers(0, 40), row=st.integers(0, 40),
            offset=st.one_of(st.integers(1, 6),
                             st.fractions(min_value=-2, max_value=2,
                                          max_denominator=3).filter(bool)))


@settings(max_examples=25, deadline=None, database=None)
@given(field=st.sampled_from([QQ, Field(7)]), name=st.sampled_from(
    ["dense-Z2-inv", "dense-Z2-eps", "dense-Z3-inv", "mixed-S3-inv",
     "mixed-S3-eps"]), **EDIT)
def test_rb_sweedler_sums_match_reference_on_edited_b(kernel_op, field, name,
                                                       col, row, offset):
    h = kernel_op(name, field).carrier
    b = edited(kernel_op(name, field).map, col, row, offset)
    # rb_tilde re-verifies its result; here only the built map is compared
    with mock.patch.object(rb_mod, "verify_rb", lambda h, m: m):
        assert rb_mod.rb_tilde(rb_mod.RotaBaxterOp(h, b, True)) == \
            reference_tilde(h, b)
    t = reference_descendent_antipode(h, b)
    assert rb_mod.descendent_antipode(h, b) == t
    assert rb_mod.descendent_antipode_inverse_witness(h, b) == \
        reference_antipode_inverse_witness(h, b, t)


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
def test_rb_sweedler_sums_match_reference_on_operators(kernel_op, field):
    for name in ["dense-Z2-inv", "dense-Z2-eps", "dense-Z3-inv",
                 "mixed-S3-inv", "mixed-S3-eps"]:
        b = kernel_op(name, field)
        h = b.carrier
        assert hk.rb_tilde(b).map == reference_tilde(h, b.map)
        assert rb_mod.descendent_antipode(h, b.map) == \
            reference_descendent_antipode(h, b.map)
        assert rb_mod.descendent_antipode_inverse_witness(h, b.map) is None
        assert rb_mod.rb_action_map(b) == reference_action_map(b)


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
def test_rb_action_map_is_adjoint_after_b_on_s3(field):
    # B(x) ▷ y = B(x)_(1) y S(B(x)_(2)) = B(x_(1)) y S(B(x_(2))) because a
    # Rota-Baxter operator is a coalgebra map
    h = fx.f2(field)
    ops = gr.enumerate_rb_group_ops(gr.dihedral(3))
    assert len(ops) == 8
    for op in ops:
        b = hk.verify_rb(h, gr.lift_map(h, op.table))
        after_b = adjoint_map(h).compose(kron(b.map, LinearOp.identity(h.space)))
        assert rb_mod.rb_action_map(b) == after_b == reference_action_map(b)


# -- the circle table, built once per operator ---------------------------------------

def paper_circle_columns(b):
    """Every basis pair through the paper's formula for ∘_B."""
    h = b.carrier
    return [circle_product_element(h, b.map, h.basis(x), h.basis(y))
            for x in range(h.dim) for y in range(h.dim)]


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
@pytest.mark.parametrize("carrier", [fx.f1, fx.f2], ids=["F1", "F2"])
@pytest.mark.parametrize("make", [fx.b_inv, fx.b_eps], ids=["inv", "eps"])
def test_circle_table_equals_paper_formula(carrier, make, field):
    b = make(carrier(field))
    assert list(b.circle.columns) == paper_circle_columns(b)


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
@pytest.mark.parametrize("name", ["dense-Z2-inv", "dense-Z2-eps",
                                  "mixed-S3-inv", "mixed-S3-eps"])
def test_circle_table_equals_paper_formula_on_kernel_ops(kernel_op, name,
                                                         field):
    b = kernel_op(name, field)
    assert list(b.circle.columns) == paper_circle_columns(b)


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
def test_circle_table_equals_paper_formula_on_embedding_ambient(field):
    rb = hk.embed_into_rb(hk.brace_from_rb(fx.b_inv(fx.f2(field)))).rb
    assert rb.carrier.dim == 36
    assert list(rb.circle.columns) == paper_circle_columns(rb)


def test_circle_is_not_a_field(f2):
    b = hk.verify_rb(f2, f2.antipode)
    built = rb_mod.RotaBaxterOp(f2, f2.antipode, True)
    assert "circle" not in repr(b)
    assert b == built and repr(b) == repr(built)
    assert "circle" not in vars(built)
    assert built.circle == b.circle
    assert built.circle is built.circle


def counting_circle_mul(monkeypatch):
    """Patch ``rb._circle_mul`` to record each ``(carrier, map)`` it is
    called with; returns the list."""
    built = []
    circle_mul = rb_mod._circle_mul

    def counting(h, m):
        built.append((h, m))
        return circle_mul(h, m)
    monkeypatch.setattr(rb_mod, "_circle_mul", counting)
    return built


@pytest.mark.parametrize("make, sweeps", [
    (lambda: fx.b_inv(fx.f1()), False), (lambda: fx.b_inv(fx.f2()), False),
    (lambda: fx.b_eps(fx.f2()), False),
    (lambda: hk.verify_rb(*transported("dense-Z3-inv", QQ)), True)],
    ids=["F1-inv", "F2-inv", "F2-eps", "dense-Z3-inv"])
def test_one_circle_table_per_operator(monkeypatch, make, sweeps):
    built = counting_circle_mul(monkeypatch)
    b = make()
    h = b.carrier
    d = hk.descend(b)
    hk.check_central_image(b)
    # H(B) multiplies through B's own table, built once for B on H
    assert d.hopf.mul is b.circle
    if not sweeps:
        # H(B) is again a group algebra, so verify_rb on it builds nothing
        assert [(c is h, m is b.map) for c, m in built] == [(True, True)]
        return
    # verify_rb on H(B) sweeps, so it builds the table of B as an operator
    # on H(B), the only other one
    assert [(c is h, m is b.map) for c, m in built] == [(True, True),
                                                        (False, True)]
    assert built[1][0] is d.hopf


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
def test_group_path_builds_the_circle_on_first_read(monkeypatch, field):
    built = counting_circle_mul(monkeypatch)
    h = fx.f2(field)
    ops = [fx.b_inv(fx.f1(field)), fx.b_inv(h), fx.b_eps(h)] + [
        hk.verify_rb(h, gr.lift_map(h, op.table))
        for op in gr.enumerate_rb_group_ops(gr.dihedral(3))]
    # verify_rb accepted each on the group layer and built no table
    assert built == [] and all(b.validated for b in ops)
    for b in ops:
        assert "circle" not in vars(b)
        circle = b.circle
        assert b.circle is circle
        assert [(c is b.carrier, m is b.map) for c, m in built] == [
            (True, True)]
        assert list(circle.columns) == paper_circle_columns(b)
        built.clear()
