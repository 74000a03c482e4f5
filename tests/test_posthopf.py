"""Post-Hopf algebras, their subadjacent Hopf algebras, and round trips."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hopfkit as hk
from hopfkit import fixtures as fx
from hopfkit import groups as gr
from hopfkit import posthopf as posthopf_mod
from hopfkit.errors import HopfkitError, IdentityFails
from hopfkit.hopf import apply2, twisted_product
from hopfkit.linalg import (QQ, BasedSpace, Element, Field, LinearOp,
                            accumulate, tensor_elem, tensor_index)
from hopfkit.posthopf import PostHopf
from hopfkit.report import AxiomReport, Witness


def conjugation_tri(f2):
    g = gr.dihedral(3)
    cols = [f2.space.basis(g.mul(g.mul(g.inv(x), y), x))
            for x in range(6) for y in range(6)]
    return LinearOp(f2.hh, f2.space, cols)


def trivial_tri(h):
    cols = [h.basis(y).scale(h._eps[x]) for x in range(h.dim)
            for y in range(h.dim)]
    return LinearOp(h.hh, h.space, cols)


def test_conjugation_posthopf_valid_with_conjugation_beta(f2):
    p = hk.verify_posthopf(f2, conjugation_tri(f2))
    g = gr.dihedral(3)
    for x in range(6):
        for y in range(6):
            want = f2.space.basis(g.mul(g.mul(x, y), g.inv(x)))
            assert p.beta.columns[tensor_index(x, y, 6)] == want


def test_trivial_posthopf_beta_equals_alpha(f2):
    tri = trivial_tri(f2)
    p = hk.verify_posthopf(f2, tri)
    assert p.beta == tri


def test_multiplication_is_not_posthopf(f2):
    cols = [f2.mul_basis(i, j) for i in range(6) for j in range(6)]
    with pytest.raises(IdentityFails):
        hk.verify_posthopf(f2, LinearOp(f2.hh, f2.space, cols))


def test_posthopf_from_rb_fixtures(f2, f1, b_inv_f2, b_eps_f2):
    p = hk.posthopf_from_rb(b_inv_f2)
    assert p.tri == conjugation_tri(f2)
    p = hk.posthopf_from_rb(b_eps_f2)
    assert p.tri == trivial_tri(f2)
    p = hk.posthopf_from_rb(fx.b_inv(f1))
    assert p.tri == trivial_tri(f1)  # abelian conjugation is trivial


def test_posthopf_from_rb_across_s3_corpus():
    for op in gr.enumerate_rb_group_ops(gr.dihedral(3)):
        hk.posthopf_from_rb(gr.lift_to_group_algebra(op))


def test_subadjacent_of_conjugation_is_opposite(f2, b_inv_f2):
    p = hk.posthopf_from_rb(b_inv_f2)
    sub = hk.subadjacent_hopf(p)
    assert sub.structure_equal(hk.descend(b_inv_f2).hopf)
    for i in range(6):
        for j in range(6):
            assert sub.mul_basis(i, j) == f2.mul_basis(j, i)


def test_subadjacent_of_trivial_is_dot(f2, b_eps_f2):
    sub = hk.subadjacent_hopf(hk.posthopf_from_rb(b_eps_f2))
    assert sub.mul == f2.mul


def test_subadjacent_antipode_matches_convolution_recovery(f2, b_inv_f2):
    sub = hk.subadjacent_hopf(hk.posthopf_from_rb(b_inv_f2))
    recovered = hk.convolution_inverse(sub, LinearOp.identity(sub.space))
    assert recovered == sub.antipode


def test_brace_posthopf_round_trip(f2, b_inv_f2):
    p = hk.posthopf_from_rb(b_inv_f2)
    br = hk.brace_from_posthopf(p)
    p2 = hk.posthopf_from_brace(br)
    assert p2.tri == p.tri
    assert p2.beta == p.beta


def test_posthopf_matches_derived_action(f2, b_inv_f2):
    br = hk.brace_from_rb(b_inv_f2)
    p = hk.posthopf_from_brace(br)
    assert p.tri == hk.derived_action(br).act


def test_posthopf_embedding_composition(f1, f2, b_inv_f2):
    # post-Hopf -> brace -> Rota-Baxter Hopf algebra embedding
    for p in (hk.posthopf_from_rb(fx.b_inv(f1)),
              hk.posthopf_from_rb(b_inv_f2)):
        br = hk.brace_from_posthopf(p)
        emb = hk.embed_into_rb(br)
        assert emb.ambient.validated
        assert emb.rb.validated


# -- reference: the coalgebra lines of verify_posthopf as an explicit loop ---------------

def reference_posthopf_coalgebra(h, tri):
    """(identity, witness) of the first failing coalgebra line, or None."""
    dim = h.dim
    field = h.field
    for x in range(dim):
        for y in range(dim):
            col = tri.columns[tensor_index(x, y, dim)]
            lhs = h.comul(col)
            rhs_terms = []
            for cx, (x1, x2) in h.sweedler(x, 2):
                for cy, (y1, y2) in h.sweedler(y, 2):
                    rhs_terms.append((field.mul(cx, cy),
                                      tensor_elem(h.hh,
                                                  tri.columns[tensor_index(x1, y1, dim)],
                                                  tri.columns[tensor_index(x2, y2, dim)])))
            if lhs != accumulate(h.hh, rhs_terms):
                return "coalgebra-morphism", Witness(
                    (h.label(x), h.label(y)), str(lhs), "(x1▶y1)⊗(x2▶y2)")
            if h.counit_scalar(col) != field.mul(h._eps[x], h._eps[y]):
                return "coalgebra-morphism-counit", Witness(
                    (h.label(x), h.label(y)), str(h.counit_scalar(col)),
                    str(field.mul(h._eps[x], h._eps[y])))
    return None


def posthopf_coalgebra_outcome(h, tri):
    try:
        hk.verify_posthopf(h, tri)
    except IdentityFails as exc:
        if exc.which.startswith("coalgebra-morphism"):
            return exc.which, exc.witness
    except HopfkitError:
        pass
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


def dense_z2(field):
    h = hk.group_algebra(gr.cyclic(2), field)
    space = BasedSpace(("u", "v"), field)
    return hk.transport_hopf(h, LinearOp(h.space, space, [
        Element(space, {0: Fraction(1), 1: Fraction(-1, 3)}),
        Element(space, {0: Fraction(1, 2), 1: Fraction(2)})]))


@settings(max_examples=20, deadline=None, database=None)
@given(field=st.sampled_from([QQ, Field(7)]),
       carrier=st.sampled_from(["Z2", "S3", "dense-Z2"]),
       op=st.sampled_from(["inv", "eps"]), col=st.integers(0, 40),
       row=st.integers(0, 40),
       offset=st.one_of(st.none(), st.integers(1, 6),
                        st.fractions(min_value=-2, max_value=2,
                                     max_denominator=3).filter(bool)))
def test_posthopf_coalgebra_lines_match_reference(field, carrier, op, col, row,
                                                  offset):
    h = {"Z2": fx.f1, "S3": fx.f2, "dense-Z2": dense_z2}[carrier](field)
    b = (fx.b_inv if op == "inv" else fx.b_eps)(h)
    tri = edited(hk.posthopf_from_rb(b).tri, col, row, offset)
    assert posthopf_coalgebra_outcome(h, tri) == \
        reference_posthopf_coalgebra(h, tri)


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
def test_posthopf_sign_product_fails_comultiplication_first(field):
    # g ▶ g = -g breaks Δ and ε at (g, g); the comultiplication is reported
    h = fx.f1(field)
    e, g = h.basis(0), h.basis(1)
    tri = LinearOp(h.hh, h.space, [e, g, e, -g])
    got = posthopf_coalgebra_outcome(h, tri)
    assert got == reference_posthopf_coalgebra(h, tri)
    assert got[0] == "coalgebra-morphism"
    assert got[1].at == ("g", "g")


# -- oracles: the Sweedler sums of posthopf as explicit loops --------------------------

def reference_twisted(h, tri):
    """x_(1) (x_(2) ▶ y) per basis pair, term by term."""
    dim = h.dim
    return [accumulate(h.space, ((c, h.product(h.basis(x1),
                                               tri.columns[tensor_index(x2, y, dim)]))
                                 for c, (x1, x2) in h.sweedler(x, 2)))
            for x in range(dim) for y in range(dim)]


def reference_subadjacent_antipode(h, beta):
    """S_▶(x) = β_{x_(1)}(S(x_(2))), term by term."""
    return LinearOp(h.space, h.space, [accumulate(h.space, (
        (w, apply2(beta, h.basis(x1), h.antipode.columns[x2]))
        for w, (x1, x2) in h.sweedler(x, 2))) for x in range(h.dim)])


POSTHOPF_NAMES = ["dense-Z2-inv", "dense-Z2-eps", "dense-Z3-inv",
                  "mixed-S3-inv", "mixed-S3-eps"]
_POSTHOPF: dict = {}


def kernel_posthopf(kernel_op, name, field):
    if (name, field) not in _POSTHOPF:
        _POSTHOPF[name, field] = hk.posthopf_from_rb(kernel_op(name, field))
    return _POSTHOPF[name, field]


@settings(max_examples=20, deadline=None, database=None)
@given(field=st.sampled_from([QQ, Field(7)]),
       name=st.sampled_from(POSTHOPF_NAMES),
       part=st.sampled_from(["tri", "beta"]), col=st.integers(0, 80),
       row=st.integers(0, 80),
       offset=st.one_of(st.none(), st.integers(1, 6),
                        st.fractions(min_value=-2, max_value=2,
                                     max_denominator=3).filter(bool)))
def test_subadjacent_sums_match_reference_on_edits(kernel_op, field, name, part,
                                                   col, row, offset):
    p = kernel_posthopf(kernel_op, name, field)
    h = p.carrier
    tri, beta = p.tri, p.beta
    if part == "tri":
        tri = edited(tri, col, row, offset)
    else:
        beta = edited(beta, col, row, offset)
    # verify_posthopf's twisted-associativity table is the same kernel call
    assert list(twisted_product(h.comul, h.mul, tri).columns) == \
        reference_twisted(h, tri)
    with mock.patch.object(posthopf_mod, "verify_hopf",
                           lambda out: AxiomReport()):
        out = posthopf_mod.subadjacent_hopf(PostHopf(h, tri, beta))
    assert list(out.mul.columns) == reference_twisted(h, tri)
    assert out.antipode == reference_subadjacent_antipode(h, beta)


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
def test_subadjacent_hopf_matches_reference(kernel_op, field):
    for name in POSTHOPF_NAMES:
        p = kernel_posthopf(kernel_op, name, field)
        out = hk.subadjacent_hopf(p)
        assert list(out.mul.columns) == reference_twisted(p.carrier, p.tri)
        assert out.antipode == reference_subadjacent_antipode(p.carrier, p.beta)
