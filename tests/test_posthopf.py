"""Post-Hopf algebras, their subadjacent Hopf algebras, and round trips."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hopfkit as hk
from hopfkit import fixtures as fx
from hopfkit import groups as gr
from hopfkit import posthopf as posthopf_mod
from hopfkit.errors import (HopfkitError, IdentityFails, NonUniqueSolution,
                            NotConvolutionInvertible)
from hopfkit.hopf import apply2, convolution, transport_hopf, twisted_product
from hopfkit.linalg import (QQ, BasedSpace, Element, Field, LinearOp,
                            _eliminate, accumulate, invert, tensor_elem,
                            tensor_index, tensor_space)
from hopfkit.posthopf import PostHopf
from hopfkit.report import AxiomReport, Witness

from conftest import sweedler


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


@pytest.mark.parametrize("h", [fx.f2(), hk.group_algebra(gr.cyclic(3))],
                         ids=["F2", "Z3"])
def test_degenerate_posthopf_is_not_invertible(h):
    # x ▶ y = ε(x)ε(y)·1 passes every axiom, but α_x kills all of ker ε
    tri = LinearOp(h.hh, h.space, [h.unit.scale(h._eps[x] * h._eps[y])
                                   for x in range(h.dim) for y in range(h.dim)])
    with pytest.raises(NotConvolutionInvertible,
                       match="^no convolution inverse exists$"):
        hk.verify_posthopf(h, tri)
    assert beta_outcome(end_algebra_beta, h, tri) == \
        (NotConvolutionInvertible, "no convolution inverse exists")


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
            for cx, (x1, x2) in sweedler(h, x, 2):
                for cy, (y1, y2) in sweedler(h, y, 2):
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
                                 for c, (x1, x2) in sweedler(h, x, 2)))
            for x in range(dim) for y in range(dim)]


def reference_subadjacent_antipode(h, beta):
    """S_▶(x) = β_{x_(1)}(S(x_(2))), term by term."""
    return LinearOp(h.space, h.space, [accumulate(h.space, (
        (w, apply2(beta, h.basis(x1), h.antipode.columns[x2]))
        for w, (x1, x2) in sweedler(h, x, 2))) for x in range(h.dim)])


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


# -- oracle: β as the convolution inverse of α: H -> End(H), two-sided -----------------

def end_algebra(space):
    """End(V) with matrix-unit basis (row, col), its composition product
    and its identity."""
    d = space.dim
    e_space = BasedSpace(tuple((a, b) for a in space.labels for b in space.labels),
                         space.field)
    cols = [e_space.basis(i * d + l) if j == k else e_space.zero()
            for i in range(d) for j in range(d) for k in range(d) for l in range(d)]
    unit = Element(e_space, {i * d + i: 1 for i in range(d)})
    return e_space, LinearOp(tensor_space(e_space, e_space), e_space, cols), unit


def curry_action(e_space, act):
    """x -> (y -> act(x ⊗ y)) as a map H -> End(H)."""
    d = act.codomain.dim
    return LinearOp(act.codomain, e_space, [Element(e_space, {
        i * d + y: c for y in range(d)
        for i, c in act.columns[tensor_index(x, y, d)].coeffs.items()})
        for x in range(d)])


def uncurry_action(space, alpha):
    """Inverse of :func:`curry_action`."""
    d = space.dim
    cols = []
    for x in range(d):
        per_y = [dict() for _ in range(d)]
        for p, c in alpha.columns[x].coeffs.items():
            i, y = divmod(p, d)
            per_y[y][i] = c
        cols += [Element(space, coeffs) for coeffs in per_y]
    return LinearOp(tensor_space(space, space), space, cols)


def two_sided_convolution_inverse(h, f, m, unit):
    """Solve f ⋆ T = T ⋆ f = ε·1 as one system with both sides' equations."""
    field, target = h.field, f.codomain
    dim_a = target.dim
    aug = h.dim * dim_a
    rows = []
    for left in (True, False):
        for ci in range(h.dim):
            block = [dict() for _ in range(dim_a)]
            for coeff, (c1, c2) in sweedler(h, ci, 2):
                fixed, unknown = (f.columns[c1], c2) if left else (f.columns[c2], c1)
                for a in range(dim_a):
                    pair = (fixed, target.basis(a)) if left else (target.basis(a), fixed)
                    for r, cr in apply2(m, *pair).coeffs.items():
                        u = unknown * dim_a + a
                        block[r][u] = field.add(block[r].get(u, field.zero),
                                                field.mul(coeff, cr))
            rhs = unit.scale(h._eps[ci])
            for r, row in enumerate(block):
                row = {u: c for u, c in row.items() if c != 0}
                if rhs.coefficient(r) != 0:
                    row[aug] = rhs.coefficient(r)
                if row:
                    rows.append(row)
    pivots = _eliminate(rows, aug, field)
    pivot_rows = {r for r, _ in pivots}
    if any(r not in pivot_rows and row.get(aug, 0) != 0
           for r, row in enumerate(rows)):
        raise NotConvolutionInvertible("no convolution inverse exists")
    if len(pivots) < aug:
        raise NonUniqueSolution("convolution inverse is not unique",
                                aug - len(pivots))
    sol = {col: rows[r].get(aug, 0) for r, col in pivots}
    return LinearOp(h.space, target, [
        Element(target, {a: sol[ci * dim_a + a] for a in range(dim_a)})
        for ci in range(h.dim)])


def end_algebra_beta(h, tri):
    e_space, e_mul, e_unit = end_algebra(h.space)
    alpha = curry_action(e_space, tri)
    return uncurry_action(h.space, two_sided_convolution_inverse(
        h, alpha, e_mul, e_unit))


def beta_outcome(build, h, tri):
    try:
        return build(h, tri)
    except HopfkitError as exc:
        return type(exc), str(exc)


def subadjacent_beta(h, tri):
    return hk.verify_posthopf(h, tri).beta


def assert_same_beta(h, tri):
    assert beta_outcome(subadjacent_beta, h, tri) == \
        beta_outcome(end_algebra_beta, h, tri)


# S3, D4, D6 and Q8
ORACLE_GROUPS = (gr.dihedral(3), gr.dihedral(4), gr.dihedral(6),
                 gr.quaternion_group())


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
def test_beta_matches_end_algebra_oracle(kernel_op, field):
    for name in POSTHOPF_NAMES:
        p = kernel_posthopf(kernel_op, name, field)
        assert p.beta == end_algebra_beta(p.carrier, p.tri)
    for g in ORACLE_GROUPS:
        h = hk.group_algebra(g, field)
        for b in (fx.b_inv(h), fx.b_eps(h)):
            tri = posthopf_mod.rb_action_map(b)
            assert_same_beta(h, tri)


_RB_OPS: dict = {}


def rb_group_ops(name):
    if name not in _RB_OPS:
        g = {"Z2": gr.cyclic(2), "Z3": gr.cyclic(3), "S3": gr.dihedral(3)}[name]
        _RB_OPS[name] = list(gr.enumerate_rb_group_ops(g))
    return _RB_OPS[name]


def shear_bijection(h, perm, shears):
    """p: H -> V, the shears e_j += c e_i (i != j) of the coordinates
    followed by a relabelling: invertible over every field."""
    d = h.dim
    cols = [{k: 1} for k in range(d)]
    for i, j, c in shears:
        i, j = i % d, j % d
        for col in cols:
            if i != j and i in col:
                col[j] = col.get(j, 0) + c * col[i]
    order = [k for k in perm if k < d]
    space = BasedSpace(tuple(f"w{k}" for k in range(d)), h.field)
    return LinearOp(h.space, space, [
        Element(space, {order[k]: c for k, c in col.items()}) for col in cols])


@settings(max_examples=20, deadline=None, database=None)
@given(field=st.sampled_from([QQ, Field(7)]),
       group=st.sampled_from(["Z2", "Z3", "S3"]), op=st.integers(0, 200),
       perm=st.permutations(range(6)),
       shears=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                 st.integers(-2, 2)), max_size=3))
def test_beta_matches_end_algebra_oracle_on_transported_ops(field, group, op,
                                                            perm, shears):
    ops = rb_group_ops(group)
    b = gr.lift_to_group_algebra(ops[op % len(ops)], field)
    p = shear_bijection(b.carrier, perm, shears)
    k = transport_hopf(b.carrier, p)
    bk = hk.verify_rb(k, p.compose(b.map).compose(invert(p)))
    assert_same_beta(k, posthopf_mod.rb_action_map(bk))


def test_convolution_inverse_operator_valued(f2):
    # alpha_x(y) = x^{-1} y x; the inverse must be beta_x(y) = x y x^{-1}
    g = gr.dihedral(3)
    tri = conjugation_tri(f2)
    e_space, e_mul, e_unit = end_algebra(f2.space)
    beta = hk.convolution_inverse(f2, curry_action(e_space, tri), e_mul, e_unit)
    back = uncurry_action(f2.space, beta)
    for x in range(6):
        for y in range(6):
            want = f2.space.basis(g.mul(g.mul(x, y), g.inv(x)))
            assert back.columns[tensor_index(x, y, 6)] == want


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
def test_convolution_inverse_two_sided_on_posthopf_alpha_beta(field, kernel_op):
    for name in POSTHOPF_NAMES:
        p = kernel_posthopf(kernel_op, name, field)
        h = p.carrier
        e_space, e_mul, e_unit = end_algebra(h.space)
        alpha, beta = curry_action(e_space, p.tri), curry_action(e_space, p.beta)
        eps_one = LinearOp(h.space, e_space,
                           [e_unit.scale(h._eps[x]) for x in range(h.dim)])
        assert convolution(h.comul, alpha, beta, e_mul) == eps_one
        assert convolution(h.comul, beta, alpha, e_mul) == eps_one
