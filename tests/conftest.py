"""Shared fixtures: the standard small carriers and operators."""

from fractions import Fraction

import pytest

import hopfkit as hk
from hopfkit import fixtures as fx
from hopfkit import groups as gr
from hopfkit.errors import AxiomFails
from hopfkit.hopf import apply2, scalar_space, transport_hopf
from hopfkit.linalg import (QQ, BasedSpace, Element, LinearOp, accumulate,
                            flip_tensor, invert, kron, tensor_elem,
                            tensor_index, tensor_space, tensor_split)
from hopfkit.report import AxiomReport, Witness


@pytest.fixture(scope="session")
def f1():
    return fx.f1()


@pytest.fixture(scope="session")
def f2():
    return fx.f2()


@pytest.fixture(scope="session")
def b_inv_f2(f2):
    return fx.b_inv(f2)


@pytest.fixture(scope="session")
def b_eps_f2(f2):
    return fx.b_eps(f2)


@pytest.fixture(scope="session")
def phi_r_f2(f2):
    return fx.phi_r(f2)


@pytest.fixture(scope="session")
def s3():
    return gr.dihedral(3)


# -- Sweedler oracles that read the coproduct columns, not the code under test --

def sweedler(h, i, legs):
    """Terms (coefficient, index tuple) of the iterated coproduct of basis
    vector i with the given number of legs, iterates on the leftmost leg,
    collected and sorted by index tuple."""
    if legs == 1:
        return [(h.field.one, (i,))]
    field = h.field
    collected: dict = {}
    for coeff, idxs in sweedler(h, i, legs - 1):
        for pair_idx, c2 in h.comul.columns[idxs[0]].coeffs.items():
            a, b = tensor_split(pair_idx, h.dim)
            key = (a, b) + idxs[1:]
            v = field.add(collected.get(key, field.zero), field.mul(coeff, c2))
            if v == 0:
                collected.pop(key, None)
            else:
                collected[key] = v
    return [(c, k) for k, c in sorted(collected.items())]


def tensor_square(h, u, v):
    """Componentwise product on H ⊗ H: (a⊗b)(c⊗d) = ac ⊗ bd."""
    dim = h.dim
    terms = []
    for pu, cu in u.coeffs.items():
        a, b = tensor_split(pu, dim)
        for pv, cv in v.coeffs.items():
            c, d = tensor_split(pv, dim)
            right = h.mul_basis(b, d).coeffs.items()
            for i, ci in h.mul_basis(a, c).coeffs.items():
                terms.append((cu * cv * ci, Element(
                    h.hh, {i * dim + j: cj for j, cj in right}, _canonical=True)))
    return accumulate(h.hh, terms)


def circle_product_element(h, b, x, y):
    """The paper's x ∘_B y = x_(1) B(x_(2)) y S(B(x_(3))), extended
    bilinearly, one three-leg Sweedler sum per call: the reference oracle
    for the table ``RotaBaxterOp.circle``."""
    terms = []
    for i, ci in x.coeffs.items():
        for c, (g1, g2, g3) in sweedler(h, i, 3):
            terms.append((h.field.mul(ci, c),
                          h.product_many([h.basis(g1), b.columns[g2], y,
                                          h.antipode(b.columns[g3])])))
    return accumulate(h.space, terms)


def sweedler_four_dim(field=QQ):
    """A 4-dimensional non-cocommutative Hopf algebra: basis 1, g, x, gx
    with g^2 = 1, x^2 = 0, xg = -gx, Δ(g) = g⊗g, Δ(x) = x⊗1 + g⊗x."""
    sp = BasedSpace(("1", "g", "x", "gx"), field)
    hh = tensor_space(sp, sp)
    one = Fraction(1)

    def e(*pairs):
        return Element(sp, dict(pairs))

    table = {
        (0, 0): [(0, 1)], (0, 1): [(1, 1)], (0, 2): [(2, 1)], (0, 3): [(3, 1)],
        (1, 0): [(1, 1)], (1, 1): [(0, 1)], (1, 2): [(3, 1)], (1, 3): [(2, 1)],
        (2, 0): [(2, 1)], (2, 1): [(3, -1)], (2, 2): [], (2, 3): [],
        (3, 0): [(3, 1)], (3, 1): [(2, -1)], (3, 2): [], (3, 3): [],
    }
    mul_cols = [e(*((i, Fraction(c)) for i, c in table[(a, b)]))
                for a in range(4) for b in range(4)]
    comul_cols = [
        Element(hh, {tensor_index(0, 0, 4): one}),
        Element(hh, {tensor_index(1, 1, 4): one}),
        Element(hh, {tensor_index(2, 0, 4): one, tensor_index(1, 2, 4): one}),
        Element(hh, {tensor_index(3, 1, 4): one, tensor_index(0, 3, 4): one}),
    ]
    ssp = scalar_space(field)
    counit_cols = [ssp.basis(0), ssp.basis(0), ssp.zero(), ssp.zero()]
    anti_cols = [e((0, one)), e((1, one)), e((3, Fraction(-1))), e((2, one))]
    h = hk.hopf_from_structure(sp, LinearOp(hh, sp, mul_cols), sp.basis(0),
                               LinearOp(sp, hh, comul_cols),
                               LinearOp(sp, ssp, counit_cols),
                               LinearOp(sp, sp, anti_cols))
    assert hk.verify_hopf(h).passed
    return h


# -- the loops of the builders that compose or carry maps now -------------------

def reference_transport_tables(h, p):
    """The product, coproduct and counit columns of ``transport_hopf(h, p)``
    one basis vector at a time: p(p⁻¹(e_i) p⁻¹(e_j)), (p⊗p)(Δ(p⁻¹(e_i)))
    and ε(p⁻¹(e_i))."""
    p_inv = invert(p)
    dim = p.codomain.dim
    pp = kron(p, p)
    ssp = scalar_space(h.field)
    mul = [p(h.product(p_inv.columns[i], p_inv.columns[j]))
           for i in range(dim) for j in range(dim)]
    comul = [pp(h.comul(p_inv.columns[i])) for i in range(dim)]
    counit = [ssp.basis(0).scale(h.counit_scalar(p_inv.columns[i]))
              for i in range(dim)]
    return mul, comul, counit


def reference_cocycle_circle(h, pi, pi_inv):
    """a ∘ b = π(π⁻¹(a) π⁻¹(b)) on every basis pair of the target of π."""
    dim = pi.codomain.dim
    return [pi(h.product(pi_inv.columns[x], pi_inv.columns[y]))
            for x in range(dim) for y in range(dim)]


def reference_restriction(h, idx):
    """The tables of ``sub_hopf`` on the part with ambient indices ``idx``,
    one part vector at a time: its products, Δ, S and the unit reindexed
    onto the part, and ε read at it, as ``(mul, unit, comul, counit,
    antipode)`` columns."""
    pos = {amb: i for i, amb in enumerate(idx)}
    space = BasedSpace(tuple(h.label(i) for i in idx), h.field)
    hh = tensor_space(space, space)
    n = len(idx)

    def restrict(elem):
        return Element(space, {pos[i]: c for i, c in elem.coeffs.items()})

    mul = [restrict(h.mul_basis(i, j)) for i in idx for j in idx]
    comul = []
    for i in idx:
        out = {}
        for p, c in h.comul.columns[i].coeffs.items():
            a, b = tensor_split(p, h.dim)
            out[tensor_index(pos[a], pos[b], n)] = c
        comul.append(Element(hh, out))
    ssp = scalar_space(h.field)
    counit = [ssp.basis(0).scale(h._eps[i]) for i in idx]
    antipode = [restrict(h.antipode.columns[i]) for i in idx]
    return mul, restrict(h.unit), comul, counit, antipode


def reference_onto_hk(op, space, dim_h):
    """A product or an endomorphism of K ⊗ H moved onto ``space``, H ⊗ K,
    by reindexing its columns and flipping each along k⊗h -> h⊗k."""
    kh = op.codomain
    dim_k = kh.dim // dim_h
    order = [k * dim_h + h for h in range(dim_h) for k in range(dim_k)]
    domain = space
    if op.domain != kh:             # a product on (K⊗H) ⊗ (K⊗H)
        order = [p * kh.dim + q for p in order for q in order]
        domain = tensor_space(space, space)
    return LinearOp(domain, space, [flip_tensor(kh, space, op.columns[i], dim_h)
                                    for i in order])


def reference_phi(g, h_idx, l_idx, m_idx):
    """The multiplication map H ⊗ L ⊗ M -> G of a triple factorization, one
    basis word h⊗l⊗m at a time, as (hl)m."""
    cols = []
    for i in h_idx:
        for j in l_idx:
            hl_part = g.mul_basis(i, j)
            for k in m_idx:
                cols.append(g.product(hl_part, g.basis(k)))
    return cols


def reference_beta(h, tri, s_star):
    """β(x ⊗ y) = S_∗(x) ▶ y on every basis pair."""
    return [apply2(tri, s_star.columns[x], h.basis(y))
            for x in range(h.dim) for y in range(h.dim)]


def reference_triple_rb_columns(f, c):
    """B(hlm) = ε(h) C(l) S(m), summed term by term over the factor of
    each basis vector of the ambient."""
    g = f.ambient
    c_in_g = [f.incl_l(c.map.columns[i]) for i in range(len(f.l_idx))]
    n_l, n_m = len(f.l_idx), len(f.m_idx)
    cols = []
    for x in range(g.dim):
        terms = []
        for p, w in f.factor.columns[x].coeffs.items():
            hl_part, im = tensor_split(p, n_m)
            ih, il = tensor_split(hl_part, n_l)
            eps_h = g._eps[f.h_idx[ih]]
            if eps_h == 0:
                continue
            terms.append((g.field.mul(w, eps_h),
                          g.product(c_in_g[il],
                                    g.antipode.columns[f.m_idx[im]])))
        cols.append(accumulate(g.space, terms))
    return cols


def reference_factorization_circle(h, a_idx, b_idx, factor):
    """(a b) ∘ (a' b') = a a' b' b, bracketed from the left and summed term
    by term over the factors of both basis vectors."""
    nb = len(b_idx)
    cols = []
    for x in range(h.dim):
        for y in range(h.dim):
            terms = []
            for p, cp in factor.columns[x].coeffs.items():
                ia, ib = tensor_split(p, nb)
                for q, cq in factor.columns[y].coeffs.items():
                    ja, jb = tensor_split(q, nb)
                    terms.append((h.field.mul(cp, cq), h.product_many([
                        h.basis(a_idx[ia]), h.basis(a_idx[ja]),
                        h.basis(b_idx[jb]), h.basis(b_idx[ib])])))
            cols.append(accumulate(h.space, terms))
    return cols


def reference_smash_antipode(actor, carrier, act):
    """S(k⊗h) = S_K(k_(1)) ⊗ (S_K(k_(2)) ▷ S_H(h)), term by term over the
    legs of the actor's coproduct."""
    space = tensor_space(actor.space, carrier.space)
    s_k, s_h = actor.antipode.columns, carrier.antipode.columns
    cols = []
    for col in actor.comul.columns:
        legs = [(c, *tensor_split(p, actor.dim)) for p, c in col.coeffs.items()]
        for i in range(carrier.dim):
            cols.append(accumulate(space, (
                (c, tensor_elem(space, s_k[a], apply2(act, s_k[b], s_h[i])))
                for c, a, b in legs)))
    return cols


def reference_embedding_operator(dot, circle):
    """B'(x⊗y) = T(x)∘y ⊗ 1 on every basis pair of G ⊗ G."""
    g2 = tensor_space(dot.space, dot.space)
    return [tensor_elem(g2, apply2(circle.mul, circle.antipode.columns[x],
                                   dot.basis(y)), dot.unit)
            for x in range(dot.dim) for y in range(dot.dim)]


# -- element forms of the builders that sum on int columns ------------------------

def reference_convolution(h, f, g, m):
    """x -> Σ m(f(x_(1)) ⊗ g(x_(2))), summed term by term over the legs."""
    return LinearOp(h.space, m.codomain, [accumulate(m.codomain, (
        (c, apply2(m, f.columns[x1], g.columns[x2]))
        for c, (x1, x2) in sweedler(h, x, 2))) for x in range(h.dim)])


def reference_convolution_antipode(h, b):
    """T = ((S∘B) ⋆ S) ⋆ B by two element-form convolutions, for any map B:
    the form of ``rb.descendent_antipode`` off the group path."""
    s = h.antipode
    return reference_convolution(
        h, reference_convolution(h, s.compose(b), s, h.mul), b, h.mul)


def reference_twisted_product(h, outer, inner, f, g):
    """x ⊗ y -> Σ outer(f(x_(1)) ⊗ inner(g(x_(2)) ⊗ y)), term by term."""
    target = inner.codomain
    cols = []
    for x in range(h.dim):
        for y in range(target.dim):
            cols.append(accumulate(outer.codomain, (
                (c, apply2(outer, f.columns[x1],
                           apply2(inner, g.columns[x2], target.basis(y))))
                for c, (x1, x2) in sweedler(h, x, 2))))
    return LinearOp(tensor_space(h.space, target), outer.codomain, cols)


def reference_adjoint_map(h):
    """g ⊳ x = (g_(1) x) S(g_(2)), summed as elements over the legs."""
    cols = []
    for col in h.comul.columns:
        legs = [(c, *divmod(p, h.dim)) for p, c in col.coeffs.items()]
        for i in range(h.dim):
            cols.append(accumulate(h.space, (
                (c, h.product(h.mul_basis(g1, i), h.antipode.columns[g2]))
                for c, g1, g2 in legs)))
    return LinearOp(h.hh, h.space, cols)


def reference_smash_mul_kh(actor, carrier, act, square):
    """(k⊗h)(k'⊗h') = k_(1)k' ⊗ h(k_(2)▷h') on K ⊗ H, summed as elements
    over the legs of k."""
    space = tensor_space(actor.space, carrier.space)
    dim_k, dim_h = actor.dim, carrier.dim
    right = [[carrier.product(e, col) for col in act.columns]
             for e in carrier._basis]
    mul_cols = []
    for col in actor.comul.columns:
        legs = [(c, *divmod(p, dim_k)) for p, c in col.coeffs.items()]
        for h in range(dim_h):
            row = right[h]
            for k2 in range(dim_k):
                for h2 in range(dim_h):
                    mul_cols.append(accumulate(space, (
                        (c, tensor_elem(space, actor.mul_basis(a, k2),
                                        row[b * dim_h + h2]))
                        for c, a, b in legs)))
    return LinearOp(square, space, mul_cols)


# -- element-level oracles of the int sweeps in src ------------------------------

def reference_coalgebra_morphism_witness(f, h, k):
    """coalgebra_morphism_witness as one loop over e_i, Δ then ε at each,
    the right side summed term by term over Δ_H(e_i)."""
    for i in range(h.dim):
        lhs = k.comul(f.columns[i])
        rhs = accumulate(k.hh, (
            (c, tensor_elem(k.hh, f.columns[tensor_split(p, h.dim)[0]],
                            f.columns[tensor_split(p, h.dim)[1]]))
            for p, c in h.comul.columns[i].coeffs.items()))
        if lhs != rhs:
            return Witness((h.label(i),), str(lhs), str(rhs))
        if k.counit_scalar(f.columns[i]) != h._eps[i]:
            return Witness((h.label(i),), str(k.counit_scalar(f.columns[i])),
                           str(h._eps[i]))
    return None


def reference_rb_witness(h, b):
    """First pair (x, y) with B(x) B(y) != B(x_(1) B(x_(2)) y S(B(x_(3)))),
    the right side through the paper's formula for ∘_B."""
    for x in range(h.dim):
        for y in range(h.dim):
            lhs = h.product(b.columns[x], b.columns[y])
            rhs = b(circle_product_element(h, b, h.basis(x), h.basis(y)))
            if lhs != rhs:
                return Witness((h.label(x), h.label(y)), str(lhs), str(rhs))
    return None


def reference_circle_mul(h, b):
    return LinearOp(h.hh, h.space, [
        circle_product_element(h, b, h.basis(x), h.basis(y))
        for x in range(h.dim) for y in range(h.dim)])


def reference_compatibility_witness(dot, circle):
    """First failing triple of a ∘ (bc) = (a_(1)∘b) S(a_(2)) (a_(3)∘c), the
    right side summed term by term over the three-leg coproduct of a."""
    dim = dot.dim
    s = dot.antipode
    for a in range(dim):
        legs = sweedler(dot, a, 3)
        for b in range(dim):
            for c in range(dim):
                lhs = apply2(circle.mul, dot.basis(a), dot.mul_basis(b, c))
                rhs = accumulate(dot.space, (
                    (w, dot.product_many([circle.mul_basis(a1, b),
                                          s.columns[a2],
                                          circle.mul_basis(a3, c)]))
                    for w, (a1, a2, a3) in legs))
                if lhs != rhs:
                    return Witness((dot.label(a), dot.label(b), dot.label(c)),
                                   str(lhs), str(rhs))
    return None


# -- element-level oracles of the module, post-Hopf, matched and symmetry sweeps --

def reference_module_bialgebra(action):
    """check_module_bialgebra's report from one explicit loop per axiom,
    in the same order."""
    k, h = action.actor, action.carrier
    report = AxiomReport()

    def first(tuples, sides):
        for at in tuples:
            lhs, rhs = sides(*at)
            if lhs != rhs:
                return at, lhs, rhs
        return None

    def add(name, spaces, tuples, sides):
        found = first(tuples, sides)
        report.add(name, None if found is None else Witness(
            tuple(s.labels[i] for s, i in zip(spaces, found[0])),
            str(found[1]), str(found[2])))

    kd, hd = range(k.dim), range(h.dim)
    add("module-unit", (h.space,), [(i,) for i in hd],
        lambda i: (action.of(k.unit, h.basis(i)), h.basis(i)))
    add("module-associativity", (k.space, k.space, h.space),
        [(a, b, i) for a in kd for b in kd for i in hd],
        lambda a, b, i: (action.of(k.mul_basis(a, b), h.basis(i)),
                         action.of(k.basis(a), action.basis(b, i))))
    add("module-algebra-product", (k.space, h.space, h.space),
        [(a, i, j) for a in kd for i in hd for j in hd],
        lambda a, i, j: (
            action.of(k.basis(a), h.mul_basis(i, j)),
            accumulate(h.space, (
                (c, h.product(action.basis(tensor_split(p, k.dim)[0], i),
                              action.basis(tensor_split(p, k.dim)[1], j)))
                for p, c in k.comul.columns[a].coeffs.items()))))
    add("module-algebra-unit", (k.space,), [(a,) for a in kd],
        lambda a: (action.of(k.basis(a), h.unit), h.unit.scale(k._eps[a])))

    def comul_sides(a, i):
        rhs_terms = []
        for pk, ck in k.comul.columns[a].coeffs.items():
            k1, k2 = tensor_split(pk, k.dim)
            for ph, ch in h.comul.columns[i].coeffs.items():
                h1, h2 = tensor_split(ph, h.dim)
                rhs_terms.append((h.field.mul(ck, ch),
                                  tensor_elem(h.hh, action.basis(k1, h1),
                                              action.basis(k2, h2))))
        return h.comul(action.basis(a, i)), accumulate(h.hh, rhs_terms)
    pairs = [(a, i) for a in kd for i in hd]
    add("module-coalgebra-comul", (k.space, h.space), pairs, comul_sides)
    add("module-coalgebra-counit", (k.space, h.space), pairs,
        lambda a, i: (h.counit_scalar(action.basis(a, i)),
                      h.field.mul(k._eps[a], h._eps[i])))
    return report


def reference_measuring_witness(k, h, act):
    """First (a, i, j) with a ⇀ (e_i e_j) != (a_(1) ⇀ e_i)(a_(2) ⇀ e_j),
    the right side summed over the two-leg coproduct of a: the
    module-algebra-product sweep and the post-Hopf distributivity."""
    dim = h.dim
    for a in range(k.dim):
        legs = sweedler(k, a, 2)
        for i in range(dim):
            for j in range(dim):
                lhs = apply2(act, k.basis(a), h.mul_basis(i, j))
                rhs = accumulate(h.space, (
                    (c, h.product(act.columns[a1 * dim + i],
                                  act.columns[a2 * dim + j]))
                    for c, (a1, a2) in legs))
                if lhs != rhs:
                    return Witness((k.label(a), h.label(i), h.label(j)),
                                   str(lhs), str(rhs))
    return None


def reference_multiplicative_witness(f, h, k):
    """First pair (i, j) with f(e_i e_j) != f(e_i) f(e_j)."""
    for i in range(h.dim):
        for j in range(h.dim):
            lhs = f(h.mul_basis(i, j))
            rhs = k.product(f.columns[i], f.columns[j])
            if lhs != rhs:
                return Witness((h.label(i), h.label(j)), str(lhs), str(rhs))
    return None


def reference_twisted_associativity_witness(h, tri):
    """First (x, y, z) with x ▶ (y ▶ z) != (x ∗ y) ▶ z, where
    x ∗ y = x_(1) (x_(2) ▶ y) is summed term by term."""
    dim = h.dim
    star = [accumulate(h.space, ((c, h.product(h.basis(x1),
                                               tri.columns[x2 * dim + y]))
                                 for c, (x1, x2) in sweedler(h, x, 2)))
            for x in range(dim) for y in range(dim)]
    for x in range(dim):
        for y in range(dim):
            for z in range(dim):
                lhs = apply2(tri, h.basis(x), tri.columns[y * dim + z])
                rhs = apply2(tri, star[x * dim + y], h.basis(z))
                if lhs != rhs:
                    return Witness((h.label(x), h.label(y), h.label(z)),
                                   str(lhs), str(rhs))
    return None


def reference_op_module_witness(dot, act):
    """First (a, b, c) with (b a) ⇀ c != a ⇀ (b ⇀ c)."""
    dim = dot.dim
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                lhs = apply2(act, dot.mul_basis(b, a), dot.basis(c))
                rhs = apply2(act, dot.basis(a), act.columns[b * dim + c])
                if lhs != rhs:
                    return Witness((dot.label(a), dot.label(b), dot.label(c)),
                                   str(lhs), str(rhs))
    return None


def reference_prop44(dot, t, act):
    """First (a, b, c) with a b_(1) (b_(2) ⇀ c) differing from
    a_(1) b_(1) ((a_(2) b_(2)) ⇀ (T(a_(3)) ⇀ c)), every product formed
    inside each pair of Sweedler terms."""
    dim, field = dot.dim, dot.field
    for a in range(dim):
        legs_a = sweedler(dot, a, 3)
        for b in range(dim):
            legs_b = sweedler(dot, b, 2)
            for c in range(dim):
                lhs = accumulate(dot.space, (
                    (w, dot.product_many([dot.basis(a), dot.basis(b1),
                                          act.columns[b2 * dim + c]]))
                    for w, (b1, b2) in legs_b))
                rhs = accumulate(dot.space, (
                    (field.mul(wa, wb), dot.product_many([
                        dot.basis(a1), dot.basis(b1),
                        apply2(act, dot.mul_basis(a2, b2),
                               apply2(act, t.columns[a3], dot.basis(c)))]))
                    for wa, (a1, a2, a3) in legs_a for wb, (b1, b2) in legs_b))
                if lhs != rhs:
                    return Witness((dot.label(a), dot.label(b), dot.label(c)),
                                   str(lhs), str(rhs))
    return None


def adjoint_apply(h, u, x):
    """u ▷ x = u_(1) x S(u_(2)), expanded over the basis terms of u."""
    terms = []
    for i, ci in u.coeffs.items():
        for c, (g1, g2) in sweedler(h, i, 2):
            terms.append((h.field.mul(ci, c),
                          h.product_many([h.basis(g1), x,
                                          h.antipode.columns[g2]])))
    return accumulate(h.space, terms)


def reference_prop48(h, b):
    """First (a, b, c) with a b_(1) (B(b_(2)) ▷ c) differing from
    a_(1) b_(1) ((B(a_(2) b_(2)) B(T(a_(3)))) ▷ c), T the descendent
    antipode of B, every product formed inside each pair of Sweedler
    terms."""
    t = reference_convolution_antipode(h, b)
    dim = h.dim
    for a in range(dim):
        legs_a = sweedler(h, a, 3)
        for bb in range(dim):
            legs_b = sweedler(h, bb, 2)
            for c in range(dim):
                lhs = accumulate(h.space, (
                    (w, h.product_many([h.basis(a), h.basis(b1),
                                        adjoint_apply(h, b.columns[b2],
                                                      h.basis(c))]))
                    for w, (b1, b2) in legs_b))
                terms = []
                for wa, (a1, a2, a3) in legs_a:
                    bta = b(t.columns[a3])
                    for wb, (b1, b2) in legs_b:
                        actor = h.product(b(h.mul_basis(a2, b2)), bta)
                        terms.append((h.field.mul(wa, wb),
                                      h.product_many([h.basis(a1), h.basis(b1),
                                                      adjoint_apply(h, actor,
                                                                    h.basis(c))])))
                rhs = accumulate(h.space, terms)
                if lhs != rhs:
                    return Witness((h.label(a), h.label(bb), h.label(c)),
                                   str(lhs), str(rhs))
    return None


def reference_prop49(h, b):
    dim = h.dim
    for a in range(dim):
        for bb in range(dim):
            left_actor = b(h.mul_basis(bb, a))
            right_actor = h.product(b.columns[a], b.columns[bb])
            for c in range(dim):
                lhs = adjoint_apply(h, left_actor, h.basis(c))
                rhs = adjoint_apply(h, right_actor, h.basis(c))
                if lhs != rhs:
                    return Witness((h.label(a), h.label(bb), h.label(c)),
                                   str(lhs), str(rhs))
    return None


def reference_braid_witness(c, h):
    """First (i, j, k) where (c⊗id)(id⊗c)(c⊗id) and (id⊗c)(c⊗id)(id⊗c)
    differ on e_i ⊗ e_j ⊗ e_k, each side a dict keyed by index triples
    and summed with the field operations, rendered as sorted item lists."""
    dim, field = h.dim, h.field

    def on_legs(coeffs, first):
        out: dict = {}
        for (i, j, k), w in coeffs.items():
            pair = i * dim + j if first else j * dim + k
            for q, cv in c.columns[pair].coeffs.items():
                u, v = divmod(q, dim)
                key = (u, v, k) if first else (i, u, v)
                nv = field.add(out.get(key, field.zero), field.mul(w, cv))
                if nv == 0:
                    out.pop(key, None)
                else:
                    out[key] = nv
        return out

    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = rhs = {(i, j, k): field.one}
                for first in (True, False, True):
                    lhs = on_legs(lhs, first)
                for first in (False, True, False):
                    rhs = on_legs(rhs, first)
                if lhs != rhs:
                    return Witness((h.label(i), h.label(j), h.label(k)),
                                   str(sorted(lhs.items())),
                                   str(sorted(rhs.items())))
    return None


def reference_verify_matched_pair(h, k, lact, ract):
    """verify_matched_pair with every axiom as an explicit loop; raises
    AxiomFails at the first failure."""
    dim_h, dim_k = h.dim, k.dim
    field = h.field

    def la(x: int, a: int) -> Element:
        return lact.columns[tensor_index(x, a, dim_h)]

    def ra(x: int, a: int) -> Element:
        return ract.columns[tensor_index(x, a, dim_h)]

    def fail(tag: str, at, lhs, rhs):
        raise AxiomFails(tag, Witness(at, str(lhs), str(rhs)))

    for a in range(dim_h):
        got = apply2(lact, k.unit, h.basis(a))
        if got != h.basis(a):
            fail("left-module-unit", (h.label(a),), got, h.basis(a))
    for x in range(dim_k):
        for y in range(dim_k):
            prod = k.mul_basis(x, y)
            for a in range(dim_h):
                lhs = apply2(lact, prod, h.basis(a))
                rhs = apply2(lact, k.basis(x), la(y, a))
                if lhs != rhs:
                    fail("left-module-associativity",
                         (k.label(x), k.label(y), h.label(a)), lhs, rhs)
    for x in range(dim_k):
        for a in range(dim_h):
            lhs = h.comul(la(x, a))
            rhs = accumulate(h.hh, (
                (field.mul(cx, ca), tensor_elem(h.hh, la(x1, a1), la(x2, a2)))
                for cx, (x1, x2) in sweedler(k, x, 2)
                for ca, (a1, a2) in sweedler(h, a, 2)))
            if lhs != rhs:
                fail("left-module-coalgebra", (k.label(x), h.label(a)), lhs, rhs)
            got = h.counit_scalar(la(x, a))
            want = field.mul(k._eps[x], h._eps[a])
            if got != want:
                fail("left-module-counit", (k.label(x), h.label(a)), got, want)
    for x in range(dim_k):
        got = apply2(lact, k.basis(x), h.unit)
        want = h.unit.scale(k._eps[x])
        if got != want:
            fail("left-action-on-unit", (k.label(x),), got, want)

    for x in range(dim_k):
        got = apply2(ract, k.basis(x), h.unit)
        if got != k.basis(x):
            fail("right-module-unit", (k.label(x),), got, k.basis(x))
    for x in range(dim_k):
        for a in range(dim_h):
            xa = ra(x, a)
            for b in range(dim_h):
                lhs = apply2(ract, k.basis(x), h.mul_basis(a, b))
                rhs = apply2(ract, xa, h.basis(b))
                if lhs != rhs:
                    fail("right-module-associativity",
                         (k.label(x), h.label(a), h.label(b)), lhs, rhs)
    for x in range(dim_k):
        for a in range(dim_h):
            lhs = k.comul(ra(x, a))
            rhs = accumulate(k.hh, (
                (field.mul(cx, ca), tensor_elem(k.hh, ra(x1, a1), ra(x2, a2)))
                for cx, (x1, x2) in sweedler(k, x, 2)
                for ca, (a1, a2) in sweedler(h, a, 2)))
            if lhs != rhs:
                fail("right-module-coalgebra", (k.label(x), h.label(a)), lhs, rhs)
            got = k.counit_scalar(ra(x, a))
            want = field.mul(k._eps[x], h._eps[a])
            if got != want:
                fail("right-module-counit", (k.label(x), h.label(a)), got, want)
    for a in range(dim_h):
        got = apply2(ract, k.unit, h.basis(a))
        want = k.unit.scale(h._eps[a])
        if got != want:
            fail("right-action-on-unit", (h.label(a),), got, want)

    for x in range(dim_k):
        legs_x = sweedler(k, x, 2)
        for a in range(dim_h):
            legs_a = sweedler(h, a, 2)
            for b in range(dim_h):
                lhs = apply2(lact, k.basis(x), h.mul_basis(a, b))
                rhs = accumulate(h.space, (
                    (field.mul(cx, ca),
                     h.product(la(x1, a1), apply2(lact, ra(x2, a2), h.basis(b))))
                    for cx, (x1, x2) in legs_x
                    for ca, (a1, a2) in legs_a))
                if lhs != rhs:
                    fail("compatibility-left",
                         (k.label(x), h.label(a), h.label(b)), lhs, rhs)
    for x in range(dim_k):
        for y in range(dim_k):
            legs_y = sweedler(k, y, 2)
            for a in range(dim_h):
                legs_a = sweedler(h, a, 2)
                lhs = apply2(ract, k.mul_basis(x, y), h.basis(a))
                rhs = accumulate(k.space, (
                    (field.mul(cy, ca),
                     k.product(apply2(ract, k.basis(x), la(y1, a1)), ra(y2, a2)))
                    for cy, (y1, y2) in legs_y
                    for ca, (a1, a2) in legs_a))
                if lhs != rhs:
                    fail("compatibility-right",
                         (k.label(x), k.label(y), h.label(a)), lhs, rhs)


def matched_outcome(verify, h, k, lact, ract):
    try:
        verify(h, k, lact, ract)
    except AxiomFails as exc:
        return exc.axiom, exc.witness
    return None


# -- carriers without a group-like basis, for the Sweedler-kernel oracles --------

# Basis vectors of the transported carriers, in group-algebra coordinates:
# Z2 and Z3 spread over every group element, S3 with only r2 and r2s mixed.
DENSE_Z2 = [{0: Fraction(1), 1: Fraction(1, 2)}, {0: Fraction(-2, 3), 1: 1}]
DENSE_Z3 = [{0: 1, 1: Fraction(1, 2), 2: -1}, {0: Fraction(2, 3), 1: 1, 2: 1},
            {0: -1, 1: Fraction(1, 3), 2: 2}]
MIXED_S3 = [{0: 1}, {1: 1}, {2: 1, 5: 1}, {3: 1}, {4: 1}, {2: 1, 5: -1}]
KERNEL_OPS = {
    "dense-Z2-inv": (gr.cyclic(2), DENSE_Z2, lambda h: h.antipode),
    "dense-Z2-eps": (gr.cyclic(2), DENSE_Z2, lambda h: fx.b_eps(h).map),
    "dense-Z3-inv": (gr.cyclic(3), DENSE_Z3, lambda h: h.antipode),
    "mixed-S3-inv": (gr.dihedral(3), MIXED_S3, lambda h: h.antipode),
    "mixed-S3-eps": (gr.dihedral(3), MIXED_S3, lambda h: fx.b_eps(h).map),
}


def transport_map(name, field):
    """The group algebra of ``KERNEL_OPS[name]`` over ``field`` (QQ or F_7)
    and the bijection p from it onto the basis w_k with the listed
    group-algebra coordinates: ``(h, p)``."""
    group, columns, _ = KERNEL_OPS[name]
    h = hk.group_algebra(group, field)
    space = BasedSpace(tuple(f"w{k}" for k in range(h.dim)), field)
    return h, invert(LinearOp(space, h.space,
                              [Element(h.space, col) for col in columns]))


def transported(name, field):
    """The group algebra of ``KERNEL_OPS[name]`` over ``field`` (QQ or F_7)
    moved along :func:`transport_map`, and the operator of that entry moved
    along: ``(carrier, B)``, B not yet verified as Rota-Baxter."""
    h, p = transport_map(name, field)
    op = KERNEL_OPS[name][2]
    return transport_hopf(h, p), p.compose(op(h)).compose(invert(p))


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


class Built(Exception):
    """Raised by a patched later step to hand back what the code under
    test built before it."""


@pytest.fixture(scope="session")
def kernel_op():
    """``kernel_op(name, field)``: the lift of a Rota-Baxter operator of
    ``KERNEL_OPS`` moved to the transported basis, built once per name and
    field (QQ or F_7)."""
    built: dict = {}

    def make(name, field):
        if (name, field) not in built:
            built[name, field] = hk.verify_rb(*transported(name, field))
        return built[name, field]
    return make


# -- the fast paths of src/hopfkit ---------------------------------------------------

# Every function of src/hopfkit that calls basis_group, _generators or
# basis_indices, or reads a stored ``._group``, each with the test that
# runs its callers with that read turned off (``basis_group`` or
# ``_generators`` patched to None, a copy with no stored group, or the full
# sweep called directly) and compares the results.  tests/test_fast_paths.py
# fails when a site is missing here or an entry names no site or no test.
FAST_PATHS = {
    "hopf.basis_group": "tests/test_group_path.py::"
                        "test_group_algebra_stores_the_group_the_sweep_accepts",
    "hopf.verify_hopf": "tests/test_group_path.py::"
                        "test_edited_index_tables_are_declined_with_the_sweep_witness",
    "hopf.check_cocommutative": "tests/test_group_path.py::"
                                "test_cocommutative_read_agrees_with_the_flip_sweep",
    "hopf._generators": "tests/test_generator_sweeps.py::"
                        "test_module_sweeps_over_generators_match_full_sweep",
    "hopf.int_witness": "tests/test_generator_sweeps.py::"
                        "test_brace_sweep_over_generators_matches_full_sweep",
    "matched.verify_matched_pair":
        "tests/test_generator_sweeps.py::"
        "test_matched_pair_compatibilities_over_generators_match_full_sweep",
    "rb._group_map": "tests/test_group_path.py::"
                     "test_basis_maps_give_the_sweep_verdict",
    "brace.verify_brace": "tests/test_group_path.py::"
                          "test_brace_group_path_agrees_on_relabelled_circle_tables",
    "brace._action_rows": "tests/test_group_path.py::"
                          "test_suite_reads_agree_on_every_operator",
}
