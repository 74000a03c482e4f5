"""Rota-Baxter operators from factorizations and smash products.

Covers triple factorizations G = H·L·M (an operator
B(hlm) = ε(h) C(l) S(m) built from a Rota-Baxter operator C on the
middle factor), semidirect smash products H#K, and the operator
B(h#k) = ε(h) C(k) on a smash product, each with the corresponding
descendent isomorphism sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .brace import HopfBrace, verify_brace
from .errors import (ConstructionInvalid, DimensionMismatch, HypothesisFails,
                     NotExactFactorization, SingularMap)
from .hopf import (HopfAlgebraData, ModuleAction, apply2,
                   check_module_bialgebra, convolution, first_witness,
                   require_cocommutative, sub_hopf, sub_hopf_indices,
                   tensor_hopf, verify_hopf)
from .linalg import (BasedSpace, LinearOp, accumulate, invert, kron,
                     tensor_elem, tensor_space, tensor_split)
from .rb import RotaBaxterOp, descend, verify_rb


@dataclass
class TripleFactorization:
    """Exact decomposition G = H·L·M into three Hopf subalgebras whose
    multiplication map is a linear isomorphism, with l h = h l swept."""

    ambient: HopfAlgebraData
    h_idx: list[int]
    l_idx: list[int]
    m_idx: list[int]
    sub_l: HopfAlgebraData
    incl_l: LinearOp
    factor: LinearOp        # G -> (H ⊗ L) ⊗ M


def triple_factorization(g: HopfAlgebraData, h_labels, l_labels,
                         m_labels) -> TripleFactorization:
    require_cocommutative(g)
    h_idx = sub_hopf_indices(g, h_labels)
    l_idx = sub_hopf_indices(g, l_labels)
    m_idx = sub_hopf_indices(g, m_labels)
    if len(h_idx) * len(l_idx) * len(m_idx) != g.dim:
        raise NotExactFactorization(
            f"|H||L||M| = {len(h_idx) * len(l_idx) * len(m_idx)} != dim G = {g.dim}")
    hs, ls, ms = (BasedSpace(tuple(g.label(i) for i in idx), g.field)
                  for idx in (h_idx, l_idx, m_idx))
    w = first_witness((ls, hs), lambda l, h: (
        g.mul_basis(l_idx[l], h_idx[h]), g.mul_basis(h_idx[h], l_idx[l])))
    if w is not None:
        raise HypothesisFails("lh = hl", w)
    hl = tensor_space(hs, ls)
    hlm = tensor_space(hl, ms)
    cols = []
    for i in h_idx:
        for j in l_idx:
            hl_part = g.mul_basis(i, j)
            for k in m_idx:
                cols.append(g.product(hl_part, g.basis(k)))
    phi = LinearOp(hlm, g.space, cols)
    try:
        factor = invert(phi)
    except SingularMap as exc:
        raise NotExactFactorization(
            "multiplication map H⊗L⊗M -> G is not bijective") from exc
    sub_l_data, incl_l = sub_hopf(g, [g.label(i) for i in l_idx])
    return TripleFactorization(g, h_idx, l_idx, m_idx, sub_l_data, incl_l, factor)


def rb_from_triple_factorization(f: TripleFactorization,
                                 c: RotaBaxterOp) -> RotaBaxterOp:
    """B(hlm) = ε(h) C(l) S(m), verified as a Rota-Baxter operator on the
    ambient algebra.  The commutation hypothesis m C(l) = C(l) m is swept
    first; its failure is an input error, not a Rota-Baxter failure."""
    g = f.ambient
    c.require_validated()
    if not c.carrier.structure_equal(f.sub_l):
        raise DimensionMismatch("operator must live on the middle factor L")
    c_in_g = [f.incl_l(c.map.columns[i]) for i in range(len(f.l_idx))]
    ms = BasedSpace(tuple(g.label(i) for i in f.m_idx), g.field)
    w = first_witness((ms, f.sub_l.space), lambda m, l: (
        g.product(g.basis(f.m_idx[m]), c_in_g[l]),
        g.product(c_in_g[l], g.basis(f.m_idx[m]))))
    if w is not None:
        raise HypothesisFails("mC(l) = C(l)m", w)
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
    return verify_rb(g, LinearOp(g.space, g.space, cols))


def check_factorization_descendent_iso(f: TripleFactorization,
                                       b: RotaBaxterOp,
                                       c: RotaBaxterOp) -> bool:
    """(hlm) ∘_B (h'l'm') = h h' (l ∘_C l') m' m over all part-basis
    tuples, identifying the descendent of B with H ⊗ L(C) ⊗ M-opposite."""
    g = f.ambient
    circle_c = descend(c).hopf
    n_l, n_m = len(f.l_idx), len(f.m_idx)

    def parts(p):
        """Ambient h and m, and the position of l, of basis word p of H⊗L⊗M."""
        hl, m = tensor_split(p, n_m)
        h, l = tensor_split(hl, n_l)
        return g.basis(f.h_idx[h]), l, g.basis(f.m_idx[m])

    def sides(p, q):
        (h, l, m), (h2, l2, m2) = parts(p), parts(q)
        lhs = apply2(b.circle, g.product_many([h, g.basis(f.l_idx[l]), m]),
                     g.product_many([h2, g.basis(f.l_idx[l2]), m2]))
        circ = f.incl_l(circle_c.mul_basis(l, l2))
        return lhs, g.product_many([h, h2, circ, m2, m])
    hlm = f.factor.codomain
    return first_witness((hlm, hlm), sides) is None


# -- smash products -----------------------------------------------------------

@dataclass
class SmashProduct:
    """H ⊗ K carrying both Example-style multiplications: the plain
    tensor product (dot) and the semidirect smash product (circle);
    the pair is verified as a Hopf brace."""

    left: HopfAlgebraData
    right: HopfAlgebraData
    action: ModuleAction
    product: HopfAlgebraData       # the smash (circle) structure
    tensor: HopfAlgebraData        # the componentwise (dot) structure
    brace: HopfBrace


def smash_product(h: HopfAlgebraData, k: HopfAlgebraData,
                  action: ModuleAction) -> SmashProduct:
    """Smash product (h#k)(h'#k') = h(k_(1)▷h') # k_(2)k' with antipode
    T(h#k) = S_K(k_(1)) ▷ S_H(h) # S_K(k_(2)), paired with the plain
    tensor Hopf algebra into a brace."""
    require_cocommutative(h)
    require_cocommutative(k)
    if action.actor is not k and not action.actor.structure_equal(k):
        raise DimensionMismatch("the action actor must be the right factor K")
    if action.carrier is not h and not action.carrier.structure_equal(h):
        raise DimensionMismatch("the action carrier must be the left factor H")
    report = check_module_bialgebra(action)
    if not report.passed:
        fail = report.first_failure()
        raise ConstructionInvalid("module-bialgebra", f"{fail.name}: {fail.witness}")

    plain = tensor_hopf(h, k)
    space = plain.space
    dim_k = k.dim
    anti_cols = []
    for p in range(space.dim):
        i, j = tensor_split(p, dim_k)
        anti_cols.append(accumulate(space, (
            (w, tensor_elem(space,
                            apply2(action.act, k.antipode.columns[q // dim_k],
                                   h.antipode.columns[i]),
                            k.antipode.columns[q % dim_k]))
            for q, w in k.comul.columns[j].coeffs.items())))
    smash = HopfAlgebraData(space, _smash_mul(h, k, action.act, k.mul),
                            plain.unit, plain.comul, plain.counit,
                            LinearOp(space, space, anti_cols))
    rep = verify_hopf(smash)
    if not rep.passed:
        fail = rep.first_failure()
        raise ConstructionInvalid(f"smash:{fail.name}", str(fail.witness))
    brace = verify_brace(plain, smash)
    return SmashProduct(h, k, action, smash, plain, brace)


def _smash_mul(h: HopfAlgebraData, k: HopfAlgebraData, act: LinearOp,
               k_mul: LinearOp) -> LinearOp:
    """(h#k)(h'#k') = h (k_(1) ▷ h') # k_(2) k' on H ⊗ K, for an action
    act: K ⊗ H -> H and a product k_mul on K."""
    space = tensor_space(h.space, k.space)
    dim_h, dim_k = h.dim, k.dim
    cols = []
    for p in range(space.dim):
        i, j = tensor_split(p, dim_k)
        legs = k.comul.columns[j].coeffs.items()
        for q in range(space.dim):
            a, bb = tensor_split(q, dim_k)
            cols.append(accumulate(space, (
                (w, tensor_elem(space,
                                h.product(h.basis(i),
                                          act.columns[r // dim_k * dim_h + a]),
                                k_mul.columns[r % dim_k * dim_k + bb]))
                for r, w in legs)))
    return LinearOp(tensor_space(space, space), space, cols)


def rb_on_smash(sp: SmashProduct, c: RotaBaxterOp) -> RotaBaxterOp:
    """B(h#k) = ε(h) C(k), verified on the smash-product Hopf algebra."""
    c.require_validated()
    if not c.carrier.structure_equal(sp.right):
        raise DimensionMismatch("operator must live on the right factor K")
    h, k = sp.left, sp.right
    space = sp.product.space
    dim_k = k.dim
    cols = []
    for p in range(space.dim):
        i, j = tensor_split(p, dim_k)
        cols.append(tensor_elem(space, h.unit,
                                c.map.columns[j]).scale(h._eps[i]))
    return verify_rb(sp.product, LinearOp(space, space, cols))


def check_smash_descendent_iso(sp: SmashProduct, c: RotaBaxterOp,
                               b: RotaBaxterOp) -> bool:
    """Descendent of B(h#k) = ε(h)C(k) equals H # K(C) for the twisted
    action k ⊵ h = (k_(1) C(k_(2))) ▷ h: the twisted action passes the
    module-bialgebra sweep over K(C), and
    (h#k) ∘_B (h'#k') = h (k_(1) ⊵ h') # (k_(2) ∘_C k') on all tuples."""
    h, k = sp.left, sp.right
    circle_c = descend(c).hopf
    # k ⊗ h -> (k_(1) C(k_(2))) ▷ h
    actor = convolution(k.comul, LinearOp.identity(k.space), c.map, k.mul)
    twist = sp.action.act.compose(kron(actor, LinearOp.identity(h.space)))
    if not check_module_bialgebra(ModuleAction(circle_c, h, twist)).passed:
        return False
    return descend(b).hopf.mul == _smash_mul(h, k, twist, circle_c.mul)
