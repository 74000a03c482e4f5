"""Rota-Baxter operators from factorizations and smash products.

Covers triple factorizations G = H·L·M (an operator
B(hlm) = ε(h) C(l) S(m) built from a Rota-Baxter operator C on the
middle factor), semidirect smash products H#K, and the operator
B(h#k) = ε(h) C(k) on a smash product, each with the corresponding
descendent isomorphism checks.  Smash products and antipodes are built
on K ⊗ H by :func:`~hopfkit.hopf.smash_hopf` (the product alone by
:func:`~hopfkit.hopf.smash_mul`) and carried onto H ⊗ K
along the flip of the factors; the coalgebra and the unit are those of
:func:`~hopfkit.hopf.tensor_hopf`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .brace import HopfBrace, verify_brace
from .errors import (DimensionMismatch, HypothesisFails,
                     NotExactFactorization, SingularMap)
from .hopf import (HopfAlgebraData, ModuleAction, _require,
                   _verified, check_module_bialgebra, convolution,
                   first_witness, require_cocommutative, smash_hopf, smash_mul,
                   sub_hopf, sub_hopf_indices, tensor_hopf, unit_counit_map)
from .linalg import BasedSpace, LinearOp, invert, kron, tensor_space
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
    incl_h, incl_l, incl_m = (
        LinearOp(BasedSpace(tuple(g.label(i) for i in idx), g.field), g.space,
                 [g.basis(i) for i in idx]) for idx in (h_idx, l_idx, m_idx))
    w = first_witness((incl_l.domain, incl_h.domain), lambda l, h: (
        g.mul_basis(l_idx[l], h_idx[h]), g.mul_basis(h_idx[h], l_idx[l])))
    if w is not None:
        raise HypothesisFails("lh = hl", w)
    # h ⊗ l ⊗ m -> (hl)m
    phi = g.mul.compose(kron(g.mul.compose(kron(incl_h, incl_l)), incl_m))
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
    c_in_g = f.incl_l.compose(c.map).columns
    ms = BasedSpace(tuple(g.label(i) for i in f.m_idx), g.field)
    w = first_witness((ms, f.sub_l.space), lambda m, l: (
        g.product(g.basis(f.m_idx[m]), c_in_g[l]),
        g.product(c_in_g[l], g.basis(f.m_idx[m]))))
    if w is not None:
        raise HypothesisFails("mC(l) = C(l)m", w)
    # the basis word h⊗l⊗m of H⊗L⊗M -> ε(h) C(l) S(m), read through factor
    words = LinearOp(f.factor.codomain, g.space, [
        g.product(c_l, g.antipode.columns[m]).scale(g._eps[h])
        for h in f.h_idx for c_l in c_in_g for m in f.m_idx])
    return verify_rb(g, words.compose(f.factor))


def check_factorization_descendent_iso(f: TripleFactorization,
                                       b: RotaBaxterOp,
                                       c: RotaBaxterOp) -> bool:
    """(hlm) ∘_B (h'l'm') = h h' (l ∘_C l') m' m over all part-basis
    tuples, identifying the descendent of B with H ⊗ L(C) ⊗ M-opposite.
    The right side is a map on pairs of basis words of H⊗L⊗M, read on G
    through ``factor``: since φ ⊗ φ is a bijection, ∘_B equals it there
    exactly when the identity holds on every tuple."""
    g = f.ambient
    circle_c = descend(c).hopf
    # the basis words of (H⊗L)⊗M in order: ambient h and m, position of l
    words = [(g.basis(h), l, g.basis(m)) for h in f.h_idx
             for l in range(len(f.l_idx)) for m in f.m_idx]
    hlm = f.factor.codomain
    rhs = LinearOp(tensor_space(hlm, hlm), g.space, [
        g.product_many([h, h2, f.incl_l(circle_c.mul_basis(l, l2)), m2, m])
        for h, l, m in words for h2, l2, m2 in words])
    return b.circle == rhs.compose(kron(f.factor, f.factor))


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
    _require(check_module_bialgebra(action), "module-bialgebra")

    plain = tensor_hopf(h, k)
    kh = smash_hopf(k, h, action.act)
    # the coalgebra and the unit are those of the tensor product
    smash = HopfAlgebraData(plain.space, _onto_hk(kh.mul, plain.space, h.dim),
                            plain.unit, plain.comul, plain.counit,
                            _onto_hk(kh.antipode, plain.space, h.dim))
    brace = verify_brace(plain, _verified(smash, "smash"))
    return SmashProduct(h, k, action, smash, plain, brace)


def _onto_hk(op: LinearOp, space: BasedSpace, dim_h: int) -> LinearOp:
    """The product or the antipode of a :func:`smash_hopf` structure on
    K ⊗ H carried onto ``space``, H ⊗ K, as :func:`~hopfkit.hopf._carried`
    carries them: p∘m∘(q⊗q) or p∘S∘q, for the flip p: k⊗h -> h⊗k and its
    inverse, the flip q: h⊗k -> k⊗h.  Exact, since a cocommutative K lets
    k_(1) and k_(2) trade places."""
    kh = op.codomain
    dim_k = kh.dim // dim_h
    flip = LinearOp(kh, space, [space.basis(h * dim_k + k)
                                for k in range(dim_k) for h in range(dim_h)])
    back = LinearOp(space, kh, [kh.basis(k * dim_h + h)
                                for h in range(dim_h) for k in range(dim_k)])
    if op.domain != kh:
        back = kron(back, back)
    return flip.compose(op.compose(back))


def rb_on_smash(sp: SmashProduct, c: RotaBaxterOp) -> RotaBaxterOp:
    """B(h#k) = ε(h) C(k), verified on the smash-product Hopf algebra."""
    c.require_validated()
    if not c.carrier.structure_equal(sp.right):
        raise DimensionMismatch("operator must live on the right factor K")
    return verify_rb(sp.product, kron(unit_counit_map(sp.left), c.map))


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
    kh = tensor_space(circle_c.space, h.space)
    return descend(b).hopf.mul == _onto_hk(
        smash_mul(circle_c, h, twist, tensor_space(kh, kh)), sp.product.space,
        h.dim)
