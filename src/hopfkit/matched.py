"""Matched pairs of cocommutative Hopf algebras and the Yang-Baxter
maps they induce.

A matched pair is a left module coalgebra (H, ⇀) over K and a right
module coalgebra (K, ↼) over H with

    x ⇀ (ab)  = (x_(1) ⇀ a_(1)) ((x_(2) ↼ a_(2)) ⇀ b)
    (xy) ↼ a  = (x ↼ (y_(1) ⇀ a_(1))) (y_(2) ↼ a_(2)).

Both carriers of the pair built from a Rota-Baxter operator are the
descendent Hopf algebra H(B); the action formulas themselves multiply in
the original dot product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .brace import HopfBrace, verify_brace
from .errors import (AxiomFails, DimensionMismatch, HypothesisFails,
                     InternalTheoremViolation, BraidFails)
from .hopf import (HopfAlgebraData, _associativity_witness, _first_failure,
                   _leg_sum, _named_failures, _unit_witnesses, _verified,
                   coalgebra_map_failures, convolution, first_witness,
                   int_witness, leg_table, require_cocommutative,
                   tensor_coalgebra, twisted_product)
from .linalg import (LinearOp, accumulate, int_product, invert,
                     scaled_columns, tensor_index, tensor_space, tensor_split)
from .rb import RotaBaxterOp, descend, rb_action_map
from .report import Witness


@dataclass
class MatchedPair:
    left: HopfAlgebraData          # H
    right: HopfAlgebraData         # K
    lact: LinearOp                 # K ⊗ H -> H   (x ⇀ a)
    ract: LinearOp                 # K ⊗ H -> K   (x ↼ a)


def verify_matched_pair(h: HopfAlgebraData, k: HopfAlgebraData,
                        lact: LinearOp, ract: LinearOp) -> MatchedPair:
    """Sweep every module-coalgebra and compatibility axiom; the first
    failure raises AxiomFails with the axiom tag and witness.

    Four sweeps first run one slot over the generators of a carrier
    (:func:`~hopfkit.hopf.int_witness`), each slot closed under products
    by axioms already verified:

    - the left law (xy) ⇀ a, slot y, by the associativity of K;
    - the right law x ↼ (ab) = (x ↼ a) ↼ b, slot a, by the associativity
      of H: x ↼ ((aa')b) = (x ↼ a) ↼ (a'b) = ((x ↼ a) ↼ a') ↼ b;
    - compatibility-left, slot b, by the associativity of H, the
      multiplicativity of Δ_H, the right law and ↼ being a coalgebra map
      (all swept before it): for b, b' in it and group-like b, with
      y = x_(2) ↼ a_(2),
      x ⇀ (abb') = (x_(1) ⇀ a_(1)b)(((x_(2) ↼ a_(2)) ↼ b) ⇀ b')
      = (x_(1) ⇀ a_(1))(y_(1) ⇀ b)((y_(2) ↼ b) ⇀ b')
      = (x_(1) ⇀ a_(1))(y ⇀ bb');
    - compatibility-right, slot x, the mirror case, by the associativity
      of K, the multiplicativity of Δ_K, the left law and ⇀ being a
      coalgebra map.

    Both compatibility steps split a product, Δ(ab) = a_(1)b ⊗ a_(2)b,
    which needs b (and x) group-like.  So they run over generators only on
    carriers accepted with a stored group, whose generators and words are
    group-like; on any other carrier they sweep every slot.  (x ↼ a) ⇀ b
    and x ↼ (y ⇀ a) are tabled for each b or x when its first row is
    swept."""
    require_cocommutative(h)
    require_cocommutative(k)
    kh = tensor_space(k.space, h.space)
    if lact.domain != kh or lact.codomain != h.space:
        raise DimensionMismatch("left action must map K⊗H to H")
    if ract.domain != kh or ract.codomain != k.space:
        raise DimensionMismatch("right action must map K⊗H to K")
    dim_h, dim_k = h.dim, k.dim
    dim_kh = dim_k * dim_h
    source = tensor_coalgebra(k, h)

    def sweep(tag: str, w: Witness | None):
        if w is not None:
            raise AxiomFails(tag, w)

    def module_coalgebra(tags, act, target):
        named = _named_failures(coalgebra_map_failures(act, source, target),
                                (k.space, h.space))
        if named:
            which, w = named[0]
            raise AxiomFails(tags[which], w)

    dl, la = scaled_columns(lact)
    dn, mul_k = scaled_columns(k.mul)
    left_unit, left_on_unit = _unit_witnesses(k, h, lact)
    sweep("left-module-unit", left_unit)
    sweep("left-module-associativity",
          _associativity_witness(k.space, h.space, (dn, mul_k), (dl, la),
                                 (1, k)))
    module_coalgebra(("left-module-coalgebra", "left-module-counit"), lact,
                     (h.comul, h.counit))
    sweep("left-action-on-unit", left_on_unit)

    # x ↼ a read as an action a ⊗ x -> x ↼ a of H on K, for the unit laws
    flip = LinearOp(tensor_space(h.space, k.space), k.space, [
        ract.columns[x * dim_h + a] for a in range(dim_h) for x in range(dim_k)])
    right_unit, right_on_unit = _unit_witnesses(h, k, flip)
    sweep("right-module-unit", right_unit)
    # x ↼ (ab) and (x ↼ a) ↼ b carry dr·dm and dr²
    dr, ra = scaled_columns(ract)
    dm, mul_h = scaled_columns(h.mul)
    sweep("right-module-associativity", int_witness(
        (k.space, h.space, h.space), k.space, (dr * dm, dr * dr),
        lambda x, a: (
            [int_product(ra, dim_h, ((x, 1),), col)
             for col in mul_h[a * dim_h:(a + 1) * dim_h]],
            [int_product(ra, dim_h, ra[x * dim_h + a], ((b, 1),))
             for b in range(dim_h)]), closed=(1, h)))
    module_coalgebra(("right-module-coalgebra", "right-module-counit"), ract,
                     (k.comul, k.counit))
    sweep("right-action-on-unit", right_on_unit)

    # Both compatibilities sum c·m(left[u] ⊗ right[v]) over the terms c of the
    # middle-flip Δ of K ⊗ H (scale ds) at s, u ⊗ v = (x_(1)⊗a_(1)) ⊗ (x_(2)⊗a_(2)).
    ds, legs = scaled_columns(source[0])

    # (x ↼ a) ⇀ b and x ↼ (y ⇀ a), carrying dr·dl, once per b or x
    @cache
    def rl(b):
        return [tuple(int_product(la, dim_h, col, ((b, 1),)).items())
                for col in ra]

    @cache
    def xl(x):
        return [tuple(int_product(ra, dim_h, ((x, 1),), col).items())
                for col in la]

    def left_rows(x, a, lasts=range(dim_h)):
        return ([int_product(la, dim_h, ((x, 1),), mul_h[a * dim_h + b])
                 for b in lasts],
                [_leg_sum(mul_h, dim_h, legs[x * dim_h + a], dim_kh, la, rl(b))
                 for b in lasts])
    # a recognized group carrier has group-like generators
    sweep("compatibility-left", int_witness(
        (k.space, h.space, h.space), h.space, (dl * dm, ds * dl * dr * dl * dm),
        left_rows, closed=None if h._group is None else (2, h)))
    sweep("compatibility-right", int_witness(
        (k.space, k.space, h.space), k.space, (dr * dn, ds * dr * dl * dr * dn),
        lambda x, y: (
            [int_product(ra, dim_h, mul_k[x * dim_k + y], ((a, 1),))
             for a in range(dim_h)],
            [_leg_sum(mul_k, dim_k, legs[y * dim_h + a], dim_kh, xl(x), ra)
             for a in range(dim_h)]),
        closed=None if k._group is None else (0, k)))
    return MatchedPair(h, k, lact, ract)


def matched_pair_from_rb(b: RotaBaxterOp) -> MatchedPair:
    """Both carriers are H(B); the actions are

        h ⇀ k = B(h_(1)) k S(B(h_(2)))
        h ↼ k = S(B(h_(1)⇀k_(1))) S(h_(2)⇀k_(2)) h_(3) (h_(4)⇀k_(3)) B(h_(5)⇀k_(4))

    with all products taken in the original dot structure.
    """
    b.require_validated()
    h = b.carrier
    dim = h.dim
    hb = descend(b).hopf
    lact = rb_action_map(b)

    # S∘B∘lact, S∘lact and B∘lact as tables over the dim² action columns.
    # Each distinct left factor S(B(u1)) S(u2) is turned into its left
    # multiplication map and each right factor x3 u3 B(u4) is formed once
    # per call, so a term costs one map application.
    lcols = lact.columns
    sbl = [h.antipode(b.map(u)) for u in lcols]
    sl = [h.antipode(u) for u in lcols]
    bl = [b.map(u) for u in lcols]
    lefts: dict = {}
    rights: dict = {}
    legs4 = leg_table(h, 4)
    ract_cols = []
    for legs_x in leg_table(h, 5):
        for a in range(dim):
            terms = []
            for cx, (x1, x2, x3, x4, x5) in legs_x:
                for ca, (a1, a2, a3, a4) in legs4[a]:
                    k1, k2 = x1 * dim + a1, x2 * dim + a2
                    left = lefts.get((k1, k2))
                    if left is None:
                        factor = h.product(sbl[k1], sl[k2])
                        left = lefts[k1, k2] = LinearOp.from_function(
                            h.space, h.space,
                            lambda j: h.product(factor, h.basis(j)))
                    k3, k4 = x4 * dim + a3, x5 * dim + a4
                    right = rights.get((x3, k3, k4))
                    if right is None:
                        right = rights[x3, k3, k4] = h.product_many(
                            [h.basis(x3), lcols[k3], bl[k4]])
                    terms.append((cx * ca, left(right)))
            ract_cols.append(accumulate(h.space, terms))
    ract = LinearOp(h.hh, h.space, ract_cols)
    return verify_matched_pair(hb, hb, lact, ract)


# -- Yang-Baxter maps ---------------------------------------------------------

@dataclass
class YbeMap:
    """An invertible solution c of the braid-form Yang-Baxter equation on
    H ⊗ H, together with its exact inverse."""

    space: object
    c: LinearOp
    c_inverse: LinearOp


def _apply_on_legs(c: LinearOp, elem_coeffs: dict, pos: int, dim: int,
                   field) -> dict:
    """Apply c to the tensor legs (pos, pos+1) of a dict keyed by index
    triples."""
    out: dict = {}
    for (i, j, k), w in elem_coeffs.items():
        pair = (i, j) if pos == 0 else (j, k)
        col = c.columns[tensor_index(pair[0], pair[1], dim)]
        for idx, cv in col.coeffs.items():
            u, v = tensor_split(idx, dim)
            key = (u, v, k) if pos == 0 else (i, u, v)
            nv = field.add(out.get(key, field.zero), field.mul(w, cv))
            if nv == 0:
                out.pop(key, None)
            else:
                out[key] = nv
    return out


def ybe_from_rb(b: RotaBaxterOp) -> YbeMap:
    """c(x ⊗ y) = (x_(1) ⇀ y_(1)) ⊗ (x_(2) ↼ y_(2)) built from the
    matched pair of B; re-checked as a coalgebra isomorphism and swept
    through the braid relation on all basis triples."""
    m = matched_pair_from_rb(b)
    h = b.carrier
    dim = h.dim
    field = h.field
    coalgebra = tensor_coalgebra(h, h)
    c = convolution(coalgebra[0], m.lact, m.ract,
                    LinearOp.identity(coalgebra[0].domain))

    named = _named_failures(coalgebra_map_failures(c, coalgebra, coalgebra),
                            (h.space, h.space))
    if named:
        raise InternalTheoremViolation(
            "c is not a coalgebra morphism at basis pair ({},{})".format(
                *named[0][1].at))

    c_inv = invert(c)

    # c ⊗ id and id ⊗ c as int tables on H ⊗ H ⊗ H, flat index
    # (i·dim + j)·dim + k; both sides of the braid relation carry dc³.
    _, cols = scaled_columns(c)
    sq, one = dim * dim, ((0, 1),)
    c_id = [tuple((u * dim + k, w) for u, w in cols[ij])
            for ij in range(sq) for k in range(dim)]
    id_c = [tuple((i * sq + u, w) for u, w in cols[jk])
            for i in range(dim) for jk in range(sq)]

    def rows(i, j):
        # f g f on each e_i ⊗ e_j ⊗ e_k, for (f, g) = (c ⊗ id, id ⊗ c) and back
        span = range((i * dim + j) * dim, (i * dim + j + 1) * dim)
        return tuple([int_product(f, 1, int_product(g, 1, f[idx], one).items(), one)
                      for idx in span] for f, g in ((c_id, id_c), (id_c, c_id)))
    found = _first_failure((dim, dim, dim), field.p, (1, 1), rows)
    if found is not None:
        lhs = rhs = {found[0]: field.one}
        for pos in (0, 1, 0):
            lhs = _apply_on_legs(c, lhs, pos, dim, field)
        for pos in (1, 0, 1):
            rhs = _apply_on_legs(c, rhs, pos, dim, field)
        raise BraidFails("braid relation fails", Witness(
            tuple(h.label(i) for i in found[0]),
            str(sorted(lhs.items())), str(sorted(rhs.items()))))
    return YbeMap(h.space, c, c_inv)


def brace_from_matched_pair(m: MatchedPair, circle: HopfAlgebraData) -> HopfBrace:
    """Rebuild the dot structure of a brace from a matched pair of the
    circle Hopf algebra with itself satisfying
    a ∘ b = (a_(1) ⇀ b_(1)) ∘ (a_(2) ↼ b_(2)):

        a b  = a_(1) ∘ (T(a_(2)) ⇀ b),    S(a) = a_(1) ⇀ T(a_(2)).
    """
    circle.require_validated()
    if not (m.left.structure_equal(circle) and m.right.structure_equal(circle)):
        raise DimensionMismatch(
            "the matched pair must be the circle Hopf algebra with itself")
    dim = circle.dim
    hypothesis = convolution(tensor_coalgebra(circle, circle)[0], m.lact,
                             m.ract, circle.mul)
    w = first_witness((circle.space, circle.space), lambda a, b: (
        circle.mul_basis(a, b), hypothesis.columns[a * dim + b]))
    if w is not None:
        raise HypothesisFails("a∘b = (a1⇀b1)∘(a2↼b2)", w)

    t = circle.antipode
    dot = HopfAlgebraData(circle.space,
                          twisted_product(circle.comul, circle.mul, m.lact,
                                          g=t),
                          circle.unit, circle.comul, circle.counit,
                          convolution(circle.comul,
                                      LinearOp.identity(circle.space), t,
                                      m.lact))
    return verify_brace(_verified(dot, "dot"), circle)
