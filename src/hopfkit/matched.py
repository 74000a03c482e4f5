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

from .brace import HopfBrace, verify_brace
from .errors import (AxiomFails, ConstructionInvalid, DimensionMismatch,
                     HypothesisFails, InternalTheoremViolation, BraidFails)
from .hopf import (HopfAlgebraData, _earliest, apply2, coalgebra_map_failures,
                   convolution, first_witness, leg_table,
                   require_cocommutative, tensor_coalgebra, twisted_product,
                   verify_hopf)
from .linalg import (Element, LinearOp, accumulate, invert, tensor_index,
                     tensor_space, tensor_split)
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
    failure raises AxiomFails with the axiom tag and witness."""
    require_cocommutative(h)
    require_cocommutative(k)
    kh = tensor_space(k.space, h.space)
    if lact.domain != kh or lact.codomain != h.space:
        raise DimensionMismatch("left action must map K⊗H to H")
    if ract.domain != kh or ract.codomain != k.space:
        raise DimensionMismatch("right action must map K⊗H to K")
    dim_h, dim_k = h.dim, k.dim
    source = tensor_coalgebra(k, h)

    def la(x: int, a: int) -> Element:
        return lact.columns[tensor_index(x, a, dim_h)]

    def ra(x: int, a: int) -> Element:
        return ract.columns[tensor_index(x, a, dim_h)]

    def sweep(tag: str, spaces, sides):
        w = first_witness(spaces, sides)
        if w is not None:
            raise AxiomFails(tag, w)

    def module_coalgebra(tags, act, target):
        first = _earliest(coalgebra_map_failures(act, source, target))
        if first is not None:
            which, (p, lhs, rhs) = first
            x, a = tensor_split(p, dim_h)
            raise AxiomFails(tags[which], Witness((k.label(x), h.label(a)),
                                                  str(lhs), str(rhs)))

    sweep("left-module-unit", (h.space,),
          lambda a: (apply2(lact, k.unit, h.basis(a)), h.basis(a)))
    sweep("left-module-associativity", (k.space, k.space, h.space),
          lambda x, y, a: (apply2(lact, k.mul_basis(x, y), h.basis(a)),
                           apply2(lact, k.basis(x), la(y, a))))
    module_coalgebra(("left-module-coalgebra", "left-module-counit"), lact,
                     (h.comul, h.counit))
    sweep("left-action-on-unit", (k.space,),
          lambda x: (apply2(lact, k.basis(x), h.unit), h.unit.scale(k._eps[x])))

    sweep("right-module-unit", (k.space,),
          lambda x: (apply2(ract, k.basis(x), h.unit), k.basis(x)))
    sweep("right-module-associativity", (k.space, h.space, h.space),
          lambda x, a, b: (apply2(ract, k.basis(x), h.mul_basis(a, b)),
                           apply2(ract, ra(x, a), h.basis(b))))
    module_coalgebra(("right-module-coalgebra", "right-module-counit"), ract,
                     (k.comul, k.counit))
    sweep("right-action-on-unit", (h.space,),
          lambda a: (apply2(ract, k.unit, h.basis(a)), k.unit.scale(h._eps[a])))

    # (x ⊗ a) ⊗ b -> (x_(1) ⇀ a_(1)) ((x_(2) ↼ a_(2)) ⇀ b)
    rhs = twisted_product(source[0], h.mul, lact, f=lact, g=ract).columns
    sweep("compatibility-left", (k.space, h.space, h.space),
          lambda x, a, b: (apply2(lact, k.basis(x), h.mul_basis(a, b)),
                           rhs[(x * dim_h + a) * dim_h + b]))
    sweep("compatibility-right", (k.space, k.space, h.space),
          lambda x, y, a: (apply2(ract, k.mul_basis(x, y), h.basis(a)),
                           accumulate(k.space, (
                               (cy * ca, k.product(
                                   apply2(ract, k.basis(x),
                                          la(py // dim_k, pa // dim_h)),
                                   ra(py % dim_k, pa % dim_h)))
                               for py, cy in k.comul.columns[y].coeffs.items()
                               for pa, ca in h.comul.columns[a].coeffs.items()))))
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

    first = _earliest(coalgebra_map_failures(c, coalgebra, coalgebra))
    if first is not None:
        x, y = tensor_split(first[1][0], dim)
        raise InternalTheoremViolation(
            f"c is not a coalgebra morphism at basis pair "
            f"({h.label(x)},{h.label(y)})")

    c_inv = invert(c)

    def braid(i, j, k):
        lhs = rhs = {(i, j, k): field.one}
        for pos in (0, 1, 0):
            lhs = _apply_on_legs(c, lhs, pos, dim, field)
        for pos in (1, 0, 1):
            rhs = _apply_on_legs(c, rhs, pos, dim, field)
        return sorted(lhs.items()), sorted(rhs.items())

    w = first_witness((h.space, h.space, h.space), braid)
    if w is not None:
        raise BraidFails("braid relation fails", w)
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
    report = verify_hopf(dot)
    if not report.passed:
        fail = report.first_failure()
        raise ConstructionInvalid(f"dot:{fail.name}", str(fail.witness))
    return verify_brace(dot, circle)
