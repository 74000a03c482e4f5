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
from .hopf import HopfAlgebraData, apply2, require_cocommutative, verify_hopf
from .linalg import (Element, LinearOp, accumulate, invert, tensor_elem,
                     tensor_index, tensor_space, tensor_split)
from .rb import RotaBaxterOp, descend
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
                for cx, (x1, x2) in k.sweedler(x, 2)
                for ca, (a1, a2) in h.sweedler(a, 2)))
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
                for cx, (x1, x2) in k.sweedler(x, 2)
                for ca, (a1, a2) in h.sweedler(a, 2)))
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
        legs_x = k.sweedler(x, 2)
        for a in range(dim_h):
            legs_a = h.sweedler(a, 2)
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
            legs_y = k.sweedler(y, 2)
            for a in range(dim_h):
                legs_a = h.sweedler(a, 2)
                lhs = apply2(ract, k.mul_basis(x, y), h.basis(a))
                rhs = accumulate(k.space, (
                    (field.mul(cy, ca),
                     k.product(apply2(ract, k.basis(x), la(y1, a1)), ra(y2, a2)))
                    for cy, (y1, y2) in legs_y
                    for ca, (a1, a2) in legs_a))
                if lhs != rhs:
                    fail("compatibility-right",
                         (k.label(x), k.label(y), h.label(a)), lhs, rhs)
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

    lact_cols = []
    for x in range(dim):
        wings = [(c, b.map.columns[x1], h.antipode(b.map.columns[x2]))
                 for c, (x1, x2) in h.sweedler(x, 2)]
        for a in range(dim):
            lact_cols.append(accumulate(h.space, (
                (c, h.product_many([left, h.basis(a), right]))
                for c, left, right in wings)))
    lact = LinearOp(h.hh, h.space, lact_cols)

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
    ract_cols = []
    for x in range(dim):
        legs_x = h.sweedler(x, 5)
        for a in range(dim):
            terms = []
            for cx, (x1, x2, x3, x4, x5) in legs_x:
                for ca, (a1, a2, a3, a4) in h.sweedler(a, 4):
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
    hh = tensor_space(h.space, h.space)

    def la(x, a):
        return m.lact.columns[tensor_index(x, a, dim)]

    def ra(x, a):
        return m.ract.columns[tensor_index(x, a, dim)]

    cols = []
    for x in range(dim):
        legs_x = h.sweedler(x, 2)
        for y in range(dim):
            cols.append(accumulate(hh, (
                (field.mul(cx, cy), tensor_elem(hh, la(x1, y1), ra(x2, y2)))
                for cx, (x1, x2) in legs_x
                for cy, (y1, y2) in h.sweedler(y, 2))))
    c = LinearOp(hh, hh, cols)

    # coalgebra morphism for the middle-flip tensor coalgebra
    hhhh = tensor_space(hh, hh)

    def tensor_comul(elem: Element) -> Element:
        out: dict = {}
        for p, w in elem.coeffs.items():
            x, y = tensor_split(p, dim)
            for px, cx in h.comul.columns[x].coeffs.items():
                x1, x2 = tensor_split(px, dim)
                for py, cy in h.comul.columns[y].coeffs.items():
                    y1, y2 = tensor_split(py, dim)
                    key = tensor_index(tensor_index(x1, y1, dim),
                                       tensor_index(x2, y2, dim), hh.dim)
                    nv = field.add(out.get(key, field.zero),
                                   field.mul(w, field.mul(cx, cy)))
                    if nv == 0:
                        out.pop(key, None)
                    else:
                        out[key] = nv
        return Element(hhhh, out, _canonical=True)

    for p in range(hh.dim):
        lhs = tensor_comul(c.columns[p])
        x, y = tensor_split(p, dim)
        rhs_terms = []
        for px, cx in h.comul.columns[x].coeffs.items():
            x1, x2 = tensor_split(px, dim)
            for py, cy in h.comul.columns[y].coeffs.items():
                y1, y2 = tensor_split(py, dim)
                rhs_terms.append((field.mul(cx, cy),
                                  tensor_elem(hhhh,
                                              c.columns[tensor_index(x1, y1, dim)],
                                              c.columns[tensor_index(x2, y2, dim)])))
        if lhs != accumulate(hhhh, rhs_terms):
            raise InternalTheoremViolation(
                f"c is not a coalgebra morphism at basis pair "
                f"({h.label(x)},{h.label(y)})")

    c_inv = invert(c)

    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                start = {(i, j, k): field.one}
                lhs = _apply_on_legs(c, start, 0, dim, field)
                lhs = _apply_on_legs(c, lhs, 1, dim, field)
                lhs = _apply_on_legs(c, lhs, 0, dim, field)
                rhs = _apply_on_legs(c, start, 1, dim, field)
                rhs = _apply_on_legs(c, rhs, 0, dim, field)
                rhs = _apply_on_legs(c, rhs, 1, dim, field)
                if lhs != rhs:
                    raise BraidFails(
                        "braid relation fails",
                        Witness((h.label(i), h.label(j), h.label(k)),
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
    field = circle.field

    def la(x, a):
        return m.lact.columns[tensor_index(x, a, dim)]

    def ra(x, a):
        return m.ract.columns[tensor_index(x, a, dim)]

    for a in range(dim):
        legs_a = circle.sweedler(a, 2)
        for b in range(dim):
            lhs = circle.mul_basis(a, b)
            rhs = accumulate(circle.space, (
                (field.mul(ca, cb),
                 apply2(circle.mul, la(a1, b1), ra(a2, b2)))
                for ca, (a1, a2) in legs_a
                for cb, (b1, b2) in circle.sweedler(b, 2)))
            if lhs != rhs:
                raise HypothesisFails(
                    "a∘b = (a1⇀b1)∘(a2↼b2)",
                    Witness((circle.label(a), circle.label(b)),
                            str(lhs), str(rhs)))

    t = circle.antipode
    dot_cols = []
    for a in range(dim):
        legs = circle.sweedler(a, 2)
        for b in range(dim):
            dot_cols.append(accumulate(circle.space, (
                (w, apply2(circle.mul, circle.basis(a1),
                           apply2(m.lact, t.columns[a2], circle.basis(b))))
                for w, (a1, a2) in legs)))
    s_cols = []
    for a in range(dim):
        s_cols.append(accumulate(circle.space, (
            (w, apply2(m.lact, circle.basis(a1), t.columns[a2]))
            for w, (a1, a2) in circle.sweedler(a, 2))))

    dot = HopfAlgebraData(circle.space, LinearOp(circle.hh, circle.space, dot_cols),
                          circle.unit, circle.comul, circle.counit,
                          LinearOp(circle.space, circle.space, s_cols))
    report = verify_hopf(dot)
    if not report.passed:
        fail = report.first_failure()
        raise ConstructionInvalid(f"dot:{fail.name}", str(fail.witness))
    return verify_brace(dot, circle)
