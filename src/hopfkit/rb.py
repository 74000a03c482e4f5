"""Rota-Baxter operators on cocommutative Hopf algebras.

A Rota-Baxter operator is a coalgebra map B with

    B(x) B(y) = B( x_(1) B(x_(2)) y S(B(x_(3))) ).

Every transform here (the reflection B~, conjugation by an automorphism,
the descendent Hopf algebra H(B)) re-verifies its advertised properties
instead of trusting the underlying theorems; a failure on validated
inputs is reported as InternalTheoremViolation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (ConstructionInvalid, DimensionMismatch, HopfkitError,
                     InternalTheoremViolation, NotAutomorphism,
                     NotCoalgebraMap, RBIdentityFails)
from .hopf import (HopfAlgebraData, check_bialgebra_automorphism,
                   check_coalgebra_morphism, coalgebra_morphism_witness,
                   require_cocommutative, verify_hopf)
from .linalg import Element, LinearOp, accumulate, invert, tensor_index
from .report import AxiomReport, Witness


@dataclass
class RotaBaxterOp:
    """A validated Rota-Baxter operator; build through verify_rb."""

    carrier: HopfAlgebraData
    map: LinearOp
    validated: bool = False

    def require_validated(self):
        if not self.validated:
            from .errors import UnvalidatedInput
            raise UnvalidatedInput("Rota-Baxter operator was never verified")


def verify_rb(h: HopfAlgebraData, b: LinearOp) -> RotaBaxterOp:
    """Check the coalgebra-morphism property and the Rota-Baxter identity
    on all basis pairs."""
    require_cocommutative(h)
    if b.domain != h.space or b.codomain != h.space:
        raise DimensionMismatch("operator must be an endomap of the carrier")
    w = coalgebra_morphism_witness(b, h, h)
    if w is not None:
        raise NotCoalgebraMap("operator is not a coalgebra map", w)
    circ = _circle_mul(h, b)     # x ∘_B y = x_(1) B(x_(2)) y S(B(x_(3)))
    for x in range(h.dim):
        bx = b.columns[x]
        for y in range(h.dim):
            lhs = h.product(bx, b.columns[y])
            rhs = b(circ.columns[tensor_index(x, y, h.dim)])
            if lhs != rhs:
                raise RBIdentityFails(
                    "Rota-Baxter identity fails",
                    Witness((h.label(x), h.label(y)), str(lhs), str(rhs)))
    return RotaBaxterOp(h, b, True)


def rb_tilde(b: RotaBaxterOp) -> RotaBaxterOp:
    """The companion operator B~(x) = S(x_(1)) B(S(x_(2)))."""
    b.require_validated()
    h = b.carrier
    cols = []
    for x in range(h.dim):
        cols.append(accumulate(h.space, (
            (c, h.product(h.antipode.columns[x1],
                          b.map(h.antipode.columns[x2])))
            for c, (x1, x2) in h.sweedler(x, 2))))
    try:
        return verify_rb(h, LinearOp(h.space, h.space, cols))
    except HopfkitError as exc:
        raise InternalTheoremViolation(
            f"companion operator failed verification: {exc}") from exc


def rb_conjugate(b: RotaBaxterOp, phi: LinearOp) -> RotaBaxterOp:
    """Conjugated operator phi ∘ B ∘ phi^{-1} for a bialgebra automorphism."""
    b.require_validated()
    h = b.carrier
    if not check_bialgebra_automorphism(phi, h):
        raise NotAutomorphism("conjugating map is not a bialgebra automorphism")
    conj = phi.compose(b.map).compose(invert(phi))
    return verify_rb(h, conj)


def check_tilde_conjugate_commute(b: RotaBaxterOp, phi: LinearOp) -> bool:
    """Whether conjugation and the companion transform commute on b."""
    return rb_conjugate(rb_tilde(b), phi).map == rb_tilde(rb_conjugate(b, phi)).map


# -- the descendent Hopf algebra -------------------------------------------------

def circle_product_element(h: HopfAlgebraData, b: LinearOp,
                           x: Element, y: Element) -> Element:
    """g ∘_B h = g_(1) B(g_(2)) h S(B(g_(3))) extended bilinearly."""
    terms = []
    for i, ci in x.coeffs.items():
        for c, (g1, g2, g3) in h.sweedler(i, 3):
            terms.append((h.field.mul(ci, c),
                          h.product_many([h.basis(g1), b.columns[g2], y,
                                          h.antipode(b.columns[g3])])))
    return accumulate(h.space, terms)


def _circle_mul(h: HopfAlgebraData, b: LinearOp) -> LinearOp:
    """g ∘_B x = g_(1) B(g_(2)) x S(B(g_(3))).  Coassociativity splits the
    legs as Δ(y) ⊗ z over (y, z) in Δ(g): each y gives one left factor
    y_(1) B(y_(2)), and its right factors S(B(z)) are summed first."""
    dim = h.dim
    one = h.field.one
    left = [accumulate(h.space, ((c, h.product(h.basis(y1), b.columns[y2]))
                                 for c, (y1, y2) in h.sweedler(y, 2)))
            for y in range(dim)]
    sb = [h.antipode(col) for col in b.columns]
    cols = []
    for g in range(dim):
        groups: dict = {}
        for c, (y, z) in h.sweedler(g, 2):
            groups.setdefault(y, []).append((c, sb[z]))
        wings = [(left[y], accumulate(h.space, terms))
                 for y, terms in groups.items()]
        for x in range(dim):
            cols.append(accumulate(h.space, (
                (one, h.product(h.product(lft, h.basis(x)), rgt))
                for lft, rgt in wings)))
    return LinearOp(h.hh, h.space, cols)


def descendent_antipode(h: HopfAlgebraData, b: LinearOp) -> LinearOp:
    """T(g) = S(B(g_(1))) S(g_(2)) B(g_(3))."""
    cols = []
    for g in range(h.dim):
        cols.append(accumulate(h.space, (
            (c, h.product_many([h.antipode(b.columns[g1]),
                                h.antipode.columns[g2], b.columns[g3]]))
            for c, (g1, g2, g3) in h.sweedler(g, 3))))
    return LinearOp(h.space, h.space, cols)


@dataclass
class DescendentHopf:
    """The carrier with multiplication ∘_B and antipode T on the same
    coalgebra, together with its source operator."""

    source: RotaBaxterOp
    hopf: HopfAlgebraData


def descend(b: RotaBaxterOp) -> DescendentHopf:
    """Build H(B) = (H, ∘_B, Δ, T) and re-verify everything it promises:
    the Hopf axioms, that B stays Rota-Baxter on H(B), and that B is an
    algebra-and-coalgebra morphism H(B) -> H."""
    b.require_validated()
    h = b.carrier
    circle = HopfAlgebraData(h.space, _circle_mul(h, b.map), h.unit,
                             h.comul, h.counit, descendent_antipode(h, b.map))
    report = verify_hopf(circle)
    if not report.passed:
        fail = report.first_failure()
        raise ConstructionInvalid(f"descendent:{fail.name}", str(fail.witness))
    try:
        verify_rb(circle, b.map)
    except HopfkitError as exc:
        raise InternalTheoremViolation(
            f"B is not Rota-Baxter on the descendent: {exc}") from exc
    if b.map(h.unit) != h.unit:
        raise InternalTheoremViolation("B does not fix the unit")
    for g in range(h.dim):
        for x in range(h.dim):
            lhs = b.map(circle.mul_basis(g, x))
            rhs = h.product(b.map.columns[g], b.map.columns[x])
            if lhs != rhs:
                raise InternalTheoremViolation(
                    f"B is not multiplicative from the descendent at "
                    f"({h.label(g)},{h.label(x)})")
    return DescendentHopf(b, circle)


def check_descendent_antipode_inverse(d: DescendentHopf) -> bool:
    """B(x_(1)) B(T(x_(2))) = ε(x) 1 on every basis element."""
    h = d.source.carrier
    b = d.source.map
    t = d.hopf.antipode
    for x in range(h.dim):
        lhs = accumulate(h.space, (
            (c, h.product(b.columns[x1], b(t.columns[x2])))
            for c, (x1, x2) in h.sweedler(x, 2)))
        if lhs != h.unit.scale(h._eps[x]):
            return False
    return True


def central_image_witness(h: HopfAlgebraData, b: LinearOp) -> Witness | None:
    """First pair (h, x) with B(h) x != x B(h), for an arbitrary map."""
    h.require_validated()
    for g in range(h.dim):
        bg = b.columns[g]
        for x in range(h.dim):
            lhs = h.product(bg, h.basis(x))
            rhs = h.product(h.basis(x), bg)
            if lhs != rhs:
                return Witness((h.label(g), h.label(x)), str(lhs), str(rhs))
    return None


def descendent_antipode_inverse_witness(h: HopfAlgebraData,
                                        b: LinearOp) -> Witness | None:
    """First basis element violating B(x_(1)) B(T(x_(2))) = ε(x) 1, with T
    the descendent antipode formula (B need not be a verified operator)."""
    h.require_validated()
    t = descendent_antipode(h, b)
    for x in range(h.dim):
        lhs = accumulate(h.space, (
            (c, h.product(b.columns[x1], b(t.columns[x2])))
            for c, (x1, x2) in h.sweedler(x, 2)))
        want = h.unit.scale(h._eps[x])
        if lhs != want:
            return Witness((h.label(x),), str(lhs), str(want))
    return None


def check_central_image(b: RotaBaxterOp) -> bool:
    """True iff the image of B is central; in that case ∘_B must equal the
    original multiplication exactly (asserted)."""
    b.require_validated()
    h = b.carrier
    if central_image_witness(h, b.map) is not None:
        return False
    if _circle_mul(h, b.map) != h.mul:
        raise InternalTheoremViolation(
            "central image but the circle product differs from the original")
    return True


def check_descendent_isos(b: RotaBaxterOp, phi: LinearOp) -> AxiomReport:
    """The antipode S: H(B) -> H(B~) and the automorphism phi:
    H(B) -> H(B^phi) are bijective bialgebra morphisms (both
    multiplicativity sweeps run over all basis pairs)."""
    b.require_validated()
    h = b.carrier
    d = descend(b)
    d_tilde = descend(rb_tilde(b))
    d_conj = descend(rb_conjugate(b, phi))
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
    if not check_coalgebra_morphism(s, d.hopf, d_tilde.hopf):
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
    if not check_coalgebra_morphism(phi, d.hopf, d_conj.hopf):
        w = Witness(("phi",), "Δ∘phi", "(phi⊗phi)∘Δ")
    report.add("conjugate-coalgebra-morphism", w)
    return report
