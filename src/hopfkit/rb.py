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
from functools import cached_property

from .errors import (ConstructionInvalid, DimensionMismatch, HopfkitError,
                     InternalTheoremViolation, NotAutomorphism,
                     NotCoalgebraMap, RBIdentityFails)
from .hopf import (HopfAlgebraData, _multiplicative_witness, adjoint_map,
                   apply2, check_bialgebra_automorphism,
                   check_coalgebra_morphism, coalgebra_morphism_witness,
                   convolution, first_witness, require_cocommutative,
                   verify_hopf)
from .linalg import LinearOp, accumulate, invert, tensor_index
from .report import AxiomReport, Witness


@dataclass
class RotaBaxterOp:
    """A validated Rota-Baxter operator; build through verify_rb.

    ``circle`` is the table of x ∘_B y on basis pairs.  It is built once,
    on first use (verify_rb sweeps through it), and kept: the descendent
    H(B) takes it as its multiplication, so it must not be changed in
    place.  It is not a dataclass field, so equality and repr ignore it."""

    carrier: HopfAlgebraData
    map: LinearOp
    validated: bool = False

    @cached_property
    def circle(self) -> LinearOp:
        """x ∘_B y = x_(1) B(x_(2)) y S(B(x_(3))) as a map H ⊗ H -> H."""
        return _circle_mul(self.carrier, self.map)

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
    op = RotaBaxterOp(h, b)
    circ = op.circle
    w = first_witness((h.space, h.space), lambda x, y: (
        h.product(b.columns[x], b.columns[y]),
        b(circ.columns[tensor_index(x, y, h.dim)])))
    if w is not None:
        raise RBIdentityFails("Rota-Baxter identity fails", w)
    op.validated = True
    return op


def rb_tilde(b: RotaBaxterOp) -> RotaBaxterOp:
    """The companion operator B~ = S ⋆ (B∘S), i.e.
    B~(x) = S(x_(1)) B(S(x_(2)))."""
    b.require_validated()
    h = b.carrier
    s = h.antipode
    try:
        return verify_rb(h, convolution(h.comul, s, b.map.compose(s), h.mul))
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

def _circle_mul(h: HopfAlgebraData, b: LinearOp) -> LinearOp:
    """g ∘_B x = g_(1) B(g_(2)) x S(B(g_(3))).  Coassociativity splits the
    legs as Δ(y) ⊗ z over (y, z) in Δ(g): each y gives one left factor
    y_(1) B(y_(2)), and its right factors S(B(z)) are summed first."""
    dim = h.dim
    one = h.field.one
    left = [accumulate(h.space, ((c, h.product(h.basis(p // dim),
                                               b.columns[p % dim]))
                                 for p, c in col.coeffs.items()))
            for col in h.comul.columns]
    sb = [h.antipode(col) for col in b.columns]
    cols = []
    for col in h.comul.columns:
        groups: dict = {}
        for p, c in col.coeffs.items():
            y, z = divmod(p, dim)
            groups.setdefault(y, []).append((c, sb[z]))
        wings = [(left[y], accumulate(h.space, terms))
                 for y, terms in groups.items()]
        for x in range(dim):
            cols.append(accumulate(h.space, (
                (one, h.product(h.product(lft, h.basis(x)), rgt))
                for lft, rgt in wings)))
    return LinearOp(h.hh, h.space, cols)


def rb_action_map(b: RotaBaxterOp) -> LinearOp:
    """x ⇀ y = B(x_(1)) y S(B(x_(2))) as a map H ⊗ H -> H: the post-Hopf
    product of B and the left action of its matched pair.

    Built as the adjoint action after B ⊗ id, x ⊗ y -> B(x) ▷ y: a
    verified B is a coalgebra map, so B(x)_(1) ⊗ B(x)_(2) =
    B(x_(1)) ⊗ B(x_(2)) and both formulas agree."""
    h = b.carrier
    ad = adjoint_map(h)
    return LinearOp(h.hh, h.space, [apply2(ad, bx, h.basis(y))
                                    for bx in b.map.columns
                                    for y in range(h.dim)])


def descendent_antipode(h: HopfAlgebraData, b: LinearOp) -> LinearOp:
    """T = ((S∘B) ⋆ S) ⋆ B, i.e. T(g) = S(B(g_(1))) S(g_(2)) B(g_(3)) with
    the legs of (Δ⊗id)Δ, for any linear map B."""
    s = h.antipode
    return convolution(h.comul, convolution(h.comul, s.compose(b), s, h.mul),
                       b, h.mul)


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
    circle = HopfAlgebraData(h.space, b.circle, h.unit,
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
    w = _multiplicative_witness(b.map, circle, h)
    if w is not None:
        raise InternalTheoremViolation(
            f"B is not multiplicative from the descendent at "
            f"({w.at[0]},{w.at[1]})")
    return DescendentHopf(b, circle)


def _antipode_inverse_witness(h: HopfAlgebraData, b: LinearOp,
                              t: LinearOp) -> Witness | None:
    """First basis element where B ⋆ (B∘T) differs from ε·1."""
    conv = convolution(h.comul, b, b.compose(t), h.mul)
    return first_witness((h.space,), lambda x: (conv.columns[x],
                                                h.unit.scale(h._eps[x])))


def check_descendent_antipode_inverse(d: DescendentHopf) -> bool:
    """B(x_(1)) B(T(x_(2))) = ε(x) 1 on every basis element."""
    return _antipode_inverse_witness(d.source.carrier, d.source.map,
                                     d.hopf.antipode) is None


def central_image_witness(h: HopfAlgebraData, b: LinearOp) -> Witness | None:
    """First pair (h, x) with B(h) x != x B(h), for an arbitrary map."""
    h.require_validated()
    return first_witness((h.space, h.space), lambda g, x: (
        h.product(b.columns[g], h.basis(x)), h.product(h.basis(x), b.columns[g])))


def descendent_antipode_inverse_witness(h: HopfAlgebraData,
                                        b: LinearOp) -> Witness | None:
    """First basis element violating B(x_(1)) B(T(x_(2))) = ε(x) 1, with T
    the descendent antipode formula (B need not be a verified operator)."""
    h.require_validated()
    return _antipode_inverse_witness(h, b, descendent_antipode(h, b))


def check_central_image(b: RotaBaxterOp) -> bool:
    """True iff the image of B is central; in that case ∘_B must equal the
    original multiplication exactly (asserted)."""
    b.require_validated()
    h = b.carrier
    if central_image_witness(h, b.map) is not None:
        return False
    if b.circle != h.mul:
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
    report.add("antipode-bijective", None if s.compose(s).is_identity()
               else Witness(("S∘S",), "S∘S", "id"))
    report.add("antipode-multiplicative",
               _multiplicative_witness(s, d.hopf, d_tilde.hopf))
    report.add("antipode-coalgebra-morphism",
               None if check_coalgebra_morphism(s, d.hopf, d_tilde.hopf)
               else Witness(("S",), "Δ∘S", "(S⊗S)∘Δ"))
    try:
        invert(phi)
    except HopfkitError:
        report.add("conjugate-bijective",
                   Witness(("phi",), "singular", "bijective"))
    else:
        report.add("conjugate-bijective", None)
    report.add("conjugate-multiplicative",
               _multiplicative_witness(phi, d.hopf, d_conj.hopf))
    report.add("conjugate-coalgebra-morphism",
               None if check_coalgebra_morphism(phi, d.hopf, d_conj.hopf)
               else Witness(("phi",), "Δ∘phi", "(phi⊗phi)∘Δ"))
    return report
