"""Rota-Baxter operators on cocommutative Hopf algebras.

A Rota-Baxter operator is a coalgebra map B with

    B(x) B(y) = B( x_(1) B(x_(2)) y S(B(x_(3))) ).

verify_rb sweeps both sides in ints on the scaled columns of m, B and
∘_B.  On a group algebra accepted with a stored group (see
:class:`~hopfkit.hopf.HopfAlgebraData`) it decides a basis-to-basis map
by the row scan of :func:`~hopfkit.groups.rb_group_failure` and builds
no table, accepting it or raising the sweep's witness.  ∘_B and T of such
a map are read off that group; :func:`_group_map` is the one read, and a
carrier with no stored group takes the sweeps.  The one builder of ∘_B,
:func:`_circle_mul`, runs on the first read of ``circle``.
Every transform here (the reflection B~, conjugation by an automorphism,
the descendent Hopf algebra H(B)) re-verifies its advertised properties
instead of trusting the underlying theorems; a failure on validated
inputs is reported as InternalTheoremViolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (DimensionMismatch, HopfkitError, InternalTheoremViolation,
                     NotAutomorphism, NotCoalgebraMap, RBIdentityFails)
from .groups import FiniteGroup, rb_group_failure
from .hopf import (HopfAlgebraData, _leg_sum, _multiplicative_witness,
                   _rendered, _verified, adjoint_map, apply2, basis_indices,
                   check_bialgebra_automorphism, check_coalgebra_morphism,
                   coalgebra_morphism_witness, convolution, first_witness,
                   int_witness, require_cocommutative)
from .linalg import (LinearOp, int_product, invert, scaled_columns,
                     scaled_element)
from .report import AxiomReport, Witness


@dataclass
class RotaBaxterOp:
    """A validated Rota-Baxter operator; build through verify_rb.

    ``circle`` is the table of x ∘_B y on basis pairs, built once by
    :func:`_circle_mul` on first read and kept: the descendent H(B) takes
    it as its multiplication, so it must not be changed in place.  It is
    not a dataclass field, so equality and repr ignore it."""

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
    on all basis pairs.

    On a carrier k[G] with a stored group (:func:`_group_map`), a
    map sending each basis vector to a basis vector is decided by
    :func:`~hopfkit.groups.rb_group_failure`.  Such a map is a coalgebra
    map, since Δ(B(g)) = B(g)⊗B(g) = (B⊗B)Δ(g) and ε(B(g)) = 1 = ε(g), and
    x ∘_B y = x B(x) y B(x)⁻¹ (:func:`_circle_mul`), so B(x)B(y) =
    B(x ∘_B y) is the group identity.  This path builds no table.  Its
    failure is the sweep's witness: :func:`_sweep_rb` finds no coalgebra
    failure on such a map and scans (x, y) in the row scan's (a, b) order,
    so the first failing pair is rendered with the two basis vectors
    B(a)B(b) and B(a ∘_B b) as its sides.  Otherwise :func:`_sweep_rb`
    decides."""
    require_cocommutative(h)
    read = _group_map(h, b)
    if read is None:
        return _sweep_rb(h, b)
    group, table = read
    pair = rb_group_failure(group, table)
    if pair is None:
        return RotaBaxterOp(h, b, True)
    x, y = pair
    tab, bx = group.table, table[x]
    raise RBIdentityFails("Rota-Baxter identity fails", _rendered(
        (h.space, h.space), pair, h.basis(tab[bx][table[y]]),
        h.basis(table[tab[tab[tab[x][bx]][y]][group.inverse[bx]]])))


def _require_endomap(h: HopfAlgebraData, b: LinearOp) -> None:
    """Refuse a b that does not map the space of h to itself."""
    if b.domain != h.space or b.codomain != h.space:
        raise DimensionMismatch("operator must be an endomap of the carrier")


def _group_map(h: HopfAlgebraData, b: LinearOp):
    """``(G, t)`` when h was accepted as k[G], with G stored on it, and
    B(e_i) = e_{t[i]} for every i, else None, after refusing a b that is
    not an endomap of h: the one group read of a map, shared by
    :func:`verify_rb`, :func:`_circle_mul`, :func:`descendent_antipode`
    and the two ``(h, b)`` checks of :mod:`~hopfkit.brace`."""
    _require_endomap(h, b)
    group = h._group
    table = None if group is None else basis_indices(b.columns)
    return None if table is None else (group, table)


def _sweep_rb(h: HopfAlgebraData, b: LinearOp) -> RotaBaxterOp:
    """The coalgebra-map check and the Rota-Baxter identity of
    :func:`verify_rb` swept on all basis pairs of the cocommutative h."""
    w = coalgebra_morphism_witness(b, h, h)
    if w is not None:
        raise NotCoalgebraMap("operator is not a coalgebra map", w)
    dim = h.dim
    op = RotaBaxterOp(h, b)
    dk, circ = scaled_columns(op.circle)
    dm, mul = scaled_columns(h.mul)
    db, bcols = scaled_columns(b)
    # B(x)B(y) carries db²·dm and B(x∘y) carries db·dk
    w = int_witness((h.space, h.space), h.space, (db * db * dm, db * dk), lambda x: (
        [int_product(mul, dim, bcols[x], col) for col in bcols],
        [int_product(bcols, 1, col, ((0, 1),)) for col in circ[x * dim:(x + 1) * dim]]))
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
    """g ∘_B x = g_(1) B(g_(2)) x S(B(g_(3))) as a map H ⊗ H -> H, for any
    linear map B: the one builder of ∘_B.  On a carrier k[G] with a
    stored group (:func:`_group_map`), with B sending basis
    vectors to basis vectors, Δ(g) = g⊗g and S(B(g)) = B(g)⁻¹, so the
    table is read off the group's as ((g B(g)) x) B(g)⁻¹, bracketed as the
    sum below.  Otherwise it is summed in ints on :func:`scaled_columns` by
    two passes of :func:`~hopfkit.hopf._leg_sum`: coassociativity splits
    the legs as Δ(y) ⊗ z over (y, z) in Δ(g), so the first pass builds
    y_(1) B(y_(2)) over the column of Δ(y), and the second sums
    ((y_(1) B(y_(2))) x) S(B(z)) over the column of Δ(g), which groups the
    terms by y; :func:`scaled_element` makes each column."""
    dim, p = h.dim, h.field.p
    read = _group_map(h, b)
    if read is not None:
        group, table = read
        tab, inv = group.table, group.inverse
        return LinearOp(h.hh, h.space, [
            h.basis(tab[tab[tab[g][bg]][x]][inv[bg]])
            for g, bg in enumerate(table) for x in range(dim)])
    dm, mul = scaled_columns(h.mul)
    db, bcols = scaled_columns(b)
    dc, comul = scaled_columns(h.comul)
    ds, anti = scaled_columns(h.antipode)
    # lefts[x][y] = (y_(1) B(y_(2))) e_x carries dc·db·dm² and S(B(z))
    # db·ds, so every column (dc·db·dm²)·(db·ds)·dc·dm.
    basis = [((i, 1),) for i in range(dim)]
    yb = [tuple(_leg_sum(mul, dim, col, dim, basis, bcols).items())
          for col in comul]
    lefts = [[tuple(int_product(mul, dim, y, ((x, 1),)).items()) for y in yb]
             for x in range(dim)]
    sb = [tuple(int_product(anti, 1, col, ((0, 1),)).items()) for col in bcols]
    den = 1 if p else (dc * db * dm) ** 2 * ds * dm
    return LinearOp(h.hh, h.space, [
        scaled_element(h.space, _leg_sum(mul, dim, col, dim, left, sb).items(),
                       den) for col in comul for left in lefts])


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
    the legs of (Δ⊗id)Δ, for any linear map B.

    On k[G] with a stored group (:func:`_group_map`), with B
    sending basis vectors to basis vectors, Δ²(g) = g⊗g⊗g and S(B(g)) =
    B(g)⁻¹, so T(g) = (B(g)⁻¹g⁻¹)B(g) is read off the group's table,
    bracketed as the convolutions: for a Rota-Baxter B the inverse of g in
    (G, ∘_B), which the descendent's ``verify_hopf`` checks.  A b that is
    not an endomap of h is refused by :func:`_group_map`."""
    read = _group_map(h, b)
    if read is not None:
        return LinearOp(h.space, h.space,
                        [h.basis(t) for t in _antipode_indices(*read)])
    s = h.antipode
    return convolution(h.comul, convolution(h.comul, s.compose(b), s, h.mul),
                       b, h.mul)


def _antipode_indices(group: FiniteGroup, table) -> list[int]:
    """T(g) = (B(g)⁻¹g⁻¹)B(g) on the Cayley table of ``group``, one index
    per g, for the basis map B(e_g) = e_{table[g]}."""
    tab, inv = group.table, group.inverse
    return [tab[tab[inv[bg]][inv[g]]][bg] for g, bg in enumerate(table)]


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
    circle = _verified(HopfAlgebraData(h.space, b.circle, h.unit, h.comul,
                                       h.counit, descendent_antipode(h, b.map)),
                       "descendent")
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
    """First pair (h, x) with B(h) x != x B(h), for an arbitrary endomap."""
    h.require_validated()
    _require_endomap(h, b)
    return first_witness((h.space, h.space), lambda g, x: (
        h.product(b.columns[g], h.basis(x)), h.product(h.basis(x), b.columns[g])))


def descendent_antipode_inverse_witness(h: HopfAlgebraData,
                                        b: LinearOp) -> Witness | None:
    """First basis element violating B(x_(1)) B(T(x_(2))) = ε(x) 1, with T
    the descendent antipode formula (B need not be a verified operator,
    but :func:`descendent_antipode` refuses one that is no endomap)."""
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
    return _descendent_isos(b, phi)[1]


def _descendent_isos(b: RotaBaxterOp, phi: LinearOp):
    """The descendents H(B), H(B~) and H(B^phi), built once each in that
    order, and :func:`check_descendent_isos` on them."""
    b.require_validated()
    h = b.carrier
    ds = d, d_tilde, d_conj = (descend(b), descend(rb_tilde(b)),
                               descend(rb_conjugate(b, phi)))
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
    return ds, report
