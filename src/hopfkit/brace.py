"""Hopf braces: verification, construction from Rota-Baxter operators,
the derived action, the embedding into a Rota-Baxter Hopf algebra on
G ⊗ G, and the symmetry condition suite.

A Hopf brace is two Hopf structures (dot and circle) on one shared
coalgebra satisfying a ∘ (bc) = (a_(1) ∘ b) S(a_(2)) (a_(3) ∘ c).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (CompatibilityFails, ConstructionInvalid,
                     DimensionMismatch, HopfAxiomFails, HopfkitError,
                     HypothesisFails, InternalTheoremViolation,
                     NotExactFactorization, SingularMap)
from .hopf import (HopfAlgebraData, ModuleAction, _multiplicative_witness,
                   adjoint_map, apply2, check_cocommutative,
                   check_module_bialgebra, convolution, convolution_inverse,
                   first_witness, leg_table, opposite_hopf,
                   require_cocommutative, sub_hopf_indices, tensor_coalgebra,
                   twisted_product, verify_hopf)
from .linalg import (BasedSpace, Element, LinearOp, accumulate, invert,
                     rank, tensor_elem, tensor_index, tensor_space,
                     tensor_split)
from .rb import (RotaBaxterOp, check_descendent_isos, descend,
                 descendent_antipode, rb_conjugate, rb_tilde, verify_rb)
from .report import Witness


@dataclass
class HopfBrace:
    """Two validated Hopf structures on one coalgebra; S and T denote the
    dot and circle antipodes."""

    dot: HopfAlgebraData
    circle: HopfAlgebraData
    validated: bool = False

    @property
    def space(self):
        return self.dot.space

    def require_validated(self):
        if not self.validated:
            from .errors import UnvalidatedInput
            raise UnvalidatedInput("brace was never verified")


def verify_brace(dot: HopfAlgebraData, circle: HopfAlgebraData) -> HopfBrace:
    """Verify both Hopf structures on the shared coalgebra and sweep the
    compatibility identity over all basis triples."""
    if dot.space != circle.space:
        raise DimensionMismatch("brace structures must share one space")
    if dot.comul != circle.comul or dot.counit != circle.counit:
        raise DimensionMismatch("brace structures must share the coalgebra")
    if dot.unit != circle.unit:
        raise ConstructionInvalid(
            "units", "the two units differ; every construction in scope "
                     "forces a shared unit")
    for name, struct in (("dot", dot), ("circle", circle)):
        report = verify_hopf(struct)
        if not report.passed:
            fail = report.first_failure()
            raise HopfAxiomFails(fail.name, fail.witness, structure=name)

    # rhs = Σ (a_(1) ∘ b) S(a_(2)) (a_(3) ∘ c).  Coassociativity of the
    # verified coproduct splits the legs as Δ(x) ⊗ y over (x, y) in Δ(a),
    # so rhs = Σ_x left[x][b] (Σ_y w (y ∘ c)) with one product per x.
    dim = dot.dim
    s = dot.antipode
    left = [[accumulate(dot.space, (
                (w, dot.product(circle.mul_basis(p // dim, b),
                                s.columns[p % dim]))
                for p, w in col.coeffs.items()))
             for b in range(dim)] for col in dot.comul.columns]
    one = dot.field.one
    for a in range(dim):
        legs: dict = {}
        for p, w in dot.comul.columns[a].coeffs.items():
            x, y = divmod(p, dim)
            legs.setdefault(x, []).append((w, y))
        right = [[(x, accumulate(dot.space, ((w, circle.mul_basis(y, c))
                                             for w, y in terms)))
                  for x, terms in legs.items()] for c in range(dim)]
        for b in range(dim):
            for c in range(dim):
                lhs = apply2(circle.mul, dot.basis(a), dot.mul_basis(b, c))
                rhs = accumulate(dot.space, (
                    (one, dot.product(left[x][b], r)) for x, r in right[c]))
                if lhs != rhs:
                    raise CompatibilityFails(
                        "brace compatibility fails",
                        Witness((dot.label(a), dot.label(b), dot.label(c)),
                                str(lhs), str(rhs)))
    return HopfBrace(dot, circle, True)


def brace_from_rb(b: RotaBaxterOp, phi: LinearOp | None = None) -> HopfBrace:
    """The brace (H, ·, ∘_B).  When an automorphism is supplied, the
    braces of the companion and conjugated operators are built as well and
    the descendent isomorphisms are re-checked."""
    d = descend(b)
    brace = verify_brace(b.carrier, d.hopf)
    if phi is not None:
        verify_brace(b.carrier, descend(rb_tilde(b)).hopf)
        verify_brace(b.carrier, descend(rb_conjugate(b, phi)).hopf)
        report = check_descendent_isos(b, phi)
        if not report.passed:
            raise InternalTheoremViolation(
                f"descendent isomorphisms failed: {report.first_failure()}")
    return brace


def trivial_brace(h: HopfAlgebraData) -> HopfBrace:
    """Both structures equal: compatibility collapses to associativity."""
    return verify_brace(h, HopfAlgebraData(h.space, h.mul, h.unit, h.comul,
                                           h.counit, h.antipode))


def flip_brace(h: HopfAlgebraData) -> HopfBrace:
    """Circle = opposite multiplication; every cocommutative Hopf algebra
    carries this brace."""
    require_cocommutative(h)
    return verify_brace(h, opposite_hopf(h))


# -- derived action ---------------------------------------------------------------

def derived_action_map(br: HopfBrace) -> LinearOp:
    """a ⇀ b = S(a_(1)) (a_(2) ∘ b) as a map H ⊗ H -> H."""
    dot = br.dot
    return twisted_product(dot.comul, dot.mul, br.circle.mul, f=dot.antipode)


@dataclass
class BraceAction:
    """The derived action of the circle structure on the dot structure."""

    brace: HopfBrace
    act: LinearOp

    def of(self, a: Element, b: Element) -> Element:
        return apply2(self.act, a, b)

    def basis(self, a: int, b: int) -> Element:
        return self.act.columns[tensor_index(a, b, self.brace.dot.dim)]


def derived_action(br: HopfBrace) -> BraceAction:
    """Build ⇀, check the module-bialgebra axioms for the circle structure
    acting on the dot structure, and both reconstruction identities
    a∘b = a_(1)(a_(2)⇀b) and ab = a_(1)∘(T(a_(2))⇀b)."""
    br.require_validated()
    dot, circle = br.dot, br.circle
    act = derived_action_map(br)
    report = check_module_bialgebra(ModuleAction(circle, dot, act))
    if not report.passed:
        raise InternalTheoremViolation(
            f"derived action is not a module bialgebra: {report.first_failure()}")
    dim = dot.dim
    pairs = (dot.space, dot.space)
    rebuilt = twisted_product(dot.comul, dot.mul, act)
    w = first_witness(pairs, lambda a, b: (rebuilt.columns[a * dim + b],
                                           circle.mul_basis(a, b)))
    if w is not None:
        raise InternalTheoremViolation(
            f"reconstruction a∘b = a1(a2⇀b) fails at ({w.at[0]},{w.at[1]})")
    rebuilt = twisted_product(dot.comul, circle.mul, act, g=circle.antipode)
    w = first_witness(pairs, lambda a, b: (rebuilt.columns[a * dim + b],
                                           dot.mul_basis(a, b)))
    if w is not None:
        raise InternalTheoremViolation(
            f"reconstruction ab = a1∘(T(a2)⇀b) fails at ({w.at[0]},{w.at[1]})")
    return BraceAction(br, act)


# -- embedding into a Rota-Baxter Hopf algebra -----------------------------------

@dataclass
class RbEmbedding:
    """G ⊗ G with the twisted product, its splitting Rota-Baxter operator
    and the embedding psi(g) = 1 ⊗ g."""

    ambient: HopfAlgebraData
    rb: RotaBaxterOp
    psi: LinearOp


def embed_into_rb(br: HopfBrace) -> RbEmbedding:
    """Embed a cocommutative brace into a Rota-Baxter Hopf algebra on
    G' = G ⊗ G with

        (x⊗y) * (z⊗t) = x_(1)∘z ⊗ y (x_(2) ⇀ t)
        S'(x⊗y)       = T(x_(1)) ⊗ T(x_(2)) ∘ (x_(3) S(y))
        B'(x⊗y)       = T(x)∘y ⊗ 1

    All three stages (Hopf axioms of G', the Rota-Baxter identity of B',
    the brace embedding identities of psi) are verified.  psi is checked
    against ∘_B' through the table that verify_rb built, ``rb.circle``.
    """
    br.require_validated()
    dot, circle = br.dot, br.circle
    if not check_cocommutative(dot):
        raise ConstructionInvalid("hopf", "brace carrier must be cocommutative")
    act = derived_action_map(br)
    dim = dot.dim
    g2 = tensor_space(dot.space, dot.space)
    t = circle.antipode
    s = dot.antipode

    mul_cols = []
    for p in range(g2.dim):
        x, y = tensor_split(p, dim)
        legs = dot.comul.columns[x].coeffs.items()
        for q in range(g2.dim):
            z, tt = tensor_split(q, dim)
            mul_cols.append(accumulate(g2, (
                (w, tensor_elem(g2, circle.mul_basis(r // dim, z),
                                dot.product(dot.basis(y),
                                            act.columns[r % dim * dim + tt])))
                for r, w in legs)))

    legs3 = leg_table(dot, 3)
    anti_cols = []
    for p in range(g2.dim):
        x, y = tensor_split(p, dim)
        sy = s.columns[y]
        anti_cols.append(accumulate(g2, (
            (w, tensor_elem(g2, t.columns[x1],
                            apply2(circle.mul, t.columns[x2],
                                   dot.product(dot.basis(x3), sy))))
            for w, (x1, x2, x3) in legs3[x])))

    comul, counit = tensor_coalgebra(dot, dot)
    ambient = HopfAlgebraData(g2, LinearOp(comul.codomain, g2, mul_cols),
                              tensor_elem(g2, dot.unit, dot.unit),
                              comul, counit, LinearOp(g2, g2, anti_cols))
    report = verify_hopf(ambient)
    if not report.passed:
        fail = report.first_failure()
        raise ConstructionInvalid("hopf", f"{fail.name}: {fail.witness}")
    if not check_cocommutative(ambient):
        raise ConstructionInvalid("hopf", "ambient is not cocommutative")

    b_cols = []
    for p in range(g2.dim):
        x, y = tensor_split(p, dim)
        b_cols.append(tensor_elem(g2, apply2(circle.mul, t.columns[x],
                                             dot.basis(y)), dot.unit))
    b_map = LinearOp(g2, g2, b_cols)
    try:
        rbop = verify_rb(ambient, b_map)
    except HopfkitError as exc:
        raise ConstructionInvalid("rb", str(exc)) from exc

    psi = LinearOp(dot.space, g2,
                   [tensor_elem(g2, dot.unit, dot.basis(g)) for g in range(dim)])
    if rank(psi) != dim:
        raise ConstructionInvalid("embedding", "psi is not injective")
    if psi(dot.unit) != ambient.unit:
        raise ConstructionInvalid("embedding", "psi does not preserve the unit")
    w = _multiplicative_witness(psi, dot, ambient)
    if w is not None:
        raise ConstructionInvalid(
            "embedding", f"psi not multiplicative for the dot product "
            f"at ({w.at[0]},{w.at[1]})")
    w = first_witness((dot.space, dot.space), lambda g, x: (
        psi(circle.mul_basis(g, x)),
        apply2(rbop.circle, psi.columns[g], psi.columns[x])))
    if w is not None:
        raise ConstructionInvalid(
            "embedding", f"psi not multiplicative for the circle "
            f"product at ({w.at[0]},{w.at[1]})")
    return RbEmbedding(ambient, rbop, psi)


# -- symmetry suite ----------------------------------------------------------------

def op_module_witness(br: HopfBrace) -> Witness | None:
    """First failing triple of (b a) ⇀ c = a ⇀ (b ⇀ c), if any."""
    br.require_validated()
    dot = br.dot
    act = derived_action_map(br)
    dim = dot.dim
    return first_witness((dot.space, dot.space, dot.space), lambda a, b, c: (
        apply2(act, dot.mul_basis(b, a), dot.basis(c)),
        apply2(act, dot.basis(a), act.columns[tensor_index(b, c, dim)])))


def check_op_module(br: HopfBrace) -> bool:
    """Left module law for the opposite algebra: (b a) ⇀ c = a ⇀ (b ⇀ c)."""
    return op_module_witness(br) is None


def symmetric_witness(br: HopfBrace) -> Witness | None:
    """Witness against the swapped pair (circle, dot) being a brace."""
    br.require_validated()
    try:
        verify_brace(br.circle, br.dot)
        return None
    except (CompatibilityFails, HopfAxiomFails) as exc:
        return exc.witness or Witness(("-",), str(exc), "")
    except ConstructionInvalid as exc:
        return Witness(("-",), str(exc), "")


def check_symmetric(br: HopfBrace) -> bool:
    """Whether the swapped pair (circle, dot) is again a Hopf brace."""
    return symmetric_witness(br) is None


def symmetric_sufficient_witness(br: HopfBrace) -> Witness | None:
    br.require_validated()
    dot, circle = br.dot, br.circle
    act = derived_action_map(br)
    dim = dot.dim
    t = circle.antipode
    legs3 = leg_table(dot, 3)

    def sides(a, b, c):
        legs_b = [(w, divmod(p, dim))
                  for p, w in dot.comul.columns[b].coeffs.items()]
        lhs = accumulate(dot.space, (
            (w, dot.product_many([dot.basis(a), dot.basis(b1),
                                  act.columns[tensor_index(b2, c, dim)]]))
            for w, (b1, b2) in legs_b))
        terms = []
        for wa, (a1, a2, a3) in legs3[a]:
            inner = apply2(act, t.columns[a3], dot.basis(c))
            for wb, (b1, b2) in legs_b:
                outer = apply2(act, dot.mul_basis(a2, b2), inner)
                terms.append((dot.field.mul(wa, wb),
                              dot.product_many([dot.basis(a1),
                                                dot.basis(b1), outer])))
        return lhs, accumulate(dot.space, terms)
    return first_witness((dot.space, dot.space, dot.space), sides)


def check_symmetric_sufficient(br: HopfBrace) -> bool:
    """Sufficient condition for symmetry via the derived action:

        a b_(1) (b_(2) ⇀ c) = a_(1) b_(1) ((a_(2) b_(2)) ⇀ (T(a_(3)) ⇀ c)).
    """
    return symmetric_sufficient_witness(br) is None


def rb_symmetric_sufficient_witness(h: HopfAlgebraData,
                                    b: LinearOp) -> Witness | None:
    h.require_validated()
    t = descendent_antipode(h, b)
    ad = adjoint_map(h)
    dim = h.dim
    one = h.field.one
    bm = [b(col) for col in h.mul.columns]
    bt = [b(col) for col in t.columns]
    actors: dict = {}      # (a2 b2, a3) -> B(a2 b2) B(T(a3))
    for a, legs_a in enumerate(leg_table(h, 3)):
        for bb in range(dim):
            legs_b = [(w, divmod(p, dim))
                      for p, w in h.comul.columns[bb].coeffs.items()]
            # ▷ is linear in the actor: sum the actors of each outer
            # factor a b_(1) (lhs) and a_(1) b_(1) (rhs) before acting
            lhs_terms: dict = {}
            for w, (b1, b2) in legs_b:
                lhs_terms.setdefault((a, b1), []).append((w, b.columns[b2]))
            rhs_terms: dict = {}
            for wa, (a1, a2, a3) in legs_a:
                for wb, (b1, b2) in legs_b:
                    key = (a2 * dim + b2, a3)
                    actor = actors.get(key)
                    if actor is None:
                        actor = actors[key] = h.product(bm[key[0]], bt[a3])
                    rhs_terms.setdefault((a1, b1), []).append((wa * wb, actor))
            lhs_actors = [(h.mul_basis(x, y), accumulate(h.space, terms))
                          for (x, y), terms in lhs_terms.items()]
            rhs_actors = [(h.mul_basis(x, y), accumulate(h.space, terms))
                          for (x, y), terms in rhs_terms.items()]
            for c in range(dim):
                e_c = h.basis(c)
                lhs = accumulate(h.space, (
                    (one, h.product(outer, apply2(ad, u, e_c)))
                    for outer, u in lhs_actors))
                rhs = accumulate(h.space, (
                    (one, h.product(outer, apply2(ad, u, e_c)))
                    for outer, u in rhs_actors))
                if lhs != rhs:
                    return Witness((h.label(a), h.label(bb), h.label(c)),
                                   str(lhs), str(rhs))
    return None


def check_rb_symmetric_sufficient(h: HopfAlgebraData, b: LinearOp) -> bool:
    """Adjoint-action form of the symmetry condition for a map B:

        a b_(1) (B(b_(2)) ▷ c) = a_(1) b_(1) ((B(a_(2) b_(2)) B(T(a_(3)))) ▷ c)

    with T the descendent antipode built from B (B need not be verified).
    """
    return rb_symmetric_sufficient_witness(h, b) is None


def rb_op_module_witness(h: HopfAlgebraData, b: LinearOp) -> Witness | None:
    h.require_validated()
    ad = adjoint_map(h)
    dim = h.dim
    # B(b a) and B(a) B(b), once per pair (a, b)
    left = [b(h.mul_basis(bb, a)) for a in range(dim) for bb in range(dim)]
    right = [h.product(b.columns[a], b.columns[bb])
             for a in range(dim) for bb in range(dim)]
    return first_witness((h.space, h.space, h.space), lambda a, bb, c: (
        apply2(ad, left[a * dim + bb], h.basis(c)),
        apply2(ad, right[a * dim + bb], h.basis(c))))


def check_rb_op_module(h: HopfAlgebraData, b: LinearOp) -> bool:
    """B(b a) ▷ c = (B(a) B(b)) ▷ c for all basis triples (a, b, c)."""
    return rb_op_module_witness(h, b) is None


# -- constructions -----------------------------------------------------------------

def brace_from_op_action(h: HopfAlgebraData, act: LinearOp) -> HopfBrace:
    """Brace with a ∘ b = a_(1) (a_(2) ⇀ b) from an action of the opposite
    algebra satisfying a_(1) (a_(2) ⇀ b) ⇀ c = (b a) ⇀ c; the antipode is
    T(a) = S(a_(1)) ⇀ S(a_(2))."""
    require_cocommutative(h)
    # a ∘ b = a_(1) (a_(2) ⇀ b), also the left actor of the hypothesis
    circle_mul = twisted_product(h.comul, h.mul, act)
    w = first_witness((h.space, h.space, h.space), lambda a, b, c: (
        apply2(act, circle_mul.columns[a * h.dim + b], h.basis(c)),
        apply2(act, h.mul_basis(b, a), h.basis(c))))
    if w is not None:
        raise HypothesisFails("a1(a2⇀b)⇀c = (ba)⇀c", w)

    report = check_module_bialgebra(ModuleAction(opposite_hopf(h), h, act))
    if not report.passed:
        fail = report.first_failure()
        raise ConstructionInvalid("module-bialgebra",
                                  f"{fail.name}: {fail.witness}")

    s = h.antipode
    circle = HopfAlgebraData(h.space, circle_mul, h.unit, h.comul, h.counit,
                             convolution(h.comul, s, s, act))
    report = verify_hopf(circle)
    if not report.passed:
        fail = report.first_failure()
        raise ConstructionInvalid(f"circle:{fail.name}", str(fail.witness))
    brace = verify_brace(h, circle)
    if not check_op_module(brace) or not check_symmetric(brace):
        raise InternalTheoremViolation(
            "action brace is not an op-module (or not symmetric)")
    return brace


def brace_from_exact_factorization(h: HopfAlgebraData, a_labels,
                                   b_labels) -> HopfBrace:
    """Brace with (a b) ∘ (a' b') = a a' b' b from an exact factorization
    H = A·B (the multiplication map A ⊗ B -> H must be bijective)."""
    require_cocommutative(h)
    a_idx = sub_hopf_indices(h, a_labels)
    b_idx = sub_hopf_indices(h, b_labels)
    if len(a_idx) * len(b_idx) != h.dim:
        raise NotExactFactorization(
            f"|A|·|B| = {len(a_idx) * len(b_idx)} != dim H = {h.dim}")
    a_space = BasedSpace(tuple(h.label(i) for i in a_idx), h.field)
    b_space = BasedSpace(tuple(h.label(i) for i in b_idx), h.field)
    ab = tensor_space(a_space, b_space)
    phi = LinearOp(ab, h.space,
                   [h.mul_basis(i, j) for i in a_idx for j in b_idx])
    try:
        factor = invert(phi)
    except SingularMap as exc:
        raise NotExactFactorization(
            "multiplication map A⊗B -> H is not bijective") from exc

    nb = len(b_idx)

    def circle_col(x: int, y: int) -> Element:
        terms = []
        for p, cp in factor.columns[x].coeffs.items():
            ia, ib = tensor_split(p, nb)
            for q, cq in factor.columns[y].coeffs.items():
                ja, jb = tensor_split(q, nb)
                terms.append((h.field.mul(cp, cq),
                              h.product_many([h.basis(a_idx[ia]),
                                              h.basis(a_idx[ja]),
                                              h.basis(b_idx[jb]),
                                              h.basis(b_idx[ib])])))
        return accumulate(h.space, terms)

    circle_mul = LinearOp(h.hh, h.space,
                          [circle_col(x, y) for x in range(h.dim)
                           for y in range(h.dim)])
    try:
        t = convolution_inverse(h, LinearOp.identity(h.space),
                                circle_mul, h.unit)
    except HopfkitError as exc:
        raise ConstructionInvalid("antipode", str(exc)) from exc
    circle = HopfAlgebraData(h.space, circle_mul, h.unit, h.comul, h.counit, t)
    report = verify_hopf(circle)
    if not report.passed:
        fail = report.first_failure()
        raise ConstructionInvalid(f"circle:{fail.name}", str(fail.witness))
    brace = verify_brace(h, circle)
    if not check_op_module(brace) or not check_symmetric(brace):
        raise InternalTheoremViolation(
            "factorization brace is not an op-module (or not symmetric)")
    return brace
