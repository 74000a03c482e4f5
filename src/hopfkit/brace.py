"""Hopf braces: verification, construction from Rota-Baxter operators,
the derived action, the embedding into a Rota-Baxter Hopf algebra on
G ⊗ G, and the symmetry condition suite.

A Hopf brace is two Hopf structures (dot and circle) on one shared
coalgebra satisfying a ∘ (bc) = (a_(1) ∘ b) S(a_(2)) (a_(3) ∘ c);
verify_brace accepts it on two group tables, as the skew-brace identity,
or sweeps it in ints on scaled columns.

The symmetry suite reads group carriers off their Cayley tables as well:
op-module and prop44 compare rows of a ⇀ c = a⁻¹(a∘c) when both structures
of the brace were accepted as group algebras, and prop48 and prop49 rows of
u ▷ c = u c u⁻¹ (:func:`~hopfkit.groups.conjugation_automorphism`) when the
map sends basis vectors to basis vectors.  Every read takes the group that
acceptance stored on the carrier (see
:class:`~hopfkit.hopf.HopfAlgebraData`); a carrier with none is swept.
Each read is exact on group-likes but only accepts; on a failure the int
sweep runs, so every witness is the sweep's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .errors import (CompatibilityFails, ConstructionInvalid,
                     DimensionMismatch, HopfAxiomFails, HopfkitError,
                     HypothesisFails, InternalTheoremViolation,
                     NotExactFactorization, SingularMap)
from .groups import conjugation_automorphism
from .hopf import (HopfAlgebraData, ModuleAction, _associativity_witness,
                   _leg_sum, _multiplicative_witness, _require, _verified,
                   adjoint_map, apply2, check_cocommutative,
                   check_module_bialgebra, convolution, convolution_inverse,
                   first_witness, int_witness, opposite_hopf,
                   require_cocommutative, smash_hopf, sub_hopf_indices,
                   twisted_product, verify_hopf)
from .linalg import (BasedSpace, Element, LinearOp, int_product, int_sum,
                     invert, kron, rank, scaled_columns, tensor_elem,
                     tensor_index, tensor_space)
from .rb import (RotaBaxterOp, _antipode_indices, _descendent_isos,
                 _group_map, descend, descendent_antipode, verify_rb)
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
    compatibility identity over all basis triples.

    The middle slot b runs over the generators of the dot structure first
    (:func:`~hopfkit.hopf.int_witness`).  It is closed under the dot
    product by the associativity of (H, ·) and the coassociativity of the
    shared coproduct: for b and b' in it,
    a∘(bb'c) = (a_(1)∘b)S(a_(2))(a_(3)∘(b'c))
    = (a_(1)∘b)S(a_(2))(a_(3)∘b')S(a_(4))(a_(5)∘c)
    = (a_(1)∘(bb'))S(a_(2))(a_(3)∘c).  Both sums of the right side go
    through :func:`~hopfkit.hopf._leg_sum`, which groups a coproduct column
    by its left leg.  The table of (x_(1)∘b)S(x_(2)) is built for each b
    when its first row is swept, one sum per column of Δ(x), its left legs
    read from ``circ[b::dim]``, the column of y∘b at index y.  The right
    side at (a, b, c) is then one sum over the column of Δ(a), with that
    table as its left legs and ``circ[c::dim]`` as its right legs.

    When both structures were accepted with a stored group, on basis
    triples this is the skew-brace identity a∘(bc) = ((a∘b)a⁻¹)(a∘c)
    (Δ²(a) = a⊗a⊗a, S(a) = a⁻¹), checked first on the Cayley tables with b
    over ``generators`` of the dot group.  By the closure above that proves
    it, since b = 1 holds at once (a∘1 = a, the units being shared).  It
    only accepts: the int sweep decides every failure, witness and
    exception."""
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
    group, circ_group = dot._group, circle._group
    if group is not None and circ_group is not None:
        tab, inv, circ = group.table, group.inverse, circ_group.table
        if all(circ[a][tab[b][c]] == tab[tab[circ[a][b]][inv[a]]][circ[a][c]]
               for b in group.generators for a in range(dot.dim)
               for c in range(dot.dim)):
            return HopfBrace(dot, circle, True)

    # rhs = Σ (a_(1) ∘ b) S(a_(2)) (a_(3) ∘ c).  Coassociativity of the
    # verified coproduct splits the legs as Δ(x) ⊗ y over (x, y) in Δ(a),
    # so rhs is one _leg_sum over the column of Δ(a), its left legs
    # left(b)[x] = (x_(1) ∘ b) S(x_(2)) and its right legs y ∘ c.
    # left(b)[x] carries dc·dk·ds·dm, each right factor dk, so rhs
    # (dc·dk·dm)²·ds, and the left side a ∘ (bc) dk·dm.
    dim = dot.dim
    dm, mul = scaled_columns(dot.mul)
    dk, circ = scaled_columns(circle.mul)
    dc, comul = scaled_columns(dot.comul)
    ds, anti = scaled_columns(dot.antipode)

    @cache
    def left(b):
        return [tuple(_leg_sum(mul, dim, col, dim, circ[b::dim], anti).items())
                for col in comul]

    def rows(a, b):
        return ([int_product(circ, dim, ((a, 1),), col)
                 for col in mul[b * dim:(b + 1) * dim]],
                [_leg_sum(mul, dim, comul[a], dim, left(b), circ[c::dim])
                 for c in range(dim)])
    w = int_witness((dot.space, dot.space, dot.space), dot.space,
                    (dk * dm, (dc * dk * dm) ** 2 * ds), rows, closed=(1, dot))
    if w is not None:
        raise CompatibilityFails("brace compatibility fails", w)
    return HopfBrace(dot, circle, True)


def brace_from_rb(b: RotaBaxterOp, phi: LinearOp | None = None) -> HopfBrace:
    """The brace (H, ·, ∘_B).  When an automorphism is supplied, the
    braces of the companion and conjugated operators are built as well and
    the descendent isomorphisms are re-checked on the same three
    descendents."""
    if phi is None:
        return verify_brace(b.carrier, descend(b).hopf)
    ds, report = _descendent_isos(b, phi)
    brace, *_ = [verify_brace(b.carrier, d.hopf) for d in ds]
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
    G' = G ⊗ G, the smash product of (G, ∘) acting on (G, ·) by the
    derived action ⇀ (built by :func:`~hopfkit.hopf.smash_hopf`):

        (x⊗y) * (z⊗t) = x_(1)∘z ⊗ y (x_(2) ⇀ t)
        S'(x⊗y)       = T(x_(1)) ⊗ (T(x_(2)) ⇀ S(y))
        B'(x⊗y)       = T(x)∘y ⊗ 1

    All three stages (Hopf axioms of G', the Rota-Baxter identity of B',
    the brace embedding identities of psi) are verified.  psi is checked
    against ∘_B' through the operator's own table, ``rb.circle``.
    """
    br.require_validated()
    dot, circle = br.dot, br.circle
    if not check_cocommutative(dot):
        raise ConstructionInvalid("hopf", "brace carrier must be cocommutative")
    ambient = smash_hopf(circle, dot, derived_action_map(br))
    g2 = ambient.space
    _require(verify_hopf(ambient), "hopf")
    if not check_cocommutative(ambient):
        raise ConstructionInvalid("hopf", "ambient is not cocommutative")

    # B' = ι ∘ m_∘ ∘ (T ⊗ id), with ι(g) = g ⊗ 1
    iota = LinearOp(dot.space, g2, [tensor_elem(g2, e, dot.unit)
                                    for e in dot._basis])
    b_map = iota.compose(circle.mul).compose(
        kron(circle.antipode, LinearOp.identity(dot.space)))
    try:
        rbop = verify_rb(ambient, b_map)
    except HopfkitError as exc:
        raise ConstructionInvalid("rb", str(exc)) from exc

    psi = LinearOp(dot.space, g2, [tensor_elem(g2, dot.unit, e)
                                   for e in dot._basis])
    if rank(psi) != dot.dim:
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

def _action_rows(br: HopfBrace):
    """``(G, K, act)`` when the dot structure of br was accepted as k[G]
    and the circle as k[K], with G and K stored on them, else None;
    ``act[a][c]`` is the index of a ⇀ c = S(a)(a∘c) = a⁻¹(a∘c), the
    column of :func:`derived_action_map` at (a, c), since Δ(a) = a⊗a."""
    group, circ_group = br.dot._group, br.circle._group
    if group is None or circ_group is None:
        return None
    tab, inv = group.table, group.inverse
    return group, circ_group, [[tab[inv[a]][x] for x in row]
                               for a, row in enumerate(circ_group.table)]


def op_module_witness(br: HopfBrace) -> Witness | None:
    """First failing triple of (b a) ⇀ c = a ⇀ (b ⇀ c), if any: module
    associativity for the opposite dot product.

    When :func:`_action_rows` reads ⇀ off two Cayley tables, every side is
    a basis vector, so the identity holds exactly when the index rows of
    (ba) ⇀ c and a ⇀ (b ⇀ c) over c agree for every (a, b).  That read
    only accepts; the int sweep decides every failure and its witness."""
    br.require_validated()
    dot, dim = br.dot, br.dot.dim
    read = _action_rows(br)
    if read is not None:
        group, _, act = read
        tab = group.table
        if all(act[tab[b][a]] == [row[x] for x in act[b]]
               for a, row in enumerate(act) for b in range(dim)):
            return None
    dm, mul = scaled_columns(dot.mul)
    op_mul = [mul[b * dim + a] for a in range(dim) for b in range(dim)]
    return _associativity_witness(dot.space, dot.space, (dm, op_mul),
                                  scaled_columns(derived_action_map(br)))


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


def _sweedler_legs(comul: list, dim: int):
    """The legs of Δ and of Δ² = (Δ⊗id)Δ, read from the
    :func:`scaled_columns` of a coproduct: ``legs2[a]`` holds ``(w, a1,
    a2)`` and ``legs3[a]`` holds ``(w, a1, a2, a3)``, one per term, with
    the weight w of the term in ints."""
    legs2 = [[(w, *divmod(q, dim)) for q, w in col] for col in comul]
    legs3 = [[(w * w2, a1, a2, z) for w, y, z in legs for w2, a1, a2 in legs2[y]]
             for legs in legs2]
    return legs2, legs3


def symmetric_sufficient_witness(br: HopfBrace) -> Witness | None:
    """First basis triple (a, b, c) failing Proposition 4.4's sufficient
    condition for symmetry, a b_(1) (b_(2) ⇀ c) = a_(1) b_(1)
    ((a_(2) b_(2)) ⇀ (T(a_(3)) ⇀ c)), with T the circle antipode.

    On group-likes it reads a b (b ⇀ c) = a b ((ab) ⇀ (T(a) ⇀ c)), T(a)
    the inverse of a in (G, ∘).  Left multiplication by ab is a bijection
    of the basis, so this holds exactly when b ⇀ c = (ab) ⇀ (T(a) ⇀ c).
    When :func:`_action_rows` reads ⇀ off two Cayley tables, that identity
    is checked on whole rows over c; the read only accepts, and the int
    sweep decides every failure and its witness."""
    br.require_validated()
    dot, dim = br.dot, br.dot.dim
    read = _action_rows(br)
    if read is not None:
        group, circ_group, act = read
        tab, tinv = group.table, circ_group.inverse
        if all(act[b] == [act[tab[a][b]][x] for x in act[tinv[a]]]
               for a in range(dim) for b in range(dim)):
            return None
    da, acts = scaled_columns(derived_action_map(br))
    dm, mul = scaled_columns(dot.mul)
    dc, comul = scaled_columns(dot.comul)
    dt, anti = scaled_columns(br.circle.antipode)
    legs2, legs3 = _sweedler_legs(comul, dim)
    # T(a_(3)) ⇀ e_c, carrying dt·da, once per (a_(3), c)
    inner = [tuple(int_product(acts, dim, col, ((c, 1),)).items())
             for col in anti for c in range(dim)]

    def rows(a, b):
        # every factor but the last action, once per row: a b_(1) and
        # a_(1) b_(1) times their leg weights, and the actor a_(2) b_(2)
        lefts = [([(i, w * v) for i, v in mul[a * dim + b1]], b2 * dim)
                 for w, b1, b2 in legs2[b]]
        rights = [([(i, wa * wb * v) for i, v in mul[a1 * dim + b1]],
                   mul[a2 * dim + b2], a3 * dim)
                  for wa, a1, a2, a3 in legs3[a] for wb, b1, b2 in legs2[b]]
        return ([int_sum(mul, dim, ((left, acts[base + c]) for left, base in lefts))
                 for c in range(dim)],
                [int_sum(mul, dim, (
                    (left, int_product(acts, dim, actor, inner[base + c]).items())
                    for left, actor, base in rights)) for c in range(dim)])
    scales = (dc * dm * dm * da, dc ** 3 * dm ** 3 * da * da * dt)
    return int_witness((dot.space, dot.space, dot.space), dot.space, scales, rows)


def check_symmetric_sufficient(br: HopfBrace) -> bool:
    """Sufficient condition for symmetry via the derived action:

        a b_(1) (b_(2) ⇀ c) = a_(1) b_(1) ((a_(2) b_(2)) ⇀ (T(a_(3)) ⇀ c)).
    """
    return symmetric_sufficient_witness(br) is None


def rb_symmetric_sufficient_witness(h: HopfAlgebraData,
                                    b: LinearOp) -> Witness | None:
    """First basis triple (a, b, c) failing Proposition 4.8's form of the
    symmetry condition for a map B, a b_(1) (B(b_(2)) ▷ c) = a_(1) b_(1)
    ((B(a_(2) b_(2)) B(T(a_(3)))) ▷ c), with T the descendent antipode of
    B and ▷ the adjoint action; a b that is no endomap of h is refused.

    When :func:`~hopfkit.rb._group_map` finds h = k[G] and B sending basis
    vectors to basis vectors, it reads a b (B(b) ▷ c) = a b ((B(ab)
    B(T(a))) ▷ c) with u ▷ c = u c u⁻¹ and T(a) = (B(a)⁻¹a⁻¹)B(a).  Left
    multiplication by ab is a bijection of the basis, so this holds
    exactly when B(b) ▷ c = (B(ab)B(T(a))) ▷ c, checked on whole rows over
    c, with u ▷ c = u_(1) c S(u_(2)) read as the row u of
    :func:`~hopfkit.groups.conjugation_automorphism`.  The read only
    accepts; the int sweep decides every failure and its witness."""
    h.require_validated()
    dim = h.dim
    read = _group_map(h, b)
    if read is not None:
        group, table = read
        tab = group.table
        conj = [conjugation_automorphism(group, u) for u in range(dim)]
        bt = [table[t] for t in _antipode_indices(group, table)]
        if all(conj[table[bb]] == conj[tab[table[tab[a][bb]]][bt[a]]]
               for a in range(dim) for bb in range(dim)):
            return None
    dm, mul = scaled_columns(h.mul)
    db, bcols = scaled_columns(b)
    dt, tcols = scaled_columns(descendent_antipode(h, b))
    dd, ad = scaled_columns(adjoint_map(h))
    dc, comul = scaled_columns(h.comul)
    legs2, legs3 = _sweedler_legs(comul, dim)
    one = ((0, 1),)
    bm = [tuple(int_product(bcols, 1, col, one).items()) for col in mul]
    bt = [tuple(int_product(bcols, 1, col, one).items()) for col in tcols]
    actors: dict = {}      # (a2 b2)·dim + a3 -> B(a2 b2) B(T(a3)), dm²·db²·dt

    def acted(terms, c):
        """Σ e_x e_y (u ▷ e_c) over the actor sums u of ``terms``."""
        return int_sum(mul, dim, (
            (mul[xy], int_product(ad, dim, u.items(), ((c, 1),)).items())
            for xy, u in terms.items()))

    def rows(a, bb):
        # ▷ is linear in the actor: sum the actors of each outer factor
        # a b_(1) (lhs, dc·db) and a_(1) b_(1) (rhs, dc³·dm²·db²·dt)
        # before acting; the outer product and ▷ add dm² and dd
        lhs_terms: dict = {}
        for w, b1, b2 in legs2[bb]:
            int_product(bcols, 1, ((b2, w),), one,
                        lhs_terms.setdefault(a * dim + b1, {}))
        rhs_terms: dict = {}
        for wa, a1, a2, a3 in legs3[a]:
            for wb, b1, b2 in legs2[bb]:
                key = (a2 * dim + b2) * dim + a3
                if key not in actors:
                    actors[key] = tuple(int_product(
                        mul, dim, bm[a2 * dim + b2], bt[a3]).items())
                int_product(actors, 1, ((key, wa * wb),), one,
                            rhs_terms.setdefault(a1 * dim + b1, {}))
        return ([acted(lhs_terms, c) for c in range(dim)],
                [acted(rhs_terms, c) for c in range(dim)])
    scales = (dm * dm * dd * dc * db, dm ** 4 * dd * dc ** 3 * db * db * dt)
    return int_witness((h.space, h.space, h.space), h.space, scales, rows)


def check_rb_symmetric_sufficient(h: HopfAlgebraData, b: LinearOp) -> bool:
    """Adjoint-action form of the symmetry condition for a map B:

        a b_(1) (B(b_(2)) ▷ c) = a_(1) b_(1) ((B(a_(2) b_(2)) B(T(a_(3)))) ▷ c)

    with T the descendent antipode built from B (B need not be verified).
    """
    return rb_symmetric_sufficient_witness(h, b) is None


def _acted_witness(act: LinearOp, left: list, dl: int, right: list, dr: int):
    """First basis triple (a, b, c) with left[a·dim + b] ⇀ e_c differing
    from right[a·dim + b] ⇀ e_c, for act: H ⊗ H -> H and int columns
    ``left`` and ``right`` over H that carry the scales dl and dr."""
    space, dim = act.codomain, act.codomain.dim
    da, acts = scaled_columns(act)
    scales = (da * dl, da * dr)
    return int_witness((space, space, space), space, scales, lambda a, b: tuple(
        [int_product(acts, dim, side[a * dim + b], ((c, 1),)) for c in range(dim)]
        for side in (left, right)))


def rb_op_module_witness(h: HopfAlgebraData, b: LinearOp) -> Witness | None:
    """First basis triple (a, b, c) failing Proposition 4.9's condition
    B(b a) ▷ c = (B(a) B(b)) ▷ c, with ▷ the adjoint action; a b that is
    no endomap of h is refused.

    When :func:`~hopfkit.rb._group_map` finds h = k[G] and B sending basis
    vectors to basis vectors, both actors are group-likes and u ▷ c =
    u c u⁻¹, so every side is a basis vector and the identity holds
    exactly when the rows of B(ba) ▷ c and (B(a)B(b)) ▷ c over c agree for
    every (a, b).  The read only accepts; the int sweep decides every
    failure and its witness."""
    h.require_validated()
    dim = h.dim
    read = _group_map(h, b)
    if read is not None:
        group, table = read
        tab = group.table
        conj = [conjugation_automorphism(group, u) for u in range(dim)]
        if all(conj[table[tab[bb][a]]] == conj[tab[table[a]][table[bb]]]
               for a in range(dim) for bb in range(dim)):
            return None
    dm, mul = scaled_columns(h.mul)
    db, bcols = scaled_columns(b)
    # B(b a) and B(a) B(b), once per pair (a, b), carrying db·dm and dm·db²
    pairs = [(a, bb) for a in range(dim) for bb in range(dim)]
    left = [tuple(int_product(bcols, 1, mul[bb * dim + a], ((0, 1),)).items())
            for a, bb in pairs]
    right = [tuple(int_product(mul, dim, bcols[a], bcols[bb]).items())
             for a, bb in pairs]
    return _acted_witness(adjoint_map(h), left, db * dm, right, dm * db * db)


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
    dk, circ = scaled_columns(circle_mul)
    dm, mul = scaled_columns(h.mul)
    w = _acted_witness(act, circ, dk, [mul[b * h.dim + a] for a in range(h.dim)
                                       for b in range(h.dim)], dm)
    if w is not None:
        raise HypothesisFails("a1(a2⇀b)⇀c = (ba)⇀c", w)

    _require(check_module_bialgebra(ModuleAction(opposite_hopf(h), h, act)),
             "module-bialgebra")

    s = h.antipode
    circle = HopfAlgebraData(h.space, circle_mul, h.unit, h.comul, h.counit,
                             convolution(h.comul, s, s, act))
    brace = verify_brace(h, _verified(circle, "circle"))
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

    # the basis word a⊗b⊗a'⊗b' of (A⊗B)⊗(A⊗B) -> ((a a') b') b, read
    # through factor on both sides
    words = LinearOp(tensor_space(ab, ab), h.space, [
        h.product(h.product(h.mul_basis(a, a2), h.basis(b2)), h.basis(b))
        for a in a_idx for b in b_idx for a2 in a_idx for b2 in b_idx])
    circle_mul = words.compose(kron(factor, factor))
    try:
        t = convolution_inverse(h, LinearOp.identity(h.space),
                                circle_mul, h.unit)
    except HopfkitError as exc:
        raise ConstructionInvalid("antipode", str(exc)) from exc
    circle = HopfAlgebraData(h.space, circle_mul, h.unit, h.comul, h.counit, t)
    brace = verify_brace(h, _verified(circle, "circle"))
    if not check_op_module(brace) or not check_symmetric(brace):
        raise InternalTheoremViolation(
            "factorization brace is not an op-module (or not symmetric)")
    return brace
