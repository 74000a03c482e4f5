"""Relative Rota-Baxter operators and bijective 1-cocycles.

A relative Rota-Baxter operator is a coalgebra map τ: K -> H, with K a
left H-module bialgebra, satisfying τ(a)τ(b) = τ(a_(1) (τ(a_(2)) ⇀ b)).
A bijective 1-cocycle is a coalgebra isomorphism π: H -> A, with A a
left H-module algebra, satisfying π(hk) = π(h_(1)) (h_(2) ⇀ π(k)).

The two verifiers take exactly the axioms each definition states; the
inversion operations additionally check the module axioms they need
(module coalgebra for inverting a cocycle) and re-verify the result
against the opposite definition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .brace import HopfBrace, derived_action_map, embed_into_rb, verify_brace
from .errors import (ConstructionInvalid, DimensionMismatch, IdentityFails,
                     InternalTheoremViolation, NotCoalgebraMap)
from .hopf import (HopfAlgebraData, ModuleAction, apply2,
                   check_coalgebra_morphism, first_witness,
                   module_algebra_report, module_coalgebra_report,
                   check_module_bialgebra, tensor_coalgebra, twisted_product,
                   verify_hopf)
from .linalg import (Element, LinearOp, accumulate, invert, tensor_elem,
                     tensor_space, tensor_split)
from .rb import RotaBaxterOp, verify_rb


@dataclass
class RelativeRB:
    source: HopfAlgebraData        # K
    target: HopfAlgebraData        # H
    action: ModuleAction           # H acting on K
    tau: LinearOp                  # K -> H


@dataclass
class Cocycle:
    source: HopfAlgebraData        # H
    target: HopfAlgebraData        # A
    action: ModuleAction           # H acting on A
    pi: LinearOp                   # H -> A
    pi_inverse: LinearOp


def verify_relative_rb(k: HopfAlgebraData, h: HopfAlgebraData,
                       action: ModuleAction, tau: LinearOp) -> RelativeRB:
    """Check the module-bialgebra precondition, the coalgebra-morphism
    property of τ, and the defining identity on all basis pairs."""
    k.require_validated()
    h.require_validated()
    if action.actor is not h and not action.actor.structure_equal(h):
        raise DimensionMismatch("action actor must be the target Hopf algebra")
    if action.carrier is not k and not action.carrier.structure_equal(k):
        raise DimensionMismatch("action carrier must be the source Hopf algebra")
    report = check_module_bialgebra(action)
    if not report.passed:
        fail = report.first_failure()
        raise ConstructionInvalid("module-bialgebra", f"{fail.name}: {fail.witness}")
    if not check_coalgebra_morphism(tau, k, h):
        raise NotCoalgebraMap("tau is not a coalgebra morphism")
    # a ⊗ b -> a_(1) (τ(a_(2)) ⇀ b)
    inner = twisted_product(k.comul, k.mul, action.act, g=tau)
    w = first_witness((k.space, k.space), lambda a, b: (
        h.product(tau.columns[a], tau.columns[b]),
        tau(inner.columns[a * k.dim + b])))
    if w is not None:
        raise IdentityFails("relative-rota-baxter", w)
    return RelativeRB(k, h, action, tau)


def verify_cocycle(h: HopfAlgebraData, a: HopfAlgebraData,
                   action: ModuleAction, pi: LinearOp) -> Cocycle:
    """Check the module-algebra precondition, that π is a coalgebra
    isomorphism (inverted exactly), and the cocycle identity."""
    h.require_validated()
    a.require_validated()
    if action.actor is not h and not action.actor.structure_equal(h):
        raise DimensionMismatch("action actor must be the source Hopf algebra")
    if action.carrier is not a and not action.carrier.structure_equal(a):
        raise DimensionMismatch("action carrier must be the target Hopf algebra")
    report = module_algebra_report(action)
    if not report.passed:
        fail = report.first_failure()
        raise ConstructionInvalid("module-algebra", f"{fail.name}: {fail.witness}")
    if not check_coalgebra_morphism(pi, h, a):
        raise NotCoalgebraMap("pi is not a coalgebra morphism")
    pi_inv = invert(pi)
    # x ⊗ u -> π(x_(1)) (x_(2) ⇀ u), read at u = π(y)
    twisted = twisted_product(h.comul, a.mul, action.act, f=pi)
    w = first_witness((h.space, h.space), lambda x, y: (
        pi(h.mul_basis(x, y)), apply2(twisted, h.basis(x), pi.columns[y])))
    if w is not None:
        raise IdentityFails("cocycle", w)
    return Cocycle(h, a, action, pi, pi_inv)


def invert_cocycle(c: Cocycle) -> RelativeRB:
    """π^{-1} as a relative Rota-Baxter operator; requires the action to
    be a module coalgebra as well."""
    report = module_coalgebra_report(c.action)
    if not report.passed:
        fail = report.first_failure()
        raise ConstructionInvalid("module-coalgebra", f"{fail.name}: {fail.witness}")
    return verify_relative_rb(c.target, c.source, c.action, c.pi_inverse)


def invert_relative_rb(r: RelativeRB) -> Cocycle:
    """τ^{-1} as a bijective 1-cocycle; τ must be bijective (the relative
    Rota-Baxter definition itself does not require this, so a singular τ
    raises SingularMap here rather than being excluded by the type)."""
    tau_inv = invert(r.tau)
    return verify_cocycle(r.target, r.source, r.action, tau_inv)


def canonical_from_brace(br: HopfBrace) -> tuple[RelativeRB, Cocycle]:
    """The identity map as a relative Rota-Baxter operator H -> H_circle
    and as a bijective 1-cocycle H_circle -> H, both over the derived
    action of the brace."""
    br.require_validated()
    action = ModuleAction(br.circle, br.dot, derived_action_map(br))
    ident = LinearOp.identity(br.dot.space)
    rel = verify_relative_rb(br.dot, br.circle, action, ident)
    coc = verify_cocycle(br.circle, br.dot, action, ident)
    return rel, coc


@dataclass
class CocycleRb:
    """Rota-Baxter Hopf algebra on A ⊗ A built from a bijective 1-cocycle."""

    ambient: HopfAlgebraData
    rb: RotaBaxterOp


def rb_hopf_from_cocycle(c: Cocycle) -> CocycleRb:
    """A ⊗ A with

        (x⊗y) * (z⊗t) = π(π^{-1}(x_(1)) π^{-1}(z))
                         ⊗ y S(x_(2)) π(π^{-1}(x_(3)) π^{-1}(t))
        S'(x⊗y)        = πSπ^{-1}(x_(1))
                         ⊗ π(Sπ^{-1}(x_(2)) π^{-1}(x_(3) S(y)))
        B(x⊗y)         = π(Sπ^{-1}(x) π^{-1}(y)) ⊗ 1

    (inner products and the inner S in the source, outer ones in the
    target).  The result is verified as a Rota-Baxter Hopf algebra and
    cross-checked against the generic brace embedding of the induced
    brace a ∘ b = π(π^{-1}(a) π^{-1}(b)).
    """
    h, a = c.source, c.target
    pi, pi_inv = c.pi, c.pi_inverse
    dim = a.dim
    aa = tensor_space(a.space, a.space)
    s_h = h.antipode
    s_a = a.antipode

    def transported(u: Element, v: Element) -> Element:
        return pi(h.product(pi_inv(u), pi_inv(v)))

    mul_cols = []
    for p in range(aa.dim):
        x, y = tensor_split(p, dim)
        legs = a.sweedler(x, 3)
        for q in range(aa.dim):
            z, t = tensor_split(q, dim)
            mul_cols.append(accumulate(aa, (
                (w, tensor_elem(aa, transported(a.basis(x1), a.basis(z)),
                                a.product_many([a.basis(y), s_a.columns[x2],
                                                transported(a.basis(x3),
                                                            a.basis(t))])))
                for w, (x1, x2, x3) in legs)))

    t_map = pi.compose(s_h).compose(pi_inv)
    anti_cols = []
    for p in range(aa.dim):
        x, y = tensor_split(p, dim)
        sy = s_a.columns[y]
        anti_cols.append(accumulate(aa, (
            (w, tensor_elem(aa, t_map.columns[x1],
                            pi(h.product(s_h(pi_inv(a.basis(x2))),
                                         pi_inv(a.product(a.basis(x3), sy))))))
            for w, (x1, x2, x3) in a.sweedler(x, 3))))

    comul, counit = tensor_coalgebra(a, a)
    ambient = HopfAlgebraData(aa, LinearOp(comul.codomain, aa, mul_cols),
                              tensor_elem(aa, a.unit, a.unit),
                              comul, counit, LinearOp(aa, aa, anti_cols))
    report = verify_hopf(ambient)
    if not report.passed:
        fail = report.first_failure()
        raise ConstructionInvalid("hopf", f"{fail.name}: {fail.witness}")

    b_cols = []
    for p in range(aa.dim):
        x, y = tensor_split(p, dim)
        b_cols.append(tensor_elem(
            aa, pi(h.product(s_h(pi_inv(a.basis(x))), pi_inv(a.basis(y)))),
            a.unit))
    b_map = LinearOp(aa, aa, b_cols)
    rbop = verify_rb(ambient, b_map)

    # cross-check against the generic embedding of the induced brace
    circle_cols = [transported(a.basis(x), a.basis(y))
                   for x in range(dim) for y in range(dim)]
    circle = HopfAlgebraData(a.space, LinearOp(a.hh, a.space, circle_cols),
                             a.unit, a.comul, a.counit, t_map)
    rep = verify_hopf(circle)
    if not rep.passed:
        raise ConstructionInvalid("induced-circle", str(rep.first_failure()))
    brace = verify_brace(a, circle)
    embedding = embed_into_rb(brace)
    if not embedding.ambient.structure_equal(ambient):
        raise InternalTheoremViolation(
            "cocycle-built ambient differs from the generic brace embedding")
    if embedding.rb.map != b_map:
        raise InternalTheoremViolation(
            "cocycle-built operator differs from the generic brace embedding")
    return CocycleRb(ambient, rbop)
