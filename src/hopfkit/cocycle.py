"""Relative Rota-Baxter operators and bijective 1-cocycles.

A relative Rota-Baxter operator is a coalgebra map τ: K -> H, with K a
left H-module bialgebra, satisfying τ(a)τ(b) = τ(a_(1) (τ(a_(2)) ⇀ b)).
A bijective 1-cocycle is a coalgebra isomorphism π: H -> A, with A a
left H-module algebra, satisfying π(hk) = π(h_(1)) (h_(2) ⇀ π(k)).

The two verifiers take exactly the axioms each definition states; the
inversion operations additionally check the module axioms they need
(module coalgebra for inverting a cocycle) and re-verify the result
against the opposite definition.  The Rota-Baxter Hopf algebra of a
cocycle is the brace embedding of the brace that π induces on A.
"""

from __future__ import annotations

from dataclasses import dataclass

from .brace import HopfBrace, derived_action_map, embed_into_rb, verify_brace
from .errors import DimensionMismatch, IdentityFails, NotCoalgebraMap
from .hopf import (HopfAlgebraData, ModuleAction, _carried, _require, apply2,
                   check_coalgebra_morphism, check_module_bialgebra,
                   first_witness, module_algebra_report,
                   module_coalgebra_report, twisted_product)
from .linalg import LinearOp, invert
from .rb import RotaBaxterOp


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
    _require(check_module_bialgebra(action), "module-bialgebra")
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
    _require(module_algebra_report(action), "module-algebra")
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
    _require(module_coalgebra_report(c.action), "module-coalgebra")
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
    """The Rota-Baxter Hopf algebra on A ⊗ A of a bijective 1-cocycle
    (A cocommutative): ``embed_into_rb`` of the brace (A, ·, ∘) with
    a ∘ b = π(π^{-1}(a) π^{-1}(b)) and antipode πSπ^{-1}, which
    ``verify_brace`` checks first.  The structure of H is carried along π
    (``hopf._carried``); a verified cocycle is a coalgebra isomorphism
    with π(1) = 1, so the unit, Δ and ε carried are those of A.  The
    paper's formulas for the same ambient in terms of π are the reference
    oracle of tests/test_cocycle.py.
    """
    circle = _carried(c.source, c.pi, c.pi_inverse)
    emb = embed_into_rb(verify_brace(c.target, circle))
    return CocycleRb(emb.ambient, emb.rb)
