"""Post-Hopf algebras and their correspondence with Rota-Baxter
operators and Hopf braces.

A post-Hopf algebra is a coalgebra-morphism product ▶ on a Hopf algebra
satisfying

    x ▶ (y z)    = (x_(1) ▶ y)(x_(2) ▶ z)
    x ▶ (y ▶ z)  = (x_(1) (x_(2) ▶ y)) ▶ z

whose left-multiplication map α: x -> (y -> x ▶ y) is
convolution-invertible.  Twisted associativity makes α multiplicative
for the subadjacent product x ∗ y = x_(1) (x_(2) ▶ y), so the inverse is
β_x(y) = S_∗(x) ▶ y, where S_∗ is the convolution inverse of the identity
from (H, Δ) into (H, ∗) (Li-Sheng-Tang).  β is accepted only after
α ⋆ β = β ⋆ α = ε·id is checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .brace import HopfBrace, derived_action_map, verify_brace
from .errors import IdentityFails, NotConvolutionInvertible
from .hopf import (HopfAlgebraData, _associativity_witness, _earliest,
                   _measuring_witness, _verified, apply2,
                   coalgebra_map_failures, convolution, convolution_inverse,
                   require_cocommutative, tensor_coalgebra, twisted_product)
from .linalg import LinearOp, kron, scaled_columns, tensor_split
from .rb import RotaBaxterOp, rb_action_map
from .report import Witness


@dataclass
class PostHopf:
    """Carrier, the ▶ product, and the convolution inverse β of the
    left-multiplication map (stored as a map H ⊗ H -> H)."""

    carrier: HopfAlgebraData
    tri: LinearOp
    beta: LinearOp

    def of(self, x, y):
        return apply2(self.tri, x, y)


def verify_posthopf(h: HopfAlgebraData, tri: LinearOp) -> PostHopf:
    """Sweep both defining identities and the coalgebra-morphism property
    on all basis tuples, then build β from the subadjacent antipode.

    Product-distributivity runs its slot y over the generators of H first
    (see :func:`~hopfkit.hopf._measuring_witness`), and so does twisted
    associativity its last slot z (:func:`~hopfkit.hopf.int_witness`).
    The latter is closed under the product of H: product-distributivity,
    ▶ being a coalgebra map and cocommutativity, all checked before it,
    give Δ(x∗y) = (x_(1)∗y_(1)) ⊗ (x_(2)∗y_(2)), so for z and z' in it
    x ▶ (y ▶ zz') = (x_(1) ▶ (y_(1) ▶ z))(x_(2) ▶ (y_(2) ▶ z'))
    = ((x_(1)∗y_(1)) ▶ z)((x_(2)∗y_(2)) ▶ z') = (x∗y) ▶ zz'.  (H, ∗) is
    never verified associative, so its first two slots stay full."""
    require_cocommutative(h)
    dim = h.dim
    first = _earliest(coalgebra_map_failures(tri, tensor_coalgebra(h, h),
                                             (h.comul, h.counit)))
    if first is not None:
        which, (p, lhs, rhs) = first
        x, y = tensor_split(p, dim)
        raise IdentityFails(
            ("coalgebra-morphism", "coalgebra-morphism-counit")[which],
            Witness((h.label(x), h.label(y)), str(lhs),
                    str(rhs) if which else "(x1▶y1)⊗(x2▶y2)"))

    w = _measuring_witness(h, h, tri)
    if w is not None:
        raise IdentityFails("product-distributivity", w)

    # x ∗ y = x_(1) (x_(2) ▶ y), once per pair.  Twisted associativity
    # says ▶ is an action of (H, ∗), with the sides of the module law swapped.
    star = twisted_product(h.comul, h.mul, tri)
    w = _associativity_witness(h.space, h.space, scaled_columns(star),
                               scaled_columns(tri), (2, h))
    if w is not None:
        raise IdentityFails("twisted-associativity",
                            Witness(w.at, w.rhs, w.lhs))

    s_star = convolution_inverse(h, LinearOp.identity(h.space), star, h.unit)
    beta = tri.compose(kron(s_star, LinearOp.identity(h.space)))
    # α ⋆ β and β ⋆ α must both be x ⊗ y -> ε(x) y
    eps_id = tuple(h.basis(y).scale(h._eps[x])
                   for x in range(dim) for y in range(dim))
    if (twisted_product(h.comul, tri, beta).columns != eps_id
            or twisted_product(h.comul, beta, tri).columns != eps_id):
        raise NotConvolutionInvertible("no convolution inverse exists")
    return PostHopf(h, tri, beta)


def posthopf_from_rb(b: RotaBaxterOp) -> PostHopf:
    """x ▶ y = B(x_(1)) y S(B(x_(2))); verified from scratch."""
    b.require_validated()
    return verify_posthopf(b.carrier, rb_action_map(b))


def subadjacent_hopf(p: PostHopf) -> HopfAlgebraData:
    """The Hopf algebra (H, ∗_▶, Δ) with x ∗ y = x_(1) (x_(2) ▶ y) and
    antipode S_▶(x) = β_{x_(1)}(S(x_(2)))."""
    h = p.carrier
    out = HopfAlgebraData(h.space, twisted_product(h.comul, h.mul, p.tri),
                          h.unit, h.comul, h.counit,
                          convolution(h.comul, LinearOp.identity(h.space),
                                      h.antipode, p.beta))
    return _verified(out, "subadjacent")


def brace_from_posthopf(p: PostHopf) -> HopfBrace:
    """(H, ·, ∗_▶) as a Hopf brace."""
    return verify_brace(p.carrier, subadjacent_hopf(p))


def posthopf_from_brace(br: HopfBrace) -> PostHopf:
    """x ▶ y = S(x_(1)) (x_(2) ∘ y): the derived action as a post-Hopf
    product on the dot structure."""
    br.require_validated()
    return verify_posthopf(br.dot, derived_action_map(br))
