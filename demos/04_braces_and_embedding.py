"""
Hopf braces and the embedding into a Rota-Baxter Hopf algebra
=============================================================

A Hopf brace is two Hopf structures on one coalgebra linked by
a ∘ (bc) = (a_(1) ∘ b) S(a_(2)) (a_(3) ∘ c).  Every Rota-Baxter operator
yields one, and conversely every cocommutative brace embeds into a
Rota-Baxter Hopf algebra on G ⊗ G.
"""

import hopfkit as hk
from hopfkit import fixtures as fx
from hopfkit.hopf import apply2

H = fx.f2()
b_inv = fx.b_inv(H)

# The brace of the inversion operator is the flip brace (∘ = opposite).
br = hk.brace_from_rb(b_inv)
print("brace validated:", br.validated)
print("equals the flip brace:",
      br.circle.mul == hk.flip_brace(H).circle.mul)

# The derived action a ⇀ b = S(a_(1))(a_(2) ∘ b) is conjugation here and
# reconstructs both products.
act = hk.derived_action(br)
i_r, i_s = H.space.index_of("r"), H.space.index_of("s")
print("r ⇀ s =", act.basis(i_r, i_s), "(= r^{-1} s r)")

# Embed into G' = G ⊗ G: a 36-dimensional Rota-Baxter Hopf algebra whose
# full axiom sweep covers 46 656 associativity triples.
emb = hk.embed_into_rb(br)
print("ambient dimension:", emb.ambient.dim)
print("ambient validated:", emb.ambient.validated)
print("splitting operator validated:", emb.rb.validated)
print("psi(1) = unit:", emb.psi(H.unit) == emb.ambient.unit)

# psi is a brace morphism onto its image:
g, h = 1, 3   # r and s
lhs = emb.psi(br.circle.mul_basis(g, h))
rhs = apply2(emb.rb.circle, emb.psi.columns[g], emb.psi.columns[h])
print("psi(r ∘ s) = psi(r) ∘_B' psi(s):", lhs == rhs)
