"""
Post-Hopf algebras, relative operators and 1-cocycles
=====================================================

Three equivalent presentations of the same data: a post-Hopf product ▶
with its solved convolution inverse β, the identity map as a relative
Rota-Baxter operator, and the identity map as a bijective 1-cocycle.
"""

import hopfkit as hk
from hopfkit import fixtures as fx
from hopfkit.linalg import tensor_index

H = fx.f2()
b_inv = fx.b_inv(H)

# x ▶ y = B(x_(1)) y S(B(x_(2))) is conjugation for the inversion operator;
# β_x(y) = S_∗(x) ▶ y, with S_∗ the antipode of x ∗ y = x_(1)(x_(2) ▶ y).
p = hk.posthopf_from_rb(b_inv)
i_r, i_s = H.space.index_of("r"), H.space.index_of("s")
print("r ▶ s =", p.tri.columns[tensor_index(i_r, i_s, 6)])
print("β_r(s) =", p.beta.columns[tensor_index(i_r, i_s, 6)])

# The subadjacent Hopf algebra x ∗ y = x_(1)(x_(2) ▶ y) is exactly the
# descendent of B, and the brace round trip is exact.
sub = hk.subadjacent_hopf(p)
print("subadjacent = descendent:",
      sub.structure_equal(hk.descend(b_inv).hopf))
br = hk.brace_from_posthopf(p)
print("round trip ▶ preserved:", hk.posthopf_from_brace(br).tri == p.tri)

# The identity map of a brace is simultaneously a relative Rota-Baxter
# operator H -> H_circle and a bijective 1-cocycle H_circle -> H.
rel, coc = hk.canonical_from_brace(br)
print("relative operator is id:", rel.tau.is_identity())
print("cocycle is id:", coc.pi.is_identity())

# Inversion swaps the two notions, exactly.
print("π^{-1} is relative:", hk.invert_cocycle(coc).tau == coc.pi_inverse)
print("τ^{-1} is a cocycle:", hk.invert_relative_rb(rel).pi == rel.tau)

# A cocycle gives a Rota-Baxter Hopf algebra on A ⊗ A: the embedding of
# the brace a ∘ b = π(π^{-1}(a) π^{-1}(b)) that π induces on A.  For the
# identity cocycle that brace is br itself, so the two agree bit-exactly.
built = hk.rb_hopf_from_cocycle(coc)
emb = hk.embed_into_rb(br)
print("cocycle ambient = embedding ambient:",
      built.ambient.structure_equal(emb.ambient) and
      built.rb.map == emb.rb.map)
