"""The sweeps that run one slot over generators first, against the same
sweeps with every slot full.

``int_witness`` accepts an identity once the slot it names holds over
``hopf._generators`` of a verified carrier, and otherwise runs the full
sweep.  Each test runs one construction twice: as shipped, and with
``_generators`` patched to None, so that every slot is full.  Verdict,
exception and witness text must agree, and the first run must have swept a
slot over generators, so no case passes by skipping the path it tests.

Inputs are drawn over Q and F_7 on the group algebras of ``GROUP_OPS``,
the transported ``kernel_op`` carriers (which take their generators from
the span rule), and the tensor squares and smash ambients H ⊗ H of the
``kernel_op`` carriers under the adjoint action.  The brace sweep runs on
every ambient; the module, measuring and multiplicativity sweeps on the
ambients of dense Z2 and Z3 (4- and 9-dimensional), since a full sweep of
those identities on a 36-dimensional ambient takes seconds per example.

One-entry edits of a map keep the carriers verified.  Where an identity is
swept only after others it rests on, the inputs are built to pass those:
post-Hopf products x ▶ y = φ_x(y) for automorphisms φ_x of G, which are
coalgebra maps and distribute over products, and matched pairs of actions
of G on itself by permutations fixing e, which satisfy both module laws
and are coalgebra maps.
"""

import itertools
from unittest import mock

from hypothesis import given, settings, strategies as st

import hopfkit as hk
from hopfkit import brace as brace_mod
from hopfkit import fixtures as fx
from hopfkit import groups as gr
from hopfkit import hopf as hopf_mod
from hopfkit import rb as rb_mod
from hopfkit.errors import HopfkitError
from hopfkit.hopf import (ModuleAction, _generators, _multiplicative_witness,
                          adjoint_action, adjoint_map, module_algebra_report)
from hopfkit.linalg import (QQ, BasedSpace, LinearOp, invert, kron, rank,
                            tensor_space)
from hopfkit.report import AxiomReport

from conftest import KERNEL_OPS, edited, transport_map
from test_int_sweeps import CARRIERS, FIELDS, GROUP_OPS, operator

SWEEPS = settings(max_examples=30, deadline=None, database=None)
SMALL_AMBIENTS = [f"{kind}:{name}" for kind in ("tensor", "smash")
                  for name in ("dense-Z2-inv", "dense-Z3-inv")]
AMBIENTS = [f"{kind}:{name}" for kind in ("tensor", "smash")
            for name in KERNEL_OPS]
# columns of the 36-dimensional ambients' products go up to 1295
EDIT = dict(col=st.integers(0, 400), row=st.integers(0, 80),
            offset=st.one_of(st.none(), st.integers(1, 6),
                             st.fractions(min_value=-2, max_value=2,
                                          max_denominator=3).filter(bool)))
_BUILT: dict = {}


def built(key, make):
    if key not in _BUILT:
        _BUILT[key] = make()
    return _BUILT[key]


def ambient(kernel_op, which, field):
    """``tensor:<name>`` or ``smash:<name>``: the tensor square or the
    smash product of a ``kernel_op`` carrier under its adjoint action."""
    kind, name = which.split(":")

    def make():
        h = kernel_op(name, field).carrier
        return hk.smash_product(h, h, adjoint_action(h))
    sp = built(("smash", name, field), make)
    return sp.tensor if kind == "tensor" else sp.product


def outcome(run):
    try:
        return "pass", run()
    except HopfkitError as exc:
        return type(exc).__name__, str(exc)


def both_ways(run):
    """``outcome(run)`` as shipped and with every slot full, and whether
    the first run swept a slot over generators."""
    restricted = []
    real = hopf_mod._first_failure

    def spy(dims, p, scales, rows, over=None):
        restricted.append(over is not None)
        return real(dims, p, scales, rows, over)
    with mock.patch.object(hopf_mod, "_first_failure", spy):
        got = outcome(run)
    with mock.patch.object(hopf_mod, "_generators", lambda h: None):
        want = outcome(run)
    return got, want, any(restricted)


def endomorphisms(group):
    """Every endomorphism of a small group, as a tuple of images: each
    choice of images of ``group.generators`` extended along the words from
    e, kept when it is a homomorphism."""
    n, table, gens = group.order, group.table, group.generators
    found = []
    for images in itertools.product(range(n), repeat=len(gens)):
        m = {group.identity: group.identity}
        frontier = [group.identity]
        while frontier:
            x = frontier.pop()
            for g, v in zip(gens, images):
                y = table[x][g]
                if y not in m:
                    m[y] = table[m[x]][v]
                    frontier.append(y)
        if all(m[table[a][b]] == table[m[a]][m[b]]
               for a in range(n) for b in range(n)):
            found.append(tuple(m[x] for x in range(n)))
    return found


def automorphisms(group):
    return [m for m in built(("ends", group.order), lambda: endomorphisms(group))
            if len(set(m)) == group.order]


def permutation_action(h, images):
    """The linear map H ⊗ H -> H, e_x ⊗ e_y -> e_{images[x][y]}, on a group
    algebra in its group-like basis."""
    return LinearOp(h.hh, h.space, [h.basis(images[x][y])
                                    for x in range(h.dim) for y in range(h.dim)])


def span_of_words(h, gens):
    """The dimension of the span of the nonempty right-multiplication
    words of ``gens``, grown a letter at a time from each word that raised
    the rank, by ``linalg.rank`` on elements multiplied by ``h.product``."""
    kept, frontier = [], [h.basis(t) for t in gens]
    while frontier:
        grown = []
        for w in frontier:
            cols = kept + [w]
            if rank(LinearOp(BasedSpace(tuple(range(len(cols))), h.field),
                             h.space, cols)) > len(kept):
                kept.append(w)
                grown += [h.product(w, h.basis(t)) for t in gens]
        frontier = grown
    return len(kept)


def test_generators_span_and_the_last_is_needed(kernel_op):
    # on the carriers, their descendents and the ambients, against words
    # multiplied out as elements; the generators of the group algebras are
    # r and s (F1: g), of a transported carrier the first basis vector, and
    # of the tensor squares and smash ambients (4, 4, 9, 36 and 36
    # dimensions) the first two basis vectors, or five of 36
    for field in FIELDS:
        assert [_generators(operator(kernel_op, n, field)[0].carrier)
                for n in CARRIERS] == [[1], [1, 3], [1, 3]] + [[0]] * 3 + \
            [[0, 1, 2]] * 2
        assert [_generators(ambient(kernel_op, a, field)) for a in AMBIENTS] \
            == 2 * ([[0, 1]] * 3 + [[0, 1, 2, 6, 12]] * 2)
        carriers = [ambient(kernel_op, a, field) for a in AMBIENTS]
        for name in CARRIERS:
            b, circle = operator(kernel_op, name, field)
            carriers += [b.carrier, circle]
        for h in carriers:
            gens = _generators(h)
            assert span_of_words(h, gens) == h.dim
            assert span_of_words(h, gens[:-1]) < h.dim


@settings(SWEEPS, max_examples=20)
@given(field=st.sampled_from(FIELDS),
       name=st.sampled_from(CARRIERS + [f"smash:{n}" for n in KERNEL_OPS]),
       **EDIT)
def test_brace_sweep_over_generators_matches_full_sweep(kernel_op, field, name,
                                                        col, row, offset):
    # the middle slot runs over generators of the dot structure, which is
    # verified: H, or the tensor square under a smash ambient; the edited
    # circle is taken to pass its Hopf axioms, which the closure step does
    # not use
    if ":" in name:
        dot = ambient(kernel_op, name.replace("smash", "tensor"), field)
        circle = ambient(kernel_op, name, field)
    else:
        b, circle = operator(kernel_op, name, field)
        dot = b.carrier
    circle = hk.hopf_from_structure(
        circle.space, edited(circle.mul, col, row, offset), circle.unit,
        circle.comul, circle.counit, circle.antipode)
    with mock.patch.object(brace_mod, "verify_hopf", lambda s: AxiomReport()):
        got, want, ran = both_ways(lambda: hk.verify_brace(dot, circle).validated)
    assert got == want
    assert ran


@SWEEPS
@given(field=st.sampled_from(FIELDS),
       name=st.sampled_from(CARRIERS + SMALL_AMBIENTS), **EDIT)
def test_module_sweeps_over_generators_match_full_sweep(kernel_op, field, name,
                                                        col, row, offset):
    # module associativity runs its middle slot over generators of the
    # actor, module-algebra-product its slot y over generators of the carrier
    if ":" in name:
        actor = carrier = ambient(kernel_op, name, field)
        act = built(("adjoint", name, field), lambda: adjoint_map(actor))
    else:
        b, actor = operator(kernel_op, name, field)
        carrier, act = b.carrier, rb_mod.rb_action_map(b)
    action = ModuleAction(actor, carrier, edited(act, col, row, offset))
    got, want, ran = both_ways(lambda: str(module_algebra_report(action)))
    assert got == want
    assert ran


@SWEEPS
@given(field=st.sampled_from(FIELDS),
       name=st.sampled_from(CARRIERS + SMALL_AMBIENTS), **EDIT)
def test_multiplicative_sweep_over_generators_matches_full_sweep(
        kernel_op, field, name, col, row, offset):
    # B: H(B) -> H as descend sweeps it, and the identity of an ambient;
    # the first slot runs over generators of the source
    if ":" in name:
        source = target = ambient(kernel_op, name, field)
        f = LinearOp.identity(source.space)
    else:
        b, source = operator(kernel_op, name, field)
        target, f = b.carrier, b.map
    f = edited(f, col, row, offset)
    got, want, ran = both_ways(
        lambda: str(_multiplicative_witness(f, source, target)))
    assert got == want
    assert ran


@SWEEPS
@given(field=st.sampled_from(FIELDS), name=st.sampled_from(CARRIERS),
       data=st.data())
def test_posthopf_sweeps_over_generators_match_full_sweep(kernel_op, field,
                                                          name, data):
    # x ▶ y = φ_x(y) passes the coalgebra-map check and distributes over
    # products, so twisted associativity, φ_x φ_y = φ_{x φ_x(y)}, is swept
    # with its last slot over generators; on a transported carrier ▶ is
    # moved along the same bijection
    b, _ = operator(kernel_op, name, field)
    if name in GROUP_OPS:
        group_h, p = b.carrier, LinearOp.identity(b.carrier.space)
    else:
        group_h, p = transport_map(name, field)
    group = hopf_mod.basis_group(group_h)
    auts = automorphisms(group)
    phi = data.draw(st.lists(st.sampled_from(auts), min_size=group.order,
                             max_size=group.order))
    tri = permutation_action(group_h, phi)
    q = invert(p)
    tri = p.compose(tri).compose(kron(q, q))
    got, want, ran = both_ways(lambda: hk.verify_posthopf(b.carrier, tri).tri == tri)
    assert got == want
    assert ran


MATCHED = [(field, name) for field in FIELDS for name in CARRIERS
           if (field, name) != (QQ, "dense-Z3-inv")]


@SWEEPS
@given(pair=st.sampled_from(MATCHED), which=st.sampled_from(["lact", "ract"]),
       **EDIT)
def test_matched_pair_sweeps_over_generators_match_full_sweep_on_edits(
        kernel_op, pair, which, col, row, offset):
    # both module laws run a slot over generators; an edit that keeps them
    # reaches the later sweeps
    b, _ = operator(kernel_op, pair[1], pair[0])
    m = built(("matched",) + pair, lambda: hk.matched_pair_from_rb(b))
    maps = {"lact": m.lact, "ract": m.ract}
    maps[which] = edited(maps[which], col, row, offset)
    got, want, ran = both_ways(lambda: hk.verify_matched_pair(
        m.left, m.right, maps["lact"], maps["ract"]).lact == maps["lact"])
    assert got == want
    # the left unit law alone is swept before the first generator sweep
    assert ran or got[1].startswith("axiom 'left-module-unit'")


@SWEEPS
@given(field=st.sampled_from(FIELDS), name=st.sampled_from(["F2", "Z3#Z2"]),
       data=st.data())
def test_matched_pair_compatibilities_over_generators_match_full_sweep(
        field, name, data):
    # x ⇀ a = π(α(x) π⁻¹(a) α(x)⁻¹) and x ↼ a = π'(β(a)⁻¹ π'⁻¹(x) β(a)) for
    # endomorphisms α, β and permutations π, π' fixing e: both are actions
    # by permutations fixing e, so both module laws and the coalgebra
    # checks pass and both compatibilities are swept, their slots over
    # group generators, failing at slot values outside them too; on S3 and
    # on the Z3#Z2 smash product (S3 in another basis order)
    if name == "F2":
        h = built(("f2", field), lambda: fx.f2(field))
    else:
        def make():
            z3 = hk.group_algebra(gr.cyclic(3), field)
            z2 = hk.group_algebra(gr.cyclic(2), field)
            act = LinearOp(tensor_space(z2.space, z3.space), z3.space, [
                z3.basis(i if j == 0 else -i % 3) for j in range(2) for i in range(3)])
            return hk.smash_product(z3, z2, hk.module_action(z2, z3, act)).product
        h = built(("z3z2", field), make)
    group = hopf_mod.basis_group(h)
    ends = built(("ends", group.order), lambda: endomorphisms(group))
    alpha, beta = data.draw(st.sampled_from(ends)), data.draw(st.sampled_from(ends))
    e, t, inv = group.identity, group.table, group.inverse
    others = [x for x in range(h.dim) if x != e]
    pi, rho = ({e: e, **dict(zip(others, data.draw(st.permutations(others))))}
               for _ in range(2))
    pi_inv, rho_inv = ({v: k for k, v in m.items()} for m in (pi, rho))
    lact = permutation_action(h, [[pi[t[t[alpha[x]][pi_inv[a]]][inv[alpha[x]]]]
                                   for a in range(h.dim)] for x in range(h.dim)])
    ract = permutation_action(h, [[rho[t[t[inv[beta[a]]][rho_inv[x]]][beta[a]]]
                                   for a in range(h.dim)] for x in range(h.dim)])
    got, want, ran = both_ways(
        lambda: hk.verify_matched_pair(h, h, lact, ract).ract == ract)
    assert got == want
    assert ran
