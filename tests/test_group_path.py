"""The group layer as the accept-only path of verify_hopf, verify_rb,
verify_brace and the symmetry suite, and the group reads of group_algebra,
check_cocommutative and the descendent antipode.

On a carrier that ``hopf.basis_group`` recognizes as k[G] in its
group-like basis, verify_hopf passes every line with no sweep,
verify_rb decides a basis-to-basis map with ``groups.verify_rb_group``,
verify_brace accepts the skew-brace identity on two Cayley tables, and
T(g) = (B(g)⁻¹g⁻¹)B(g) is read off the table; group_algebra accepts k[G]
on the group it is given.  op-module and prop44 accept on rows of
a ⇀ c = a⁻¹(a∘c), and prop48 and prop49 on rows of u ▷ c = u c u⁻¹.
Every test here compares that path with the full sweeps and sums, which
stay callable as ``hopf._sweep_hopf``, ``rb._sweep_rb``, the int sweeps
of verify_brace and the suite with ``basis_group`` patched out, and the
element-form convolutions of ``tests/conftest.py``: the reports, maps,
exceptions and witnesses must be equal, each suite read must accept every
case that passes, and the recognizer must decline every table that is not
a group with the unit as identity and S as inverse.
"""

import dataclasses
import itertools
import random

import pytest

import hopfkit as hk
from hopfkit import groups as gr
from hopfkit import brace as brace_mod
from hopfkit import hopf as hopf_mod
from hopfkit import rb as rb_mod
from hopfkit.errors import (CompatibilityFails, IdentityFails,
                            NotCoalgebraMap, RBIdentityFails,
                            VerificationFailed)
from hopfkit.hopf import basis_group, basis_indices, scalar_space
from hopfkit.linalg import QQ, Field, LinearOp, tensor_space

from conftest import (reference_circle_mul, reference_convolution_antipode,
                      reference_rb_witness)
from test_acceptance import order_le_8_groups
from test_groups import LOOP5, first_associativity_failure
from test_hopf import perturbed
from test_rb import paper_circle_columns

FIELDS = [QQ, Field(7)]
ORDER_LE_8 = order_le_8_groups()
GROUPS = ORDER_LE_8 + [gr.dihedral(6), gr.symmetric(4)]


def grouplike_carrier(table, unit, anti, field=QQ, labels=None):
    """The unvalidated carrier with basis e_0..e_{n-1}, Δe_i = e_i⊗e_i,
    ε(e_i) = 1, e_i e_j = e_{table[i][j]}, unit e_unit and S(e_i) =
    e_{anti[i]}."""
    n = len(table)
    space = hk.BasedSpace(tuple(labels or (f"x{i}" for i in range(n))), field)
    hh = tensor_space(space, space)
    ssp = scalar_space(field)
    return hk.hopf_from_structure(
        space,
        LinearOp(hh, space, [space.basis(table[i][j])
                             for i in range(n) for j in range(n)]),
        space.basis(unit),
        LinearOp(space, hh, [hh.basis(i * n + i) for i in range(n)]),
        LinearOp(space, ssp, [ssp.basis(0)] * n),
        LinearOp(space, space, [space.basis(anti[i]) for i in range(n)]))


def assert_hopf_agrees(h):
    """verify_hopf gives the full sweep's report, line by line."""
    expected = hopf_mod._sweep_hopf(h)
    h.validated = False
    assert hk.verify_hopf(h).checks == expected.checks
    assert h.validated == expected.passed


def raised(fn, *args):
    try:
        fn(*args)
    except VerificationFailed as exc:
        return type(exc), str(exc), exc.witness
    return None


# -- verify_hopf --------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_group_algebras_take_the_group_path(field):
    for g in GROUPS:
        h = hk.group_algebra(g, field)
        found = basis_group(h)
        assert found is not None
        assert (found.table, found.identity, found.inverse) == (
            g.table, g.identity, g.inverse)
        assert_hopf_agrees(h)
        assert hk.verify_hopf(h).passed


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_group_algebra_stores_the_group_the_sweep_accepts(field):
    # group_algebra accepts h on the group it was given; a replace copy
    # has no stored verdict, so the full sweep and the recognizer decide it
    for g in GROUPS:
        h = hk.group_algebra(g, field)
        assert h.validated and h._group is g
        assert hk.verify_hopf(h).checks == hopf_mod._passing_report().checks
        copy = dataclasses.replace(h)
        assert copy._report is None
        assert hopf_mod._sweep_hopf(copy).passed
        found = basis_group(copy)
        # the given group keeps its name; the recognized one is called "G"
        assert found == dataclasses.replace(g, name=found.name)
        assert found.generators == g.generators


def test_group_path_runs_no_sweep(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran on a group algebra")
    monkeypatch.setattr(hopf_mod, "_sweep_hopf", no_sweep)
    monkeypatch.setattr(hopf_mod, "flip_tensor", no_sweep)
    monkeypatch.setattr(rb_mod, "_sweep_rb", no_sweep)
    monkeypatch.setattr(rb_mod, "convolution", no_sweep)
    monkeypatch.setattr(brace_mod, "int_witness", no_sweep)
    h = hk.group_algebra(gr.dihedral(4))
    assert [c.name for c in hk.verify_hopf(h).checks] == list(
        hopf_mod.HOPF_AXIOMS)
    assert hk.check_cocommutative(h)
    for op in gr.enumerate_rb_group_ops(gr.dihedral(4)):
        b = hk.verify_rb(h, gr.lift_map(h, op.table))
        assert b.validated
        assert hk.brace_from_rb(b).validated
    assert hk.flip_brace(h).validated
    assert hk.trivial_brace(h).validated


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_cocommutative_read_agrees_with_the_flip_sweep(field, monkeypatch):
    # a copy accepted with basis_group patched out stores no group, so
    # check_cocommutative sweeps the flipped coproduct
    for g in GROUPS:
        h = hk.group_algebra(g, field)
        copy = dataclasses.replace(h)
        with monkeypatch.context() as m:
            m.setattr(hopf_mod, "basis_group", lambda h: None)
            assert hk.verify_hopf(copy).passed
        assert h._group is g and copy._group is None
        assert hk.check_cocommutative(h) == hk.check_cocommutative(copy)


def one_entry_edit(seed):
    """A group-like carrier whose mul, unit or antipode index table has
    one entry moved to another basis vector: a row that is no permutation,
    a unit that is not the identity, or an S(e_i) that is not e_i⁻¹."""
    rng = random.Random(seed)
    g = rng.choice(GROUPS[1:])      # the trivial group has no other entry
    n = g.order
    table = [list(row) for row in g.table]
    unit, anti = g.identity, list(g.inverse)
    part = ("mul", "unit", "antipode")[seed % 3]
    if part == "mul":
        i, j = rng.randrange(n), rng.randrange(n)
        table[i][j] = rng.choice([k for k in range(n) if k != table[i][j]])
    elif part == "unit":
        unit = rng.choice([k for k in range(n) if k != unit])
    else:
        i = rng.randrange(n)
        anti[i] = rng.choice([k for k in range(n) if k != anti[i]])
    return part, table, unit, anti, g.labels


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(24))
def test_edited_index_tables_are_declined_with_the_sweep_witness(seed, field):
    part, table, unit, anti, labels = one_entry_edit(seed)
    h = grouplike_carrier(table, unit, anti, field, labels)
    assert basis_group(h) is None
    assert_hopf_agrees(h)
    report = hk.verify_hopf(h)
    assert not report.passed
    expected = {"mul": "associativity", "unit": "unit",
                "antipode": "antipode"}[part]
    if part != "mul":           # a mul edit may first break another line
        assert report.first_failure().name == expected


def test_recognizer_checks_unit_and_inverse():
    # S4 with the unit moved to e_1, and with S(e_1) moved to e_2: each
    # table is still a group, so only the comparisons with the group's
    # identity and inverse decline them
    g = gr.symmetric(4)
    moved_unit = grouplike_carrier(g.table, 1, g.inverse, QQ, g.labels)
    anti = list(g.inverse)
    anti[1] = 2
    moved_inverse = grouplike_carrier(g.table, 0, anti, QQ, g.labels)
    for h, axiom in ((moved_unit, "unit"), (moved_inverse, "antipode")):
        assert basis_group(h) is None
        report = hk.verify_hopf(h)
        assert report.first_failure().name == axiom


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_loop_is_declined_and_reports_associativity(field):
    # every element of LOOP5 is its own inverse, so S = id
    labels = ("e", "a", "b", "c", "d")
    h = grouplike_carrier(LOOP5, 0, range(5), field, labels)
    assert basis_group(h) is None
    assert_hopf_agrees(h)
    a, b, c = first_associativity_failure(LOOP5)
    report = hk.verify_hopf(h)
    assert report.first_failure().name == "associativity"
    w = report["associativity"].witness
    one = "1/1" if field.p == 0 else "1"
    assert w.at == (labels[a], labels[b], labels[c])
    assert (w.lhs, w.rhs) == (f"{one}*{labels[LOOP5[LOOP5[a][b]][c]]}",
                              f"{one}*{labels[LOOP5[a][LOOP5[b][c]]]}")


def declined_shapes(field):
    """Q[S3] (e, r, r2, s, rs, r2s) with 1 added to one structure
    constant, off the group-like shape."""
    h = hk.group_algebra(gr.dihedral(3), field)
    n = h.dim
    return {
        "product-coefficient-2": perturbed(h, "mul", 1 * n + 2, 0, 1),
        "unit-coefficient-2": perturbed(h, "unit", 0, 0, 1),
        "antipode-coefficient-2": perturbed(h, "antipode", 3, 3, 1),
        "counit-2": perturbed(h, "counit", 1, 0, 1),
        "two-term-comul": perturbed(h, "comul", 1, 0, 1),
        "two-term-product": perturbed(h, "mul", 1 * n + 1, 0, 1),
    }


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("shape", sorted(declined_shapes(QQ)))
def test_off_shape_carriers_are_declined(shape, field):
    h = declined_shapes(field)[shape]
    assert basis_group(h) is None
    assert_hopf_agrees(h)
    assert not hk.verify_hopf(h).passed


# -- verify_rb ----------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_lifted_operators_match_the_paper_circle(field):
    for g in ORDER_LE_8:
        for op in gr.enumerate_rb_group_ops(g):
            lift = gr.lift_to_group_algebra(op, field)
            assert lift.validated
            assert list(lift.circle.columns) == paper_circle_columns(lift)
            swept = rb_mod._sweep_rb(lift.carrier, lift.map)
            assert swept.validated and swept.circle == lift.circle


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(16))
def test_basis_maps_give_the_sweep_verdict(seed, field):
    rng = random.Random(seed)
    g = rng.choice(GROUPS)
    h = hk.group_algebra(g, field)
    b = gr.lift_map(h, [g.identity] + [rng.randrange(g.order)
                                       for _ in range(g.order - 1)])
    expected = raised(rb_mod._sweep_rb, h, b)
    assert raised(hk.verify_rb, h, b) == expected
    if expected is not None:
        assert expected[0] is RBIdentityFails


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_maps_off_the_basis_give_the_sweep_witness(field):
    h = hk.group_algebra(gr.dihedral(3), field)
    inverse = list(h.antipode.columns)
    for col in (h.basis(0).scale(2), h.basis(0) + h.basis(3)):
        b = LinearOp(h.space, h.space, [col] + inverse[1:])
        expected = raised(rb_mod._sweep_rb, h, b)
        assert expected is not None and expected[0] is NotCoalgebraMap
        assert raised(hk.verify_rb, h, b) == expected


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("group", [gr.dihedral(3), gr.dihedral(4),
                                   gr.quaternion_group()], ids=str)
def test_group_read_of_the_circle_on_basis_maps_that_fail(group, field):
    # x ∘_B y = x B(x) y B(x)⁻¹ holds for every basis-to-basis B, so the
    # group read must equal the paper's formula, and the sweep through it
    # the reference witness, when the Rota-Baxter identity fails; on a
    # nonabelian group a side or bracketing error in the read changes ∘_B
    rng = random.Random(group.order)
    h = hk.group_algebra(group, field)
    failing = 0
    for _ in range(12):
        b = gr.lift_map(h, [rng.randrange(group.order)
                            for _ in range(group.order)])
        try:
            gr.verify_rb_group(basis_group(h), basis_indices(b.columns))
        except IdentityFails:
            failing += 1
        else:
            continue
        assert rb_mod._circle_mul(h, b) == reference_circle_mul(h, b)
        with pytest.raises(RBIdentityFails) as exc:
            rb_mod._sweep_rb(h, b)
        assert exc.value.witness == reference_rb_witness(h, b)
    assert failing >= 10


# -- the paper's correspondence, from Cayley tables ----------------------------

@pytest.mark.parametrize("group", [gr.dihedral(3), gr.dihedral(4),
                                   gr.quaternion_group()], ids=str)
def test_descendent_group_is_the_skew_brace_circle_group(group):
    # H(B) of the lift of B is k[(G, ∘)] in the same basis: the group the
    # recognizer reads off its table is the ∘ group of the skew brace of B
    for op in gr.enumerate_rb_group_ops(group):
        d = hk.descend(gr.lift_to_group_algebra(op))
        found = basis_group(d.hopf)
        assert found is not None
        circle = gr.skew_brace_from_rb_group(op).circle
        assert found.table == circle
        assert found.identity == group.identity
        assert all(circle[x][found.inverse[x]] == group.identity
                   for x in range(group.order))


# -- the descendent antipode ---------------------------------------------------

def drawn_basis_maps(h, g, rng, count):
    """``count`` basis-to-basis maps of k[G] that fix the identity and are
    no Rota-Baxter operator of G."""
    out = []
    while len(out) < count:
        table = [rng.randrange(g.order) for _ in range(g.order)]
        table[g.identity] = g.identity
        try:
            gr.verify_rb_group(g, table)
        except IdentityFails:
            out.append(gr.lift_map(h, table))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_group_read_of_the_antipode_is_the_convolution_form(field):
    # every Rota-Baxter operator, and basis maps that are not one: the
    # witnesses of prop48 and lemma218 take T of unverified maps
    rng = random.Random(field.p)
    for g in GROUPS:
        h = hk.group_algebra(g, field)
        ops = [gr.lift_map(h, op.table) for op in gr.enumerate_rb_group_ops(g)]
        maps = ops + (drawn_basis_maps(h, g, rng, 6) if g.order > 2 else [])
        for b in maps:
            assert rb_mod.descendent_antipode(h, b) == \
                reference_convolution_antipode(h, b)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("group", [gr.dihedral(3), gr.dihedral(4),
                                   gr.quaternion_group()], ids=str)
def test_antipode_witnesses_match_the_convolution_path(group, field,
                                                       monkeypatch):
    h = hk.group_algebra(group, field)
    rng = random.Random(group.order)
    maps = [gr.lift_map(h, op.table)
            for op in gr.enumerate_rb_group_ops(group)[:4]]
    maps += drawn_basis_maps(h, group, rng, 4)

    def witnesses():
        return [(rb_mod.descendent_antipode_inverse_witness(h, b),
                 brace_mod.rb_symmetric_sufficient_witness(h, b))
                for b in maps]
    expected = witnesses()
    monkeypatch.setattr(rb_mod, "basis_group", lambda h: None)
    assert witnesses() == expected
    assert any(w is not None for pair in expected for w in pair)


# -- verify_brace ----------------------------------------------------------------

def brace_outcome(dot, circle):
    try:
        return hk.verify_brace(dot, circle).validated
    except VerificationFailed as exc:
        return type(exc), str(exc), exc.witness


def assert_brace_agrees(dot, circle, monkeypatch):
    """verify_brace gives the int sweep's verdict, exception and witness;
    returns it."""
    got = brace_outcome(dot, circle)
    with monkeypatch.context() as m:
        m.setattr(brace_mod, "basis_group", lambda h: None)
        assert brace_outcome(dot, circle) == got
    return got


def relabelled(table, x, y):
    """The table moved along the swap of x and y: a group isomorphic to
    ``table``, with the same identity when neither x nor y is it."""
    sigma = list(range(len(table)))
    sigma[x], sigma[y] = y, x
    return [[sigma[table[sigma[a]][sigma[b]]] for b in range(len(table))]
            for a in range(len(table))]


def circle_carrier(dot, table):
    """The group-like carrier on the basis of ``dot`` with product table
    ``table`` and the unit of ``dot``."""
    k = gr.FiniteGroup(tuple(map(tuple, table)), dot.space.labels)
    return grouplike_carrier(table, k.identity, k.inverse, dot.field,
                             dot.space.labels)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_brace_group_path_agrees_on_valid_braces(field, monkeypatch):
    # the braces of every lifted operator, and the flip brace
    for g in GROUPS:
        h = hk.group_algebra(g, field)
        circles = [hk.descend(gr.lift_to_group_algebra(op, field)).hopf
                   for op in gr.enumerate_rb_group_ops(g)]
        circles.append(hk.opposite_hopf(h))
        for circle in circles:
            assert basis_group(circle) is not None
            assert assert_brace_agrees(h, circle, monkeypatch) is True


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_brace_group_path_agrees_on_relabelled_circle_tables(field,
                                                              monkeypatch):
    # the ∘ table of a lifted operator moved along a swap of two
    # non-identity elements stays a group on the same coalgebra, so both
    # structures are recognized; most such pairs are no brace
    rng = random.Random(5)
    failing = 0
    for g in GROUPS:
        if g.order < 3:
            continue
        h = hk.group_algebra(g, field)
        ops = gr.enumerate_rb_group_ops(g)
        others = [x for x in range(g.order) if x != g.identity]
        pairs = [(x, y) for i, x in enumerate(others) for y in others[i + 1:]]
        draws = 2 if g.order > 8 else 6
        for _ in range(draws):
            circle = gr.skew_brace_from_rb_group(rng.choice(ops)).circle
            x, y = rng.choice(pairs)
            k = circle_carrier(h, relabelled(circle, x, y))
            assert basis_group(k) is not None
            outcome = assert_brace_agrees(h, k, monkeypatch)
            if outcome is not True:
                assert outcome[0] is CompatibilityFails
                failing += 1
    assert failing >= 20


# -- the symmetry suite: op-module, prop44, prop48 and prop49 -------------------

SUITE_GROUPS = ORDER_LE_8 + [gr.dihedral(6)]


def suite_outcomes(checks, monkeypatch, reads=True):
    """The witness of each check, called with no argument, and whether its
    int sweep ran; with ``reads`` off, ``basis_group`` is None in ``brace``
    and ``rb``, where the reads of the suite take it."""
    ran = []

    def counted(sweep):
        def run(*args, **kwargs):
            ran.append(1)
            return sweep(*args, **kwargs)
        return run
    with monkeypatch.context() as m:
        for name in ("int_witness", "_associativity_witness"):
            m.setattr(brace_mod, name, counted(getattr(brace_mod, name)))
        if not reads:
            for mod in (brace_mod, rb_mod):
                m.setattr(mod, "basis_group", lambda h: None)
        out = []
        for check in checks:
            ran.clear()
            out.append((check(), bool(ran)))
        return out


def assert_suite_agrees(checks, monkeypatch):
    """Each check gives the sweep's verdict and witness, and its read
    accepts every case that passes: it is exact, so the sweep runs only
    on a failure.  Returns the witnesses."""
    got = suite_outcomes(checks, monkeypatch)
    swept = suite_outcomes(checks, monkeypatch, reads=False)
    assert [w for w, _ in got] == [w for w, _ in swept]
    assert all(ran for _, ran in swept)
    assert [ran for _, ran in got] == [w is not None for w, _ in got]
    return [w for w, _ in got]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("group", SUITE_GROUPS, ids=str)
def test_suite_reads_agree_on_every_operator(group, field, monkeypatch):
    # the four checks on the lift of every Rota-Baxter operator and on its
    # brace; on D6 and the nonabelian groups of order 6 and 8 some fail
    h = hk.group_algebra(group, field)
    for op in gr.enumerate_rb_group_ops(group):
        b = gr.lift_map(h, op.table)
        br = hk.brace_from_rb(hk.verify_rb(h, b))
        assert_suite_agrees([
            lambda: brace_mod.op_module_witness(br),
            lambda: brace_mod.symmetric_sufficient_witness(br),
            lambda: brace_mod.rb_symmetric_sufficient_witness(h, b),
            lambda: brace_mod.rb_op_module_witness(h, b)], monkeypatch)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("group", [g for g in SUITE_GROUPS if g.order > 2],
                         ids=str)
def test_suite_reads_agree_on_basis_maps_that_are_no_operator(group, field,
                                                               monkeypatch):
    # prop48 and prop49 take any map: seeded basis maps that fix e and are
    # no Rota-Baxter operator, and the inner automorphisms, which are
    # multiplicative, so B(ab) = B(a)B(b) while B(ba) ▷ c may differ
    h = hk.group_algebra(group, field)
    rng = random.Random(group.order + field.p)
    maps = drawn_basis_maps(h, group, rng, 6) + [
        gr.lift_map(h, gr.conjugation_automorphism(group, x))
        for x in range(group.order)]
    for b in maps:
        assert_suite_agrees([
            lambda: brace_mod.rb_symmetric_sufficient_witness(h, b),
            lambda: brace_mod.rb_op_module_witness(h, b)], monkeypatch)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_suite_reads_agree_on_every_basis_permutation_of_s3(field,
                                                            monkeypatch):
    # the 120 permutations of the basis of Q[S3] that fix e: five of them
    # fail prop48 but pass it with B(T(a)) read as B(a⁻¹)
    g = gr.dihedral(3)
    h = hk.group_algebra(g, field)
    passed = 0
    for perm in itertools.permutations(range(1, g.order)):
        b = gr.lift_map(h, (g.identity, *perm))
        passed += assert_suite_agrees([
            lambda: brace_mod.rb_symmetric_sufficient_witness(h, b),
            lambda: brace_mod.rb_op_module_witness(h, b)],
            monkeypatch).count(None)
    assert passed > 0


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_suite_read_tables_are_the_swept_maps(field):
    # the ⇀ and ▷ rows that the reads compare are the columns of the
    # derived action and of the adjoint action that the sweeps read
    for g in SUITE_GROUPS:
        h = hk.group_algebra(g, field)
        n = g.order
        conj = brace_mod._conjugation_rows(g)
        assert [h.basis(conj[u][c]) for u in range(n) for c in range(n)] == \
            list(hopf_mod.adjoint_map(h).columns)
        for op in gr.enumerate_rb_group_ops(g)[:8]:
            br = hk.brace_from_rb(gr.lift_to_group_algebra(op, field))
            act = brace_mod._action_rows(br)[2]
            assert [h.basis(act[a][c]) for a in range(n) for c in range(n)] \
                == list(brace_mod.derived_action_map(br).columns)
