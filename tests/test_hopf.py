"""Hopf axiom verification, constructors, actions, convolution inverses."""

import dataclasses
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hopfkit as hk
from hopfkit import fixtures as fx
from hopfkit import groups as gr
from hopfkit import rb as rb_mod
from hopfkit.definitions import parse_file
from hopfkit.errors import (AxiomFails, DimensionMismatch,
                            NotConvolutionInvertible, UnvalidatedInput)
from hopfkit.hopf import (ModuleAction, adjoint_action, adjoint_map,
                          check_module_bialgebra, coalgebra_morphism_witness,
                          convolution, leg_table, scalar_space, transport_hopf,
                          trivial_action, trivial_map, twisted_product,
                          unit_counit_map)
from hopfkit.linalg import (BasedSpace, Element, Field, LinearOp, QQ,
                            accumulate, tensor_elem, tensor_index,
                            tensor_space, tensor_split)
from hopfkit.report import AxiomReport, Witness

from conftest import (KERNEL_OPS, reference_adjoint_map, reference_circle_mul,
                      reference_coalgebra_morphism_witness,
                      reference_convolution, reference_module_bialgebra,
                      reference_twisted_product, sweedler, sweedler_four_dim,
                      tensor_square, transported)

ORACLE = settings(max_examples=20, deadline=None, database=None)
FIXTURE_DIR = Path(__file__).resolve().parent.parent / "docs" / "fixtures"


def inversion_action_z2_on_z3():
    """Z2 acting on Q[Z3] by inversion (the twist of S3 = Z3 ⋊ Z2)."""
    h = hk.group_algebra(gr.cyclic(3))
    k = hk.group_algebra(gr.cyclic(2))
    cols = []
    for j in range(2):
        for i in range(3):
            cols.append(h.space.basis(i if j == 0 else (-i) % 3))
    act = LinearOp(tensor_space(k.space, h.space), h.space, cols)
    return hk.module_action(k, h, act)


# -- verify_hopf ----------------------------------------------------------------

def test_verify_hopf_group_algebras_pass(f1, f2):
    for h in (f1, f2):
        report = hk.verify_hopf(h)
        assert report.passed
        assert [c.name for c in report.checks] == [
            "associativity", "unit", "coassociativity", "counit",
            "bialgebra-compatibility", "antipode"]


def test_verify_hopf_bad_antipode_fails_at_r(f2):
    bad = hk.hopf_from_structure(f2.space, f2.mul, f2.unit, f2.comul,
                                 f2.counit, LinearOp.identity(f2.space))
    report = hk.verify_hopf(bad)
    assert not report.passed
    fail = report["antipode"]
    assert not fail.passed
    assert fail.witness.at == ("r",)


# -- associativity kernel against an element-level sweep -------------------------

def reference_associativity(h):
    """(at, lhs, rhs) of the first failing basis triple, or None."""
    for i in range(h.dim):
        for j in range(h.dim):
            for k in range(h.dim):
                lhs = h.product(h.mul_basis(i, j), h.basis(k))
                rhs = h.product(h.basis(i), h.mul_basis(j, k))
                if lhs != rhs:
                    return ((h.label(i), h.label(j), h.label(k)),
                            str(lhs), str(rhs))
    return None


def assert_associativity_matches_reference(h, mul_cols):
    h = hk.hopf_from_structure(h.space, LinearOp(h.hh, h.space, mul_cols),
                               h.unit, h.comul, h.counit, h.antipode)
    check = hk.verify_hopf(h)["associativity"]
    expected = reference_associativity(h)
    assert check.passed == (expected is None)
    if expected is not None:
        w = check.witness
        assert (w.at, w.lhs, w.rhs) == expected


@ORACLE
@given(group=st.sampled_from([gr.cyclic(4), gr.dihedral(3)]),
       field=st.sampled_from([QQ, Field(7)]), data=st.data())
def test_associativity_kernel_group_table_swap(group, field, data):
    h = hk.group_algebra(group, field)
    cols = list(h.mul.columns)
    a, b = (data.draw(st.integers(0, len(cols) - 1)) for _ in range(2))
    cols[a], cols[b] = cols[b], cols[a]
    assert_associativity_matches_reference(h, cols)


@ORACLE
@given(field=st.sampled_from([QQ, Field(7)]), data=st.data())
def test_associativity_kernel_scaled_single_terms(field, data):
    """e_a e_b = f(a) f(b) / f(ab) e_ab is associative for every f; over
    F_7 the two sides' coefficient products agree only mod 7.  f(e) != 1
    keeps a non-unit coefficient, so the table path cannot apply."""
    group = gr.dihedral(3)
    h = hk.group_algebra(group, field)
    f = [field.of(data.draw(st.integers(2 if g == group.identity else 1, 6)))
         for g in range(group.order)]
    cols = []
    for a in range(group.order):
        for b in range(group.order):
            ab = group.table[a][b]
            c = field.mul(field.mul(f[a], f[b]), field.inv(f[ab]))
            cols.append(h.space.basis(ab).scale(c))
    if data.draw(st.booleans()):
        pos = data.draw(st.integers(0, len(cols) - 1))
        cols[pos] = cols[pos].scale(field.of(data.draw(st.integers(2, 6))))
    assert_associativity_matches_reference(h, cols)


@ORACLE
@given(pos=st.integers(0, 8), idx=st.integers(0, 2),
       delta=st.fractions(min_value=-2, max_value=2, max_denominator=3))
def test_associativity_kernel_dense_transport(pos, idx, delta):
    h = hk.group_algebra(gr.cyclic(3))
    space = BasedSpace(("u", "v", "w"))
    p = LinearOp(h.space, space, [
        Element(space, {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(-1)}),
        Element(space, {0: Fraction(2, 3), 1: Fraction(1), 2: Fraction(1)}),
        Element(space, {0: Fraction(-1), 1: Fraction(1, 3), 2: Fraction(2)})])
    dense = transport_hopf(h, p)
    cols = list(dense.mul.columns)
    coeffs = dict(cols[pos].coeffs)
    coeffs[idx] = coeffs.get(idx, 0) + delta
    cols[pos] = Element(space, coeffs)
    assert_associativity_matches_reference(dense, cols)


# -- every sweep against element-level per-tuple sweeps ---------------------------

def reference_verify_hopf(h):
    """Every Hopf axiom swept tuple by tuple on elements, in the report
    format of verify_hopf; the unit, counit and ε(1) witnesses show the
    side that failed."""
    report = AxiomReport()
    dim, field = h.dim, h.field

    def wit(at, lhs, rhs):
        return Witness(tuple(h.label(i) for i in at), str(lhs), str(rhs))

    expected = reference_associativity(h)
    report.add("associativity", expected and Witness(*expected))

    w = None
    for i in range(dim):
        e = h.basis(i)
        left, right = h.product(h.unit, e), h.product(e, h.unit)
        if left != e or right != e:
            w = wit((i,), left if left != e else right, e)
            break
    report.add("unit", w)

    w = None
    for i in range(dim):
        left, right = {}, {}
        for pair, c in h.comul.columns[i].coeffs.items():
            a, b = tensor_split(pair, dim)
            for sub, c2 in h.comul.columns[a].coeffs.items():
                x, y = tensor_split(sub, dim)
                left[(x, y, b)] = field.add(left.get((x, y, b), 0),
                                            field.mul(c, c2))
            for sub, c2 in h.comul.columns[b].coeffs.items():
                x, y = tensor_split(sub, dim)
                right[(a, x, y)] = field.add(right.get((a, x, y), 0),
                                             field.mul(c, c2))
        if ({k: v for k, v in left.items() if v != 0}
                != {k: v for k, v in right.items() if v != 0}):
            w = wit((i,), "(Δ⊗id)Δ", "(id⊗Δ)Δ")
            break
    report.add("coassociativity", w)

    w = None
    for i in range(dim):
        terms = [(c, *tensor_split(q, dim))
                 for q, c in h.comul.columns[i].coeffs.items()]
        lhs = accumulate(h.space, ((field.mul(c, h._eps[a]), h.basis(b))
                                   for c, a, b in terms))
        rhs = accumulate(h.space, ((field.mul(c, h._eps[b]), h.basis(a))
                                   for c, a, b in terms))
        if lhs != h.basis(i) or rhs != h.basis(i):
            w = wit((i,), lhs if lhs != h.basis(i) else rhs, h.basis(i))
            break
    report.add("counit", w)

    w = None
    if h.comul(h.unit) != tensor_elem(h.hh, h.unit, h.unit):
        w = Witness(("1",), str(h.comul(h.unit)), "1⊗1")
    elif h.counit_scalar(h.unit) != field.one:
        w = Witness(("1",), str(h.counit_scalar(h.unit)), str(field.one))
    else:
        for i in range(dim):
            for j in range(dim):
                prod = h.mul_basis(i, j)
                lhs = h.comul(prod)
                rhs = tensor_square(h, h.comul.columns[i], h.comul.columns[j])
                if lhs != rhs:
                    w = wit((i, j), lhs, rhs)
                    break
                if h.counit_scalar(prod) != field.mul(h._eps[i], h._eps[j]):
                    w = wit((i, j), h.counit_scalar(prod),
                            field.mul(h._eps[i], h._eps[j]))
                    break
            if w:
                break
    report.add("bialgebra-compatibility", w)

    w = None
    for i in range(dim):
        target = h.unit.scale(h._eps[i])
        terms = [(c, *tensor_split(q, dim))
                 for q, c in h.comul.columns[i].coeffs.items()]
        lhs = accumulate(h.space, ((c, h.product(h.antipode(h.basis(a)),
                                                 h.basis(b)))
                                   for c, a, b in terms))
        rhs = accumulate(h.space, ((c, h.product(h.basis(a),
                                                 h.antipode(h.basis(b))))
                                   for c, a, b in terms))
        if lhs != target or rhs != target:
            w = wit((i,), lhs if lhs != target else rhs, target)
            break
    report.add("antipode", w)
    return report


def assert_verify_matches_reference(h):
    expected = reference_verify_hopf(h)
    report = hk.verify_hopf(h)
    assert str(report) == str(expected)
    assert h.validated == expected.passed


FIELDS = [QQ, Field(7)]


def dense_z2(field=QQ):
    h = hk.group_algebra(gr.cyclic(2), field)
    space = BasedSpace(("u", "v"), field)
    return transport_hopf(h, LinearOp(h.space, space, [
        Element(space, {0: Fraction(1), 1: Fraction(-1, 3)}),
        Element(space, {0: Fraction(1, 2), 1: Fraction(2)})]))


def dense_z3(field=QQ):
    h = hk.group_algebra(gr.cyclic(3), field)
    space = BasedSpace(("u", "v", "w"), field)
    return transport_hopf(h, LinearOp(h.space, space, [
        Element(space, {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(-1)}),
        Element(space, {0: Fraction(2, 3), 1: Fraction(1), 2: Fraction(1)}),
        Element(space, {0: Fraction(-1), 1: Fraction(1, 3), 2: Fraction(2)})]))


def dense_z2_squared(field=QQ):
    """dense Z2 ⊗ dense Z2: dimension 4, with 16-term Δ columns."""
    return hk.tensor_hopf(dense_z2(field), dense_z2(field))


def mixed_s3(field=QQ):
    """Q[S3] with r2 and r2s mixed: one-term and two-term Δ columns."""
    return transported("mixed-S3-inv", field)[0]


MANY_TERM_LEGS = [dense_z2, dense_z3, dense_z2_squared, mixed_s3]


def carriers(field):
    """The shipped fixtures, group algebras and dense transported carriers."""
    out = [fx.f1(field), fx.f2(field), sweedler_four_dim(field),
           hk.group_algebra(gr.trivial_group(), field),
           hk.group_algebra(gr.cyclic(4), field),
           hk.group_algebra(gr.direct_product(gr.cyclic(2), gr.cyclic(2)),
                            field),
           hk.group_algebra(gr.quaternion_group(), field),
           dense_z2(field), dense_z3(field)]
    for path in sorted(FIXTURE_DIR.glob("*.json")):
        defs = parse_file(path, field)
        out += [d.obj for d in defs.declarations if d.kind == "hopf"]
    return out


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_verify_hopf_matches_reference_on_carriers(field):
    for h in carriers(field):
        assert_verify_matches_reference(h)


def z3(field):
    return hk.group_algebra(gr.cyclic(3), field)


def perturbed(h, part, col, row, offset):
    """h with one entry of one structure map moved by ``offset``."""
    maps = {"mul": h.mul, "comul": h.comul, "counit": h.counit,
            "antipode": h.antipode}
    unit = h.unit
    if part == "unit":
        coeffs = dict(unit.coeffs)
        coeffs[row % h.dim] = coeffs.get(row % h.dim, 0) + offset
        unit = Element(h.space, coeffs)
    else:
        op = maps[part]
        cols = list(op.columns)
        c = cols[col % len(cols)]
        r = row % op.codomain.dim
        coeffs = dict(c.coeffs)
        coeffs[r] = coeffs.get(r, 0) + offset
        cols[col % len(cols)] = Element(op.codomain, coeffs)
        maps[part] = LinearOp(op.domain, op.codomain, cols)
    return hk.hopf_from_structure(h.space, maps["mul"], unit, maps["comul"],
                                  maps["counit"], maps["antipode"])


@ORACLE
@given(field=st.sampled_from(FIELDS), data=st.data(),
       part=st.sampled_from(["mul", "unit", "comul", "counit", "antipode"]),
       col=st.integers(0, 80), row=st.integers(0, 80),
       offset=st.one_of(st.integers(1, 6),
                        st.fractions(min_value=-2, max_value=2,
                                     max_denominator=3).filter(bool)))
def test_verify_hopf_matches_reference_on_perturbations(field, data, part,
                                                        col, row, offset):
    base = data.draw(st.sampled_from([fx.f1, z3, fx.f2, *MANY_TERM_LEGS]))
    h = perturbed(base(field), part, col, row, offset)
    assert_verify_matches_reference(h)


def comul_edited_keeping_unit(h, col, row, offset):
    """h with ``offset`` added at ``row`` of Δ(e_col) and, when the unit
    1 = Σ u_k e_k has a term at col, the entry at ``row`` of Δ(e_k) for
    the first other such k moved back by u_col·offset/u_k: Δ(1) = 1⊗1 still
    holds, so the compatibility sweep goes on to the basis pairs."""
    bad = perturbed(h, "comul", col, row, offset)
    u = h.unit.coeffs
    if col in u:
        k = min(k for k in u if k != col)
        bad = perturbed(bad, "comul", k, row, -Fraction(u[col]) * offset / u[k])
    return bad


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("base", MANY_TERM_LEGS, ids=lambda f: f.__name__)
def test_compatibility_sweep_matches_reference_on_comul_edits(field, base):
    # An edit off the diagonal of H ⊗ H makes Δ non-cocommutative, so a
    # sweep that read a leg pair c⊗d as d⊗c would give another witness.
    h = base(field)
    dim = h.dim
    for col in range(dim):
        if set(h.unit.coeffs) == {col}:
            continue            # Δ(1) moves with Δ(e_col)
        for row, offset in ((1, 1), (dim + 2, Fraction(-1, 2)),
                            (2 * dim - 1, 3)):
            bad = comul_edited_keeping_unit(h, col, row, offset)
            assert_verify_matches_reference(bad)
            line = str(hk.verify_hopf(bad)).splitlines()[4]
            assert line.startswith("FAIL  bialgebra-compatibility  [at (")
            assert not line.startswith("FAIL  bialgebra-compatibility  [at (1)")


def z2_with(part, index, value):
    """Q[Z2] with one entry of ``mul`` or ``comul`` replaced."""
    h = fx.f1()
    op = getattr(h, part)
    cols = list(op.columns)
    cols[index] = value
    maps = {"mul": h.mul, "comul": h.comul,
            part: LinearOp(op.domain, op.codomain, cols)}
    return hk.hopf_from_structure(h.space, maps["mul"], h.unit, maps["comul"],
                                  h.counit, h.antipode)


def test_unit_witness_shows_failing_right_side():
    # g·e := e, so 1·g = g holds and only g·1 = e fails
    h = fx.f1()
    bad = z2_with("mul", tensor_index(1, 0, 2), h.basis(0))
    assert ("FAIL  unit  [at (g): lhs = 1/1*e, rhs = 1/1*g]"
            in str(hk.verify_hopf(bad)))


def test_counit_witness_shows_failing_right_side():
    # Δ(g) := e⊗g, so (ε⊗id)Δ(g) = g holds and only (id⊗ε)Δ(g) = e fails
    h = fx.f1()
    bad = z2_with("comul", 1, Element(h.hh, {tensor_index(0, 1, 2): 1}))
    assert ("FAIL  counit  [at (g): lhs = 1/1*e, rhs = 1/1*g]"
            in str(hk.verify_hopf(bad)))


def test_compatibility_witness_shows_counit_of_unit():
    # ε(e) := 2 while Δ(e) = e⊗e, so ε(1) = 2 is set against 1
    h = hk.group_algebra(gr.cyclic(3))
    ssp = scalar_space(QQ)
    counit = LinearOp(h.space, ssp,
                      [ssp.basis(0).scale(2), *h.counit.columns[1:]])
    bad = hk.hopf_from_structure(h.space, h.mul, h.unit, h.comul, counit,
                                 h.antipode)
    assert ("FAIL  bialgebra-compatibility  [at (1): lhs = 2, rhs = 1]"
            in str(hk.verify_hopf(bad)))


def test_dim_one_hopf_algebra():
    h = hk.group_algebra(gr.trivial_group())
    assert hk.verify_hopf(h).passed
    assert h.dim == 1


def test_unvalidated_input_refused(f2):
    raw = hk.hopf_from_structure(f2.space, f2.mul, f2.unit, f2.comul,
                                 f2.counit, f2.antipode)
    with pytest.raises(UnvalidatedInput):
        hk.check_cocommutative(raw)


# -- cocommutativity --------------------------------------------------------------

def test_group_algebras_cocommutative(f1, f2):
    assert hk.check_cocommutative(f1)
    assert hk.check_cocommutative(f2)


def test_tensor_hopf_cocommutative(f2):
    assert hk.check_cocommutative(hk.tensor_hopf(f2, f2))


def test_sweedler_four_dim_not_cocommutative():
    h = sweedler_four_dim()
    assert not hk.check_cocommutative(h)


# -- constructors ------------------------------------------------------------------

def test_group_algebra_z2_antipode_identity(f1):
    assert f1.antipode.is_identity()


def test_group_algebra_trivial_group():
    h = hk.group_algebra(gr.trivial_group())
    assert h.mul.is_identity() is False  # mul: H⊗H -> H on a 1-dim space
    assert h.mul.columns[0] == h.unit
    assert h.antipode.is_identity()


def test_tensor_hopf_z2_z3_isomorphic_to_z6():
    h = hk.group_algebra(gr.cyclic(2))
    k = hk.group_algebra(gr.cyclic(3))
    t = hk.tensor_hopf(h, k)
    z6 = hk.group_algebra(gr.cyclic(6))
    # (a^i, b^j) -> g^(3i + 4j mod 6) is the CRT isomorphism Z2 x Z3 -> Z6
    cols = []
    for i in range(2):
        for j in range(3):
            cols.append(z6.space.basis((3 * i + 4 * j) % 6))
    iso = LinearOp(t.space, z6.space, cols)
    assert hk.check_hopf_isomorphism(iso, t, z6)


def reference_tensor_tables(h, k):
    """The componentwise product and antipode of H ⊗ K, column by column."""
    space = tensor_space(h.space, k.space)
    mul = [tensor_elem(space, h.mul_basis(i, a), k.mul_basis(j, b))
           for i in range(h.dim) for j in range(k.dim)
           for a in range(h.dim) for b in range(k.dim)]
    anti = [tensor_elem(space, h.antipode.columns[i], k.antipode.columns[j])
            for i in range(h.dim) for j in range(k.dim)]
    return mul, anti


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
@pytest.mark.parametrize("left, right", [
    ("dense-Z2-inv", "dense-Z2-inv"), ("mixed-S3-inv", "dense-Z2-inv"),
    ("dense-Z3-inv", None), (None, "mixed-S3-inv")])
def test_tensor_hopf_matches_componentwise_reference(kernel_op, field, left,
                                                     right):
    # None stands for the group algebra Z2 in its group-like basis
    h, k = (kernel_op(name, field).carrier if name
            else hk.group_algebra(gr.cyclic(2), field)
            for name in (left, right))
    t = hk.tensor_hopf(h, k)
    mul, anti = reference_tensor_tables(h, k)
    assert list(t.mul.columns) == mul
    assert list(t.antipode.columns) == anti


def test_opposite_hopf_flips_multiplication(f2):
    op = hk.opposite_hopf(f2)
    i_r, i_s = f2.space.index_of("r"), f2.space.index_of("s")
    assert op.mul_basis(i_r, i_s) == f2.mul_basis(i_s, i_r)


def test_opposite_of_abelian_is_original(f1):
    assert hk.opposite_hopf(f1).structure_equal(f1)


# -- module actions ----------------------------------------------------------------

def test_adjoint_action_is_module_bialgebra(f2):
    assert check_module_bialgebra(adjoint_action(f2)).passed


def test_trivial_action_is_module_bialgebra(f2):
    assert check_module_bialgebra(trivial_action(f2, f2)).passed


def test_inversion_action_is_module_bialgebra():
    assert check_module_bialgebra(inversion_action_z2_on_z3()).passed


def test_module_action_rejects_bad_action(f2):
    # multiplication as an action fails module associativity over H
    bad = LinearOp(f2.hh, f2.space,
                   [f2.mul_basis(i, j) for i in range(6) for j in range(6)])
    with pytest.raises(AxiomFails):
        hk.module_action(hk.opposite_hopf(f2), f2, bad)


# -- convolution inverses ------------------------------------------------------------

def test_convolution_identity_is_self_inverse(f2):
    ucm = unit_counit_map(f2)
    assert hk.convolution_inverse(f2, ucm) == ucm


def test_convolution_inverse_of_id_is_antipode(f2):
    assert hk.convolution_inverse(f2, LinearOp.identity(f2.space)) == f2.antipode


def test_convolution_inverse_of_zero_map_raises(f2):
    with pytest.raises(NotConvolutionInvertible,
                       match="^no convolution inverse exists$"):
        hk.convolution_inverse(f2, LinearOp.zero(f2.space, f2.space))


def test_convolution_inverse_confirms_the_other_side(f1):
    # A non-associative product on span(u, v) with u·u = v·u = u,
    # v·v = v, u·v = 0.  For f = (x -> v), f ⋆ T = ε·u has the unique
    # solution T = (x -> u), but T ⋆ f = (x -> u·v) = 0.
    space = BasedSpace(("u", "v"))
    u, v = space.basis(0), space.basis(1)
    m = LinearOp(tensor_space(space, space), space, [u, space.zero(), u, v])
    f = LinearOp(f1.space, space, [v, v])
    with pytest.raises(NotConvolutionInvertible,
                       match="^no convolution inverse exists$"):
        hk.convolution_inverse(f1, f, m, u)


def test_antipode_recovery_across_corpus():
    carriers = [fx.f1(), fx.f2(),
                hk.group_algebra(gr.cyclic(4)),
                hk.group_algebra(gr.direct_product(gr.cyclic(2), gr.cyclic(2))),
                hk.group_algebra(gr.quaternion_group()),
                sweedler_four_dim()]
    for h in carriers:
        assert hk.convolution_inverse(h, LinearOp.identity(h.space)) == h.antipode


# -- morphism checks ------------------------------------------------------------------

def test_inversion_lift_is_coalgebra_morphism(f2):
    assert hk.check_coalgebra_morphism(f2.antipode, f2, f2)


def test_conjugation_is_bialgebra_automorphism(f2, phi_r_f2):
    assert hk.check_bialgebra_automorphism(phi_r_f2, f2)


def test_shift_map_is_not_coalgebra_morphism(f1):
    # g -> g + e fails both the comultiplication and the counit condition
    shift = LinearOp(f1.space, f1.space, [
        f1.space.basis(0),
        f1.space.basis(1) + f1.space.basis(0)])
    assert not hk.check_coalgebra_morphism(shift, f1, f1)


def test_antipode_is_not_automorphism_on_nonabelian(f2):
    # S is antimultiplicative, hence not an automorphism of Q[S3]
    assert not hk.check_bialgebra_automorphism(f2.antipode, f2)


# -- seeded random-element spot checks -------------------------------------------------

def random_element(rng, space):
    return Element(space, {i: Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                           for i in range(space.dim)})


def test_random_element_identities(f2):
    rng = random.Random(31415)
    for _ in range(100):
        x = random_element(rng, f2.space)
        y = random_element(rng, f2.space)
        z = random_element(rng, f2.space)
        assert f2.product(f2.product(x, y), z) == f2.product(x, f2.product(y, z))
        assert f2.product(f2.unit, x) == x
        lhs = f2.comul(f2.product(x, y))
        assert lhs == tensor_square(f2, f2.comul(x), f2.comul(y))


def test_verify_hopf_over_prime_field():
    from hopfkit.linalg import Field
    h = hk.group_algebra(gr.dihedral(3), Field(7))
    assert h.validated
    assert hk.check_cocommutative(h)


# -- references: the coalgebra-map and module sweeps as explicit loops ------------------

def edited(op, col, row, offset):
    """op with one entry moved by ``offset``, or with one column zeroed
    when ``offset`` is None (Δ(0) = 0, so at a group-like basis vector
    only ε can fail)."""
    cols = list(op.columns)
    col %= len(cols)
    coeffs = {}
    if offset is not None:
        coeffs = dict(cols[col].coeffs)
        r = row % op.codomain.dim
        coeffs[r] = coeffs.get(r, 0) + offset
    cols[col] = Element(op.codomain, coeffs)
    return LinearOp(op.domain, op.codomain, cols)


def sign_action_z2(field=QQ):
    """Q[Z2] acting on itself with g as diag(1, -1): a module, but
    g ⇀ g = -g breaks both Δ and ε at (g, g)."""
    h = hk.group_algebra(gr.cyclic(2), field)
    e, g = h.basis(0), h.basis(1)
    return h, LinearOp(h.hh, h.space, [e, g, e, -g])


EDITS = dict(col=st.integers(0, 80), row=st.integers(0, 80),
             offset=st.one_of(st.none(), st.integers(1, 6),
                              st.fractions(min_value=-2, max_value=2,
                                           max_denominator=3).filter(bool)))
SMALL = [fx.f1, z3, fx.f2, dense_z2, dense_z3]


@ORACLE
@given(field=st.sampled_from(FIELDS), data=st.data(),
       base=st.sampled_from(["antipode", "unit-counit"]), **EDITS)
def test_coalgebra_morphism_witness_matches_reference(field, data, base, col,
                                                      row, offset):
    h = data.draw(st.sampled_from(SMALL))(field)
    f = edited(h.antipode if base == "antipode" else unit_counit_map(h),
               col, row, offset)
    assert (coalgebra_morphism_witness(f, h, h)
            == reference_coalgebra_morphism_witness(f, h, h))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_coalgebra_morphism_witness_order_of_comul_and_counit(field):
    h, act = sign_action_z2(field)
    e, g = h.basis(0), h.basis(1)
    # g -> -g: both identities fail at g, and the comultiplication wins
    flip = LinearOp(h.space, h.space, [e, -g])
    lhs, rhs = ("-1/1", "1/1") if field == QQ else ("6", "1")
    assert str(coalgebra_morphism_witness(flip, h, h)) == \
        f"at (g): lhs = {lhs}*(g,g), rhs = {rhs}*(g,g)"
    # e -> 0 as well: the counit fails first, at e, where Δ(0) = 0 holds
    zero = LinearOp(h.space, h.space, [h.space.zero(), -g])
    assert str(coalgebra_morphism_witness(zero, h, h)) == \
        "at (e): lhs = 0, rhs = 1"
    for f in (flip, zero):
        assert (coalgebra_morphism_witness(f, h, h)
                == reference_coalgebra_morphism_witness(f, h, h))


def assert_module_bialgebra_matches_reference(actor, carrier, act):
    action = ModuleAction(actor, carrier, act)
    assert str(check_module_bialgebra(action)) == \
        str(reference_module_bialgebra(action))


@ORACLE
@given(field=st.sampled_from(FIELDS), data=st.data(), **EDITS)
def test_module_bialgebra_matches_reference_on_edited_adjoint(field, data, col,
                                                              row, offset):
    h = data.draw(st.sampled_from(SMALL))(field)
    assert_module_bialgebra_matches_reference(
        h, h, edited(adjoint_map(h), col, row, offset))


@ORACLE
@given(**EDITS)
def test_module_bialgebra_matches_reference_on_edited_inversion(col, row,
                                                                offset):
    base = inversion_action_z2_on_z3()
    assert_module_bialgebra_matches_reference(
        base.actor, base.carrier, edited(base.act, col, row, offset))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_module_bialgebra_sign_action(field):
    h, act = sign_action_z2(field)
    report = check_module_bialgebra(ModuleAction(h, h, act))
    assert str(report) == str(reference_module_bialgebra(ModuleAction(h, h, act)))
    assert [c.name for c in report.failures()] == [
        "module-coalgebra-comul", "module-coalgebra-counit"]
    assert str(report["module-coalgebra-counit"].witness) == \
        f"at (g,g): lhs = {-1 if field == QQ else 6}, rhs = 1"


# -- the Sweedler kernels against explicit loops ------------------------------------

# Sweedler's algebra is not cocommutative, so a kernel that swaps the two
# legs of Δ differs from the reference there.
KERNEL_CARRIERS = [sweedler_four_dim, dense_z2, dense_z3, fx.f2]


@ORACLE
@given(field=st.sampled_from(FIELDS), data=st.data(),
       which=st.sampled_from(["f", "g", "m"]), **EDITS)
def test_kernels_match_reference_on_edited_maps(field, data, which, col, row,
                                                offset):
    h = data.draw(st.sampled_from(KERNEL_CARRIERS))(field)
    ident = LinearOp.identity(h.space)
    maps = {"f": h.antipode, "g": ident, "m": h.mul}
    maps[which] = edited(maps[which], col, row, offset)
    f, g, m = maps["f"], maps["g"], maps["m"]
    assert convolution(h.comul, f, g, m) == reference_convolution(h, f, g, m)
    assert convolution(h.comul, g, f, m) == reference_convolution(h, g, f, m)
    assert twisted_product(h.comul, h.mul, m, f=f, g=g) == \
        reference_twisted_product(h, h.mul, m, f, g)
    assert twisted_product(h.comul, m, h.mul, g=f) == \
        reference_twisted_product(h, m, h.mul, ident, f)
    assert twisted_product(h.comul, m, h.mul, f=f) == \
        reference_twisted_product(h, m, h.mul, f, ident)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_leg_table_equals_iterated_coproduct(field):
    for h in (sweedler_four_dim(field), dense_z3(field), fx.f2(field)):
        for legs in range(1, 6):
            assert leg_table(h, legs) == [sweedler(h, i, legs)
                                          for i in range(h.dim)]


def test_constructions_read_the_legs_of_their_own_coproduct():
    # A structure copied with another Δ must not see the legs of the
    # original: every construction reads the Δ columns it is given.
    h = fx.f2()
    b = fx.b_inv(h).map
    assert adjoint_map(h) == reference_adjoint_map(h)
    assert rb_mod._circle_mul(h, b) == reference_circle_mul(h, b)
    (e,) = h.unit.coeffs
    other = LinearOp(h.space, h.hh, [   # Δ'(g) = g ⊗ 1 + 1 ⊗ g
        Element(h.hh, {tensor_index(g, e, h.dim): 1}) +
        Element(h.hh, {tensor_index(e, g, h.dim): 1}) for g in range(h.dim)])
    k = dataclasses.replace(h, comul=other)
    assert k.comul.columns[1] != h.comul.columns[1]
    assert adjoint_map(k) == reference_adjoint_map(k)
    assert rb_mod._circle_mul(k, b) == reference_circle_mul(k, b)
    assert adjoint_map(k) != adjoint_map(h)


def test_kernels_check_shapes(f1, f2):
    with pytest.raises(DimensionMismatch):
        convolution(f2.comul, f1.antipode, f2.antipode, f2.mul)
    with pytest.raises(DimensionMismatch):
        twisted_product(f2.comul, f2.mul, f2.mul, g=f1.antipode)


def test_twisted_product_checks_outer_and_leg_domains():
    # Q[Z3] with Q[Z2]: outer must start at F ⊗ Y, for F the codomain of f
    # (else C) and Y that of inner, and f and g at the domain of comul
    h, k = hk.group_algebra(gr.cyclic(3)), hk.group_algebra(gr.cyclic(2))
    on_k = trivial_map(h, k)                    # H ⊗ K -> K
    for outer, inner, legs in [
            (h.mul, on_k, {}),                  # starts at H ⊗ H, not H ⊗ K
            (trivial_map(k, k), on_k, {}),      # K ⊗ K: too few columns
            (k.mul, on_k, {"f": k.antipode}),   # f starts at K
            (on_k, k.mul, {"g": k.antipode})]:  # g starts at K
        with pytest.raises(DimensionMismatch,
                           match="twisted product shapes do not match"):
            twisted_product(h.comul, outer, inner, **legs)
    assert twisted_product(h.comul, on_k, on_k).domain == on_k.domain


def assert_two_sided_inverse(h, f, inv, m, unit):
    """f ⋆ inv = inv ⋆ f = ε·1 through the convolution kernel."""
    eps_one = LinearOp(h.space, unit.space,
                       [unit.scale(h._eps[x]) for x in range(h.dim)])
    assert convolution(h.comul, f, inv, m) == eps_one
    assert convolution(h.comul, inv, f, m) == eps_one


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_convolution_inverse_two_sided_on_dense_carriers(field, kernel_op):
    for h in (dense_z2(field), dense_z3(field), sweedler_four_dim(field)):
        ident = LinearOp.identity(h.space)
        inv = hk.convolution_inverse(h, ident)
        assert inv == h.antipode
        assert_two_sided_inverse(h, ident, inv, h.mul, h.unit)
    for name in KERNEL_OPS:
        b = kernel_op(name, field)
        h = b.carrier
        inv = hk.convolution_inverse(h, b.map)
        # a coalgebra map B has the convolution inverse S∘B
        assert inv == h.antipode.compose(b.map)
        assert_two_sided_inverse(h, b.map, inv, h.mul, h.unit)
