"""Validated values are frozen, and their Hopf verdicts are reused.

When ``verify_hopf`` accepts a ``HopfAlgebraData`` it freezes the columns
of its maps, its unit and its basis elements, and keeps the passing report
and the group ``basis_group`` recognized on the value.  A repeat call on
the same object returns an equal new report without sweeping.  Reuse is
keyed on that stored report, never on the ``validated`` flag, which anyone
may set: a ``dataclasses.replace`` copy is swept again.
"""

import dataclasses

import pytest

import hopfkit as hk
from hopfkit import fixtures as fx
from hopfkit import groups as gr
from hopfkit import hopf as hopf_mod
from hopfkit import linalg as linalg_mod
from hopfkit.linalg import Element, LinearOp, QQ, Field, scaled_columns, tensor_index

from test_hopf import dense_z3, perturbed

FIELDS = [QQ, Field(7)]
MUTATED = (TypeError, AttributeError)


def fresh(h):
    """An unvalidated copy of h that shares its maps and unit."""
    return hk.hopf_from_structure(h.space, h.mul, h.unit, h.comul, h.counit,
                                  h.antipode)


def delta_prime(h):
    """Δ'(g) = g ⊗ 1 + 1 ⊗ g on the group-like basis of h: counital
    nowhere, so a carrier with it fails its Hopf axioms."""
    (e,) = h.unit.coeffs
    return LinearOp(h.space, h.hh, [
        Element(h.hh, {tensor_index(g, e, h.dim): 1}) +
        Element(h.hh, {tensor_index(e, g, h.dim): 1}) for g in range(h.dim)])


@pytest.fixture
def counted(monkeypatch):
    """Calls of ``_sweep_hopf`` and ``basis_group`` as made by verify_hopf."""
    calls = {"sweep": 0, "group": 0}
    sweep, group = hopf_mod._sweep_hopf, hopf_mod.basis_group

    def counting_sweep(h):
        calls["sweep"] += 1
        return sweep(h)

    def counting_group(h):
        calls["group"] += 1
        return group(h)
    monkeypatch.setattr(hopf_mod, "_sweep_hopf", counting_sweep)
    monkeypatch.setattr(hopf_mod, "basis_group", counting_group)
    return calls


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("build", [fx.f2, dense_z3], ids=["group", "dense"])
def test_every_mutation_of_a_validated_carrier_raises(build, field):
    h = build(field)
    assert hk.verify_hopf(h).passed
    col = h.mul.columns[1]
    before = dict(col.coeffs)
    (k, c), = list(col.coeffs.items())[:1]
    with pytest.raises(MUTATED):
        col.coeffs[k] = c + 1
    with pytest.raises(MUTATED):
        del col.coeffs[k]
    with pytest.raises(MUTATED):
        col.coeffs.update({k: 0})
    with pytest.raises(MUTATED):
        col.coeffs = {}
    with pytest.raises(MUTATED):
        h.unit.space = h.hh
    with pytest.raises(MUTATED):
        h.basis(0).coeffs[0] = 2
    with pytest.raises(MUTATED):
        h.comul.columns = ()
    with pytest.raises(MUTATED):
        del h.antipode.columns
    with pytest.raises(MUTATED):
        h.mul = h.mul
    with pytest.raises(MUTATED):
        del h.comul
    with pytest.raises(MUTATED):
        h._eps = ()
    assert col.coeffs == before
    assert hk.verify_hopf(h).passed


def test_a_linear_map_refuses_attribute_assignment_before_validation():
    op = LinearOp.identity(hk.BasedSpace(("a", "b")))
    with pytest.raises(AttributeError):
        op.columns = ()
    with pytest.raises(AttributeError):
        op.extra = 1


@pytest.mark.parametrize("build", [fx.f2, dense_z3], ids=["group", "dense"])
def test_a_repeat_verify_hopf_runs_no_sweep(build, counted):
    h = fresh(build(QQ))
    before = dict(counted)
    first = hk.verify_hopf(h)
    once = {"sweep": before["sweep"] + (build is dense_z3),
            "group": before["group"] + 1}
    assert counted == once
    h.validated = False
    second = hk.verify_hopf(h)
    assert counted == once
    assert h.validated
    assert second.checks == first.checks and second.passed
    assert second is not first
    assert second.checks[0] is not first.checks[0]
    second.add("extra", None)
    second.checks[0].passed = False
    assert [c.name for c in first.checks] == list(hopf_mod.HOPF_AXIOMS)
    assert first.passed
    assert hk.verify_hopf(h).checks == first.checks


def test_basis_group_and_scaled_columns_are_kept(monkeypatch):
    h = fresh(fx.f2(QQ))
    group = hopf_mod.basis_group(h)
    assert group is not None and hopf_mod.basis_group(h) is not group
    hk.verify_hopf(h)
    assert hopf_mod.basis_group(h) is hopf_mod.basis_group(h)
    assert hopf_mod.basis_group(h).table == group.table

    tables = []
    compute = linalg_mod._scaled_table
    monkeypatch.setattr(linalg_mod, "_scaled_table",
                        lambda op: tables.append(op) or compute(op))
    den, cols = scaled_columns(h.mul)
    cols.append(None)
    assert scaled_columns(h.mul) == (den, cols[:-1])
    assert tables == [h.mul]
    # an op that is not frozen is read again on every call
    loose = LinearOp(h.space, h.space, list(h.antipode.columns))
    scaled_columns(loose)
    scaled_columns(loose)
    assert tables == [h.mul, loose, loose]


@pytest.mark.parametrize("flag", [False, True])
def test_a_replaced_copy_with_another_coproduct_is_swept_again(flag, counted):
    h = fx.f2(QQ)
    assert hk.verify_hopf(h).passed
    k = dataclasses.replace(h, validated=flag, comul=delta_prime(h))
    swept = counted["sweep"]
    report = hk.verify_hopf(k)
    assert counted["sweep"] == swept + 1
    assert not report.passed and not k.validated
    assert report.checks == hopf_mod._sweep_hopf(k).checks
    assert report.first_failure().name == "coassociativity"
    assert not report["counit"].passed
    # the copy's own coproduct stays a plain, unfrozen value
    assert type(k.comul.columns[1].coeffs) is dict
    # and the original keeps its verdict
    assert hk.verify_hopf(h).passed


def test_unvalidated_temporaries_still_build():
    h = fx.f2(QQ)
    hk.verify_hopf(h)
    # perturbing a frozen column copies its coefficients into a new value
    bad = perturbed(h, "mul", 1, 0, 1)
    assert not hk.verify_hopf(bad).passed
    assert type(bad.mul.columns[1].coeffs) is dict
    assert type(bad.mul.columns[0].coeffs) is not dict
    # sums, scalings and new maps over frozen columns are new, loose values
    col = h.mul.columns[1]
    total = col + col.scale(2)
    assert type(total.coeffs) is dict and total == col.scale(3)
    twice = LinearOp(h.hh, h.space, [c.scale(2) for c in h.mul.columns])
    assert type(twice.columns[0].coeffs) is dict
    # a transported carrier built from a frozen one is swept and frozen in turn
    dense = dense_z3(QQ)
    assert dense.validated
    assert type(dense.mul.columns[0].coeffs) is not dict


def test_descend_reads_the_group_tables_once(monkeypatch):
    b = fx.b_inv(hk.group_algebra(gr.dihedral(3)))
    built = []
    finite_group = hopf_mod.FiniteGroup

    def counting(*args):
        built.append(args)
        return finite_group(*args)
    monkeypatch.setattr(hopf_mod, "FiniteGroup", counting)
    hk.descend(b)
    assert len(built) == 1
