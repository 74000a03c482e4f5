"""The int sweeps of ``RotaBaxterOp.circle``, ``verify_rb``,
``verify_brace`` and ``coalgebra_map_failures`` against their
element-level oracles in conftest.py.

Each test draws one-entry edits of B, of the dot or circle product, of Δ
or of S, over Q and F_7, on group algebras and on the transported
``kernel_op`` carriers, whose scales differ between B, S, Δ and m (on
dense Z3 over Q: 78, 78, 169 and 468); a fractional edit moves them
further apart, so a dropped or swapped scale factor changes a verdict or a
witness.  The sweeps must give the same verdict and the same witness
string as the oracles.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hopfkit as hk
from hopfkit import brace as brace_mod
from hopfkit import fixtures as fx
from hopfkit import rb as rb_mod
from hopfkit.errors import (CompatibilityFails, NotCoalgebraMap,
                            RBIdentityFails)
from hopfkit.hopf import adjoint_map, coalgebra_map_failures, tensor_coalgebra
from hopfkit.linalg import QQ, Field, accumulate, tensor_elem
from hopfkit.report import AxiomReport

from conftest import (KERNEL_OPS, edited, reference_circle_mul,
                      reference_coalgebra_morphism_witness,
                      reference_compatibility_witness, reference_rb_witness)

ORACLE = settings(max_examples=60, deadline=None, database=None)
FIELDS = [QQ, Field(7)]
GROUP_OPS = {"F1-inv": (fx.f1, fx.b_inv), "F2-inv": (fx.f2, fx.b_inv),
             "F2-eps": (fx.f2, fx.b_eps)}
CARRIERS = [*GROUP_OPS, *KERNEL_OPS]
EDIT = dict(col=st.integers(0, 80), row=st.integers(0, 80),
            offset=st.one_of(st.none(), st.integers(1, 6),
                             st.fractions(min_value=-2, max_value=2,
                                          max_denominator=3).filter(bool)))
_BUILT: dict = {}


def operator(kernel_op, name, field):
    """A verified Rota-Baxter operator and its descendent, built once per
    name and field."""
    if (name, field) not in _BUILT:
        if name in GROUP_OPS:
            carrier, make = GROUP_OPS[name]
            b = make(carrier(field))
        else:
            b = kernel_op(name, field)
        _BUILT[name, field] = b, hk.descend(b).hopf
    return _BUILT[name, field]


def with_edit(h, which, col, row, offset):
    """h with one entry of its ``which`` map edited; the copy keeps the
    validated stamp, so the sweeps run on it."""
    return dataclasses.replace(
        h, validated=True, **{which: edited(getattr(h, which), col, row, offset)})


def reference_coalgebra_map_failures(f, source, target):
    """Both failures of coalgebra_map_failures, each from its own loop of
    element-level sides."""
    (s_comul, s_counit), (t_comul, t_counit) = source, target
    cols, square = f.columns, t_comul.codomain
    comul = counit = None
    n = len(cols)
    for i, col in enumerate(cols):
        lhs = t_comul(col)
        rhs = accumulate(square, (
            (c, tensor_elem(square, cols[p // n], cols[p % n]))
            for p, c in s_comul.columns[i].coeffs.items()))
        if comul is None and lhs != rhs:
            comul = (i, lhs, rhs)
        lhs = t_counit(col).coefficient(0)
        rhs = s_counit.columns[i].coefficient(0)
        if counit is None and lhs != rhs:
            counit = (i, lhs, rhs)
    return comul, counit


@ORACLE
@given(field=st.sampled_from(FIELDS), name=st.sampled_from(CARRIERS),
       which=st.sampled_from(["map", "mul", "comul", "antipode"]), **EDIT)
def test_verify_rb_and_circle_match_oracles_on_edits(kernel_op, field, name,
                                                     which, col, row, offset):
    b, _ = operator(kernel_op, name, field)
    h, m = b.carrier, b.map
    if which == "map":
        m = edited(m, col, row, offset)
    else:
        h = with_edit(h, which, col, row, offset)
    assert rb_mod._circle_mul(h, m) == reference_circle_mul(h, m)
    want, error = reference_coalgebra_morphism_witness(m, h, h), NotCoalgebraMap
    if want is None:
        want, error = reference_rb_witness(h, m), RBIdentityFails
    # an edited Δ need not be cocommutative; the sweeps do not use that
    with mock.patch.object(rb_mod, "require_cocommutative", lambda h: None):
        if want is None:
            assert hk.verify_rb(h, m).validated
        else:
            with pytest.raises(error) as exc:
                hk.verify_rb(h, m)
            assert exc.value.witness == want


@ORACLE
@given(field=st.sampled_from(FIELDS), name=st.sampled_from(CARRIERS),
       which=st.sampled_from(["map", "comul", "action"]), **EDIT)
def test_coalgebra_map_failures_match_reference_on_edits(kernel_op, field,
                                                         name, which, col,
                                                         row, offset):
    b, _ = operator(kernel_op, name, field)
    h, f = b.carrier, b.map
    source = target = (h.comul, h.counit)
    if which == "map":
        f = edited(f, col, row, offset)
    elif which == "comul":
        # only the source Δ is edited, so the two sides carry other scales
        source = (edited(h.comul, col, row, offset), h.counit)
    else:
        # the module-coalgebra shape: K ⊗ H -> H with the middle-flip Δ
        f = edited(adjoint_map(h), col, row, offset)
        source = tensor_coalgebra(h, h)
    assert coalgebra_map_failures(f, source, target) == \
        reference_coalgebra_map_failures(f, source, target)


@ORACLE
@given(field=st.sampled_from(FIELDS), name=st.sampled_from(CARRIERS),
       which=st.sampled_from(["dot", "circle", "comul", "antipode"]), **EDIT)
def test_verify_brace_matches_oracle_on_edits(kernel_op, field, name, which,
                                              col, row, offset):
    _, circle = operator(kernel_op, name, field)
    dot = operator(kernel_op, name, field)[0].carrier
    if which in ("dot", "circle"):
        edit = {"dot": dot, "circle": circle}
        edit[which] = with_edit(edit[which], "mul", col, row, offset)
        dot, circle = edit["dot"], edit["circle"]
    elif which == "comul":
        comul = edited(dot.comul, col, row, offset)
        dot = dataclasses.replace(dot, comul=comul)
        circle = dataclasses.replace(circle, comul=comul)
    else:
        dot = with_edit(dot, "antipode", col, row, offset)
    want = reference_compatibility_witness(dot, circle)
    # only the compatibility sweep is compared: the edited structures are
    # taken to pass their Hopf axioms
    with mock.patch.object(brace_mod, "verify_hopf", lambda s: AxiomReport()):
        if want is None:
            assert hk.verify_brace(dot, circle).validated
        else:
            with pytest.raises(CompatibilityFails) as exc:
                hk.verify_brace(dot, circle)
            assert exc.value.witness == want
