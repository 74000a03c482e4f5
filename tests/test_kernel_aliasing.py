"""Aliasing guard: no construction or check changes its inputs.

``apply2`` and ``LinearOp.__call__`` may hand back a column of the map
itself, so a caller that changed a result in place would change the
structure constants it was built from.  Every derive target and every check
condition runs here on shared inputs, and the inputs' structure constants
must read the same afterwards.
"""

import json
from pathlib import Path

import pytest

import hopfkit as hk
from hopfkit import brace as brace_mod
from hopfkit import cli
from hopfkit import cocycle as cocycle_mod
from hopfkit import matched as matched_mod
from hopfkit import posthopf as posthopf_mod
from hopfkit import rb as rb_mod
from hopfkit.definitions import parse_document
from hopfkit.errors import DefinitionError
from hopfkit.hopf import HopfAlgebraData, ModuleAction, adjoint_action
from hopfkit.linalg import QQ, Element, Field, LinearOp

from conftest import KERNEL_OPS

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "docs" / "fixtures"
FIELDS = [QQ, Field(7)]


def constants(obj):
    """A deep copy of the structure constants as plain data: every
    coefficient with its type, so an int turned into an equal Fraction
    shows too."""
    if isinstance(obj, Element):
        return [(i, type(c).__name__, c) for i, c in sorted(obj.coeffs.items())]
    if isinstance(obj, LinearOp):
        return [constants(col) for col in obj.columns]
    if isinstance(obj, HopfAlgebraData):
        return {"mul": constants(obj.mul), "unit": constants(obj.unit),
                "comul": constants(obj.comul), "counit": constants(obj.counit),
                "eps": list(obj._eps), "antipode": constants(obj.antipode)}
    if isinstance(obj, ModuleAction):
        return constants(obj.act)
    if isinstance(obj, hk.RotaBaxterOp):
        # the circle table is shared: descend(b).hopf.mul is b.circle
        return {"carrier": constants(obj.carrier), "B": constants(obj.map),
                "circle": constants(obj.circle)}
    if isinstance(obj, hk.HopfBrace):
        return {"dot": constants(obj.dot), "circle": constants(obj.circle)}
    return None


# -- the shipped fixtures, through the CLI layer ----------------------------------------

def fixture_defs(path, field):
    """The fixture with an identity map on its first Hopf algebra appended,
    so that 'derive conjugate --using phi_id' has an automorphism."""
    doc = json.loads(path.read_text())
    hopf = next(d["name"] for d in doc["declarations"] if d["kind"] == "hopf")
    doc["declarations"].append({"kind": "map", "name": "phi_id", "on": hopf,
                                "identity": True})
    return parse_document(doc, field)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("path", sorted(FIXTURE_DIR.glob("*.json")),
                         ids=lambda p: p.name)
def test_fixture_inputs_unchanged_by_every_target(path, field):
    defs = fixture_defs(path, field)
    before = [constants(d.obj) for d in defs.declarations]
    ran = 0
    for what in cli.DERIVE_TARGETS:
        try:
            cli.run_derive(defs, what, None,
                           "phi_id" if what == "conjugate" else None)
            ran += 1
        except DefinitionError:
            pass          # the fixture declares nothing this target reads
    for condition in cli.CHECK_CONDITIONS:
        try:
            cli.run_check(defs, condition, None)
            ran += 1
        except DefinitionError:
            pass
    assert ran > 0
    assert [constants(d.obj) for d in defs.declarations] == before


# -- the kernel_op carriers, through the library ------------------------------------------

# These run on the other carriers only.  On dense Z3 over Q, 'matched-pair'
# and 'ybe' take about 2.0 s each, in the five-leg loop of the right action
# (0.28 s each over F_7; each target timed once, one process, 2 shared
# cores, re-timed with convolutions, twisted products, the smash product
# and the adjoint map summed on int columns: 1.99 s and 0.28 s).  'smash'
# runs everywhere: with the brace sweep over generators it takes 0.43-0.44 s
# on dense Z3 and on mixed S3 over Q, most of it the associativity sweeps of
# the two 36-dimensional ambients on mixed S3.
SKIPPED = {"dense-Z3-inv": {"matched-pair", "ybe"}}


def library_targets(b, br):
    h = b.carrier
    return {
        "circle": lambda: rb_mod.descend(b),
        "tilde": lambda: rb_mod.rb_tilde(b),
        "conjugate": lambda: rb_mod.rb_conjugate(b, LinearOp.identity(h.space)),
        "posthopf": lambda: posthopf_mod.posthopf_from_rb(b),
        "matched-pair": lambda: matched_mod.matched_pair_from_rb(b),
        "ybe": lambda: matched_mod.ybe_from_rb(b),
        "embed": lambda: brace_mod.embed_into_rb(br),
        "smash": lambda: hk.smash_product(h, h, adjoint_action(h)),
        "cocycle-rb": lambda: cocycle_mod.rb_hopf_from_cocycle(
            cocycle_mod.canonical_from_brace(br)[1]),
        "op-module": lambda: brace_mod.op_module_witness(br),
        "symmetric": lambda: brace_mod.symmetric_witness(br),
        "prop44": lambda: brace_mod.symmetric_sufficient_witness(br),
        "prop48": lambda: brace_mod.rb_symmetric_sufficient_witness(h, b.map),
        "prop49": lambda: brace_mod.rb_op_module_witness(h, b.map),
        "central-image": lambda: rb_mod.central_image_witness(h, b.map),
        "lemma218": lambda: rb_mod.descendent_antipode_inverse_witness(h, b.map),
    }


def test_library_targets_cover_the_cli(kernel_op):
    assert set(library_targets(kernel_op("dense-Z2-inv", QQ), None)) == \
        set(cli.DERIVE_TARGETS) | set(cli.CHECK_CONDITIONS)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", sorted(KERNEL_OPS))
def test_kernel_op_inputs_unchanged_by_every_target(kernel_op, name, field):
    b = kernel_op(name, field)
    br = brace_mod.brace_from_rb(b)
    before = constants(b), constants(br)
    for what, run in library_targets(b, br).items():
        if what not in SKIPPED.get(name, ()):
            run()
    assert (constants(b), constants(br)) == before
