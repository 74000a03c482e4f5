"""The construction-failure messages: every site that re-verifies what it
built raises ``ConstructionInvalid`` with one of two exact texts.

Each case replaces one report-producing function with a stand-in whose
report fails, in every hopfkit module that imported it, so the site is
reached on valid inputs.  The stand-in report passes one line and then
fails two, so each message must name the first failure.
"""

import itertools
import sys
from types import SimpleNamespace

import pytest

import hopfkit as hk
from hopfkit import fixtures as fx
from hopfkit import hopf as hopf_mod
from hopfkit.errors import ConstructionInvalid
from hopfkit.linalg import LinearOp
from hopfkit.report import AxiomReport, Witness


def failing_report() -> AxiomReport:
    report = AxiomReport()
    report.add("associativity", None)
    report.add("antipode", Witness(("x", "y"), "1", "2"))
    report.add("unit", Witness(("z",), "3", "4"))
    return report


def patch_everywhere(monkeypatch, name: str, stand_in) -> None:
    original = getattr(hopf_mod, name)
    for mod_name, mod in list(sys.modules.items()):
        if (mod_name.startswith("hopfkit")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, stand_in)


def failing_after(real, passed: int):
    """``real`` for the first ``passed`` calls, then the failing report."""
    calls = itertools.count(1)

    def stand_in(*args):
        return real(*args) if next(calls) <= passed else failing_report()
    return stand_in


@pytest.fixture(scope="module")
def c():
    z2 = fx.f1()
    s3 = fx.f2()
    b = fx.b_inv(s3)
    return SimpleNamespace(
        z2=z2, s3=s3, b=b, ident=LinearOp.identity(z2.space),
        trivial=hk.trivial_action(z2, z2), pair=hk.matched_pair_from_rb(b),
        post=hk.posthopf_from_rb(b), brace=hk.flip_brace(z2))


INVALID = "construction invalid at stage "
VERIFIED = INVALID + "'{}:antipode': at (x,y): lhs = 1, rhs = 2"
REQUIRED = INVALID + "'{}': antipode: at (x,y): lhs = 1, rhs = 2"

# (id, stage, failing function, its calls passed through, site, message)
SITES = [
    ("tensor_hopf", "tensor-hopf", "verify_hopf", 0,
     lambda c: hk.tensor_hopf(c.z2, c.z2), VERIFIED),
    ("transport_hopf", "transport", "verify_hopf", 0,
     lambda c: hk.transport_hopf(c.z2, c.ident), VERIFIED),
    ("opposite_hopf", "opposite-hopf", "verify_hopf", 0,
     lambda c: hk.opposite_hopf(c.z2), VERIFIED),
    ("descend", "descendent", "verify_hopf", 0,
     lambda c: hk.descend(c.b), VERIFIED),
    ("op_action", "circle", "verify_hopf", 1,
     lambda c: hk.brace_from_op_action(c.z2, c.trivial.act), VERIFIED),
    ("exact_factorization", "circle", "verify_hopf", 0,
     lambda c: hk.brace_from_exact_factorization(c.s3, ("e", "r", "r2"),
                                                 ("e", "s")), VERIFIED),
    ("matched_pair", "dot", "verify_hopf", 0,
     lambda c: hk.brace_from_matched_pair(c.pair, c.pair.left), VERIFIED),
    ("subadjacent_hopf", "subadjacent", "verify_hopf", 0,
     lambda c: hk.subadjacent_hopf(c.post), VERIFIED),
    ("smash_product", "smash", "verify_hopf", 1,
     lambda c: hk.smash_product(c.z2, c.z2, c.trivial), VERIFIED),
    ("embed_into_rb", "hopf", "verify_hopf", 0,
     lambda c: hk.embed_into_rb(c.brace), REQUIRED),
    ("op_action", "module-bialgebra", "check_module_bialgebra", 0,
     lambda c: hk.brace_from_op_action(c.z2, c.trivial.act), REQUIRED),
    ("relative_rb", "module-bialgebra", "check_module_bialgebra", 0,
     lambda c: hk.verify_relative_rb(c.z2, c.z2, c.trivial, c.ident),
     REQUIRED),
    ("cocycle", "module-algebra", "module_algebra_report", 0,
     lambda c: hk.verify_cocycle(c.z2, c.z2, c.trivial, c.ident), REQUIRED),
    ("invert_cocycle", "module-coalgebra", "module_coalgebra_report", 0,
     lambda c: hk.invert_cocycle(hk.Cocycle(c.z2, c.z2, c.trivial, c.ident,
                                            c.ident)), REQUIRED),
    ("smash_product", "module-bialgebra", "check_module_bialgebra", 0,
     lambda c: hk.smash_product(c.z2, c.z2, c.trivial), REQUIRED),
]


@pytest.mark.parametrize("stage, name, passed, site, message",
                         [s[1:] for s in SITES],
                         ids=[f"{s[0]}-{s[1]}" for s in SITES])
def test_construction_failure_message(c, monkeypatch, stage, name, passed,
                                      site, message):
    patch_everywhere(monkeypatch, name,
                     failing_after(getattr(hopf_mod, name), passed))
    with pytest.raises(ConstructionInvalid) as exc:
        site(c)
    assert str(exc.value) == message.format(stage)
    assert exc.value.stage == (stage + ":antipode" if message is VERIFIED
                               else stage)
