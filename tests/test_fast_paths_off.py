"""The pinned bytes with every fast path off.

Under ``fast_paths_off`` (``tests/conftest.py``) no group is stored, so
no group is read and no map is read as a basis map, and no slot is swept
over generators, so ``group_algebra`` sweeps and every identity is decided
by its full sweep.  The fast paths only accept, so the derive digests of
``tests/golden``, the demo goldens and the lines and digests that CI pins
through the CLI must come out byte for byte as with them on.
"""

import hashlib
import json
import runpy

import pytest

import hopfkit as hk
from hopfkit import cli
from hopfkit import fixtures as fx
from hopfkit import hopf as hopf_mod
from hopfkit import rb as rb_mod
from hopfkit.linalg import QQ, Field
from hopfkit.serialize import dump_document

from conftest import transported
from test_cli import DERIVE_DIGESTS, ROOT
from test_demos import DEMOS, GOLDEN as DEMO_GOLDEN
from test_int_builders import GOLDEN as KERNEL_GOLDEN
from test_kernel_aliasing import SKIPPED
from test_render_json import derive, kernel_defs

FIXTURES = ROOT / "docs" / "fixtures"


def test_the_switch_sweeps_every_carrier(fast_paths_off, monkeypatch):
    swept = []
    sweep = hopf_mod._sweep_hopf
    monkeypatch.setattr(hopf_mod, "_sweep_hopf",
                        lambda h: swept.append(h) or sweep(h))
    h = fx.f2()
    assert swept == [h] and h.validated and h._group is None
    assert hk.verify_hopf(h).passed and swept == [h]
    # the recognizer still finds the group, but no group is stored or read
    assert hopf_mod.basis_group(h) is not None
    assert hopf_mod._generators(h) is None
    assert rb_mod._group_map(h, h.antipode) is None


@pytest.mark.parametrize("field", sorted(DERIVE_DIGESTS))
@pytest.mark.parametrize("job", sorted(DERIVE_DIGESTS["rational"]))
def test_derive_digests(fast_paths_off, job, field, tmp_path):
    what, fixture = job.split()
    out = tmp_path / "derived.json"
    flag = [] if field == "rational" else ["--field", field]
    assert cli.main(["derive", what, str(FIXTURES / fixture), *flag,
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        DERIVE_DIGESTS[field][job]


@pytest.mark.parametrize("field", [QQ, Field(7)], ids=str)
@pytest.mark.parametrize("name", ["dense-Z2-inv", "dense-Z3-inv"])
def test_kernel_derive_digests(fast_paths_off, name, field):
    golden = KERNEL_GOLDEN["rational" if field == QQ else str(field.p)]
    defs = kernel_defs(hk.verify_rb(*transported(name, field)))
    ran = []
    for what in cli.DERIVE_TARGETS:
        if what not in SKIPPED.get(name, ()):
            text = dump_document(derive(defs, what))
            assert hashlib.sha256(text.encode()).hexdigest() == \
                golden[f"{what} {name}"], what
            ran.append(f"{what} {name}")
    assert sorted(ran) == sorted(j for j in golden if j.endswith(name))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_goldens(fast_paths_off, demo, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.encode() == \
        (DEMO_GOLDEN / f"{demo.stem}.txt").read_bytes()


def test_ci_check_lines(fast_paths_off, capsys):
    # the step "Check the shipped fixtures" of .github/workflows/tier1.yml
    passes = [f"PASS  {c}" for c in
              ("op-module", "symmetric", "prop44", "prop48", "prop49")]
    want = [*passes,
            "FAIL  central-image  [at (r,s): lhs = 1/1*r2s, rhs = 1/1*rs]",
            "PASS  lemma218", *passes,
            "FAIL  central-image  [at (r,s): lhs = 1*r2s, rhs = 1*rs]",
            "PASS  lemma218"]
    got = []
    for flag in ([], ["--field", "7"]):
        for c in ("op-module", "symmetric", "prop44", "prop48", "prop49",
                  "central-image", "lemma218"):
            code = cli.main(["check", c, str(FIXTURES / "f2_s3_binv.json"),
                             *flag])
            assert code == (1 if c == "central-image" else 0), c
            out, err = capsys.readouterr()
            assert err == ""
            got += out.splitlines()
    assert got == want


@pytest.mark.parametrize("flag, digest", [
    ([], "6b8be58c8ce2683f3ed17ce8c9fa9bb7b683338bc0c90463854016450ab9a91c"),
    (["--field", "7"],
     "2a4ce48a3da852bc42f3de9248866e2635ff8fc8c5deeb8c223e93286572ca37")])
def test_ci_d4_embed_digests(fast_paths_off, flag, digest, tmp_path, capsys):
    # the step "Derive the smash ambient of D4 through the real entry point"
    path = tmp_path / "d4.json"
    path.write_text(json.dumps({"version": 1, "declarations": [
        {"kind": "hopf", "name": "H", "group_algebra": {"dihedral": 4}},
        {"kind": "map", "name": "B", "on": "H", "group_map": "inversion",
         "rota_baxter": True}]}))
    assert cli.main(["derive", "embed", str(path), *flag]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        digest


def test_ci_int_sweep_rota_baxter_lines(fast_paths_off, tmp_path, capsys):
    # the rb and s3 documents of the step "Witness lines of the int sweeps
    # through the real entry point", whose failing maps the group path of
    # verify_rb rejects when it is on
    z3 = {"kind": "hopf", "name": "H", "group_algebra": {"cyclic": 3}}
    s3 = {"kind": "hopf", "name": "H", "group_algebra": {"dihedral": 3}}
    docs = {
        "rb": [z3, {"kind": "map", "name": "B", "on": "H", "rota_baxter": True,
                    "images": {"e": "e", "g": "g", "g2": "e"}}],
        "s3": [s3, {"kind": "map", "name": "B", "on": "H", "rota_baxter": True,
                    "images": {"e": "e", "r": "s", "r2": "rs", "s": "e",
                               "rs": "r", "r2s": "r2"}}]}
    got = []
    for flag in ([], ["--field", "7"]):
        for doc, decls in docs.items():
            path = tmp_path / f"{doc}.json"
            path.write_text(json.dumps({"version": 1, "declarations": decls}))
            assert cli.main(["verify", str(path), *flag]) == 1
            out, err = capsys.readouterr()
            assert err == ""
            got += [line for line in out.splitlines() if line.startswith("FAIL")]
    assert got == [
        "FAIL  B.rota-baxter  [at (g, g): lhs = 1/1*g2, rhs = 1/1*e]",
        "FAIL  B.rota-baxter  [at (r, r2): lhs = 1/1*r2, rhs = 1/1*rs]",
        "FAIL  B.rota-baxter  [at (g, g): lhs = 1*g2, rhs = 1*e]",
        "FAIL  B.rota-baxter  [at (r, r2): lhs = 1*r2, rhs = 1*rs]"]
