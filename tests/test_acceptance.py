"""Acceptance suite: ten exact (zero-tolerance) criteria, one test each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  All equality assertions are bit-exact; the only
tolerances are the stated wall-clock budgets of criteria 1 and 4.
"""

import json
import time
from contextlib import contextmanager

import pytest

import hopfkit as hk
from hopfkit import cli
from hopfkit import fixtures as fx
from hopfkit import groups as gr
from hopfkit.errors import HypothesisFails
from hopfkit.linalg import LinearOp, tensor_index, tensor_space

from test_cocycle import assert_matches_paper_formulas, d3_twisted_cocycle


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL — {title}")
        raise
    print(f"ACCEPTANCE {number}: PASS — {title}")


def order_le_8_groups():
    return [gr.trivial_group(), gr.cyclic(2), gr.cyclic(3), gr.cyclic(4),
            gr.cyclic(5), gr.cyclic(6), gr.cyclic(7), gr.cyclic(8),
            gr.dihedral(3), gr.dihedral(4),
            gr.direct_product(gr.cyclic(2), gr.cyclic(2)),
            gr.direct_product(gr.cyclic(2), gr.cyclic(4)),
            gr.direct_product(gr.cyclic(2),
                              gr.direct_product(gr.cyclic(2), gr.cyclic(2))),
            gr.quaternion_group()]


def order_le_6_lifts():
    groups = [gr.trivial_group(), gr.cyclic(2), gr.cyclic(3), gr.cyclic(4),
              gr.direct_product(gr.cyclic(2), gr.cyclic(2)), gr.cyclic(5),
              gr.cyclic(6), gr.dihedral(3)]
    out = []
    for g in groups:
        for op in gr.enumerate_rb_group_ops(g):
            out.append(gr.lift_to_group_algebra(op))
    return out


def test_criterion_1_axiom_suite():
    with criterion(1, "Hopf axiom suite on all group algebras of order <= 8"):
        start = time.monotonic()
        for g in order_le_8_groups():
            h = hk.group_algebra(g)
            assert hk.verify_hopf(h).passed
            assert hk.check_cocommutative(h)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10 s"


def test_criterion_2_rb_corpus():
    with criterion(2, "every lifted operator on groups of order <= 6 verifies, "
                      "descends, and passes both descendent identity sweeps"):
        lifts = order_le_6_lifts()
        assert len(lifts) == 45
        for lift in lifts:
            assert lift.validated
            d = hk.descend(lift)          # re-verifies Hopf axioms and that
            assert d.hopf.validated       # B is multiplicative off H(B)
            assert hk.check_descendent_antipode_inverse(d)
            h = lift.carrier
            for g in range(h.dim):
                for x in range(h.dim):
                    assert lift.map(d.hopf.mul_basis(g, x)) == \
                        h.product(lift.map.columns[g], lift.map.columns[x])


def test_criterion_3_brace_family_isomorphisms(f2, b_inv_f2, phi_r_f2):
    with criterion(3, "the three braces of (F2, B_inv, phi_r) verify and the "
                      "antipode/automorphism isomorphisms confirm on all "
                      "36 pairs"):
        hk.brace_from_rb(b_inv_f2, phi_r_f2)  # verifies all three braces
        report = hk.check_descendent_isos(b_inv_f2, phi_r_f2)
        assert report.passed
        d = hk.descend(b_inv_f2)
        dt = hk.descend(hk.rb_tilde(b_inv_f2))
        dp = hk.descend(hk.rb_conjugate(b_inv_f2, phi_r_f2))
        s = f2.antipode
        for g in range(6):
            for x in range(6):
                assert s(d.hopf.mul_basis(g, x)) == \
                    dt.hopf.product(s.columns[g], s.columns[x])
                assert phi_r_f2(d.hopf.mul_basis(g, x)) == \
                    dp.hopf.product(phi_r_f2.columns[g], phi_r_f2.columns[x])


def test_criterion_4_embedding(f2):
    with criterion(4, "flip brace over Q[S3] embeds into a 36-dim "
                      "Rota-Baxter Hopf algebra (full axiom sweep) "
                      "within 2 minutes"):
        start = time.monotonic()
        br = hk.flip_brace(f2)
        emb = hk.embed_into_rb(br)        # verifies hopf / rb / embedding
        assert emb.ambient.dim == 36
        assert emb.ambient.validated
        assert emb.rb.validated
        for g in range(6):
            for x in range(6):
                assert emb.psi(f2.mul_basis(g, x)) == \
                    emb.ambient.product(emb.psi.columns[g], emb.psi.columns[x])
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"runtime {elapsed:.2f}s exceeds 2 min"


def test_criterion_5_yang_baxter(f2, b_inv_f2):
    with criterion(5, "the braiding of (F2, B_inv) solves the braid relation "
                      "on all 216 triples and is the conjugation braiding"):
        y = hk.ybe_from_rb(b_inv_f2)      # sweeps the braid relation
        g = gr.dihedral(3)
        hh = tensor_space(f2.space, f2.space)
        for a in range(6):
            for b in range(6):
                u = g.mul(g.mul(g.inv(a), b), a)
                assert y.c.columns[tensor_index(a, b, 6)] == \
                    hh.basis(tensor_index(u, a, 6))
        assert y.c.compose(y.c_inverse).is_identity()
        assert y.c_inverse.compose(y.c).is_identity()


def test_criterion_6_smash_and_factorization(f2):
    with criterion(6, "smash Q[Z3]#Q[Z2] = Q[S3]; operators on the smash "
                      "verify with the twisted-action identification; the "
                      "factorization operator verifies and the commutation "
                      "hypothesis violation is a precondition error"):
        h = hk.group_algebra(gr.cyclic(3))
        k = hk.group_algebra(gr.cyclic(2))
        cols = [h.space.basis(i if j == 0 else (-i) % 3)
                for j in range(2) for i in range(3)]
        act = hk.module_action(k, h, LinearOp(
            tensor_space(k.space, h.space), h.space, cols))
        sp = hk.smash_product(h, k, act)
        iso_cols = []
        for i in range(3):
            for j in range(2):
                rpart = "" if i == 0 else ("r" if i == 1 else "r2")
                lab = (rpart + ("s" if j else "")) or "e"
                iso_cols.append(f2.space.basis(f2.space.index_of(lab)))
        iso = LinearOp(sp.product.space, f2.space, iso_cols)
        assert hk.check_hopf_isomorphism(iso, sp.product, f2)

        for c in (fx.b_eps(k), fx.b_inv(k)):
            b = hk.rb_on_smash(sp, c)
            assert b.validated
            assert hk.check_smash_descendent_iso(sp, c, b)

        fact = hk.triple_factorization(f2, ["e"], ["e", "r", "r2"], ["e", "s"])
        c_eps = fx.b_eps(fact.sub_l)
        b = hk.rb_from_triple_factorization(fact, c_eps)
        assert b.validated
        assert hk.check_factorization_descendent_iso(fact, b, c_eps)
        with pytest.raises(HypothesisFails) as exc:
            hk.rb_from_triple_factorization(fact, fx.b_inv(fact.sub_l))
        assert exc.value.hypothesis == "mC(l) = C(l)m"


def test_criterion_7_relative_rb_and_cocycles(f2):
    with criterion(7, "identity relative operators and 1-cocycles verify for "
                      "every corpus brace with exact round trips; the "
                      "cocycle-built ambient equals the brace embedding "
                      "and the paper's π-formulas, also for π ≠ id"):
        for lift in order_le_6_lifts():
            br = hk.brace_from_rb(lift)
            rel, coc = hk.canonical_from_brace(br)
            rel2 = hk.invert_cocycle(coc)
            assert rel2.tau == coc.pi_inverse
            coc2 = hk.invert_relative_rb(rel)
            assert coc2.pi == rel.tau and coc2.pi_inverse == rel.tau
        br = hk.flip_brace(f2)
        _, coc = hk.canonical_from_brace(br)
        built = hk.rb_hopf_from_cocycle(coc)
        emb = hk.embed_into_rb(br)
        assert built.ambient.structure_equal(emb.ambient)
        assert built.rb.map == emb.rb.map
        assert_matches_paper_formulas(coc)
        assert_matches_paper_formulas(d3_twisted_cocycle(None))


def test_criterion_8_symmetry_suite(f2):
    with criterion(8, "symmetry implications hold across the corpus; the "
                      "conjugation action rebuilds the flip brace; the "
                      "exact factorization of Q[S3] yields a symmetric brace"):
        for lift in order_le_6_lifts():
            br = hk.brace_from_rb(lift)
            om = hk.check_op_module(br)
            sym = hk.check_symmetric(br)
            assert hk.check_rb_op_module(lift.carrier, lift.map) == om
            if om:
                assert sym
            if hk.check_symmetric_sufficient(br):
                assert sym
            if hk.check_rb_symmetric_sufficient(lift.carrier, lift.map):
                assert sym
        g = gr.dihedral(3)
        conj_cols = [f2.space.basis(g.mul(g.mul(g.inv(a), b), a))
                     for a in range(6) for b in range(6)]
        br = hk.brace_from_op_action(f2, LinearOp(f2.hh, f2.space, conj_cols))
        assert br.circle.mul == hk.flip_brace(f2).circle.mul
        fact_br = hk.brace_from_exact_factorization(
            f2, ["e", "r", "r2"], ["e", "s"])
        assert hk.check_symmetric(fact_br)
        assert hk.check_op_module(fact_br)


def test_criterion_9_post_hopf(f2, b_inv_f2):
    with criterion(9, "the conjugation post-Hopf structure verifies with the "
                      "solved convolution inverse, subadjacent equals the "
                      "descendent, and the brace round trip is exact"):
        p = hk.posthopf_from_rb(b_inv_f2)
        g = gr.dihedral(3)
        for x in range(6):
            for y in range(6):
                want = f2.space.basis(g.mul(g.mul(x, y), g.inv(x)))
                assert p.beta.columns[tensor_index(x, y, 6)] == want
        sub = hk.subadjacent_hopf(p)
        assert sub.structure_equal(hk.descend(b_inv_f2).hopf)
        br = hk.brace_from_posthopf(p)
        p2 = hk.posthopf_from_brace(br)
        assert p2.tri == p.tri and p2.beta == p.beta


def test_criterion_10_deterministic_reports(tmp_path):
    with criterion(10, "reports are byte-identical across runs with "
                       "different thread counts"):
        doc = {
            "version": 1, "field": "rational",
            "declarations": [
                {"kind": "hopf", "name": "F2",
                 "group_algebra": {"dihedral": 3}},
                {"kind": "map", "name": "B_inv", "on": "F2",
                 "group_map": "inversion", "rota_baxter": True}],
        }
        path = tmp_path / "f2.json"
        path.write_text(json.dumps(doc))
        outputs = []
        for threads in ("1", "7"):
            for fmt in ("json", "text"):
                out = tmp_path / f"r{threads}{fmt}"
                assert cli.main(["report", str(path), "--format", fmt,
                                 "--threads", threads,
                                 "--out", str(out)]) == 0
                outputs.append((fmt, out.read_bytes()))
        assert outputs[0][1] == outputs[2][1]  # json runs identical
        assert outputs[1][1] == outputs[3][1]  # text runs identical
        ybe1 = tmp_path / "y1.json"
        ybe2 = tmp_path / "y2.json"
        assert cli.main(["derive", "ybe", str(path), "--threads", "1",
                         "--out", str(ybe1)]) == 0
        assert cli.main(["derive", "ybe", str(path), "--threads", "5",
                         "--out", str(ybe2)]) == 0
        assert ybe1.read_bytes() == ybe2.read_bytes()
