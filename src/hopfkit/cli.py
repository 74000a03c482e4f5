"""Command-line interface: verify, derive, check, search, report.

    hopfkit verify  <file> [--field rational|p] [--threads N]
    hopfkit derive  <what> <file> [--name N] [--using M] [--out path]
    hopfkit check   <condition> <file> [--name N]
    hopfkit search  rb-group <file> [--budget N]
    hopfkit report  <file> [--format json|text] [--out path]

``--using M`` names the automorphism of ``derive conjugate``; every other
target refuses it as an input error.

Exit codes: 0 all checks pass, 1 a check failed (the report says which),
2 input error, an --out path that cannot be written included.  Reports are
deterministic: byte-identical across runs and thread counts for the same
input (the --threads flag is accepted for interface compatibility; sweeps
are pure and schedule-independent).  ``main(argv)`` may be called any
number of times in one process; the parser is built once, at import.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys

from . import brace as brace_mod
from . import cocycle as cocycle_mod
from . import constructions as constr_mod
from . import groups as gr
from . import matched as matched_mod
from . import posthopf as posthopf_mod
from . import rb as rb_mod
from .definitions import (MAX_DERIVE_DIM, Declaration, DefinitionFile,
                          parse_file)
from .errors import (AxiomFails, DefinitionError, DefinitionSyntaxError,
                     DimensionMismatch, FieldMismatch, HopfkitError,
                     VerificationFailed)
from .hopf import (ModuleAction, check_cocommutative, check_module_bialgebra,
                   coalgebra_morphism_witness, unit_counit_map, verify_hopf)
from .linalg import LinearOp
from .rb import (RotaBaxterOp, central_image_witness,
                 descendent_antipode_inverse_witness, verify_rb)
from .report import AxiomReport, CheckResult, Witness
from .serialize import (digest, document, dump_document, field_from_json,
                        field_to_json, hopf_to_decl, map_entries, map_to_decl,
                        render_json)

CHECK_CONDITIONS = ("op-module", "symmetric", "prop44", "prop48", "prop49",
                    "central-image", "lemma218")
DERIVE_TARGETS = ("circle", "tilde", "conjugate", "posthopf", "matched-pair",
                  "ybe", "embed", "smash", "cocycle-rb")
# Targets building tables on H ⊗ H or a tensor ambient, capped in dimension.
TENSOR_TARGETS = ("posthopf", "matched-pair", "ybe", "embed", "smash",
                  "cocycle-rb")


# -- building constructions from declarations -------------------------------------

def _ensure_validated(h):
    report = verify_hopf(h)
    if not report.passed:
        fail = report.first_failure()
        raise VerificationFailed(f"Hopf axioms fail: {fail.name}",
                                 fail.witness)
    return h


def check_action(action: ModuleAction):
    """Raise on the first failing module-bialgebra axiom of a declared
    action, after both of its Hopf algebras verify."""
    _ensure_validated(action.actor)
    _ensure_validated(action.carrier)
    fail = check_module_bialgebra(action).first_failure()
    if fail is not None:
        raise AxiomFails(fail.name, fail.witness)


def carrier_decl(defs: DefinitionFile, decl: Declaration) -> Declaration:
    """The carrier of an ``rb`` declaration or of a map declared ``on`` one."""
    return decl.refs["hopf"] if decl.kind == "rb" else defs[decl.on]


def hopf_and_map(defs: DefinitionFile, decl: Declaration):
    """The validated carrier and the map of an ``rb`` declaration or of a
    map declared ``on`` a carrier."""
    m = decl.refs["map"] if decl.kind == "rb" else decl
    return _ensure_validated(carrier_decl(defs, decl).obj), m.obj


def rb_from_decl(defs: DefinitionFile, decl: Declaration) -> RotaBaxterOp:
    return verify_rb(*hopf_and_map(defs, decl))


def build_brace(defs: DefinitionFile, decl: Declaration):
    if "rb" in decl.refs:
        return brace_mod.brace_from_rb(rb_from_decl(defs, decl.refs["rb"]))
    if "flip" in decl.refs:
        return brace_mod.flip_brace(_ensure_validated(decl.refs["flip"].obj))
    dot = _ensure_validated(decl.refs["dot"].obj)
    circle = _ensure_validated(decl.refs["circle"].obj)
    return brace_mod.verify_brace(dot, circle)


def build_smash(defs: DefinitionFile, decl: Declaration):
    left = _ensure_validated(decl.refs["left"].obj)
    right = _ensure_validated(decl.refs["right"].obj)
    return constr_mod.smash_product(left, right, decl.refs["action"].obj)


def build_factorization(defs: DefinitionFile, decl: Declaration):
    g = _ensure_validated(decl.refs["ambient"].obj)
    return constr_mod.triple_factorization(g, decl.raw["h"], decl.raw["l"],
                                           decl.raw["m"])


def middle_rb_map(sub_l, spec):
    if spec == "inversion":
        return sub_l.antipode
    if spec == "unit-counit":
        return unit_counit_map(sub_l)
    if isinstance(spec, dict) and "images" in spec:
        cols = [sub_l.space.basis(sub_l.space.index_of(spec["images"][lab]))
                for lab in sub_l.space.labels]
        return LinearOp(sub_l.space, sub_l.space, cols)
    raise DefinitionSyntaxError(f"unrecognized middle_rb spec {spec!r}")


def build_cocycle(defs: DefinitionFile, decl: Declaration):
    src = _ensure_validated(decl.refs["source"].obj)
    tgt = _ensure_validated(decl.refs["target"].obj)
    return cocycle_mod.verify_cocycle(src, tgt, decl.refs["action"].obj,
                                      decl.refs["map"].obj)


# -- the verification report -------------------------------------------------------

def run_checks(defs: DefinitionFile) -> tuple[AxiomReport, dict]:
    """One check per report line, in declaration order, plus structure
    digests.  A construction that raises fails its line: a verification
    failure with its own witness, any other error with its message as a
    witness at no basis tuple."""
    checks = AxiomReport()
    digests: dict[str, str] = {}

    def add(name: str, witness, passed=None):
        checks.checks.append(CheckResult(
            name, witness is None if passed is None else passed, witness))

    def add_outcome(name: str, fn):
        try:
            fn()
            add(name, None)
        except VerificationFailed as exc:
            add(name, exc.witness, passed=False)
        except HopfkitError as exc:
            add(name, Witness((), str(exc), ""))

    for decl in defs.declarations:
        if decl.kind == "group":
            add(f"{decl.name}.group-axioms", None)
            digests[decl.name] = digest({"table": [list(r) for r in decl.obj.table],
                                         "labels": list(decl.obj.labels)})
        elif decl.kind == "hopf":
            report = verify_hopf(decl.obj)
            for c in report.checks:
                add(f"{decl.name}.{c.name}", c.witness, passed=c.passed)
            if report.passed:
                add(f"{decl.name}.cocommutative", None,
                    passed=check_cocommutative(decl.obj))
            else:
                add(f"{decl.name}.cocommutative", None, passed=False)
            digests[decl.name] = digest(hopf_to_decl(decl.name, decl.obj))
        elif decl.kind == "map":
            if decl.on is not None:
                carrier = defs[decl.on].obj
                w = coalgebra_morphism_witness(decl.obj, carrier, carrier)
                add(f"{decl.name}.coalgebra-morphism", w)
                if decl.rota_baxter:
                    add_outcome(f"{decl.name}.rota-baxter",
                                lambda d=decl: rb_from_decl(defs, d))
            digests[decl.name] = digest(map_entries(decl.obj))
        elif decl.kind == "action":
            add_outcome(f"{decl.name}.module-bialgebra",
                        lambda d=decl: check_action(d.obj))
            digests[decl.name] = digest(map_entries(decl.obj.act))
        elif decl.kind == "rb":
            add_outcome(f"{decl.name}.rota-baxter",
                        lambda d=decl: rb_from_decl(defs, d))
        elif decl.kind == "brace":
            add_outcome(f"{decl.name}.brace",
                        lambda d=decl: build_brace(defs, d))
        elif decl.kind == "smash":
            add_outcome(f"{decl.name}.smash",
                        lambda d=decl: build_smash(defs, d))
        elif decl.kind == "factorization":
            def run_fact(d=decl):
                fact = build_factorization(defs, d)
                if "middle_rb" in d.raw:
                    c = verify_rb(fact.sub_l,
                                  middle_rb_map(fact.sub_l, d.raw["middle_rb"]))
                    constr_mod.rb_from_triple_factorization(fact, c)
            add_outcome(f"{decl.name}.factorization", run_fact)
        elif decl.kind == "cocycle":
            add_outcome(f"{decl.name}.cocycle",
                        lambda d=decl: build_cocycle(defs, d))
    return checks, digests


def build_report(defs: DefinitionFile, command: str) -> dict:
    checks, digests = run_checks(defs)
    lines = checks.as_dict()
    return {"version": 1, "field": field_to_json(defs.field),
            "command": command, "checks": lines["checks"], "digests": digests,
            "passed": lines["passed"]}


def render_report_text(report: dict) -> str:
    lines = [f"field: {report['field']}"]
    for c in report["checks"]:
        mark = "PASS" if c["passed"] else "FAIL"
        line = f"{mark}  {c['name']}"
        if "witness" in c:
            w = c["witness"]
            line += f"  [at ({', '.join(w['at'])}): lhs = {w['lhs']}, " \
                    f"rhs = {w['rhs']}]"
        lines.append(line)
    for name in sorted(report["digests"]):
        lines.append(f"digest  {name}  {report['digests'][name]}")
    lines.append(f"result: {'PASS' if report['passed'] else 'FAIL'} "
                 f"({len(report['checks'])} checks)")
    return "\n".join(lines) + "\n"


# -- derive -------------------------------------------------------------------------

def source_decl(defs: DefinitionFile, kind: str,
                name: str | None) -> Declaration:
    """The declaration of ``kind`` called ``name`` (the first one when None)
    that a command reads, not yet built.  A brace may also come from a
    Rota-Baxter operator, and an operator from a map on a carrier (when
    unnamed, the first map flagged rota_baxter)."""
    decl = defs[name] if name is not None else defs.first(kind)
    if decl is not None and decl.kind == kind:
        return decl
    if name is not None:
        if kind in ("brace", "rb") and (decl.kind == "rb" or decl.kind == "map"
                                        and decl.on is not None):
            return decl
        kinds = {"brace": "brace or Rota-Baxter", "rb": "Rota-Baxter"}
        raise DefinitionError(f"'{name}' is not a {kinds.get(kind, kind)} "
                              "declaration")
    if kind == "brace":
        return source_decl(defs, "rb", None)
    if kind != "rb":
        raise DefinitionError(f"no {kind} declaration found")
    for decl in defs.declarations:
        if decl.kind == "map" and decl.rota_baxter:
            return decl
    raise DefinitionError("no Rota-Baxter declaration found "
                          "(declare kind 'rb' or flag a map rota_baxter)")


def brace_from_decl(defs: DefinitionFile, decl: Declaration):
    if decl.kind == "brace":
        return build_brace(defs, decl)
    return brace_mod.brace_from_rb(rb_from_decl(defs, decl))


def carrier_dim(defs: DefinitionFile, decl: Declaration) -> int:
    """The dimension of the carrier a source declaration lives on, read
    from the parsed declarations; dim_H·dim_K for a smash product."""
    refs = decl.refs
    if decl.kind == "map":
        return defs[decl.on].obj.dim
    if decl.kind == "smash":
        return refs["left"].obj.dim * refs["right"].obj.dim
    if "rb" in refs:
        return carrier_dim(defs, refs["rb"])
    return next(refs[key].obj.dim for key in ("hopf", "flip", "dot", "target")
                if key in refs)


def rb_decls(carrier: str, h, name: str, b: LinearOp) -> list[dict]:
    """A carrier and a map on it flagged rota_baxter, as declarations."""
    entry = map_to_decl(name, b, on=carrier)
    entry["rota_baxter"] = True
    return [hopf_to_decl(carrier, h), entry]


def run_derive(defs: DefinitionFile, what: str, name: str | None,
               using: str | None) -> dict:
    if what not in DERIVE_TARGETS:
        raise DefinitionError(f"unknown derive target '{what}'")
    if what == "conjugate" and using is None:
        raise DefinitionError("derive conjugate needs --using <automorphism>")
    if what != "conjugate" and using is not None:
        raise DefinitionError(f"--using applies only to derive conjugate, "
                              f"not to derive {what}")
    kinds = {"embed": "brace", "smash": "smash", "cocycle-rb": "cocycle"}
    decl = source_decl(defs, kinds.get(what, "rb"), name)
    if what in TENSOR_TARGETS:
        dim = carrier_dim(defs, decl)
        if dim > MAX_DERIVE_DIM:
            raise DefinitionError(f"derive {what}: carrier dimension {dim} "
                                  f"exceeds the limit of {MAX_DERIVE_DIM}")
    src = decl.name
    if what == "conjugate":
        phi = defs[using]
        if phi.kind != "map":
            raise DefinitionError(f"--using '{using}' must name a map")
        space = carrier_decl(defs, decl).obj.space
        if phi.obj.domain != space or phi.obj.codomain != space:
            raise DefinitionError(f"--using '{using}' does not map the carrier "
                                  f"of '{src}' to itself")
    if what not in kinds:           # the target reads a Rota-Baxter operator
        rbop = rb_from_decl(defs, decl)
    if what == "circle":
        decls = [hopf_to_decl(f"{src}_circle", rb_mod.descend(rbop).hopf)]
    elif what == "tilde":
        decls = rb_decls(f"{src}_carrier", rbop.carrier, f"{src}_tilde",
                         rb_mod.rb_tilde(rbop).map)
    elif what == "conjugate":
        decls = rb_decls(f"{src}_carrier", rbop.carrier, f"{src}_conjugate",
                         rb_mod.rb_conjugate(rbop, phi.obj).map)
    elif what == "posthopf":
        p = posthopf_mod.posthopf_from_rb(rbop)
        decls = [hopf_to_decl(f"{src}_carrier", p.carrier),
                 map_to_decl(f"{src}_tri", p.tri),
                 map_to_decl(f"{src}_beta", p.beta)]
    elif what == "matched-pair":
        m = matched_mod.matched_pair_from_rb(rbop)
        decls = [hopf_to_decl(f"{src}_circle", m.left),
                 map_to_decl(f"{src}_lact", m.lact),
                 map_to_decl(f"{src}_ract", m.ract)]
    elif what == "ybe":
        y = matched_mod.ybe_from_rb(rbop)
        decls = [map_to_decl(f"{src}_ybe_c", y.c),
                 map_to_decl(f"{src}_ybe_c_inverse", y.c_inverse)]
    elif what == "embed":
        emb = brace_mod.embed_into_rb(brace_from_decl(defs, decl))
        decls = rb_decls(f"{src}_ambient", emb.ambient, f"{src}_rb",
                         emb.rb.map) + [map_to_decl(f"{src}_psi", emb.psi)]
    elif what == "smash":
        sp = build_smash(defs, decl)
        decls = [hopf_to_decl(f"{src}_smash", sp.product),
                 hopf_to_decl(f"{src}_tensor", sp.tensor)]
    else:
        built = cocycle_mod.rb_hopf_from_cocycle(build_cocycle(defs, decl))
        decls = rb_decls(f"{src}_ambient", built.ambient, f"{src}_rb",
                         built.rb.map)
    return document(defs.field, decls)


# -- check ---------------------------------------------------------------------------

def resolve_hopf_and_map(defs: DefinitionFile, name: str | None):
    def pairs(decl):
        return decl.kind == "rb" or decl.kind == "map" and decl.on is not None
    if name is not None:
        decl = defs[name]
        if not pairs(decl):
            raise DefinitionError(f"'{name}' does not name a (hopf, map) pair")
    else:
        decl = defs.first("rb") or next(filter(pairs, defs.declarations), None)
        if decl is None:
            raise DefinitionError("no map declaration found")
    return hopf_and_map(defs, decl)


def run_check(defs: DefinitionFile, condition: str, name: str | None):
    if condition in ("op-module", "symmetric", "prop44"):
        br = brace_from_decl(defs, source_decl(defs, "brace", name))
        fn = {"op-module": brace_mod.op_module_witness,
              "symmetric": brace_mod.symmetric_witness,
              "prop44": brace_mod.symmetric_sufficient_witness}[condition]
        return fn(br)
    h, b = resolve_hopf_and_map(defs, name)
    fn = {"prop48": brace_mod.rb_symmetric_sufficient_witness,
          "prop49": brace_mod.rb_op_module_witness,
          "central-image": central_image_witness,
          "lemma218": descendent_antipode_inverse_witness}[condition]
    return fn(h, b)


# -- search ----------------------------------------------------------------------------

def run_search(defs: DefinitionFile, budget: int | None) -> dict:
    out: dict = {}
    for decl in defs.declarations:
        # a group, or the group stored on a carrier that group_algebra built
        group = (decl.obj if decl.kind == "group" else
                 decl.obj._group if decl.kind == "hopf" else None)
        if group is None:
            continue
        ops = gr.enumerate_rb_group_ops(group, budget)
        out[decl.name] = {"order": group.order,
                          "operators": [list(op.table) for op in ops],
                          "count": len(ops)}
    if not out:
        raise DefinitionError("no group declarations found")
    return out


# -- entry point -------------------------------------------------------------------------

def _write(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _unwritable(path: str) -> str | None:
    """Why ``path`` cannot be opened for writing, as ``open`` would say it,
    for the cases seen without touching the file: a path that is a
    directory, and a parent that is missing or not a directory."""
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    try:
        parent = os.stat(os.path.dirname(os.path.abspath(path)))
    except OSError as exc:
        return exc.strerror
    return None if stat.S_ISDIR(parent.st_mode) else os.strerror(errno.ENOTDIR)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfkit",
        description="Exact verification engine for Rota-Baxter operators on "
                    "cocommutative Hopf algebras, Hopf braces and "
                    "Yang-Baxter maps.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default=None,
                        help="override the document field: 'rational' or a prime p")
    common.add_argument("--threads", type=int, default=0,
                        help="accepted for interface compatibility; sweeps are "
                             "sequential and schedule-independent")
    common.add_argument("--format", choices=("json", "text"), default="text")
    common.add_argument("--out", default=None, help="write output to a file")

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("verify", parents=[common],
                       help="run the full axiom suite on every declaration")
    p.add_argument("file")
    p = sub.add_parser("derive", parents=[common],
                       help="emit a derived structure as a definition file")
    p.add_argument("what", choices=DERIVE_TARGETS)
    p.add_argument("file")
    p.add_argument("--name", default=None, help="source declaration")
    p.add_argument("--using", default=None,
                   help="automorphism for 'conjugate' (refused by other targets)")
    p = sub.add_parser("check", parents=[common],
                       help="sweep one named condition")
    p.add_argument("condition", choices=CHECK_CONDITIONS)
    p.add_argument("file")
    p.add_argument("--name", default=None, help="structure to check")
    p = sub.add_parser("search", parents=[common],
                       help="enumerate Rota-Baxter operators on declared groups")
    p.add_argument("what", choices=("rb-group",))
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=None,
                   help="bound on search nodes, at least 0")
    p = sub.add_parser("report", parents=[common],
                       help="full verification report with structure digests")
    p.add_argument("file")
    return parser


# parse_args leaves the parser as it was, so one instance serves every call.
PARSER = _build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        spec = args.field
        field_override = None if spec is None else field_from_json(
            int(spec) if spec.isascii() and spec.isdigit() else spec)
    except ValueError as exc:
        print(f"error: bad --field: {exc}", file=sys.stderr)
        return 2
    if args.command == "search" and args.budget is not None and args.budget < 0:
        print(f"error: bad --budget: {args.budget} is below 0", file=sys.stderr)
        return 2

    reason = args.out and _unwritable(args.out)
    if reason:
        print(f"error: cannot write {args.out}: {reason}", file=sys.stderr)
        return 2
    try:
        defs = parse_file(args.file, field_override)
    except (DefinitionError, DimensionMismatch, FieldMismatch, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        code = 0
        if args.command in ("verify", "report"):
            report = build_report(defs, args.command)
            text = render_json(report) if args.format == "json" \
                else render_report_text(report)
            code = 0 if report["passed"] else 1
        elif args.command == "derive":
            doc = run_derive(defs, args.what, args.name, args.using)
            text = dump_document(doc)
        elif args.command == "check":
            witness = run_check(defs, args.condition, args.name)
            if witness is None:
                text = f"PASS  {args.condition}\n"
            else:
                text, code = f"FAIL  {args.condition}  [{witness}]\n", 1
        else:
            found = run_search(defs, args.budget)
            if args.format == "json":
                text = render_json(found)
            else:
                lines = []
                for name in sorted(found):
                    info = found[name]
                    lines.append(f"group {name}: {info['count']} operators")
                    digits = [str(x) for x in range(info["order"])]
                    for table in info["operators"]:
                        lines.append("  " + " ".join([digits[x] for x in table]))
                text = "\n".join(lines) + "\n"
    except DefinitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailed as exc:
        print(f"FAIL  {exc}", file=sys.stderr)
        return 1
    except HopfkitError as exc:
        print(f"FAIL  {exc}", file=sys.stderr)
        return 1
    try:
        _write(text, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
