"""Every fast path of src/hopfkit is listed in ``FAST_PATHS``, and the
switch of ``FAST_PATHS_OFF`` reaches each one.

A fast path reads the group behind a carrier (``basis_group``, a stored
``._group``), the generators of a verified product (``_generators``) or
the index table of a basis map (``basis_indices``).  Each such function
must be listed in ``tests/conftest.py`` with the test that turns its read
off and compares, so a new fast path cannot land without one.

Acceptance is the one place that decides whether a carrier is k[G]: only
``hopf.verify_hopf`` calls the recognizer ``basis_group``, and every other
group read takes the group that ``hopf._accept`` stored.  Only ``hopf``
holds ``basis_group`` and ``_generators``, and a basis map is read only
next to a stored group.  So the two patch points of ``FAST_PATHS_OFF``,
``hopf._accept`` and ``hopf._generators``, turn every fast path off.
"""

import ast
import pathlib

from hopfkit import hopf as hopf_mod

from conftest import FAST_PATHS, FAST_PATHS_OFF

ROOT = pathlib.Path(__file__).resolve().parent.parent
READS = {"basis_group", "_generators", "basis_indices"}
# the reads that only hopf may hold, so that patching hopf reaches them
HOPF_ONLY = {"basis_group", "_generators"}


def called(node) -> set:
    """The names of ``READS`` that ``node`` calls, plus ``"._group"`` when
    it loads a stored ``._group``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            func = n.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name in READS:
                out.add(name)
        if (isinstance(n, ast.Attribute) and n.attr == "_group"
                and isinstance(n.ctx, ast.Load)):
            out.add("._group")
    return out


def reads(node) -> bool:
    """Whether ``node`` calls one of ``READS`` or loads ``._group``."""
    return bool(called(node))


def functions(tree, prefix):
    """``(name, node)`` for every function defined at the top of ``tree``
    or in a class, named ``module.function`` (``module.Class.method``); a
    nested function counts for the one it is defined in."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node


def sites(tree, prefix):
    """Every function of :func:`functions` that does a read."""
    return (name for name, node in functions(tree, prefix) if reads(node))


def modules():
    """``(stem, tree)`` for every module of src/hopfkit."""
    for path in sorted((ROOT / "src" / "hopfkit").glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def found_sites():
    out = set()
    for stem, tree in modules():
        out.update(sites(tree, f"{stem}."))
    return out


def test_every_fast_path_is_listed():
    found = found_sites()
    assert sorted(found - FAST_PATHS.keys()) == [], "unlisted fast paths"
    assert sorted(FAST_PATHS.keys() - found) == [], "listed, but no read"


def test_only_acceptance_recognizes_a_group():
    recognizers = {name for stem, tree in modules()
                   for name, node in functions(tree, f"{stem}.")
                   if "basis_group" in called(node)}
    assert recognizers == {"hopf.verify_hopf"}


def test_basis_maps_are_read_only_next_to_a_stored_group():
    # the recognizer reads the tables of the carrier it is given; every
    # other basis-map read must decline on a carrier with no stored group
    readers = {name: called(node) for stem, tree in modules()
               for name, node in functions(tree, f"{stem}.")
               if "basis_indices" in called(node)}
    assert readers.pop("hopf.basis_group")
    assert readers and all("._group" in found for found in readers.values())


def imported_reads(tree, module):
    """``(module, name)`` for every name of ``READS`` imported by ``tree``."""
    return {(module, alias.asname or alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names
            if alias.name in READS}


def test_every_imported_read_is_switched_off():
    # no module takes its own reference to basis_group or _generators (rb
    # and brace among them), so the switch is exactly the stored group and
    # the generators, both patched in hopf
    imported = {stem: {alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       for alias in node.names}
                for stem, tree in modules()}
    assert "basis_indices" in imported["rb"]
    assert {stem: names & HOPF_ONLY for stem, names in imported.items()
            if names & HOPF_ONLY} == {}
    assert [(module, name) for module, name, _ in FAST_PATHS_OFF] == [
        (hopf_mod, "_accept"), (hopf_mod, "_generators")]


def test_every_listed_path_names_a_test():
    for site, test_id in FAST_PATHS.items():
        file, name = test_id.split("::")
        tree = ast.parse((ROOT / file).read_text(encoding="utf-8"))
        tests = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert name in tests, (site, test_id)


def test_the_scan_sees_each_kind_of_read():
    source = '''
def calls(h):
    return basis_group(h)

def nested(h):
    def inner():
        return hopf._generators(h)
    return inner

def stores(h):
    h._group = None

class C:
    def loads(self, h):
        return h._group is None
'''
    assert sorted(sites(ast.parse(source), "m.")) == [
        "m.C.loads", "m.calls", "m.nested"]
    imports = ast.parse("from .hopf import basis_group as bg, apply2\n"
                        "from .hopf import (_generators,\n    first_witness)\n")
    assert sorted(imported_reads(imports, "m")) == [("m", "_generators"),
                                                    ("m", "bg")]
