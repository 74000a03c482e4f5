"""Every fast path of src/hopfkit is listed in ``FAST_PATHS``.

A fast path reads the group behind a carrier (``basis_group``, a stored
``._group``), the generators of a verified product (``_generators``) or
the index table of a basis map (``basis_indices``).  Each such function
must be listed in ``tests/conftest.py`` with the test that turns its read
off and compares, so a new fast path cannot land without one.  Every module
that imports one of those reads must have it patched by the switch of
``FAST_PATHS_OFF``, so a new read cannot escape ``fast_paths_off``.
"""

import ast
import pathlib

from conftest import FAST_PATHS, FAST_PATHS_OFF

ROOT = pathlib.Path(__file__).resolve().parent.parent
READS = {"basis_group", "_generators", "basis_indices"}


def reads(node) -> bool:
    """Whether ``node`` calls one of ``READS`` or loads ``._group``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            func = n.func
            if getattr(func, "id", getattr(func, "attr", None)) in READS:
                return True
        if (isinstance(n, ast.Attribute) and n.attr == "_group"
                and isinstance(n.ctx, ast.Load)):
            return True
    return False


def sites(tree, prefix):
    """``module.function`` (``module.Class.method``) for every function
    defined at the top of ``tree`` or in a class that does a read; a nested
    function counts for the one it is defined in."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            yield from sites(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if reads(node):
                yield prefix + node.name


def found_sites():
    out = set()
    for path in sorted((ROOT / "src" / "hopfkit").glob("*.py")):
        out.update(sites(ast.parse(path.read_text(encoding="utf-8")),
                         f"{path.stem}."))
    return out


def test_every_fast_path_is_listed():
    found = found_sites()
    assert sorted(found - FAST_PATHS.keys()) == [], "unlisted fast paths"
    assert sorted(FAST_PATHS.keys() - found) == [], "listed, but no read"


def imported_reads(tree, module):
    """``(module, name)`` for every name of ``READS`` imported by ``tree``."""
    return {(module, alias.asname or alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names
            if alias.name in READS}


def test_every_imported_read_is_switched_off():
    imported = set()
    for path in sorted((ROOT / "src" / "hopfkit").glob("*.py")):
        imported |= imported_reads(ast.parse(path.read_text(encoding="utf-8")),
                                   path.stem)
    switched = {(module.__name__.rsplit(".", 1)[-1], name)
                for module, name, _ in FAST_PATHS_OFF}
    assert imported and sorted(imported - switched) == []


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
