"""Source hygiene: no module imports a name it never uses, every public
definition of the package (public methods of its classes included) has a
reader, every field of a package record (a NamedTuple or a class with
`__slots__`) is read, no module imports dataclasses, EnumerationLimit is
raised only by the budget helper and the two caps, and the package
version agrees with pyproject.toml."""

import ast
import re
from pathlib import Path

import otlab

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "otlab").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").rglob("*.py"))
# what a command runs or an acceptance criterion checks, besides the package
READERS = sorted((ROOT / "otbench").rglob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]
# attribute names of builtin types: reading `x.encode` may be str.encode
SHARED_WITH_BUILTINS = {name for t in (str, bytes, int, float, tuple, list,
                                       dict, set)
                        for name in dir(t) if not name.startswith("_")}


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements that no other node reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def names_read(tree: ast.AST, skip=None) -> tuple[set[str], set[str]]:
    """The bare names (Name nodes and imported names) and the attribute
    names (`x.attr`) in tree, outside `skip`; words inside strings do not
    count."""
    names, attributes = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return names, attributes


def public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function and class
    of a module and of each public method of its classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def unread_definitions(package: dict, readers: list) -> list[str]:
    """Public definitions of the package modules that no module names
    outside their own definition, the defining module included.  A method
    counts as read only through an attribute (`x.row`, not a variable
    `row`), and one whose name a builtin type shares only in the module
    that defines its class or in a module that names the class."""
    others = [(None, names_read(tree)) for tree in readers] + [
        (name, names_read(tree)) for name, tree in package.items()]

    def reads(node, owner, shared, read) -> bool:
        names, attributes = read
        return ((node.name in attributes or not owner and node.name in names)
                and (not shared or owner in names | attributes))

    unread = []
    for name, tree in package.items():
        for qualified, node in public_definitions(tree):
            owner = qualified.rpartition(".")[0]
            shared = owner and node.name in SHARED_WITH_BUILTINS
            if not (any(reads(node, owner, shared, read)
                        for other, read in others if other != name)
                    or reads(node, owner, False, names_read(tree, skip=node))):
                unread.append(f"{name}.{qualified}")
    return unread


def record_fields(node: ast.ClassDef) -> list[str]:
    """The fields of a record class: the annotated names of a NamedTuple
    subclass, or the names a class lists in its `__slots__`; a plain
    class has none."""
    if any(ast.unparse(base) == "NamedTuple" for base in node.bases):
        return [item.target.id for item in node.body
                if isinstance(item, ast.AnnAssign)]
    for item in node.body:
        if (isinstance(item, ast.Assign)
                and [ast.unparse(t) for t in item.targets] == ["__slots__"]):
            return list(ast.literal_eval(item.value))
    return []


def unread_fields(package: dict, readers: list) -> list[str]:
    """Fields of the package's records that no module, the package
    included, reads as an attribute (`x.field`, not an assignment to it).

    A field counts as read when any attribute of its name is read, owner
    or not: `CompressionPair.margin` would escape this scan, because
    `OuterParams.margin` shares its name."""
    read = {node.attr for tree in [*package.values(), *readers]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return [f"{name}.{node.name}.{field}"
            for name, tree in package.items() for node in tree.body
            if isinstance(node, ast.ClassDef)
            for field in record_fields(node) if field not in read]


def dataclass_importers(package: dict) -> list[str]:
    """The modules that import `dataclasses`, whose generated methods every
    process would compile at start-up."""
    return [name for name, tree in package.items()
            if any(isinstance(node, ast.Import)
                   and any(a.name == "dataclasses" for a in node.names)
                   or isinstance(node, ast.ImportFrom)
                   and node.module == "dataclasses"
                   for node in ast.walk(tree))]


def test_unused_imports_are_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport numpy as np\n"
                     "from a import b, c\nprint(os, c)\n")
    assert unused_imports(tree) == ["np (line 3)", "b (line 4)"]


def test_no_module_imports_an_unused_name():
    found = {str(path.relative_to(ROOT)): unused
             for path in SOURCES
             if (unused := unused_imports(ast.parse(path.read_text())))}
    assert found == {}


def test_unread_definitions_are_found():
    package = {"a": ast.parse("def used(): pass\n"
                              "def recursive(): return recursive()\n"
                              "def quoted(): 'quoted'\n"
                              "class _Private: pass\n"),
               "b": ast.parse("from a import used\n")}
    assert unread_definitions(package, []) == ["a.recursive", "a.quoted"]
    reader = ast.parse("import a\na.recursive")
    assert unread_definitions(package, [reader]) == ["a.quoted"]


def test_unread_methods_are_found():
    package = {"a": ast.parse("class C:\n"
                              "    def used(self): pass\n"
                              "    def unused(self): pass\n"
                              "    def self_only(self): self.self_only()\n"
                              "    def _private(self): pass\n"
                              "    @property\n"
                              "    def shape(self): pass\n"
                              "    def row(self, i): pass\n"
                              "class _Hidden:\n"
                              "    def dead(self): pass\n"
                              "def rows(m): return [row for row in m]\n"),
               "b": ast.parse("from a import C, rows\nC().used()\n"
                              "for row in rows(C()): print(row)\n")}
    # a variable named like a method, here and in a, does not read it
    assert unread_definitions(package, []) == [
        "a.C.unused", "a.C.self_only", "a.C.shape", "a.C.row",
        "a._Hidden.dead"]
    reader = ast.parse("def f(x): return x.shape, x.row(0)")
    assert unread_definitions(package, [reader]) == [
        "a.C.unused", "a.C.self_only", "a._Hidden.dead"]


def test_methods_named_like_builtin_attributes_need_their_owner():
    package = {"a": ast.parse("class _Bag:\n"
                              "    def add(self, x): pass\n"
                              "    def put(self, x): pass\n"
                              "def add(x): pass\n"),
               "b": ast.parse("s = set()\ns.add(1)\ns.put = 2\nadd(3)\n")}
    # set.add does not read _Bag.add; the top-level add and _Bag.put, whose
    # name no builtin type has, are read by name alone
    assert unread_definitions(package, []) == ["a._Bag.add"]
    reader = ast.parse("from a import _Bag\n_Bag().add(1)\n")
    assert unread_definitions(package, [reader]) == []


def test_every_public_definition_has_a_reader():
    package = {path.stem: ast.parse(path.read_text()) for path in PACKAGE}
    readers = [ast.parse(path.read_text()) for path in READERS]
    assert unread_definitions(package, readers) == []


def test_unread_fields_are_found():
    package = {"a": ast.parse("from typing import NamedTuple\n"
                              "class P(NamedTuple):\n"
                              "    read: int\n"
                              "    unread: int\n"
                              "    written: int = 0\n"
                              "class Q:\n"
                              "    __slots__ = ('other', 'read')\n"
                              "class Plain:\n"
                              "    hint: int\n"
                              "def f(p): return p.read\n"),
               "b": ast.parse("def g(q):\n    q.written = 1\n")}
    # an assignment is not a read, and a plain class has no fields
    assert unread_fields(package, []) == ["a.P.unread", "a.P.written",
                                          "a.Q.other"]
    reader = ast.parse("def h(q): return q.other")
    assert unread_fields(package, [reader]) == ["a.P.unread", "a.P.written"]


def test_every_record_field_is_read():
    package = {path.stem: ast.parse(path.read_text()) for path in PACKAGE}
    readers = [ast.parse(path.read_text())
               for path in sorted({*SOURCES, *READERS} - {*PACKAGE})]
    assert unread_fields(package, readers) == []


def test_dataclass_importers_are_found():
    package = {"a": ast.parse("from dataclasses import dataclass\n"),
               "b": ast.parse("import dataclasses as dc\n"),
               "c": ast.parse("def f():\n    import dataclasses\n"),
               "d": ast.parse("from typing import NamedTuple\n")}
    assert dataclass_importers(package) == ["a", "b", "c"]


def test_no_module_imports_dataclasses():
    package = {path.stem: ast.parse(path.read_text()) for path in PACKAGE}
    assert dataclass_importers(package) == []


def enumeration_limit_raisers(tree: ast.Module) -> list[str]:
    """The functions (Class.method for methods) of a module that hold a
    `raise EnumerationLimit`, called or not, once per raise."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}" if owner else child.name
            if isinstance(child, ast.Raise):
                exc = child.exc
                exc = exc.func if isinstance(exc, ast.Call) else exc
                if "EnumerationLimit" in (getattr(exc, "id", None),
                                          getattr(exc, "attr", None)):
                    found.append(owner)
            visit(child, name)

    visit(tree, "")
    return found


def test_enumeration_limit_raisers_are_found():
    tree = ast.parse("def check(): raise EnumerationLimit('x')\n"
                     "class C:\n"
                     "    def f(self):\n"
                     "        if x:\n"
                     "            raise EnumerationLimit(f'{x}')\n"
                     "        raise ValueError('y')\n"
                     "    def g(self): raise codes.EnumerationLimit\n")
    assert enumeration_limit_raisers(tree) == ["check", "C.f", "C.g"]


def test_one_budget_helper_and_two_memory_caps_raise_enumeration_limit():
    # a budget compared anywhere but in check_budget is a copy of it
    found = sorted(f"{path.stem}.{owner}" for path in PACKAGE
                   for owner in enumeration_limit_raisers(ast.parse(
                       path.read_text())))
    assert found == ["adversary.audit_bob_strategies", "codes.check_budget",
                     "proto_p0.check_decoder_cap"]


def test_package_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', text, re.M) == [otlab.__version__]
