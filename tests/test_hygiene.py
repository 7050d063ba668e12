"""Hygiene of the library, read from the source with `ast` and `re`.

Every name a module in `src/bianchicert/` imports is used in that module,
the package root included, and no module imports `fractions` or
`dataclasses`: the ring O_d and everything built on it is exact integer
arithmetic, and records are `typing.NamedTuple`s or slotted classes.  Every
function, class and method the library defines is named somewhere in
`src/`, `demos/` or `benchmarks/` outside its own definition, so the library
carries nothing that only tests reach (the test-local oracles live in
`tests/oracles.py`), and every field of a record, a `@dataclass` or a
`typing.NamedTuple`, is read somewhere in `src/`, `tests/`, `demos/` or
`benchmarks/`, so no record carries a value that nothing looks at.  `quadint._unchecked`, which builds a QuadInt without
validating d, is named nowhere outside `quadint.py`, and neither is the
basis case split `% 4 == 3`: the integral basis of O_d is decided there, in
`_tau_square`, and every other module converts through it.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bianchicert"
MODULES = sorted(p for p in PACKAGE.glob("*.py"))
NOT_INTEGER_ONLY = ("fractions", "dataclasses")
SCANNED = sorted(p for top in ("src", "tests", "demos", "benchmarks")
                 for p in (ROOT / top).rglob("*.py"))
# Read only by acceptance criterion 6; ROADMAP item 1 step 2 removes it with
# the fig8 assumption line.
UNREFERENCED_ALLOWED = {"assumptions"}
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def imported_names(tree):
    """(bound name, imported module) for each import outside `__future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.module or ""


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    """Names loaded anywhere, string annotations included."""
    trees = [tree]
    for ann in annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_package_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = parse(path)
    used = used_names(tree)
    unused = sorted(name for name, _ in imported_names(tree) if name not in used)
    assert unused == [], f"{path.name} imports {unused} without using them"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_is_integer_only(path):
    modules = {module for _, module in imported_names(parse(path))}
    found = sorted(modules & set(NOT_INTEGER_ONLY))
    assert found == [], f"{path.name} imports {found}"


def test_checker_sees_an_unused_import():
    tree = ast.parse("from typing import Sequence, Optional\nx: Optional[int] = None\n"
                     "def f(a: 'Mapping') -> None: ...\nimport fractions\n")
    used = used_names(tree)
    assert [n for n, _ in imported_names(tree) if n not in used] == ["Sequence", "fractions"]
    assert "Mapping" in used


def definitions(tree):
    """(name, first line, last line) of each function, class and method
    outside the dunders."""
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))):
            yield node.name, node.lineno, node.end_lineno


def unreferenced(sources, defining):
    """`<file>:<line> <name>` for each definition in the `defining` files that
    no text in `sources` (file -> text) names outside the definition itself;
    comments and strings count as naming it."""
    per_line = {f: [Counter(IDENTIFIER.findall(line)) for line in sources[f].splitlines()]
                for f in defining}
    total = Counter(name for text in sources.values() for name in IDENTIFIER.findall(text))
    return [f"{f}:{first} {name}"
            for f in defining
            for name, first, last in definitions(ast.parse(sources[f]))
            if total[name] == sum(c[name] for c in per_line[f][first - 1:last])]


def outside_tests(sources):
    """The sources whose names count as references: a test is not a caller."""
    return {f: text for f, text in sources.items() if not f.startswith("tests/")}


def test_every_definition_is_referenced():
    sources = outside_tests({str(p.relative_to(ROOT)): p.read_text() for p in SCANNED})
    defining = [str(p.relative_to(ROOT)) for p in MODULES]
    assert [found for found in unreferenced(sources, defining)
            if found.split()[-1] not in UNREFERENCED_ALLOWED] == []


def test_checker_sees_an_unreferenced_definition():
    lib = ("class Used:\n    def method(self):\n        return self.method()\n"
           "    def __repr__(self):\n        return ''\n"
           "def dead(n):\n    return dead(n - 1)\n")
    user = "from lib import Used  # mentions method\n"
    assert unreferenced({"lib.py": lib, "user.py": user}, ["lib.py"]) == ["lib.py:6 dead"]
    # a definition named only in a test file is flagged
    lib += "def tested():\n    return 1\n"
    test = "from lib import tested\nassert tested() == 1\n"
    sources = outside_tests({"lib.py": lib, "user.py": user, "tests/test_lib.py": test})
    assert unreferenced(sources, ["lib.py"]) == ["lib.py:6 dead", "lib.py:8 tested"]


def named(node):
    return getattr(node, "id", getattr(node, "attr", None))


def is_record(node):
    """Whether a class is decorated `@dataclass` or derives from `NamedTuple`."""
    return (any(named(dec.func if isinstance(dec, ast.Call) else dec) == "dataclass"
                for dec in node.decorator_list)
            or any(named(base) == "NamedTuple" for base in node.bases))


def record_fields(tree):
    """(class, field, line) of each annotated field of a record class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and is_record(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id, stmt.lineno


def field_reads(tree):
    """Names read as an attribute (`w.name`), passed as a keyword
    (`f(name=...)`) or spelled as a string key (`getattr(w, "name")`, the
    `FIELDS` table)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def unread_fields(sources, defining):
    """`<file>:<line> <Class>.<field>` for each record field in the
    `defining` files that no text in `sources` (file -> text) reads."""
    reads = {name for text in sources.values() for name in field_reads(ast.parse(text))}
    return [f"{f}:{line} {cls}.{name}"
            for f in defining
            for cls, name, line in record_fields(ast.parse(sources[f]))
            if name not in reads]


def test_every_dataclass_field_is_read():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SCANNED}
    defining = [str(p.relative_to(ROOT)) for p in MODULES]
    assert unread_fields(sources, defining) == []


def test_checker_sees_an_unread_field():
    lib = ("from dataclasses import dataclass\n"
           "@dataclass(frozen=True)\nclass Record:\n"
           "    dead: int\n    loaded: int\n    named: int\n    keyed: int\n"
           "    def total(self):\n        return self.loaded\n"
           "@dataclass\nclass Other:\n    spare: int\n"
           "class Plain:\n    hint: int\n"
           "class Row(typing.NamedTuple):\n    unread: int\n    used: int\n")
    user = ("from lib import Record, Row\n"
            "r = Record(0, 1, 2, keyed=3)\n"
            "print(getattr(r, 'named'), Row(0, 1).used)\nr.dead = 4  # a store is not a read\n")
    assert unread_fields({"lib.py": lib, "user.py": user}, ["lib.py"]) == [
        "lib.py:4 Record.dead", "lib.py:12 Other.spare", "lib.py:16 Row.unread"]


UNCHECKED = "_unchecked"
UNCHECKED_HOME = "src/bianchicert/quadint.py"


def unchecked_uses(sources):
    """`<file>:<line>` for each call, attribute read or import of the
    validation-skipping constructor outside its home module."""
    found = []
    for f, text in sources.items():
        if f == UNCHECKED_HOME:
            continue
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Name) and node.id == UNCHECKED
                    or isinstance(node, ast.Attribute) and node.attr == UNCHECKED
                    or isinstance(node, ast.alias) and node.name == UNCHECKED):
                found.append(f"{f}:{node.lineno}")
    return sorted(found)


def test_unchecked_constructor_stays_in_quadint():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SCANNED}
    assert UNCHECKED_HOME in sources
    assert f"def {UNCHECKED}(" in sources[UNCHECKED_HOME]
    assert unchecked_uses(sources) == []


def test_checker_sees_an_unchecked_call():
    home = f"def {UNCHECKED}(d, x, y):\n    return None\nz = {UNCHECKED}(3, 1, 0)\n"
    elsewhere = ("from bianchicert import quadint\n"
                 "from bianchicert.quadint import _unchecked as make\n"
                 "a = quadint._unchecked(4, 1, 0)\n"
                 "def f():\n    return _unchecked(0, 1, 0)\n")
    assert unchecked_uses({UNCHECKED_HOME: home, "src/bianchicert/psl2.py": elsewhere}) == [
        "src/bianchicert/psl2.py:2", "src/bianchicert/psl2.py:3", "src/bianchicert/psl2.py:5"]


BASIS_SPLIT = re.compile(r"%\s*4\s*==\s*3")
BASIS_HOME = "quadint.py"


def test_basis_split_stays_in_quadint():
    homes = {p.name: len(BASIS_SPLIT.findall(p.read_text())) for p in MODULES}
    assert homes[BASIS_HOME] == 1
    assert {name for name, n in homes.items() if n} == {BASIS_HOME}


def test_checker_sees_a_basis_split():
    assert BASIS_SPLIT.findall("if d % 4 == 3:\n    pass\nhalf = d%4==3\n") == [
        "% 4 == 3", "%4==3"]
    assert not BASIS_SPLIT.search("if p % 4 != 0:\n    r = d % 4 == 1\n")
