"""Hygiene of the library, read from the source with `ast` and `re`.

Every name a module in `src/bianchicert/` imports is used in that module,
the package root included, and no module imports `fractions` or
`dataclasses`: the ring O_d and everything built on it is exact integer
arithmetic, and records are `typing.NamedTuple`s or slotted classes.  Every
function, class and method the library defines, the dunders aside, is named
somewhere in `src/`, `demos/` or `benchmarks/` outside its own definition
(`UNREFERENCED_ALLOWED` names the two kept for a reason), so the library
carries nothing that only tests reach (the test-local oracles live in
`tests/oracles.py`), and every field of a record, a `@dataclass` or a
`typing.NamedTuple`, is read somewhere in `src/`, `tests/`, `demos/` or
`benchmarks/`, so no record carries a value that nothing looks at.

The name-based check is fooled by a name that something else also bears, so a
reachability gate backs it for functions, methods and properties, the
dunders included: a fresh interpreter installs a profile hook before
`bianchicert` is imported, then runs `entry_points.run()` (every command
through `cli.main` with its exit code and verdict asserted, then the three
demos; the CI workflow runs the same function as one step), and each
definition must be entered or be named, with the reason it is kept, in
`ORACLES` (kept for a caller outside the commands) or `ENTRY_EXEMPT` (a hook
that Python calls for a caller, exempt by its qualified name only).  A code
object is matched to its definition by file and first line, the first
decorator's line for a decorated one.  An `ORACLES` entry that the run
enters, or an entry of either that is no longer defined, fails the gate too.

`quadint._unchecked`, which builds a QuadInt without validating d, is named
nowhere outside `quadint.py`, and neither is the basis case split
`% 4 == 3`: the integral basis of O_d is decided there, in `_tau_square`,
and every other module converts through it.
"""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bianchicert"
MODULES = sorted(p for p in PACKAGE.glob("*.py"))
NOT_INTEGER_ONLY = ("fractions", "dataclasses")
SCANNED = sorted(p for top in ("src", "tests", "demos", "benchmarks")
                 for p in (ROOT / top).rglob("*.py"))
# Named nowhere outside the tests, each kept for the reason its ORACLES entry
# gives: `assumptions` (CompressionWitness), which ROADMAP item 1 step 2
# removes with the fig8 assumption line, and `inv` (ResidueMatrix), the finite
# model's inverse, which waits on ROADMAP item 1.
UNREFERENCED_ALLOWED = {"assumptions", "inv"}
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


# The definitions that no command or demo enters, each kept for a caller
# outside them; an entry that the entry points enter, or that is no longer
# defined, fails the gate.
ORACLES = {
    "Mat2.__mul__": "benchmarks/spans.py wraps it by name; ROADMAP item 3 drops that layer",
    "PslElement.__mul__": "the group product of the object-level tests, their reference",
    "PslElement.__pow__": "benchmarks/spans.py wraps it by name; ROADMAP item 3 drops that layer",
    "QuadInt.half_pair": "the basis conversion of tests/oracles.py (ROADMAP aim 2)",
    "ResidueMatrix.inv": "the finite model's inverse; waits on ROADMAP item 1",
    "CompressionWitness.assumptions": "read only by acceptance criterion 6; ROADMAP item 1 "
                                      "step 2 removes it with the fig8 assumption line",
}
# Protocol methods and hooks that Python calls for a caller, each exempt by its
# qualified name; an exemption that is no longer defined fails the gate.
ENTRY_EXEMPT = {
    "Frozen.__setattr__": "refuses an assignment, which no command makes; "
                          "tests/test_values.py pins the refusal",
    "Frozen.__delattr__": "refuses a deletion, as Frozen.__setattr__",
    "Frozen.__repr__": "shows a value; tests/test_values.py pins it",
    "Frozen.__reduce__": "copy and pickle by value; tests/test_values.py pins them",
    "PslElement._values": "Frozen's hook, which its dunders call only when a PslElement "
                          "is compared or hashed",
}
TRACED = """\
import json, sys
entered = set()
def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))
sys.setprofile(profile)
{program}
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def entered(program, path, cwd):
    """(file, first line, name) of each code object that a fresh interpreter
    enters while it runs `program` in cwd, with path as its PYTHONPATH.  The
    profile hook is installed before the program imports anything, so no body
    hides behind a cache filled at import."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(p) for p in path)}
    proc = subprocess.run([sys.executable, "-c", TRACED.format(program=program)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {(str(Path(f).resolve()), line, name)
            for f, line, name in json.loads(proc.stdout.splitlines()[-1])}


def entry_definitions(body, prefix=""):
    """(qualified name, first line) of each function, method and property,
    the dunders included; the first line is that of the first decorator, as
    a code object's `co_firstlineno`."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from entry_definitions(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield (f"{prefix}{node.name}",
                   min([node.lineno] + [dec.lineno for dec in node.decorator_list]))
            yield from entry_definitions(node.body, f"{prefix}{node.name}.")


def unentered(package, run, oracles, exempt):
    """`<file>:<line> <name>` for each definition in package's modules that
    the run did not enter and neither oracles nor exempt names, then each
    oracles entry that the run entered and each entry of either that the
    package no longer defines."""
    found, defined = [], set()
    for path in sorted(package.glob("*.py")):
        for name, line in entry_definitions(parse(path).body):
            defined.add(name)
            hit = (str(path.resolve()), line, name.rsplit(".", 1)[-1]) in run
            if hit and name in oracles:
                found.append(f"ORACLES entry {name} is entered")
            elif not hit and name not in oracles and name not in exempt:
                found.append(f"{path.name}:{line} {name}")
    return found + [f"{kind} {name} is not defined"
                    for kind, names in (("ORACLES entry", oracles), ("exemption", exempt))
                    for name in names if name not in defined]


def test_every_definition_is_entered(tmp_path):
    run = entered("import entry_points\nentry_points.run()", [ROOT / "src", ROOT / "tests"],
                  tmp_path)
    assert unentered(PACKAGE, run, ORACLES, ENTRY_EXEMPT) == []


def test_checker_sees_an_unentered_definition(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "lib.py").write_text(
        "from functools import cache\n"
        "\n"
        "@cache\n"
        "def cached(n):\n"
        "    return n + 1\n"
        "\n"
        "def tested():\n"
        "    return 1\n"
        "\n"
        "class Frozen:\n"
        "    def __repr__(self):\n"
        "        return 'Frozen()'\n"
        "\n"
        "class Elem(Frozen):\n"
        "    def __pow__(self, n):\n"
        "        return self.inv()\n"
        "\n"
        "    def inv(self):\n"
        "        return self\n"
        "\n"
        "    def __repr__(self):\n"
        "        return 'Elem()'\n")
    # the cache is filled at import, so only a hook installed first sees cached's body
    (package / "cli.py").write_text("from pkg.lib import Elem, cached\n"
                                    "WARM = cached(1)\n"
                                    "def main():\n"
                                    "    return cached(1), Elem() ** -1\n")
    (tmp_path / "test_lib.py").write_text("from pkg.lib import tested\n"
                                          "def test_tested():\n"
                                          "    assert tested() == 1\n")
    run = entered("from pkg.cli import main\nmain()", [tmp_path], tmp_path)
    # a dunder that nothing calls is flagged like any other definition
    assert unentered(package, run, {}, {}) == [
        "lib.py:7 tested", "lib.py:11 Frozen.__repr__", "lib.py:21 Elem.__repr__"]
    # an exemption names one definition: Frozen's __repr__, not Elem's override
    assert unentered(package, run, {}, {"Frozen.__repr__": "shows a value"}) == [
        "lib.py:7 tested", "lib.py:21 Elem.__repr__"]
    assert unentered(package, run,
                     {"tested": "a test's", "cached": "stale", "gone": "stale"},
                     {"Frozen.__repr__": "shows a value", "Elem.__repr__": "shows a value",
                      "Gone.__repr__": "stale"}) == [
        "ORACLES entry cached is entered", "ORACLES entry gone is not defined",
        "exemption Gone.__repr__ is not defined"]


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
