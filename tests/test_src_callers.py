"""Every public name in the package has a caller outside the test suite.

A public top-level function or class, or a public method, counts as called
when its name appears in code under src/, scripts/ or perfbench/ (its tests
excluded) outside the lines of its own definition: as a name, an imported
name, an attribute, or a part of a dotted string such as the benchmark
tracer's targets.  A top-level name is reached as an attribute only of a
package module (heaps.extend), so list.extend does not call it.  Helpers
only the tests use belong in tests/.  Exempt are the click commands, which
the CLI group reaches through their decorators.  The names that only the
tracer reaches are listed, so that they leave src/ when the benchmark stops
tracing them.
The paper's objects that no command reads live in tests/paper_objects.py,
and src/ defines none of their names, so each has one definition.
Every name that a module of the package, of tests/ or of scripts/ imports is
read somewhere in that module; perfbench/ is not scanned, because its files
change only together with the benchmark.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fcheaps"
CALLER_FILES = sorted(
    [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py"),
     *(p for p in (ROOT / "perfbench").rglob("*.py") if "tests" not in p.parts)])
# public names whose callers outside the tests are all in perfbench/tracer.py:
# its TARGETS strings and the metric names derived from them
PINNED_BY_BENCHMARK = {"iter_fc", "maj_profile", "CoxeterGraph.neighbors", "canonical_form",
                       "Series.geom", "extend"}
TRACER = ROOT / "perfbench" / "tracer.py"
TEST_PAPER_OBJECTS = ROOT / "tests" / "paper_objects.py"
DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _is_command(node) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _definitions():
    """(qualified name, file, first line, last line) of each public
    definition in the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_") or _is_command(node):
                continue
            out.append((node.name, path, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                out += [(f"{node.name}.{m.name}", path, m.lineno, m.end_lineno)
                        for m in node.body if isinstance(m, ast.FunctionDef)
                        and not m.name.startswith("_")]
    return out


def _mentions(source: str) -> list[tuple[str | None, str, int]]:
    """(owner, bare name, line) of each place in the source that mentions a name.

    The owner is the class or package module an attribute is read from
    (Heap.from_word, heaps.extend), None for an attribute of any other
    value, and "" for a plain name or import.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found = [("", node.id)]
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            found = [(owner if owner in CLASSES | MODULES else None, node.attr)]
        elif isinstance(node, ast.alias):
            found = [("", node.name.rsplit(".", 1)[-1])]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            parts = node.value.split(".")
            found = [("", parts[0])] + list(zip(parts, parts[1:]))
        else:
            continue
        out += [(owner, name, node.lineno) for owner, name in found]
    return out


def _references() -> dict[str, list[tuple[str | None, pathlib.Path, int]]]:
    """Bare name -> the (owner, file, line) places that mention it."""
    refs: dict[str, list[tuple[str | None, pathlib.Path, int]]] = {}
    for path in CALLER_FILES:
        for owner, name, line in _mentions(path.read_text()):
            refs.setdefault(name, []).append((owner, path, line))
    return refs


def _reaches(owner, cls) -> bool:
    """Whether a mention with this owner can reach a definition in class cls
    ("" for a top-level one).

    A method is reached as an attribute: of its own class, or of a value
    whose class the code does not name.  A top-level name is reached as a
    plain name or as an attribute of a package module.
    """
    return owner in (None, cls) if cls else owner == "" or owner in MODULES


DEFINITIONS = _definitions()
CLASSES = {name for name, *_ in DEFINITIONS if "." not in name}
MODULES = {path.stem for path in PACKAGE.glob("*.py")}
REFERENCES = _references()


def test_definitions_were_read():
    names = {d[0] for d in DEFINITIONS}
    assert {"family_poly", "Heap", "Heap.from_word", "TPoly.shift"} <= names
    assert "verify_cmd" not in names and "_height_ok" not in names


def _callers(qualname, path, first, last) -> list[tuple[pathlib.Path, int]]:
    """The (file, line) places outside its own definition that reach a name."""
    cls, _, name = qualname.rpartition(".")
    return [(p, line) for owner, p, line in REFERENCES.get(name, [])
            if not (p == path and first <= line <= last) and _reaches(owner, cls)]


@pytest.mark.parametrize("qualname,path,first,last",
                         [pytest.param(*d, id=d[0]) for d in DEFINITIONS])
def test_public_name_has_a_caller(qualname, path, first, last):
    assert _callers(qualname, path, first, last), \
        f"{qualname} ({path.name}) is used only by tests; move it to tests/"


def test_names_pinned_only_by_the_benchmark_are_listed():
    # each stays in src/ only while perfbench/tracer.py traces it by name
    pinned = {d[0] for d in DEFINITIONS
              if {p for p, _line in _callers(*d)} == {TRACER}}
    assert pinned == PINNED_BY_BENCHMARK


def _top_level_names(path) -> list[str]:
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


@pytest.mark.parametrize("name", _top_level_names(TEST_PAPER_OBJECTS))
def test_paper_object_is_not_defined_in_src(name):
    defined_in = [path.name for path in sorted(PACKAGE.glob("*.py"))
                  if name in _top_level_names(path)]
    assert defined_in == [], f"{name} is defined in tests/paper_objects.py and in src/"


def test_a_list_method_does_not_reach_a_module_function():
    source = ("from fcheaps import heaps\ncounts = [0]\ncounts.extend([0])\n"
              "heaps.extend(h, 0)\n")
    reached = sorted(line for owner, name, line in _mentions(source)
                     if name == "extend" and _reaches(owner, ""))
    assert reached == [4]


def _unused_imports(source: str) -> list[str]:
    """Names the source imports (``__future__`` aside) but never reads."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport re as regex\n"
              "from json import dumps, loads\nprint(os.sep, loads)\n")
    assert _unused_imports(source) == ["dumps", "regex"]


@pytest.mark.parametrize("path", [*sorted(PACKAGE.glob("*.py")),
                                  *sorted((ROOT / "tests").glob("*.py")),
                                  *sorted((ROOT / "scripts").glob("*.py"))],
                         ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert _unused_imports(path.read_text()) == [], f"{path.name} imports names it never reads"
