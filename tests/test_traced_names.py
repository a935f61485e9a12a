"""Every name the benchmark tracer wraps still resolves in the package.

The tracer records a name it cannot find as missing instead of failing, and
its own tests lie outside this suite, so a deletion that removed a traced
name would otherwise go unnoticed here.  tracer.py is parsed, not run: only
the module and attribute path of each TARGETS entry are read.
"""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    tree = ast.parse(TRACER.read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"])
    return [(entry.elts[1].value, entry.elts[2].value) for entry in table.elts]


TARGETS = _targets()


def test_table_was_read():
    assert ("fcheaps.heaps", "Heap.from_word") in TARGETS and len(TARGETS) > 30


@pytest.mark.parametrize("module,path", TARGETS, ids=lambda v: v)
def test_traced_name_resolves(module, path):
    # resolved as the tracer does: the last attribute must be the owner's own
    *owner_path, attr = path.split(".")
    owner = importlib.import_module(module)
    for part in owner_path:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{module}.{path}"
