"""The mutant list of scripts/mutants.py stays applicable to the code: each
old text occurs exactly once in its file, and each killer names a test that
exists or gives the reason the mutant is equivalent."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def _defined_tests(path):
    """The test node ids (class::function or function) defined in a file."""
    tree = ast.parse(path.read_text())
    out = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.add(node.name)
        elif isinstance(node, ast.ClassDef):
            out |= {f"{node.name}::{f.name}" for f in node.body
                    if isinstance(f, ast.FunctionDef)}
    return out


@pytest.mark.parametrize("path,old,new,killer", mutants.MUTANTS,
                         ids=[f"{m[0]}:{m[1]}" for m in mutants.MUTANTS])
def test_mutant_applies_once(path, old, new, killer):
    text = (ROOT / path).read_text()
    assert text.count(old) == 1, (path, old)
    assert new != old and text.replace(old, new) != text
    if killer.startswith("equivalent:"):
        assert killer[len("equivalent:"):].strip()
    else:
        test_file, _, node = killer.partition("::")
        assert node in _defined_tests(ROOT / test_file), killer


def test_mutants_are_distinct():
    assert len({(m[0], m[1], m[2]) for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
