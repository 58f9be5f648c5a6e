"""Every public name of the package is reached from outside its own unit test.

A name in a module's ``__all__`` is reached when some place refers to it by
name, attribute or import alias, other than its own definition, its
``__all__`` entry and ``tests/test_<module>.py``. The places that count are
the demos, the benchmark harness, the acceptance criteria, the test oracles
and the package itself (``__init__``'s re-exports included). Inside the
package a reference counts only from module-level code or from a top-level
definition that is itself reached, so names that only unreached code calls
are caught too. Docstrings and comments never count, since only the syntax
tree is read. Names are matched by spelling alone, which can only
over-count reach.

The test oracles are held to the same rule: each top-level definition of
``tests/oracles.py`` is reached from some ``tests/test_*.py`` module, or from
another oracle that is itself reached.
"""
import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bayeslb"
MODULES = ("info", "sdpi", "bounds", "scenarios", "simulate", "cli")
OUTSIDE = [*sorted((ROOT / "demos").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py",
           ROOT / "tests" / "oracles.py"]
TESTS = sorted((ROOT / "tests").glob("test_*.py"))


def _exports(module: str) -> list:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return [entry.value for entry in node.value.elts]
    raise AssertionError(f"bayeslb.{module} has no __all__")


def _referenced(tree: ast.AST) -> set:
    """Names read, attributes taken and names imported anywhere in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def _reached(outside, inside) -> tuple[set, dict]:
    """Names reached from the ``outside`` files, then through every top-level
    definition of the ``inside`` files that is itself reached; and the
    references of each such definition, by its name."""
    reached = set()
    for path in outside:
        reached |= _referenced(ast.parse(path.read_text()))
    owned = defaultdict(set)
    for path in inside:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owned[node.name] |= _referenced(node)
            else:
                reached |= _referenced(node)
    while True:
        more = set().union(*(refs for name, refs in owned.items() if name in reached))
        if more <= reached:
            return reached, owned
        reached |= more


REACHED = _reached(OUTSIDE, PACKAGE.glob("*.py"))[0]


@pytest.mark.parametrize("module", MODULES)
def test_every_public_name_is_reached(module):
    unreached = [name for name in _exports(module) if name not in REACHED]
    assert not unreached, f"nothing reaches bayeslb.{module}: {', '.join(unreached)}"


def test_every_oracle_is_called_by_a_test():
    reached, oracles = _reached(TESTS, [ROOT / "tests" / "oracles.py"])
    unreached = sorted(name for name in oracles if name not in reached)
    assert not unreached, f"no test calls oracles: {', '.join(unreached)}"
