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

The product is held to a stricter rule: each top-level function and class of
the library modules is reached from ``cli.py`` (its module-level code and
every function) or a demo, directly or through definitions so reached. Here
imports never count, and neither do ``__init__.py``, the benchmark harness
or the tests. What that walk misses must be listed in ``UNREACHED`` with the
ROADMAP item that will settle it, and the list may only shrink. Run as a
script, this module prints the misses and the share of ``src/`` they hold.
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
LIBRARY = [PACKAGE / f"{module}.py" for module in MODULES if module != "cli"]
PRODUCT = [PACKAGE / "cli.py", *sorted((ROOT / "demos").glob("*.py"))]

# Top-level definitions that no command or demo reaches, each with the ROADMAP
# item that will give it a caller or move it to the test oracles.
UNREACHED = {
    "bounds.lb_info_density": "10",
    "info.InfoDensityDistribution": "10",
    "info.JointPMF": "10",
    "info.NPPropertyReport": "10",
    "info._capacity_bracket": "10",
    "info._newton_direction": "10",
    "info._newton_move": "10",
    "info._np_order": "10",
    "info._project_to_simplex": "10",
    "info.binary_relative_entropy": "10",
    "info.channel_capacity": "10",
    "info.information_density": "10",
    "info.kl_divergence": "10",
    "info.mutual_information": "10",
    "info.neyman_pearson_beta": "10",
    "info.verify_np_properties": "10",
    "sdpi.pairwise_ratio_bound": "10 or 14",
}


def _exports(module: str) -> list:
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            return [entry.value for entry in node.value.elts]
    raise AssertionError(f"bayeslb.{module} has no __all__")


def _referenced(tree: ast.AST, imports: bool = True) -> set:
    """Names read, attributes taken and, if ``imports``, names imported
    anywhere in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif imports and isinstance(node, ast.alias):
            found.add(node.name)
    return found


def _reached(outside, inside, imports: bool = True) -> tuple[set, dict]:
    """Names reached from the ``outside`` files, then through every top-level
    definition of the ``inside`` files that is itself reached; and the
    references of each such definition, by its name. Imports count as
    references only if ``imports``."""
    reached = set()
    for path in outside:
        reached |= _referenced(ast.parse(path.read_text()), imports)
    owned = defaultdict(set)
    for path in inside:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owned[node.name] |= _referenced(node, imports)
            else:
                reached |= _referenced(node, imports)
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


def _product_misses() -> dict:
    """Each top-level function and class of the library modules that no
    command or demo reaches, as ``module.name``, with its line count."""
    reached = _reached(PRODUCT, LIBRARY, imports=False)[0]
    return {f"{path.stem}.{node.name}": node.end_lineno - node.lineno + 1
            for path in LIBRARY for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in reached}


def test_every_definition_is_reached_from_a_command_or_a_demo():
    misses = _product_misses()
    unlisted = sorted(set(misses) - set(UNREACHED))
    assert not unlisted, f"no command or demo reaches: {', '.join(unlisted)}"
    reached = sorted(set(UNREACHED) - set(misses))
    assert not reached, f"reached now, so drop from UNREACHED: {', '.join(reached)}"


if __name__ == "__main__":
    misses = _product_misses()
    for name, lines in sorted(misses.items()):
        print(f"{name:<32} {lines:>4} lines  item {UNREACHED.get(name, 'unlisted')}")
    total = sum(len(path.read_text().splitlines()) for path in PACKAGE.glob("*.py"))
    print(f"{len(misses)} definitions, {sum(misses.values())} of {total} src/ lines, "
          "reached from no command or demo")
