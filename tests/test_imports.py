"""Every name a survmix module imports is used in that module.

No linter is a test dependency, so this parses each module with `ast`. A
name counts as used where it is read anywhere in the module (as a name or as
the base of an attribute) or listed in the module's `__all__`.
"""

import ast
import pathlib

import pytest

import survmix

MODULES = sorted(pathlib.Path(survmix.__file__).parent.glob("*.py"))

# imported for the benchmark's tracer, which wraps them under these names
KEPT_FOR_TRACING = {("estimands.py", "cox_fit_dataset"), ("estimands.py", "simulate")}


def imported_names(tree):
    """The name each import binds, with the line it is imported on."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                names[bound] = node.lineno
    return names


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items()
              if name not in used and (path.name, name) not in KEPT_FOR_TRACING]
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


def test_tracing_exceptions_are_still_imported():
    # an entry that no longer names an import is stale: drop it
    for module, name in KEPT_FOR_TRACING:
        tree = ast.parse((pathlib.Path(survmix.__file__).parent / module).read_text())
        assert name in imported_names(tree)
