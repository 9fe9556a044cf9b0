"""The package surface, read with ``ast``: exports and imports stay in step.

``psemigroups.__all__`` must list exactly the public names ``__init__.py``
binds, and no module may import a name it never uses, so that deleting a
type leaves no stale export or import behind.
"""

import ast
from pathlib import Path

import pytest

import psemigroups

PACKAGE = Path(psemigroups.__file__).resolve().parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / module).read_text(encoding="utf-8"), filename=module)


def _imports(tree: ast.Module) -> list[tuple[str, int]]:
    """Each name an import statement binds, with the statement's line."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(alias.asname or alias.name, node.lineno) for alias in node.names]
    return out


def _is_public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def test_all_lists_exactly_the_public_names_init_binds():
    tree = _tree("__init__.py")
    bound = {name for name, _ in _imports(tree)}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            bound |= {target.id for target in node.targets if isinstance(target, ast.Name)}
    public = {name for name in bound if _is_public(name)} - {"__all__"}
    exported = psemigroups.__all__
    assert len(exported) == len(set(exported))
    assert sorted(exported) == sorted(public)
    assert [name for name in exported if not hasattr(psemigroups, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    tree = _tree(module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if module == "__init__.py":
        used |= set(psemigroups.__all__)  # re-exported, not used in place
    assert [(name, line) for name, line in _imports(tree) if name not in used] == []
