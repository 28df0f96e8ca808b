"""Every module-level import in the package sources is used by its module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cliffkit"


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by module-level imports that no expression in the module reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda item: item[1]) if name not in read]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from math import comb, gcd\nimport os\nimport os.path as osp\n\ndef f(x):\n    return gcd(osp.sep, x)\n")
    assert _unused_imports(tree) == ["line 1: comb", "line 2: os"]
