"""Every module-level import in the package sources is used by its module, and every
module-level private function or class, and every private method, is read by some
module of the package outside its own definition.  Every private name the README or
the package's docstrings and comments name in backticks exists in the package."""

import ast
import io
import pathlib
import re
import tokenize
from collections import Counter

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cliffkit"
README = SRC.parents[1] / "README.md"


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


def _reads(node: ast.AST) -> Counter:
    """How often each name, or attribute, is read in the subtree of `node`."""
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute)))


def _dead_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level private functions and classes, and private non-dunder methods of
    classes, that no module of `sources` reads outside their own definition.

    A read is a name or an attribute access anywhere in any module; an import
    alone is not one (an unused import fails the check above instead), and
    neither is a read inside the helper's own body, such as a recursive call.
    """
    trees = {module: ast.parse(text, module) for module, text in sources.items()}
    read = sum((_reads(tree) for tree in trees.values()), Counter())
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    dead = []
    for module, tree in sorted(trees.items()):
        found = [(node.lineno, node.name, node) for node in tree.body if isinstance(node, definitions)]
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                found += [(node.lineno, f"{cls.name}.{node.name}", node) for node in cls.body
                          if isinstance(node, definitions) and not (node.name.startswith("__") and node.name.endswith("__"))]
        dead += [f"{module} line {line}: {label}" for line, label, node in sorted(found, key=lambda item: item[:2])
                 if node.name.startswith("_") and read[node.name] == _reads(node)[node.name]]
    return dead


def test_every_private_helper_is_read():
    assert _dead_helpers({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []


def test_the_check_sees_a_dead_helper():
    sources = {
        "a.py": "def _used_here(x):\n    return x\n\n"
                "def _used_there():\n    return 1\n\n"
                "def _dead():\n    return _used_here(2)\n\n"
                "class _Dead:\n    def _method(self):\n        return 0\n\n"
                "def public():\n    return 3\n\n"
                "class Public:\n    def __init__(self):\n        self._called()\n\n"
                "    def _called(self):\n        return 4\n\n"
                "    def _dead_method(self):\n        return 5\n\n"
                "    @classmethod\n    def _dead_builder(cls):\n        return cls()\n\n"
                "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n\n"
                "def _reached(n):\n    return _reached(n - 1) if n else 0\n\n"
                "class _Self:\n    def _again(self):\n        return self._again()\n\n"
                "    @classmethod\n    def _make(cls):\n        return _Self()\n",
        "b.py": "from . import a\nfrom .a import _dead\n\nVALUE = a._used_there() + a._reached(2)\n",
    }
    assert _dead_helpers(sources) == [
        "a.py line 7: _dead",
        "a.py line 10: _Dead",
        "a.py line 11: _Dead._method",
        "a.py line 24: Public._dead_method",
        "a.py line 28: Public._dead_builder",
        "a.py line 31: _recursive",
        "a.py line 37: _Self",
        "a.py line 38: _Self._again",
        "a.py line 42: _Self._make",
    ]


def _unset_knobs(sources: dict[str, str]) -> list[str]:
    """Keyword-only parameters of functions and methods that no call in `sources` passes by name.

    A call passes parameter p of function f when it names f (as `f(...)` or
    `x.f(...)`) and has the keyword `p=`.  A call inside f's own body does
    not count, so a knob that only f passes on to itself is still unset.
    """
    trees = {module: ast.parse(text, module) for module, text in sources.items()}

    def passed(node: ast.AST) -> Counter:
        return Counter((getattr(call.func, "id", None) or getattr(call.func, "attr", None), keyword.arg)
                       for call in ast.walk(node) if isinstance(call, ast.Call) for keyword in call.keywords)

    calls = sum((passed(tree) for tree in trees.values()), Counter())
    unset = []
    for module, tree in sorted(trees.items()):
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                own = passed(fn)
                unset += [f"{module} line {fn.lineno}: {fn.name}({arg.arg}=)" for arg in fn.args.kwonlyargs
                          if calls[fn.name, arg.arg] == own[fn.name, arg.arg]]
    return unset


def test_every_keyword_only_parameter_is_passed_by_the_package():
    assert _unset_knobs({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}) == []


def test_the_check_sees_a_knob_only_tests_set():
    sources = {
        "a.py": "def build(x, *, fast=False, dense=False, depth=0):\n"
                "    return build(x, depth=depth - 1) if depth else x\n\n"
                "class Box:\n    def fill(self, *, full=False, empty=False):\n        return full\n\n"
                "def use():\n    return build(1, dense=True)\n",
        "b.py": "from .a import Box, build\n\n"
                "def other(fast):\n    return fast\n\n"
                "VALUE = Box().fill(full=True) + other(fast=True)\n",
    }
    assert _unset_knobs(sources) == [
        "a.py line 1: build(fast=)",
        "a.py line 1: build(depth=)",
        "a.py line 5: fill(empty=)",
    ]


def _defined_names(sources: dict[str, str]) -> set[str]:
    """Every name `sources` defines, assigns, reads as an attribute or lists in `__slots__`."""
    names = set()
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__slots__" for t in node.targets):
                names.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return names


def _prose(text: str) -> str:
    """The docstrings and comments of one module."""
    docs = [ast.get_docstring(node, clean=False) for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    comments = [tok.string for tok in tokenize.generate_tokens(io.StringIO(text).readline) if tok.type == tokenize.COMMENT]
    return "\n".join(filter(None, docs + comments))


def _stale_private_names(sources: dict[str, str], readme: str) -> list[str]:
    """The backticked private names (`_x`, or `X._x` and the like) of the README and of the docstrings and
    comments of `sources` that `sources` does not define; the README's "Removed public names" section is exempt.
    """
    readme = re.sub(r"^## Removed public names\n.*?(?=^## |\Z)", "", readme, flags=re.M | re.S)
    defined = _defined_names(sources)
    stale = []
    for where, text in [("README.md", readme)] + [(module, _prose(text)) for module, text in sorted(sources.items())]:
        for span in re.findall(r"`([^`\n]+)`", text):
            stale += [f"{where}: {name} in `{span}`" for name in re.findall(r"(?:^|(?<=\.))(_[^\W_]\w*)", span)
                      if name not in defined]
    return stale


def test_every_backticked_private_name_exists():
    assert _stale_private_names({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}, README.read_text()) == []


def test_the_check_sees_a_stale_private_name():
    sources = {
        "a.py": '"""Built by `_build`, from `Box._slot`, `Box._set`, `Box._read` and `_TABLE`; not `_gone` (sic)."""\n\n'
                "_TABLE = {}\n\n"
                "def _build(box):\n    # reads `box._read` and `_stale_comment`\n    return box._read\n\n"
                'class Box:\n    __slots__ = ("_slot",)\n\n    def __init__(self):\n        self._set = 1\n',
    }
    readme = ("# a\n\n## Inside\n\n`_build` and `_folded_images(pairs, m)` and `mod._Box`, not `__slots__` or `x_y`.\n\n"
              "## Removed public names\n\n- `_removed`: gone.\n\n## Later\n\n`Box._also_gone`\n")
    assert _stale_private_names(sources, readme) == [
        "README.md: _folded_images in `_folded_images(pairs, m)`",
        "README.md: _Box in `mod._Box`",
        "README.md: _also_gone in `Box._also_gone`",
        "a.py: _gone in `_gone`",
        "a.py: _stale_comment in `_stale_comment`",
    ]
