"""Every module-level import in ``src/repro`` is used.

An AST scan, not a linter (none is a dependency): a name a module
imports at top level must appear somewhere in that module as a name,
be listed in its ``__all__`` (a re-export; read from the imported
module, since ``repro.api`` builds its list), be imported under
``TYPE_CHECKING`` (annotations only), or appear in a string annotation.
A mention in a docstring or a comment is not a use.
"""

import ast
import importlib
from pathlib import Path

import repro

SOURCE = Path(repro.__file__).parent


def _bound_names(node):
    """The names a top-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    names = []
    for alias in node.names:
        if alias.name == "*":
            continue
        if alias.asname:
            names.append(alias.asname)
        elif isinstance(node, ast.Import):
            names.append(alias.name.split(".")[0])
        else:
            names.append(alias.name)
    return names


def _top_level_imports(tree):
    """``(name, line)`` of every import at module level, outside an
    ``if TYPE_CHECKING:`` block."""
    pending = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for name in _bound_names(node):
                yield name, node.lineno
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                pending.extend(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            pending.extend(node.body + node.orelse + node.finalbody)
            for handler in node.handlers:
                pending.extend(handler.body)


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    """Every name the module's code mentions, string annotations
    included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return used


def unused_imports(path):
    """``path:line: name`` for each import of ``path`` it never uses."""
    tree = ast.parse(path.read_text(), filename=str(path))
    dotted = ".".join(path.relative_to(SOURCE.parent).with_suffix("").parts)
    module = importlib.import_module(dotted.removesuffix(".__init__"))
    used = _used_names(tree) | set(getattr(module, "__all__", ()))
    return [
        f"{path.relative_to(SOURCE.parent)}:{line}: {name}"
        for name, line in _top_level_imports(tree)
        if name not in used
    ]


def test_no_module_imports_a_name_it_never_uses():
    unused = [entry for path in sorted(SOURCE.rglob("*.py")) for entry in unused_imports(path)]
    assert unused == []


PROBE = '''
from typing import TYPE_CHECKING, Optional, Tuple
import os.path
if TYPE_CHECKING:
    from elsewhere import Only
def f(a: "Optional[int]") -> Tuple:
    """Mentions os.path, which is not a use."""
'''


def test_the_scan_sees_an_unused_import():
    tree = ast.parse(PROBE)
    used = _used_names(tree)
    assert [name for name, _ in _top_level_imports(tree) if name not in used] == ["os"]
