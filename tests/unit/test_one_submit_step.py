"""Every load driver submits and hears back through one step.

Registering a receipt callback with ``Chain.wait_for`` and then
scheduling ``Chain.submit`` after a client latency is written once, in
:func:`repro.chain.chain.client_submit`.  An AST scan, like
``test_imports_used.py``: a ``.wait_for(`` call anywhere in
``src/repro`` outside ``chain/chain.py`` (the chain itself and that
step) and ``Gateway.flush`` (admission hands its batch to the chain,
a different job) is a second copy of the step.
"""

import ast
from pathlib import Path

import repro

SOURCE = Path(repro.__file__).parent

#: (module path under ``src/repro``, enclosing qualname or None for any)
ALLOWED = {
    ("chain/chain.py", None),
    ("gateway/gateway.py", "Gateway.flush"),
}


def wait_for_calls(tree):
    """``(qualname, line)`` of every ``<expr>.wait_for(...)`` call; the
    qualname is the innermost enclosing class and function names."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "wait_for"
            ):
                found.append((".".join(scope), child.lineno))
            visit(child, inner)

    visit(tree, ())
    return found


def allowed(path, qualname):
    return (path, None) in ALLOWED or (path, qualname) in ALLOWED


def test_wait_for_is_called_only_by_the_submit_step():
    strays = []
    for path in sorted(SOURCE.rglob("*.py")):
        relative = path.relative_to(SOURCE).as_posix()
        for qualname, line in wait_for_calls(ast.parse(path.read_text())):
            if not allowed(relative, qualname):
                strays.append(f"{relative}:{line} ({qualname})")
    assert strays == []


def test_the_scan_sees_a_stray_call():
    tree = ast.parse(
        "class Driver:\n"
        "    def go(self, chain, tx, done):\n"
        "        chain.wait_for(tx.tx_id, done)\n"
    )
    assert wait_for_calls(tree) == [("Driver.go", 3)]
    assert not allowed("workload/clients.py", "Driver.go")
    assert allowed("gateway/gateway.py", "Gateway.flush")
    assert not allowed("gateway/gateway.py", "Gateway.submit")


def test_the_gateway_flush_call_is_still_there():
    # The one allowed site outside the chain module must exist, or the
    # allowance is stale.
    tree = ast.parse((SOURCE / "gateway" / "gateway.py").read_text())
    assert [q for q, _line in wait_for_calls(tree)] == ["Gateway.flush"]
