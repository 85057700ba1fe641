"""Every function the package exports has a caller in the code that ships.

A reference is a name, an attribute, or a string equal to the function's name
(the benchmark tracer patches functions by name) in a module under ``src/``,
``scripts/`` or ``perfbench/``.  The function's own definition and body and
the package ``__init__`` re-export do not count.  Tests do not count either:
a helper only tests call is dead code.
"""

import ast
import inspect
from pathlib import Path

import theta_fbsde

ROOT = Path(__file__).resolve().parents[1]
PACKAGE_INIT = ROOT / "src" / "theta_fbsde" / "__init__.py"

# exported for the paper's claims and checked by tests only; one reason each
ALLOWED_WITHOUT_CALLER = {
    "envelope_derivative": "acceptance criterion 2: the optimized quartic's slope at the origin",
    "hausdorff": "acceptance criterion 8: checked against a grid oracle",
    "w2": "acceptance criterion 8, and ROADMAP item 2's stability ratios over solved laws",
    "verify_global_assumptions": "ROADMAP item 1b: the application output is to carry its ledger",
}


def exported_functions() -> set[str]:
    tree = ast.parse(PACKAGE_INIT.read_text())
    names = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return {name for name in names if inspect.isfunction(getattr(theta_fbsde, name))}


class _References(ast.NodeVisitor):
    """Names a module refers to, outside the body of a function of that name."""

    def __init__(self):
        self.found: set[str] = set()
        self.inside: list[str] = []

    def _add(self, name):
        if name not in self.inside:
            self.found.add(name)

    def visit_FunctionDef(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    def visit_Name(self, node):
        self._add(node.id)

    def visit_Attribute(self, node):
        self._add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            self._add(node.value)


def referenced_names() -> set[str]:
    found: set[str] = set()
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == PACKAGE_INIT:
                continue
            visitor = _References()
            visitor.visit(ast.parse(path.read_text(), filename=str(path)))
            found |= visitor.found
    return found


def test_every_exported_function_has_a_caller():
    exported = exported_functions()
    assert set(ALLOWED_WITHOUT_CALLER) <= exported
    uncalled = exported - referenced_names() - set(ALLOWED_WITHOUT_CALLER)
    assert not uncalled, f"exported but referenced nowhere in src/, scripts/ or perfbench/: {sorted(uncalled)}"


def test_allow_list_holds_only_uncalled_functions():
    # a function that gained a caller leaves the list
    called = set(ALLOWED_WITHOUT_CALLER) & referenced_names()
    assert not called, f"remove from the allow-list, these now have callers: {sorted(called)}"


def test_own_definition_is_not_a_reference():
    visitor = _References()
    visitor.visit(ast.parse("def f(n):\n    return f(n - 1) if n else 'f'\n\ndef g():\n    return h\n"))
    assert "f" not in visitor.found
    assert "h" in visitor.found
