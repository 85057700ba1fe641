"""Every function and class the package exports, and every public method and
property of an exported class, has a reference in the code that ships.

A reference is a name, an attribute, or a string equal to the exported name
(the benchmark tracer patches functions by name) in a module under ``src/``,
``scripts/`` or ``perfbench/``.  The object's own definition and body and
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
    "QuarticDriver.envelope_slope": "acceptance criterion 2: the optimized quartic's slope at "
    "the origin",
    "IntervalUnion.project": "kept public for library users, with its exact-distance tie rule "
    "documented; the solver's argmax ties within 1e-12 instead",
    "hausdorff": "acceptance criterion 8: checked against a grid oracle",
    "w2": "acceptance criterion 8, and ROADMAP item 2's stability ratios over solved laws",
    "verify_global_assumptions": "ROADMAP item 1b: the application output is to carry its ledger",
    "GenericDriver": "the paper's general strongly concave driver: library users build it, "
    "and no config kind reaches it",
}


def exported(kind) -> set[str]:
    """Names the package ``__init__`` re-exports whose object passes ``kind``."""
    tree = ast.parse(PACKAGE_INIT.read_text())
    names = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    return {name for name in names if kind(getattr(theta_fbsde, name))}


class _References(ast.NodeVisitor):
    """Names a module refers to, outside the body of a function or class of that name."""

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

    visit_ClassDef = visit_FunctionDef

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


def exported_members() -> set[str]:
    """``Class.member`` for each public method and property an exported class defines itself."""
    members = set()
    for name in exported(inspect.isclass):
        for attr, value in vars(getattr(theta_fbsde, name)).items():
            routine = isinstance(value, (property, classmethod, staticmethod))
            if (routine or inspect.isfunction(value)) and not attr.startswith("_"):
                members.add(f"{name}.{attr}")
    return members


def unreferenced(names) -> set[str]:
    """The names, or ``Class.member`` entries, whose last part nothing references."""
    found = referenced_names()
    return {name for name in names if name.rpartition(".")[2] not in found}


def assert_referenced(names):
    uncalled = unreferenced(names) - set(ALLOWED_WITHOUT_CALLER)
    assert not uncalled, f"exported but referenced nowhere in src/, scripts/ or perfbench/: {sorted(uncalled)}"


def test_every_exported_function_has_a_caller():
    assert_referenced(exported(inspect.isfunction))


def test_every_exported_class_has_a_reference():
    assert_referenced(exported(inspect.isclass))


def test_every_public_member_of_an_exported_class_has_a_reference():
    assert_referenced(exported_members())


def test_allow_list_holds_only_uncalled_functions():
    names = exported(inspect.isfunction) | exported(inspect.isclass) | exported_members()
    assert set(ALLOWED_WITHOUT_CALLER) <= names
    # a name that gained a reference leaves the list
    called = set(ALLOWED_WITHOUT_CALLER) - unreferenced(ALLOWED_WITHOUT_CALLER)
    assert not called, f"remove from the allow-list, these now have callers: {sorted(called)}"


def test_own_definition_is_not_a_reference():
    visitor = _References()
    visitor.visit(ast.parse(
        "def f(n):\n    return f(n - 1) if n else 'f'\n\ndef g():\n    return h\n\n"
        "class C:\n    def copy(self):\n        return C()\n\nclass D(E):\n    pass\n"
    ))
    assert not {"f", "C", "D"} & visitor.found
    assert {"h", "E"} <= visitor.found
