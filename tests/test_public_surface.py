"""Every public name, and every public method of ``Multigraph``, has a caller
in the package or in its benchmark."""

import ast
from pathlib import Path

import sixflow
from sixflow import Multigraph

ROOT = Path(__file__).resolve().parents[1]

# Public names that nothing in src/sixflow or perfbench calls, each kept for
# the reason given. The set must stay exact: a name that gains a caller
# leaves this tuple.
KEEP = (
    "enumerate_small_2ec_multigraphs",  # acceptance criteria 1 and 3
    "verify_nowhere_zero",  # acceptance criteria 5 and 6
    "z6_to_pair",  # inverse of the README's Z2xZ3 <-> Z6 isomorphism
)

# The same for the public methods of Multigraph, read as attributes.
KEEP_METHODS = ("delete_vertex",)  # perfbench/spans.py patches it by name


def _references(tree: ast.AST, attributes_only: bool = False) -> set[str]:
    """Names a module reads (``Name``, ``Attribute``) or imports by name,
    not counting uses inside the definition of the same name; with
    ``attributes_only``, only the attributes it reads."""
    found = set()

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if attributes_only and not isinstance(node, ast.Attribute):
            names = []
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names = [node.id]
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            names = []
        found.update(name for name in names if name not in inside)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(tree, frozenset())
    return found


def _used(attributes_only=False):
    files = [p for p in (ROOT / "src" / "sixflow").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    used = set()
    for path in files:
        used |= _references(ast.parse(path.read_text(), filename=str(path)), attributes_only)
    return used


def test_every_public_name_has_a_caller():
    used = _used()
    uncalled = sorted(name for name in sixflow.__all__ if name not in used)
    assert uncalled == sorted(KEEP)


def test_every_multigraph_method_has_a_caller():
    # a local variable named like a method is no caller, so only attribute
    # reads (g.arcs, Multigraph.build) count
    used = _used(attributes_only=True)
    public = [name for name in vars(Multigraph) if not name.startswith("_")]
    assert "contract" in public
    uncalled = sorted(name for name in public if name not in used)
    assert uncalled == sorted(KEEP_METHODS)


def test_references_ignore_strings_and_own_definition():
    tree = ast.parse(
        "def support(f):\n"
        "    return support(f)\n"
        "_check(True, 'f2 support touches the root')\n"
        "from .flows import pair_add\n"
        "flows.verify_flow(g, f)\n"
    )
    assert _references(tree) == {"_check", "pair_add", "flows", "verify_flow", "g", "f"}
    assert _references(tree, attributes_only=True) == {"verify_flow"}
