"""Every public name has a caller in the package or in its benchmark."""

import ast
from pathlib import Path

import sixflow

ROOT = Path(__file__).resolve().parents[1]

# Public names that nothing in src/sixflow or perfbench calls, each kept for
# the reason given. The set must stay exact: a name that gains a caller
# leaves this tuple.
KEEP = (
    "enumerate_small_2ec_multigraphs",  # acceptance criteria 1 and 3
    "verify_nowhere_zero",  # acceptance criteria 5 and 6
    "z6_to_pair",  # inverse of the README's Z2xZ3 <-> Z6 isomorphism
)


def _references(tree: ast.AST) -> set[str]:
    """Names a module reads (``Name``, ``Attribute``) or imports by name,
    not counting uses inside the definition of the same name."""
    found = set()

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def test_every_public_name_has_a_caller():
    files = [p for p in (ROOT / "src" / "sixflow").glob("*.py") if p.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    used = set()
    for path in files:
        used |= _references(ast.parse(path.read_text(), filename=str(path)))
    uncalled = sorted(name for name in sixflow.__all__ if name not in used)
    assert uncalled == sorted(KEEP)


def test_references_ignore_strings_and_own_definition():
    tree = ast.parse(
        "def support(f):\n"
        "    return support(f)\n"
        "_check(True, 'f2 support touches the root')\n"
        "from .flows import pair_add\n"
        "flows.verify_flow(g, f)\n"
    )
    assert _references(tree) == {"_check", "pair_add", "flows", "verify_flow", "g", "f"}
