"""Every module-level function and class in ``src/nse`` has a caller there.

A definition counts as called when some other module-level statement of the
package names it: as a name, as an attribute, or in an import.  Names are
matched as text, so ``np.tanh`` or a set's ``.add`` counts for the tape's
``tanh`` and ``add``.  Code that only tests reach belongs in
``tests/reference.py``, not in the library.  The allowlist holds the few
exceptions, each with the ROADMAP item that clears it, and a test below
keeps the allowlist from outliving its reasons.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nse"

# name -> why it stays without a caller in the package
ALLOWLIST = {
    # ROADMAP item 1: the Tensor tape stays in nn.py while bench/child.py
    # wraps it; it is the tests' reference until LAYERS is rewritten
    "relu": "item 1: tape op",
    "scale": "item 1: tape op",
    "softmax_cross_entropy": "item 1: tape op",
    "clear_grads": "item 1: tape op",
    # ROADMAP item 3: `nse run --resume` reads the round artifacts back
    "subset_from_json": "item 3: resume",
    "ledger_from_json": "item 3: resume",
    # ROADMAP item 4: bench/run.py's closed-form check calls it until
    # `nse inspect --check` takes that check over
    "oracle_score": "item 4: inspect --check",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _named(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
    return names


def uncalled_definitions() -> list[str]:
    """``module.name`` of every module-level function or class that no
    other module-level statement of the package names."""
    modules = _modules()
    statements = [stmt for tree in modules.values() for stmt in tree.body]
    named_by = [(stmt, _named(stmt)) for stmt in statements]
    uncalled = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not any(stmt is not node and node.name in names for stmt, names in named_by):
                uncalled.append(f"{module}.{node.name}")
    return uncalled


def test_every_library_definition_has_a_caller_in_the_package():
    missing = [q for q in uncalled_definitions() if q.rsplit(".", 1)[1] not in ALLOWLIST]
    assert missing == [], (
        f"{missing} are named by no other code in src/nse: give each a caller "
        "or move it to tests/reference.py"
    )


def test_the_allowlist_names_only_uncalled_definitions():
    uncalled = {q.rsplit(".", 1)[1] for q in uncalled_definitions()}
    assert sorted(set(ALLOWLIST) - uncalled) == []
