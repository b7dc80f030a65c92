"""Every module-level function and class in ``src/nse``, and every method
and property of its classes, has a caller there.

A definition counts as called when some other module-level statement of the
package names it: as a name, in an import, or as an attribute of a package
module imported with ``from . import X``, like ``nn`` in ``indicators.py``.
A method or property (dunders aside) counts as called when some package code
outside its own body uses its name as an attribute.  An attribute read off a
package class name (``CostTable.from_json``) counts for that class alone.
Other names are matched as text, so a method that shares its name with an
attribute of another object (``copy``, ``shape``) passes unseen.  Code that
only tests reach belongs in ``tests/reference.py``, not in the library.  The
allowlists hold the few exceptions, each with the ROADMAP item that clears
it, and tests below keep them from outliving their reasons.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nse"
BENCH_CHILD = PACKAGE.parent.parent / "bench" / "child.py"

# name -> why it stays without a caller in the package
ALLOWLIST = {
    # ROADMAP item 11: the Tensor tape stays in nn.py while bench/child.py
    # wraps it; it is the tests' reference until LAYERS is rewritten
    "softmax_cross_entropy": "item 11: tape op",
    # ROADMAP item 6: `nse run --resume` reads the round artifacts back
    "subset_from_json": "item 6: resume",
    "ledger_from_json": "item 6: resume",
    # ROADMAP item 5: bench/run.py's closed-form check calls it until
    # `nse inspect --check` takes that check over
    "oracle_score": "item 5: inspect --check",
}

# Class.method -> why it stays without a caller in the package
METHOD_ALLOWLIST = {
    # ROADMAP item 11: the tape's backward sweep, which bench/child.py wraps
    "Tensor.backward": "item 11: tape",
    # ROADMAP item 5: bench/run.py's closed-form check calls it until
    # `nse inspect --check` takes that check over; the package itself
    # builds an Architecture from its slot lists directly
    "Architecture.from_encoding": "item 5: inspect --check",
}


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _package_modules(tree: ast.Module) -> set[str]:
    """The names a module binds to package modules with ``from . import X``."""
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }


def _named(node: ast.AST, package_modules: set[str]) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            if isinstance(sub.value, ast.Name) and sub.value.id in package_modules:
                names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
    return names


def uncalled_definitions() -> list[str]:
    """``module.name`` of every module-level function or class that no
    other module-level statement of the package names."""
    modules = _modules()
    named_by = [
        (stmt, _named(stmt, _package_modules(tree)))
        for tree in modules.values()
        for stmt in tree.body
    ]
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


def _attributes(node: ast.AST, classes: set[str]) -> Counter:
    """Every attribute name used in ``node``, as ``Class.name`` when it is
    read off the name of a package class in ``classes``."""
    return Counter(
        f"{sub.value.id}.{sub.attr}"
        if isinstance(sub.value, ast.Name) and sub.value.id in classes
        else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute)
    )


def unused_methods() -> list[str]:
    """``Class.name`` of every method or property of a module-level class,
    dunders aside, that no package code outside its own body uses as an
    attribute, either bare or read off ``Class``."""
    modules = _modules()
    classes = {
        cls.name for tree in modules.values() for cls in tree.body if isinstance(cls, ast.ClassDef)
    }
    used = sum((_attributes(tree, classes) for tree in modules.values()), Counter())
    unused = []
    for tree in modules.values():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                own = _attributes(node, classes)
                if all(used[k] == own[k] for k in (node.name, f"{cls.name}.{node.name}")):
                    unused.append(f"{cls.name}.{node.name}")
    return unused


def test_every_library_method_has_a_caller_in_the_package():
    missing = [q for q in unused_methods() if q not in METHOD_ALLOWLIST]
    assert missing == [], (
        f"{missing} are used as an attribute by no other code in src/nse: give "
        "each a caller or move it to tests/reference.py"
    )


def test_the_method_allowlist_names_only_unused_methods():
    assert sorted(set(METHOD_ALLOWLIST) - set(unused_methods())) == []


def _reexports() -> set[str]:
    """``nse.module:name`` of every import in src/nse marked ``# noqa: F401``,
    kept only so that a caller can look the name up in that module."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if "# noqa: F401" in lines[alias.lineno - 1]:
                        found.add(f"nse.{path.stem}:{alias.asname or alias.name}")
    return found


def _benchmark_targets() -> set[str]:
    """Every ``module:attribute`` that bench/child.py's ``LAYERS`` wraps."""
    tree = ast.parse(BENCH_CHILD.read_text())
    (layers,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    ]
    return {target.value for entry in layers.elts for target in entry.elts[1].elts}


def test_every_unused_import_is_a_name_the_benchmark_wraps():
    # a re-export outlives the span that looks it up only by mistake
    targets = _benchmark_targets()
    assert "nse.engine:retrieve_pareto" in targets
    assert sorted(_reexports() - targets) == []
