"""Checks on the source text itself, over every module of src/ and tests/.

pyproject.toml promises Python 3.10, so every file must parse with the 3.10
grammar even where the tests run on a later Python.  And a module imports
no name that it never uses, unless it exports it in __all__.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))

# (module, name) pairs allowed to stay unused: search.py keeps the name
# smooth_batch_exact only because benchmarks/spans.py wraps it there
UNUSED_ALLOWED = {("src/sssfactor/search.py", "smooth_batch_exact")}


def test_every_source_parses_on_python_3_10():
    assert {"engine.py", "conftest.py"} <= {path.name for path in SOURCES}
    failed = []
    for path in SOURCES:
        try:
            ast.parse(path.read_text(), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failed.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failed == []


def _exported(tree) -> set[str]:
    """The names listed in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _unused_imports(tree) -> list[tuple[int, str]]:
    """(line, name) of each name bound by an import and never read as a
    name anywhere in the module."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                # import a.b binds a
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, bound))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(tree)
    return [(line, name) for line, name in imported if name not in used | exported]


def test_no_unused_imports():
    found = []
    for path in SOURCES:
        module = path.relative_to(ROOT).as_posix()
        for line, name in _unused_imports(ast.parse(path.read_text(), str(path))):
            if (module, name) not in UNUSED_ALLOWED:
                found.append(f"{module}:{line}: {name}")
    assert found == []


def test_the_unused_import_check_sees_one():
    tree = ast.parse("import os\nfrom math import gcd, lcm\nprint(lcm(4, 6))\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "gcd")]
    exported = ast.parse("from math import gcd\n__all__ = ['gcd']\n")
    assert _unused_imports(exported) == []
