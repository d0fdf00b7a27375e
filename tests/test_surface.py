"""Every name the package exports is reached by the program, not only by tests.

A name counts as reached when it is referenced, as an AST name, an
attribute or an import, from a module under ``src/`` outside its own
definition, from a demo, or from the benchmark harness.  Code that only
tests reach belongs in ``tests/`` (see ``tests/oracles.py``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spingap"

#: exported although nothing reaches them yet: the audits planned in
#: ROADMAP items 7 (the large-deviation barrier as the slow-mixing rate)
#: and 10 (the paper's N-scaled proposal weights) are their callers
RESERVED = {"rate_function", "scaled_params", "scaled_params_consistent"}


def exported() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def referenced(node: ast.AST) -> set:
    """The names, attribute names and imported names under ``node``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            out.update(alias.name for alias in n.names)
    return out


def defined(stmt: ast.stmt) -> set:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {t.id for t in targets if isinstance(t, ast.Name)}
    return set()


def reached() -> set:
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            out |= referenced(stmt) - defined(stmt)
    for path in sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        out |= referenced(ast.parse(path.read_text()))
    return out


def test_every_export_is_reached_outside_the_tests():
    names, seen = exported(), reached()
    assert sorted(names - seen - RESERVED) == []
    # a reserved name leaves RESERVED once an audit reaches it
    assert RESERVED <= names and sorted(RESERVED & seen) == []
