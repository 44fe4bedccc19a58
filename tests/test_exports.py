"""Every name the package exports is read by the program itself.

A name `epolsim/__init__.py` imports must be read (as a name or an attribute)
by some module of `src/` outside the name's own top-level definition, or by a
non-test file under `bench/`.  An export that only tests read is a second
surface to keep working for no caller.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "epolsim"


def read_names(node: ast.AST) -> set[str]:
    """Names read anywhere under `node`, as plain names or attributes; imports are not reads."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
    return names


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def unread_exports() -> list[str]:
    # per src module: what each top-level definition reads, keyed by its name (None: module level)
    scopes: list[tuple[str | None, set[str]]] = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            scopes.append((own, read_names(node)))
    bench = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        if not path.name.startswith("test_"):
            bench |= read_names(ast.parse(path.read_text()))
    return [name for name in exported_names()
            if name not in bench and not any(name in reads for own, reads in scopes if own != name)]


def test_every_export_is_read_by_the_program():
    assert len(exported_names()) > 50
    assert unread_exports() == []
