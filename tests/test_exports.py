"""Every name the package exports, and every option of an exported function, is used by the program itself.

A name `epolsim/__init__.py` imports must be read (as a name or an attribute)
by some module of `src/` outside the name's own top-level definition, or by a
non-test file under `bench/`.  An export that only tests read is a second
surface to keep working for no caller.

Likewise every defaulted parameter of an exported function must be passed,
by position, by keyword or through `**`, by some call of the function in
`src/` outside its own definition or in a non-test file under `bench/`.  A
parameter no caller sets is a second behaviour that only tests exercise.
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


def program_scopes() -> list[tuple[str | None, ast.AST]]:
    """The program's code as (owner, node): each top-level node of a src module, keyed by the
    name it defines (None: module level), then each non-test bench file, owned by none."""
    scopes: list[tuple[str | None, ast.AST]] = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            scopes.append((own, node))
    for path in sorted((ROOT / "bench").glob("*.py")):
        if not path.name.startswith("test_"):
            scopes.append((None, ast.parse(path.read_text())))
    return scopes


def unread_exports() -> list[str]:
    reads = [(own, read_names(node)) for own, node in program_scopes()]
    return [name for name in exported_names() if not any(name in names for own, names in reads if own != name)]


def passed_parameters(call: ast.Call, fn: ast.FunctionDef) -> set[str]:
    """The parameters of `fn` that `call` passes: by position, by keyword, or all through * or **."""
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    passed = set(positional if any(isinstance(a, ast.Starred) for a in call.args) else positional[: len(call.args)])
    for kw in call.keywords:
        if kw.arg is None:
            return passed | set(positional) | {a.arg for a in fn.args.kwonlyargs}
        passed.add(kw.arg)
    return passed


def unset_defaults() -> list[str]:
    """`function.parameter` for each defaulted parameter of an exported function that no call sets."""
    exported, scopes = set(exported_names()), program_scopes()
    functions = {own: node for own, node in scopes if isinstance(node, ast.FunctionDef) and own in exported}
    unset = []
    for name, fn in sorted(functions.items()):
        positional = fn.args.posonlyargs + fn.args.args
        defaulted = [a.arg for a in positional[len(positional) - len(fn.args.defaults) :]]
        defaulted += [a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        passed = set()
        for own, node in scopes:
            if own != name:
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and name in (getattr(call.func, "id", None),
                                                               getattr(call.func, "attr", None)):
                        passed |= passed_parameters(call, fn)
        unset += [f"{name}.{arg}" for arg in defaulted if arg not in passed]
    return unset


def test_every_export_is_read_by_the_program():
    assert len(exported_names()) > 50
    assert unread_exports() == []


def test_every_default_of_an_exported_function_is_set_by_the_program():
    assert unset_defaults() == []
