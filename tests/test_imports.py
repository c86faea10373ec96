"""No module of the package imports a name at module level that it never
uses, imports a sibling module inside a function, leaves a private
module-level function, class or constant unreferenced in the package, or
calls the builtins eval, exec or compile (there is no linter in the
toolchain, so these tests are the check)."""

import ast
from pathlib import Path

import sgosc

SRC = Path(sgosc.__file__).parent


def _annotation_names(tree):
    """Names inside quoted annotations such as -> "SymbolFn"."""
    out = set()
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            args += [a for a in (node.args.vararg, node.args.kwarg) if a is not None]
            notes = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                sub = ast.parse(note.value, mode="eval")
                out |= {n.id for n in ast.walk(sub) if isinstance(n, ast.Name)}
    return out


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                imported.append((node.lineno, (a.asname or a.name).split(".")[0]))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree)
    return [f"{path.name}:{line}: {name}" for line, name in imported if name not in used]


def test_no_unused_module_imports():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [u for p in modules for u in _unused_imports(p)]
    assert not unused, "unused module-level imports:\n" + "\n".join(unused)


def _private_definitions(node):
    """Private (single-underscore) names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references(node):
    """Names a statement reads, as bare names, attributes or imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def test_no_unreferenced_private_definitions():
    statements = [
        (p.name, node)
        for p in sorted(SRC.glob("*.py"))
        for node in ast.parse(p.read_text()).body
    ]
    refs = [(node, _references(node)) for _, node in statements]
    dead = [
        f"{module}:{node.lineno}: {name}"
        for module, node in statements
        for name in _private_definitions(node)
        # a reference inside the definition itself (recursion) does not count
        if not any(name in used for other, used in refs if other is not node)
    ]
    assert statements
    assert not dead, "unreferenced private definitions:\n" + "\n".join(dead)


def _local_package_imports(path):
    """Imports of the package's own modules below module level."""
    tree = ast.parse(path.read_text())
    top = set(map(id, tree.body))
    nodes = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and id(node) not in top
        and (node.level > 0 or (node.module or "").split(".")[0] == "sgosc")
    ]
    return [
        f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''} import "
        + ", ".join(a.name for a in node.names)
        for node in sorted(nodes, key=lambda n: n.lineno)
    ]


def test_no_function_local_package_imports():
    """Sibling modules are imported once, at module level: no import among
    them needs breaking by a function-local import."""
    local = [i for p in sorted(SRC.glob("*.py")) for i in _local_package_imports(p)]
    assert not local, "function-local package imports:\n" + "\n".join(local)


def test_no_eval_exec_or_compile():
    """Expression strings arrive in JSON configs, so they are only parsed
    (sgosc.exprparse), never run."""
    calls = [
        f"{p.name}:{n.lineno}: {n.func.id}"
        for p in sorted(SRC.glob("*.py"))
        for n in ast.walk(ast.parse(p.read_text()))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id in ("eval", "exec", "compile")
    ]
    assert not calls, "calls of eval, exec or compile:\n" + "\n".join(calls)
