import ast
import pathlib
import warnings

import qlattice

SRC = pathlib.Path(qlattice.__file__).parent


def test_modules_compile_without_warnings():
    # invalid escape sequences warn on 3.11 and are SyntaxWarnings on 3.12
    paths = sorted(SRC.glob("*.py"))
    assert paths
    for path in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(encoding="utf-8"), str(path), "exec")


def _unused_imports(tree):
    """Names bound by the module-level imports of a module that no name in
    the module reads."""
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_module_level_imports_are_used():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[path.name] = names
    assert unused == {}


def test_unused_import_check_sees_leftovers():
    tree = ast.parse("import numpy as np\nfrom .a import b, c\nc()\n")
    assert _unused_imports(tree) == ["b", "np"]
