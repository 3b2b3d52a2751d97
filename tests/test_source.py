import ast
import pathlib
import sys
import warnings

import qlattice

SRC = pathlib.Path(qlattice.__file__).parent
TESTS = pathlib.Path(__file__).parent
TOOLS = TESTS.parent / "tools"


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
    # the package (its __init__ re-exports), the tests and the tools
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py")) + sorted(TOOLS.glob("*.py"))
    assert len(paths) > len(list(SRC.glob("*.py")))
    unused = {}
    for path in paths:
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[path.parent.name + "/" + path.name] = names
    assert unused == {}


def test_unused_import_check_sees_leftovers():
    tree = ast.parse("import numpy as np\nfrom .a import b, c\nc()\n")
    assert _unused_imports(tree) == ["b", "np"]


# The functions that may read the dense order view `leq`: none.  Library
# code, the verify oracles included, reads the order through the up- and
# down-set masks; the view is for callers outside the package.
_LEQ_READERS = set()


def _readers(tree, attrs):
    """The dotted names of the functions (empty at module level) that read
    an attribute, or pass a keyword, named in attrs, once per read."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Attribute) and child.attr in attrs \
                    and isinstance(child.ctx, ast.Load) \
                    or isinstance(child, ast.keyword) and child.arg in attrs:
                found.append(".".join(scope))
            visit(child, inner)

    visit(tree, ())
    return found


def test_library_reads_the_order_through_masks():
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers.update((path.name, name)
                       for name in _readers(tree, {"leq"}))
    assert readers == _LEQ_READERS


def test_leq_check_sees_subscripts_and_aliases():
    tree = ast.parse("def f(s):\n    return s.leq[0, 1]\n"
                     "class C:\n    def g(self, s):\n        m = s.leq\n"
                     "        return m[0]\n"
                     "s.leq = 1\n")
    assert _readers(tree, {"leq"}) == ["f", "C.g"]


# The functions that may build a space without the meet scan: the two
# constructions whose meets exist by construction (StateSpace.from_keys).
# Spaces from JSON, from a relation or from raw masks keep the scan.
_UNSCANNED_BUILDERS = {("tensor.py", "TensorSpace._install_space"),
                       ("ontic.py", "OnticCompletion.__init__")}


def test_only_the_constructions_skip_the_meet_scan():
    builders = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        builders.update((path.name, name) for name in
                        _readers(tree, {"from_keys", "_scan_meets"}))
    # from_keys itself is the one caller that passes _scan_meets
    assert builders == _UNSCANNED_BUILDERS | {
        ("core_order.py", "StateSpace.from_keys")}


def test_builder_check_sees_aliases_and_keywords():
    tree = ast.parse("def f(S):\n    return S.from_keys([], [])\n"
                     "class C:\n    def g(self):\n        b = S.from_keys\n"
                     "        return S([], [], _scan_meets=False)\n"
                     "S.from_keys = 1\n")
    assert _readers(tree, {"from_keys", "_scan_meets"}) == \
        ["f", "C.g", "C.g"]


def _module_level_imports(tree):
    """(line, top-level module name) of each absolute import that runs when
    the module is imported: every one outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, a.name.split(".")[0])
                             for a in child.names)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                found.append((child.lineno, child.module.split(".")[0]))
            visit(child)

    visit(tree)
    return found


def _module_level_numpy_imports(tree):
    return [line for line, name in _module_level_imports(tree)
            if name == "numpy"]


def _outside_stdlib(tree):
    """The modules outside the standard library that a module imports at
    module level."""
    return sorted({name for _, name in _module_level_imports(tree)}
                  - sys.stdlib_module_names)


def test_src_imports_only_the_standard_library():
    # the package has no runtime dependencies: its modules import each
    # other and the standard library, and numpy only inside the leq view
    found = {}
    for path in sorted(SRC.glob("*.py")):
        names = _outside_stdlib(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            found[path.name] = names
    assert found == {}


def test_stdlib_check_sees_absolute_imports():
    tree = ast.parse("import json, click.core\nfrom . import a\n"
                     "from .b import c\nfrom numpy import ndarray\n"
                     "try:\n    import os.path, yaml\nexcept ImportError:\n"
                     "    pass\ndef f():\n    import networkx\n")
    assert _outside_stdlib(tree) == ["click", "numpy", "yaml"]


def test_src_imports_numpy_only_inside_functions():
    # numpy is imported only inside `core_order.unpack_masks`, which builds
    # the leq view, never by importing the package
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = _module_level_numpy_imports(
            ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            found[path.name] = lines
    assert found == {}


def test_numpy_import_check_sees_module_and_class_level():
    tree = ast.parse("import numpy as np\n"
                     "try:\n    from numpy.linalg import norm\n"
                     "except ImportError:\n    pass\n"
                     "class C:\n    import numpy\n"
                     "def f():\n    import numpy as np\n"
                     "import numpyish\n")
    assert _module_level_numpy_imports(tree) == [1, 3, 7]


PERFBENCH = TESTS.parent / "perfbench"

# The src functions and classes that no code outside their own definition
# names, each with the reason it stays.  Dunder methods are called by the
# language and are not listed.
_UNREFERENCED = {
    ("quantum.py", "constructive_lambda"):
        "the paper's witness for a real state, read by "
        "test_real_states_admit_global_states",
    ("core_order.py", "StateSpace.to_json"):
        "JSON text for library callers; the CLI emits to_json_dict",
    ("realspaces.py", "RealSpace.to_json"):
        "JSON text for library callers; the CLI emits to_json_dict",
    ("geometry.py", "GeometrySet.colinear"):
        "the geometry's ternary relation, read by the geometry tests",
}


def _definitions_and_references(tree, extra=()):
    """The (qualified name, node) of every function and class, dunders
    left out, and per referenced name the enclosing definitions of each
    reference: an ast Name or Attribute, or a word of the strings in
    extra, which is read at module level."""
    defs, refs = [], {}

    def visit(node, scope, inside):
        for child in ast.iter_child_nodes(node):
            inner, within = scope, inside
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner, within = scope + (child.name,), inside | {id(child)}
                if not (child.name.startswith("__")
                        and child.name.endswith("__")):
                    defs.append((".".join(inner), child))
            elif isinstance(child, ast.Name):
                refs.setdefault(child.id, []).append(inside)
            elif isinstance(child, ast.Attribute):
                refs.setdefault(child.attr, []).append(inside)
            visit(child, inner, within)

    visit(tree, (), frozenset())
    for text in extra:
        for word in text.split("."):
            refs.setdefault(word, []).append(frozenset())
    return defs, refs


def _layer_strings(tree):
    """The strings of the perfbench LAYERS table: the traced names."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYERS"
                for t in node.targets):
            return [c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant)
                    and isinstance(c.value, str)]
    return []


def _unreferenced(trees, readers):
    """(file, qualified name) of each definition in trees that no
    reference in trees or readers reaches from outside the definition."""
    refs, defs = {}, []
    for name, (tree, extra) in list(trees.items()) + list(readers.items()):
        found, seen = _definitions_and_references(tree, extra)
        if name in trees:
            defs += [(name, qual, node) for qual, node in found]
        for word, places in seen.items():
            refs.setdefault(word, []).extend(places)
    return sorted((name, qual) for name, qual, node in defs
                  if not any(id(node) not in inside for inside in
                             refs.get(node.name, ())))


def test_every_src_definition_is_referenced():
    def parse(path):
        return ast.parse(path.read_text(encoding="utf-8"))

    trees = {p.name: (parse(p), ()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"}
    readers = {"tools/" + p.name: (parse(p), ())
               for p in sorted(TOOLS.glob("*.py"))}
    for p in sorted(PERFBENCH.glob("*.py")):
        tree = parse(p)
        readers["perfbench/" + p.name] = (tree, _layer_strings(tree))
    assert len(readers) > 4
    assert _unreferenced(trees, readers) == sorted(_UNREFERENCED)


def test_reference_check_sees_definitions_used_only_by_themselves():
    src = ast.parse(
        "def lonely(n):\n    return lonely(n - 1)  # used\n"
        "def used():\n    '''lonely'''\n"
        "class C:\n    def __init__(self):\n        self.m()\n"
        "    def m(self):\n        pass\n"
        "    def traced(self):\n        pass\n"
        "    def gone(self):\n        return self.gone\n"
        "used()\n")
    bench = ast.parse("LAYERS = [('m', 'C.traced', 'x', None)]\n")
    assert _layer_strings(bench) == ["m", "C.traced", "x"]
    assert _unreferenced({"a.py": (src, ())},
                         {"b.py": (bench, _layer_strings(bench))}) == [
        ("a.py", "C.gone"), ("a.py", "lonely")]
