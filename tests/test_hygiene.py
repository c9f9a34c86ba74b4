"""Source hygiene: every name a module imports is used in it, every
private module-level name and every UPPER_CASE module constant of the
package is read somewhere in it, every parameter of a package function
is read in its body, no two package functions share a body, every name
the benchmark's span tracer patches still exists, no package module
imports scipy, one module owns the dense exponential, and the consumers
of a representation read only the protocol's members.

A stdlib `ast` scan of the package and the test modules; an unused
import, an unread private helper or a constant renamed away from its
readers is dead code, and the first also hides what a module really
depends on.  An unread parameter is an option that changes nothing.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from prodexp.nelson import FinDimRep

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/prodexp/*.py"))
FILES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])

# imported for a side effect: the package pins the OpenBLAS pool before
# numpy loads it
EXEMPT = {("conftest.py", "prodexp")}


def unused_imports(source):
    """Names bound by import statements and never read, in source order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names]
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    return [(line, name) for line, name in sorted(imported)
            if name not in used]


def test_scan_finds_unused_import():
    src = ("import os\nimport sys as system\n"
           "from math import pi, tau\nsystem.exit(pi)\n")
    assert unused_imports(src) == [(1, "os"), (3, "tau")]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    unused = [(line, name) for line, name in unused_imports(path.read_text())
              if (path.name, name) not in EXEMPT]
    assert not unused, f"{path.name}: unused imports {unused}"


def is_private(name):
    """One leading underscore, not a dunder."""
    return name.startswith("_") and not name.startswith("__")


def is_constant(name):
    """An UPPER_CASE name such as MAX_GRID."""
    return re.fullmatch(r"[A-Z][A-Z0-9_]*", name) is not None


def unread_names(sources, wanted):
    """(module, line, name) of each module-level name with `wanted(name)`
    that is never read: not in its own module, nor in another through
    `from .module import name` or `module.name`.  `sources` maps module
    names (file stems) to their text."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()                                # (module, name)
    for mod, tree in trees.items():
        loads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Load)}
        read |= {(mod, name) for name in loads}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rsplit(".", 1)[-1]
                read |= {(source, a.name) for a in node.names
                         if (a.asname or a.name) in loads}
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)):
                read.add((node.value.id, node.attr))
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            elif (isinstance(node, ast.AnnAssign)
                  and isinstance(node.target, ast.Name)):
                names = [node.target.id]
            else:
                continue
            out += [(mod, node.lineno, name) for name in names
                    if wanted(name) and (mod, name) not in read]
    return out


def test_scan_finds_unread_private():
    # b reads a's _helper and _imported, and its own _dropped, which
    # does not count for a's
    sources = {"a": ("_kept = 1\n_dropped = 2\nPUBLIC = 3\n"
                     "def _helper():\n    return _kept\n"
                     "_imported = 4\nclass _Unused:\n    pass\n"),
               "b": ("import a\nfrom .a import _imported\n"
                     "_dropped = a._helper() + _imported\nprint(_dropped)\n")}
    assert unread_names(sources, is_private) == [("a", 2, "_dropped"),
                                                 ("a", 7, "_Unused")]


def test_scan_finds_unread_constant():
    # b reads a's MAX_GRID by attribute and its own RENAMED, not a's
    sources = {"a": "MAX_GRID = 8\nRENAMED = 2\n_private = 3\nCamel = 4\n",
               "b": "import a\nRENAMED = a.MAX_GRID\nprint(RENAMED)\n"}
    assert unread_names(sources, is_constant) == [("a", 2, "RENAMED")]


def test_every_private_name_is_read():
    unread = unread_names({p.stem: p.read_text() for p in PACKAGE},
                          is_private)
    assert not unread, f"private names never read: {unread}"


def test_every_constant_is_read():
    # a constant renamed away from its last reader lingers unread
    unread = unread_names({p.stem: p.read_text() for p in PACKAGE},
                          is_constant)
    assert not unread, f"module constants never read: {unread}"


def unread_parameters(source):
    """(line, function, parameter) of each parameter of a function or
    method that its body, nested functions included, never reads.  A
    method's `self` or `cls` is left out: the method form fixes it."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  a.vararg, a.kwarg) if p is not None]
        loads = {n.id for n in ast.walk(node)
                 if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, node.name, p) for p in params
                if p not in loads and p not in ("self", "cls")]
    return sorted(out)


def test_scan_finds_unread_parameter():
    # a read in a nested function counts for the outer one; a read of the
    # same name in another function (h's kw) does not
    src = ("def f(a, b=1, *rest, c, **kw):\n"
           "    def g(d):\n        return a + c\n    return g\n"
           "class K:\n    def m(self, x):\n        return 0\n"
           "async def h(y):\n    return [y for _ in kw]\n")
    assert unread_parameters(src) == [
        (1, "f", "b"), (1, "f", "kw"), (1, "f", "rest"), (2, "g", "d"),
        (6, "m", "x")]


# fixed callback signatures: a check takes its CheckContext, a verb the
# parsed arguments, whether or not it reads them
CALLBACKS = (("chk_", "ctx"), ("cmd_", "args"))


def test_every_parameter_is_read():
    unread = [(path.name, line, func, param)
              for path in PACKAGE
              for line, func, param in unread_parameters(path.read_text())
              if not any(func.startswith(prefix) and param == name
                         for prefix, name in CALLBACKS)]
    assert not unread, f"parameters never read: {unread}"


def duplicate_bodies(sources):
    """Groups of two or more (module, line, function) whose functions take
    the same arguments and have the same body, docstrings left out, in the
    given {module: source} texts."""
    groups = {}
    for mod, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body = node.body
            if ast.get_docstring(node, clean=False) is not None:
                body = body[1:]
            key = [ast.dump(node.args), *map(ast.dump, body)]
            groups.setdefault(tuple(key), []).append(
                (mod, node.lineno, node.name))
    return [group for group in groups.values() if len(group) > 1]


def test_scan_finds_duplicate_bodies():
    # f and g differ only in name and docstring; h takes other arguments,
    # and K.m returns another expression
    sources = {"a": ('def f(x):\n    """Double."""\n    return 2 * x\n'
                     "def h(y):\n    return 2 * y\n"),
               "b": ("class K:\n    def g(x):\n        return 2 * x\n"
                     "    def m(x):\n        return 3 * x\n")}
    assert duplicate_bodies(sources) == [[("a", 1, "f"), ("b", 2, "g")]]


def test_no_duplicate_function_bodies():
    # a rule written twice drifts apart: liealg's mode-sum arithmetic, for
    # one, is written once for both element kinds
    dups = duplicate_bodies({p.stem: p.read_text() for p in PACKAGE})
    assert not dups, f"functions written twice: {dups}"


def traced_names():
    """The (module, attribute, ...) and (module, class, attribute) lists
    that perfbench's span tracer patches, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    lists = {node.targets[0].id: ast.literal_eval(node.value)
             for node in tree.body
             if isinstance(node, ast.Assign)
             and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("FUNCTIONS", "METHODS")}
    return lists["FUNCTIONS"], lists["METHODS"]


def test_traced_names_exist():
    # the benchmark's traced runs patch these names by string, and read
    # the circle path's form to name its spans; a deletion that drops one
    # would break them without failing any other test
    functions, methods = traced_names()
    assert functions and methods
    attributes = ([(mod, (attr,)) for mod, attr, _ in functions]
                  + [(mod, (cls, attr)) for mod, cls, attr in methods]
                  + [("prodexp.grouprep", ("CirclePath", "form"))])
    missing = []
    for mod, path in attributes:
        owner = importlib.import_module(mod)
        for attr in path:
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(".".join((mod, *path)))
    assert not missing, f"names perfbench/spans.py traces are gone: {missing}"


def scipy_imports_and_expm_calls(sources):
    """((module, line) of each import of scipy or a scipy submodule, at
    module level or inside a function, (module, line) of each call of a
    name or attribute `expm`) in the given {module: source} texts."""
    imports, calls = [], []
    for mod, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                names = []
            if any(n.split(".")[0] == "scipy" for n in names):
                imports.append((mod, node.lineno))
            if isinstance(node, ast.Call) and "expm" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                calls.append((mod, node.lineno))
    return imports, calls


def test_scan_finds_scipy_imports():
    sources = {"a": "from scipy.linalg import expm\nexpm(1)\n",
               "b": ("def f():\n    import scipy.integrate\n"
                     "    return scipy.linalg.expm(2)\n"),
               "c": "import numpy\nfrom . import scipy\n"}
    assert scipy_imports_and_expm_calls(sources) == (
        [("a", 1), ("b", 2)], [("a", 2), ("b", 3)])


def test_no_scipy_at_run_time():
    # the package runs on numpy alone, and prodint's `exponential` is its
    # one dense exponential: expm is called once, in prodint
    imports, calls = scipy_imports_and_expm_calls(
        {p.stem: p.read_text() for p in PACKAGE})
    assert imports == []
    assert [mod for mod, _ in calls] == ["prodint"]


# the representation protocol: what the consumers read off a
# representation, and the members only a module has (`scale` docstring)
CONSUMERS = ("prodint", "grouprep", "scale")
PROTOCOL = {"dim", "pi", "magnus_exponent", "a_diag", "level_of",
            "seminorm", "a_seminorm", "central_charge", "projective_cocycle"}
MODULE_ONLY = {"central_charge", "projective_cocycle"}


def protocol_reads(source):
    """Attributes read off a name `rep` or `module` in the source."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("rep", "module")}


def test_consumers_read_only_the_protocol(vir8):
    reads = set().union(*(
        protocol_reads((ROOT / "src" / "prodexp" / f"{mod}.py").read_text())
        for mod in CONSUMERS))
    assert reads == PROTOCOL
    su2 = FinDimRep(("1/2", "3/2"))
    missing = sorted((type(rep).__name__, name) for name in reads
                     for rep in (vir8, su2)
                     if not hasattr(rep, name)
                     and not (rep is su2 and name in MODULE_ONLY))
    assert not missing, f"protocol members missing: {missing}"
