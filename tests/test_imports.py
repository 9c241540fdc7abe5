"""Every name a package module imports is used in that module, every
function, class, method and module-level constant it defines is
referenced somewhere, and every parameter with a default is passed by
some call."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "rlcc"
# __init__ imports to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# where a definition may be referenced from: the package, its tests and
# the benchmark
REFERENCE_DIRS = (SRC, ROOT / "tests", ROOT / "perfbench")


def unused_imports(source: str):
    """Names bound by an import anywhere in the source (function-local
    imports included) that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .gf import Field, is_prime\n"
        "def f():\n"
        "    from .rm import RmParams\n"
        "    return np.zeros(is_prime(3))\n"
    )
    assert unused_imports(source) == ["Field", "RmParams", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(source: str, bare: bool = True):
    """Every identifier a source reads: names not assigned to (when bare),
    attributes, imported names, and identifiers inside string constants
    (the benchmark's tracer names its targets in strings such as
    "composed.correct_rm")."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            if bare and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def unused_definitions(modules: dict, reference_sources):
    """"module:name" of each module-level function or class, and each
    non-dunder method, whose name no reference source reads; and of each
    module-level constant (a name assigned there, __all__ excepted) that
    its own module does not read and no source reads as an attribute,
    an import or a string, so that a constant left unread is found even
    where another module reads a namesake."""
    refs, qualified = set(), set()
    for source in reference_sources:
        refs |= referenced_names(source)
        qualified |= referenced_names(source, bare=False)
    unused = []
    for module, source in modules.items():
        own = referenced_names(source) | qualified
        for node in ast.parse(source).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                unused += [
                    f"{module}:{t.id}"
                    for t in targets
                    if isinstance(t, ast.Name) and t.id != "__all__" and t.id not in own
                ]
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{sub.name}", sub.name)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef)
                    and not (sub.name.startswith("__") and sub.name.endswith("__"))
                ]
            unused += [f"{module}:{q}" for q, name in defs if name not in refs]
    return sorted(unused)


def test_checker_flags_unused_definitions():
    module = (
        "class Used:\n"
        "    def live(self): ...\n"
        "    def dead_method(self): ...\n"
        "    def __repr__(self): ...\n"
        "def dead_function(): ...\n"
        "def traced(): ...\n"
        "def _helper(): ...\n"
        "def caller():\n"
        "    return _helper()\n"
        "__all__ = ['caller']\n"
        "_LIMIT = 3\n"
        "_DEAD_LIMIT = 4\n"
        "_NAMESAKE = 5\n"
        "READ_ELSEWHERE: int = 6\n"
        "def bounded(x):\n"
        "    return min(x, _LIMIT)\n"
    )
    other = "_NAMESAKE = 7\nprint(_NAMESAKE)\n"
    user = (
        "from mod import caller, bounded\nUsed().live()\nTARGETS = ('mod.traced',)\n"
        "print(mod.READ_ELSEWHERE)\n"
    )
    assert unused_definitions({"mod": module, "other": other}, [module, other, user]) == [
        "mod:Used.dead_method",
        "mod:_DEAD_LIMIT",
        "mod:_NAMESAKE",
        "mod:dead_function",
    ]


def test_no_unused_definitions():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    sources = [p.read_text() for d in REFERENCE_DIRS for p in d.rglob("*.py")]
    assert unused_definitions(modules, sources) == []


def _defaulted_params(fn: ast.FunctionDef, bound: int):
    """(name, position) of each parameter with a default; position is
    the index a call's positional arguments reach it at, None for a
    keyword-only one.  A bound method's first parameter is not counted."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
    out += [
        (a.arg, None)
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return out


def _definitions(tree):
    """(qualified name, function, bound, call names) for every function
    of a module: a method is called by its name, an __init__ also by
    its class name."""
    out = []
    methods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if not isinstance(sub, ast.FunctionDef):
                    continue
                static = any(
                    isinstance(dec, ast.Name) and dec.id == "staticmethod"
                    for dec in sub.decorator_list
                )
                names = {sub.name, node.name} if sub.name == "__init__" else {sub.name}
                out.append((f"{node.name}.{sub.name}", sub, 0 if static else 1, names))
                methods.add(id(sub))
    out += [
        (node.name, node, 0, {node.name})
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and id(node) not in methods
    ]
    return out


def _call_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def unused_parameters(modules: dict, reference_sources):
    """"module:function(param)" of each defaulted parameter that no call
    passes, by keyword or by position.  A function whose name is read
    as a value, or that some call passes * or ** arguments to, counts
    as passed everything."""
    calls = {}
    as_value = set()
    for source in reference_sources:
        # a called name, or a name only looked up in (K.static), is not
        # read as a value; ast.walk visits a node before its children
        not_values = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute):
                not_values.add(id(node.value))
            if isinstance(node, ast.Call):
                not_values.add(id(node.func))
                name = _call_name(node.func)
                if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords
                ):
                    as_value.add(name)
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords})
                )
            elif (
                isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load)
                and id(node) not in not_values
            ):
                as_value.add(_call_name(node))
    unused = []
    for module, source in modules.items():
        for qualname, fn, bound, names in _definitions(ast.parse(source)):
            if names & as_value:
                continue
            for param, pos in _defaulted_params(fn, bound):
                passed = any(
                    param in keywords or (pos is not None and pos < count)
                    for name in names
                    for count, keywords in calls.get(name, ())
                )
                if not passed:
                    unused.append(f"{module}:{qualname}({param})")
    return sorted(set(unused))


def test_checker_flags_unused_parameters():
    module = (
        "def never(a, b=1, *, c=2): ...\n"
        "def by_keyword(a, b=1): ...\n"
        "def by_position(a, b=1, c=2): ...\n"
        "def as_value(a, b=1): ...\n"
        "def splatted(a, b=1): ...\n"
        "class K:\n"
        "    def __init__(self, a, b=1): ...\n"
        "    def method(self, a, b=1): ...\n"
        "    @staticmethod\n"
        "    def static(a, b=1): ...\n"
    )
    user = (
        "never(0)\n"
        "by_keyword(0, b=3)\n"
        "by_position(0, 1)\n"
        "TABLE = {'f': as_value}\n"
        "splatted(*args)\n"
        "K(0).method(0)\n"
        "K.static(0, 1)\n"
    )
    assert unused_parameters({"mod": module}, [module, user]) == [
        "mod:K.__init__(b)",
        "mod:K.method(b)",
        "mod:by_position(c)",
        "mod:never(b)",
        "mod:never(c)",
    ]


def test_no_unused_parameters():
    modules = {p.name: p.read_text() for p in MODULES}
    sources = [p.read_text() for d in REFERENCE_DIRS for p in d.rglob("*.py")]
    assert unused_parameters(modules, sources) == []
