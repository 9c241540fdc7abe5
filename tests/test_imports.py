"""Every name a package module imports is used in that module, and
every function, class and method it defines is referenced somewhere."""

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


def referenced_names(source: str):
    """Every identifier a source reads: names, attributes, imported names,
    and identifiers inside string constants (the benchmark's tracer names
    its targets in strings such as "composed.correct_rm")."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
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
    non-dunder method, whose name no reference source reads."""
    refs = set()
    for source in reference_sources:
        refs |= referenced_names(source)
    unused = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
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
    )
    user = "from mod import caller\nUsed().live()\nTARGETS = ('mod.traced',)\n"
    assert unused_definitions({"mod": module}, [module, user]) == [
        "mod:Used.dead_method",
        "mod:dead_function",
    ]


def test_no_unused_definitions():
    modules = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    sources = [p.read_text() for d in REFERENCE_DIRS for p in d.rglob("*.py")]
    assert unused_definitions(modules, sources) == []
