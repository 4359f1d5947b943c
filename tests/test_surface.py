"""The package's public functions are as many as their callers need.

Every public module-level function in ``src/minent`` must have a reason to
exist that the repository states elsewhere: a caller in other package code,
an import in the acceptance tests, or a per-layer benchmark metric named
after it.  A function only its own unit tests call fails here.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "minent"


def _modules():
    """Module name -> parsed source, for every module of the package."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _public_functions(tree):
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def _loaded_names(node, skip):
    """Every name ``node`` reads, except ``skip`` (a function's own name)."""
    return [n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id != skip]


def _referenced(modules):
    """(module, function) pairs that package code other than ``__init__``
    reads: in the defining module outside the function's own body, or in a
    module that imports it with ``from .module import name``."""
    found = set()
    for name, tree in modules.items():
        if name == "__init__":
            continue  # a re-export is not a caller
        own = set(_public_functions(tree))
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    imported[alias.asname or alias.name] = (node.module, alias.name)
        for node in tree.body:
            skip = node.name if isinstance(node, ast.FunctionDef) else None
            for used in _loaded_names(node, skip):
                if used in own:
                    found.add((name, used))
                elif used in imported:
                    found.add(imported[used])
    return found


def _acceptance_imports():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    return {(node.module.split(".", 1)[1], alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("minent.")
            for alias in node.names}


def _benchmarked():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {tuple(metric["name"].split(".")[:2]) for metric in spec["per_layer"]}


def test_every_public_function_has_a_caller():
    modules = _modules()
    kept = _referenced(modules) | _acceptance_imports() | _benchmarked()
    orphans = [f"{name}.{func}" for name, tree in modules.items()
               for func in _public_functions(tree) if (name, func) not in kept]
    assert orphans == []


def test_the_rule_sees_what_it_guards():
    # the three sources of reasons must each be read, or the rule passes vacuously
    modules = _modules()
    assert ("entropy", "partition_cliques") in _referenced(modules)
    assert ("evaluate", "average_precision") in _acceptance_imports()
    assert ("evaluate", "detect") in _benchmarked()
    assert sum(len(_public_functions(tree)) for tree in modules.values()) > 40
