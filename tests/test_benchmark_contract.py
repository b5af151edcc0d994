"""The karyfire names the benchmark's child process relies on still resolve.

`perfbench/child.py` wraps the functions in TRACED_FUNCTIONS and the methods
in TRACED_METHODS in spans, and `run_library`, `run_setup` and `main` call
karyfire directly.  A rename or a fold that drops one of those names would
break only the benchmark run; these tests make it fail here first.  The file
is parsed, never imported or executed, so nothing under perfbench/ changes.
"""

import ast
import importlib
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


@pytest.fixture(scope="module")
def child_tree():
    return ast.parse(CHILD.read_text(encoding="utf-8"), filename=str(CHILD))


def _module_constant(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{CHILD.name} no longer defines {name}")


def _dotted(node):
    """['engine', 'Configuration', 'from_json_dict'] for that attribute chain, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def test_every_traced_name_resolves(child_tree):
    for layer, names in _module_constant(child_tree, "TRACED_FUNCTIONS").items():
        module = importlib.import_module(f"karyfire.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"karyfire.{layer}.{name}"
    for layer, (cls_name, methods) in _module_constant(child_tree, "TRACED_METHODS").items():
        cls = getattr(importlib.import_module(f"karyfire.{layer}"), cls_name, None)
        assert cls is not None, f"karyfire.{layer}.{cls_name}"
        for method in methods:
            assert callable(getattr(cls, method, None)), f"karyfire.{layer}.{cls_name}.{method}"


def test_every_karyfire_name_the_child_calls_resolves(child_tree):
    bound = {}  # local name -> the karyfire module it is bound to
    for node in ast.walk(child_tree):
        if isinstance(node, ast.ImportFrom) and node.module == "karyfire":
            for alias in node.names:
                bound[alias.asname or alias.name] = importlib.import_module(f"karyfire.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "karyfire":
                    importlib.import_module(alias.name)
                    bound["karyfire"] = importlib.import_module("karyfire")
    assert {"analysis", "engine", "enumeration", "cli", "karyfire"} <= set(bound)

    resolved = set()
    for node in ast.walk(child_tree):
        chain = _dotted(node) if isinstance(node, ast.Attribute) else None
        if chain is None or chain[0] not in bound:
            continue
        target = bound[chain[0]]
        for attr in chain[1:]:
            assert hasattr(target, attr), f"{'.'.join(chain)} no longer resolves"
            target = getattr(target, attr)
        resolved.add(".".join(chain))
    assert {
        "enumeration.enumerate_stable",
        "analysis.check_ballot",
        "analysis.max_inversions",
        "engine.Configuration.from_json_dict",
        "cli.build_parser",
        "karyfire.cli.main",
    } <= resolved
