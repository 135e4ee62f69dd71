"""The package surface and the import graph between its modules."""

import ast
from pathlib import Path
from types import ModuleType

import pytest

import centroidsumm

TESTS = Path(__file__).parent
PACKAGE = Path(centroidsumm.__file__).parent


def test_star_import_binds_no_module():
    assert [name for name in centroidsumm.__all__ if isinstance(getattr(centroidsumm, name), ModuleType)] == []


def test_an_unknown_name_is_missing():
    # the lazy layers resolve through the package's __getattr__, which must not answer every name
    assert not hasattr(centroidsumm, "no_such_name")
    with pytest.raises(AttributeError, match="module 'centroidsumm' has no attribute 'no_such_name'"):
        centroidsumm.no_such_name


def test_all_keeps_every_name_the_acceptance_tests_import():
    tree = ast.parse((TESTS / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "centroidsumm"
        for alias in node.names
    }
    assert imported and imported <= set(centroidsumm.__all__)


def test_layers_import_only_the_layers_below_them():
    """The evaluator scores any extract, so it needs the data model but not the summarizer."""
    graph = {}
    for name in ("text", "lexstats", "summarizer", "evaluation", "cli"):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        graph[name] = {
            module
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
            for module in ([node.module] if node.module else [alias.name for alias in node.names])
        }
    assert graph == {
        "text": set(),
        "lexstats": {"text"},
        "summarizer": {"text", "lexstats"},
        "evaluation": {"text"},
        "cli": {"text", "lexstats", "summarizer", "evaluation"},
    }
