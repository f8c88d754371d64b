"""No module of the package imports a sibling's private name."""

import ast
from pathlib import Path

import ppdiv

SOURCES = sorted(Path(ppdiv.__file__).parent.glob("*.py"))

# (importing module, sibling, name) pairs allowed, each with its reason.
ALLOWED = {
    # perfbench/tracing.py patches harness._evaluate_candidate to count the
    # baseline policies' candidates, so harness must resolve it by that name.
    ("harness", "control", "_evaluate_candidate"),
}


def _private_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    yield path.stem, node.module or "", alias.name


def test_sources_are_found():
    assert {"gaussmix", "gmphd", "scenario", "harness", "control"} <= {p.stem for p in SOURCES}


def test_no_module_imports_a_siblings_private_name():
    found = {imp for path in SOURCES for imp in _private_imports(path)}
    assert found - ALLOWED == set()
    assert ALLOWED <= found, "an allowed private import is gone; drop it from ALLOWED"
