"""No module of the package imports a sibling's private name, only
gaussmix judges what counts as a number, only gaussmix factors a covariance
for evaluation, and ``import ppdiv`` leaves the oracle battery unloaded."""

import ast
import subprocess
import sys
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


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_gaussmix_imports_numbers():
    # Importing numbers marks a hand-written type judgement: a scalar from
    # outside goes through gaussmix.checked_number instead.
    found = {path.stem for path in SOURCES if "numbers" in set(_imported_modules(path))}
    assert found == {"gaussmix"}


def _cholesky_calls(path: Path):
    # (module, enclosing function) of every reference to a name "cholesky".
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            if (
                isinstance(child, ast.Attribute) and child.attr == "cholesky"
                or isinstance(child, ast.Name) and child.id == "cholesky"
                or isinstance(child, ast.alias) and child.name.endswith("cholesky")
            ):
                yield path.stem, where
            yield from walk(child, inner)

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), None)


def test_only_the_constructor_check_and_the_sampler_call_lapacks_cholesky():
    # Every evaluation factors through gaussmix.gauss_factor's elementwise
    # kernel.  LAPACK's factor stays in the positive-definite check of
    # constructed covariances and in the sampler, whose factor fixes the
    # random draws.
    found = {call for path in SOURCES for call in _cholesky_calls(path)}
    assert found == {("gaussmix", "_spd"), ("pointprocess", "_sample_points")}


def test_import_leaves_the_oracle_battery_unloaded():
    script = (
        "import sys, ppdiv\n"
        "assert 'ppdiv.validate' not in sys.modules\n"
        "from ppdiv import validate_oracles\n"
        "assert ppdiv.validate_oracles is validate_oracles is sys.modules['ppdiv.validate'].validate_oracles\n"
        "assert not hasattr(ppdiv, 'no_such_name')\n"
    )
    src = str(Path(ppdiv.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=src, timeout=120)
    assert result.returncode == 0, result.stderr
