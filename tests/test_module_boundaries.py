"""No module of the package imports a sibling's private name, only
gaussmix judges what counts as a number, LAPACK is called only at the
pinned sites, and ``import ppdiv`` leaves the oracle battery unloaded."""

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


# numpy.linalg's factor, solve and eigen routines, all of them LAPACK calls.
LAPACK = {"cholesky", "slogdet", "det", "solve", "inv", "pinv", "eigh", "eigvalsh", "svd", "lstsq"}

# (module, enclosing function, routine) of every LAPACK call in the package,
# each with its reason: the outputs depend on the host's LAPACK only here.
LAPACK_SITES = {
    # The constructors' yes/no check of a semidefinite covariance.
    ("gaussmix", "_spd", "eigvalsh"),
    # The truth noise factor fixes the truth draws.
    ("scenario", "_psd_factor", "eigh"),
    # Where each detection term peaks, probed once per profile.
    ("gmphd", "__post_init__", "pinv"),
    # The battery's textbook Kalman filter and its direct p_D.
    ("validate", "kalman_filter_sequence", "inv"),
    ("validate", "_check_scenario_statistics", "inv"),
}


def _dotted_names(node):
    # What an import brings in (import a.b, from a import b) or an attribute
    # spells out (a.b), as dotted names.
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [f"{node.module}.{alias.name}" for alias in node.names]
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return [f"{node.value.id}.{node.attr}"]
    return []


def _lapack_calls(path: Path):
    # (module, enclosing function, routine) of every reference to a LAPACK
    # routine as an attribute (np.linalg.solve) or an imported name; a call
    # through a name imported from linalg shows as its import.  Every name in
    # scipy.linalg (cho_factor, lu_factor, ...) wraps LAPACK, so any import
    # of it or reference to it shows as the routine "scipy.linalg".
    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else where
            name = (
                child.attr if isinstance(child, ast.Attribute)
                else child.name if isinstance(child, ast.alias)
                else None
            )
            if name in LAPACK:
                yield path.stem, where, name
            if any(f"{dotted}.".startswith("scipy.linalg.") for dotted in _dotted_names(child)):
                yield path.stem, where, "scipy.linalg"
            yield from walk(child, inner)

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), None)


def test_lapack_is_called_only_at_the_pinned_sites():
    # Every Cholesky factor is gaussmix.gauss_factor's elementwise kernel; a
    # new LAPACK call anywhere else must be added here with its reason, and a
    # site that is gone must be dropped.
    found = {call for path in SOURCES for call in _lapack_calls(path)}
    assert found == LAPACK_SITES


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
