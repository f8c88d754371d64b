"""The benchmark's traced run times ppdiv by patching module attributes; a
refactor that drops one of them breaks only that run, so check here that
every attribute it names still resolves."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, _ in tracing.BOUNDARIES]


@pytest.mark.parametrize("module, attr", _boundaries())
def test_traced_boundary_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"ppdiv.{module}"), attr))
