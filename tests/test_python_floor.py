"""Every source file parses under the oldest Python that pyproject.toml
declares (``requires-python``).

``ast.parse`` with ``feature_version`` rejects grammar newer than that
version, such as ``except*`` or the ``type`` statement.  It does not see
standard-library names added later, so this checks the syntax floor only.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_the_floor_is_read_and_files_are_found():
    assert declared_floor() == (3, 10)
    assert {"src", "tests", "perfbench"} <= {p.relative_to(ROOT).parts[0] for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=declared_floor())


def test_newer_grammar_is_rejected_at_the_floor():
    snippet = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    if sys.version_info >= (3, 11):
        ast.parse(snippet)  # valid grammar today, so only the floor rejects it
    with pytest.raises(SyntaxError):
        ast.parse(snippet, feature_version=declared_floor())
