"""Public export lists: every advertised name resolves, and every name the
physical layer exports has a caller outside the tests."""

import ast
from pathlib import Path

import pytest

import kgsemcom
import kgsemcom.phy

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", [kgsemcom, kgsemcom.phy], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def _program_files():
    """The non-test Python files of src/ (export lists aside), demos/ and bench/."""
    for top in ("src", "demos", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py" and "tests" not in path.relative_to(ROOT).parts:
                yield path


def test_every_phy_export_has_a_program_caller():
    # a name read (as a Name or an Attribute) only by tests is a second API to
    # keep in step with the one the program runs
    used = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(kgsemcom.phy.__all__) - used) == []
