"""The package exports what the CLI, the demos and the acceptance suite
use, and the types its public functions return or raise; a function that
only unit tests use is imported from its module."""

import ast
from pathlib import Path

import kicked_coupler

ROOT = Path(__file__).resolve().parent.parent
USERS = [
    ROOT / "src" / "kicked_coupler" / "cli.py",
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "demos").glob("*.py")),
]
# returned or raised by exported functions
SIGNATURE_TYPES = {"DegenerateProjectionError", "DimensionMismatchError"}


def imported_names(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_exported_name_has_a_user():
    assert len(USERS) > 2
    used = set().union(*map(imported_names, USERS))
    assert sorted(set(kicked_coupler.__all__) - used - SIGNATURE_TYPES) == []


def test_exports_are_unique_and_importable():
    assert len(set(kicked_coupler.__all__)) == len(kicked_coupler.__all__)
    for name in kicked_coupler.__all__:
        assert hasattr(kicked_coupler, name), name
