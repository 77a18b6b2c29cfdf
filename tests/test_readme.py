"""The numbers README.md states about the code (the constants it quotes,
the size of the public API, the supported Python and numpy versions), and
the package version, which both `__init__` and pyproject.toml state."""

import importlib
import re
import tomllib
from pathlib import Path

import kicked_coupler

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]


def test_quoted_constants_match_the_code():
    # "`module.NAME` = value", possibly across a line break
    quoted = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*)`\s+=\s+([0-9][0-9.e+-]*)", README)
    assert quoted
    for module, name, value in quoted:
        constant = getattr(importlib.import_module(f"kicked_coupler.{module}"), name)
        assert constant == type(constant)(value), f"{module}.{name}"


def test_export_count_matches_all():
    (count,) = re.findall(r"exports\s+(\d+)\s+names", README)
    assert int(count) == len(kicked_coupler.__all__)


def test_version_floors_match_pyproject():
    ((python, numpy),) = re.findall(
        r"needs\s+Python\s+(\S+)\s+or\s+later\s+and\s+numpy\s+(\S+)\s+or\s+later", README
    )
    assert PROJECT["requires-python"] == f">={python}"
    assert f"numpy>={numpy}" in PROJECT["dependencies"]


def test_version_matches_pyproject():
    assert kicked_coupler.__version__ == PROJECT["version"]
