"""The package exports what the CLI, the demos and the acceptance suite
use, and the types its public functions return or raise; a function that
only unit tests use is imported from its module.  The library modules
define nothing that only unit tests use: a test reference lives in tests/."""

import ast
from pathlib import Path

import kicked_coupler

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "kicked_coupler").glob("*.py"))
LIBRARY = [path for path in SRC if path.name not in ("cli.py", "__init__.py")]
USERS = [
    ROOT / "src" / "kicked_coupler" / "cli.py",
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "demos").glob("*.py")),
]
# returned or raised by exported functions
SIGNATURE_TYPES = {"DegenerateProjectionError", "DimensionMismatchError"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def imported_names(path: Path) -> set[str]:
    return {
        alias.name
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


# the field of each node type that holds the identifier it names
NAME_FIELDS = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def named(nodes) -> set[str]:
    """The identifiers the syntax trees name: variables, attributes and
    imported names."""
    return {
        getattr(sub, NAME_FIELDS[type(sub)])
        for node in nodes
        for sub in ast.walk(node)
        if type(sub) in NAME_FIELDS
    }


def test_every_exported_name_has_a_user():
    assert len(USERS) > 2
    used = set().union(*map(imported_names, USERS))
    assert sorted(set(kicked_coupler.__all__) - used - SIGNATURE_TYPES) == []


def test_exports_are_unique_and_importable():
    assert len(set(kicked_coupler.__all__)) == len(kicked_coupler.__all__)
    for name in kicked_coupler.__all__:
        assert hasattr(kicked_coupler, name), name


def test_every_library_definition_has_a_user():
    # named by another src/ module, by its own module outside its own
    # definition, by a demo or by the acceptance suite
    assert len(LIBRARY) > 5
    trees = {path: parse(path) for path in {*SRC, *USERS}}
    unused = []
    for module in LIBRARY:
        elsewhere = named(tree for path, tree in trees.items() if path != module)
        body = trees[module].body
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                rest = named(other for other in body if other is not node)
                if node.name not in elsewhere | rest:
                    unused.append(f"{module.stem}.{node.name}")
    assert unused == []
