"""The package exports what the CLI, the demos and the acceptance suite
use; a function that only unit tests use is imported from its module.  The
library modules define nothing that only unit tests use: a test reference
lives in tests/, and an exported function has no defaulted parameter that
only tests set.  Every package exception type has an exit code in cli.main."""

import ast
import importlib
import inspect
from pathlib import Path

import kicked_coupler

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "kicked_coupler").glob("*.py"))
LIBRARY = [path for path in SRC if path.name != "__init__.py"]
USERS = [
    ROOT / "src" / "kicked_coupler" / "cli.py",
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "demos").glob("*.py")),
]


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
    assert sorted(set(kicked_coupler.__all__) - used) == []


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


def callee(call: ast.Call) -> str | None:
    """The name a call calls: f(...) and module.f(...) both call f."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def test_every_exported_parameter_is_passed():
    # by a call in the package, a demo or the acceptance suite, by keyword
    # or by position; a default that only unit tests override is a knob
    # no user turns
    calls = [
        node
        for path in {*SRC, *USERS}
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Call)
    ]
    unpassed = []
    for name in kicked_coupler.__all__:
        function = getattr(kicked_coupler, name)
        if not inspect.isfunction(function):
            continue
        own = [call for call in calls if callee(call) == name]
        positional = max((len(call.args) for call in own), default=0)
        keywords = {keyword.arg for call in own for keyword in call.keywords}
        parameters = inspect.signature(function).parameters.values()
        for index, parameter in enumerate(parameters):
            if parameter.default is parameter.empty:
                continue
            if index >= positional and parameter.name not in keywords:
                unpassed.append(f"{name}.{parameter.name}")
    assert unpassed == []


def test_every_package_exception_has_an_exit_code():
    # each exception class a src/ module defines is caught by an except
    # clause of cli.main, itself or through a base class, so none ends a run
    # in a traceback
    modules = [
        importlib.import_module(f"kicked_coupler.{path.stem}")
        for path in SRC
        if path.name != "__init__.py"
    ]
    defined = [
        cls
        for module in modules
        for cls in vars(module).values()
        if inspect.isclass(cls)
        and issubclass(cls, BaseException)
        and cls.__module__ == module.__name__
    ]
    assert len(defined) > 1
    main = next(
        node
        for node in parse(ROOT / "src" / "kicked_coupler" / "cli.py").body
        if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    caught = named(
        handler.type
        for handler in ast.walk(main)
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None
    )
    uncaught = [
        cls.__name__
        for cls in defined
        if not {base.__name__ for base in cls.__mro__} & caught
    ]
    assert uncaught == []
