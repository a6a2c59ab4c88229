import ast
import dataclasses
import importlib
import inspect
import math
import pathlib
import pkgutil

import pytest

import csilink
from csilink import expsuite

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
PACKAGE = pathlib.Path(csilink.__file__).resolve().parent

# Public names that no code in the package refers to, each with the reason it
# stays. Every other top-level function, class and constant, public or
# private, has a caller in a run.
UNREACHED_PUBLIC_NAMES = {
    "overhead_bits",  # criterion 7b specifies the feedback size in closed form
    "save_config",  # the config as loaded, for the run manifest (ROADMAP item 1a)
}


def test_version_matches_pyproject():
    with PYPROJECT.open("rb") as fh:
        assert csilink.__version__ == tomllib.load(fh)["project"]["version"]


def unreferenced_names():
    """Top-level functions, classes and UPPER_CASE constants of the package,
    public or private, that no loaded Name, Attribute or from-import in the
    package refers to. A constant's own assignment does not count as a
    reference."""
    defined, referenced = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name) and t.id.isupper())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return defined - referenced


def test_every_public_name_has_a_caller():
    """No public name exists only for the tests, apart from the named
    exceptions, and no private helper is left without a caller."""
    assert unreferenced_names() == UNREACHED_PUBLIC_NAMES


# Functions that read every field by construction: the checks, not a run.
VALIDATORS = {"__post_init__", "_check_field_types"}


def attributes_read_by_runs():
    """Attribute names that the package loads outside VALIDATORS."""

    def visit(node, read):
        if isinstance(node, ast.FunctionDef) and node.name in VALIDATORS:
            return
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, read)

    read = set()
    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), read)
    return read


@pytest.mark.parametrize("settings", [expsuite.ExperimentConfig, expsuite.TrainSettings], ids=lambda c: c.__name__)
def test_every_config_field_has_a_reader(settings):
    """No config key is accepted and then ignored: each field is read by code
    other than the validation that reads every field."""
    unread = {f.name for f in dataclasses.fields(settings)} - attributes_read_by_runs()
    assert not unread, f"{settings.__name__} fields that no run reads: {sorted(unread)}"


# Fields and properties that no code in the package reads, each with the
# reason it stays. Every other field and property of every class is read by a
# run. A name that gains a reader must leave this table.
UNREAD_FIELDS = {
    "LinkResult.detected_bits": "the link-oracle tests read it; diagnostics.csv gives it a reader (ROADMAP 1b)",
    "LinkResult.crc_ok": "the link-oracle tests read it; diagnostics.csv's block errors read it (ROADMAP 1b)",
    "PrecodeSet.sigma": "the link-oracle tests read it; diagnostics.csv's SINR reads it (ROADMAP 1b)",
    "PrecodeSet.powers": "bench/selftest.py and the link-oracle tests read it; diagnostics.csv reads it (ROADMAP 1b)",
}


def unread_fields_and_properties():
    """``Class.name`` of every dataclass field and property of a package class
    whose name the package does not load outside VALIDATORS. The match is by
    name: a field shares the reader of any attribute of the same name."""
    read = attributes_read_by_runs()
    unread = set()
    for info in pkgutil.iter_modules(csilink.__path__):
        module = importlib.import_module(f"csilink.{info.name}")
        for cls in vars(module).values():
            if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
                continue
            names = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
            names += [name for name, value in vars(cls).items() if isinstance(value, property)]
            unread.update(f"{cls.__name__}.{name}" for name in names if name not in read)
    return unread


def test_every_field_and_property_has_a_reader():
    """No field, config key or property exists only for the tests, apart from
    the named exceptions, and an exception that gains a reader leaves them."""
    assert unread_fields_and_properties() == set(UNREAD_FIELDS)


# Defaulted parameters that no call in the package sets, each with the reason
# it stays. Every other optional parameter is set by some run, so no default
# exists only for the tests.
UNSET_OPTIONAL_PARAMETERS = {
    "main.argv": "the console script calls main() and argparse reads sys.argv",
}


def unset_optional_parameters():
    """``function.parameter`` of every defaulted parameter of a package
    function or method that no call in the package sets, by keyword or by
    position. The match is by name: a call of any function or attribute of
    that name counts, and a method's first parameter is bound, not passed."""
    defaulted, calls = [], []
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                bound = id(node) in methods
                first = len(positional) - len(args.defaults)
                defaulted += [(node.name, a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
                defaulted += [(node.name, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.append((name, math.inf if starred else len(node.args), {k.arg for k in node.keywords}))
    return {
        f"{function}.{param}"
        for function, param, index in defaulted
        if not any(
            name == function and ((index is not None and n > index) or param in keywords or None in keywords)
            for name, n, keywords in calls
        )
    }


def test_every_optional_parameter_is_set_by_a_run():
    """No default exists only for the tests: every defaulted parameter is set
    by some call in the package, apart from the named exceptions."""
    assert unset_optional_parameters() == set(UNSET_OPTIONAL_PARAMETERS)
