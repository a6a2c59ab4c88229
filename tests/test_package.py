import pathlib

import pytest

import csilink

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_matches_pyproject():
    with PYPROJECT.open("rb") as fh:
        assert csilink.__version__ == tomllib.load(fh)["project"]["version"]
