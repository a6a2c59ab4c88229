"""The benchmark in bench/ wraps simulator functions by module attribute and
reads some of their arguments by name; these checks fail when a refactor
renames or drops one of them."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

DESK = Path(__file__).resolve().parent.parent / "bench" / "desk.py"


@pytest.fixture(scope="module")
def desk():
    spec = importlib.util.spec_from_file_location("bench_desk", DESK)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while they are built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_layer_resolves_to_a_callable(desk):
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in desk.LAYERS
        if not callable(getattr(module, attr, None))
    ]
    assert not missing


@pytest.mark.parametrize(
    "attr, arguments",
    [
        ("evaluate_point", ("cfg", "profile", "model", "rho_db", "user", "seed_domain")),
        ("draw_block_fading", ("profile", "tx", "n_r", "n_sc", "delta_f", "seed", "n_blocks")),
    ],
)
def test_hooked_arguments_exist(desk, attr, arguments):
    (module,) = [m for m, a, *_ in desk.LAYERS if a == attr]
    parameters = inspect.signature(getattr(module, attr)).parameters
    assert [a for a in arguments if a not in parameters] == []
