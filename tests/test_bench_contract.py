"""The benchmark in bench/ wraps simulator functions by module attribute and
reads some of their arguments by name; these checks fail when a refactor
renames or drops one of them, or calls a stage under another name."""

import importlib.util
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from csilink import chanmodel as cm
from csilink import codec
from csilink import expsuite as es
from csilink import phylink as pl

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


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({}, id="desk"),
        pytest.param(dict(n_sc=16, n_r=2, ura_rows=2, ura_cols=2, n_pilot=8, payload_bits=4001, n_blocks=3), id="small"),
    ],
)
def test_expected_totals_match_the_framing(desk, overrides):
    """The bench checks each point's bit and block totals against its own
    framing arithmetic, which must agree with the link's."""
    cfg = desk.desk_config(5, **overrides)
    shapes = [
        pl.frame_codewords(share, cfg.link_config(cfg.rhos[0])).shape
        for share in np.array_split(np.zeros(cfg.payload_bits, dtype=np.uint8), cfg.n_blocks)
    ]
    assert desk.expected_totals(cfg) == (sum(r * c for r, c in shapes), sum(r for r, _ in shapes))


def test_link_stages_are_reached_through_their_module_attributes(desk, monkeypatch):
    """The tracer times a stage by wrapping its module attribute, so a stage
    that the evaluation reaches under another name reads as zero self time."""
    cfg = es.ExperimentConfig(
        profiles=("cdl_e",), n_sc=16, n_r=2, ura_rows=2, ura_cols=2, n_pilot=8, kappas=(0.5,),
        rhos=(30.0,), n_users=1, payload_bits=4000, n_blocks=1,
        train=es.TrainSettings(epochs=2, batch_size=16, dataset_size=16),
    )
    profile = es.resolve_profile("cdl_e")
    model = es.train_codec_family(cfg, profile, 0)[0.5].model
    es._user_realization.cache_clear()

    calls = {}
    for module, attr, *_ in desk.LAYERS:
        if module.__name__.rsplit(".", 1)[-1] in ("phylink", "chanmodel", "codec"):
            original = getattr(module, attr)
            calls[attr] = 0

            def counting(*args, _attr=attr, _original=original, **kwargs):
                calls[_attr] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, attr, counting)

    es.evaluate_point(cfg, profile, 0, model, 30.0, 0)
    stages = (
        "generate_pilots", "observe_pilots", "ls_estimate", "svd_precoder", "waterfill",
        "frame_codewords", "crc_remainder_many", "qam16_modulate", "qam16_detect", "crc_check_many",
        "run_link_once", "draw_block_fading", "compress", "decompress",
    )
    assert [s for s in stages if not calls[s]] == []


def test_training_stages_are_called_once_per_unit_of_work(monkeypatch):
    """The tracer reads synth_calls, batches and the training stage times off
    calls to these module attributes: one draw per training sample, one train
    per ratio, one backprop and one Adam step per batch. A batched draw or an
    inlined step would still train correctly but misreport them."""
    train = es.TrainSettings(epochs=3, batch_size=16, dataset_size=32)
    cfg = es.ExperimentConfig(
        profiles=("cdl_e",), n_sc=16, n_r=2, ura_rows=2, ura_cols=2, n_pilot=8, kappas=(0.5, 0.7),
        rhos=(30.0,), n_users=1, payload_bits=4000, n_blocks=1, train=train, static_kappa=0.5,
    )
    calls = {}
    for module, attr in ((cm, "synthesize_csi"), (codec, "train"), (codec, "backprop"), (codec, "adam_step")):
        calls[attr] = 0

        def counting(*args, _attr=attr, _original=getattr(module, attr), **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)

    es.train_codec_family(cfg, es.resolve_profile("cdl_e"), 0)
    n_train = train.dataset_size - int(round(train.val_fraction * train.dataset_size))
    steps = train.epochs * math.ceil(n_train / train.batch_size) * len(cfg.kappas)
    assert calls == {
        "synthesize_csi": train.dataset_size,
        "train": len(cfg.kappas),
        "backprop": steps,
        "adam_step": steps,
    }
