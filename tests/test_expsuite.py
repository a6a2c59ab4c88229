import hashlib
import json
import math
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from csilink import chanmodel as cm
from csilink import cli
from csilink import codec
from csilink import expsuite as ex
from csilink import phylink as pl

DESK_JSON = Path(__file__).resolve().parents[1] / "configs" / "desk.json"

# SHA-256 of the tiny config's sweep.csv, taken with numpy 2.4.6 and
# scipy-openblas 0.3.31.
TINY_SWEEP_SHA256 = "d8e18525c057b52b59398a64e925e756a1a49b29fad3e5e9964084ee0302144c"


def tiny_config(**overrides):
    """Small but complete experiment: full chain, quick to run."""
    base = dict(
        profiles=("cdl_e",),
        n_sc=16,
        n_r=2,
        ura_rows=2,
        ura_cols=2,
        n_pilot=8,
        kappas=(0.5,),
        rhos=(10.0, 30.0),
        n_users=2,
        payload_bits=4000,
        n_blocks=1,
        train=ex.TrainSettings(epochs=4, batch_size=16, learning_rate=1e-3, dataset_size=32),
        master_seed=12345,
    )
    base.update(overrides)
    return ex.ExperimentConfig(**base)


def record_calls(monkeypatch, module, attr):
    """Replace ``module.attr`` with a pass-through that records each call's
    positional arguments; returns the list of records."""
    calls = []
    original = getattr(module, attr)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, recording)
    return calls


def channel_draws(calls):
    """The recorded draw_block_fading calls that realize a user's channels:
    synthesize_csi draws each training sample through draw_block_fading too,
    on the training-data stream."""
    return [args for args in calls if args[5].entropy[1] == ex._CHANNEL]


@pytest.fixture(scope="module")
def tiny_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    cfg = tiny_config()
    ex._user_realization.cache_clear()
    result = ex.run_sweep(cfg, out_dir=out)
    return cfg, result, out


@pytest.fixture(scope="module")
def two_profile_sweep():
    cfg = tiny_config(profiles=("cdl_e", "cdl_c"))
    return cfg, ex.run_sweep(cfg)


class TestConfig:
    def test_defaults_are_desk_scale(self):
        cfg = ex.ExperimentConfig()
        assert cfg.n_t == 16 and cfg.n_r == 4 and cfg.n_sc == 128
        assert cfg.kappas == (0.1, 0.5, 0.7)
        assert cfg.rhos == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
        assert cfg.n_users == 10
        assert cfg.train.epochs == 64 and cfg.train.batch_size == 128

    def test_desk_json_matches_defaults(self):
        assert ex.load_config(DESK_JSON) == ex.ExperimentConfig()

    def test_json_round_trip(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "cfg.json"
        ex.save_config(cfg, path)
        assert ex.load_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not_a_field": 1}))
        with pytest.raises(ValueError, match="not_a_field"):
            ex.load_config(path)
        path.write_text(json.dumps({"train": {"epoch": 1}}))
        with pytest.raises(ValueError, match="train.epoch"):
            ex.load_config(path)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            pytest.param(dict(kappas=(1.5,)), "strictly between", id="kappa_out_of_range"),
            pytest.param(dict(rhos=()), "SNR point", id="no_snr"),
            pytest.param(dict(n_users=0), "one user", id="no_users"),
            pytest.param(dict(kappas=(0.5, 0.5)), "unique", id="duplicate_kappas"),
            pytest.param(dict(rhos=(10.0, 10.0, 30.0)), "SNR points must be unique", id="duplicate_rhos"),
            pytest.param(dict(n_blocks=0), "fading block", id="no_blocks"),
            pytest.param(dict(profiles=()), "channel profile", id="no_profiles"),
            pytest.param(dict(profiles=("cdl_c", "CDL-C")), "profiles must be unique", id="repeated_profile"),
            pytest.param(dict(n_pilot=3), "n_pilot >= n_t", id="fewer_pilots_than_tx"),
            pytest.param(dict(rhos=(float("inf"),)), "positive finite", id="infinite_snr"),
            pytest.param(dict(rhos=(float("nan"),)), "positive finite", id="nan_snr"),
            pytest.param(dict(rhos=(4000.0,)), "positive finite", id="overflowing_snr"),
            pytest.param(dict(rhos=(-4000.0,)), "positive finite", id="underflowing_snr"),
            pytest.param(dict(payload_bits=-5), "payload_bits", id="negative_payload"),
            pytest.param(dict(payload_bits=0), "payload_bits", id="empty_payload"),
            pytest.param(dict(delta_f=0.0), "delta_f", id="zero_subcarrier_spacing"),
            pytest.param(dict(delta_f=float("inf")), "delta_f must be positive and finite", id="infinite_subcarrier_spacing"),
            pytest.param(dict(n_sc=0), "subcarrier counts", id="no_subcarriers"),
            pytest.param(dict(n_sc=1), "n_sc must be at least 2", id="no_payload_bit_per_codeword"),
            pytest.param(dict(ura_rows=0), "at least one element", id="empty_tx_array"),
            pytest.param(dict(static_kappa=0.9), "static_kappa", id="static_kappa_not_swept"),
            pytest.param(dict(adaptive_profile="CDL-C"), "adaptive profile", id="adaptive_profile_not_swept"),
            pytest.param(dict(adaptive_profile="cdl_c"), "adaptive profile", id="adaptive_profile_file_name_not_swept"),
            pytest.param(dict(train=dict(epochs=0)), "epochs", id="zero_epochs"),
            pytest.param(dict(train=dict(batch_size=0)), "batch_size", id="zero_batch"),
            pytest.param(dict(train=dict(learning_rate=0.0)), "learning_rate", id="zero_learning_rate"),
            pytest.param(dict(train=dict(learning_rate=float("inf"))), "learning_rate must be positive and finite", id="infinite_learning_rate"),
            pytest.param(dict(train=dict(dataset_size=0)), "dataset_size", id="empty_dataset"),
            pytest.param(dict(train=dict(val_fraction=-0.1)), "val_fraction", id="negative_val_fraction"),
            pytest.param(dict(train=dict(val_fraction=1.0)), "val_fraction", id="no_training_sample"),
            pytest.param(dict(train=dict(val_fraction=float("nan"))), "val_fraction must be finite", id="nan_val_fraction"),
            pytest.param(dict(train=dict(val_fraction=float("inf"))), "val_fraction must be finite", id="infinite_val_fraction"),
            pytest.param(dict(b_max=-1.0), "b_max", id="negative_bler_ceiling"),
            pytest.param(dict(b_max=float("nan")), "b_max", id="nan_bler_ceiling"),
            pytest.param(dict(b_max=2.0), "b_max", id="bler_ceiling_above_one"),
            pytest.param(dict(master_seed=2**64 + 555), "64-bit", id="seed_above_64_bits"),
            pytest.param(dict(payload_bits=2e5), "payload_bits must be an integer", id="float_payload_bits"),
            pytest.param(dict(n_users=2.0), "n_users must be an integer", id="float_users"),
            pytest.param(dict(n_users=True), "n_users must be an integer", id="bool_users"),
            pytest.param(dict(n_blocks=2.0), "n_blocks must be an integer", id="float_blocks"),
            pytest.param(dict(n_pilot=64.0), "n_pilot must be an integer", id="float_pilots"),
            pytest.param(dict(train=dict(epochs=2.0)), "epochs must be an integer", id="float_epochs"),
            pytest.param(dict(rhos=(True, 10.0)), "rhos must be a tuple of real numbers", id="bool_snr"),
            pytest.param(dict(delta_f=True), "delta_f must be a real number", id="bool_spacing"),
            pytest.param(dict(delta_f=10**401), "delta_f must be a real number", id="overflowing_subcarrier_spacing"),
            pytest.param(dict(b_max="0.1"), "b_max must be a real number", id="string_bler_ceiling"),
            pytest.param(dict(kappas=(0.5, "0.7")), "kappas must be a tuple of real numbers", id="string_kappa"),
            pytest.param(dict(train=dict(learning_rate="1e-3")), "learning_rate must be a real number", id="string_learning_rate"),
            pytest.param(dict(train=dict(learning_rate=10**401)), "learning_rate must be a real number", id="overflowing_learning_rate"),
            pytest.param(dict(train=dict(val_fraction="0.2")), "val_fraction must be a real number", id="string_val_fraction"),
            pytest.param(dict(profiles=(7,)), "profiles must be a tuple of strings", id="numeric_profile"),
            pytest.param(dict(adaptive_profile=5), "adaptive_profile must be a string or null", id="numeric_adaptive_profile"),
        ],
    )
    def test_validation(self, overrides, message, tmp_path):
        """A bad config fails when it is built or loaded, before any training."""
        raw = asdict(tiny_config())
        raw.update({k: v for k, v in overrides.items() if k != "train"})
        raw["train"].update(overrides.get("train", {}))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match=message):
            ex.load_config(path)
        with pytest.raises(ValueError, match=message):
            train = ex.TrainSettings(**raw.pop("train"))
            ex.ExperimentConfig(train=train, **raw)

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param("[]", "JSON object", id="top_level_array"),
            pytest.param('{"train": null}', "train must be a JSON object", id="null_train"),
            pytest.param('{"profiles": "cdl_c"}', "profiles must be a JSON array", id="profiles_string"),
            pytest.param('{"kappas": 0.5}', "kappas must be a JSON array", id="kappas_number"),
            pytest.param('{"rhos": 10}', "rhos must be a JSON array", id="rhos_number"),
        ],
    )
    def test_wrong_json_types_rejected(self, text, message, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            ex.load_config(path)

    def test_adaptive_profile_either_spelling(self, two_profile_sweep, tmp_path, monkeypatch):
        """A profile's file name ('cdl_c') and display name ('CDL-C') name the
        same profile: both load, and the adaptive traces run on that profile."""
        cfg, sweep = two_profile_sweep
        picked = {}
        for spelling in ("cdl_c", "CDL-C"):
            path = tmp_path / f"{spelling}.json"
            ex.save_config(replace(cfg, adaptive_profile=spelling), path)
            loaded = ex.load_config(path)
            assert loaded.adaptive_profile == spelling
            calls = record_calls(monkeypatch, ex, "evaluate_point")
            ex.run_adaptive_experiment(loaded, sweep=sweep)
            picked[spelling] = {(args[1].name, args[2]) for args in calls}
            monkeypatch.undo()
        assert picked["cdl_c"] == picked["CDL-C"] == {("CDL-C", 1)}

    def test_unknown_profile_rejected(self, tmp_path):
        raw = asdict(tiny_config())
        raw["profiles"] = ["cdl_e", "no_such_profile"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(FileNotFoundError, match="no_such_profile"):
            ex.load_config(path)
        with pytest.raises(FileNotFoundError, match="no_such_profile"):
            tiny_config(profiles=("cdl_e", "no_such_profile"))


    def test_profile_file_with_an_unread_key_rejected(self, tmp_path):
        raw = json.loads(cm.shipped_profile_path("cdl_e").read_text())
        path = tmp_path / "cdl_e_los.json"
        path.write_text(json.dumps({**raw, "los": True}))
        with pytest.raises(cm.ProfileSchemaError, match="los"):
            tiny_config(profiles=(str(path),))

    def test_overflowing_delay_phase_rejected(self, tmp_path):
        raw = json.loads(cm.shipped_profile_path("cdl_e").read_text())
        raw["clusters"][1]["delay_s"] = 1e305
        path = tmp_path / "far.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError, match="delay phase overflows"):
            tiny_config(profiles=(str(path),))


def verdict(call):
    """The message of the ValueError ``call`` raises, or None if it returns."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


class TestOneAnswerPerRule:
    """Where the config defers a rule to the code that owns it, the config
    accepts exactly what the owner accepts, and rejects with its message."""

    @pytest.mark.parametrize("kappa", [0.0, 1e-12, 0.5, 0.999, 1.0, -0.1, math.nan, 1.5])
    def test_ratio_range_is_latent_dim(self, kappa):
        cfg = tiny_config()
        owner = verdict(lambda: codec.latent_dim(kappa, *cfg.dims))
        assert verdict(lambda: replace(cfg, kappas=(kappa,), static_kappa=kappa)) == owner

    @pytest.mark.parametrize("delta_f", [0.0, -1.0, 1e-3, 15e3, 1e300, math.inf, math.nan])
    def test_subcarrier_spacing_is_the_cluster_terms(self, delta_f):
        cfg = tiny_config()
        profile = ex.resolve_profile(cfg.profiles[0])
        owner = verdict(lambda: cm._cluster_terms(profile, cfg.ura, cfg.n_r, cfg.n_sc, delta_f))
        assert verdict(lambda: replace(cfg, delta_f=delta_f)) == owner

    @pytest.mark.parametrize("dataset_size", [1, 2, 10, 32])
    @pytest.mark.parametrize("val_fraction", [0.0, 0.2, 0.5, 0.9, 0.99, 1.0, -0.1, math.nan, math.inf])
    def test_validation_split_is_the_split_rule(self, val_fraction, dataset_size):
        owner = verdict(lambda: codec._validation_rows(val_fraction, dataset_size))
        samples = np.arange(2.0 * dataset_size).reshape(dataset_size, 2)
        assert verdict(lambda: codec.split_dataset(samples, seed=0, val_fraction=val_fraction)) == owner
        assert verdict(lambda: ex.TrainSettings(dataset_size=dataset_size, val_fraction=val_fraction)) == owner


class TestRunSweep:
    def test_row_count_is_full_cartesian_product(self, tiny_sweep):
        cfg, result, _ = tiny_sweep
        expected = len(cfg.profiles) * (len(cfg.kappas) + 1) * len(cfg.rhos) * cfg.n_users
        assert len(result.rows) == expected

    def test_baseline_rows_bypass_codec(self, tiny_sweep):
        _, result, _ = tiny_sweep
        baseline = [r for r in result.rows if r["kappa"] == 0.0]
        assert baseline and all(r["recon_mse"] == 0.0 for r in baseline)

    def test_compressed_rows_have_positive_mse(self, tiny_sweep):
        _, result, _ = tiny_sweep
        compressed = [r for r in result.rows if r["kappa"] > 0.0]
        assert compressed and all(r["recon_mse"] > 0.0 for r in compressed)

    def test_rates_within_unit_interval(self, tiny_sweep):
        _, result, _ = tiny_sweep
        for r in result.rows:
            assert 0.0 <= r["ber"] <= 1.0
            assert 0.0 <= r["bler"] <= 1.0

    def test_csv_files_written(self, tiny_sweep):
        _, _, out = tiny_sweep
        header = (out / "sweep.csv").read_text().splitlines()[0]
        assert header == ",".join(ex.SWEEP_COLUMNS)
        assert (out / "sweep_timing.csv").exists()

    def test_rerun_reproduces_csv_bytes(self, tmp_path):
        cfg = tiny_config()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            ex._user_realization.cache_clear()  # each run re-derives its draws
            ex.run_sweep(cfg, out_dir=out)
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_history_files_written(self, tmp_path):
        cfg = tiny_config(profiles=("cdl_c", "cdl_e"), kappas=(0.5, 0.7), static_kappa=0.5)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        ex._user_realization.cache_clear()
        result = ex.run_sweep(cfg, out_dir=out_a)
        ex._user_realization.cache_clear()
        ex.run_sweep(cfg, out_dir=out_b)
        names = sorted(p.name for p in out_a.glob("history_*.csv"))
        assert names == [f"history_{p}_{k}.csv" for p in ("CDL-C", "CDL-E") for k in (0.5, 0.7)]
        for name in names:
            lines = (out_a / name).read_text().splitlines()
            assert lines[0] == "epoch,train_loss,val_loss"
            assert len(lines) == 1 + cfg.train.epochs
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        ex.emit_history(result.histories[("CDL-C", 0.7)], tmp_path / "direct.csv")
        assert (tmp_path / "direct.csv").read_bytes() == (out_a / "history_CDL-C_0.7.csv").read_bytes()

    def test_seed_changes_results(self, tmp_path):
        rows_a = ex.run_sweep(tiny_config()).rows
        rows_b = ex.run_sweep(tiny_config(master_seed=999)).rows
        assert any(a["ber"] != b["ber"] for a, b in zip(rows_a, rows_b))

    def test_parallel_workers_match_serial(self, tiny_sweep):
        cfg, result, _ = tiny_sweep
        ex._user_realization.cache_clear()  # forked workers would inherit it
        parallel = ex.run_sweep(cfg, threads=2)
        assert parallel.rows == result.rows

    def test_pool_starts_no_more_workers_than_groups(self, tiny_sweep, monkeypatch):
        """A forked pool starts every worker it may use, so the cap is the
        group count; a serial stand-in records it without starting any."""
        cfg, result, _ = tiny_sweep
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(ex, "ProcessPoolExecutor", SerialPool)
        assert ex.run_sweep(cfg, threads=8).rows == result.rows
        assert workers == [2]  # one profile: the baseline and one ratio

    @pytest.mark.parametrize("threads", [0, -2])
    def test_non_positive_threads_rejected(self, threads, monkeypatch):
        trainings = record_calls(monkeypatch, codec, "train")
        with pytest.raises(ValueError, match="threads"):
            ex.run_sweep(tiny_config(), threads=threads)
        assert trainings == []

    def test_csv_bytes_match_pin(self, tiny_sweep):
        _, _, out = tiny_sweep
        got = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
        assert got == TINY_SWEEP_SHA256, (
            f"sweep.csv sha256 {got}, pinned {TINY_SWEEP_SHA256} "
            "(pin taken with numpy 2.4.6 and scipy-openblas 0.3.31)"
        )

    def test_compressed_feedback_crosses_the_wire(self, tiny_sweep, monkeypatch):
        """A compressed point sends each block's float32 latent through
        serialize and deserialize; the uncompressed baseline sends none."""
        cfg, result, _ = tiny_sweep
        cfg = replace(cfg, n_blocks=2)
        profile = ex.resolve_profile("cdl_e")
        sent = record_calls(monkeypatch, codec, "serialize")
        received = record_calls(monkeypatch, codec, "deserialize")
        ex.evaluate_point(cfg, profile, 0, None, 10.0, 0)
        assert sent == received == []
        ex.evaluate_point(cfg, profile, 0, result.models[("CDL-E", 0.5)], 10.0, 0)
        assert len(sent) == len(received) == cfg.n_blocks
        assert all(latent.values.dtype == np.float32 for latent, in sent)

    def test_histories_and_models_returned(self, tiny_sweep):
        cfg, result, _ = tiny_sweep
        assert ("CDL-E", 0.5) in result.models
        hist = result.histories[("CDL-E", 0.5)]
        assert hist.epochs == cfg.train.epochs


def reference_training_set(cfg, profile, profile_idx):
    """The raw training set in sample order: one synthesize_csi per sample on
    its own seed, realified into a row."""
    rows = np.empty((cfg.train.dataset_size, 2 * cfg.n_sc * cfg.n_r * cfg.n_t))
    for i in range(cfg.train.dataset_size):
        h = cm.synthesize_csi(
            profile,
            cfg.ura,
            cfg.n_r,
            cfg.n_sc,
            cfg.delta_f,
            ex.stream_seed(cfg.master_seed, ex._TRAIN_DATA, profile_idx, i),
        )
        rows[i] = codec.realify(codec.vectorize_csi(h))
    return rows


def reference_family(cfg, data, profile_idx):
    """The per-ratio training of the plain form: each ratio draws the
    permutation again, gathers and normalizes its own split, then trains on
    the gathered training rows."""
    out = {}
    for kappa in cfg.kappas:
        model = codec.ae_init(
            kappa, cfg.dims, ex.stream_seed(cfg.master_seed, ex._INIT, profile_idx), kappa_index=cfg.kappas.index(kappa)
        )
        rng = np.random.default_rng(ex.stream_seed(cfg.master_seed, ex._INIT, profile_idx, 1))
        order = rng.permutation(data.shape[0])
        n_val = int(round(cfg.train.val_fraction * data.shape[0]))
        val_raw, train_raw = data[order[:n_val]], data[order[n_val:]]
        stats = codec.NormStats(float(train_raw.min()), float(train_raw.max()))
        model.norm_min, model.norm_max = stats.lo, stats.hi
        x_train = codec.normalize(train_raw, stats)
        x_val = codec.normalize(val_raw, stats) if n_val else None
        params = model.params()
        state = codec.AdamState.for_params(params)
        train_curve, val_curve = [], []
        for _ in range(cfg.train.epochs):
            perm = rng.permutation(x_train.shape[0])
            losses = []
            for lo in range(0, x_train.shape[0], cfg.train.batch_size):
                loss, grads = codec.backprop(model, x_train[perm[lo : lo + cfg.train.batch_size]])
                codec.adam_step(params, grads, state, cfg.train.learning_rate)
                losses.append(loss)
            train_curve.append(float(np.mean(losses)))
            val_curve.append(codec._batch_loss(model, x_val) if x_val is not None else float("nan"))
        out[kappa] = (model, train_curve, val_curve)
    return out


class TestTrainCodecFamily:
    @pytest.mark.parametrize("val_fraction", [0.2, 0.0])
    def test_shared_split_matches_per_ratio_training(self, val_fraction):
        """Every ratio trained on one shared split, synthesized straight into
        its rows, gets the bits of a raw set built in sample order and split
        and normalized for that ratio alone."""
        train = ex.TrainSettings(epochs=4, batch_size=16, learning_rate=1e-3, dataset_size=32, val_fraction=val_fraction)
        cfg = tiny_config(kappas=(0.5, 0.7), train=train)
        profile = ex.resolve_profile("cdl_e")
        family = ex.train_codec_family(cfg, profile, 0)
        data = reference_training_set(cfg, profile, 0)

        for kappa, (model, train_curve, val_curve) in reference_family(cfg, data, 0).items():
            bundle = family[kappa]
            assert (bundle.model.norm_min, bundle.model.norm_max) == (model.norm_min, model.norm_max)
            for got, want in zip(bundle.model.params(), model.params()):
                assert np.array_equal(got, want)
            assert bundle.history.train_loss == train_curve
            np.testing.assert_array_equal(bundle.history.val_loss, val_curve)

    def test_peak_memory_bound(self):
        """The traced peak of a family's training, in units of its raw
        training set. Building and splitting the set hold 1 unit: each sample
        is synthesized straight into its row of the split. Training peaks in
        backprop's output layer, at the widest latent, and reads 2.25: the
        split, backprop's two full-batch arrays (0.25 each) and the layer's
        row block, the model (0.16) and its Adam state (0.31). Holding the
        previous step's gradients through backprop, and the batch copy
        through the first layer's weight gradient, read 2.37; four
        full-batch arrays per step (the batch, the latent, the squared errors
        and the deltas) read 2.9; splitting and normalizing again per ratio,
        with the raw set alive, read 4.0. It counts allocations, not time, so
        it reads the same in every run."""
        train = ex.TrainSettings(epochs=1, batch_size=64, dataset_size=256)
        cfg = ex.ExperimentConfig(profiles=("cdl_c",), n_sc=32, kappas=(0.1, 0.5, 0.7), static_kappa=0.5, train=train)
        profile = ex.resolve_profile("cdl_c")
        ex.train_codec_family(cfg, profile, 0)  # warm-up: one-time library allocations
        tracemalloc.start()
        try:
            ex.train_codec_family(cfg, profile, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        set_bytes = train.dataset_size * 2 * cfg.n_sc * cfg.n_r * cfg.n_t * 8
        assert peak / set_bytes < 2.3


class TestRealizations:
    """Channels and payloads do not depend on the ratio or the SNR, so each
    (profile, user) realization is drawn once and shared read-only."""

    def test_sweep_draws_each_user_once(self, monkeypatch):
        # A seed no other test uses, so no realization is cached yet.
        cfg = tiny_config(profiles=("cdl_e", "cdl_c"), master_seed=424242)
        draws = []
        draw_block_fading = cm.draw_block_fading

        def counting(*args, **kwargs):
            draws.append(args)
            return draw_block_fading(*args, **kwargs)

        monkeypatch.setattr(cm, "draw_block_fading", counting)
        ex.run_sweep(cfg)
        assert len(channel_draws(draws)) == len(cfg.profiles) * cfg.n_users

    def test_sweep_draws_each_user_once_beyond_cache_size(self, monkeypatch):
        """With more users than cached realizations, each (profile, ratio)
        group still draws each user once, not once per SNR."""
        cfg = tiny_config(n_users=33)
        ex._user_realization.cache_clear()
        draws = record_calls(monkeypatch, cm, "draw_block_fading")
        ex.run_sweep(cfg)
        assert len(channel_draws(draws)) == (1 + len(cfg.kappas)) * cfg.n_users

    def test_realizations_are_read_only(self, monkeypatch):
        cfg = tiny_config()
        profile = ex.resolve_profile("cdl_e")
        seen = record_calls(monkeypatch, pl, "run_link_once")
        ex.evaluate_point(cfg, profile, 0, None, 10.0, 0)
        assert len(seen) == cfg.n_blocks
        for _, payload in ex._user_realization(cfg, profile, 0, 0).blocks:
            with pytest.raises(ValueError):
                payload[0] ^= 1
        for tx, h_true, h_recon, *_ in seen:
            for shared in (tx.codewords, tx.symbols, tx.unit_noise):
                with pytest.raises(ValueError):
                    shared.flat[0] = 0
            with pytest.raises(ValueError):
                h_true.data[0, 0, 0] = 0.0
            # The baseline hands over the shared estimate itself.
            with pytest.raises(ValueError):
                h_recon.data[0, 0, 0] = 0.0

    def test_sweep_transmits_each_block_once_per_noise_stream(self, monkeypatch):
        """Framing, modulation and the unit noise depend on neither the ratio
        nor the SNR: the sweep transmits each (profile, user, block) once, and
        the adaptive traces once more per (user, block) on their own stream."""
        cfg = tiny_config(profiles=("cdl_e", "cdl_c"), n_blocks=2, master_seed=535353)
        ex._user_realization.cache_clear()
        sent = record_calls(monkeypatch, pl, "transmit_block")
        framed = record_calls(monkeypatch, pl, "frame_codewords")
        links = record_calls(monkeypatch, pl, "run_link_once")
        sweep = ex.run_sweep(cfg)
        assert len(sent) == len(cfg.profiles) * cfg.n_users * cfg.n_blocks
        assert len(framed) == len(sent)
        assert len(links) == len(cfg.profiles) * (1 + len(cfg.kappas)) * len(cfg.rhos) * cfg.n_users * cfg.n_blocks
        sent.clear()
        framed.clear()
        ex.run_adaptive_experiment(cfg, sweep=sweep)
        assert len(sent) == cfg.n_users * cfg.n_blocks
        assert len(framed) == len(sent)

    def test_cold_and_warm_transmissions_agree(self, tiny_sweep, monkeypatch):
        """A point reads the blocks another SNR transmitted and counts what a
        cold evaluation counts, on both link-noise streams."""
        cfg, result, _ = tiny_sweep
        profile = ex.resolve_profile("cdl_e")
        model = result.models[("CDL-E", 0.5)]
        sent = record_calls(monkeypatch, pl, "transmit_block")
        for domain in (ex._NOISE, ex._ADAPT):
            ex._user_realization.cache_clear()
            cold = ex.evaluate_point(cfg, profile, 0, model, 30.0, 1, seed_domain=domain)
            ex._user_realization.cache_clear()
            ex.evaluate_point(cfg, profile, 0, model, 10.0, 1, seed_domain=domain)
            warm = ex.evaluate_point(cfg, profile, 0, model, 30.0, 1, seed_domain=domain)
            assert len(sent) == 2 * cfg.n_blocks
            assert cold[:2] == warm[:2]
            sent.clear()

    def test_cold_and_warm_cache_agree(self, tiny_sweep, monkeypatch):
        cfg, result, _ = tiny_sweep
        profile = ex.resolve_profile("cdl_e")
        estimates = record_calls(monkeypatch, pl, "ls_estimate")
        for model in (None, result.models[("CDL-E", 0.5)]):
            ex._user_realization.cache_clear()
            cold = ex.evaluate_point(cfg, profile, 0, model, 30.0, 1)
            assert len(estimates) == cfg.n_blocks
            warm = ex.evaluate_point(cfg, profile, 0, model, 30.0, 1)
            assert len(estimates) == cfg.n_blocks
            assert ex._user_realization.cache_info()[:2] == (1, 1)  # hits, misses
            assert cold[:2] == warm[:2]
            estimates.clear()


class TestSharedEstimates:
    """The LS estimate of a (profile, user, block) at one SNR does not depend
    on the ratio, so the baseline, every ratio, the adaptive traces and the
    heatmap share one."""

    def test_sweep_estimates_once_per_snr_and_adaptive_reuses_them(self, monkeypatch):
        cfg = tiny_config(profiles=("cdl_e", "cdl_c"), kappas=(0.5, 0.7), static_kappa=0.5)
        ex._user_realization.cache_clear()
        estimates = record_calls(monkeypatch, pl, "ls_estimate")
        sweep = ex.run_sweep(cfg)
        assert len(estimates) == len(cfg.profiles) * len(cfg.rhos) * cfg.n_users * cfg.n_blocks
        estimates.clear()
        ex.run_adaptive_experiment(cfg, sweep=sweep)
        assert estimates == []

    def test_heatmap_cold_and_warm_agree(self, tmp_path):
        cfg = tiny_config()
        ex._user_realization.cache_clear()
        cold = ex.emit_csi_heatmap(cfg, 0.5, 10.0, 1, tmp_path / "cold")
        warm = ex.emit_csi_heatmap(cfg, 0.5, 10.0, 1, tmp_path / "warm")
        assert ex._user_realization.cache_info()[:2] == (1, 1)  # hits, misses
        for label in ("original", "latent", "reconstructed"):
            assert Path(cold[label]).read_bytes() == Path(warm[label]).read_bytes()


class TestAdaptiveExperiment:
    def test_traces_and_policy(self, tiny_sweep, tmp_path):
        cfg, result, _ = tiny_sweep
        out = tmp_path / "adaptive"
        rows, table = ex.run_adaptive_experiment(cfg, out_dir=out, sweep=result)
        assert len(rows) == len(cfg.rhos)
        for row in rows:
            assert set(row) == set(ex.ADAPTIVE_COLUMNS)
            if row["kappa_star"] > 0.0:
                assert row["kappa_star"] in cfg.kappas
        assert (out / "adaptive.csv").exists()
        assert (out / "policy.csv").exists()
        assert len(table.entries) == len(cfg.rhos)

    def test_each_point_evaluated_once(self, tiny_sweep, monkeypatch):
        """The adaptive trace picks the static or the uncompressed ratio here,
        so it repeats points of those traces and runs none of its own."""
        cfg, result, _ = tiny_sweep
        calls = []
        evaluate_point = ex.evaluate_point

        def counting(*args, **kwargs):
            calls.append(args)
            return evaluate_point(*args, **kwargs)

        monkeypatch.setattr(ex, "evaluate_point", counting)
        rows, _ = ex.run_adaptive_experiment(cfg, sweep=result)
        assert {row["kappa_star"] for row in rows} <= {0.0, cfg.static_kappa}
        assert len(calls) == 2 * len(cfg.rhos) * cfg.n_users

    def test_traces_draw_each_user_once_beyond_cache_size(self, monkeypatch):
        """With more users than cached realizations, the traces still draw
        each user once, not once per (ratio, SNR) pair they evaluate."""
        cfg = tiny_config(n_users=33, b_max=1.0)
        ex._user_realization.cache_clear()
        sweep = ex.run_sweep(cfg)
        draws = record_calls(monkeypatch, cm, "draw_block_fading")
        ex.run_adaptive_experiment(cfg, sweep=sweep)
        assert len(draws) == cfg.n_users

    def test_static_kappa_must_be_swept(self, tiny_sweep):
        cfg, result, _ = tiny_sweep
        with pytest.raises(ValueError):
            bad = tiny_config(static_kappa=0.9)
            ex.run_adaptive_experiment(bad, sweep=result)


class TestHeatmap:
    def test_grid_shapes(self, tmp_path):
        cfg = tiny_config()
        paths = ex.emit_csi_heatmap(cfg, 0.5, 30.0, 0, tmp_path)
        original = np.loadtxt(paths["original"], delimiter=",")
        recon = np.loadtxt(paths["reconstructed"], delimiter=",")
        latent = np.loadtxt(paths["latent"], delimiter=",")
        assert original.shape == (cfg.n_sc, cfg.n_t)
        assert recon.shape == (cfg.n_sc, cfg.n_t)
        width = 2 * cfg.n_r * cfg.n_t
        assert latent.shape == (codec.latent_dim(0.5, *cfg.dims) // width, width)

    def test_latent_crosses_the_wire(self, tmp_path, monkeypatch):
        """The grids show the latent as the receiver parses it, like every
        compressed sweep point."""
        cfg = tiny_config()
        received = record_calls(monkeypatch, codec, "deserialize")
        ex.emit_csi_heatmap(cfg, 0.5, 30.0, 0, tmp_path)
        assert len(received) == 1

    def test_trains_only_the_requested_ratio(self, tmp_path, monkeypatch):
        """The heatmap trains the one model it shows, and paired training makes
        that model the sweep's: the grids are those of the sweep's model."""
        cfg = tiny_config(kappas=(0.5, 0.7))
        model = ex.run_sweep(cfg).models[("CDL-E", 0.7)]
        trainings = record_calls(monkeypatch, codec, "train")
        paths = ex.emit_csi_heatmap(cfg, 0.7, 30.0, 0, tmp_path)
        assert len(trainings) == 1
        assert isinstance(trainings[0][1], codec.TrainSplit)

        h_est = ex._user_estimates(cfg, ex.resolve_profile(cfg.profiles[0]), 0, 0, 30.0)[1][0]
        latent = codec.deserialize(codec.serialize(codec.compress(model, h_est)))
        h_rec = codec.decompress(model, latent)
        expected = {
            "original": np.abs(h_est.data[:, 0, :]),
            "latent": np.abs(latent.values.astype(float)).reshape(-1, 2 * cfg.n_r * cfg.n_t),
            "reconstructed": np.abs(h_rec.data[:, 0, :]),
        }
        for label, grid in expected.items():
            assert np.array_equal(np.loadtxt(paths[label], delimiter=",", ndmin=2), grid), label

    @pytest.mark.parametrize("user", [-1, 2])
    def test_user_outside_range_rejected(self, user, tmp_path, monkeypatch):
        """An index past either end is refused before any training; -1 would
        otherwise grid user 0 of the run seeded one lower."""
        trainings = record_calls(monkeypatch, codec, "train")
        with pytest.raises(ValueError, match=r"\[0, 2\)"):
            ex.emit_csi_heatmap(tiny_config(), 0.5, 30.0, user, tmp_path)
        assert trainings == []

    def test_unknown_kappa_rejected(self, tmp_path):
        cfg = tiny_config()
        with pytest.raises(ValueError):
            ex.emit_csi_heatmap(cfg, 0.3, 30.0, 0, tmp_path)

    @pytest.mark.parametrize("rho", [math.nan, 4000.0])
    def test_snr_the_link_rejects_fails_before_training(self, rho, tmp_path, monkeypatch):
        trainings = record_calls(monkeypatch, codec, "train")
        with pytest.raises(ValueError, match="SNR must map to a positive finite"):
            ex.emit_csi_heatmap(tiny_config(), 0.5, rho, 0, tmp_path / "out")
        assert trainings == []
        assert not (tmp_path / "out").exists()


class TestEmitHistory:
    def test_rows_and_columns(self, tiny_sweep, tmp_path):
        cfg, result, _ = tiny_sweep
        path = tmp_path / "history.csv"
        ex.emit_history(result.histories[("CDL-E", 0.5)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 1 + cfg.train.epochs


class TestSeedStreams:
    def test_stream_seed_deterministic_and_distinct(self):
        a = np.random.default_rng(ex.stream_seed(1, 2, 3)).integers(0, 1 << 30, 4)
        b = np.random.default_rng(ex.stream_seed(1, 2, 3)).integers(0, 1 << 30, 4)
        c = np.random.default_rng(ex.stream_seed(1, 2, 4)).integers(0, 1 << 30, 4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_user_seed_offset_convention(self):
        cfg = tiny_config(master_seed=1000)
        assert cfg.user_seed(7) == 1007


class TestCli:
    def test_sweep_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        ex.save_config(tiny_config(), cfg_path)
        out = tmp_path / "results"
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()

    def test_heatmap_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        ex.save_config(tiny_config(), cfg_path)
        out = tmp_path / "grids"
        code = cli.main([
            "heatmap", "--config", str(cfg_path), "--out", str(out),
            "--kappa", "0.5", "--rho", "30", "--user", "0",
        ])
        assert code == 0
        assert (out / "heatmap_original.csv").exists()
        assert (out / "heatmap_latent.csv").exists()
        assert (out / "heatmap_reconstructed.csv").exists()

    def test_heatmap_has_no_threads_flag(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        ex.save_config(tiny_config(), cfg_path)
        with pytest.raises(SystemExit):
            cli.main([
                "heatmap", "--config", str(cfg_path), "--out", str(tmp_path / "grids"),
                "--kappa", "0.5", "--rho", "30", "--user", "0", "--threads", "2",
            ])

    def test_heatmap_user_outside_range_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        ex.save_config(tiny_config(), cfg_path)
        out = tmp_path / "grids"
        with pytest.raises(ValueError, match=r"user -1 .*\[0, 2\)"):
            cli.main([
                "heatmap", "--config", str(cfg_path), "--out", str(out),
                "--kappa", "0.5", "--rho", "30", "--user", "-1",
            ])
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("command", ["sweep", "adaptive"])
    def test_non_positive_threads_rejected(self, command, threads, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        ex.save_config(tiny_config(), cfg_path)
        with pytest.raises(SystemExit):
            cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--threads", threads])

    def test_adaptive_command(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        ex.save_config(tiny_config(), cfg_path)
        outs = {n: tmp_path / f"adaptive_{n}" for n in ("1", "2")}
        for n, out in outs.items():
            ex._user_realization.cache_clear()
            assert cli.main(["adaptive", "--config", str(cfg_path), "--out", str(out), "--threads", n]) == 0
        for name in ("adaptive.csv", "policy.csv"):
            assert (outs["1"] / name).read_bytes() == (outs["2"] / name).read_bytes()

    def test_seed_override_out_of_range_rejected(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        ex.save_config(tiny_config(), cfg_path)
        with pytest.raises(ValueError, match="64-bit"):
            cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--seed", str(2**64)])

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        ex.save_config(tiny_config(), cfg_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["sweep", "--config", str(cfg_path), "--out", str(out_a), "--seed", "42"])
        cli.main(["sweep", "--config", str(cfg_path), "--out", str(out_b), "--seed", "43"])
        assert (out_a / "sweep.csv").read_bytes() != (out_b / "sweep.csv").read_bytes()


# Cluster values that fail at load: not finite, a bool, a negative delay, and
# 1e305, whose power or delay phase overflows a float (as an angle it loads).
_REJECTED_VALUES = [math.nan, math.inf, -math.inf, True, -1e-9, 1e305]
_CLUSTER = st.fixed_dictionaries({
    "delay_s": st.floats(0.0, 1e-5),
    "power_db": st.floats(-40.0, 40.0),
    **{field: st.floats(-720.0, 720.0) for field in ("aod_az_deg", "aod_zen_deg", "aoa_az_deg", "aoa_zen_deg")},
})


@st.composite
def drawn_profiles(draw):
    """A profile file's contents: 1-4 clusters, and in about a quarter of the
    draws one value from _REJECTED_VALUES."""
    clusters = draw(st.lists(_CLUSTER, min_size=1, max_size=4))
    if draw(st.integers(0, 3)) == 0:
        record = draw(st.sampled_from(clusters))
        record[draw(st.sampled_from(sorted(record)))] = draw(st.sampled_from(_REJECTED_VALUES))
    # '/' and NUL cannot be part of a file name, so they must fail at load.
    return {"name": draw(st.text(alphabet="Ca-/É\0", max_size=4)), "clusters": clusters}


@st.composite
def small_experiments(draw):
    """The fields of a small ExperimentConfig, with 1-2 profiles of which some
    are drawn profile files, and the drawn files themselves by name. Some
    draws do not load."""
    files, profiles = {}, []
    for i in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            profiles.append(draw(st.sampled_from(["cdl_c", "cdl_e"])))
        else:
            files[f"drawn_{i}.json"] = draw(drawn_profiles())
            profiles.append(f"drawn_{i}.json")
    kappas = draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3, unique=True))
    fields = dict(
        profiles=profiles,
        n_sc=draw(st.integers(1, 12)),
        n_r=draw(st.integers(1, 3)),
        ura_rows=draw(st.integers(1, 3)),
        ura_cols=draw(st.integers(1, 3)),
        n_pilot=draw(st.integers(1, 12)),
        delta_f=draw(st.floats(1e-3, 1e9)),
        kappas=tuple(kappas),
        rhos=tuple(draw(st.lists(st.floats(-20.0, 90.0), min_size=1, max_size=3, unique=True))),
        n_users=draw(st.integers(1, 2)),
        payload_bits=draw(st.integers(1, 300)),
        n_blocks=draw(st.integers(1, 2)),
        train=ex.TrainSettings(
            epochs=draw(st.integers(1, 2)),
            batch_size=draw(st.integers(1, 8)),
            learning_rate=draw(st.floats(1e-4, 1e-2)),
            dataset_size=draw(st.integers(2, 8)),
            val_fraction=draw(st.sampled_from([0.0, 0.2, 0.5])),
        ),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        static_kappa=draw(st.sampled_from(kappas)),
        adaptive_profile=draw(st.one_of(st.none(), st.sampled_from(profiles))),
    )
    return fields, files


def load_drawn(case, directory):
    """The drawn config with its profile files written to ``directory``, or
    None when it does not load."""
    fields, files = case
    for name, raw in files.items():
        (directory / name).write_text(json.dumps(raw))
    place = {name: str(directory / name) for name in files}
    fields = {
        **fields,
        "profiles": tuple(place.get(p, p) for p in fields["profiles"]),
        "adaptive_profile": place.get(fields["adaptive_profile"], fields["adaptive_profile"]),
    }
    try:
        return ex.ExperimentConfig(**fields)
    except ValueError:
        return None


# Shrinking reruns a sweep at every step, which took minutes to report a
# failure that the unshrunk example shows in seconds.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


class TestLoadedConfigsRun:
    """The converse of failing at load: every config and profile that loads
    runs the sweep, the adaptive experiment and the heatmap."""

    @settings(max_examples=300, phases=NO_SHRINK)
    @given(case=small_experiments())
    def test_a_config_that_loads_also_runs(self, tmp_path_factory, case):
        out = tmp_path_factory.mktemp("drawn")
        cfg = load_drawn(case, out)
        if cfg is None:
            return
        sweep = ex.run_sweep(cfg, out_dir=out)
        ex.run_adaptive_experiment(cfg, out_dir=out, sweep=sweep)
        ex.emit_csi_heatmap(cfg, cfg.kappas[-1], cfg.rhos[0], cfg.n_users - 1, out)

    @settings(max_examples=4, phases=NO_SHRINK)
    @given(case=small_experiments())
    def test_threads_give_serial_rows(self, tmp_path_factory, case):
        out = tmp_path_factory.mktemp("drawn")
        cfg = load_drawn(case, out)
        assume(cfg is not None)
        for threads in (1, 2):
            ex.run_sweep(cfg, out_dir=out / str(threads), threads=threads)
        assert (out / "1" / "sweep.csv").read_bytes() == (out / "2" / "sweep.csv").read_bytes()
