"""Desk-scale workloads, their output checks and the layer wiring for the
tracer.

Every workload keeps the desk dimensions (128 subcarriers, 4 receive
antennas, 4x4 transmit URA, 2 blocks, 2e5 payload bits per point) and draws
all of its inputs from the master seed it is given. A workload is a set-up
step plus one fixed job (a *repetition*) that the runner repeats; every
repetition of a run must produce the same result rows.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from csilink import adaptive as ad
from csilink import chanmodel as cm
from csilink import codec
from csilink import expsuite as es
from csilink import phylink as pl

# Training block for the codecs that desk-eval and desk-adaptive train during
# set-up: real (if weak) models at a set-up cost well below the measured time.
SETUP_TRAIN = es.TrainSettings(epochs=2, dataset_size=64)
# desk-train trains at the desk dataset size and batch size for a fixed,
# short number of epochs.
DESK_TRAIN = es.TrainSettings(epochs=2, dataset_size=512)


def desk_config(seed: int, **overrides) -> es.ExperimentConfig:
    return replace(es.ExperimentConfig(), master_seed=seed, **overrides)


@dataclass
class Repetition:
    """Outcome of one repetition of a workload's job."""

    rows: list  # deterministic result rows, the digest input
    failed: int  # rows that failed a check
    seconds: float = 0.0
    item_seconds: list[float] = field(default_factory=list)  # desk-eval: per point
    values: dict = field(default_factory=dict)  # numbers the metrics are built from


def digest(rows) -> str:
    """SHA-256 of the canonical JSON text of result rows (floats as repr)."""
    text = json.dumps(rows, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def model_digest(model: codec.AutoencoderModel) -> str:
    h = hashlib.sha256()
    for p in model.params():
        h.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
    h.update(repr((model.norm_min, model.norm_max, model.kappa)).encode())
    return h.hexdigest()


def _finite_rate(x) -> bool:
    return isinstance(x, float) and math.isfinite(x) and 0.0 <= x <= 1.0


def expected_totals(cfg: es.ExperimentConfig) -> tuple[int, int]:
    """(bits_total, blocks_total) that framing one user's payload must give:
    each block's share of the payload is cut into codewords of 4*n_sc minus
    the CRC degree bits, padded up to whole OFDM symbol periods."""
    link = cfg.link_config(cfg.rhos[0])
    l_cw = 4 * cfg.n_sc - (len(link.crc_poly) - 1)
    n_s = min(cfg.n_t, cfg.n_r)
    bits = blocks = 0
    for share in np.array_split(np.zeros(cfg.payload_bits), cfg.n_blocks):
        n_cw = math.ceil(max(1, math.ceil(share.size / l_cw)) / n_s) * n_s
        bits += n_cw * l_cw
        blocks += n_cw
    return bits, blocks


def point_ok(cfg, counts, recon_mse: float, compressed: bool) -> bool:
    """Counts consistent with the framing, rates finite and in [0, 1], and a
    reconstruction error exactly where the codec ran."""
    bits, blocks = expected_totals(cfg)
    return (
        counts.bits_total == bits
        and counts.blocks_total == blocks
        and 0 <= counts.bit_errors <= counts.bits_total
        and 0 <= counts.block_errors <= counts.blocks_total
        and _finite_rate(counts.ber)
        and _finite_rate(counts.bler)
        and math.isfinite(recon_mse)
        and (recon_mse > 0.0 if compressed else recon_mse == 0.0)
    )


def _mean_final_val_loss(histories) -> float:
    return float(np.mean([h.val_loss[-1] for h in histories]))


def _train_codecs(cfg, profiles):
    return {
        (pidx, kappa): bundle
        for pidx, profile in enumerate(profiles)
        for kappa, bundle in es.train_codec_family(cfg, profile, pidx).items()
    }


class DeskEval:
    """The sweep's evaluation phase: both profiles, the uncompressed baseline
    and the three ratios, all seven SNRs, one user per repetition."""

    name = "desk-eval"
    users = 1
    min_points = 100  # timed points per run, so that ten lie beyond p90

    def setup(self, seed: int):
        cfg = desk_config(seed, train=SETUP_TRAIN)
        profiles = [es.resolve_profile(p) for p in cfg.profiles]
        bundles = _train_codecs(cfg, profiles)
        return cfg, profiles, bundles

    def state_digest(self, state) -> str:
        _, _, bundles = state
        return digest([[k, model_digest(b.model)] for k, b in sorted(bundles.items())])

    def items(self, state) -> int:
        cfg, profiles, _ = state
        return len(profiles) * (1 + len(cfg.kappas)) * len(cfg.rhos) * self.users

    def figures(self, state, reps) -> dict:
        """result_error plus this workload's own figures, as (value, unit)."""
        _, _, bundles = state
        times = [t for r in reps for t in r.item_seconds]
        seconds = sum(r.seconds for r in reps)
        values = reps[0].values
        return {
            "result_error": (values["bler_mean"], "1"),
            "points": (len(times), "count"),
            "points_per_s": (len(times) / seconds, "1/s"),
            "point_ms_p50": (1e3 * statistics.median(times), "ms"),
            "point_ms_p90": (1e3 * statistics.quantiles(times, n=10, method="inclusive")[8], "ms"),
            "bler_mean": (values["bler_mean"], "1"),
            "recon_mse_mean": (values["recon_mse_mean"], "1"),
            "final_val_loss": (_mean_final_val_loss(b.history for b in bundles.values()), "mse"),
        }

    def run(self, state) -> Repetition:
        cfg, profiles, bundles = state
        rows, times, blers, mses, failed = [], [], [], [], 0
        for pidx, profile in enumerate(profiles):
            for kappa in (0.0, *cfg.kappas):
                bundle = bundles.get((pidx, kappa))
                model = bundle.model if bundle is not None else None
                for rho in cfg.rhos:
                    for user in range(self.users):
                        t0 = time.perf_counter()
                        counts, recon_mse, _ = es.evaluate_point(cfg, profile, pidx, model, rho, user)
                        times.append(time.perf_counter() - t0)
                        failed += not point_ok(cfg, counts, recon_mse, model is not None)
                        blers.append(counts.bler)
                        if model is not None:
                            mses.append(recon_mse)
                        rows.append(
                            [profile.name, kappa, rho, cfg.user_seed(user), counts.bit_errors,
                             counts.bits_total, counts.block_errors, counts.blocks_total, recon_mse]
                        )
        values = {"bler_mean": float(np.mean(blers)), "recon_mse_mean": float(np.mean(mses))}
        return Repetition(rows=rows, failed=failed, item_seconds=times, values=values)


class DeskTrain:
    """train_codec_family on one profile at the desk dataset and batch size."""

    name = "desk-train"
    profile = "cdl_c"
    min_points = 0

    def setup(self, seed: int):
        cfg = desk_config(seed, profiles=(self.profile,), train=DESK_TRAIN)
        profile = es.resolve_profile(self.profile)
        # Warm-up family on a small training block so lazy library set-up
        # (BLAS buffers, first-call paths) finishes before timing.
        warm = es.train_codec_family(replace(cfg, train=SETUP_TRAIN), profile, 0)
        return cfg, profile, warm

    def state_digest(self, state) -> str:
        _, _, warm = state
        return digest([[k, model_digest(b.model)] for k, b in sorted(warm.items())])

    def items(self, state) -> int:
        cfg, _, _ = state
        return len(cfg.kappas)

    def figures(self, state, reps) -> dict:
        epochs = [e for r in reps for e in r.values["epoch_s"]]
        values = reps[0].values
        return {
            "result_error": (values["val_mse"], "1"),
            "epochs_timed": (len(epochs), "count"),
            "epoch_s_p50": (statistics.median(epochs), "s"),
            "train_samples_per_s": (sum(r.values["samples"] for r in reps) / sum(r.seconds for r in reps), "1/s"),
            "final_val_loss": (values["val_loss_final"], "mse"),
        }

    def run(self, state) -> Repetition:
        cfg, profile, _ = state
        bundles = es.train_codec_family(cfg, profile, 0)
        rows, failed, epoch_s = [], 0, []
        for kappa, b in bundles.items():
            h = b.history
            curve = h.train_loss + h.val_loss
            ok = (
                h.epochs == cfg.train.epochs
                and len(h.val_loss) == cfg.train.epochs
                and all(math.isfinite(x) and x >= 0.0 for x in curve)
                and all(np.isfinite(p).all() for p in b.model.params())
            )
            failed += not ok
            epoch_s.append(h.duration_s / h.epochs)
            rows.append([kappa, h.train_loss, h.val_loss, model_digest(b.model)])
        n_val = int(round(cfg.train.val_fraction * cfg.train.dataset_size))
        values = {
            "epoch_s": epoch_s,
            "samples": (cfg.train.dataset_size - n_val) * cfg.train.epochs * len(bundles),
            "val_loss_final": _mean_final_val_loss(b.history for b in bundles.values()),
            # The loss is taken on min-max normalized vectors; scaling by the
            # squared range gives the validation MSE in channel units, which
            # does not swing with the extremes of each seed's training set.
            "val_mse": float(np.mean([
                b.history.val_loss[-1] * (b.model.norm_max - b.model.norm_min) ** 2 for b in bundles.values()
            ])),
        }
        return Repetition(rows=rows, failed=failed, values=values)


class DeskAdaptive:
    """run_adaptive_experiment on the LOS profile, on a sweep built in set-up."""

    name = "desk-adaptive"
    min_points = 0

    def setup(self, seed: int):
        cfg = desk_config(seed, profiles=("cdl_e",), n_users=1, train=SETUP_TRAIN)
        return cfg, es.run_sweep(cfg)

    def state_digest(self, state) -> str:
        _, sweep = state
        models = [[k, model_digest(m)] for k, m in sorted(sweep.models.items())]
        return digest([sweep.rows, models])

    def items(self, state) -> int:
        cfg, _ = state
        return len(cfg.rhos)

    def figures(self, state, reps) -> dict:
        cfg, sweep = state
        # evaluate_point calls per repetition: three traces per SNR and user.
        points = 3 * len(cfg.rhos) * cfg.n_users * len(reps)
        bler = reps[0].values["bler_mean"]
        return {
            "result_error": (bler, "1"),
            "points": (points, "count"),
            "points_per_s": (points / sum(r.seconds for r in reps), "1/s"),
            "bler_mean": (bler, "1"),
            "final_val_loss": (_mean_final_val_loss(sweep.histories.values()), "mse"),
        }

    def run(self, state) -> Repetition:
        cfg, sweep = state
        rows, table = es.run_adaptive_experiment(cfg, sweep=sweep)
        failed, blers = 0, []
        choices = {ad.NO_COMPRESSION, *cfg.kappas}
        for rho, row in zip(cfg.rhos, rows):
            rates = [row[k] for k in ("bler_adaptive", "bler_static", "bler_uncompressed")]
            errs = [row[k] for k in ("bler_adaptive_stderr", "bler_static_stderr", "bler_uncompressed_stderr")]
            # The three traces see paired realizations, so the adaptive trace
            # must repeat the trace whose ratio it picked.
            same = {ad.NO_COMPRESSION: "bler_uncompressed", cfg.static_kappa: "bler_static"}.get(row["kappa_star"])
            ok = (
                row["rho_db"] == rho
                and row["kappa_star"] in choices
                and all(_finite_rate(x) for x in rates)
                and all(math.isfinite(e) and e >= 0.0 for e in errs)
                and (same is None or row["bler_adaptive"] == row[same])
            )
            failed += not ok
            blers.extend(rates)
        failed += len(rows) != len(cfg.rhos)
        entries = [[e.bucket_low_db, e.bucket_high_db, e.kappa, e.measured_bler] for e in table.entries]
        out_rows = [[row[c] for c in es.ADAPTIVE_COLUMNS] for row in rows] + entries
        return Repetition(rows=out_rows, failed=failed, values={"bler_mean": float(np.mean(blers))})


WORKLOADS = {w.name: w for w in (DeskEval(), DeskTrain(), DeskAdaptive())}


# -- layer wiring for the tracer --------------------------------------------

_ADAPTIVE_SCOPE = ("expsuite.run_adaptive_experiment", "expsuite.run_sweep")


def _seed_key(seed):
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        return (tuple(entropy) if isinstance(entropy, (list, tuple)) else entropy, tuple(seed.spawn_key))
    return repr(seed)


def _realizations(tracer, a, blocks):
    tracer.counts["chanmodel.synth_calls"] += 1
    geometry = (a["profile"].name, a["tx"].rows, a["tx"].cols, a["n_r"], a["n_sc"], a["delta_f"])
    tracer.keys["chanmodel.draws"].extend((geometry, _seed_key(a["seed"]), b) for b in blocks)


def _on_draw_block_fading(tracer, a):
    _realizations(tracer, a, range(a["n_blocks"]))


def _on_synthesize_csi(tracer, a):
    _realizations(tracer, a, (0,))  # block 0 of draw_block_fading for that seed


def _on_evaluate_point(tracer, a):
    tracer.counts["expsuite.points"] += 1
    if tracer.enclosing(_ADAPTIVE_SCOPE) == "expsuite.run_adaptive_experiment":
        model = a["model"]
        kappa = ad.NO_COMPRESSION if model is None else model.kappa
        key = (a["cfg"].master_seed, a["profile"].name, kappa, a["rho_db"], a["user"], a["seed_domain"])
        tracer.counts["adaptive.evaluations"] += 1
        tracer.keys["adaptive.evaluations"].append(key)


def _counter(name):
    def on_call(tracer, _):
        tracer.counts[name] += 1

    return on_call


# (module, attribute, stage, leaf, on_call). Calls made inside a leaf are
# charged to it; containers let the calls they make open their own spans.
LAYERS = (
    (es, "run_sweep", "expsuite", False, None),
    (es, "run_adaptive_experiment", "expsuite", False, None),
    (es, "train_codec_family", "expsuite", False, None),
    (es, "build_training_set", "expsuite", False, None),
    (es, "evaluate_point", "expsuite", False, _on_evaluate_point),
    (cm, "draw_block_fading", "chanmodel.synth", True, _on_draw_block_fading),
    (cm, "synthesize_csi", "chanmodel.synth", True, _on_synthesize_csi),
    (pl, "generate_pilots", "phylink.pilot_ls", True, None),
    (pl, "observe_pilots", "phylink.pilot_ls", True, None),
    (pl, "ls_estimate", "phylink.pilot_ls", True, None),
    (pl, "run_link_once", "phylink.equalize", False, _counter("phylink.link_calls")),
    (pl, "svd_precoder", "phylink.precode", False, None),
    (pl, "waterfill", "phylink.waterfill", True, _counter("phylink.waterfill_calls")),
    (pl, "frame_codewords", "phylink.frame_mod", True, None),
    (pl, "crc_remainder_many", "phylink.frame_mod", True, None),
    (pl, "qam16_modulate", "phylink.frame_mod", True, None),
    (pl, "qam16_detect", "phylink.detect_crc", True, None),
    (pl, "crc_check_many", "phylink.detect_crc", True, None),
    (codec, "compress", "codec.infer", True, _counter("codec.infer_calls")),
    (codec, "decompress", "codec.infer", True, _counter("codec.infer_calls")),
    (codec, "train", "codec.train_self", False, None),
    (codec, "backprop", "codec.backprop", True, _counter("codec.batches")),
    (codec, "adam_step", "codec.adam", True, None),
    (ad, "build_dataset", "adaptive.policy", True, None),
    (ad, "policy_table", "adaptive.policy", True, None),
    (ad, "run_adaptive", "adaptive.policy", False, None),
    (ad, "export_policy_csv", "adaptive.policy", True, None),
)

STAGE_METRICS = {
    "chanmodel.synth": "chanmodel.synth_s",
    "phylink.pilot_ls": "phylink.pilot_ls_s",
    "phylink.precode": "phylink.precode_s",
    "phylink.waterfill": "phylink.waterfill_s",
    "phylink.equalize": "phylink.equalize_s",
    "phylink.frame_mod": "phylink.frame_mod_s",
    "phylink.detect_crc": "phylink.detect_crc_s",
    "codec.infer": "codec.infer_s",
    "codec.backprop": "codec.backprop_s",
    "codec.adam": "codec.adam_s",
    "codec.train_self": "codec.train_self_s",
    "adaptive.policy": "adaptive.policy_s",
    "expsuite": "expsuite.self_s",
}
COUNT_METRICS = (
    "chanmodel.synth_calls",
    "phylink.waterfill_calls",
    "phylink.link_calls",
    "codec.infer_calls",
    "codec.batches",
    "adaptive.evaluations",
    "expsuite.points",
)


def install_layers(tracer):
    for module, attr, stage, leaf, on_call in LAYERS:
        tracer.wrap(module, attr, stage, leaf=leaf, on_call=on_call)


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer self times, counts and wasted-work ratios of what the tracer
    recorded."""
    self_s = tracer.self_times()
    out = {metric: self_s.get(stage, 0.0) for stage, metric in STAGE_METRICS.items()}
    out.update({name: float(tracer.counts[name]) for name in COUNT_METRICS})
    out["chanmodel.unique_draw_frac"] = tracer.unique_frac("chanmodel.draws")
    out["adaptive.unique_eval_frac"] = tracer.unique_frac("adaptive.evaluations")
    return out
