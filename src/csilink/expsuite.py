"""Experiment harness: seeded sweeps over (channel, ratio, SNR, user), the
adaptive-policy experiment, and CSV emission.

Every random draw flows from the 64-bit master seed through named
SeedSequence-derived streams, so a rerun with the same config file and seed
reproduces results byte-for-byte. Wall-clock seconds go to a separate timing
CSV, one row per (profile, ratio) group, to keep the result files deterministic.

A user's block channels, payload and per-SNR LS estimates depend on neither
the ratio nor the trace, so the last 32 (profile, user) realizations used in
a process are cached with their estimates and shared read-only by the
baseline, every ratio, every adaptive trace and the heatmap. Each
realization also keeps its transmitted blocks (codewords, symbols and unit
link noise) per noise stream: the sweep's blocks serve every ratio and SNR,
and the adaptive traces' blocks every (ratio, SNR) pair they evaluate.
Sharing changes no result byte: a cache miss redraws the same values from
the same streams.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import adaptive as ad
from . import codec
from . import chanmodel as cm
from . import phylink as pl
from .metrics import ErrorCounts, merge

MASK64 = (1 << 64) - 1

# Stream tags for seed derivation; one per independent randomness domain.
_CHANNEL, _PILOT, _PILOT_NOISE, _NOISE, _PAYLOAD, _TRAIN_DATA, _INIT, _ADAPT = range(101, 109)

SWEEP_COLUMNS = (
    "profile",
    "ura",
    "kappa",
    "rho_db",
    "user_seed",
    "ber",
    "ber_stderr",
    "bler",
    "bler_stderr",
    "recon_mse",
)
TIMING_COLUMNS = ("profile", "ura", "kappa", "train_seconds", "codec_seconds", "eval_seconds")
ADAPTIVE_COLUMNS = (
    "rho_db",
    "kappa_star",
    "bler_adaptive",
    "bler_adaptive_stderr",
    "bler_static",
    "bler_static_stderr",
    "bler_uncompressed",
    "bler_uncompressed_stderr",
)


def stream_seed(*parts) -> np.random.SeedSequence:
    """Named random stream: a SeedSequence keyed by non-negative integers."""
    return np.random.SeedSequence([int(p) & MASK64 for p in parts])


# What each declared field type accepts. JSON spells 2e5 and 2.0 as floats,
# a quoted "false" is a truthy string, and true passes as 1 in arithmetic:
# unchecked, each would mislead a run or fail deep in a sweep.
_FIELD_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    "float": ("a real number", cm._is_real),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "tuple[str, ...]": ("a tuple of strings", lambda v: isinstance(v, tuple) and all(isinstance(x, str) for x in v)),
    "tuple[float, ...]": ("a tuple of real numbers", lambda v: isinstance(v, tuple) and all(map(cm._is_real, v))),
    "TrainSettings": ("a train block", lambda v: isinstance(v, TrainSettings)),
}


def _check_field_types(settings) -> None:
    """Reject a value of the wrong type in any field, naming the field."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        kind, accepts = _FIELD_TYPES[f.type]
        if not accepts(value):
            raise ValueError(f"{f.name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class TrainSettings:
    epochs: int = 64
    batch_size: int = 128
    learning_rate: float = 1e-4
    dataset_size: int = 512
    val_fraction: float = 0.2

    def __post_init__(self):
        _check_field_types(self)
        if self.epochs < 1 or self.batch_size < 1 or self.dataset_size < 1:
            raise ValueError("epochs, batch_size and dataset_size must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        codec._validation_rows(self.val_fraction, self.dataset_size)


@dataclass(frozen=True)
class ExperimentConfig:
    profiles: tuple[str, ...] = ("cdl_e", "cdl_c")
    n_sc: int = 128
    n_r: int = 4
    ura_rows: int = 4
    ura_cols: int = 4
    n_pilot: int = 64
    delta_f: float = 15e3
    kappas: tuple[float, ...] = (0.1, 0.5, 0.7)
    rhos: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    n_users: int = 10
    payload_bits: int = 200_000
    n_blocks: int = 2
    train: TrainSettings = field(default_factory=TrainSettings)
    b_max: float = 0.1
    master_seed: int = 555
    static_kappa: float = 0.5
    adaptive_profile: str | None = None

    def __post_init__(self):
        """Every check a run depends on, so that a bad config fails when it is
        built or loaded rather than after codec training. Where a library
        object owns a rule (the array geometry, the link dimensions and SNR,
        the latent width of each ratio, the profile files and their cluster
        terms with the subcarrier spacing), the check builds that object."""
        _check_field_types(self)
        if not self.profiles:
            raise ValueError("need at least one channel profile")
        if not self.rhos:
            raise ValueError("need at least one SNR point")
        if self.n_users < 1:
            raise ValueError("need at least one user")
        if self.n_blocks < 1:
            raise ValueError("need at least one fading block")
        if self.payload_bits < self.n_blocks:
            raise ValueError("payload_bits must be at least n_blocks, one bit per fading block")
        self.ura
        for rho in self.rhos:
            pl.noise_var_from_snr(self.link_config(rho))
        if self.n_pilot < self.n_t:
            raise ValueError("need n_pilot >= n_t for least-squares estimation")
        for k in self.kappas:
            codec.latent_dim(k, *self.dims)
        if len(set(self.kappas)) != len(self.kappas):
            raise ValueError(f"compression ratios must be unique, got {self.kappas}")
        if len(set(self.rhos)) != len(self.rhos):
            raise ValueError(f"SNR points must be unique, got {self.rhos}")
        if self.static_kappa not in self.kappas:
            raise ValueError("static_kappa must be one of the swept ratios")
        # Profiles are compared by display name, so 'cdl_c', 'CDL-C' and a
        # path to the same file all name one profile.
        profiles = [resolve_profile(p) for p in self.profiles]
        for profile in profiles:
            cm._cluster_terms(profile, self.ura, self.n_r, self.n_sc, self.delta_f)
        names = [p.name for p in profiles]
        if len(set(names)) != len(names):
            raise ValueError(f"profiles must be unique, got {self.profiles}, which name {names}")
        if self.adaptive_profile is not None and resolve_profile(self.adaptive_profile).name not in names:
            raise ValueError(f"adaptive profile {self.adaptive_profile!r} is not one of {names}")
        if not 0.0 <= self.b_max <= 1.0:
            raise ValueError(f"b_max must be a BLER ceiling in [0, 1], got {self.b_max}")
        if not 0 <= self.master_seed <= MASK64:
            raise ValueError("master seed must be a non-negative 64-bit integer")

    @property
    def n_t(self) -> int:
        return self.ura.n_elements

    @property
    def ura(self) -> cm.UraGeometry:
        return cm.UraGeometry(self.ura_rows, self.ura_cols)

    @property
    def ura_label(self) -> str:
        return f"{self.ura_rows}x{self.ura_cols}"

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.n_sc, self.n_r, self.n_t)

    def link_config(self, rho_db: float) -> pl.LinkConfig:
        return pl.LinkConfig(
            n_t=self.n_t,
            n_r=self.n_r,
            n_sc=self.n_sc,
            snr_db=rho_db,
        )

    def user_seed(self, v: int) -> int:
        return (self.master_seed + v) & MASK64


def resolve_profile(name_or_path: str) -> cm.CdlProfile:
    """Load a profile from a filesystem path or, failing that, from the
    profiles bundled with the package ('cdl_c', 'CDL-E', ...)."""
    if os.path.exists(name_or_path):
        return cm.load_cdl_profile(name_or_path)
    return cm.load_cdl_profile(cm.shipped_profile_path(name_or_path))


def load_config(path) -> ExperimentConfig:
    """Read an ExperimentConfig from a JSON file. Unknown keys and values of
    the wrong JSON type (the file, ``train``, or a list field) are rejected."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("a config file must hold a JSON object")
    train_raw = raw.pop("train", {})
    if not isinstance(train_raw, dict):
        raise ValueError("train must be a JSON object")
    unknown = set(raw) - set(ExperimentConfig.__dataclass_fields__)
    unknown |= {f"train.{k}" for k in set(train_raw) - set(TrainSettings.__dataclass_fields__)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in ("profiles", "kappas", "rhos"):
        if key in raw:
            if not isinstance(raw[key], list):
                raise ValueError(f"{key} must be a JSON array")
            raw[key] = tuple(raw[key])
    return ExperimentConfig(train=TrainSettings(**train_raw), **raw)


def save_config(cfg: ExperimentConfig, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(cfg), fh, indent=2)
        fh.write("\n")


@dataclass
class CodecBundle:
    model: codec.AutoencoderModel
    history: codec.TrainHistory


@dataclass
class SweepResult:
    rows: list[dict]
    timing: list[dict]
    histories: dict[tuple[str, float], codec.TrainHistory]
    models: dict[tuple[str, float], codec.AutoencoderModel]


class _TrainingSamples:
    """A profile's training set as an indexable: item ``i`` synthesizes
    sample ``i`` on its own seed and realifies it, so the set is only ever
    held as the split built from it."""

    def __init__(self, cfg: ExperimentConfig, profile: cm.CdlProfile, profile_idx: int):
        self.cfg, self.profile, self.profile_idx = cfg, profile, profile_idx

    def __len__(self) -> int:
        return self.cfg.train.dataset_size

    def __getitem__(self, i) -> np.ndarray:
        cfg = self.cfg
        h = cm.synthesize_csi(
            self.profile,
            cfg.ura,
            cfg.n_r,
            cfg.n_sc,
            cfg.delta_f,
            stream_seed(cfg.master_seed, _TRAIN_DATA, self.profile_idx, i),
        )
        return codec.realify(codec.vectorize_csi(h))


def build_training_set(cfg: ExperimentConfig, profile: cm.CdlProfile, profile_idx: int) -> codec.TrainSplit:
    """A profile's training set of realified CSI drawn across pseudo-users,
    split and normalized. Each sample is synthesized straight into its row
    of the split, so no raw copy of the set exists."""
    return codec.split_dataset(
        _TrainingSamples(cfg, profile, profile_idx),
        seed=stream_seed(cfg.master_seed, _INIT, profile_idx, 1),
        val_fraction=cfg.train.val_fraction,
    )


def train_codec_family(cfg: ExperimentConfig, profile: cm.CdlProfile, profile_idx: int) -> dict[float, CodecBundle]:
    """One trained model per compression ratio, all on one training split."""
    split = build_training_set(cfg, profile, profile_idx)
    return {kappa: _train_codec(cfg, split, profile_idx, kappa) for kappa in cfg.kappas}


def _train_codec(cfg: ExperimentConfig, split: codec.TrainSplit, profile_idx: int, kappa: float) -> CodecBundle:
    """The model for ``kappa`` on a profile's training split. The ratios share
    the init seed and the split's shuffles (paired training), so their models
    differ only in latent width, free of initialization luck."""
    model = codec.ae_init(
        kappa,
        cfg.dims,
        stream_seed(cfg.master_seed, _INIT, profile_idx),
        kappa_index=cfg.kappas.index(kappa),
    )
    model, history = codec.train(
        model,
        split,
        epochs=cfg.train.epochs,
        batch_size=cfg.train.batch_size,
        learning_rate=cfg.train.learning_rate,
    )
    return CodecBundle(model=model, history=history)


@dataclass(frozen=True)
class _Realization:
    """One user's per-block (true channel, payload share) pairs, the LS
    estimates of those channels per SNR and the transmitted blocks per
    link-noise stream, both filled in on first use."""

    blocks: tuple[tuple[cm.ChannelTensor, np.ndarray], ...]
    estimates: dict[float, tuple[cm.ChannelTensor, ...]] = field(default_factory=dict)
    transmissions: dict[int, tuple[pl.TxBlock, ...]] = field(default_factory=dict)


@functools.lru_cache(maxsize=32)
def _user_realization(cfg: ExperimentConfig, profile: cm.CdlProfile, profile_idx: int, user: int) -> _Realization:
    """One user's realization. It does not depend on the ratio or the SNR, so
    it is drawn once per cache entry and shared read-only by every point and
    the heatmap; its estimates live exactly as long as it does."""
    rng = np.random.default_rng(stream_seed(cfg.user_seed(user), _PAYLOAD))
    payload = rng.integers(0, 2, size=cfg.payload_bits, dtype=np.uint8)
    payload.flags.writeable = False
    channels = cm.draw_block_fading(
        profile,
        cfg.ura,
        cfg.n_r,
        cfg.n_sc,
        cfg.delta_f,
        stream_seed(cfg.user_seed(user), _CHANNEL, profile_idx),
        cfg.n_blocks,
    )
    for h in channels:
        h.data.flags.writeable = False
    return _Realization(tuple(zip(channels, np.array_split(payload, cfg.n_blocks))))


def _user_estimates(
    cfg: ExperimentConfig, profile: cm.CdlProfile, profile_idx: int, user: int, rho_db: float
) -> tuple[_Realization, tuple[cm.ChannelTensor, ...]]:
    """A user's realization and its per-block LS estimates at ``rho_db``, from
    the user's pilot and pilot-noise streams: the one path from a true channel
    to an estimate. The pilot streams do not depend on the ratio, so the
    baseline, every ratio, every adaptive trace and the heatmap read one
    read-only estimate."""
    realization = _user_realization(cfg, profile, profile_idx, user)
    estimates = realization.estimates.get(rho_db)
    if estimates is None:
        noise_var = pl.noise_var_from_snr(cfg.link_config(rho_db))
        user_seed = cfg.user_seed(user)
        estimates = []
        for block, (h_true, _) in enumerate(realization.blocks):
            pilots = pl.generate_pilots(cfg.n_pilot, cfg.n_t, stream_seed(user_seed, _PILOT, profile_idx, block))
            y = pl.observe_pilots(h_true, pilots, noise_var, stream_seed(user_seed, _PILOT_NOISE, profile_idx, block))
            h_est = pl.ls_estimate(pilots, y)
            h_est.data.flags.writeable = False
            estimates.append(h_est)
        estimates = realization.estimates[rho_db] = tuple(estimates)
    return realization, estimates


def _user_transmissions(
    cfg: ExperimentConfig, realization: _Realization, profile_idx: int, user: int, seed_domain: int
) -> tuple[pl.TxBlock, ...]:
    """A realization's per-block transmitted blocks for the link-noise stream
    ``seed_domain``. Framing, modulation and the unit noise depend on neither
    the ratio nor the SNR, so every point of the stream reads one read-only
    block."""
    blocks = realization.transmissions.get(seed_domain)
    if blocks is None:
        link_cfg = cfg.link_config(cfg.rhos[0])  # framing is the same at every SNR
        user_seed = cfg.user_seed(user)
        blocks = realization.transmissions[seed_domain] = tuple(
            pl.transmit_block(payload, link_cfg, stream_seed(user_seed, seed_domain, profile_idx, block))
            for block, (_, payload) in enumerate(realization.blocks)
        )
    return blocks


def evaluate_point(
    cfg: ExperimentConfig,
    profile: cm.CdlProfile,
    profile_idx: int,
    model: codec.AutoencoderModel | None,
    rho_db: float,
    user: int,
    seed_domain: int = _NOISE,
) -> tuple[ErrorCounts, float, float]:
    """Run the chain for one (profile, ratio, SNR, user) point.

    Channel, payload and unit-noise streams do not depend on the ratio or the
    SNR, so points are paired across both and read the realization's cached
    estimates and transmitted blocks. A compressed point sends each block's
    latent through the wire format, as the user's feedback would travel.
    Returns the merged error counts, the mean reconstruction MSE (0 for the
    uncompressed baseline) and the seconds spent in the codec.
    """
    link_cfg = cfg.link_config(rho_db)
    realization, estimates = _user_estimates(cfg, profile, profile_idx, user, rho_db)
    transmissions = _user_transmissions(cfg, realization, profile_idx, user, seed_domain)

    counts = ErrorCounts()
    mse_sum = 0.0
    codec_seconds = 0.0
    for (h_true, _), h_est, tx in zip(realization.blocks, estimates, transmissions):
        if model is None:
            h_rec = h_est
        else:
            start = time.perf_counter()
            h_rec = codec.decompress(model, codec.deserialize(codec.serialize(codec.compress(model, h_est))))
            codec_seconds += time.perf_counter() - start
            mse_sum += codec.mse_loss(
                codec.realify(codec.vectorize_csi(h_est)),
                codec.realify(codec.vectorize_csi(h_rec)),
                cfg.dims,
            )
        counts = merge(counts, pl.run_link_once(tx, h_true, h_rec, link_cfg).counts)
    return counts, mse_sum / cfg.n_blocks, codec_seconds


def _sweep_group(args):
    """All (rho, user) points for one (profile, kappa) and its sweep_timing.csv
    row; runs in a worker. ``bundle`` is None for the uncompressed baseline.

    Users are the outer loop, so each user's realization is used for every
    SNR while it is cached, whatever the number of users; the rows keep the
    SNR-major order of sweep.csv."""
    cfg, profile, profile_idx, kappa, bundle = args
    model = bundle.model if bundle is not None else None
    head = {"profile": profile.name, "ura": cfg.ura_label, "kappa": float(kappa)}
    rows = [None] * (len(cfg.rhos) * cfg.n_users)
    codec_seconds = 0.0
    start = time.perf_counter()
    for user in range(cfg.n_users):
        for i_rho, rho in enumerate(cfg.rhos):
            counts, recon_mse, csec = evaluate_point(cfg, profile, profile_idx, model, rho, user)
            codec_seconds += csec
            rows[i_rho * cfg.n_users + user] = {
                **head,
                "rho_db": float(rho),
                "user_seed": cfg.user_seed(user),
                "ber": counts.ber,
                "ber_stderr": counts.ber_stderr,
                "bler": counts.bler,
                "bler_stderr": counts.bler_stderr,
                "recon_mse": recon_mse,
            }
    timing = {
        **head,
        "train_seconds": bundle.history.duration_s if bundle is not None else 0.0,
        "codec_seconds": codec_seconds,
        "eval_seconds": time.perf_counter() - start,
    }
    return rows, timing


def run_sweep(cfg: ExperimentConfig, out_dir=None, threads: int = 1) -> SweepResult:
    """Static-ratio sweep over (profile, ratio incl. the uncompressed
    baseline, SNR, user). Fully deterministic given the master seed."""
    if threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads}")
    profiles = [resolve_profile(p) for p in cfg.profiles]
    bundles: dict[tuple[str, float], CodecBundle] = {}
    for pidx, profile in enumerate(profiles):
        for kappa, bundle in train_codec_family(cfg, profile, pidx).items():
            bundles[(profile.name, kappa)] = bundle

    groups = [
        (cfg, profile, pidx, kappa, bundles.get((profile.name, kappa)))
        for pidx, profile in enumerate(profiles)
        for kappa in (ad.NO_COMPRESSION, *cfg.kappas)
    ]
    # Both paths return the results in group order, the row order of sweep.csv.
    if threads > 1:
        # A forked pool starts all of its workers at the first submit.
        with ProcessPoolExecutor(max_workers=min(threads, len(groups))) as pool:
            results = list(pool.map(_sweep_group, groups))
    else:
        results = [_sweep_group(g) for g in groups]
    result = SweepResult(
        rows=[row for group_rows, _ in results for row in group_rows],
        timing=[group_timing for _, group_timing in results],
        histories={key: bundle.history for key, bundle in bundles.items()},
        models={key: bundle.model for key, bundle in bundles.items()},
    )

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "sweep.csv"), SWEEP_COLUMNS, result.rows)
        write_csv(os.path.join(out_dir, "sweep_timing.csv"), TIMING_COLUMNS, result.timing)
        for (name, kappa), history in result.histories.items():
            emit_history(history, os.path.join(out_dir, f"history_{name}_{kappa}.csv"))
    return result


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, columns, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])


def run_adaptive_experiment(cfg: ExperimentConfig, out_dir=None, *, sweep: SweepResult):
    """Adaptive ratio selection versus the static and uncompressed baselines.

    The policy table is built from the adaptive profile's rows of ``sweep``,
    a run_sweep result for the same config. The three traces reuse the
    sweep's channels, payloads and LS estimates (the cached realizations,
    redrawn from the same streams on a cache miss); only the link noise comes
    from a stream of its own. The traces are paired: at each SNR point all
    three schemes see identical channels, noise and payloads.
    """
    profiles = [resolve_profile(p) for p in cfg.profiles]
    names = [p.name for p in profiles]
    profile_idx = 0 if cfg.adaptive_profile is None else names.index(resolve_profile(cfg.adaptive_profile).name)
    profile, profile_name = profiles[profile_idx], names[profile_idx]

    dataset = ad.build_dataset(row for row in sweep.rows if row["profile"] == profile_name)
    table = ad.policy_table(dataset, b_max=cfg.b_max)

    # Counts per (ratio, SNR) pair the three traces need; the traces share
    # seeds, so a pair that two traces pick runs once. Users are the outer
    # loop, so each user's realization serves every pair while it is cached.
    totals = {
        (kappa, rho): ErrorCounts()
        for rho in cfg.rhos
        for kappa in (table.kappa_for(rho), cfg.static_kappa, ad.NO_COMPRESSION)
    }
    for user in range(cfg.n_users):
        for kappa, rho in list(totals):
            model = None if kappa == ad.NO_COMPRESSION else sweep.models[(profile_name, kappa)]
            counts, _, _ = evaluate_point(cfg, profile, profile_idx, model, rho, user, seed_domain=_ADAPT)
            totals[(kappa, rho)] = merge(totals[(kappa, rho)], counts)

    rows = ad.run_adaptive(table, cfg.rhos, cfg.static_kappa, totals)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "adaptive.csv"), ADAPTIVE_COLUMNS, rows)
        ad.export_policy_csv(table, os.path.join(out_dir, "policy.csv"))
    return rows, table


def emit_csi_heatmap(cfg: ExperimentConfig, kappa: float, rho_db: float, user: int, out_dir):
    """Magnitude grids of the original estimate, the latent feedback and the
    reconstruction for receive antenna 0, as three CSV files.

    The model is the first profile's model for ``kappa``, trained alone on
    the split the sweep trains on: paired training makes it the sweep's
    model."""
    if kappa not in cfg.kappas:
        raise ValueError(f"kappa {kappa} is not one of the configured ratios")
    if not 0 <= user < cfg.n_users:
        raise ValueError(f"user {user} is outside the configured users [0, {cfg.n_users})")
    pl.noise_var_from_snr(cfg.link_config(rho_db))
    profile = resolve_profile(cfg.profiles[0])
    model = _train_codec(cfg, build_training_set(cfg, profile, 0), 0, kappa).model

    h_est = _user_estimates(cfg, profile, 0, user, rho_db)[1][0]
    latent = codec.deserialize(codec.serialize(codec.compress(model, h_est)))
    h_rec = codec.decompress(model, latent)

    latent_grid = np.abs(latent.values.astype(float)).reshape(-1, 2 * cfg.n_r * cfg.n_t)

    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for label, grid in (
        ("original", np.abs(h_est.data[:, 0, :])),
        ("latent", latent_grid),
        ("reconstructed", np.abs(h_rec.data[:, 0, :])),
    ):
        path = os.path.join(out_dir, f"heatmap_{label}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for row in grid:
                writer.writerow([repr(float(x)) for x in row])
        paths[label] = path
    return paths


def emit_history(history: codec.TrainHistory, path):
    """Epoch-indexed loss CSV."""
    rows = [
        {"epoch": e + 1, "train_loss": tl, "val_loss": vl}
        for e, (tl, vl) in enumerate(zip(history.train_loss, history.val_loss))
    ]
    write_csv(path, ("epoch", "train_loss", "val_loss"), rows)
