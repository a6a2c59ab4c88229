"""Clustered delay line channel synthesis.

A channel profile is a small table of multipath clusters (delay, power,
departure/arrival angles). Frequency-domain CSI tensors are built as a sum of
one rank-one ray per cluster with an i.i.d. random phase, which keeps the
sparsity and subcarrier-correlation structure of the standardized CDL models
at a fraction of their complexity. Two profile files transcribed from the
3GPP TR 38.901 delay tables ship with the package (CDL-C, CDL-E).

A realization is the sum over clusters of gain x delay phasor x rx steering
x conjugate tx steering. The seed-free factors are cached per link geometry,
and the (cluster, subcarrier, rx) product is formed once per realization
rather than once per tx antenna. It is multiplied with unfused real
arithmetic, so the channel equals the four-operand einsum bit for bit. The
sum over clusters is contracted into (tx, subcarrier, rx) order, the faster
loop order, and copied into (subcarrier, rx, tx) order; each entry is still
the in-order sum of the same products.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from importlib import resources

import numpy as np

TWO_PI = 2.0 * math.pi
# Array element spacing in wavelengths.
ELEMENT_SPACING = 0.5

_CLUSTER_FIELDS = (
    "delay_s",
    "power_db",
    "aod_az_deg",
    "aod_zen_deg",
    "aoa_az_deg",
    "aoa_zen_deg",
)


class ProfileSchemaError(ValueError):
    """Raised when a channel profile file does not match the documented schema."""


@dataclass(frozen=True)
class Cluster:
    """One multipath cluster. Angles in radians, power linear (normalized)."""

    delay_s: float
    power: float
    aod_az: float
    aod_zen: float
    aoa_az: float
    aoa_zen: float


@dataclass(frozen=True)
class CdlProfile:
    name: str
    clusters: tuple[Cluster, ...]

    def __post_init__(self):
        if not self.clusters:
            raise ProfileSchemaError("profile needs at least one cluster")
        for i, c in enumerate(self.clusters):
            if not (math.isfinite(c.delay_s) and c.delay_s >= 0.0):
                raise ProfileSchemaError(f"cluster {i}: delay_s must be finite and >= 0")
            if not (c.power > 0.0 and math.isfinite(c.power)):
                raise ProfileSchemaError(f"cluster {i}: power must be positive and finite")
        total = sum(c.power for c in self.clusters)
        if abs(total - 1.0) > 1e-9:
            raise ProfileSchemaError(f"cluster powers must sum to 1, got {total!r}")

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


@dataclass(frozen=True)
class UraGeometry:
    """Uniform rectangular array, half-wavelength spaced."""

    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("array must have at least one element")

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


@dataclass
class ChannelTensor:
    """Complex CSI over (subcarrier, rx antenna, tx antenna)."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 3:
            raise ValueError(f"expected a (n_sc, n_r, n_t) tensor, got shape {self.data.shape}")
        if not np.isfinite(self.data).all():
            raise ValueError("channel tensor contains non-finite entries")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


def _is_real(value) -> bool:
    """A number a JSON file may give and a float can hold: true is an int in
    Python, not 1 dB, and a 401-digit integer is too large for float()."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _check_keys(where: str, record, required, optional=()) -> None:
    """Reject a record that is not an object, lacks a required key or holds a
    key that no run reads, naming the record and the key."""
    if not isinstance(record, dict):
        raise ProfileSchemaError(f"{where} must be a JSON object, got {record!r}")
    for key in required:
        if key not in record:
            raise ProfileSchemaError(f"{where}: missing field '{key}'")
    unknown = set(record) - set(required) - set(optional)
    if unknown:
        raise ProfileSchemaError(f"{where}: unknown fields {sorted(unknown)}")


def load_cdl_profile(path) -> CdlProfile:
    """Load a cluster profile file, converting dB powers to normalized linear
    gains and degree angles to radians. Cluster order is preserved. A key
    other than name, clusters, comment and the six cluster fields fails."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProfileSchemaError(f"profile {path}: not valid JSON ({exc})") from exc

    _check_keys(f"profile {path}", raw, ("name", "clusters"), ("comment",))
    # The name is part of the file names a run writes.
    if not isinstance(raw["name"], str) or "/" in raw["name"] or "\0" in raw["name"]:
        raise ProfileSchemaError(f"profile {path}: 'name' must be a string without '/' or NUL, got {raw['name']!r}")
    if not isinstance(raw["clusters"], list) or not raw["clusters"]:
        raise ProfileSchemaError(f"profile {path}: 'clusters' must be a non-empty list")

    gains = []
    for i, rec in enumerate(raw["clusters"]):
        _check_keys(f"profile {path}: cluster {i}", rec, _CLUSTER_FIELDS)
        for field in _CLUSTER_FIELDS:
            if not (_is_real(rec[field]) and math.isfinite(rec[field])):
                raise ProfileSchemaError(
                    f"profile {path}: cluster {i}: field '{field}' must be a finite number, got {rec[field]!r}"
                )
        try:
            gain = 10.0 ** (float(rec["power_db"]) / 10.0)
        except OverflowError:
            raise ProfileSchemaError(f"profile {path}: cluster {i}: field 'power_db' overflows, got {rec['power_db']!r}") from None
        # Normalization divides by the sum of the gains.
        if gain == 0.0:
            raise ProfileSchemaError(
                f"profile {path}: cluster {i}: field 'power_db' underflows to a zero gain, got {rec['power_db']!r}"
            )
        gains.append(gain)

    total = sum(gains)
    clusters = tuple(
        Cluster(
            delay_s=float(rec["delay_s"]),
            power=g / total,
            aod_az=math.radians(float(rec["aod_az_deg"])),
            aod_zen=math.radians(float(rec["aod_zen_deg"])),
            aoa_az=math.radians(float(rec["aoa_az_deg"])),
            aoa_zen=math.radians(float(rec["aoa_zen_deg"])),
        )
        for rec, g in zip(raw["clusters"], gains)
    )
    return CdlProfile(name=raw["name"], clusters=clusters)


def shipped_profile_path(name: str):
    """Path of a profile file bundled with the package ('cdl_c' or 'cdl_e')."""
    ref = resources.files("csilink.profiles").joinpath(f"{name.lower().replace('-', '_')}.json")
    if not ref.is_file():
        raise FileNotFoundError(f"no shipped profile named {name!r}")
    return ref


def steering_vector(geom: UraGeometry, azimuth: float, zenith: float) -> np.ndarray:
    """Array response of the URA for a plane wave from (azimuth, zenith).

    Element (r, c) sits at grid coordinate (c, r) in units of the spacing; the
    column index runs along the azimuth=0 axis. Entries have unit magnitude
    and phase 2*pi*spacing*(c*u + r*v) with u = sin(zen)*cos(az) and
    v = sin(zen)*sin(az); the vector is flattened row-major.
    """
    u = math.sin(zenith) * math.cos(azimuth)
    v = math.sin(zenith) * math.sin(azimuth)
    r = np.arange(geom.rows)[:, None]
    c = np.arange(geom.cols)[None, :]
    phase = TWO_PI * ELEMENT_SPACING * (c * u + r * v)
    return np.exp(1j * phase).reshape(-1)


def ula_steering(n_elements: int, azimuth: float, zenith: float) -> np.ndarray:
    """Uniform linear array response (half-wavelength spacing along azimuth=0)."""
    return steering_vector(UraGeometry(1, n_elements), azimuth, zenith)


@functools.lru_cache(maxsize=16)
def _cluster_terms(profile: CdlProfile, tx: UraGeometry, n_r: int, n_sc: int, delta_f: float):
    """The seed-free factors of a realization: cluster amplitudes, delay
    phasors over the subcarriers, rx steering and conjugated tx steering.
    Cached and read-only, because every realization of a link shares them;
    a call that raises is not cached, so every draw checks its arguments."""
    if n_r < 1 or n_sc < 1:
        raise ValueError("n_r and n_sc must be >= 1")
    if not 0 < delta_f < math.inf:
        raise ValueError(f"delta_f must be positive and finite, got {delta_f}")
    # The delay phase's products in their order below, with n_sc >= every k:
    # if the phase can overflow there, this product does.
    if not math.isfinite(TWO_PI * max(c.delay_s for c in profile.clusters) * n_sc * delta_f):
        raise ValueError(f"profile {profile.name}: the delay phase overflows at n_sc {n_sc} and delta_f {delta_f}")
    a_rx = np.stack([ula_steering(n_r, c.aoa_az, c.aoa_zen) for c in profile.clusters])
    a_tx_conj = np.stack([steering_vector(tx, c.aod_az, c.aod_zen) for c in profile.clusters]).conj()
    delays = np.array([c.delay_s for c in profile.clusters])
    # Unit-magnitude steering entries and unit cluster-power sum make the
    # mean squared channel entry 1, so the SNR knob is per resource element.
    amp = np.sqrt(np.array([c.power for c in profile.clusters]))
    k = np.arange(n_sc)
    freq = np.exp(-1j * TWO_PI * delays[:, None] * k[None, :] * delta_f)
    terms = (amp, freq, a_rx, a_tx_conj)
    for arr in terms:
        arr.flags.writeable = False
    return terms


def _complex_product(a, b) -> np.ndarray:
    """Broadcast complex product as separate real products and sums,
    (ac - bd) + (ad + bc)i, each rounded on its own. numpy's complex multiply
    may fuse or reorder them and differ in the last bit."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.complex128)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def synthesize_csi(
    profile: CdlProfile,
    tx: UraGeometry,
    n_r: int,
    n_sc: int,
    delta_f: float,
    seed,
) -> ChannelTensor:
    """One block-fading CSI realization: block 0 of draw_block_fading for the
    same seed."""
    return draw_block_fading(profile, tx, n_r, n_sc, delta_f, seed, 1)[0]


def draw_block_fading(
    profile: CdlProfile,
    tx: UraGeometry,
    n_r: int,
    n_sc: int,
    delta_f: float,
    seed,
    n_blocks: int,
) -> list[ChannelTensor]:
    """Independent realizations, one per coherence block: sums of per-cluster
    rank-one rays with seeded i.i.d. uniform phases. Every block is
    deterministic in (seed, block index)."""
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, TWO_PI, (n_blocks, profile.n_clusters))
    amp, freq, a_rx, a_tx_conj = _cluster_terms(profile, tx, n_r, n_sc, delta_f)
    blocks = []
    for block_phases in phases:
        gains = amp * np.exp(1j * block_phases)
        # The (cluster, subcarrier, rx) factor once, not once per tx antenna;
        # its products are those of einsum("c,ck,cr,ct->krt", ...), bit for bit.
        factor = _complex_product(_complex_product(gains[:, None], freq)[:, :, None], a_rx[:, None, :])
        h = np.einsum("ct,ckr->tkr", a_tx_conj, factor)
        blocks.append(ChannelTensor(np.ascontiguousarray(h.transpose(1, 2, 0))))
    return blocks
