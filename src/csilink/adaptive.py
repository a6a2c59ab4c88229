"""Adaptive compression-ratio policy.

Link measurements are aggregated into a lookup table keyed by SNR bucket and
compression ratio; for each bucket the policy picks the ratio with the lowest
measured BLER among those meeting the BLER ceiling, falling back to
uncompressed feedback when nothing qualifies. Slot scheduling covers the two
training/inference interleaving patterns (duty cycle, staggered) and a
loss-threshold retraining trigger.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

# Sentinel ratio meaning "send the raw estimate" (the uncompressed baseline).
NO_COMPRESSION = 0.0

TRAIN = "TRAIN"
INFER = "INFER"


class PolicyError(LookupError):
    """Raised when the policy is asked about an unmeasured operating point."""


@dataclass(frozen=True)
class MeasurementRecord:
    rho_db: float
    kappa: float
    ber: float
    bler: float
    exceeds_bmax: bool
    channel_tag: str
    user_seed: int

    def __post_init__(self):
        if not (0.0 <= self.ber <= 1.0 and 0.0 <= self.bler <= 1.0):
            raise ValueError("BER/BLER must lie in [0, 1]")


def make_record(rho_db, kappa, ber, bler, channel_tag, user_seed, b_max=0.1) -> MeasurementRecord:
    """Record constructor that derives the ceiling-exceeded flag."""
    return MeasurementRecord(
        rho_db=rho_db,
        kappa=kappa,
        ber=ber,
        bler=bler,
        exceeds_bmax=bler > b_max,
        channel_tag=channel_tag,
        user_seed=user_seed,
    )


@dataclass(frozen=True)
class AggregateCell:
    ber: float
    bler: float
    n_records: int


@dataclass
class MeasurementDataset:
    """Mean BER/BLER per (channel tag, SNR bucket, ratio)."""

    buckets: tuple[float, ...]
    cells: dict[tuple[str, float, float], AggregateCell]

    def tags(self) -> list[str]:
        return sorted({tag for tag, _, _ in self.cells})

    def resolve_tag(self, channel_tag=None) -> str:
        """``channel_tag``, or the only tag when none is given."""
        if channel_tag is not None:
            return channel_tag
        tags = self.tags()
        if len(tags) != 1:
            raise PolicyError("dataset covers several channels; pass channel_tag")
        return tags[0]

    def bucket_for(self, rho_db: float) -> float:
        diffs = [abs(rho_db - b) for b in self.buckets]
        return self.buckets[diffs.index(min(diffs))]

    def cell(self, tag: str, bucket: float, kappa: float) -> AggregateCell:
        return self.cells[(tag, bucket, kappa)]

    def kappas(self, tag: str, bucket: float) -> list[float]:
        return sorted(k for t, b, k in self.cells if t == tag and b == bucket)


def build_dataset(records, buckets) -> MeasurementDataset:
    """Group records by (channel tag, nearest SNR bucket, ratio) and average."""
    dataset = MeasurementDataset(buckets=tuple(float(b) for b in buckets), cells={})
    if not dataset.buckets:
        raise ValueError("need at least one SNR bucket")
    sums: dict[tuple[str, float, float], list[float]] = {}
    for rec in records:
        key = (rec.channel_tag, dataset.bucket_for(rec.rho_db), rec.kappa)
        acc = sums.setdefault(key, [0.0, 0.0, 0])
        acc[0] += rec.ber
        acc[1] += rec.bler
        acc[2] += 1
    dataset.cells = {
        key: AggregateCell(ber=s[0] / s[2], bler=s[1] / s[2], n_records=s[2])
        for key, s in sorted(sums.items())
    }
    return dataset


def select_kappa(dataset: MeasurementDataset, rho_db: float, b_max: float = 0.1, channel_tag=None) -> float:
    """Ratio with the lowest aggregated BLER among those with BLER <= b_max.

    Ties break toward the larger ratio (more compression at equal quality);
    when no ratio qualifies the NO_COMPRESSION sentinel is returned. Only
    compressed ratios (kappa > 0) are candidates.
    """
    channel_tag = dataset.resolve_tag(channel_tag)
    bucket = dataset.bucket_for(rho_db)
    kappas = [k for k in dataset.kappas(channel_tag, bucket) if k > 0.0]
    if not kappas:
        raise PolicyError(
            f"no measurements for channel {channel_tag!r} in the {bucket} dB bucket; measure first"
        )
    qualified = [
        (dataset.cell(channel_tag, bucket, k).bler, -k, k) for k in kappas
        if dataset.cell(channel_tag, bucket, k).bler <= b_max
    ]
    if not qualified:
        return NO_COMPRESSION
    return min(qualified)[2]


@dataclass(frozen=True)
class PolicyEntry:
    bucket_low_db: float
    bucket_high_db: float
    kappa: float  # NO_COMPRESSION means the uncompressed baseline
    measured_bler: float


@dataclass
class PolicyTable:
    entries: tuple[PolicyEntry, ...]
    b_max: float

    def kappa_for(self, rho_db: float) -> float:
        for e in self.entries:
            if e.bucket_low_db <= rho_db < e.bucket_high_db:
                return e.kappa
        raise PolicyError(f"{rho_db} dB falls outside the table range")


def bucket_edges(buckets) -> list[tuple[float, float]]:
    """Half-open intervals around each bucket center, midpoints between
    neighbours and open-ended at the extremes."""
    centers = sorted(float(b) for b in buckets)
    edges = []
    for i, c in enumerate(centers):
        lo = -math.inf if i == 0 else 0.5 * (centers[i - 1] + c)
        hi = math.inf if i == len(centers) - 1 else 0.5 * (c + centers[i + 1])
        edges.append((lo, hi))
    return edges


def policy_table(dataset: MeasurementDataset, b_max: float = 0.1, channel_tag=None) -> PolicyTable:
    """One chosen ratio per SNR bucket."""
    tag = dataset.resolve_tag(channel_tag)
    entries = []
    for (lo, hi), center in zip(bucket_edges(dataset.buckets), sorted(dataset.buckets)):
        kappa = select_kappa(dataset, center, b_max=b_max, channel_tag=tag)
        if kappa == NO_COMPRESSION:
            blers = [dataset.cell(tag, center, k).bler for k in dataset.kappas(tag, center) if k > 0]
            measured = min(blers)
        else:
            measured = dataset.cell(tag, center, kappa).bler
        entries.append(PolicyEntry(lo, hi, kappa, measured))
    return PolicyTable(entries=tuple(entries), b_max=b_max)


def export_policy_csv(table: PolicyTable, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bucket_low_db", "bucket_high_db", "kappa_or_baseline", "measured_bler"])
        for e in table.entries:
            kappa = "baseline" if e.kappa == NO_COMPRESSION else repr(e.kappa)
            writer.writerow([repr(e.bucket_low_db), repr(e.bucket_high_db), kappa, repr(e.measured_bler)])


def load_policy_csv(path, b_max: float = 0.1) -> PolicyTable:
    entries = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            raw = row["kappa_or_baseline"]
            kappa = NO_COMPRESSION if raw == "baseline" else float(raw)
            entries.append(
                PolicyEntry(
                    bucket_low_db=float(row["bucket_low_db"]),
                    bucket_high_db=float(row["bucket_high_db"]),
                    kappa=kappa,
                    measured_bler=float(row["measured_bler"]),
                )
            )
    return PolicyTable(entries=tuple(entries), b_max=b_max)


@dataclass(frozen=True)
class SlotSchedule:
    pattern: str
    frame_length: int
    parameter: float
    assignment: tuple[str, ...]


def schedule_slots(pattern: str, frame_length: int, parameter) -> SlotSchedule:
    """Slot roles for one radio frame.

    duty_cycle: the first ceil(fraction*frame_length) slots train, the rest
    infer. staggered: slot i trains iff i % occasion == 0.
    """
    if frame_length < 1:
        raise ValueError("frame_length must be >= 1")
    if pattern == "duty_cycle":
        fraction = float(parameter)
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("duty-cycle fraction must lie in [0, 1]")
        n_train = math.ceil(fraction * frame_length)
        roles = tuple(TRAIN if i < n_train else INFER for i in range(frame_length))
    elif pattern == "staggered":
        occasion = int(parameter)
        if occasion < 1:
            raise ValueError("measurement occasion must be >= 1")
        roles = tuple(TRAIN if i % occasion == 0 else INFER for i in range(frame_length))
    else:
        raise ValueError(f"unknown pattern {pattern!r}")
    return SlotSchedule(pattern=pattern, frame_length=frame_length, parameter=float(parameter), assignment=roles)


def default_invalidation_threshold(final_train_loss: float) -> float:
    """Retraining trigger level: twice the deployed model's final training loss."""
    return 2.0 * final_train_loss


def check_invalidation(inference_losses, threshold: float) -> bool:
    """Retrain when the window-mean inference loss strictly exceeds the threshold."""
    losses = np.asarray(inference_losses, dtype=float)
    if losses.size == 0:
        raise ValueError("need a non-empty loss window")
    return bool(np.mean(losses) > threshold)


@dataclass(frozen=True)
class AdaptiveDecision:
    rho_db: float
    kappa: float
    bler: float
    bler_stderr: float


def run_adaptive(table: PolicyTable, sweep_rhos, evaluate):
    """Evaluate the link at each SNR point with the ratio ``table`` picks.

    ``evaluate(kappa, rho_db)`` runs the chain with the model for ``kappa``
    (NO_COMPRESSION = raw estimate) and returns (bler, bler_stderr).
    """
    out = []
    for rho in sweep_rhos:
        kappa = table.kappa_for(rho)
        bler_val, stderr = evaluate(kappa, rho)
        out.append(AdaptiveDecision(rho_db=float(rho), kappa=kappa, bler=bler_val, bler_stderr=stderr))
    return out
