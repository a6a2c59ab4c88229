"""Adaptive compression-ratio policy.

The sweep rows of one channel are averaged into a table of mean BLER per
(SNR, compression ratio); for each SNR the policy picks the compressed ratio
with the lowest mean BLER if it meets the BLER ceiling, and falls back to
uncompressed feedback otherwise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

# Sentinel ratio meaning "send the raw estimate" (the uncompressed baseline).
NO_COMPRESSION = 0.0


class PolicyError(LookupError):
    """Raised when the policy is asked about an unmeasured operating point."""


def build_dataset(rows) -> dict[float, dict[float, float]]:
    """Mean BLER of sweep rows per SNR and ratio, as {rho_db: {kappa: bler}}
    with both levels in ascending order."""
    sums: dict[float, dict[float, list]] = {}
    for row in rows:
        acc = sums.setdefault(row["rho_db"], {}).setdefault(row["kappa"], [0.0, 0])
        acc[0] += row["bler"]
        acc[1] += 1
    return {
        rho: {kappa: total / n for kappa, (total, n) in sorted(cells.items())}
        for rho, cells in sorted(sums.items())
    }


@dataclass(frozen=True)
class PolicyEntry:
    bucket_low_db: float
    bucket_high_db: float
    kappa: float  # NO_COMPRESSION means the uncompressed baseline
    measured_bler: float


@dataclass
class PolicyTable:
    entries: tuple[PolicyEntry, ...]

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


def policy_table(dataset: dict[float, dict[float, float]], b_max: float) -> PolicyTable:
    """One chosen ratio per measured SNR: the compressed ratio (kappa !=
    NO_COMPRESSION) with the lowest mean BLER, ties broken toward the larger
    ratio (more compression at equal quality), if that BLER is <= b_max, and
    NO_COMPRESSION otherwise. Either way the entry records that lowest BLER.

    The lowest BLER meets the ceiling exactly when any ratio does, so this is
    the lowest-BLER ratio among those meeting the ceiling.
    """
    entries = []
    for (lo, hi), rho in zip(bucket_edges(dataset), sorted(dataset)):
        compressed = [(bler, -kappa, kappa) for kappa, bler in dataset[rho].items() if kappa != NO_COMPRESSION]
        if not compressed:
            raise PolicyError(f"no compressed-ratio measurements at {rho} dB; measure first")
        bler, _, kappa = min(compressed)
        entries.append(PolicyEntry(lo, hi, kappa if bler <= b_max else NO_COMPRESSION, bler))
    return PolicyTable(entries=tuple(entries))


def export_policy_csv(table: PolicyTable, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bucket_low_db", "bucket_high_db", "kappa_or_baseline", "measured_bler"])
        for e in table.entries:
            kappa = "baseline" if e.kappa == NO_COMPRESSION else repr(e.kappa)
            writer.writerow([repr(e.bucket_low_db), repr(e.bucket_high_db), kappa, repr(e.measured_bler)])


def run_adaptive(table: PolicyTable, sweep_rhos, static_kappa: float, counts) -> list[dict]:
    """The adaptive.csv rows: per SNR point, the ratio ``table`` picks and the
    BLER of the adaptive, static and uncompressed traces.

    ``counts[(kappa, rho_db)]`` holds the merged ErrorCounts of the chain run
    with the model for ``kappa`` (NO_COMPRESSION = raw estimate).
    """
    rows = []
    for rho in sweep_rhos:
        kappa = table.kappa_for(rho)
        row = {"rho_db": float(rho), "kappa_star": kappa}
        for trace, k in (("adaptive", kappa), ("static", static_kappa), ("uncompressed", NO_COMPRESSION)):
            row[f"bler_{trace}"] = counts[(k, rho)].bler
            row[f"bler_{trace}_stderr"] = counts[(k, rho)].bler_stderr
        rows.append(row)
    return rows
