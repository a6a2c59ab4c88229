"""Adaptive compression-ratio policy.

The sweep rows of one channel are averaged into a table of mean BLER per
(SNR, compression ratio); for each SNR the policy picks the ratio with the
lowest mean BLER among those meeting the BLER ceiling, falling back to
uncompressed feedback when nothing qualifies.
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


def select_kappa(blers: dict[float, float], b_max: float) -> float:
    """Ratio with the lowest mean BLER among those with BLER <= b_max, from
    one SNR's {kappa: bler}.

    Ties break toward the larger ratio (more compression at equal quality);
    when no ratio qualifies the NO_COMPRESSION sentinel is returned. Only
    compressed ratios (kappa != NO_COMPRESSION) are candidates.
    """
    compressed = [(bler, -kappa, kappa) for kappa, bler in blers.items() if kappa != NO_COMPRESSION]
    if not compressed:
        raise PolicyError("no compressed-ratio measurements at this SNR; measure first")
    qualified = [c for c in compressed if c[0] <= b_max]
    return min(qualified)[2] if qualified else NO_COMPRESSION


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
    """One chosen ratio per measured SNR. A baseline entry records the best
    compressed BLER, the one that missed the ceiling."""
    entries = []
    for (lo, hi), rho in zip(bucket_edges(dataset), sorted(dataset)):
        blers = dataset[rho]
        kappa = select_kappa(blers, b_max)
        if kappa == NO_COMPRESSION:
            measured = min(bler for k, bler in blers.items() if k != NO_COMPRESSION)
        else:
            measured = blers[kappa]
        entries.append(PolicyEntry(lo, hi, kappa, measured))
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
