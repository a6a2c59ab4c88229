"""Error-rate bookkeeping: mergeable bit/block error counters with their
BER, BLER and standard errors."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ErrorCounts:
    """Mergeable bit/block error totals (value type for parallel reductions)."""

    bit_errors: int = 0
    bits_total: int = 0
    block_errors: int = 0
    blocks_total: int = 0

    def __post_init__(self):
        if self.bit_errors > self.bits_total or self.block_errors > self.blocks_total:
            raise ValueError("error counts cannot exceed totals")
        if min(self.bit_errors, self.bits_total, self.block_errors, self.blocks_total) < 0:
            raise ValueError("counts must be non-negative")

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_total if self.bits_total else 0.0

    @property
    def bler(self) -> float:
        return self.block_errors / self.blocks_total if self.blocks_total else 0.0

    @property
    def ber_stderr(self) -> float:
        return rate_stderr(self.ber, self.bits_total)

    @property
    def bler_stderr(self) -> float:
        return rate_stderr(self.bler, self.blocks_total)


def merge(a: ErrorCounts, b: ErrorCounts) -> ErrorCounts:
    """Fieldwise sum; associative and commutative."""
    return ErrorCounts(
        a.bit_errors + b.bit_errors,
        a.bits_total + b.bits_total,
        a.block_errors + b.block_errors,
        a.blocks_total + b.blocks_total,
    )


def rate_stderr(p: float, n: int) -> float:
    """Standard error of an empirical rate, sqrt(p*(1-p)/n)."""
    if n <= 0:
        return 0.0
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)
