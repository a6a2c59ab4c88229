"""Error-rate bookkeeping: BER, BLER, mergeable counters, wall-clock sections."""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


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


def ber(tx_bits, rx_bits) -> float:
    """Fraction of bit positions received incorrectly.

    Both arguments are (n_transmissions, codeword_len) arrays, or 1-D arrays
    treated as a single transmission.
    """
    tx = np.atleast_2d(np.asarray(tx_bits))
    rx = np.atleast_2d(np.asarray(rx_bits))
    if tx.shape != rx.shape:
        raise ValueError(f"shape mismatch {tx.shape} vs {rx.shape}")
    if tx.size == 0:
        raise ValueError("need at least one transmission")
    return float(np.mean(tx != rx))


def bler(crc_ok) -> float:
    """Fraction of codewords whose CRC check failed. ``crc_ok`` holds one
    pass/fail boolean per transmission (True = matched)."""
    ok = np.asarray(crc_ok, dtype=bool)
    if ok.size == 0:
        raise ValueError("need at least one transmission")
    return float(np.mean(~ok))


class Stopwatch:
    """Accumulates monotonic-clock durations per section label."""

    def __init__(self):
        self.totals: dict[str, float] = {}

    @contextmanager
    def section(self, label: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.totals[label] = self.totals.get(label, 0.0) + elapsed

    def get(self, label: str) -> float:
        return self.totals.get(label, 0.0)

