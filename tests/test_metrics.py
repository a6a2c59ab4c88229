import numpy as np
import pytest

from csilink import metrics as mt


class TestErrorCounts:
    def test_merge_identity(self):
        a = mt.ErrorCounts(3, 10, 1, 2)
        assert mt.merge(a, mt.ErrorCounts()) == a

    def test_merge_commutative(self):
        a = mt.ErrorCounts(3, 10, 1, 2)
        b = mt.ErrorCounts(5, 20, 0, 4)
        assert mt.merge(a, b) == mt.merge(b, a)

    def test_fold_over_partitions_matches_single_pass(self):
        rng = np.random.default_rng(1)
        parts = []
        for _ in range(50):
            bits_total = int(rng.integers(1, 1000))
            blocks_total = int(rng.integers(1, 20))
            parts.append(
                mt.ErrorCounts(
                    int(rng.integers(0, bits_total + 1)),
                    bits_total,
                    int(rng.integers(0, blocks_total + 1)),
                    blocks_total,
                )
            )
        folded = mt.ErrorCounts()
        for p in parts:
            folded = mt.merge(folded, p)
        assert folded.bit_errors == sum(p.bit_errors for p in parts)
        assert folded.bits_total == sum(p.bits_total for p in parts)
        assert folded.block_errors == sum(p.block_errors for p in parts)
        assert folded.blocks_total == sum(p.blocks_total for p in parts)
        # merge-then-compute equals totals-weighted average of the parts.
        weighted = sum(p.ber * p.bits_total for p in parts) / folded.bits_total
        assert folded.ber == pytest.approx(weighted)

    def test_counting_reference(self):
        # 3 of 12 bits wrong, spread over 2 of 3 blocks.
        c = mt.ErrorCounts(bit_errors=3, bits_total=12, block_errors=2, blocks_total=3)
        assert c.ber == pytest.approx(3 / 12)
        assert c.bler == pytest.approx(2 / 3)

    def test_rates_in_unit_interval(self):
        c = mt.ErrorCounts(5, 10, 1, 4)
        assert 0.0 <= c.ber <= 1.0 and 0.0 <= c.bler <= 1.0

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            mt.ErrorCounts(11, 10, 0, 0)

    def test_stderr_formula(self):
        c = mt.ErrorCounts(25, 100, 0, 1)
        assert c.ber_stderr == pytest.approx((0.25 * 0.75 / 100) ** 0.5)
