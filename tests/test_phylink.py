import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from csilink import chanmodel as cm
from csilink import phylink as pl
from csilink.metrics import ErrorCounts

POLY = (1, 0, 1, 0, 0, 1, 1)  # x^6 + x^4 + x + 1


def crc_long_division(msg, poly=POLY):
    """Independent bitwise long-division oracle: remainder of msg * x^deg."""
    poly = list(poly)
    deg = len(poly) - 1
    work = list(msg) + [0] * deg
    for i in range(len(msg)):
        if work[i]:
            for j, p in enumerate(poly):
                work[i + j] ^= p
    return work[-deg:]


def with_crc(msg):
    """A message followed by its CRC remainder, through the batch function."""
    return np.concatenate([msg, pl.crc_remainder_many(msg[None, :])[0]])


def crc_ok(codeword) -> bool:
    return bool(pl.crc_check_many(codeword[None, :])[0])


class TestCrc:
    def test_zero_message_zero_remainder(self):
        out = with_crc(np.zeros(16, dtype=np.uint8))
        assert np.array_equal(out[-6:], np.zeros(6, dtype=np.uint8))

    def test_append_then_check_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            msg = rng.integers(0, 2, size=rng.integers(1, 200), dtype=np.uint8)
            assert crc_ok(with_crc(msg))

    def test_known_message_matches_long_division(self):
        msg = np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.uint8)
        out = with_crc(msg)
        assert list(out[-6:]) == crc_long_division(msg)

    def test_single_bit_flip_detected(self):
        rng = np.random.default_rng(4)
        msg = rng.integers(0, 2, size=64, dtype=np.uint8)
        coded = with_crc(msg)
        for pos in range(coded.size):
            corrupted = coded.copy()
            corrupted[pos] ^= 1
            assert not crc_ok(corrupted)

    def test_oracle_agreement_on_random_blocks(self):
        rng = np.random.default_rng(5)
        blocks = rng.integers(0, 2, size=(1000, 64), dtype=np.uint8)
        mine = pl.crc_remainder_many(blocks)
        for row, rem in zip(blocks, mine):
            assert list(rem) == crc_long_division(row)

    def test_check_many_matches_scalar_check(self):
        rng = np.random.default_rng(6)
        rows = rng.integers(0, 2, size=(200, 40), dtype=np.uint8)
        many = pl.crc_check_many(rows)
        for row, flag in zip(rows, many):
            assert flag == crc_ok(row)

    def test_empty_message_rejected(self):
        with pytest.raises(ValueError):
            with_crc(np.array([], dtype=np.uint8))


def bit_rows(max_len=1100):
    """Batches of 1-4 0/1 message rows of one random length."""
    shapes = st.tuples(st.integers(1, 4), st.integers(1, max_len))
    return shapes.flatmap(lambda shape: hnp.arrays(np.uint8, shape, elements=st.integers(0, 1)))


def bit_vectors(max_len=300):
    return hnp.arrays(np.uint8, st.integers(1, max_len), elements=st.integers(0, 1))


class TestCrcProperties:
    """The matrix form of the CRC against the long-division oracle."""

    @given(bit_rows())
    @example(np.ones((2, 506), dtype=np.uint8))
    @example(np.eye(2, 512, k=511, dtype=np.uint8))
    def test_remainders_match_long_division(self, rows):
        rem = pl.crc_remainder_many(rows)
        assert rem.dtype == np.uint8 and rem.shape == (rows.shape[0], 6)
        for row, r in zip(rows, rem):
            assert list(r) == crc_long_division(row)

    @given(bit_vectors(max_len=1100))
    def test_appended_codeword_checks(self, msg):
        assert crc_ok(with_crc(msg))

    @given(bit_vectors())
    def test_every_single_bit_flip_detected(self, msg):
        coded = with_crc(msg)
        flipped = coded[None, :] ^ np.eye(coded.size, dtype=np.uint8)
        assert not pl.crc_check_many(flipped).any()

    @given(bit_rows(max_len=600))
    def test_result_is_a_fresh_array(self, rows):
        first = pl.crc_remainder_many(rows)
        first ^= 1
        second = pl.crc_remainder_many(rows)
        assert [list(r) for r in second] == [crc_long_division(row) for row in rows]

    def test_generator_is_binary_with_unit_ends(self):
        """crc_check_many's shifted division needs the constant term: without
        it, "remainder of block * x^6 is zero" no longer means "divisible"."""
        poly = pl.DEFAULT_CRC_POLY
        assert set(poly) <= {0, 1}
        assert len(poly) - 1 == 6
        assert poly[0] == 1 and poly[-1] == 1

    def test_rows_too_long_for_float32_rejected(self, monkeypatch):
        """The float32 product is exact only below 2^24, so a longer row is
        refused before its map (over 400 MB, built in a Python loop) is made."""

        def unreachable(*args):
            raise AssertionError("_crc_matrix was called for an over-long row")

        monkeypatch.setattr(pl, "_crc_matrix", unreachable)
        with pytest.raises(ValueError, match="shorter than"):
            pl.crc_remainder_many(np.zeros((1, 1 << 24), dtype=np.uint8))


class TestQam16:
    @given(st.integers(1, 64).flatmap(lambda n: hnp.arrays(np.uint8, 4 * n, elements=st.integers(0, 1))))
    def test_detect_inverts_modulate(self, bits):
        assert np.array_equal(pl.qam16_detect(pl.qam16_modulate(bits)), bits)

    def test_all_zero_nibble_maps_to_corner(self):
        s = pl.qam16_modulate([0, 0, 0, 0])
        assert s[0] == pytest.approx((-3 - 3j) / math.sqrt(10))

    def test_unit_average_energy(self):
        nibbles = [[(n >> 3) & 1, (n >> 2) & 1, (n >> 1) & 1, n & 1] for n in range(16)]
        symbols = pl.qam16_modulate(np.concatenate(nibbles))
        assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_all_nibbles(self):
        bits = np.concatenate([[(n >> 3) & 1, (n >> 2) & 1, (n >> 1) & 1, n & 1] for n in range(16)])
        assert np.array_equal(pl.qam16_detect(pl.qam16_modulate(bits)), bits.astype(np.uint8))

    def test_origin_tie_breaks_to_smallest_label(self):
        # Four nearest points; 0101 is the smallest 4-bit Gray label among them.
        assert list(pl.qam16_detect(np.array([0 + 0j]))) == [0, 1, 0, 1]

    def test_noisy_decisions_match_scan_oracle(self):
        rng = np.random.default_rng(9)
        nibbles = np.concatenate([[(n >> 3) & 1, (n >> 2) & 1, (n >> 1) & 1, n & 1] for n in range(16)])
        constellation = pl.qam16_modulate(nibbles)
        labels = nibbles.reshape(16, 4)
        z = rng.normal(size=1000) * 0.6 + 1j * rng.normal(size=1000) * 0.6
        z = z + constellation[rng.integers(0, 16, 1000)]
        decided = pl.qam16_detect(z).reshape(-1, 4)
        dists = np.abs(z[:, None] - constellation[None, :]) ** 2
        best = np.argmin(dists, axis=1)  # first minimum = smallest label
        assert np.array_equal(decided, labels[best])

    def test_bit_count_validation(self):
        with pytest.raises(ValueError):
            pl.qam16_modulate([0, 1, 0])

    def test_edges_match_two_comparison_rule(self):
        """The column writes decide as the per-axis rule b0 = x > 0,
        b1 = (x > -t) & (x < t) does, bit for bit, at the boundaries, one ulp
        either side of them, signed zeros, infinities and NaN, on both axes."""
        t = 2.0 * pl.QAM16_SCALE

        def two_comparisons(x):
            return (x > 0).astype(np.uint8), ((x > -t) & (x < t)).astype(np.uint8)

        edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 2.0 / math.sqrt(10.0), -2.0 / math.sqrt(10.0)]
        for b in (0.0, t, -t):
            edges += [b, np.nextafter(b, math.inf), np.nextafter(b, -math.inf)]
        x = np.array(edges)
        z = np.empty(x.size * x.size, dtype=complex)
        z.real = np.repeat(x, x.size)
        z.imag = np.tile(x, x.size)
        i0, i1 = two_comparisons(z.real)
        q0, q1 = two_comparisons(z.imag)
        expected = np.stack([i0, i1, q0, q1], axis=1).reshape(-1)
        got = pl.qam16_detect(z)
        assert got.dtype == np.uint8
        assert np.array_equal(got, expected)


class TestPilots:
    def test_full_rank_over_seeds(self):
        for seed in range(100):
            x = pl.generate_pilots(8, 4, seed)
            assert np.linalg.matrix_rank(x) == 4
            assert np.linalg.cond(x) <= 1e3

    def test_column_norms(self):
        x = pl.generate_pilots(16, 4, 0)
        assert np.allclose(np.sum(np.abs(x) ** 2, axis=0), 16.0)

    def test_deterministic(self):
        assert np.array_equal(pl.generate_pilots(8, 4, 5), pl.generate_pilots(8, 4, 5))

    def test_too_few_pilots_rejected(self):
        with pytest.raises(ValueError):
            pl.generate_pilots(3, 4, 0)

    @pytest.mark.parametrize("n_pilot, n_t", [(8, 4), (5, 4), (4, 4), (64, 16)])
    def test_condition_check_alone_matches_rank_and_condition(self, n_pilot, n_t):
        """The resampling rule needs no separate rank test: the pilots equal
        those of a loop that requires full column rank and cond <= 1e3."""

        def oracle(seed):
            rng = np.random.default_rng(seed)
            for _ in range(32):
                quad = rng.integers(0, 4, size=(n_pilot, n_t))
                x = np.exp(1j * (math.pi / 4.0 + math.pi / 2.0 * quad))
                if np.linalg.matrix_rank(x) == n_t and np.linalg.cond(x) <= 1e3:
                    return x
            raise AssertionError("no well-conditioned draw")

        for seed in range(200):
            assert np.array_equal(pl.generate_pilots(n_pilot, n_t, seed), oracle(seed))


def random_channel(rng, n_sc, n_r, n_t):
    data = rng.normal(size=(n_sc, n_r, n_t)) + 1j * rng.normal(size=(n_sc, n_r, n_t))
    return cm.ChannelTensor(data / math.sqrt(2))


class TestObservePilots:
    def test_negative_noise_var_rejected(self):
        h = random_channel(np.random.default_rng(14), 4, 3, 4)
        with pytest.raises(ValueError):
            pl.observe_pilots(h, pl.generate_pilots(8, 4, 0), noise_var=-0.1, seed=0)


class TestLsEstimate:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(11)
        h = random_channel(rng, 4, 3, 4)
        x = pl.generate_pilots(8, 4, 0)
        y = pl.observe_pilots(h, x, noise_var=0.0, seed=0)
        est = pl.ls_estimate(x, y)
        rel = np.linalg.norm(est.data - h.data) / np.linalg.norm(h.data)
        assert rel < 1e-10

    def test_orthogonal_pilots_reduce_to_scaled_correlation(self):
        rng = np.random.default_rng(12)
        h = random_channel(rng, 2, 2, 4)
        q, _ = np.linalg.qr(pl.generate_pilots(8, 4, 3))
        x = q * math.sqrt(8)
        y = pl.observe_pilots(h, x, noise_var=0.05, seed=4)
        est = pl.ls_estimate(x, y)
        # X^H X = c I with c = n_pilot, so the estimate is X^H Y / c transposed.
        manual = np.einsum("pt,kpr->ktr", x.conj(), y) / 8.0
        assert np.allclose(est.data, manual.transpose(0, 2, 1), atol=1e-12)

    def test_noisy_case_matches_pinv_oracle(self):
        rng = np.random.default_rng(13)
        h = random_channel(rng, 3, 2, 4)
        x = pl.generate_pilots(6, 4, 7)
        y = pl.observe_pilots(h, x, noise_var=0.1, seed=21)
        est = pl.ls_estimate(x, y)
        pinv = np.linalg.pinv(x)
        for k in range(3):
            oracle = (pinv @ y[k]).T
            assert np.abs(est.data[k] - oracle).max() < 1e-8


class TestWaterfill:
    def test_equal_gains_split_evenly(self):
        p = pl.waterfill([2.0, 2.0, 2.0], noise_var=0.3, budget=1.5)
        assert np.allclose(p, 0.5)

    def test_single_mode_takes_everything(self):
        p = pl.waterfill([1.7], noise_var=0.2, budget=3.0)
        assert p[0] == pytest.approx(3.0, rel=1e-9)

    def test_zero_gain_modes_get_nothing(self):
        p = pl.waterfill([1.0, 0.0], noise_var=0.1, budget=1.0)
        assert p[1] == 0.0
        assert p[0] == pytest.approx(1.0, rel=1e-9)

    def test_matches_grid_search_and_kkt(self):
        gains = np.array([1.0, 0.1])
        noise_var, budget = 0.5, 1.0
        powers = pl.waterfill(gains, noise_var, budget)

        floors = noise_var / gains**2
        lo, hi = floors.min(), floors.max() + budget
        for _ in range(3):
            grid = np.linspace(lo, hi, 100_001)
            totals = np.maximum(0.0, grid[:, None] - floors[None, :]).sum(axis=1)
            best = int(np.argmin(np.abs(totals - budget)))
            step = grid[1] - grid[0]
            lo, hi = grid[best] - step, grid[best] + step
        mu = grid[best]
        oracle = np.maximum(0.0, mu - floors)
        assert np.abs(powers - oracle).max() < 1e-6

        # KKT: active modes share the water level, inactive sit above it.
        level = powers + floors
        active = powers > 0
        mu_star = level[active][0]
        assert np.all(np.abs(level[active] - mu_star) < 1e-8 * mu_star)
        assert np.all(floors[~active] >= mu_star - 1e-12)
        assert powers.sum() == pytest.approx(budget, rel=1e-9)

    def test_all_zero_gains_error(self):
        with pytest.raises(ValueError):
            pl.waterfill([0.0, 0.0], noise_var=0.1, budget=1.0)

    def test_rows_are_filled_independently(self):
        rng = np.random.default_rng(8)
        gains = rng.uniform(0.05, 2.0, size=(6, 4))
        gains[1, 2] = gains[3, 0] = gains[3, 3] = 0.0
        gains[4] = [3.0, 0.01, 0.02, 0.0]  # only the first mode clears the water level
        noise_var, budget = 0.5, 1.0
        powers = pl.waterfill(gains, noise_var, budget)
        assert powers.shape == gains.shape
        assert np.count_nonzero(powers[4]) == 1

        with np.errstate(divide="ignore"):
            floors = noise_var / gains**2
        for row, p, f in zip(gains, powers, floors):
            assert np.abs(p - pl.waterfill(row, noise_var, budget)).max() <= 1e-12
            assert p.sum() == pytest.approx(budget, rel=1e-12)
            level = p + f
            active = p > 0
            mu_star = level[active][0]
            assert np.all(np.abs(level[active] - mu_star) < 1e-8 * mu_star)
            assert np.all(f[~active] >= mu_star - 1e-12)

        with pytest.raises(ValueError):
            pl.waterfill(np.vstack([gains, np.zeros(4)]), noise_var, budget)


class TestSvdPrecoder:
    def test_identity_channel(self):
        h = cm.ChannelTensor(np.eye(3)[None, :, :].astype(complex))
        pset = pl.svd_precoder(h, noise_var=0.1, budget=1.0)
        assert np.allclose(pset.sigma[0], 1.0)
        assert np.allclose(pset.g[0], np.eye(3), atol=1e-12)
        gram = pset.f[0].conj().T @ pset.f[0]
        assert np.allclose(gram, np.diag(pset.powers[0]), atol=1e-12)

    def test_diagonalizes_true_channel(self):
        rng = np.random.default_rng(15)
        h = random_channel(rng, 2, 4, 4)
        pset = pl.svd_precoder(h, noise_var=0.01, budget=1.0)
        for k in range(2):
            eff = pset.g[k].conj().T @ h.data[k] @ pset.f[k]
            off = eff - np.diag(np.diag(eff))
            assert np.abs(off).max() < 1e-8
            diag_energy = np.sum(np.abs(np.diag(eff)) ** 2)
            assert np.sum(np.abs(off) ** 2) < 1e-12 * diag_energy

    def test_singular_values_match_eigen_oracle(self):
        rng = np.random.default_rng(16)
        h = random_channel(rng, 1, 4, 4)
        pset = pl.svd_precoder(h, noise_var=0.01, budget=1.0)
        eig = np.linalg.eigvalsh(h.data[0].conj().T @ h.data[0])
        oracle = np.sqrt(np.maximum(eig, 0.0))[::-1]
        assert np.abs(np.sort(pset.sigma[0])[::-1] - oracle).max() < 1e-8

    def test_deterministic_sign_convention(self):
        rng = np.random.default_rng(17)
        h = random_channel(rng, 1, 3, 5)
        a = pl.svd_precoder(h, 0.1, 1.0)
        b = pl.svd_precoder(h, 0.1, 1.0)
        assert np.array_equal(a.f, b.f)
        for col in range(a.g.shape[2]):
            lead = a.g[0][np.argmax(np.abs(a.g[0][:, col])), col]
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    @staticmethod
    def desk_estimate(profile_name):
        profile = cm.load_cdl_profile(cm.shipped_profile_path(profile_name))
        h = cm.synthesize_csi(profile, cm.UraGeometry(4, 4), 4, 128, 15e3, 5)
        x = pl.generate_pilots(64, 16, 6)
        noise_var = pl.noise_var_from_snr(pl.LinkConfig(n_t=16, n_r=4, n_sc=128, snr_db=10.0))
        return pl.ls_estimate(x, pl.observe_pilots(h, x, noise_var, 7))

    @pytest.mark.parametrize(
        "source",
        [(4, 16), (4, 4), (8, 4), "cdl_c", "cdl_e"],
        ids=["wide", "square", "tall", "desk_cdl_c", "desk_cdl_e"],
    )
    def test_triplets_match_lapack(self, source):
        """The Gram path's singular values and canonical vectors against
        np.linalg.svd, on random channels of each shape and on desk-dims LS
        estimates."""
        if isinstance(source, str):
            h = self.desk_estimate(source)
        else:
            h = random_channel(np.random.default_rng(31), 64, *source)
        pset = pl.svd_precoder(h, noise_var=0.01, budget=1.0)
        u, s, vh = np.linalg.svd(h.data, full_matrices=False)
        v = vh.conj().transpose(0, 2, 1)
        # Every draw here has distinct singular values, so each vector is
        # unique up to the phase that _canonical_columns fixes.
        gaps = np.where(np.eye(s.shape[1], dtype=bool), np.inf, np.abs(s[:, :, None] - s[:, None, :]))
        assert np.all(gaps.min(axis=2) > 1e-3 * s[:, :1])
        assert np.all(np.abs(pset.sigma - s) < 1e-12 * s[:, :1])
        assert np.abs(pset.g - pl._canonical_columns(u)).max() < 1e-10
        v_gram = pset.f / np.sqrt(np.where(pset.powers > 0, pset.powers, 1.0))[:, None, :]
        powered = np.broadcast_to(pset.powers[:, None, :] > 0, v.shape)
        assert powered.any()
        assert np.abs(v_gram - pl._canonical_columns(v))[powered].max() < 1e-10

    @pytest.mark.parametrize("n_r, n_t", [(4, 16), (8, 4)], ids=["wide", "tall"])
    def test_rank_one_channel(self, n_r, n_t):
        """Null modes come out of the Gram at about 1e-8 * sigma_1 rather than
        LAPACK's 1e-16; everything stays finite and they get no power."""
        rng = np.random.default_rng(41)
        a = rng.normal(size=(8, n_r, 1)) + 1j * rng.normal(size=(8, n_r, 1))
        b = rng.normal(size=(8, 1, n_t)) + 1j * rng.normal(size=(8, 1, n_t))
        pset = pl.svd_precoder(cm.ChannelTensor(a @ b), noise_var=0.01, budget=1.0)
        for arr in (pset.f, pset.g, pset.sigma, pset.powers):
            assert np.all(np.isfinite(arr))
        top = np.linalg.svd(a @ b, compute_uv=False)[:, 0]
        assert np.allclose(pset.sigma[:, 0], top, rtol=1e-12)
        assert np.all(pset.sigma[:, 1:] < 1e-6 * top[:, None])
        assert np.all(pset.powers[:, 1:] == 0.0)
        assert np.allclose(pset.powers[:, 0], 1.0)

    @pytest.mark.parametrize("n_r, n_t", [(4, 4), (4, 8), (8, 4)])
    def test_tied_values_keep_lapack_order(self, n_r, n_t):
        """2*I has one fourfold singular value: the stable sort keeps eigh's
        column order, which is LAPACK's; reversing it would swap the streams."""
        h = 2.0 * np.eye(n_r, n_t, dtype=complex)[None]
        pset = pl.svd_precoder(cm.ChannelTensor(h), noise_var=0.1, budget=1.0)
        u, s, vh = np.linalg.svd(h, full_matrices=False)
        assert np.array_equal(pset.sigma, s)
        assert np.array_equal(pset.g, u)
        assert np.allclose(pset.f, vh.conj().transpose(0, 2, 1) * np.sqrt(pset.powers)[:, None, :], atol=1e-15)


class TestNoiseVar:
    cfg = pl.LinkConfig(n_t=16, n_r=4, n_sc=128, snr_db=0.0)

    def test_zero_db_reference_value(self):
        assert pl.noise_var_from_snr(self.cfg) == pytest.approx(1.0 / 2048.0, rel=1e-12)

    def test_ten_db_reduces_tenfold(self):
        cfg10 = pl.LinkConfig(n_t=16, n_r=4, n_sc=128, snr_db=10.0)
        ratio = pl.noise_var_from_snr(self.cfg) / pl.noise_var_from_snr(cfg10)
        assert ratio == pytest.approx(10.0, rel=1e-12)

    @pytest.mark.parametrize("snr_db", [4000.0, -4000.0])
    def test_out_of_range_snr_rejected(self, snr_db):
        # 10**400 overflows a float and 10**-400 underflows to zero.
        cfg = pl.LinkConfig(n_t=16, n_r=4, n_sc=128, snr_db=snr_db)
        with pytest.raises(ValueError, match="positive finite"):
            pl.noise_var_from_snr(cfg)


class TestRunLinkOnce:
    @staticmethod
    def desk_config(snr_db):
        return pl.LinkConfig(n_t=4, n_r=4, n_sc=32, snr_db=snr_db)

    @staticmethod
    def channel(seed):
        profile = cm.load_cdl_profile(cm.shipped_profile_path("cdl_e"))
        return cm.synthesize_csi(profile, cm.UraGeometry(2, 2), 4, 32, 15e3, seed)

    def test_perfect_csi_negligible_noise_zero_errors(self):
        cfg = self.desk_config(snr_db=90.0)
        h = self.channel(1)
        payload = np.random.default_rng(2).integers(0, 2, 5000, dtype=np.uint8)
        res = pl.run_link_once(pl.transmit_block(payload, cfg, 3), h, h, cfg)
        assert res.counts.bit_errors == 0
        assert res.crc_ok.all()
        assert np.array_equal(res.detected_bits, payload)

    def test_pure_noise_limit_half_ber(self):
        cfg = self.desk_config(snr_db=-60.0)
        h = self.channel(4)
        payload = np.random.default_rng(5).integers(0, 2, 20000, dtype=np.uint8)
        res = pl.run_link_once(pl.transmit_block(payload, cfg, 6), h, h, cfg)
        assert abs(res.counts.ber - 0.5) < 0.05

    def test_high_snr_sanity_band_cdl_e(self):
        profile = cm.load_cdl_profile(cm.shipped_profile_path("cdl_e"))
        cfg = pl.LinkConfig(n_t=16, n_r=4, n_sc=128, snr_db=30.0)
        total_err, total_bits = 0, 0
        for user in range(3):
            h = cm.synthesize_csi(profile, cm.UraGeometry(4, 4), 4, 128, 15e3, 100 + user)
            payload = np.random.default_rng(user).integers(0, 2, 40000, dtype=np.uint8)
            res = pl.run_link_once(pl.transmit_block(payload, cfg, 200 + user), h, h, cfg)
            total_err += res.counts.bit_errors
            total_bits += res.counts.bits_total
        assert total_err / total_bits < 1e-2

    def test_chain_determinism(self):
        cfg = self.desk_config(snr_db=10.0)
        h = self.channel(7)
        payload = np.random.default_rng(8).integers(0, 2, 3000, dtype=np.uint8)
        a = pl.run_link_once(pl.transmit_block(payload, cfg, 9), h, h, cfg)
        b = pl.run_link_once(pl.transmit_block(payload, cfg, 9), h, h, cfg)
        assert a.counts == b.counts
        assert np.array_equal(a.detected_bits, b.detected_bits)
        assert np.array_equal(a.crc_ok, b.crc_ok)

    def test_dimension_mismatch_rejected(self):
        cfg = self.desk_config(snr_db=10.0)
        h = self.channel(1)
        wrong = cm.ChannelTensor(np.ones((8, 4, 4), dtype=complex))
        with pytest.raises(ValueError):
            pl.run_link_once(pl.transmit_block(np.zeros(100, dtype=np.uint8), cfg, 0), wrong, wrong, cfg)

    @pytest.mark.parametrize(
        "other",
        [
            pytest.param(dict(n_sc=16), id="n_sc"),
            pytest.param(dict(n_r=2), id="n_streams"),
            pytest.param(dict(n_r=8), id="n_r"),
            # Same streams, codeword length and noise shape: only the config tells.
            pytest.param(dict(n_t=8), id="n_t"),
        ],
    )
    def test_block_framed_for_another_link_rejected(self, other):
        cfg = self.desk_config(snr_db=10.0)
        h = self.channel(1)
        tx = pl.transmit_block(np.zeros(1000, dtype=np.uint8), replace(cfg, **other), 0)
        with pytest.raises(ValueError, match="not framed for the link config"):
            pl.run_link_once(tx, h, h, cfg)

    def test_config_needs_a_payload_bit_per_codeword(self):
        """Four coded bits per subcarrier must leave room beside the six CRC
        bits: n_sc = 2 gives two-bit codewords, n_sc = 1 none."""
        cfg = pl.LinkConfig(n_t=1, n_r=1, n_sc=2, snr_db=10.0)
        assert cfg.codeword_len == 2
        assert pl.frame_codewords(np.ones(5, dtype=np.uint8), cfg).shape == (3, 2)
        with pytest.raises(ValueError, match="n_sc must be at least 2 .* degree-6 CRC, got 1"):
            pl.LinkConfig(n_t=1, n_r=1, n_sc=1, snr_db=10.0)

    def test_ber_monotone_in_snr_on_common_noise(self):
        h = self.channel(10)
        payload = np.random.default_rng(11).integers(0, 2, 20000, dtype=np.uint8)
        bers = []
        for snr in (0.0, 10.0, 20.0, 30.0):
            cfg = self.desk_config(snr)
            res = pl.run_link_once(pl.transmit_block(payload, cfg, 12), h, h, cfg)
            bers.append(res.counts.ber)
        assert all(a >= b - 1e-12 for a, b in zip(bers, bers[1:]))


def gray16_ber(gamma):
    """Exact bit error rate of Gray-mapped square 16-QAM on AWGN at symbol
    SNR gamma = Es/N0 (Cho & Yoon, IEEE Trans. Commun. 2002)."""
    x = np.sqrt(np.asarray(gamma) / 5.0)

    def q(v):  # Gaussian tail function
        return 0.5 * np.vectorize(math.erfc)(v / math.sqrt(2.0))

    return 0.25 * (3.0 * q(x) + 2.0 * q(3.0 * x) - q(5.0 * x))


class TestLinkClosedForm:
    """With perfect CSI, SVD precoding, the matched combiner and the
    per-stream scale 1/d (the MMSE weight with its gain undone) turn stream i
    on subcarrier k into an AWGN channel at SNR sigma_ki^2 * p_ki / sigma_n^2,
    so each stream's measured BER must match the subcarrier mean of the
    closed-form Gray 16-QAM BER."""

    N_SC, N_R, N_T = 128, 4, 16
    N_DRAWS = 6
    # Bound in binomial stderrs. The theory is conditioned on the drawn
    # channels, so only noise and payload are random. The binomial stderr
    # treats every bit as independent, but the two bits on one axis of a
    # symbol share a noise sample and err together, which can double the
    # variance; 5 binomial stderrs is still over 3.5 true stderrs. With
    # about 24 000 bits per stream this catches a 1 dB error in the noise
    # scaling, the gain correction or the power split.
    Z_BOUND = 5.0

    @pytest.mark.parametrize("snr_db", [-12.0, -10.0, -8.0, -5.0])
    def test_per_stream_ber_matches_gray_16qam(self, snr_db):
        cfg = pl.LinkConfig(n_t=self.N_T, n_r=self.N_R, n_sc=self.N_SC, snr_db=snr_db)
        noise_var = pl.noise_var_from_snr(cfg)
        n_s = cfg.n_streams
        rng = np.random.default_rng(20240611)
        errors = np.zeros(n_s)
        bits = np.zeros(n_s)
        theory = np.zeros(n_s)
        for draw in range(self.N_DRAWS):
            h = random_channel(rng, self.N_SC, self.N_R, self.N_T)
            # Whole codewords on every stream, so no row carries padding.
            payload = rng.integers(0, 2, 8 * n_s * cfg.codeword_len, dtype=np.uint8)
            res = pl.run_link_once(pl.transmit_block(payload, cfg, draw), h, h, cfg)
            pset = pl.svd_precoder(h, noise_var, cfg.subcarrier_power)
            assert np.all(pset.powers > 0), "every stream must be active on every subcarrier"

            # Codeword row i is carried by stream i % n_streams.
            wrong = (res.detected_bits != payload).reshape(-1, n_s, cfg.codeword_len)
            errors += wrong.sum(axis=(0, 2))
            bits += wrong[:, 0].size
            gamma = pset.sigma**2 * pset.powers / noise_var
            theory += gray16_ber(gamma).mean(axis=0) / self.N_DRAWS

        measured = errors / bits
        assert np.all((theory > 1e-3) & (theory < 0.4))
        stderr = np.sqrt(theory * (1.0 - theory) / bits)
        z = (measured - theory) / stderr
        assert np.all(np.abs(z) < self.Z_BOUND), (measured, theory, z)


def textbook_equalized_grid(tx, pset, h_true, h_recon, noise_var):
    """(W·chain·S + W·Gᴴ·N) / gain with the full MMSE solve per subcarrier,
    W = (H_effᴴ H_eff + σ²I)⁻¹ H_effᴴ on H_eff = Gᴴ h_recon F."""
    g_h = pset.g.conj().transpose(0, 2, 1)
    h_eff = g_h @ h_recon @ pset.f
    h_eff_h = h_eff.conj().transpose(0, 2, 1)
    w = np.linalg.solve(h_eff_h @ h_eff + noise_var * np.eye(h_eff.shape[-1]), h_eff_h)
    z = w @ (g_h @ h_true @ pset.f) @ tx.symbols + w @ g_h @ (math.sqrt(noise_var / 2.0) * tx.unit_noise)
    gain = np.real(np.einsum("ksm,kms->ks", w, h_eff))
    return z / np.where(gain > 1e-12, gain, 1.0)[:, :, None]


class TestEqualizedGrid:
    """The per-stream receiver of run_link_once against the textbook MMSE
    solve, on random 4x16 channels whose singular values span three decades,
    so waterfilling leaves some modes unpowered, and on reconstructions that
    miss the channel by an error of entry variance 1e-6."""

    N_SC, N_R, N_T = 16, 4, 16
    # Relative to the larger of the unit symbol energy and the entry itself.
    # The two forms differ by rounding, which the spread of the singular
    # values amplifies: up to about 5e-12 at 30 dB.
    REL_BOUND = 1e-9

    def spread_channel(self, rng):
        def orthonormal(n):
            shape = (self.N_SC, n, self.N_R)
            return np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]

        s = 10.0 ** rng.uniform(-3.0, 0.0, size=(self.N_SC, self.N_R))
        return (orthonormal(self.N_R) * s[:, None, :]) @ orthonormal(self.N_T).conj().transpose(0, 2, 1)

    @pytest.mark.parametrize("snr_db", [0.0, 15.0, 30.0])
    def test_matches_textbook_mmse(self, snr_db):
        rng = np.random.default_rng(int(snr_db) + 70)
        cfg = pl.LinkConfig(n_t=self.N_T, n_r=self.N_R, n_sc=self.N_SC, snr_db=snr_db)
        noise_var = pl.noise_var_from_snr(cfg)
        unpowered = 0
        for draw in range(8):
            h_true = self.spread_channel(rng)
            h_recon = h_true + 1e-3 * random_channel(rng, self.N_SC, self.N_R, self.N_T).data
            tx = pl.transmit_block(rng.integers(0, 2, 4000, dtype=np.uint8), cfg, draw)
            pset = pl.svd_precoder(cm.ChannelTensor(h_recon), noise_var, cfg.subcarrier_power)
            with np.errstate(all="raise"):
                z = pl._equalized_grid(tx, pset, h_true, h_recon, noise_var)
            ref = textbook_equalized_grid(tx, pset, h_true, h_recon, noise_var)
            assert np.all(np.abs(z - ref) <= self.REL_BOUND * np.maximum(1.0, np.abs(ref)))
            off = pset.powers == 0
            assert np.all(z[off] == 0)
            unpowered += np.count_nonzero(off)
        assert unpowered > 0


def lapack_precoder(h_recon, noise_var, budget):
    """Combiner g and precoder f of svd_precoder, with the singular triplets
    from np.linalg.svd rather than the precoder's Gram path."""
    n_s = min(h_recon.data.shape[1:])
    u, s, vh = np.linalg.svd(h_recon.data, full_matrices=False)
    u = pl._canonical_columns(u[:, :, :n_s])
    v = pl._canonical_columns(vh.conj().transpose(0, 2, 1)[:, :, :n_s])
    powers = pl.waterfill(s[:, :n_s], noise_var, budget)
    return u, v * np.sqrt(powers)[:, None, :]


def einsum_link_counts(payload, h_true, h_recon, cfg, seed):
    """The link chain of run_link_once written with the textbook einsum
    products (and the einsum MMSE Gram) and a LAPACK SVD precoder, every
    other step shared."""
    noise_var = pl.noise_var_from_snr(cfg)
    rng = np.random.default_rng(seed)
    tx_cw = pl.frame_codewords(payload, cfg)
    n_cw, l_cw = tx_cw.shape
    n_periods = n_cw // cfg.n_streams
    coded = np.concatenate([tx_cw, pl.crc_remainder_many(tx_cw)], axis=1)
    symbols = pl.qam16_modulate(coded.reshape(-1)).reshape(n_periods, cfg.n_streams, cfg.n_sc)
    s_grid = symbols.transpose(2, 1, 0)

    g, f = lapack_precoder(h_recon, noise_var, cfg.subcarrier_power)
    g_h = g.conj().transpose(0, 2, 1)
    h_eff = np.einsum("ksr,krt,ktm->ksm", g_h, h_recon.data, f)
    gram = np.einsum("kij,kil->kjl", h_eff.conj(), h_eff) + noise_var * np.eye(h_eff.shape[-1])
    w = np.linalg.solve(gram, h_eff.conj().transpose(0, 2, 1))
    chain_true = np.einsum("ksr,krt,ktm->ksm", g_h, h_true.data, f)
    a = np.einsum("ksm,kmn->ksn", w, chain_true)
    b = np.einsum("ksm,kmr->ksr", w, g_h)
    shape = (cfg.n_sc, cfg.n_r, n_periods)
    noise = math.sqrt(noise_var / 2.0) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    z = np.einsum("ksn,knp->ksp", a, s_grid) + np.einsum("ksr,krp->ksp", b, noise)
    gain = np.real(np.einsum("ksm,kms->ks", w, h_eff))
    z = z / np.where(gain > 1e-12, gain, 1.0)[:, :, None]

    rx_rows = pl.qam16_detect(z.transpose(2, 1, 0).reshape(-1)).reshape(n_cw, l_cw + cfg.crc_degree)
    crc_ok = pl.crc_check_many(rx_rows)
    return ErrorCounts(
        bit_errors=int(np.sum(rx_rows[:, :l_cw] != tx_cw)),
        bits_total=tx_cw.size,
        block_errors=int(np.sum(~crc_ok)),
        blocks_total=n_cw,
    )


class TestLinkMatchesEinsumChain:
    """run_link_once forms its per-subcarrier products with stacked matmul,
    its singular triplets from the short-side Gram and its equalizer as one
    complex scale per stream. Those differ from the einsum form, LAPACK's SVD
    and the MMSE solve only in the last bits of each entry, and such
    a shift moves no detection decision except on a draw that lands within it
    of a decision boundary, so the error counts must be equal."""

    @pytest.mark.parametrize("n_r", [2, 4], ids=["tiny", "square"])
    @pytest.mark.parametrize("profile_name", ["cdl_e", "cdl_c"])
    def test_counts_equal_on_noisy_estimates(self, profile_name, n_r):
        profile = cm.load_cdl_profile(cm.shipped_profile_path(profile_name))
        geom = cm.UraGeometry(2, 2)
        n_sc = 16
        for seed in range(20):
            h = cm.synthesize_csi(profile, geom, n_r, n_sc, 15e3, seed)
            payload = np.random.default_rng(seed).integers(0, 2, 2000, dtype=np.uint8)
            x = pl.generate_pilots(8, geom.n_elements, seed)
            for snr_db in (0.0, 10.0, 20.0):
                cfg = pl.LinkConfig(n_t=geom.n_elements, n_r=n_r, n_sc=n_sc, snr_db=snr_db)
                noise_var = pl.noise_var_from_snr(cfg)
                h_recon = pl.ls_estimate(x, pl.observe_pilots(h, x, noise_var, seed=1000 + seed))
                res = pl.run_link_once(pl.transmit_block(payload, cfg, 2000 + seed), h, h_recon, cfg)
                assert res.counts == einsum_link_counts(payload, h, h_recon, cfg, 2000 + seed), (seed, snr_db)

    @pytest.mark.parametrize("profile_name, snr_db", [("cdl_e", 0.0), ("cdl_c", 30.0)])
    def test_counts_equal_at_desk_dims(self, profile_name, snr_db):
        """128 subcarriers, 4 receive antennas and a 4x4 URA with 64 pilots,
        as in the desk sweep. On CDL-E at 0 dB waterfilling leaves streams 3
        and 4 partly or wholly unpowered, so the zero-gain branch of the
        per-stream receiver runs."""
        profile = cm.load_cdl_profile(cm.shipped_profile_path(profile_name))
        geom = cm.UraGeometry(4, 4)
        cfg = pl.LinkConfig(n_t=geom.n_elements, n_r=4, n_sc=128, snr_db=snr_db)
        noise_var = pl.noise_var_from_snr(cfg)
        unpowered = 0
        for seed in range(3):
            h = cm.synthesize_csi(profile, geom, cfg.n_r, cfg.n_sc, 15e3, 300 + seed)
            x = pl.generate_pilots(64, geom.n_elements, seed)
            h_recon = pl.ls_estimate(x, pl.observe_pilots(h, x, noise_var, seed=1000 + seed))
            payload = np.random.default_rng(seed).integers(0, 2, 100_000, dtype=np.uint8)
            res = pl.run_link_once(pl.transmit_block(payload, cfg, 2000 + seed), h, h_recon, cfg)
            assert res.counts == einsum_link_counts(payload, h, h_recon, cfg, 2000 + seed), seed
            unpowered += np.count_nonzero(pl.svd_precoder(h_recon, noise_var, cfg.subcarrier_power).powers == 0)
        if profile_name == "cdl_e":
            assert unpowered > 0
