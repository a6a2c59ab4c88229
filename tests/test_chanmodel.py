import json
import math

import numpy as np
import pytest

from csilink import chanmodel as cm


def make_profile(specs, name="synthetic"):
    """Clusters from (delay_s, linear_power, aod_az, aod_zen, aoa_az, aoa_zen);
    powers are normalized here so tests can speak in linear ratios."""
    total = sum(s[1] for s in specs)
    clusters = tuple(
        cm.Cluster(s[0], s[1] / total, s[2], s[3], s[4], s[5]) for s in specs
    )
    return cm.CdlProfile(name=name, clusters=clusters)


def write_profile(tmp_path, clusters, name="test", **keys):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"name": name, "clusters": clusters, **keys}))
    return path


CLUSTER = dict(delay_s=0.0, power_db=0.0, aod_az_deg=0, aod_zen_deg=90, aoa_az_deg=0, aoa_zen_deg=90)


class TestLoadProfile:
    def test_single_cluster_normalizes_to_unit_power(self, tmp_path):
        path = write_profile(
            tmp_path,
            [dict(delay_s=0.0, power_db=10 * math.log10(5.0), aod_az_deg=0, aod_zen_deg=90,
                  aoa_az_deg=0, aoa_zen_deg=90)],
        )
        profile = cm.load_cdl_profile(path)
        assert profile.n_clusters == 1
        assert profile.clusters[0].power == pytest.approx(1.0, abs=1e-12)

    def test_two_clusters_proportional_normalization(self, tmp_path):
        path = write_profile(
            tmp_path,
            [
                dict(delay_s=0.0, power_db=10 * math.log10(3.0), aod_az_deg=0, aod_zen_deg=90,
                     aoa_az_deg=0, aoa_zen_deg=90),
                dict(delay_s=1e-9, power_db=0.0, aod_az_deg=10, aod_zen_deg=90,
                     aoa_az_deg=10, aoa_zen_deg=90),
            ],
        )
        profile = cm.load_cdl_profile(path)
        assert profile.clusters[0].power == pytest.approx(0.75, abs=1e-12)
        assert profile.clusters[1].power == pytest.approx(0.25, abs=1e-12)

    def test_shipped_cdl_c_is_24_cluster_nlos(self):
        profile = cm.load_cdl_profile(cm.shipped_profile_path("cdl_c"))
        assert profile.name == "CDL-C"
        assert profile.n_clusters == 24
        assert sum(c.power for c in profile.clusters) == pytest.approx(1.0, abs=1e-12)

    def test_shipped_cdl_e_is_los(self):
        profile = cm.load_cdl_profile(cm.shipped_profile_path("cdl_e"))
        assert sum(c.power for c in profile.clusters) == pytest.approx(1.0, abs=1e-12)

    def test_missing_field_names_offender(self, tmp_path):
        path = write_profile(
            tmp_path,
            [dict(delay_s=0.0, aod_az_deg=0, aod_zen_deg=90, aoa_az_deg=0, aoa_zen_deg=90)],
        )
        with pytest.raises(cm.ProfileSchemaError, match="power_db"):
            cm.load_cdl_profile(path)

    def test_empty_cluster_list_rejected(self, tmp_path):
        path = write_profile(tmp_path, [])
        with pytest.raises(cm.ProfileSchemaError):
            cm.load_cdl_profile(path)

    def test_preserves_cluster_order(self, tmp_path):
        path = write_profile(
            tmp_path,
            [
                dict(delay_s=5e-9, power_db=0.0, aod_az_deg=1, aod_zen_deg=90, aoa_az_deg=2, aoa_zen_deg=90),
                dict(delay_s=1e-9, power_db=-3.0, aod_az_deg=3, aod_zen_deg=90, aoa_az_deg=4, aoa_zen_deg=90),
            ],
        )
        profile = cm.load_cdl_profile(path)
        assert [c.delay_s for c in profile.clusters] == [5e-9, 1e-9]

    # Each key of a profile file is read by a run or rejected at load, and
    # each cluster value is a finite JSON number.
    def test_comment_is_accepted(self, tmp_path):
        path = write_profile(tmp_path, [CLUSTER], comment="for readers")
        assert cm.load_cdl_profile(path).name == "test"

    @pytest.mark.parametrize("key", ["los", "delay_spread_s"])
    def test_unread_top_level_key_is_rejected(self, tmp_path, key):
        path = write_profile(tmp_path, [CLUSTER], **{key: True})
        with pytest.raises(cm.ProfileSchemaError, match=key):
            cm.load_cdl_profile(path)

    def test_unread_cluster_key_is_rejected(self, tmp_path):
        path = write_profile(tmp_path, [{**CLUSTER, "xpr_db": 8.0}])
        with pytest.raises(cm.ProfileSchemaError, match="cluster 0: unknown fields.*xpr_db"):
            cm.load_cdl_profile(path)

    @pytest.mark.parametrize(
        "field, value",
        [("power_db", True), ("aod_az_deg", math.inf), ("aoa_zen_deg", -math.inf), ("aod_zen_deg", math.nan),
         ("power_db", 4000.0), ("aod_az_deg", 10**401)],
        ids=["bool-power", "inf-angle", "minus-inf-angle", "nan-angle", "overflowing-power", "too-large-int-angle"],
    )
    def test_cluster_value_must_be_a_finite_number(self, tmp_path, field, value):
        path = write_profile(tmp_path, [CLUSTER, {**CLUSTER, field: value}])
        with pytest.raises(cm.ProfileSchemaError, match=f"cluster 1: field '{field}'"):
            cm.load_cdl_profile(path)

    def test_power_that_underflows_to_zero_gain_is_rejected(self, tmp_path):
        """With every gain 0 the normalization would divide by a zero sum."""
        path = write_profile(tmp_path, [{**CLUSTER, "power_db": -4000.0}])
        with pytest.raises(cm.ProfileSchemaError, match="cluster 0: field 'power_db' underflows"):
            cm.load_cdl_profile(path)

    @pytest.mark.parametrize("name", [5, "a/b", "a\0b"])
    def test_name_must_be_a_file_name_string(self, tmp_path, name):
        path = write_profile(tmp_path, [CLUSTER], name=name)
        with pytest.raises(cm.ProfileSchemaError, match="'name' must be a string"):
            cm.load_cdl_profile(path)

    def test_cluster_must_be_an_object(self, tmp_path):
        path = write_profile(tmp_path, [CLUSTER, 5])
        with pytest.raises(cm.ProfileSchemaError, match="cluster 1 must be a JSON object"):
            cm.load_cdl_profile(path)


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        for geom in (cm.UraGeometry(1, 1), cm.UraGeometry(3, 5), cm.UraGeometry(4, 4)):
            a = cm.steering_vector(geom, azimuth=1.3, zenith=0.0)
            assert np.allclose(a, np.ones(geom.n_elements))

    def test_two_element_endfire_phase_is_pi(self):
        a = cm.steering_vector(cm.UraGeometry(1, 2), azimuth=0.0, zenith=math.pi / 2)
        assert np.allclose(a, [1.0, -1.0], atol=1e-12)

    def test_2x2_diagonal_hand_computed_phases(self):
        # u = v = 1/sqrt(2); phases pi*(c*u + r*v) row-major.
        a = cm.steering_vector(cm.UraGeometry(2, 2), azimuth=math.pi / 4, zenith=math.pi / 2)
        expected = np.exp(1j * np.array([0.0, math.pi / math.sqrt(2),
                                         math.pi / math.sqrt(2), 2 * math.pi / math.sqrt(2)]))
        assert np.allclose(a, expected, atol=1e-12)

    def test_unit_magnitude(self):
        a = cm.steering_vector(cm.UraGeometry(3, 4), azimuth=0.7, zenith=1.1)
        assert np.allclose(np.abs(a), 1.0)


def einsum_oracle(profile, tx, n_r, n_sc, delta_f, phases):
    """The channel as one four-operand einsum over the clusters, from factors
    built here from the public steering functions."""
    clusters = profile.clusters
    gains = np.sqrt([c.power for c in clusters]) * np.exp(1j * phases)
    delays = np.array([c.delay_s for c in clusters])
    freq = np.exp(-1j * 2 * math.pi * delays[:, None] * np.arange(n_sc)[None, :] * delta_f)
    a_rx = np.stack([cm.ula_steering(n_r, c.aoa_az, c.aoa_zen) for c in clusters])
    a_tx = np.stack([cm.steering_vector(tx, c.aod_az, c.aod_zen) for c in clusters])
    return np.einsum("c,ck,cr,ct->krt", gains, freq, a_rx, a_tx.conj())


# (n_sc, n_r, URA rows, URA cols): the desk geometry, a single rx antenna and
# a single tx element among them.
ORACLE_GEOMETRIES = [(128, 4, 4, 4), (16, 2, 1, 4), (8, 1, 2, 2), (3, 3, 1, 1)]


class TestSynthesizeCsi:
    ura = cm.UraGeometry(2, 2)

    def test_zero_delay_cluster_flat_across_subcarriers(self):
        profile = make_profile([(0.0, 1.0, 0.3, 1.2, -0.4, 1.5)])
        h = cm.synthesize_csi(profile, self.ura, 2, 8, 15e3, seed=11)
        for k in range(1, 8):
            assert np.allclose(h.data[k], h.data[0], atol=1e-14)

    def test_single_delay_rotates_linearly(self):
        tau = 3e-7
        delta_f = 15e3
        profile = make_profile([(tau, 1.0, 0.3, 1.2, -0.4, 1.5)])
        h = cm.synthesize_csi(profile, self.ura, 2, 4, delta_f, seed=5)
        rot = np.exp(-2j * math.pi * tau * delta_f)
        assert np.allclose(h.data[1], h.data[0] * rot, atol=1e-14)

    def test_two_clusters_match_loop_oracle(self):
        profile = make_profile(
            [(0.0, 2.0, 0.3, 1.2, -0.4, 1.5), (2e-7, 1.0, -0.9, 1.4, 0.8, 1.7)]
        )
        n_r, n_sc, delta_f, seed = 2, 6, 15e3, 77
        h = cm.synthesize_csi(profile, self.ura, n_r, n_sc, delta_f, seed)

        phases = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, 2)
        oracle = np.zeros((n_sc, n_r, self.ura.n_elements), dtype=complex)
        for c, cluster in enumerate(profile.clusters):
            a_r = cm.steering_vector(cm.UraGeometry(1, n_r), cluster.aoa_az, cluster.aoa_zen)
            a_t = cm.steering_vector(self.ura, cluster.aod_az, cluster.aod_zen)
            gain = math.sqrt(cluster.power) * np.exp(1j * phases[c])
            for k in range(n_sc):
                rot = np.exp(-2j * math.pi * cluster.delay_s * k * delta_f)
                for r in range(n_r):
                    for t in range(self.ura.n_elements):
                        oracle[k, r, t] += gain * rot * a_r[r] * np.conj(a_t[t])
        assert np.abs(h.data - oracle).max() < 1e-12

    @pytest.mark.parametrize("name", ["cdl_c", "cdl_e"])
    @pytest.mark.parametrize("n_sc, n_r, rows, cols", ORACLE_GEOMETRIES)
    def test_matches_einsum_oracle_bit_for_bit(self, name, n_sc, n_r, rows, cols):
        profile = cm.load_cdl_profile(cm.shipped_profile_path(name))
        tx = cm.UraGeometry(rows, cols)
        for seed in range(100):
            h = cm.synthesize_csi(profile, tx, n_r, n_sc, 15e3, seed)
            phases = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, profile.n_clusters)
            assert np.array_equal(h.data, einsum_oracle(profile, tx, n_r, n_sc, 15e3, phases))

    def test_dimension_validation(self):
        profile = make_profile([(0.0, 1.0, 0.0, 1.5, 0.0, 1.5)])
        with pytest.raises(ValueError):
            cm.synthesize_csi(profile, self.ura, 0, 8, 15e3, seed=1)
        with pytest.raises(ValueError):
            cm.synthesize_csi(profile, self.ura, 2, 8, -1.0, seed=1)

    def test_single_cluster_channels_are_rank_one(self):
        profile = make_profile([(1e-7, 1.0, 0.4, 1.3, -0.2, 1.6)])
        h = cm.synthesize_csi(profile, self.ura, 3, 5, 15e3, seed=2)
        for k in range(5):
            assert np.linalg.matrix_rank(h.data[k], tol=1e-9) == 1

    def test_power_normalization_over_seeds(self):
        profile = make_profile(
            [(0.0, 1.0, 0.2, 1.5, 0.1, 1.5), (1e-7, 0.5, -0.7, 1.4, 0.9, 1.6),
             (3e-7, 0.2, 1.1, 1.6, -1.2, 1.4)]
        )
        ura = cm.UraGeometry(2, 2)
        n_r, n_sc = 2, 8
        vals = []
        for seed in range(200):
            h = cm.synthesize_csi(profile, ura, n_r, n_sc, 15e3, seed)
            vals.append(np.sum(np.abs(h.data) ** 2) / (n_sc * n_r * ura.n_elements))
        assert abs(np.mean(vals) - 1.0) < 0.05

    def test_adjacent_subcarrier_correlation_approaches_one_at_zero_delay(self):
        zero = make_profile(
            [(0.0, 1.0, 0.2, 1.5, 0.1, 1.5), (0.0, 0.7, -0.7, 1.4, 0.9, 1.6)]
        )
        h = cm.synthesize_csi(zero, self.ura, 2, 8, 15e3, seed=9)
        a, b = h.data[0].ravel(), h.data[1].ravel()
        corr = abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert corr == pytest.approx(1.0, abs=1e-12)

        spread = make_profile(
            [(0.0, 1.0, 0.2, 1.5, 0.1, 1.5), (2e-5, 0.7, -0.7, 1.4, 0.9, 1.6)]
        )
        h2 = cm.synthesize_csi(spread, self.ura, 2, 8, 15e3, seed=9)
        a2, b2 = h2.data[0].ravel(), h2.data[1].ravel()
        corr2 = abs(np.vdot(a2, b2)) / (np.linalg.norm(a2) * np.linalg.norm(b2))
        assert corr2 < corr


class TestBlockFading:
    ura = cm.UraGeometry(2, 2)
    profile = make_profile(
        [(0.0, 1.0, 0.2, 1.5, 0.1, 1.5), (1e-7, 0.5, -0.7, 1.4, 0.9, 1.6)]
    )

    def test_single_block_matches_synthesize(self):
        blocks = cm.draw_block_fading(self.profile, self.ura, 2, 8, 15e3, seed=31, n_blocks=1)
        direct = cm.synthesize_csi(self.profile, self.ura, 2, 8, 15e3, seed=31)
        assert np.array_equal(blocks[0].data, direct.data)

    def test_blocks_are_distinct(self):
        blocks = cm.draw_block_fading(self.profile, self.ura, 2, 8, 15e3, seed=31, n_blocks=2)
        assert not np.allclose(blocks[0].data, blocks[1].data)

    def test_deterministic_per_seed_and_index(self):
        a = cm.draw_block_fading(self.profile, self.ura, 2, 8, 15e3, seed=31, n_blocks=3)
        b = cm.draw_block_fading(self.profile, self.ura, 2, 8, 15e3, seed=31, n_blocks=3)
        for x, y in zip(a, b):
            assert np.array_equal(x.data, y.data)

    @pytest.mark.parametrize("name", ["cdl_c", "cdl_e"])
    @pytest.mark.parametrize("n_sc, n_r, rows, cols", ORACLE_GEOMETRIES)
    def test_matches_einsum_oracle_bit_for_bit(self, name, n_sc, n_r, rows, cols):
        profile = cm.load_cdl_profile(cm.shipped_profile_path(name))
        tx = cm.UraGeometry(rows, cols)
        for seed in range(100):
            blocks = cm.draw_block_fading(profile, tx, n_r, n_sc, 15e3, seed, n_blocks=2)
            phases = np.random.default_rng(seed).uniform(0.0, 2 * math.pi, (2, profile.n_clusters))
            for h, ph in zip(blocks, phases):
                assert np.array_equal(h.data, einsum_oracle(profile, tx, n_r, n_sc, 15e3, ph))

    def test_invalid_block_count(self):
        with pytest.raises(ValueError):
            cm.draw_block_fading(self.profile, self.ura, 2, 8, 15e3, seed=1, n_blocks=0)


@pytest.mark.parametrize(
    "draw",
    [
        pytest.param(lambda *args: cm.synthesize_csi(*args, seed=1), id="synthesize_csi"),
        pytest.param(lambda *args: cm.draw_block_fading(*args, seed=1, n_blocks=2), id="draw_block_fading"),
    ],
)
@pytest.mark.parametrize(
    "n_r, n_sc, delta_f, message",
    [
        pytest.param(0, 8, 15e3, "n_r and n_sc", id="no_rx"),
        pytest.param(2, 0, 15e3, "n_r and n_sc", id="no_subcarriers"),
        pytest.param(2, 8, 0.0, "delta_f", id="zero_spacing"),
        pytest.param(2, 8, -1.0, "delta_f", id="negative_spacing"),
    ],
)
def test_both_draws_check_their_arguments(draw, n_r, n_sc, delta_f, message):
    profile = make_profile([(0.0, 1.0, 0.0, 1.5, 0.0, 1.5)])
    with pytest.raises(ValueError, match=message):
        draw(profile, cm.UraGeometry(2, 2), n_r, n_sc, delta_f)


@pytest.mark.parametrize("name, rank", [("cdl_c", 48), ("cdl_e", 28)])
def test_realified_draws_span_two_dimensions_per_distinct_cluster(name, rank):
    """Each draw is a sum over clusters of a random unit phasor times a fixed
    complex vector, so realified draws span two real dimensions per distinct
    (delay, angles) cluster, and clusters that share all of these merge. The
    rank comes from the draws alone, not from a copy of the synthesis
    formula: a random phase per antenna, a dropped cluster or two clusters
    drawing one phase change it. The fixed steering and delay factors are
    left to the oracles. Desk dims: 128 subcarriers, 4 rx, 4x4 tx."""
    profile = cm.load_cdl_profile(cm.shipped_profile_path(name))
    distinct = {(c.delay_s, c.aod_az, c.aod_zen, c.aoa_az, c.aoa_zen) for c in profile.clusters}
    assert 2 * len(distinct) == rank
    rows = []
    for seed in range(120):
        h = cm.synthesize_csi(profile, cm.UraGeometry(4, 4), 4, 128, 15e3, seed).data
        rows.append(np.concatenate([h.real.ravel(), h.imag.ravel()]))
    s = np.linalg.svd(np.array(rows), compute_uv=False)
    assert int(np.sum(s > 1e-10 * s[0])) == rank
