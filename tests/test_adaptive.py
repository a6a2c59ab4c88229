import csv
from collections import defaultdict

import numpy as np
import pytest

from csilink import adaptive as ad
from csilink.metrics import ErrorCounts


def row(rho, kappa, bler):
    """The sweep-row fields the policy reads."""
    return {"rho_db": rho, "kappa": kappa, "bler": bler}


RHOS = (0.0, 5.0, 10.0)


class TestBuildDataset:
    def test_two_records_average(self):
        ds = ad.build_dataset([row(5.0, 0.5, 0.0), row(5.0, 0.5, 0.2)])
        assert ds[5.0][0.5] == pytest.approx(0.1)

    def test_single_record_passthrough(self):
        ds = ad.build_dataset([row(10.0, 0.1, 0.33)])
        assert ds[10.0][0.1] == pytest.approx(0.33)

    def test_empty_input_is_valid(self):
        assert ad.build_dataset([]) == {}

    def test_matches_group_by_oracle(self):
        rng = np.random.default_rng(1)
        kappas = (0.1, 0.5, 0.7)
        rows = [
            row(float(rng.choice(RHOS)), float(rng.choice(kappas)), float(rng.uniform(0, 1)))
            for _ in range(1000)
        ]
        ds = ad.build_dataset(rows)

        groups = {}
        for r in rows:
            groups.setdefault((r["rho_db"], r["kappa"]), []).append(r)
        assert {(rho, k) for rho, cells in ds.items() for k in cells} == set(groups)
        for (rho, k), members in groups.items():
            assert ds[rho][k] == pytest.approx(np.mean([r["bler"] for r in members]))

    def test_deterministic_ordering(self):
        rows = [row(rho, k, 0.1 * i) for i, (rho, k) in enumerate(((5.0, 0.7), (0.0, 0.1), (0.0, 0.5)))]
        a = ad.build_dataset(rows)
        b = ad.build_dataset(list(reversed(rows)))
        def order(ds):
            return [(rho, list(cells)) for rho, cells in ds.items()]

        assert order(a) == order(b)


def chosen(blers, b_max):
    """The ratio policy_table picks from one SNR's {kappa: bler}."""
    return ad.policy_table({5.0: blers}, b_max).entries[0].kappa


def two_step_entry(blers, b_max):
    """Reference policy for one SNR's {kappa: bler}, as (kappa, measured_bler):
    filter the compressed ratios by the ceiling, then take the argmin, ties
    toward the larger ratio. A baseline entry records the best compressed
    BLER, the one that missed the ceiling."""
    compressed = [(bler, -kappa, kappa) for kappa, bler in blers.items() if kappa != ad.NO_COMPRESSION]
    qualified = [c for c in compressed if c[0] <= b_max]
    if qualified:
        kappa = min(qualified)[2]
        return kappa, blers[kappa]
    return ad.NO_COMPRESSION, min(c[0] for c in compressed)


class TestSelectKappa:
    """The ratio policy_table selects at one SNR."""

    def test_constrained_argmin(self):
        assert chosen({0.1: 0.05, 0.5: 0.02, 0.7: 0.3}, b_max=0.1) == 0.5

    def test_all_above_ceiling_falls_back(self):
        assert chosen({0.1: 0.2, 0.5: 0.3, 0.7: 0.9}, b_max=0.1) == ad.NO_COMPRESSION

    def test_tie_breaks_toward_more_compression(self):
        assert chosen({0.1: 0.02, 0.5: 0.02}, b_max=0.1) == 0.5

    def test_baseline_rows_are_not_candidates(self):
        assert chosen({0.0: 0.0, 0.1: 0.05}, b_max=0.1) == 0.1

    def test_no_compressed_measurement_errors(self):
        with pytest.raises(ad.PolicyError):
            chosen({0.0: 0.0}, b_max=0.1)

    def test_unconstrained_via_unit_ceiling(self):
        assert chosen({0.1: 0.4, 0.5: 0.6, 0.7: 0.2}, b_max=1.0) == 0.7

    def test_matches_two_step_reference(self):
        """One argmin then the ceiling test equals the ceiling filter then the
        argmin, on random tables drawn so that ties, BLERs equal to b_max and
        a baseline column are common."""
        rng = np.random.default_rng(3)
        levels = (0.0, 0.05, 0.1, 0.2, 0.5, 1.0)
        kappas = (0.1, 0.3, 0.5, 0.7, 0.9)
        seen = {"tie": 0, "at ceiling": 0, "baseline column": 0, "compressed": 0, "fallback": 0}
        for _ in range(10_000):
            ratios = rng.choice(kappas, size=rng.integers(1, len(kappas) + 1), replace=False)
            blers = {
                float(k): float(rng.choice(levels)) if rng.random() < 0.7 else float(rng.uniform(0, 1))
                for k in ratios
            }
            if rng.random() < 0.5:
                blers[ad.NO_COMPRESSION] = float(rng.choice(levels))
            b_max = float(rng.choice(levels)) if rng.random() < 0.8 else float(rng.uniform(0, 1))

            entry = ad.policy_table({5.0: blers}, b_max).entries[0]
            assert (entry.kappa, entry.measured_bler) == two_step_entry(blers, b_max), (blers, b_max)

            compressed = [b for k, b in blers.items() if k != ad.NO_COMPRESSION]
            seen["tie"] += compressed.count(min(compressed)) > 1
            seen["at ceiling"] += b_max in compressed
            seen["baseline column"] += ad.NO_COMPRESSION in blers
            seen["compressed" if entry.kappa != ad.NO_COMPRESSION else "fallback"] += 1
        assert min(seen.values()) > 1000, seen


class TestPolicyTable:
    def test_buckets_partition_and_export_round_trip(self, tmp_path):
        rows = [row(r, k, b)
                for r, cells in ((0.0, {0.1: 0.5, 0.5: 0.6}), (5.0, {0.1: 0.05, 0.5: 0.3}),
                                 (10.0, {0.1: 0.01, 0.5: 0.004}))
                for k, b in cells.items()]
        table = ad.policy_table(ad.build_dataset(rows), b_max=0.1)
        assert [e.kappa for e in table.entries] == [ad.NO_COMPRESSION, 0.1, 0.5]
        assert table.kappa_for(-3.0) == ad.NO_COMPRESSION
        assert table.kappa_for(7.4) == 0.1
        assert table.kappa_for(40.0) == 0.5

        path = tmp_path / "policy.csv"
        ad.export_policy_csv(table, path)
        with open(path, newline="", encoding="utf-8") as fh:
            assert fh.read() == (
                "bucket_low_db,bucket_high_db,kappa_or_baseline,measured_bler\r\n"
                "-inf,2.5,baseline,0.5\r\n"
                "2.5,7.5,0.1,0.05\r\n"
                "7.5,inf,0.5,0.004\r\n"
            )
        with open(path, newline="", encoding="utf-8") as fh:
            back = [
                ad.PolicyEntry(float(r["bucket_low_db"]), float(r["bucket_high_db"]),
                               ad.NO_COMPRESSION if r["kappa_or_baseline"] == "baseline"
                               else float(r["kappa_or_baseline"]),
                               float(r["measured_bler"]))
                for r in csv.DictReader(fh)
            ]
        assert tuple(back) == table.entries


class TestRunAdaptive:
    def test_policy_collapse_to_dominant_ratio(self):
        rhos = (0.0, 5.0, 10.0)
        ds = ad.build_dataset([row(r, k, bler)
                               for r in rhos
                               for k, bler in ((0.1, 0.08), (0.5, 0.01), (0.7, 0.2))])
        counts = {
            (k, r): ErrorCounts(0, 0, 10 + int(r) + n, 1000)
            for r in rhos
            for n, k in enumerate((ad.NO_COMPRESSION, 0.1, 0.5))
        }

        rows = ad.run_adaptive(ad.policy_table(ds, b_max=0.1), rhos, 0.1, counts)
        assert [r["kappa_star"] for r in rows] == [0.5, 0.5, 0.5]
        for r, rho in zip(rows, rhos):
            for trace, k in (("adaptive", 0.5), ("static", 0.1), ("uncompressed", ad.NO_COMPRESSION)):
                assert (r[f"bler_{trace}"], r[f"bler_{trace}_stderr"]) == (
                    counts[(k, rho)].bler, counts[(k, rho)].bler_stderr
                )

    def test_never_selects_ratio_violating_ceiling(self):
        rng = np.random.default_rng(2)
        rhos = (0.0, 5.0, 10.0)
        ds = ad.build_dataset([row(r, k, float(rng.uniform(0, 1)))
                               for r in rhos for k in (0.1, 0.5, 0.7) for _ in range(3)])
        rows = ad.run_adaptive(ad.policy_table(ds, b_max=0.1), rhos, 0.5, defaultdict(ErrorCounts))
        for r in rows:
            if r["kappa_star"] != ad.NO_COMPRESSION:
                assert ds[r["rho_db"]][r["kappa_star"]] <= 0.1
