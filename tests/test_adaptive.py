import numpy as np
import pytest

from csilink import adaptive as ad


def record(rho, kappa, bler, tag="CDL-X", ber=None, user=0):
    return ad.make_record(
        rho_db=rho,
        kappa=kappa,
        ber=bler / 2 if ber is None else ber,
        bler=bler,
        channel_tag=tag,
        user_seed=user,
    )


BUCKETS = (0.0, 5.0, 10.0)


class TestMeasurementRecord:
    def test_flag_matches_ceiling(self):
        assert record(0, 0.5, 0.2).exceeds_bmax
        assert not record(0, 0.5, 0.05).exceeds_bmax
        assert not record(0, 0.5, 0.1).exceeds_bmax  # boundary: not exceeded

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            ad.MeasurementRecord(0, 0.5, ber=1.5, bler=0.1, exceeds_bmax=False,
                                 channel_tag="x", user_seed=0)


class TestBuildDataset:
    def test_two_records_average(self):
        ds = ad.build_dataset(
            [record(5.0, 0.5, 0.0), record(5.0, 0.5, 0.2)], buckets=BUCKETS
        )
        cell = ds.cell("CDL-X", 5.0, 0.5)
        assert cell.bler == pytest.approx(0.1)
        assert cell.n_records == 2

    def test_single_record_passthrough(self):
        ds = ad.build_dataset([record(10.0, 0.1, 0.33)], buckets=BUCKETS)
        cell = ds.cell("CDL-X", 10.0, 0.1)
        assert cell.bler == pytest.approx(0.33)
        assert cell.n_records == 1

    def test_nearest_bucket_assignment(self):
        ds = ad.build_dataset([record(6.9, 0.5, 0.4)], buckets=BUCKETS)
        assert ("CDL-X", 5.0, 0.5) in ds.cells

    def test_empty_input_is_valid(self):
        ds = ad.build_dataset([], buckets=BUCKETS)
        assert ds.cells == {}

    def test_matches_group_by_oracle(self):
        rng = np.random.default_rng(1)
        kappas = (0.1, 0.5, 0.7)
        records = [
            record(
                float(rng.choice(BUCKETS)) + float(rng.uniform(-1, 1)),
                float(rng.choice(kappas)),
                float(rng.uniform(0, 1)),
                tag=str(rng.choice(["A", "B"])),
                user=int(rng.integers(0, 5)),
            )
            for _ in range(1000)
        ]
        ds = ad.build_dataset(records, buckets=BUCKETS)

        groups = {}
        for r in records:
            bucket = min(BUCKETS, key=lambda b: abs(r.rho_db - b))
            groups.setdefault((r.channel_tag, bucket, r.kappa), []).append(r)
        assert set(ds.cells) == set(groups)
        for key, rows in groups.items():
            assert ds.cells[key].bler == pytest.approx(np.mean([r.bler for r in rows]))
            assert ds.cells[key].ber == pytest.approx(np.mean([r.ber for r in rows]))
            assert ds.cells[key].n_records == len(rows)

    def test_deterministic_ordering(self):
        records = [record(0.0, k, 0.1 * i) for i, k in enumerate((0.7, 0.1, 0.5))]
        a = ad.build_dataset(records, BUCKETS)
        b = ad.build_dataset(list(reversed(records)), BUCKETS)
        assert list(a.cells) == list(b.cells)


def table_dataset(cells, tag="CDL-X", buckets=(10.0,)):
    records = []
    for kappa, bler in cells.items():
        records.append(record(buckets[0], kappa, bler, tag=tag))
    return ad.build_dataset(records, buckets=buckets)


class TestSelectKappa:
    def test_constrained_argmin(self):
        ds = table_dataset({0.1: 0.05, 0.5: 0.02, 0.7: 0.3})
        assert ad.select_kappa(ds, 10.0, b_max=0.1) == 0.5

    def test_all_above_ceiling_falls_back(self):
        ds = table_dataset({0.1: 0.2, 0.5: 0.3, 0.7: 0.9})
        assert ad.select_kappa(ds, 10.0, b_max=0.1) == ad.NO_COMPRESSION

    def test_tie_breaks_toward_more_compression(self):
        ds = table_dataset({0.1: 0.02, 0.5: 0.02})
        assert ad.select_kappa(ds, 10.0, b_max=0.1) == 0.5

    def test_baseline_rows_are_not_candidates(self):
        ds = table_dataset({0.0: 0.0, 0.1: 0.05})
        assert ad.select_kappa(ds, 10.0, b_max=0.1) == 0.1

    def test_missing_bucket_errors(self):
        ds = table_dataset({0.1: 0.05})
        with pytest.raises(ad.PolicyError):
            ad.select_kappa(ds, 10.0, channel_tag="unknown")

    def test_unconstrained_via_unit_ceiling(self):
        ds = table_dataset({0.1: 0.4, 0.5: 0.6, 0.7: 0.2})
        assert ad.select_kappa(ds, 10.0, b_max=1.0) == 0.7


class TestPolicyTable:
    def test_buckets_partition_and_export_round_trip(self, tmp_path):
        records = [record(r, k, b)
                   for r, cells in ((0.0, {0.1: 0.5, 0.5: 0.6}), (5.0, {0.1: 0.05, 0.5: 0.3}),
                                    (10.0, {0.1: 0.01, 0.5: 0.004}))
                   for k, b in cells.items()]
        ds = ad.build_dataset(records, buckets=BUCKETS)
        table = ad.policy_table(ds, b_max=0.1)
        assert [e.kappa for e in table.entries] == [ad.NO_COMPRESSION, 0.1, 0.5]
        assert table.kappa_for(-3.0) == ad.NO_COMPRESSION
        assert table.kappa_for(7.4) == 0.1
        assert table.kappa_for(40.0) == 0.5

        path = tmp_path / "policy.csv"
        ad.export_policy_csv(table, path)
        back = ad.load_policy_csv(path)
        assert back.entries == table.entries


class TestScheduleSlots:
    def test_duty_cycle_reference(self):
        sched = ad.schedule_slots("duty_cycle", 10, 0.5)
        assert sched.assignment == (ad.TRAIN,) * 5 + (ad.INFER,) * 5

    def test_staggered_reference(self):
        sched = ad.schedule_slots("staggered", 6, 2)
        assert sched.assignment == (ad.TRAIN, ad.INFER) * 3

    def test_degenerate_frame(self):
        assert ad.schedule_slots("duty_cycle", 1, 1.0).assignment == (ad.TRAIN,)

    def test_exhaustive_closed_forms(self):
        import math
        for frame in range(1, 65):
            for fraction in (0.0, 0.25, 0.5, 1.0):
                roles = ad.schedule_slots("duty_cycle", frame, fraction).assignment
                n_train = math.ceil(fraction * frame)
                assert roles == tuple(
                    ad.TRAIN if i < n_train else ad.INFER for i in range(frame)
                )
            for occasion in (1, 2, 3, 7):
                roles = ad.schedule_slots("staggered", frame, occasion).assignment
                assert roles == tuple(
                    ad.TRAIN if i % occasion == 0 else ad.INFER for i in range(frame)
                )

    def test_every_slot_assigned(self):
        for frame in (1, 5, 64):
            sched = ad.schedule_slots("staggered", frame, 3)
            assert len(sched.assignment) == frame
            assert set(sched.assignment) <= {ad.TRAIN, ad.INFER}

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ad.schedule_slots("duty_cycle", 10, 1.5)
        with pytest.raises(ValueError):
            ad.schedule_slots("staggered", 10, 0)
        with pytest.raises(ValueError):
            ad.schedule_slots("unknown", 10, 1)
        with pytest.raises(ValueError):
            ad.schedule_slots("duty_cycle", 0, 0.5)


class TestInvalidation:
    def test_default_threshold_doubles_final_loss(self):
        assert ad.default_invalidation_threshold(0.02) == pytest.approx(0.04)
        assert not ad.check_invalidation([0.03], ad.default_invalidation_threshold(0.02))
        assert ad.check_invalidation([0.05], ad.default_invalidation_threshold(0.02))

    def test_below_threshold_keeps_model(self):
        assert not ad.check_invalidation([0.1, 0.2, 0.15], threshold=0.5)

    def test_above_threshold_retrains(self):
        assert ad.check_invalidation([0.6, 0.7], threshold=0.5)

    def test_boundary_is_not_invalidation(self):
        assert not ad.check_invalidation([0.5, 0.5], threshold=0.5)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            ad.check_invalidation([], threshold=0.5)


class TestRunAdaptive:
    def test_policy_collapse_to_dominant_ratio(self):
        rhos = (0.0, 5.0, 10.0)
        records = [record(r, k, bler)
                   for r in rhos
                   for k, bler in ((0.1, 0.08), (0.5, 0.01), (0.7, 0.2))]
        ds = ad.build_dataset(records, buckets=rhos)

        measured = {(0.5, r): (0.01 + r / 1000, 0.001) for r in rhos}

        def evaluate(kappa, rho):
            assert kappa == 0.5
            return measured[(kappa, rho)]

        decisions = ad.run_adaptive(ad.policy_table(ds), rhos, evaluate)
        assert [d.kappa for d in decisions] == [0.5, 0.5, 0.5]
        assert [(d.bler, d.bler_stderr) for d in decisions] == [measured[(0.5, r)] for r in rhos]

    def test_never_selects_ratio_violating_ceiling(self):
        rng = np.random.default_rng(2)
        rhos = (0.0, 5.0, 10.0)
        records = [record(r, k, float(rng.uniform(0, 1)))
                   for r in rhos for k in (0.1, 0.5, 0.7) for _ in range(3)]
        ds = ad.build_dataset(records, buckets=rhos)
        decisions = ad.run_adaptive(ad.policy_table(ds, b_max=0.1), rhos, lambda k, r: (0.0, 0.0))
        for d in decisions:
            if d.kappa != ad.NO_COMPRESSION:
                assert ds.cell("CDL-X", d.rho_db, d.kappa).bler <= 0.1
