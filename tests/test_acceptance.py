"""Acceptance gate: the full desk-scale experiment plus oracle equivalences.

Each test prints one `ACCEPTANCE <name>: PASS/FAIL` line (run with -s to see
them). The desk sweep and the adaptive experiment run once per session and
feed the statistical criteria; tolerances are pinned next to each check.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from csilink import adaptive as ad
from csilink import chanmodel as cm
from csilink import codec
from csilink import expsuite as ex
from csilink import phylink as pl


# Full SHA-256 of every result file the desk fixtures write. Another numpy or
# BLAS build may round differently; a deliberate rebaseline edits these.
PINNED_WITH = "numpy 2.4.6 and scipy-openblas 0.3.31"
DESK_RESULT_SHA256 = {
    "sweep.csv": "0af4293beab2cdf6ea010e35b3ccc5ad45ef2f0300c27e6afb0cd3e1d41f6769",
    "adaptive.csv": "78cbd6a2b6e7daaac462b5e3e80b77bfc2b2f47f853095d845cf5ac2d24fc757",
    "policy.csv": "93e278c31aea4613a184fe5d510e1066894959c0266d964d65ca1a3a27748bb8",
    "history_CDL-C_0.1.csv": "972d4e2a836d7de42948a691845ded5df01b9d615f3d06e3aa84af1e3555b624",
    "history_CDL-C_0.5.csv": "4366fda10198da354fe43cfb415bfed7a74e1f7fce33bc75817c3dde5918fae8",
    "history_CDL-C_0.7.csv": "71fea1438cbd553b10e7d0431f67d1f6af5f06875e1ad15f583cbc825ae91eb0",
    "history_CDL-E_0.1.csv": "2cfc08d661e04fe38b0234c87264bddecc79c4c7ec5c2986c497ca57f60b8539",
    "history_CDL-E_0.5.csv": "7ee7e7f1c82a9eacee62b0850a4e70a0ae75f5d27c16fc9b00a8b33d5e022a41",
    "history_CDL-E_0.7.csv": "50ea4b855f89afd8aa66dd4bdd14ae6529db8f3a9379f412f397de3c47a47d53",
}


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def user_mean_stderr(rows, key="ber"):
    """User-averaged rate and its across-user standard error.

    Bits within one user share a channel realization, so the sampling unit of
    a user-averaged statistic is the user, not the bit.
    """
    values = np.array([r[key] for r in rows], dtype=float)
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return float(values.mean()), se


@pytest.fixture(scope="session")
def desk(tmp_path_factory):
    cfg = ex.ExperimentConfig()
    out = tmp_path_factory.mktemp("desk")
    sweep = ex.run_sweep(cfg, out_dir=out)
    return cfg, sweep, out


@pytest.fixture(scope="session")
def desk_adaptive(desk):
    cfg, sweep, out = desk
    rows, table = ex.run_adaptive_experiment(cfg, out_dir=out, sweep=sweep)
    return cfg, sweep, rows, table


def select(rows, **match):
    out = [r for r in rows if all(r[k] == v for k, v in match.items())]
    assert out, f"no sweep rows match {match}"
    return out


class TestCriterion1Oracles:
    def test_ls_vs_pseudo_inverse(self):
        rng = np.random.default_rng(100)
        data = (rng.normal(size=(4, 3, 5)) + 1j * rng.normal(size=(4, 3, 5))) / math.sqrt(2)
        h = cm.ChannelTensor(data)
        x = pl.generate_pilots(8, 5, 101)
        y = pl.observe_pilots(h, x, noise_var=0.05, seed=102)
        est = pl.ls_estimate(x, y)
        pinv = np.linalg.pinv(x)
        worst = max(
            float(np.abs(est.data[k] - (pinv @ y[k]).T).max()) for k in range(4)
        )
        report("1a LS vs pseudo-inverse oracle", worst < 1e-8, f"max dev {worst:.2e}")

    def test_crc_vs_long_division(self):
        def long_division(msg, poly):
            poly = list(poly)
            deg = len(poly) - 1
            work = list(msg) + [0] * deg
            for i in range(len(msg)):
                if work[i]:
                    for j, p in enumerate(poly):
                        work[i + j] ^= p
            return work[-deg:]

        rng = np.random.default_rng(103)
        blocks = rng.integers(0, 2, size=(1000, 64), dtype=np.uint8)
        mine = pl.crc_remainder_many(blocks)
        exact = all(
            list(rem) == long_division(row, pl.DEFAULT_CRC_POLY)
            for row, rem in zip(blocks, mine)
        )
        report("1b CRC vs long-division oracle", exact, "1000 random 64-bit blocks")

    def test_adam_vs_hand_computed(self):
        lr, b1, b2, eps = 1e-4, 0.9, 0.999, 1e-8
        grads = [1.0, -0.4, 0.2]
        theta, m, v = 0.1, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        p = [np.array([0.1])]
        state = codec.AdamState.for_params(p)
        for g in grads:
            codec.adam_step(p, [np.array([g])], state, lr=lr)
        dev = abs(p[0][0] - theta)
        report("1c Adam vs hand-computed oracle", dev < 1e-12, f"dev {dev:.2e}")

    def test_gradients_vs_finite_differences(self):
        model = codec.ae_init(0.5, (2, 1, 2), 104)
        rng = np.random.default_rng(105)
        x = rng.uniform(0.1, 0.9, size=(3, model.input_dim))
        _, grads = codec.backprop(model, x)
        params = model.params()
        eps, worst = 1e-5, 0.0
        for pi, p in enumerate(params):
            flat = p.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                lp, _ = codec.backprop(model, x)
                flat[idx] = orig - eps
                lm, _ = codec.backprop(model, x)
                flat[idx] = orig
                fd = (lp - lm) / (2 * eps)
                g = grads[pi].reshape(-1)[idx]
                worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-8))
        report("1d autoencoder gradients vs finite differences", worst < 1e-4,
               f"worst rel dev {worst:.2e}")

    def test_waterfill_vs_grid_search_kkt(self):
        gains = np.array([1.0, 0.1])
        noise_var, budget = 0.5, 1.0
        powers = pl.waterfill(gains, noise_var, budget)
        floors = noise_var / gains**2
        # Two-stage grid search over water levels, refined well below tolerance.
        lo, hi = floors.min(), floors.max() + budget
        for _ in range(3):
            grid = np.linspace(lo, hi, 100_001)
            totals = np.maximum(0.0, grid[:, None] - floors[None, :]).sum(axis=1)
            best = int(np.argmin(np.abs(totals - budget)))
            step = grid[1] - grid[0]
            lo, hi = grid[best] - step, grid[best] + step
        mu = grid[best]
        oracle = np.maximum(0.0, mu - floors)
        dev = float(np.abs(powers - oracle).max())
        level = powers + floors
        active = powers > 0
        kkt = bool(
            np.all(np.abs(level[active] - level[active][0]) < 1e-8 * level[active][0])
            and np.all(floors[~active] >= level[active][0] - 1e-12)
        )
        report("1e waterfilling vs grid search + KKT", dev < 1e-6 and kkt, f"dev {dev:.2e}")


class TestCriterion2CompressionDegradation:
    def test_ber_monotone_in_kappa_at_high_snr(self, desk):
        cfg, sweep, _ = desk
        kappas = [0.0, *cfg.kappas]
        stats = {}
        for kappa in kappas:
            rows = select(sweep.rows, profile="CDL-E", kappa=kappa, rho_db=30.0)
            stats[kappa] = user_mean_stderr(rows)
        chain_ok = all(
            stats[a][0] <= stats[b][0] + 2 * math.hypot(stats[a][1], stats[b][1])
            for a, b in zip(kappas, kappas[1:])
        )
        bers = [stats[k][0] for k in kappas]
        ranks = np.argsort(np.argsort(bers))
        ref = np.arange(len(kappas))
        d2 = float(np.sum((ranks - ref) ** 2))
        n = len(kappas)
        spearman = 1.0 - 6.0 * d2 / (n * (n**2 - 1))
        detail = " ".join(f"k={k}: {stats[k][0]:.2e}" for k in kappas) + f"  spearman={spearman:.2f}"
        report("2 BER degrades monotonically with compression (CDL-E, 30 dB)",
               chain_ok and spearman >= 0.8, detail)


class TestCriterion3SnrImprovement:
    def test_ber_non_increasing_in_snr(self, desk):
        cfg, sweep, _ = desk
        failures = []
        for profile in ("CDL-E", "CDL-C"):
            for kappa in (0.0, *cfg.kappas):
                curve = []
                for rho in cfg.rhos:
                    rows = select(sweep.rows, profile=profile, kappa=kappa, rho_db=rho)
                    p, se = user_mean_stderr(rows)
                    curve.append((rho, p, se))
                for (r1, p1, s1), (r2, p2, s2) in zip(curve, curve[1:]):
                    if p2 > p1 + 2 * math.hypot(s1, s2):
                        failures.append(f"{profile} k={kappa}: {r1}->{r2} dB rose {p1:.3e}->{p2:.3e}")
        report("3 BER non-increasing in SNR for every (profile, ratio)",
               not failures, "; ".join(failures) or "all curves monotone within 2 se")


class TestCriterion4RuntimeConstancy:
    def test_codec_walltime_cv_across_ratios(self, desk):
        cfg, sweep, _ = desk
        totals = {}
        for row in sweep.timing:
            if row["kappa"] > 0.0:
                key = row["kappa"]
                totals[key] = totals.get(key, 0.0) + row["train_seconds"] + row["codec_seconds"]
        values = np.array([totals[k] for k in cfg.kappas])
        cv = float(values.std() / values.mean())
        detail = " ".join(f"k={k}: {totals[k]:.1f}s" for k in cfg.kappas) + f"  cv={cv:.3f}"
        report("4 codec run time approximately constant across ratios", cv < 0.15, detail)


class TestCriterion5LossDescent:
    def test_descent_without_overfitting(self, desk):
        cfg, sweep, _ = desk
        hist = sweep.histories[("CDL-E", cfg.static_kappa)]
        assert hist.epochs == 64
        final_train, first_train = hist.train_loss[-1], hist.train_loss[0]
        final_val, min_val = hist.val_loss[-1], min(hist.val_loss)
        ok = final_train < first_train and final_val <= 1.1 * min_val
        report("5 training loss descends and validation does not overfit", ok,
               f"train {first_train:.4g}->{final_train:.4g}, val final {final_val:.4g} vs min {min_val:.4g}")


class TestCriterion6AdaptivePolicy:
    def test_adaptive_dominates_baselines(self, desk_adaptive):
        cfg, sweep, rows, table = desk_adaptive
        failures = []
        for row in rows:
            best = min(row["bler_uncompressed"], row["bler_static"])
            slack = 2 * math.hypot(
                row["bler_adaptive_stderr"],
                max(row["bler_uncompressed_stderr"], row["bler_static_stderr"]),
            )
            if row["bler_adaptive"] > best + slack:
                failures.append(f"rho={row['rho_db']}: {row['bler_adaptive']:.3f} > {best:.3f}+{slack:.3f}")
        report("6a adaptive BLER within 2 se of the best baseline at every SNR",
               not failures, "; ".join(failures) or f"{len(rows)} SNR points")

    def test_constraint_compliance(self, desk_adaptive):
        cfg, sweep, rows, table = desk_adaptive
        violations = [
            e for e in table.entries
            if e.kappa != ad.NO_COMPRESSION and e.measured_bler > cfg.b_max
        ]
        report("6b adaptive never selects a ratio whose table BLER exceeds the ceiling",
               not violations, f"{len(table.entries)} buckets")

    def test_tracks_uncompressed_at_top_snr(self, desk_adaptive):
        cfg, sweep, rows, table = desk_adaptive
        top = [r for r in rows if r["rho_db"] == max(cfg.rhos)][0]
        gap = abs(top["bler_adaptive"] - top["bler_uncompressed"])
        slack = 2 * math.hypot(top["bler_adaptive_stderr"], top["bler_uncompressed_stderr"])
        report("6c adaptive approaches the uncompressed BLER at 30 dB",
               gap <= slack, f"gap {gap:.4f} vs slack {slack:.4f}")


class TestCriterion7DimensioningAndWire:
    def test_latent_dim_closed_form(self):
        ok = True
        details = []
        for n_t in (16, 1024):  # small and large transmit arrays
            for tenths in range(1, 10):
                kappa = tenths / 10
                expected = 2 * 4 * n_t * math.ceil(Fraction(10 - tenths, 10) * 128)
                got = codec.latent_dim(kappa, 128, 4, n_t)
                if got != expected:
                    ok = False
                    details.append(f"k={kappa} n_t={n_t}: {got} != {expected}")
        report("7a latent dimensioning exact over the ratio grid", ok,
               "; ".join(details) or "kappa 0.1..0.9 x {16, 1024} tx antennas")

    def test_overhead_closed_form(self):
        ok = True
        for n_t in (16, 1024):
            for tenths in range(1, 10):
                d = codec.latent_dim(tenths / 10, 128, 4, n_t)
                for k_count in (1, 2, 3, 4, 5, 8):
                    expected = 32 * d + math.ceil(math.log2(k_count))
                    if codec.overhead_bits(32, d, k_count) != expected:
                        ok = False
        report("7b overhead bits exact", ok, "b=32, |K| in {1,2,3,4,5,8}")

    def test_wire_format_fuzz(self):
        rng = np.random.default_rng(106)
        ok = True
        for _ in range(10_000):
            d = int(rng.integers(1, 40))
            latent = codec.LatentCsi(
                values=(rng.normal(size=d) * rng.choice([1e-3, 1.0, 100.0])).astype(np.float32),
                kappa_index=int(rng.integers(0, 256)),
                dims=(int(rng.integers(1, 2**16)), int(rng.integers(1, 64)), int(rng.integers(1, 64))),
            )
            back = codec.deserialize(codec.serialize(latent))
            if not (
                np.array_equal(back.values.view(np.uint32), latent.values.view(np.uint32))
                and back.kappa_index == latent.kappa_index
                and back.dims == latent.dims
            ):
                ok = False
                break
        report("7c wire format bit-exact under fuzz", ok, "10000 random latents")


class TestDeskScaleExamples:
    """Desk-scale behaviors tied to the trained models (reuse the session sweep)."""

    def test_trained_low_ratio_reconstructs_better_than_high(self, desk):
        cfg, sweep, _ = desk
        profile = cm.load_cdl_profile(cm.shipped_profile_path("cdl_e"))
        held = [
            cm.synthesize_csi(profile, cfg.ura, cfg.n_r, cfg.n_sc, cfg.delta_f, 7_000_000 + i)
            for i in range(12)
        ]

        def held_out_mse(model):
            return np.mean([
                codec.mse_loss(
                    codec.realify(codec.vectorize_csi(h)),
                    codec.realify(codec.vectorize_csi(codec.decompress(model, codec.compress(model, h)))),
                    model.dims,
                )
                for h in held
            ])

        lo = held_out_mse(sweep.models[("CDL-E", 0.1)])
        hi = held_out_mse(sweep.models[("CDL-E", 0.7)])
        report("extra: held-out MSE lower at ratio 0.1 than 0.7 (CDL-E)",
               lo < hi, f"{lo:.4f} vs {hi:.4f}")

    @pytest.mark.xfail(
        strict=True,
        reason="unattainable at desk scale: in the one-ray-per-cluster LOS channel the "
        "magnitude grid is flat up to weak interference ripples, and the width-10 codec "
        "cannot reconstruct the ripple detail (measured Pearson 0.083 at kappa 0.5, "
        "30 dB, user 0); see the heatmap shape checks in test_expsuite for the format contract",
    )
    def test_heatmap_reconstruction_correlates(self, desk):
        """The grids that ``csilink heatmap`` writes at kappa 0.5, 30 dB, user
        0, computed from the sweep's model; TestHeatmap in test_expsuite
        checks that the heatmap's own model gives the same grids."""
        cfg, sweep, _ = desk
        model = sweep.models[("CDL-E", 0.5)]
        h_est = ex._user_estimates(cfg, ex.resolve_profile(cfg.profiles[0]), 0, 0, 30.0)[1][0]
        latent = codec.deserialize(codec.serialize(codec.compress(model, h_est)))
        original = np.abs(h_est.data[:, 0, :])
        recon = np.abs(codec.decompress(model, latent).data[:, 0, :])
        assert original.shape == (cfg.n_sc, cfg.n_t)
        assert latent.values.size == codec.latent_dim(0.5, *cfg.dims)
        pearson = float(np.corrcoef(original.ravel(), recon.ravel())[0, 1])
        report("extra: reconstruction heatmap correlates with the original",
               pearson > 0.5, f"pearson {pearson:.3f}")


class TestCriterion8Determinism:
    def test_sweep_reruns_byte_identical(self, tmp_path):
        cfg = ex.ExperimentConfig(
            profiles=("cdl_e",),
            kappas=(0.5,),
            rhos=(10.0, 30.0),
            n_users=2,
            payload_bits=20_000,
            n_blocks=2,
            train=ex.TrainSettings(epochs=8, batch_size=32, learning_rate=1e-4, dataset_size=64),
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            ex._user_realization.cache_clear()  # each run re-derives its draws
            ex.run_sweep(cfg, out_dir=out)
        same = (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()
        report("8 sweep reruns are byte-identical", same, "same master seed, two runs")


class TestResultBytes:
    def test_desk_result_files_match_pins(self, desk, desk_adaptive):
        """Every byte of sweep.csv, adaptive.csv, policy.csv and the training
        histories equals the pinned run."""
        out = desk[2]
        mismatches = []
        for name, pinned in DESK_RESULT_SHA256.items():
            got = hashlib.sha256((out / name).read_bytes()).hexdigest()
            if got != pinned:
                mismatches.append(f"{name}: sha256 {got}, pinned {pinned}")
        report(
            "result bytes equal the pins",
            not mismatches,
            "; ".join(mismatches) + f" (pins taken with {PINNED_WITH}; this run has numpy {np.__version__})",
        )
