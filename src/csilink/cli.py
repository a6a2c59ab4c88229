"""Command-line entry points: sweep, adaptive, heatmap."""

from __future__ import annotations

import argparse
from dataclasses import replace

from . import expsuite


def _add_common(parser):
    parser.add_argument("--config", help="experiment config JSON (defaults to the built-in desk config)")
    parser.add_argument("--out", required=True, help="output directory for CSV files")
    parser.add_argument("--seed", type=int, help="override the master seed")


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return int(text)


def _load(args) -> expsuite.ExperimentConfig:
    cfg = expsuite.load_config(args.config) if args.config else expsuite.ExperimentConfig()
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="csilink",
        description="MIMO-OFDM link simulator with an adaptive autoencoder CSI feedback codec",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="static compression-ratio sweep (BER/BLER vs SNR)")
    p_adaptive = sub.add_parser("adaptive", help="adaptive ratio selection vs static baselines")
    for p in (p_sweep, p_adaptive):
        _add_common(p)
        p.add_argument("--threads", type=_positive_int, default=1, help="parallel sweep workers")

    p_heat = sub.add_parser("heatmap", help="CSI magnitude grids: original, latent, reconstruction")
    _add_common(p_heat)
    p_heat.add_argument("--kappa", type=float, required=True, help="compression ratio (must be configured)")
    p_heat.add_argument("--rho", type=float, required=True, help="transmit SNR in dB")
    p_heat.add_argument("--user", type=int, required=True, help="user index")

    args = parser.parse_args(argv)
    cfg = _load(args)

    if args.command == "sweep":
        result = expsuite.run_sweep(cfg, out_dir=args.out, threads=args.threads)
        print(f"wrote {len(result.rows)} sweep rows to {args.out}")
    elif args.command == "adaptive":
        sweep = expsuite.run_sweep(cfg, out_dir=args.out, threads=args.threads)
        rows, _ = expsuite.run_adaptive_experiment(cfg, out_dir=args.out, sweep=sweep)
        print(f"wrote {len(rows)} adaptive rows to {args.out}")
    elif args.command == "heatmap":
        paths = expsuite.emit_csi_heatmap(cfg, args.kappa, args.rho, args.user, args.out)
        for label, path in paths.items():
            print(f"{label}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
