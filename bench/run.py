"""Desk-scale benchmark of csilink.

    python3 bench/run.py --workload desk-eval --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --reference [--out .bench_out/reference]

A run sets the workload up several times (reporting the median), then
repeats the workload's fixed job until ``--seconds`` of measurement have
passed, checks every result and requires all repetitions to produce the same
result digest. With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` each repetition runs once plain and once under the
tracer, and the last line carries per-layer self times and counts.
``--reference`` runs the unmodified desk config (run_sweep plus
run_adaptive_experiment) once under the tracer and writes BENCH_desk.json
with per-stage seconds and the SHA-256 of the result CSVs.

The simulator is imported from ``src/`` next to this directory, never from
an installed copy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# BLAS and OpenMP pools run one thread, the steadiest timing on a small
# shared machine.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUPS = 3
MIN_REPS = 3  # at least two to compare digests; three for a steadier median


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("desk-eval", "desk-train", "desk-adaptive"))
    parser.add_argument("--seed", type=int, default=1, help="master seed the workload inputs come from")
    parser.add_argument("--seconds", type=float, default=20.0, help="measurement time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true", help="trace the full desk experiment once")
    parser.add_argument("--out", default=os.path.join(".bench_out", "reference"), help="--reference output directory")
    args = parser.parse_args(argv)
    if not args.reference and args.workload is None:
        parser.error("--workload is required unless --reference is given")
    return args


def pin_threads() -> dict[str, str]:
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    return {var: os.environ[var] for var in THREAD_VARS}


def import_simulator():
    """Put ``src/`` first on the path and import csilink from it."""
    if not os.path.isfile(os.path.join(SRC, "csilink", "__init__.py")):
        raise ImportError(f"no csilink sources under {SRC}")
    sys.path.insert(0, SRC)
    import csilink

    if os.path.dirname(os.path.abspath(csilink.__file__)) != os.path.join(SRC, "csilink"):
        raise ImportError(f"csilink was imported from {csilink.__file__}, not from {SRC}")
    return csilink


def source_digest() -> str:
    h = hashlib.sha256()
    base = os.path.join(SRC, "csilink")
    for dirpath, dirnames, filenames in sorted(os.walk(base)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_sha() -> str:
    """HEAD commit read from the checkout's .git files, or 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: dict, seed) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_repetition(workload, state):
    """One repetition; an exception fails every item of it."""
    import desk

    t0 = time.perf_counter()
    try:
        rep = workload.run(state)
    except Exception:
        traceback.print_exc()
        rep = desk.Repetition(rows=None, failed=workload.items(state))
    rep.seconds = time.perf_counter() - t0
    return rep


def set_up(workload, seed):
    times, digests, state = [], [], None
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        state = workload.setup(seed)
        times.append(time.perf_counter() - t0)
        digests.append(workload.state_digest(state))
    return state, times, digests


def enough(workload, reps, traced, measured, seconds) -> bool:
    """Measured long enough, with enough repetitions and, untraced, enough
    timed points."""
    points = sum(len(r.item_seconds) for r in reps)
    needs_points = not traced and points < workload.min_points
    return measured >= seconds and len(reps) + len(traced) >= MIN_REPS and not needs_points


def tally(workload, state, reps, setup_digests):
    """(attempted, failed, digest): set-ups and result rows are the attempted
    items; a set-up or repetition whose digest differs from the first fails."""
    from desk import digest

    attempted = len(setup_digests) + workload.items(state) * len(reps)
    failed = sum(d != setup_digests[0] for d in setup_digests)
    first = None
    for rep in reps:
        d = digest(rep.rows) if rep.rows is not None else None
        first = first or d
        failed += workload.items(state) if d is None or d != first else rep.failed
    return attempted, failed, first


def measure(args):
    import desk
    import tracing

    workload = desk.WORKLOADS[args.workload]
    state, setup_times, setup_digests = set_up(workload, args.seed)
    reps, traced, layer_runs = [], [], []
    measured = 0.0
    while not enough(workload, reps, traced, measured, args.seconds):
        rep = run_repetition(workload, state)
        reps.append(rep)
        measured += rep.seconds
        if args.trace:
            with tracing.Tracer() as tracer:
                desk.install_layers(tracer)
                traced_rep = run_repetition(workload, state)
            traced.append(traced_rep)
            measured += traced_rep.seconds
            layers = desk.layer_metrics(tracer)
            layers["trace.wall_s"] = traced_rep.seconds
            layers["trace.overhead_s"] = traced_rep.seconds - rep.seconds
            layer_runs.append(layers)

    attempted, failed, result_digest = tally(workload, state, reps + traced, setup_digests)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} repetitions {len(reps) + len(traced)}")
    print(f"digest {result_digest}")
    print(f"setup_digest {setup_digests[0]}")
    print(f"setup_s_each {[round(t, 4) for t in setup_times]}")
    print(f"repetition_s_each {[round(r.seconds, 4) for r in reps + traced]}")

    ok_reps = [r for r in reps if r.rows is not None]
    if args.trace:
        metrics = {
            name: (statistics.fmean(run[name] for run in layer_runs), unit_of(name))
            for name in layer_runs[0]
        }
        covered = sum(v for k, (v, _) in metrics.items() if k.endswith("_s") and not k.startswith("trace."))
        print(f"trace coverage {covered / metrics['trace.wall_s'][0]:.4f} of traced wall")
    elif ok_reps:
        figures = workload.figures(state, ok_reps)
        for name, (value, unit) in figures.items():
            if name != "result_error":
                print(f"metric {name} {value!r} {unit}")
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(r.seconds for r in reps), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "result_error": figures["result_error"],
        }
    else:
        metrics = {}
    print(f"metric failed_frac {failed / attempted!r} 1")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "1"
    return "count"


def reference(args, env):
    """Trace the unmodified desk experiment once and write BENCH_desk.json."""
    import desk
    import tracing
    from csilink import expsuite as es

    path = os.path.join(ROOT, "configs", "desk.json")
    cfg = es.load_config(path) if os.path.isfile(path) else es.ExperimentConfig()
    out = os.path.abspath(args.out)
    with tracing.Tracer() as tracer:
        desk.install_layers(tracer)
        t0 = time.perf_counter()
        sweep = es.run_sweep(cfg, out_dir=out)
        t1 = time.perf_counter()
        es.run_adaptive_experiment(cfg, out_dir=out, sweep=sweep)
        t2 = time.perf_counter()
    stages = desk.layer_metrics(tracer)
    csv_sha = {}
    for name in ("sweep.csv", "adaptive.csv", "policy.csv"):
        with open(os.path.join(out, name), "rb") as fh:
            csv_sha[name] = hashlib.sha256(fh.read()).hexdigest()
    report = {
        "config": os.path.relpath(path, ROOT) if os.path.isfile(path) else "built-in defaults",
        "sweep_wall_s": t1 - t0,
        "adaptive_wall_s": t2 - t1,
        "traced_wall_s": t2 - t0,
        "stages": stages,
        "stage_sum_s": sum(v for k, v in stages.items() if k.endswith("_s")),
        "csv_sha256": csv_sha,
        "peak_rss_mb": peak_rss_mb(),
        "env": env,
    }
    report_path = os.path.join(out, "BENCH_desk.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, value in sorted(stages.items()):
        print(f"stage {name} {value!r}")
    print(f"wrote {report_path}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    try:
        import_simulator()
    except ImportError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    env = environment(threads, None if args.reference else args.seed)
    print(f"env {json.dumps(env, sort_keys=True)}")
    return reference(args, env) if args.reference else measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
