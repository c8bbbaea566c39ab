#!/usr/bin/env python3
"""Benchmark of the radarmon pipeline from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]

The first form runs one workload in this process.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it wraps radarmon's
public functions and layer methods in spans and reports the per-layer
metrics instead.  It prints a run record line, then, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``.  It
exits 1 when a correctness gate failed and 2 when it cannot run at all.

The second form runs every workload, untraced and then traced, each in a
fresh process, prints every metric with its unit and the tracing overhead
(traced against untraced norm_items_per_s), and exits 1 if any run failed.

Workloads (see BENCHMARK.json for why each was chosen):
  train_AP  nn.train("AP") at batch 50, full width, on a dataset built on disk
  eval_S    evaluate_manifest + pd_curve with an S model passed through save/load

The package is imported from ``src/`` of this checkout; BLAS runs on
BLAS_THREADS threads, pinned before numpy loads, so one process is the load.

The two timed end-to-end metrics, ``norm_items_per_s`` and ``setup_s``, are
given at a reference host speed: every op and setup is timed between two
passes of a fixed kernel of the benchmark's own (``hostref.py``), and its
time is rescaled to a host on which that kernel takes ``hostref.NOMINAL_S``.
The shared host this benchmark was tuned on swings by up to 1.5x for
minutes at a time, whole runs included; the rescaling takes that swing out
while a change to radarmon, which cannot touch the kernel, still moves the
numbers in full.  The record keeps the raw times and throughput beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("train_AP", "eval_S")
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "norm_items_per_s": "1/s",
    "dataset_disk_mb": "MiB",
    "retained_mb": "MiB",
}

ITEMS = {
    "train_AP": "training examples through nn.train",
    "eval_S": "chunks through evaluate_manifest + pd_curve",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long run of every code path, for self-tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or (args.seconds is not None and args.seconds < 0):
        ap.error("--seed and --seconds must be non-negative")
    return args


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def _filesystem(path: Path) -> str | None:
    """Type of the filesystem holding path, from the longest matching mount point."""
    best, fstype = "", None
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                if str(path).startswith(mount.rstrip("/") + "/") and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def _environment(work: Path) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "work_filesystem": _filesystem(work),
    }


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _measure(wl, seconds: float, tracer, setup_reps: int):
    """Run wl's ops in the order of wl.SCHEDULE for about `seconds`; the whole schedule at least once.

    Each op is followed by its gates.  The run's setups are spread evenly
    over it, so that setup_s, like the op times, samples the whole run
    rather than its first seconds.  Each op and setup is timed between two
    samples of the host reference kernel, and kept as (raw, rescaled) time.
    """
    import hostref

    clock = hostref.HostClock()
    samples = {kind: [] for kind in wl.KINDS}  # (items, raw s, rescaled s, end)
    setups = []  # (raw s, rescaled s, end)

    def setup():
        before = clock.tick()
        t = _timed(wl.setup)
        setups.append((t, clock.scaled(t, before), time.perf_counter()))

    setup()
    attempted, failed, problems, measured, ops = 0, 0, [], 0.0, 0
    while True:
        kind = wl.SCHEDULE[ops % len(wl.SCHEDULE)]
        before = clock.last
        t0 = time.perf_counter()
        items, op_seconds, output = wl.op(kind)
        t1 = time.perf_counter()
        samples[kind].append((items, op_seconds, clock.scaled(op_seconds, before), t1))
        t2 = time.perf_counter()
        with tracer.paused():
            found = wl.check(kind, output)
        del output  # a training op holds a model with its scratch buffers
        measured += t1 - t0 + time.perf_counter() - t2
        ops += 1
        attempted += items
        if found:
            failed += items
            problems += found
        if len(setups) < setup_reps and measured >= len(setups) * seconds / setup_reps:
            setup()
        if ops >= len(wl.SCHEDULE) and measured + measured / ops > seconds:
            break
    while len(setups) < setup_reps:
        setup()
    return samples, setups, clock.samples, attempted, failed, problems


def _throughput(samples, col: int) -> float:
    """Items of one op of each kind over the sum of each kind's median op time.

    col 1 takes the raw op times, col 2 the rescaled ones.
    """
    items = sum(s[0][0] for s in samples.values())
    return items / sum(statistics.median(x[col] for x in s) for s in samples.values())


def run_workload(args, work: Path) -> tuple[dict, dict]:
    import hostref
    import spans
    import workloads

    size = workloads.SIZES[args.size]
    wl = workloads.WORKLOADS[args.workload](work, args.seed, size)
    tracer = spans.Tracer()  # only records through an active Instrumentation
    with spans.Instrumentation(tracer) if args.trace else contextlib.nullcontext():
        samples, setups, ref_times, attempted, failed, problems = _measure(
            wl, args.seconds, tracer, 1 if args.trace else size.setup_reps)
        with tracer.paused():
            more_failed, more_problems, extra = wl.finish()
        failed += more_failed
        problems += more_problems
        items_per_s = _throughput(samples, 2)
        record = {"ops": sum(len(s) for s in samples.values()), "items": ITEMS[args.workload],
                  "raw_items_per_s": _throughput(samples, 1),
                  "raw_setup_s": statistics.median(t for t, _, _ in setups),
                  "op_seconds": {k: [x[1] for x in s] for k, s in samples.items()},
                  "op_seconds_rescaled": {k: [x[2] for x in s] for k, s in samples.items()},
                  "setup_runs": [t for t, _, _ in setups],
                  "setup_runs_rescaled": [t for _, t, _ in setups],
                  "ref_nominal_s": hostref.NOMINAL_S,
                  # (end on perf_counter, what, raw seconds) of every op, setup and kernel sample
                  "timeline": sorted([(x[3], k, x[1]) for k, s in samples.items() for x in s]
                                     + [(e, "setup", t) for t, _, e in setups]
                                     + [(e, "ref", t) for e, t in ref_times]), **extra}
        if args.trace:
            record.update(_per_layer(wl, tracer, work, args, size, items_per_s))
            metrics = record.pop("metrics")
        else:
            # Medians of many short ops (and setups) spread over the run, so
            # that a burst of host interference moves few of the samples.
            metrics = {
                "setup_s": statistics.median(t for _, t, _ in setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "norm_items_per_s": items_per_s,
                "dataset_disk_mb": wl.disk_mb,
                "retained_mb": wl.retained_mb,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    record.update(
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted,
        error_base=f"{ITEMS[args.workload]} in ops whose output failed a gate",
        problems=problems[:20],
        sizes=wl.sizes(),
    )
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, result


def _per_layer(wl, tracer, work: Path, args, size, items_per_s) -> dict:
    """Per-layer metrics of the workload's own calls, gaps filled from the sweep."""
    import spans
    import workloads

    with tracer.paused():
        peak = wl.peak_alloc()
    if peak is not None:
        tracer.notes["nn.forward.peak_alloc_mb"] = [peak]
    values, levels = spans.layer_metrics(*tracer.take())
    root, manifest, xb = workloads.sweep_train(work, args.seed, size)
    with tracer.paused():
        tracer.notes["nn.forward.peak_alloc_mb"] = [workloads.forward_peak_alloc_mb("AP", xb, True, args.seed)]
    sweeps = [spans.layer_metrics(*tracer.take())]
    workloads.sweep_eval(root, manifest, args.seed, size)
    sweeps.append(spans.layer_metrics(*tracer.take()))
    values["trace.norm_items_per_s"] = items_per_s
    units = spans.metric_units()
    from_sweep = []
    for sweep_values, sweep_levels in sweeps:
        for m in units:
            if m not in values and m in sweep_values:
                values[m] = sweep_values[m]
                from_sweep.append(m)
                if m in sweep_levels:
                    levels[m] = sweep_levels[m]
    missing = [m for m in units if m not in values]
    metrics = {m: {"value": values.get(m, 0.0), "unit": u} for m, u in units.items()}
    return {
        "metrics": metrics,
        "from_sweep": from_sweep,
        "not_exercised": missing,
        "tail_percentile": levels,
        "computed_not_timed": [m for m, _ in spans.COMPUTED],
    }


def run_single(args) -> int:
    if not (ROOT / "src" / "radarmon" / "__init__.py").is_file():
        print(f"error: radarmon sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    work.mkdir(parents=True)
    try:
        record, result = run_workload(args, work)
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "size": args.size, **_environment(work), **record}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own fresh process, untraced then traced."""
    status = 0
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--trace", str(trace), "--size", args.size]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if len(lines) < 2:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
            results[trace] = result
            if proc.returncode != 0:
                status = 1
            print(f"== {name} trace={trace}  correct={result['correct']}  attempted={result['attempted']}"
                  f"  failed={result['failed']}  error_rate={record['error_rate']:.6g}  ({record['items']})")
            for problem in record["problems"]:
                print(f"   gate: {problem}")
            for metric, m in result["metrics"].items():
                print(f"   {metric:42s} {m['value']:16.6f} {m['unit']}")
            if not trace:
                print(f"   raw, not rescaled: {record['raw_items_per_s']:.6f} 1/s, setup "
                      f"{record['raw_setup_s']:.6f} s (reference kernel median "
                      f"{1e3 * statistics.median(t for _, w, t in record['timeline'] if w == 'ref'):.3f} ms, "
                      f"nominal {1e3 * record['ref_nominal_s']:.3f} ms)")
        if 0 in results and 1 in results:
            plain = results[0]["metrics"]["norm_items_per_s"]["value"]
            traced = results[1]["metrics"]["trace.norm_items_per_s"]["value"]
            print(f"== {name} tracing overhead: {100 * (plain - traced) / plain:.2f}% of norm_items_per_s "
                  f"({plain:.4f} untraced, {traced:.4f} traced)")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_single(args)
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
