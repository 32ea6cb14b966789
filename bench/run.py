"""Benchmark of the rumorsource package.

    python3 bench/run.py --workload mc-sweep --seed 1 --seconds 20 --trace 0

Runs one workload in this single-threaded process, so the peak RSS it
reports belongs to that workload.  Workloads (rationale in BENCHMARK.json
and bench/workloads.py):

  mc-sweep      run_trial over three scenarios at degree 3, 4 and 12, n=500
  mc-large-n    all-suspects run_trial at degree 3 and 4, n=20,000
  graph-clocks  exponential clocks and the BFS-heuristic MAP on a torus
  exact-grid    a fixed list of exact calls, one pass being one trial;
                ignores --seed

Passes of a fixed op list repeat until --seconds have passed.  Set-up is
repeated afterwards in fresh child processes, one at a time, and setup_s is
the median; peak_rss_mb is this process's own high-water mark.  With
--trace 0 the run prints the end-to-end metrics of BENCHMARK.json, measured
with tracing off.  With --trace 1 it first repeats the untraced loop for a
third of the time, counting garbage collections, then records spans around
every public call for the rest; it writes the spans to .bench_out/ and
prints the per-layer metrics, including the tracing overhead.  Per-layer
metrics of a layer the workload does not enter read 0.

The package is imported from the src/ directory beside this one, never from
an installed copy.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracing import GcMonitor, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("mc-sweep", "mc-large-n", "graph-clocks", "exact-grid")

# Tail percentiles to choose from; the highest with ten trials beyond it is
# reported.  At the default run length mc-large-n's 24-28 trials sit inside
# the p50 band, so a pass more or less does not change the percentile.  The
# ladder stops at p95: on a 2-vCPU VM, p98 and above varied by 13-34%
# (quartile distance over median) between runs of mc-sweep and
# graph-clocks, p95 by 4-7%.
TAIL_LADDER = (50, 70, 90, 95)


def import_package():
    """Import rumorsource from ROOT/src; exit if the sources are not there."""
    if not (SRC / "rumorsource" / "__init__.py").is_file():
        raise SystemExit(f"error: no rumorsource sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rumorsource

    if Path(rumorsource.__file__).resolve().parent != SRC / "rumorsource":
        raise SystemExit(f"error: rumorsource imported from {rumorsource.__file__}")
    return rumorsource


def build(rs, name: str, seed: int, scale: str):
    size = workloads.SIZES[scale][name]
    if name == "mc-sweep":
        return workloads.mc_sweep(rs, seed, size)
    if name == "mc-large-n":
        return workloads.mc_large_n(rs, seed, size)
    if name == "graph-clocks":
        OUT.mkdir(exist_ok=True)
        return workloads.GraphClocks(rs, seed, size, OUT)
    probe = [__file__, "--probe", "float-walk", "--workload", name,
             "--seed", str(seed), "--scale", scale]
    return workloads.ExactGrid(rs, size, workloads.load_golden(),
                               float_walk=lambda: workloads.run_child(probe, ROOT))


def timed_setup(name: str, seed: int, scale: str):
    t0 = perf_counter()
    rs = import_package()
    wl = build(rs, name, seed, scale)
    return rs, wl, perf_counter() - t0


def environment() -> dict:
    import numpy
    import scipy

    lines = 0
    digest = hashlib.sha256()
    for path in sorted((SRC / "rumorsource").rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "src_lines": lines,
        "src_sha256": digest.hexdigest(),
    }


def git_commit():
    """HEAD of the repository rooted at ROOT, or None outside one."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = top.stdout.split()
    if top.returncode != 0 or len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return None
    return out[1]


def measure(wl, rec, deadline: float, tr=None) -> list[tuple]:
    """Run passes, at least one, until the deadline; (wall s, trials) each."""
    passes = []
    while True:
        before = len(rec.trial_s)
        t0 = perf_counter()
        wl.run_pass(rec, tr)
        passes.append((perf_counter() - t0, len(rec.trial_s) - before))
        if perf_counter() >= deadline:
            return passes


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def tail(trials, passes: list[tuple]) -> tuple:
    """(value, how) for the highest rung with ten trials beyond it.

    When every pass has ten trials beyond the top rung, the value is the
    median of the per-pass percentiles, which a burst of interference in
    one pass cannot move; otherwise all trials of the run are pooled.
    """
    groups, start = [], 0
    for _, count in passes:
        groups.append(trials[start:start + count])
        start += count
    if min(len(g) for g in groups) * (100 - TAIL_LADDER[-1]) / 100 < 10:
        groups = [trials]
    n = min(len(g) for g in groups)
    usable = [p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10]
    p = usable[-1] if usable else 100
    value = statistics.median(percentile(g, p) for g in groups)
    how = (f"p{p} of {n} trials" if len(groups) == 1 else
           f"p{p}, median over {len(groups)} passes of {n}+ trials")
    return value, how


def setup_samples(args, first: float, repeats: int) -> list[float]:
    samples = [first]
    for _ in range(repeats - 1):
        doc = workloads.run_child(
            [__file__, "--probe", "setup", "--workload", args.workload,
             "--seed", str(args.seed), "--scale", args.scale], ROOT)
        samples.append(doc["setup_s"])
    return samples


def end_to_end(args, wl, setup_s: float) -> tuple:
    rec = workloads.Recorder()
    passes = measure(wl, rec, perf_counter() + args.seconds)
    wl.final_checks(rec)
    samples = setup_samples(args, setup_s, workloads.SIZES[args.scale]["setup_repeats"])
    tail_s, tail_how = tail(rec.trial_s, passes)
    metrics = {
        "setup_s": statistics.median(samples),
        "wall_s": statistics.median(w for w, _ in passes),
        "trials_per_s": statistics.median(k / w for w, k in passes),
        "trial_ms_p50": statistics.median(rec.trial_s) * 1e3,
        "trial_ms_tail": tail_s * 1e3,
        "peak_rss_mb": workloads.peak_rss_mb(),
    }
    notes = {
        "setup_s": f"median of {len(samples)} set-ups",
        "wall_s": f"median of {len(passes)} passes",
        "trial_ms_p50": f"{len(rec.trial_s)} trials",
        "trial_ms_tail": tail_how,
    }
    print(f"failed_frac {rec.failed / rec.attempted!r} ratio "
          f"({rec.failed} of {rec.attempted} ops)")
    return rec, metrics, notes


def overhead_pct(plain, traced) -> float:
    """Traced over untraced op time, by summed per-key medians, as a percent."""
    keys = [k for k in traced.by_key if k in plain.by_key]
    base = sum(statistics.median(plain.by_key[k]) for k in keys)
    with_spans = sum(statistics.median(traced.by_key[k]) for k in keys)
    return (with_spans / base - 1) * 100 if base else 0.0


def per_layer(args, wl, env: dict) -> tuple:
    start = perf_counter()
    plain = workloads.Recorder()
    with GcMonitor() as gcm:
        measure(wl, plain, start + args.seconds / 3)
    tr = Tracer()
    traced = workloads.Recorder()
    measure(wl, traced, start + args.seconds, tr)
    wl.final_checks(traced)
    layers = wl.layers(tr, traced)
    ops = max(len(plain.trial_s), 1)
    layers["runtime.gc_gen2_per_ktrial"] = gcm.gen2 * 1000 / ops
    layers["runtime.gc_pause_ms"] = gcm.pause_ns * 1e-6 * 1000 / ops
    layers["trace.overhead_pct"] = overhead_pct(plain, traced)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tr.write(path, {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "env": env})
    notes = {"runtime.gc_pause_ms": "all generations, per 1,000 trials",
             "trace.overhead_pct": f"{len(tr.spans)} spans written to {path.relative_to(ROOT)}"}
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    return plain, layers, notes


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(workloads.SIZES), default="full",
                    help="tiny runs every op at toy sizes, for the smoke test")
    ap.add_argument("--probe", choices=("setup", "float-walk"),
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    rs, wl, setup_s = timed_setup(args.workload, args.seed, args.scale)
    if args.probe == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.probe == "float-walk":
        size = workloads.SIZES[args.scale]["exact-grid"]
        print(json.dumps(workloads.float_walk_rss(rs, size)))
        return 0
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    env = environment()
    print(f"workload {args.workload} seed {args.seed} scale {args.scale} "
          f"seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(env))
    if args.trace:
        rec, metrics, notes = per_layer(args, wl, env)
    else:
        rec, metrics, notes = end_to_end(args, wl, setup_s)
    unknown = set(metrics) - set(units)
    if unknown:
        raise SystemExit(f"error: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A per-layer metric of a layer this workload never enters reads 0.
    metrics = {name: metrics.get(name, 0.0) for name in units}
    for name, value in metrics.items():
        note = f" ({notes[name]})" if name in notes else ""
        print(f"{name} {value!r} {units[name]}{note}")
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
