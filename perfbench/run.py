"""sgosc benchmark runner.

    python3 perfbench/run.py --workload kg-sets --seed 1 --seconds 20 --trace 0

runs one workload from the sources under src/ of this checkout: it sets up
the workload's inputs from the seed, runs whole rounds of sgosc calls until
--seconds have passed, checks every result against references computed
apart from sgosc, and prints as its last line one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s, cpu_s,
peak_rss_mb, work_per_s).  With --trace 1 the run is split in halves: an
untraced half, then a traced set-up and half whose spans give the per-layer
metrics (written to perfbench/out/spans-*.npz) and the tracing overhead.

    python3 perfbench/run.py --workload kg-sets --seed 1 --repeat 10

is the steadiness mode: it runs the workload in 10 fresh processes with
seeds 1..10 and prints the median and quartiles of every metric.

The measured process computes in one thread (see README.md); --threads
default leaves the thread pools at their defaults, for reference runs only.
"""

import time

T0 = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("kg-sets", "pairing", "quad-deep", "wf-scan")
THREAD_VARS = ("SGOSC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_REPS = 3  # setup_s reports the median of this many set-ups

END_TO_END = {
    # name: (unit, better)
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "work_per_s": ("1/s", "higher"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="Run one sgosc benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, help="steadiness mode: K runs")
    p.add_argument("--threads", default="1", help="thread pool size, or 'default'")
    return p.parse_args(argv)


def import_workloads():
    src = ROOT / "src"
    if not (src / "sgosc" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no sgosc sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import sgosc
    import workloads

    if Path(sgosc.__file__).resolve().parent != (src / "sgosc").resolve():
        raise SystemExit(f"run.py: imported sgosc from {sgosc.__file__}, not {src}")
    return workloads


def timed_rounds(wl, state, seconds):
    """Whole rounds until `seconds` have passed; per-round wall and CPU."""
    rounds, walls, cpus = [], [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    i = 0
    while True:
        inp = wl.inputs(state, i)
        w0, c0 = time.perf_counter(), time.process_time()
        res = wl.run(state, inp)
        cpus.append(time.process_time() - c0)
        walls.append(time.perf_counter() - w0)
        attempted += wl.ops_per_round(state)
        failed += wl.failed(state, res)
        rounds.append((inp, res))
        i += 1
        if time.perf_counter() - t_start >= seconds:
            return rounds, walls, cpus, attempted, failed


def single_run(args):
    wmod = import_workloads()
    imports_s = time.perf_counter() - T0
    wl = wmod.WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        state = wl.setup(args.seed)
        setups.append(time.perf_counter() - t)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace == 0:
        rounds, walls, cpus, attempted, failed = timed_rounds(wl, state, args.seconds)
        metrics = {
            "setup_s": imports_s + statistics.median(setups),
            "wall_s": statistics.fmean(walls),
            "cpu_s": statistics.fmean(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "work_per_s": (attempted - failed) / sum(walls),
        }
        units = END_TO_END
    else:
        from spans import PER_LAYER, Tracer, layer_metrics

        rounds, walls, _, attempted, failed = timed_rounds(wl, state, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            m0 = tracer.mark()
            state = wl.setup(args.seed)
            m1 = tracer.mark()
            t_rounds, t_walls, _, t_att, t_fail = timed_rounds(wl, state, args.seconds / 2)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer.table(m1), len(t_rounds), tracer.table(m0, m1))
        metrics["trace.overhead_s"] = statistics.fmean(t_walls) - statistics.fmean(walls)
        tracer.save(OUT / f"spans-{tag}.npz")
        spans = tracer.mark()
        rounds += t_rounds
        attempted += t_att
        failed += t_fail
        walls += t_walls
        units = PER_LAYER

    problems = wl.check(state, rounds)
    rejects_corruption = bool(wl.check(state, wl.corrupt(rounds)))
    if not rejects_corruption:
        problems.append("the check accepted a corrupted result")
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
    }
    detail = {"rounds": len(rounds), "round_wall_s": walls, "setup_reps_s": setups,
              "imports_s": imports_s, "problems": problems}
    if args.trace:
        detail["spans"] = spans
    (OUT / f"result-{tag}.json").write_text(json.dumps({**result, "detail": detail}, indent=1))
    print(json.dumps(result))


def steadiness(args, argv):
    """Run the workload args.repeat times in fresh processes, seeds
    seed..seed+K-1, and report the median and quartiles of each metric."""
    base = [sys.executable, str(Path(__file__).resolve())] + _drop_opt(argv, ("--repeat", "--seed"))
    runs = []
    for k in range(args.repeat):
        proc = subprocess.run(
            base + ["--seed", str(args.seed + k)], capture_output=True, text=True, check=True
        )
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {args.seed + k}: {proc.stdout.strip().splitlines()[-1]}", file=sys.stderr)
    summary = {
        "workload": args.workload,
        "runs": len(runs),
        "all_correct": all(r["correct"] for r in runs),
        "failed_share": sorted({r["failed"] / r["attempted"] for r in runs}),
        "metrics": {},
    }
    for name, m in runs[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary["metrics"][name] = {
            "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": vals,
        }
        print(f"{name:34s} median {med:12.6g} {m['unit']:6s} q1 {q1:12.6g} q3 {q3:12.6g}"
              f"  spread {summary['metrics'][name]['spread']}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    (OUT / f"steady-{args.workload}-trace{args.trace}.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps(summary))


def _drop_opt(argv, names):
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a in names:
            skip = True
        elif not any(a.startswith(n + "=") for n in names):
            out.append(a)
    return out


def main(argv):
    args = parse_args(argv)
    if args.threads != "default":
        for v in THREAD_VARS:
            os.environ[v] = args.threads
    if args.repeat:
        steadiness(args, argv)
    else:
        single_run(args)


if __name__ == "__main__":
    main(sys.argv[1:])
