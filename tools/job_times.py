"""Time each job of one benchmark workload in two source trees, so that a
change to one layer can be told apart from run-to-run noise and from a
shift in the rest of the round.

    python3 tools/job_times.py --a ../parent --b . --workload eval --seed 801

Each of --pairs pairs starts one fresh process per tree, alternating which
tree runs first. A process imports that tree's perfbench/workloads.py
(read-only) and its src/, runs the workload's set-up in a scratch
directory, then runs every job of the workload --rounds times in-process
through diffusionlab.cli.main, timing each call. One BLAS thread is used,
as in the benchmark. Then one line per job gives, for each tree, the best
and the median of all its calls, and the ratios b/a of both; a last line,
`round`, gives the same of the per-round sums of the job times, the figure
the benchmark's rows_per_s follows. A ratio below 1 means that tree b is
faster. Exit status 1 names a job that did not exit 0.

After its timed rounds, each process runs every job once more under
tracemalloc, a call that enters no timing. The two peak columns give, per
tree, the highest traced peak of a job's call across the processes (for
`round`, of its jobs), in MB: peak RSS is one whole-process high-water
mark, and these pin its moves to jobs.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

THREADS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--a", required=True, help="root of the first source tree")
    p.add_argument("--b", required=True, help="root of the second source tree")
    p.add_argument("--workload", required=True, choices=("train", "sample", "eval"))
    p.add_argument("--seed", type=int, required=True, help="workload seed")
    p.add_argument("--pairs", type=int, default=4, help="processes per tree")
    p.add_argument("--rounds", type=int, default=20, help="rounds per process")
    p.add_argument("--child", help=argparse.SUPPRESS)  # tree root: run and time it
    p.add_argument("--work", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child(args) -> int:
    """Set up the workload from the tree's own benchmark code, then print
    {"times": {job: [seconds per call]}, "peaks": {job: traced peak bytes}}
    as one JSON line."""
    tree = Path(args.child).resolve()
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src")]
    import workloads

    wl = workloads.WORKLOADS[args.workload](Path(args.work), args.seed)
    wl.setup()
    times = {job.name: [] for job in wl.jobs}
    for _ in range(args.rounds):
        for job in wl.jobs:
            t0 = time.perf_counter()
            code = workloads.run_cli(job.argv)
            times[job.name].append(time.perf_counter() - t0)
            if code != 0:
                print(f"error: {args.workload}/{job.name} exited {code}", file=sys.stderr)
                return 1
    peaks = {}
    for job in wl.jobs:
        tracemalloc.start()
        try:
            workloads.run_cli(job.argv)
            peaks[job.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    print(json.dumps({"times": times, "peaks": peaks}))
    return 0


def run_tree(args, tree: str, scratch: Path, i: int) -> dict:
    work = scratch / f"{i}-{Path(tree).resolve().name}"
    argv = [sys.executable, str(Path(__file__).resolve()), "--a", args.a, "--b", args.b,
            "--workload", args.workload, "--seed", str(args.seed),
            "--rounds", str(args.rounds), "--child", tree, "--work", str(work)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              env=dict(os.environ, **THREADS_ENV))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child(args)
    calls = {args.a: {}, args.b: {}}
    peaks = {args.a: {}, args.b: {}}
    with tempfile.TemporaryDirectory(prefix="job_times-") as scratch:
        for i in range(args.pairs):
            for tree in (args.a, args.b) if i % 2 == 0 else (args.b, args.a):
                try:
                    result = run_tree(args, tree, Path(scratch), i)
                except RuntimeError as e:
                    print(f"error: {e}", file=sys.stderr)
                    return 1
                for job, seconds in result["times"].items():
                    calls[tree].setdefault(job, []).extend(seconds)
                for job, peak in result["peaks"].items():
                    peaks[tree][job] = max(peak, peaks[tree].get(job, 0))
    print(f"{'job':<12} {'a best ms':>10} {'b best ms':>10} {'b/a':>7} "
          f"{'a median ms':>12} {'b median ms':>12} {'b/a':>7} {'a peak MB':>10} {'b peak MB':>10}")
    for tree in calls:  # the round row: each round's jobs summed, the peak of its jobs
        calls[tree]["round"] = [sum(jobs) for jobs in zip(*calls[tree].values())]
        peaks[tree]["round"] = max(peaks[tree].values())
    for job, a_s in calls[args.a].items():
        b_s = calls[args.b][job]
        best_a, best_b = min(a_s), min(b_s)
        med_a, med_b = statistics.median(a_s), statistics.median(b_s)
        print(f"{job:<12} {best_a * 1e3:>10.3f} {best_b * 1e3:>10.3f} {best_b / best_a:>7.3f} "
              f"{med_a * 1e3:>12.3f} {med_b * 1e3:>12.3f} {med_b / med_a:>7.3f} "
              f"{peaks[args.a][job] / 1e6:>10.3f} {peaks[args.b][job] / 1e6:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
