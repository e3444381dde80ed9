"""Benchmark of diffusionlab's train, sample and eval workflows.

    python3 perfbench/run.py --workload sample --seed 7 --seconds 30 --trace 0

Run from the root of a source tree. Each workload runs in a fresh process
as one client in a closed loop: after set-up, the process repeats rounds,
and a round runs each of the workload's jobs once through
`diffusionlab.cli.main(argv)` in-process. Set-up is repeated in further
fresh processes and its median reported. Times are scaled to a reference
host speed (see hostspeed.py). `--trace 0` prints the end-to-end
metrics, `--trace 1` the per-layer metrics of a run with spans recorded
around each layer. The last line of stdout is one JSON object; the full
result, with the run's environment, is also written under
perfbench/results/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUPS = 5  # set-up is timed in this many fresh processes
# One BLAS thread: on a small shared host a second BLAS thread gains little
# for these dispatch-bound jobs and adds the neighbours' load to the timings.
THREADS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150
UNITS = {"setup_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "sample", "eval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("setup", "run"), help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ------------------------------------------------------------ child process


def child(args) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import diffusionlab.cli  # noqa: F401  timed: cli.import_s
    import_s = time.perf_counter() - t0

    import resource

    import diffusionlab
    import numpy as np

    import hostspeed
    import workloads

    wl = workloads.WORKLOADS[args.workload](Path(args.work), args.seed)
    wl.setup()
    ready = time.monotonic()
    hostspeed.calibrate()  # warm-up
    calibration = hostspeed.calibrate_median()
    out = {"ready": ready, "calibration_s": calibration, "import_s": import_s}
    if args.role == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.recording = True

    # rounds: (reference-speed seconds, wall seconds, names of the jobs that exited 0)
    rounds, problems = [], []
    start = time.perf_counter()
    while True:
        ok, ref_s, wall_s = [], 0.0, 0.0
        for job in wl.jobs:
            t0 = time.perf_counter()
            span = tracer.open("cli.main") if tracer else None
            rc = workloads.run_cli(job.argv)
            t1 = time.perf_counter()
            if tracer:
                tracer.close(span, t1)
            after = hostspeed.calibrate()
            wall_s += t1 - t0
            ref_s += hostspeed.reference_seconds(t1 - t0, calibration, after)
            calibration = after
            if rc == 0:
                ok.append(job.name)
            else:
                print(f"{args.workload}/{job.name}: exit code {rc}", file=sys.stderr)
        rounds.append((ref_s, wall_s, ok))
        problems += wl.check_round()
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.recording = False
        if any(job.argv[0] == "sample" for job in wl.jobs):
            tracer.probe_alloc = True  # one untimed round for sampler.peak_alloc_mb
            for job in wl.jobs:
                workloads.run_cli(job.argv)
            tracer.probe_alloc = False
        tracer.uninstall()
        out["layers"] = tracing.layer_metrics(tracer, len(rounds))
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        tracer.save(str(results / f"trace_{args.workload}_seed{args.seed}.npz"))

    rows = {job.name: job.rows for job in wl.jobs}
    done = [sum(rows[n] for n in ok) for _, _, ok in rounds]
    out.update(rates=[r / ref_s for r, (ref_s, _, _) in zip(done, rounds)],
               wall_rates=[r / wall_s for r, (_, wall_s, _) in zip(done, rounds)],
               attempted=len(rounds) * len(wl.jobs),
               failed=sum(len(wl.jobs) - len(ok) for _, _, ok in rounds),
               problems=problems + wl.check(), peak_rss_mb=peak_rss_mb,
               backend=diffusionlab.BACKEND, numpy=np.__version__)
    print(json.dumps(out))
    return 0


# ------------------------------------------------------------ parent process


def spawn(args, role: str, work: Path) -> tuple[float, float, dict]:
    """Run one child to its end; returns its set-up time in reference-speed
    and in wall seconds, and its JSON result."""
    import hostspeed

    env = dict(os.environ, PYTHONPATH=str(SRC), **THREADS_ENV)
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--role", role, "--work", str(work)]
    before = hostspeed.calibrate_median()
    t_spawn = time.monotonic()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{role} process exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    wall = result["ready"] - t_spawn
    return hostspeed.reference_seconds(wall, before, result["calibration_s"]), wall, result


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def parent(args) -> int:
    import hostspeed

    hostspeed.calibrate()  # warm-up
    setups, wall_setups, imports = [], [], []
    try:
        for i in range(SETUPS):
            role = "run" if i == SETUPS - 1 else "setup"
            work = HERE / "work" / f"{args.workload}-{role}{i}-{os.getpid()}"
            try:
                setup_s, wall_s, result = spawn(args, role, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            setups.append(setup_s)
            wall_setups.append(wall_s)
            imports.append(result["import_s"])
    except (RuntimeError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if args.trace:
        values = dict(result["layers"], **{"cli.import_s": statistics.median(imports)})
        units = {name: unit_of(name) for name in values}
    else:
        values = {"setup_s": statistics.median(setups),
                  "rows_per_s": statistics.median(result["rates"]),
                  "peak_rss_mb": result["peak_rss_mb"]}
        units = UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    for name, m in metrics.items():
        print(f"{args.workload:>7} {name:<24} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:>7} wall-clock setup {statistics.median(wall_setups):.6g} s, "
          f"rows per wall second {statistics.median(result['wall_rates']):.6g}"
          + (" (under tracing)" if args.trace else ""))

    summary = {"correct": not result["problems"], "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    record = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=len(result["rates"]), round_rates=result["rates"],
                  round_rates_wall=result["wall_rates"], setup_runs_s=setups,
                  setup_runs_wall_s=wall_setups, problems=result["problems"], git_commit=git_commit(),
                  backend=result["backend"], nproc=os.cpu_count(),
                  python=platform.python_version(), numpy=result["numpy"],
                  src_lines=src_lines())
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(summary))
    return 0


def unit_of(name: str) -> str:
    for suffix, unit in (("_s", "s"), (".s", "s"), ("_mb", "MB"), ("us_per_call", "us"),
                         ("ns_per_row", "ns")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "diffusionlab" / "cli.py").is_file():
        print(f"error: no diffusionlab sources under {SRC}", file=sys.stderr)
        return 2
    return child(args) if args.role else parent(args)


if __name__ == "__main__":
    sys.exit(main())
