"""Digest every file the benchmark's workloads write, so that two source
trees can be shown to write the same bytes.

    python3 tools/output_digests.py --tree . --seed 801 --work /tmp/dig-new > new.txt
    python3 tools/output_digests.py --tree ../old --seed 801 --work /tmp/dig-old > old.txt
    diff old.txt new.txt

For each workload of the tree's perfbench/workloads.py (train, sample,
eval), the set-up and one round of its jobs run in <work>/<workload>
through that tree's program, in this process. Then one `sha256  path` line
is printed per file under the work directory, sorted by path. Paths are
relative to the work directory, and inside the `.ini` configs and `.json`
manifests, which embed it, the work directory's text reads `<work>`, so
runs in two work directories compare equal. The work directory must be
absent or empty. Exit status 1 names a job that did not exit 0.
"""

import argparse
import hashlib
import os
import sys
from pathlib import Path

# the benchmark's child processes use one BLAS thread
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

EMBEDS_WORK = (".ini", ".json")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--tree", required=True, help="root of the source tree to run")
    p.add_argument("--seed", type=int, required=True, help="workload seed")
    p.add_argument("--work", required=True, help="absent or empty directory for the outputs")
    return p.parse_args(argv)


def digest_lines(work: Path) -> list[str]:
    """`sha256  path` for each file under work, the work directory's text
    replaced by `<work>` in the files that embed it."""
    lines = []
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix in EMBEDS_WORK:
            data = data.replace(str(work).encode(), b"<work>")
        lines.append(f"{hashlib.sha256(data).hexdigest()}  {path.relative_to(work).as_posix()}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    tree = Path(args.tree).resolve()
    work = Path(args.work).resolve()
    if work.exists() and (not work.is_dir() or any(work.iterdir())):
        print(f"error: {work} is not an empty directory", file=sys.stderr)
        return 2
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src")]
    import workloads

    for name, workload in workloads.WORKLOADS.items():
        wl = workload(work / name, args.seed)
        wl.setup()
        for job in wl.jobs:
            code = workloads.run_cli(job.argv)
            if code != 0:
                print(f"error: {name}/{job.name} exited {code}", file=sys.stderr)
                return 1
    print("\n".join(digest_lines(work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
