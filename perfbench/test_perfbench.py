"""Tests of the benchmark itself: each workload emits every metric that
BENCHMARK.json names, and each output check rejects a corrupted output.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _one_round(name, tmp_path_factory):
    """The workload set up in a fresh directory, with one round run."""
    wl = workloads.WORKLOADS[name](tmp_path_factory.mktemp(name), 5)
    wl.setup()
    assert [workloads.run_cli(job.argv) for job in wl.jobs] == [0] * len(wl.jobs)
    assert wl.check_round() == []
    return wl


@pytest.fixture(scope="module")
def train(tmp_path_factory):
    return _one_round("train", tmp_path_factory)


@pytest.fixture(scope="module")
def sample(tmp_path_factory):
    return _one_round("sample", tmp_path_factory)


@pytest.fixture(scope="module")
def eval_(tmp_path_factory):
    return _one_round("eval", tmp_path_factory)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_short_run_emits_every_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    jobs_per_round = {"train": 3, "sample": 5, "eval": 3}[name]
    assert result["attempted"] % jobs_per_round == 0
    assert result["failed"] == 0


@pytest.mark.parametrize("fixture", ["train", "sample", "eval_"])
def test_clean_outputs_pass(fixture, request):
    wl = request.getfixturevalue(fixture)
    assert wl.check() == []


def test_perturbed_sample_row_is_rejected(sample):
    argv, count, out = sample.specs["ddpm"]
    path = out / "samples.csv"
    clean = path.read_bytes()
    try:
        lines = clean.decode().split("\r\n")
        first = [float(v) for v in lines[0].split(",")]
        lines[0] = f"{first[0] * (1 + 1e-15):.17g},{first[1]!r}"
        path.write_bytes("\r\n".join(lines).encode())
        assert sample.check_round() != []
        assert workloads.check_prefix("ddpm", argv, out, sample.work / "prefix_t") != []
        lines[1] = "nan,0"
        path.write_bytes("\r\n".join(lines).encode())
        assert workloads.check_sample_out("ddpm", out, count) != []
    finally:
        path.write_bytes(clean)
    assert sample.check_round() == []


def test_changed_report_value_is_rejected(eval_):
    gen, refp, features, out = eval_.specs["gen_wide"]
    clean = out.read_bytes()
    assert workloads.check_report("gen_wide", out, gen, refp, features) == []
    try:
        # each change is ten times the check's tolerance for that metric
        for metric, change in (("fid", lambda v: v + 1e-5), ("is", lambda v: v * (1 + 1e-7))):
            lines = clean.decode().split("\r\n")
            row = next(i for i, line in enumerate(lines) if line.startswith(metric + ","))
            cells = lines[row].split(",")
            cells[1] = repr(change(float(cells[1])))
            lines[row] = ",".join(cells)
            out.write_bytes("\r\n".join(lines).encode())
            assert workloads.check_report("gen_wide", out, gen, refp, features) != []
    finally:
        out.write_bytes(clean)


def test_truncated_checkpoint_is_rejected(train):
    path = train.specs["cfg"][1] / "model.ckpt"
    clean = path.read_bytes()
    try:
        path.write_bytes(clean[:-4])
        assert train.check_round() != []
        problems = train.check()
        assert any(p.startswith("train/cfg/reload") for p in problems), problems
        assert any(p.startswith("train/cfg/gradient") for p in problems), problems
    finally:
        path.write_bytes(clean)
