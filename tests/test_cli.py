"""End-to-end command-line contract: exit codes, byte-stable outputs, and
the documented reductions between sampler variants, through real
subprocesses; the sweeps over error classes and malformed checkpoints call
`cli.main` in process."""

import ast
import builtins
import csv
import hashlib
import importlib.util
import json
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diffusionlab import cli, errors, fileio
from diffusionlab.data import quantize_to_grid
from diffusionlab.fileio import read_numeric_csv, write_pgm, write_samples_csv
from diffusionlab.denoiser import DenoiserArch, DenoiserModel
from diffusionlab.forward import grid_level, grid_value
from diffusionlab.metrics import (FeatureModel, discrete_kl, save_feature_model,
                                  train_feature_model)
from diffusionlab.numerics import RngStream
from diffusionlab.schedule import linear_schedule
from diffusionlab.training import load_checkpoint, save_checkpoint

from conftest import child_env, write_idx

BASE_INI = """\
[dataset]
kind = gaussian
center = 1.0,-1.0
sigma = 0.5

[schedule]
type = cosine
t = 5

[model]
hidden = 8
d_emb = 4
{model_extra}
[train]
variant = {variant}
gamma = 1e-3
batch = 4
steps = {steps}
seed = {seed}

[output]
dir = {out}
"""


def run_cli(*args, cwd):
    """Run one command; stdout must never carry anything but # lines."""
    proc = subprocess.run([sys.executable, "-m", "diffusionlab.cli", *map(str, args)],
                          capture_output=True, text=True, cwd=cwd, env=child_env())
    for line in proc.stdout.splitlines():
        assert line.startswith("#"), f"stdout leaked a non-progress line: {line!r}"
    return proc


def run_ok(*args, cwd):
    """Run one command that must succeed; a failure shows the child's stderr."""
    proc = run_cli(*args, cwd=cwd)
    assert proc.returncode == 0, (
        f"{' '.join(map(str, args))} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def write_ini(path, variant="ddpm", steps=4, seed=0, out="out", model_extra="",
              body=None):
    text = body if body is not None else BASE_INI.format(
        variant=variant, steps=steps, seed=seed, out=out, model_extra=model_extra)
    path.write_text(text)
    return path


def csv_rows(path):
    """The rows of a CSV file as lists of text cells."""
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


def csv_body(path):
    """The rows after a CSV file's header line, as a float matrix."""
    return np.array([[float(v) for v in row] for row in csv_rows(path)[1:]])


def metric_value(path, name, column=1):
    rows = csv_rows(path)
    assert rows[0] == ["metric", "value", "k_samples", "m_samples", "batches", "std"]
    for row in rows[1:]:
        if row[0] == name:
            return float(row[column])
    raise AssertionError(f"metric {name} missing from {path}")


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One directory with trained checkpoints and eval inputs that each CLI
    test can reuse, in any order."""
    root = tmp_path_factory.mktemp("cliwork")

    write_ini(root / "base.ini", out="base")
    run_ok("train", "base.ini", cwd=root)

    write_ini(root / "dual.ini", variant="improved", out="dual",
              model_extra="head = noise+variance\n")
    run_ok("train", "dual.ini", cwd=root)

    cond_body = BASE_INI.format(variant="cfg", steps=4, seed=1, out="cond",
                                model_extra="num_classes = 8\n")
    cond_body = cond_body.replace("kind = gaussian", "kind = mixture8")
    write_ini(root / "cond.ini", body=cond_body)
    run_ok("train", "cond.ini", cwd=root)

    d4_body = BASE_INI.format(variant="ddpm", steps=3, seed=2, out="d4",
                              model_extra="")
    d4_body = d4_body.replace("center = 1.0,-1.0", "center = 0.5,-0.5,0.25,0.0")
    write_ini(root / "d4.ini", body=d4_body)
    run_ok("train", "d4.ini", cwd=root)

    rng = RngStream(5)
    x = rng.normals(160 * 2).reshape(160, 2)
    labels = (x[:, 0] > 0).astype(np.int64)
    fm = train_feature_model(x, labels, num_classes=2, steps=80, seed=1)
    save_feature_model(str(root / "features.ckpt"), fm)

    rng = RngStream(21)
    write_samples_csv(str(root / "same.csv"), rng.normals(80 * 2).reshape(80, 2))
    run_ok("sample", "d4/model.ckpt", "--count", 2, "--seed", 5,
           "--format", "pgm", "--out", "pA", cwd=root)
    return root


# ------------------------------------------------------------ train


def test_train_reruns_are_bitwise_identical(work):
    write_ini(work / "reA.ini", seed=9, out="reA")
    write_ini(work / "reB.ini", seed=9, out="reB")
    assert run_cli("train", "reA.ini", cwd=work).returncode == 0
    assert run_cli("train", "reB.ini", cwd=work).returncode == 0
    assert sha256(work / "reA" / "model.ckpt") == sha256(work / "reB" / "model.ckpt")
    assert (work / "reA" / "loss.csv").read_bytes() == (work / "reB" / "loss.csv").read_bytes()


def test_train_zero_steps_keeps_initialization(work):
    from diffusionlab.denoiser import DenoiserArch, DenoiserModel

    write_ini(work / "zero.ini", steps=0, seed=4, out="zero")
    assert run_cli("train", "zero.ini", cwd=work).returncode == 0
    ck = load_checkpoint(str(work / "zero" / "model.ckpt"))
    init = DenoiserModel.initialized(DenoiserArch(2, (8,), 4), seed=4)
    assert np.array_equal(ck.params32, init.params.astype("<f4"))
    assert ck.step == 0


def test_train_from_idx_dataset(work):
    rng = RngStream(12)
    x = np.clip(rng.normals(64 * 4).reshape(64, 4) * 0.3, -1.0, 1.0)
    write_idx(work / "train.idx", grid_level(quantize_to_grid(x)).reshape(64, 2, 2))
    write_idx(work / "labels.idx", x[:, 0] > 0)
    body = """\
[dataset]
kind = idx
path = train.idx
labels = labels.idx

[schedule]
type = linear
t = 5

[model]
hidden = 8

[train]
steps = 3
batch = 8

[output]
dir = fromidx
"""
    write_ini(work / "idx.ini", body=body)
    assert run_cli("train", "idx.ini", cwd=work).returncode == 0
    ck = load_checkpoint(str(work / "fromidx" / "model.ckpt"))
    assert ck.arch["d"] == 4


def test_unknown_config_key_is_exit_2(tmp_path):
    (tmp_path / "bad.ini").write_text("[dataset]\nbogus = 1\n")
    proc = run_cli("train", "bad.ini", cwd=tmp_path)
    assert proc.returncode == 2
    assert "bogus" in proc.stderr


@pytest.mark.parametrize("body, message", [
    (b"[train]\nsteps = 5\xff\n", "not UTF-8"),
    (b"[train]\nsteps = %\n", "bad value"),
    (b"[train]\nsteps\n", "cannot parse"),
])
def test_damaged_config_text_is_exit_2_with_one_error_line(tmp_path, monkeypatch, capsys,
                                                           body, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.ini").write_bytes(body)
    assert cli.main(["train", "bad.ini"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err, err


def test_unknown_config_section_is_exit_2(tmp_path):
    (tmp_path / "bad.ini").write_text("[mystery]\nx = 1\n")
    proc = run_cli("train", "bad.ini", cwd=tmp_path)
    assert proc.returncode == 2


# the 21 defaults of the run-config table, as RunConfig fields
_CONFIG_DEFAULTS = {
    "dataset_kind": "gaussian", "center": (1.0, -1.0), "sigma": 0.5, "radius": 1.0,
    "data_path": None, "labels_path": None, "schedule_type": "linear", "T": 50, "s": 0.008,
    "hidden": (32, 32), "d_emb": 8, "head": "noise-only", "num_classes": 0, "variant": "ddpm",
    "out_dir": "run-output",
}
_TRAIN_DEFAULTS = {"gamma": 1e-3, "J": 64, "N": 1000, "lam": 0.001, "p_uncond": 0.1, "seed": 0}


def _config_fields(rc):
    fields = {name: getattr(rc, name) for name in _CONFIG_DEFAULTS}
    return fields, {name: getattr(rc.train_cfg, name) for name in _TRAIN_DEFAULTS}


def test_run_config_defaults(tmp_path):
    (tmp_path / "min.ini").write_text("[train]\n")
    rc = cli.load_run_config(str(tmp_path / "min.ini"))
    assert _config_fields(rc) == (_CONFIG_DEFAULTS, _TRAIN_DEFAULTS)
    sched = cli.build_schedule(rc.schedule_type, rc.T, rc.s)
    assert (sched.kind, sched.T) == ("linear", 50)


def test_run_config_reads_every_key(tmp_path):
    (tmp_path / "x.idx").write_bytes(b"")
    (tmp_path / "y.idx").write_bytes(b"")
    body = """\
[dataset]
kind = idx
center = 0.5,2,-3
sigma = 0.25
radius = 2.5
path = {x}
labels = {y}
[schedule]
type = cosine
t = 7
s = 0.02
[model]
hidden = 16,8,4
d_emb = 6
head = noise+variance
num_classes = 3
[train]
variant = improved
gamma = 0.5
batch = 9
steps = 11
lambda = 0.25
p_uncond = 0.75
seed = 13
[output]
dir = elsewhere
""".format(x=tmp_path / "x.idx", y=tmp_path / "y.idx")
    (tmp_path / "full.ini").write_text(body)
    rc = cli.load_run_config(str(tmp_path / "full.ini"))
    assert _config_fields(rc) == ({
        "dataset_kind": "idx", "center": (0.5, 2.0, -3.0), "sigma": 0.25, "radius": 2.5,
        "data_path": str(tmp_path / "x.idx"), "labels_path": str(tmp_path / "y.idx"),
        "schedule_type": "cosine", "T": 7, "s": 0.02, "hidden": (16, 8, 4), "d_emb": 6,
        "head": "noise+variance", "num_classes": 3, "variant": "improved", "out_dir": "elsewhere",
    }, {"gamma": 0.5, "J": 9, "N": 11, "lam": 0.25, "p_uncond": 0.75, "seed": 13})
    sched = cli.build_schedule(rc.schedule_type, rc.T, rc.s)
    assert (sched.kind, sched.T, sched.s) == ("cosine", 7, 0.02)


@pytest.mark.parametrize("section, key, value", [
    ("dataset", "kind", "uniform"),
    ("schedule", "type", "sigmoid"),
    ("model", "head", "noise"),
])
def test_config_choice_outside_its_values_is_exit_2(tmp_path, monkeypatch, capsys,
                                                     section, key, value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.ini").write_text(f"[{section}]\n{key} = {value}\n")
    assert cli.main(["train", "bad.ini"]) == 2
    err = capsys.readouterr().err
    assert f"[{section}] {key} must be one of" in err and repr(value) in err, err
    assert not (tmp_path / "run-output").exists()


def test_missing_dataset_file_is_exit_3(tmp_path):
    body = "[dataset]\nkind = idx\npath = nowhere.idx\n"
    (tmp_path / "m.ini").write_text(body)
    proc = run_cli("train", "m.ini", cwd=tmp_path)
    assert proc.returncode == 3


def test_missing_config_file_is_exit_3(tmp_path):
    proc = run_cli("train", "absent.ini", cwd=tmp_path)
    assert proc.returncode == 3


def test_diverging_loss_is_exit_4(tmp_path):
    write_ini(tmp_path / "boom.ini", steps=10, out="boom")
    text = (tmp_path / "boom.ini").read_text().replace("gamma = 1e-3", "gamma = 1e12")
    (tmp_path / "boom.ini").write_text(text)
    proc = run_cli("train", "boom.ini", cwd=tmp_path)
    assert proc.returncode == 4
    assert "non-finite" in proc.stderr


def test_diverging_loss_stops_at_its_step_and_saves_nothing(tmp_path):
    # 100 000 steps would take minutes; the run must stop at the first
    # non-finite loss, name its step, and write no checkpoint or loss file
    def config(name, steps):
        write_ini(tmp_path / f"{name}.ini", steps=steps, out=name)
        text = (tmp_path / f"{name}.ini").read_text().replace("gamma = 1e-3", "gamma = 1e12")
        (tmp_path / f"{name}.ini").write_text(text)

    config("boom", 100_000)
    proc = run_cli("train", "boom.ini", cwd=tmp_path)
    assert proc.returncode == 4
    match = re.search(r"non-finite at step (\d+) \(t = \d+\)", proc.stderr)
    assert match, proc.stderr
    assert not (tmp_path / "boom").exists()
    step = int(match.group(1))
    assert step > 1
    # the steps before it all had finite losses (their parameters may pass
    # float32's range, which the checkpoint refuses, so the run is in process)
    config("before", step - 1)
    rc = cli.load_run_config(str(tmp_path / "before.ini"))
    source, d, _ = cli._build_source(rc)
    with np.errstate(over="ignore", invalid="ignore"):
        losses = cli.train(cli._build_model(rc, d), source, rc.train_cfg,
                           cli.build_schedule(rc.schedule_type, rc.T, rc.s)).losses
    assert len(losses) == step - 1 and np.all(np.isfinite(losses))


@pytest.mark.parametrize("out", ["runfile", "runfile/sub"])
def test_train_refuses_a_file_as_output_dir_before_its_first_step(tmp_path, monkeypatch,
                                                                  capsys, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runfile").write_text("a file, not a directory\n")
    write_ini(tmp_path / "t.ini", steps=3000, out=out)

    def no_training(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(cli, "train", no_training)
    assert cli.main(["train", "t.ini"]) == 3
    assert capsys.readouterr().err == "error: [Errno 20] Not a directory: 'runfile'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runfile", "t.ini"]


@pytest.mark.parametrize("change, code, message", [
    (lambda t: t.replace("variant = ddpm", "variant = bogus"), 2,
     "[train] variant must be one of ddpm, improved, cfg, got 'bogus'"),
    (lambda t: t.replace("variant = ddpm", "variant = improved"), 5, "noise+variance head"),
    (lambda t: t.replace("gamma = 1e-3", "gamma = 1e12").replace("steps = 3", "steps = 50"),
     4, "non-finite at step"),
    (lambda t: t.replace("gamma = 1e-3", "gamma = 1e12"), 3, "not finite as float32"),
    (lambda t: t.replace("kind = gaussian", "kind = idx\npath = four.idx"), 3, "need 4 points"),
    (lambda t: t.replace("seed = 0", "seed = -1"), 2, "seed must lie in 0 ... 2**64 - 1"),
    (lambda t: t.replace("kind = gaussian", "kind = idx\npath = flat.idx"), 3,
     "flat.idx: image size 0x2 is not at least 1x1"),
], ids=["bogus-variant", "improved-noise-head", "non-finite-loss", "float32-overflow",
        "data-exhausted", "negative-seed", "idx-without-pixels"])
def test_refused_train_leaves_no_run_directory(tmp_path, monkeypatch, capsys, change, code,
                                               message):
    monkeypatch.chdir(tmp_path)
    write_idx(tmp_path / "four.idx", np.zeros((3, 2, 2)))
    write_idx(tmp_path / "flat.idx", np.zeros((4, 2, 0)))
    write_ini(tmp_path / "r.ini", steps=3, out="run")
    (tmp_path / "r.ini").write_text(change((tmp_path / "r.ini").read_text()))
    assert cli.main(["train", "r.ini"]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
    assert not (tmp_path / "run").exists()


def _improved(text):
    return (text.replace("variant = ddpm", "variant = improved")
            .replace("d_emb = 4", "d_emb = 4\nhead = noise+variance"))


@pytest.mark.parametrize("change, code, message", [
    (lambda t: t.replace("hidden = 8", "hidden = 0"), 2, "hidden widths must be >= 1"),
    (lambda t: t.replace("hidden = 8", "hidden = -1"), 2, "hidden widths must be >= 1"),
    (lambda t: t.replace("d_emb = 4", "d_emb = 3"), 2, "embedding dim must be even"),
    (lambda t: t.replace("d_emb = 4", "d_emb = 4\nnum_classes = -1"), 2,
     "num_classes must be >= 0"),
    (lambda t: t.replace("gamma = 1e-3", "gamma = nan"), 2, "learning rate must be finite"),
    (lambda t: t.replace("gamma = 1e-3", "gamma = inf"), 2, "learning rate must be finite"),
    (lambda t: _improved(t).replace("gamma = 1e-3", "gamma = 1e-3\nlambda = nan"), 2,
     "hybrid weight must be finite"),
    (lambda t: _improved(t).replace("gamma = 1e-3", "gamma = 1e-3\nlambda = inf"), 2,
     "hybrid weight must be finite"),
    (lambda t: t.replace("sigma = 0.5", "sigma = nan"), 3, "must be finite"),
    (lambda t: _improved(t).replace("sigma = 0.5", "sigma = inf"), 3, "must be finite"),
    (lambda t: t.replace("kind = gaussian", "kind = mixture8\nradius = inf"), 3,
     "must be finite"),
    (lambda t: t.replace("center = 1.0,-1.0", "center = nan,1"), 3, "must be finite"),
], ids=["hidden-0", "hidden-negative", "d_emb-odd", "num_classes-negative", "gamma-nan",
        "gamma-inf", "lambda-nan", "lambda-inf", "sigma-nan", "sigma-inf-improved",
        "radius-inf", "center-nan"])
def test_bad_model_train_or_dataset_value_is_refused_before_the_first_step(
        tmp_path, monkeypatch, capsys, change, code, message):
    def no_training(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "train", no_training)
    write_ini(tmp_path / "r.ini", steps=3, out="run")
    (tmp_path / "r.ini").write_text(change((tmp_path / "r.ini").read_text()))
    assert cli.main(["train", "r.ini"]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err
    assert not (tmp_path / "run").exists()


# ------------------------------------------------------------ sample


def test_ddim_sampling_is_deterministic(work):
    a = run_cli("sample", "base/model.ckpt", "--variant", "ddim", "--k", 3,
                "--eta", 0, "--seed", 7, "--out", "sA", cwd=work)
    b = run_cli("sample", "base/model.ckpt", "--variant", "ddim", "--k", 3,
                "--eta", 0, "--seed", 7, "--out", "sB", cwd=work)
    assert a.returncode == 0 and b.returncode == 0
    assert (work / "sA" / "samples.csv").read_bytes() == (work / "sB" / "samples.csv").read_bytes()
    assert (work / "sA" / "manifest.json").read_bytes() != b""


def test_guided_w0_matches_conditional_ddpm(work):
    g = run_cli("sample", "cond/model.ckpt", "--variant", "guided", "--w", 0,
                "--class", 2, "--seed", 11, "--count", 6, "--out", "gw0", cwd=work)
    d = run_cli("sample", "cond/model.ckpt", "--variant", "ddpm",
                "--class", 2, "--seed", 11, "--count", 6, "--out", "dcond", cwd=work)
    assert g.returncode == 0 and d.returncode == 0
    assert (work / "gw0" / "samples.csv").read_bytes() == (work / "dcond" / "samples.csv").read_bytes()


def test_k_above_T_is_exit_2_naming_constraint(work):
    proc = run_cli("sample", "base/model.ckpt", "--variant", "ddim", "--k", 99,
                   cwd=work)
    assert proc.returncode == 2
    assert "k <= T" in proc.stderr


def test_improved_on_noise_only_head_is_exit_5(work):
    proc = run_cli("sample", "base/model.ckpt", "--variant", "improved", "--k", 3,
                   cwd=work)
    assert proc.returncode == 5


def test_guided_on_unconditional_model_is_exit_5(work):
    proc = run_cli("sample", "base/model.ckpt", "--variant", "guided", "--w", 1,
                   "--class", 0, cwd=work)
    assert proc.returncode == 5


def test_sample_flag_validation_is_exit_2(work):
    ck = "base/model.ckpt"
    assert run_cli("sample", ck, "--count", 0, cwd=work).returncode == 2
    assert run_cli("sample", ck, "--variant", "ddim", "--k", 3, "--eta", 1.5,
                   cwd=work).returncode == 2
    assert run_cli("sample", ck, "--variant", "ddim", cwd=work).returncode == 2
    assert run_cli("sample", "cond/model.ckpt", "--variant", "guided", "--w", 1,
                   cwd=work).returncode == 2
    assert run_cli("sample", "cond/model.ckpt", "--variant", "guided", "--w", 1,
                   "--class", 9, cwd=work).returncode == 2


@pytest.mark.parametrize("flags, message", [
    (("--count", 0), "count must be >= 1, got 0"),
    (("--variant", "improved", "--k", 1), "need 2 <= k <= T, got k=1, T=5"),
    (("--variant", "ddim", "--k", 3, "--eta", 1.5), "eta 1.5 outside [0,1]"),
])
def test_sample_flags_the_library_checks_are_exit_2_before_any_file(work, flags, message):
    ck = "dual/model.ckpt" if "improved" in flags else "base/model.ckpt"
    proc = run_cli("sample", ck, *flags, "--out", "refused", cwd=work)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert not (work / "refused").exists()


def test_unknown_sample_variant_is_exit_2(work):
    proc = run_cli("sample", "base/model.ckpt", "--variant", "euler", "--out", "euler",
                   cwd=work)
    assert proc.returncode == 2
    assert "invalid choice: 'euler'" in proc.stderr
    assert not (work / "euler").exists()


@pytest.mark.parametrize("w", ["nan", "inf", "-inf", "-1"])
def test_guidance_weight_must_be_finite_and_non_negative(work, w):
    proc = run_cli("sample", "cond/model.ckpt", "--variant", "guided", f"--w={w}",
                   "--class", 1, "--count", 2, "--out", f"w_{w}", cwd=work)
    assert proc.returncode == 2, proc.stderr
    assert "guidance weight w must be finite and >= 0" in proc.stderr
    assert not (work / f"w_{w}").exists()


@pytest.mark.parametrize("w", ["1e308", "1e300"])
def test_guided_overflow_is_exit_4_or_finite_and_quiet(work, w):
    # a huge weight overflows the extrapolated noise estimate: the run writes
    # finite rows and nothing on stderr, or stops at its step with exit 4
    out = work / f"big_{w}"
    proc = run_cli("sample", "cond/model.ckpt", "--variant", "guided", f"--w={w}",
                   "--class", 1, "--count", 4, "--out", out.name, cwd=work)
    if w == "1e308" or proc.returncode != 0:
        assert proc.returncode == 4, proc.stderr
        assert re.fullmatch(r"error: guided sampling, step t=\d+: [1-4] of 4 chains hold "
                            r"a NaN or an infinity\n", proc.stderr), proc.stderr
        assert not out.exists()
    else:
        assert proc.stderr == ""
        assert np.isfinite(read_numeric_csv(str(out / "samples.csv"))).all()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sample_seed_outside_64_bits_is_exit_2(work, seed):
    # a masked -1 would draw exactly what seed 2**64 - 1 draws
    proc = run_cli("sample", "base/model.ckpt", "--seed", seed, "--out", "badseed", cwd=work)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: seed must lie in 0 ... 2**64 - 1, got {seed}\n"
    assert not (work / "badseed").exists()


def test_untileable_rows_are_exit_2_before_the_sampler_runs(work, monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr(cli, "ddpm_sample", no_sampling)
    out = work / "rows3"
    assert cli.main(["sample", str(work / "d4" / "model.ckpt"), "--format", "pgm",
                     "--rows", "3", "--out", str(out)]) == 2
    assert "dimension 4 does not tile into 3-pixel rows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("variant, flags", [
    ("guided", ("--w", 1, "--class", 2, "--k", 5, "--eta", 0.5)),
    ("ddpm", ("--w", 1)),
    ("ddpm", ("--k", 3)),
    ("ddim", ("--k", 3, "--w", 0)),
    ("improved", ("--k", 3, "--eta", 0.5)),
    ("improved", ("--k", 3, "--class", 1)),
])
def test_sample_flags_the_variant_ignores_are_exit_2(work, variant, flags):
    ck = {"guided": "cond", "improved": "dual"}.get(variant, "base") + "/model.ckpt"
    proc = run_cli("sample", ck, "--variant", variant, *flags, "--out", "ignored", cwd=work)
    assert proc.returncode == 2, proc.stderr
    assert "does not use" in proc.stderr
    assert not (work / "ignored" / "manifest.json").exists()


def test_improved_sampling_from_dual_checkpoint(work):
    for out in ("impA", "impB"):
        run_ok("sample", "dual/model.ckpt", "--variant", "improved", "--k", 3,
               "--count", 5, "--seed", 4, "--out", out, cwd=work)
    rows = read_numeric_csv(str(work / "impA" / "samples.csv"))
    assert rows.shape == (5, 2)
    assert np.all(np.isfinite(rows))
    assert sha256(work / "impA" / "samples.csv") == sha256(work / "impB" / "samples.csv")


def test_sample_manifest_records_flags(work):
    run_ok("sample", "base/model.ckpt", "--variant", "ddim", "--k", 4,
           "--eta", 0.5, "--seed", 3, "--count", 2, "--out", "mf", cwd=work)
    m = json.loads((work / "mf" / "manifest.json").read_text(encoding="utf-8"))
    assert m["variant"] == "ddim"
    assert m["k"] == 4
    assert m["eta"] == 0.5
    assert m["seed"] == 3
    assert m["count"] == 2
    raw = (work / "mf" / "manifest.json").read_text()
    keys = list(json.loads(raw).keys())
    assert keys == sorted(keys)


@pytest.mark.parametrize("out", ["runfile", "runfile/sub"])
def test_sample_refuses_a_file_as_output_dir_before_sampling(work, tmp_path, monkeypatch,
                                                             capsys, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runfile").write_text("a file, not a directory\n")

    def no_sampling(*args, **kwargs):
        raise AssertionError("a sampler ran")

    for name in ("ddpm_sample", "ddim_sample", "improved_sample", "guided_sample"):
        monkeypatch.setattr(cli, name, no_sampling)
    assert cli.main(["sample", str(work / "base" / "model.ckpt"), "--count", "20000",
                     "--out", out]) == 3
    assert capsys.readouterr().err == "error: [Errno 20] Not a directory: 'runfile'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runfile"]


def test_sample_pgm_output(work):
    proc = run_cli("sample", "d4/model.ckpt", "--count", 3, "--seed", 1,
                   "--format", "pgm", "--out", "imgs", cwd=work)
    assert proc.returncode == 0
    files = sorted((work / "imgs").glob("*.pgm"))
    assert len(files) == 3
    assert files[0].read_bytes().startswith(b"P5\n2 2\n255\n")


# ------------------------------------------------------------ eval


def test_eval_fid_identical_sets_near_zero(work):
    proc = run_cli("eval", "--gen", "same.csv", "--ref", "same.csv",
                   "--metrics", "fid", "--features", "features.ckpt",
                   "--out", "fid.csv", cwd=work)
    assert proc.returncode == 0
    assert abs(metric_value(work / "fid.csv", "fid")) <= 1e-6


def test_eval_psnr_identical_dirs_hits_cap(work):
    # pA comes from the work fixture, sampled with the same flags as pB.
    run_ok("sample", "d4/model.ckpt", "--count", 2, "--seed", 5,
           "--format", "pgm", "--out", "pB", cwd=work)
    proc = run_cli("eval", "--gen", "pA", "--ref", "pB", "--metrics", "psnr",
                   "--out", "psnr.csv", cwd=work)
    assert proc.returncode == 0
    assert metric_value(work / "psnr.csv", "psnr") == 1e9


def test_eval_ssim_identical_dirs_is_one(work):
    proc = run_cli("eval", "--gen", "pA", "--ref", "pA", "--metrics", "ssim",
                   "--window", 2, "--out", "ssim.csv", cwd=work)
    assert proc.returncode == 0
    assert metric_value(work / "ssim.csv", "ssim") == 1.0


def test_eval_kl_matches_module_call(work):
    v = np.array([0.5, 0.25, 0.125, 0.125])
    w = np.array([0.25, 0.25, 0.25, 0.25])
    write_samples_csv(str(work / "v.csv"), v.reshape(1, -1))
    write_samples_csv(str(work / "w.csv"), w.reshape(1, -1))
    proc = run_cli("eval", "--gen", "v.csv", "--ref", "w.csv", "--metrics", "kl",
                   "--out", "kl.csv", cwd=work)
    assert proc.returncode == 0
    assert metric_value(work / "kl.csv", "kl") == discrete_kl(v, w)


def test_eval_is_report_columns(work):
    rng = RngStream(22)
    write_samples_csv(str(work / "isg.csv"), rng.normals(60 * 2).reshape(60, 2))
    proc = run_cli("eval", "--gen", "isg.csv", "--ref", "isg.csv",
                   "--metrics", "is", "--features", "features.ckpt",
                   "--batches", 3, "--out", "is.csv", cwd=work)
    assert proc.returncode == 0
    assert metric_value(work / "is.csv", "is") >= 1.0 - 1e-9
    assert metric_value(work / "is.csv", "is", column=4) == 3


def test_eval_requires_features_for_fid(work):
    proc = run_cli("eval", "--gen", "same.csv", "--ref", "same.csv",
                   "--metrics", "fid", "--out", "x.csv", cwd=work)
    assert proc.returncode == 2


def test_eval_unknown_metric_is_exit_2(work):
    proc = run_cli("eval", "--gen", "same.csv", "--ref", "same.csv",
                   "--metrics", "sharpness", "--out", "x.csv", cwd=work)
    assert proc.returncode == 2


def test_eval_window_that_does_not_tile_is_exit_2(work, tmp_path):
    # pA holds 2x2 images
    proc = run_cli("eval", "--gen", "pA", "--ref", "pA", "--metrics", "ssim",
                   "--window", 3, "--out", str(tmp_path / "m.csv"), cwd=work)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: window 3 must tile image dims (2, 2)\n"
    assert not (tmp_path / "m.csv").exists()


def test_eval_unreadable_input_is_exit_3(work):
    proc = run_cli("eval", "--gen", "ghost.csv", "--ref", "same.csv",
                   "--metrics", "kl", "--out", "x.csv", cwd=work)
    assert proc.returncode == 3


def test_eval_multi_image_pgm_is_exit_3(work, tmp_path):
    # two images in one file: eval must not score the first and drop the rest
    one = (work / "pA" / sorted(p.name for p in (work / "pA").glob("*.pgm"))[0]).read_bytes()
    gen = tmp_path / "gen"
    gen.mkdir()
    (gen / "both.pgm").write_bytes(one + one)
    proc = run_cli("eval", "--gen", str(gen), "--ref", str(gen), "--metrics", "ssim",
                   "--window", 2, "--out", str(tmp_path / "ssim.csv"), cwd=work)
    assert proc.returncode == 3
    assert "both.pgm" in proc.stderr and "header promises 4" in proc.stderr


def test_eval_ssim_unequal_image_counts_is_exit_3(work, tmp_path):
    gen, ref = tmp_path / "gen", tmp_path / "ref"
    gen.mkdir()
    ref.mkdir()
    images = sorted((work / "pA").glob("*.pgm"))
    for i in range(3):
        (gen / f"g{i}.pgm").write_bytes(images[i % 2].read_bytes())
    (ref / "r0.pgm").write_bytes(images[0].read_bytes())
    proc = run_cli("eval", "--gen", str(gen), "--ref", str(ref), "--metrics", "ssim",
                   "--window", 2, "--out", str(tmp_path / "ssim.csv"), cwd=work)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "(3, 4)" in proc.stderr and "(1, 4)" in proc.stderr


def test_eval_pgm_directory_of_mixed_sizes_is_exit_3(work, tmp_path):
    gen = tmp_path / "gen"
    gen.mkdir()
    (gen / "a.pgm").write_bytes((work / "pA" / "sample_00000.pgm").read_bytes())
    write_pgm(str(gen / "b.pgm"), np.zeros((2, 4), dtype=np.uint8))
    proc = run_cli("eval", "--gen", str(gen), "--ref", str(gen), "--metrics", "psnr",
                   "--out", str(tmp_path / "psnr.csv"), cwd=work)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "b.pgm is 4x2 pixels" in proc.stderr


def _zero_pixel_pgm_directory(path):
    path.mkdir()
    for name in ("a.pgm", "b.pgm"):
        (path / name).write_bytes(b"P5\n0 0\n255\n")


@pytest.mark.parametrize("make, name, message", [
    (lambda p: write_idx(p, np.zeros((0, 2, 2))), "none.idx", "none.idx: holds no images"),
    (lambda p: write_idx(p, np.zeros((2, 2, 0))), "flat.idx",
     "flat.idx: image size 0x2 is not at least 1x1"),
    (_zero_pixel_pgm_directory, "flat", "a.pgm: image size 0x0 is not at least 1x1"),
], ids=["idx-no-images", "idx-zero-pixels", "pgm-zero-pixels"])
@pytest.mark.parametrize("metrics", [("psnr",), ("ssim", "--window", 2), ("kl",)],
                         ids=["psnr", "ssim", "kl"])
def test_eval_of_images_without_pixels_is_exit_3(tmp_path, make, name, message, metrics):
    # refused when read, before any metric runs: no traceback, warning or report
    make(tmp_path / name)
    proc = run_cli("eval", "--gen", name, "--ref", name, "--metrics", *metrics,
                   "--out", "m.csv", cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert message in proc.stderr
    assert not (tmp_path / "m.csv").exists()


def test_eval_pgm_directory_lists_every_entry_named_pgm(tmp_path, monkeypatch, capsys):
    # dotfiles, symlinks and directories named *.pgm are listed, in name
    # order; B.PGM and c.pgmx are not; "d", "d/" and "." in d name each file alike
    d = tmp_path / "d"
    d.mkdir()
    write_pgm(str(d / ".h.pgm"), np.full((2, 2), 10, dtype=np.uint8))
    write_pgm(str(d / "a.pgm"), np.full((2, 2), 20, dtype=np.uint8))
    (d / "link.pgm").symlink_to("a.pgm")
    for name in ("B.PGM", "c.pgmx"):  # another size: listing either would fail
        write_pgm(str(d / name), np.zeros((3, 3), dtype=np.uint8))
    want = grid_value(np.repeat(np.array([[10], [20], [20]], dtype=np.uint8), 4, axis=1))
    spellings = [(tmp_path, "d", "d/"), (tmp_path, "d/", "d/"), (d, ".", "")]
    for cwd, path, prefix in spellings:
        monkeypatch.chdir(cwd)
        assert cli._load_eval_matrix(path).tobytes() == want.tobytes()
    write_pgm(str(d / "z.pgm"), np.zeros((3, 3), dtype=np.uint8))
    for cwd, path, prefix in spellings:
        monkeypatch.chdir(cwd)
        with pytest.raises(errors.ShapeMismatch) as e:
            cli._load_eval_matrix(path)
        assert str(e.value) == f"{prefix}z.pgm is 3x3 pixels, {prefix}.h.pgm is 2x2"
    (d / "z.pgm").unlink()
    (d / "sub.pgm").mkdir()
    for cwd, path, prefix in spellings:
        monkeypatch.chdir(cwd)
        assert cli.main(["eval", "--gen", path, "--ref", path, "--metrics", "psnr",
                         "--out", str(tmp_path / "m.csv")]) == 3
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{prefix}sub.pgm'\n"


@pytest.mark.parametrize("raw", [b"0.5,1.0\r\n\xff,2.0\r\n", b'0.5,"1.0\r\n0.25,2.0\r\n'],
                         ids=["non_utf8", "unterminated_quote"])
def test_eval_unreadable_csv_text_is_exit_3(work, tmp_path, raw):
    (tmp_path / "bad.csv").write_bytes(raw)
    proc = run_cli("eval", "--gen", str(tmp_path / "bad.csv"), "--ref", "same.csv",
                   "--metrics", "kl", "--out", str(tmp_path / "kl.csv"), cwd=work)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "bad.csv" in proc.stderr


@pytest.mark.parametrize("flag", ["--gen", "--ref"])
def test_eval_non_finite_input_is_exit_3(work, tmp_path, flag):
    rows = np.array([[0.1, 0.2], [0.3, -0.4], [np.nan, 0.5], [0.6, np.inf]])
    write_samples_csv(str(tmp_path / "nan.csv"), rows)
    files = {"--gen": "same.csv", "--ref": "same.csv", flag: str(tmp_path / "nan.csv")}
    proc = run_cli("eval", *(a for pair in files.items() for a in pair),
                   "--metrics", "fid,is", "--features", "features.ckpt",
                   "--out", str(tmp_path / "m.csv"), cwd=work)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "nan.csv: row 3 " in proc.stderr
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("flags", [("--metrics", "psnr"), ("--metrics", "ssim", "--window", 2)],
                         ids=["psnr", "ssim"])
def test_eval_overflowing_metric_is_exit_3_without_a_report(tmp_path, flags):
    # finite cells whose squares overflow: no traceback, warning or NaN report
    rows = np.full((2, 4), 0.5)
    write_samples_csv(str(tmp_path / "a.csv"), np.where(np.eye(2, 4) == 1, 1e200, rows))
    write_samples_csv(str(tmp_path / "b.csv"), np.where(np.eye(2, 4) == 1, -1e200, rows))
    proc = run_cli("eval", "--gen", "a.csv", "--ref", "b.csv", *flags, "--out", "m.csv",
                   cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "not finite" in proc.stderr
    assert not (tmp_path / "m.csv").exists()


def _eval_or_schedule(work, command):
    return {"eval": ["eval", "--gen", str(work / "same.csv"), "--ref", str(work / "same.csv"),
                     "--metrics", "psnr"],
            "schedule": ["schedule", "--t", "1000"]}[command]


@pytest.mark.parametrize("out, error", [
    ("runfile/m.csv", "[Errno 20] Not a directory: 'runfile'"),
    ("runfile/sub/m.csv", "[Errno 20] Not a directory: 'runfile'"),
    ("adir", "[Errno 21] Is a directory: 'adir'"),
], ids=["runfile/m.csv", "runfile/sub/m.csv", "adir"])
@pytest.mark.parametrize("command", ["eval", "schedule"])
def test_eval_and_schedule_refuse_an_unusable_output_before_any_work(
        work, tmp_path, monkeypatch, capsys, command, out, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "runfile").write_text("a file, not a directory\n")
    (tmp_path / "adir").mkdir()

    def no_work(*args, **kwargs):
        raise AssertionError("the command started its work")

    monkeypatch.setattr(cli, "_load_eval_matrix", no_work)
    monkeypatch.setattr(cli, "build_schedule", no_work)
    assert cli.main([*_eval_or_schedule(work, command), "--out", out]) == 3
    assert capsys.readouterr().err == f"error: {error}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "runfile"]
    assert not any((tmp_path / "adir").iterdir())


@pytest.mark.parametrize("command", ["eval", "schedule"])
def test_eval_and_schedule_make_a_missing_output_dir(work, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert cli.main([*_eval_or_schedule(work, command), "--out", "new/sub/m.csv"]) == 0
    header = csv_rows(tmp_path / "new" / "sub" / "m.csv")[0]
    assert header[0] == {"eval": "metric", "schedule": "t"}[command]


def test_successful_eval_leaves_stderr_empty(work):
    proc = run_cli("eval", "--gen", "same.csv", "--ref", "same.csv", "--metrics",
                   "fid,is", "--features", "features.ckpt", "--out", "quiet.csv", cwd=work)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_eval_fid_and_is_share_one_feature_pass_with_the_bytes_of_two_evals(
        work, tmp_path, monkeypatch):
    passes = []
    features = FeatureModel.features
    monkeypatch.setattr(FeatureModel, "features",
                        lambda self, x: passes.append(len(x)) or features(self, x))
    write_samples_csv(str(tmp_path / "gen.csv"), RngStream(3).normals(600).reshape(300, 2))
    common = ["eval", "--gen", str(tmp_path / "gen.csv"), "--ref", str(work / "same.csv"),
              "--features", str(work / "features.ckpt"), "--batches", "3"]
    lines = {}
    for metrics in ("fid,is", "fid", "is"):
        out = tmp_path / f"{metrics}.csv"
        assert cli.main([*common, "--metrics", metrics, "--out", str(out)]) == 0
        lines[metrics] = out.read_bytes().splitlines(keepends=True)
    assert lines["fid,is"] == lines["fid"] + lines["is"][1:]
    ref_rows = len(read_numeric_csv(str(work / "same.csv")))
    assert passes == [300, ref_rows, 300, ref_rows, 300]


@pytest.mark.parametrize("flags, message", [
    (("--metrics", "fid,bogus"), "'fid,bogus': 'bogus' is unknown, empty or repeated"),
    (("--metrics", "fid,,is"), "'fid,,is': '' is unknown, empty or repeated"),
    (("--metrics", ""), "'': '' is unknown, empty or repeated"),
    (("--metrics", "fid,fid"), "'fid,fid': 'fid' is unknown, empty or repeated"),
    (("--metrics", "is", "--batches", "0"), "--batches must be >= 1, got 0"),
    (("--metrics", "kl,ssim", "--window", "1"), "--window must be >= 2, got 1"),
    (("--metrics", "psnr,fid"), "metrics fid/is require --features"),
], ids=["unknown", "empty", "none", "repeated", "batches", "window", "no-features"])
def test_eval_refuses_bad_arguments_before_reading_any_input(tmp_path, monkeypatch, capsys,
                                                             flags, message):
    def no_read(*args, **kwargs):
        raise AssertionError("an input was read")

    monkeypatch.setattr(cli, "_load_eval_matrix", no_read)
    monkeypatch.setattr(cli, "load_feature_model", no_read)
    monkeypatch.chdir(tmp_path)
    features = [] if "require --features" in message else ["--features", "absent.ckpt"]
    argv = ["eval", "--gen", "absent.csv", "--ref", "absent.csv", *features, *flags,
            "--out", "m.csv"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "absent" not in err
    assert message in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, error", [
    (["eval", "--gen", "g.csv", "--ref", "g.csv", "--metrics", "fid", "--features", "adir"],
     "[Errno 21] Is a directory: 'adir'"),
    (["eval", "--gen", "g.csv", "--ref", "g.csv", "--metrics", "is", "--features", "adir/"],
     "[Errno 21] Is a directory: 'adir/'"),
    (["eval", "--gen", "pg", "--ref", "pg", "--metrics", "psnr"],
     "[Errno 21] Is a directory: 'pg/x.pgm'"),
    (["info", "adir"], "[Errno 21] Is a directory: 'adir'"),
    (["sample", "adir", "--out", "s"], "[Errno 21] Is a directory: 'adir'"),
    (["info", "missing.ckpt"], "[Errno 2] No such file or directory: 'missing.ckpt'"),
    (["sample", "missing.ckpt", "--out", "s"],
     "[Errno 2] No such file or directory: 'missing.ckpt'"),
    (["eval", "--gen", "g.csv", "--ref", "g.csv", "--metrics", "fid", "--features",
      "missing.ckpt"], "[Errno 2] No such file or directory: 'missing.ckpt'"),
    (["info", "g.csv/model.ckpt"], "[Errno 20] Not a directory: 'g.csv/model.ckpt'"),
], ids=["features-dir", "features-dir-slash", "pgm-named-dir", "info-dir", "sample-dir",
        "info-missing", "sample-missing", "features-missing", "info-through-a-file"])
def test_unreadable_inputs_name_the_path_asked_for(tmp_path, monkeypatch, capsys, argv, error):
    # files are read on raw descriptors: a directory opens and fails only at
    # its first read, and that error names the path as given, as an open does
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    (tmp_path / "pg" / "x.pgm").mkdir(parents=True)
    write_pgm(str(tmp_path / "pg" / "a.pgm"), np.zeros((2, 2), dtype=np.uint8))
    write_samples_csv(str(tmp_path / "g.csv"), np.array([[0.1, 0.2], [0.3, 0.4]]))
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "s").exists() and not (tmp_path / "metrics.csv").exists()


def test_eval_feature_checkpoint_kind_is_enforced(work):
    proc = run_cli("eval", "--gen", "same.csv", "--ref", "same.csv",
                   "--metrics", "fid", "--features", "base/model.ckpt",
                   "--out", "x.csv", cwd=work)
    assert proc.returncode == 2


def test_import_cli_does_not_load_scipy_special():
    # scipy.special would be most of the start-up time; the program needs
    # numpy alone
    code = "import sys, diffusionlab.cli; print('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_improved_training_through_t_1_does_not_load_scipy_special(work, tmp_path):
    # with scipy made unimportable, improved training (its hybrid loss takes
    # the t = 1 decoder term's erf from the numpy kernel), sampling and
    # evaluation all run
    body = BASE_INI.replace("t = 5", "t = 2").format(
        variant="improved", steps=6, seed=0, out="out", model_extra="head = noise+variance\n")
    write_ini(tmp_path / "t1.ini", body=body)
    features = work / "features.ckpt"
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from diffusionlab import cli, training\n"
            "calls = []\n"
            "term = training._decoder_term\n"
            "def spy(*args):\n"
            "    calls.append(1)\n"
            "    return term(*args)\n"
            "training._decoder_term = spy\n"
            "codes = [cli.main(['train', 't1.ini']),\n"
            "         cli.main(['sample', 'out/model.ckpt', '--variant', 'improved', '--k', '2',\n"
            "                   '--count', '50', '--out', 's']),\n"
            "         cli.main(['eval', '--gen', 's/samples.csv', '--ref', 's/samples.csv',\n"
            f"                   '--metrics', 'fid,is', '--features', {str(features)!r}])]\n"
            "print(*codes, len(calls))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=child_env())
    assert proc.returncode == 0, proc.stderr
    *codes, t1_steps = proc.stdout.splitlines()[-1].split()
    assert codes == ["0", "0", "0"], proc.stderr
    assert int(t1_steps) > 0, "no step drew t = 1"


def _scipy_importers(node, owner, found):
    """Add to found the name of the innermost function (owner, None at module
    level) around each import of scipy under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _scipy_importers(child, child.name, found)
            continue
        names = ([a.name for a in child.names] if isinstance(child, ast.Import) else
                 [child.module or ""] if isinstance(child, ast.ImportFrom) else [])
        if any(name.split(".")[0] == "scipy" for name in names):
            found.add(owner)
        _scipy_importers(child, owner, found)


def test_no_module_imports_scipy():
    # the program's one runtime dependency is numpy; scipy serves the tests
    package = Path(cli.__file__).parent
    importers = set()
    for path in sorted(package.rglob("*.py")):
        found = set()
        _scipy_importers(ast.parse(path.read_text()), None, found)
        importers |= {(path.relative_to(package).as_posix(), owner) for owner in found}
    assert importers == set(), importers


def _perfbench_tracing():
    """perfbench/tracing.py, loaded as a module of its own."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_finds_every_name_it_wraps_or_imports():
    # perfbench's tracer times the layers by wrapping program attributes by
    # name, and its checks import a few more; a rename would break its runs
    # or leave its spans silently empty. Installing the tracer looks up
    # every wrapped attribute.
    tracing = _perfbench_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
    finally:
        tracer.uninstall()
    imported = {"cli": ("load_run_config", "build_schedule", "main"),
                "sampler": ("SampleRequest", "ddpm_sample", "ddim_sample"),
                "schedule": ("linear_schedule", "stride_steps"),
                "training": ("load_checkpoint", "model_from_checkpoint", "simple_loss",
                             "hybrid_loss"),
                "numerics": ("ADTape", "grad"), "denoiser": ("denoise",),
                "fileio": ("read_numeric_csv",)}
    for module, names in imported.items():
        owner = importlib.import_module(f"diffusionlab.{module}")
        for name in names:
            assert callable(getattr(owner, name, None)), (module, name)


def test_eval_reads_each_input_file_through_one_traced_call(work, tmp_path, monkeypatch):
    # perfbench's read spans time one file each: eval reads every CSV
    # through one read_numeric_csv call and every image through one
    # read_pgm call
    calls = {"read_numeric_csv": [], "read_pgm": []}
    for name, seen in calls.items():
        def counted(path, *args, _fn=getattr(cli, name), _seen=seen):
            _seen.append(path)
            return _fn(path, *args)
        monkeypatch.setattr(cli, name, counted)
    monkeypatch.chdir(work)
    names = ["sample_00000.pgm", "sample_00001.pgm"]
    pgms = [str(work / "pA" / n) for n in names]
    for gen, ref, csvs, images in [("same.csv", "same.csv", ["same.csv"] * 2, []),
                                   ("pA", "pA/", [], [f"pA/{n}" for n in names] * 2),
                                   (pgms[0], pgms[1], [], pgms)]:
        for seen in calls.values():
            seen.clear()
        assert cli.main(["eval", "--gen", gen, "--ref", ref, "--metrics", "psnr",
                         "--out", str(tmp_path / "m.csv")]) == 0
        assert calls == {"read_numeric_csv": csvs, "read_pgm": images}, (gen, ref)


# ------------------------------------------------------------ schedule, info


def test_schedule_linear_first_row(tmp_path):
    proc = run_cli("schedule", "--type", "linear", "--t", 1000,
                   "--out", "lin.csv", cwd=tmp_path)
    assert proc.returncode == 0
    rows = csv_body(tmp_path / "lin.csv")
    assert rows[0, 0] == 1
    assert rows[0, 1] == 1.0 - 1e-4
    assert rows[-1, 1] == 0.98


def test_schedule_cosine_clip(tmp_path):
    proc = run_cli("schedule", "--type", "cosine", "--t", 1000, "--s", 0.008,
                   "--out", "cos.csv", cwd=tmp_path)
    assert proc.returncode == 0
    rows = csv_body(tmp_path / "cos.csv")
    assert np.max(1.0 - rows[:, 1]) <= 0.999 + 1e-15


def test_schedule_abar_strictly_decreasing(tmp_path):
    for kind in ("linear", "cosine"):
        run_ok("schedule", "--type", kind, "--t", 300,
               "--out", f"{kind}.csv", cwd=tmp_path)
        rows = csv_body(tmp_path / f"{kind}.csv")
        assert np.all(np.diff(rows[:, 2]) < 0)


def test_schedule_rerun_is_byte_identical(tmp_path):
    run_ok("schedule", "--type", "cosine", "--t", 64, "--out", "a.csv", cwd=tmp_path)
    run_ok("schedule", "--type", "cosine", "--t", 64, "--out", "b.csv", cwd=tmp_path)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_info_prints_progress_lines_only(work):
    proc = run_cli("info", "base/model.ckpt", cwd=work)
    assert proc.returncode == 0
    assert "parameters" in proc.stdout
    assert proc.stderr == ""


def _with_metadata(src, dst, blob):
    """dst: the checkpoint src with its metadata block replaced by blob."""
    raw = src.read_bytes()
    meta_len = struct.unpack_from("<I", raw, 12)[0]
    dst.write_bytes(raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + meta_len:])


def _meta_without_param_count(meta):
    del meta["param_count"]
    return json.dumps(meta).encode()


def _meta_with_text_step(meta):
    meta["step"] = "4"
    return json.dumps(meta).encode()


@pytest.mark.parametrize("corrupt, message", [
    (_meta_without_param_count, "lacks key 'param_count'"),
    (_meta_with_text_step, "'step' must be a JSON integer"),
    (lambda meta: b"\xff\xfe" + json.dumps(meta).encode()[2:], "not UTF-8"),
    (lambda meta: json.dumps(meta).encode()[:-1], "not valid JSON"),
    (lambda meta: b"[1, 2]", "not an object"),
])
@pytest.mark.parametrize("command", [("info",), ("sample", "--count", 1)])
def test_corrupt_checkpoint_metadata_is_exit_3(work, tmp_path, corrupt, message, command):
    raw = (work / "base" / "model.ckpt").read_bytes()
    meta = json.loads(raw[16:16 + struct.unpack_from("<I", raw, 12)[0]])
    _with_metadata(work / "base" / "model.ckpt", tmp_path / "bad.ckpt", corrupt(meta))
    proc = run_cli(command[0], "bad.ckpt", *command[1:], cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("section, key, value, message", [
    ("arch", "d_emb", 3, "architecture metadata unusable"),
    ("arch", "hidden", "wide", "architecture metadata unusable"),
    ("schedule", "kind", "sigmoid", "unknown schedule kind"),
    ("schedule", "T", None, "schedule metadata unusable"),
    ("arch", "conditioning", {"kind": "tokens", "length": 2, "width": 5, "heads": 2,
                              "d_head": 4}, "architecture metadata unusable"),
    ("arch", "hidden", [0], "hidden widths must be >= 1"),
    # sizes are JSON integers, never truncated floats, texts or booleans
    ("arch", "d", 2.7, "key 'd' must be a JSON integer, got 2.7"),
    ("arch", "d", "2", "key 'd' must be a JSON integer, got '2'"),
    ("arch", "d", True, "key 'd' must be a JSON integer, got True"),
    ("arch", "hidden", [8.9], "key 'hidden' must list JSON integers, got [8.9]"),
    ("arch", "hidden", ["8"], "key 'hidden' must list JSON integers, got ['8']"),
    ("arch", "d_emb", 4.5, "key 'd_emb' must be a JSON integer, got 4.5"),
    ("arch", "conditioning", {"kind": "class", "num_classes": 2.0},
     "key 'num_classes' must be a JSON integer, got 2.0"),
    ("schedule", "T", 10.9, "key 'T' must be a JSON integer, got 10.9"),
    ("schedule", "T", "10", "key 'T' must be a JSON integer, got '10'"),
    ("arch", "d", 0, "data dimension d must be >= 1, got 0"),
])
def test_unusable_checkpoint_model_or_schedule_is_exit_3(work, tmp_path, section, key,
                                                         value, message):
    raw = (work / "base" / "model.ckpt").read_bytes()
    meta = json.loads(raw[16:16 + struct.unpack_from("<I", raw, 12)[0]])
    meta[section][key] = value
    _with_metadata(work / "base" / "model.ckpt", tmp_path / "bad.ckpt",
                   json.dumps(meta).encode())
    proc = run_cli("sample", "bad.ckpt", "--count", 1, cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert message in proc.stderr


@pytest.mark.parametrize("change, fault", [
    (lambda meta: meta["arch"].pop("d"), "missing key 'd'"),
    (lambda meta: meta["arch"].update(d_emb=3), "embedding dim must be even"),
    (lambda meta: meta["arch"].update(hidden="wide"), "key 'hidden' must list JSON integers"),
    (lambda meta: meta["schedule"].update(T=None), "key 'T' must be a JSON integer"),
    (lambda meta: meta["schedule"].update(s="x"), "schedule metadata unusable"),
], ids=["missing-key", "config", "value", "type", "s-text"])
def test_unusable_checkpoint_error_names_no_exception_class(work, tmp_path, monkeypatch,
                                                            capsys, change, fault):
    # the error line states the fault; an internal class name would change its
    # text whenever a class is renamed or merged
    raw = (work / "base" / "model.ckpt").read_bytes()
    meta = json.loads(raw[16:16 + struct.unpack_from("<I", raw, 12)[0]])
    change(meta)
    _with_metadata(work / "base" / "model.ckpt", tmp_path / "bad.ckpt",
                   json.dumps(meta).encode())
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sample", "bad.ckpt", "--count", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fault in err
    classes = {name for space in (vars(builtins), vars(errors)) for name, obj in space.items()
               if isinstance(obj, type) and issubclass(obj, BaseException)}
    assert not {name for name in classes if re.search(rf"\b{name}\b", err)}, err


def test_feature_checkpoint_with_bad_hidden_is_exit_3(work, tmp_path):
    raw = (work / "features.ckpt").read_bytes()
    meta = json.loads(raw[16:16 + struct.unpack_from("<I", raw, 12)[0]])
    meta["hidden"] = ["x"]
    _with_metadata(work / "features.ckpt", tmp_path / "f.ckpt", json.dumps(meta).encode())
    proc = run_cli("eval", "--gen", work / "same.csv", "--ref", work / "same.csv",
                   "--metrics", "fid", "--features", "f.ckpt", "--out", "x.csv", cwd=tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert "'hidden' must list integers" in proc.stderr


@pytest.mark.parametrize("d, hidden, feature_dim, num_classes, metric", [
    (2, [4], 3, 0, "is"),
    (2, [4], 0, 2, "fid"),
    (2, [4, 0], 3, 2, "fid"),
], ids=["num_classes-0", "feature_dim-0", "hidden-0"])
def test_feature_checkpoint_with_a_size_below_1_is_exit_3(tmp_path, monkeypatch, capsys, d,
                                                          hidden, feature_dim, num_classes,
                                                          metric):
    # the parameter count fits the sizes, so only the size refusal can stop it
    widths = [d, *hidden, feature_dim, num_classes]
    count = sum((a + 1) * b for a, b in zip(widths, widths[1:]))
    fileio.write_container(str(tmp_path / "f.ckpt"), {
        "d": d, "feature_dim": feature_dim, "hidden": hidden, "kind": "feature",
        "num_classes": num_classes}, np.zeros(count))
    write_samples_csv(str(tmp_path / "x.csv"), np.arange(8.0).reshape(4, d))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["eval", "--gen", "x.csv", "--ref", "x.csv", "--metrics", metric,
                     "--features", "f.ckpt", "--out", "m.csv"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "feature model sizes must be >= 1" in err
    assert not (tmp_path / "m.csv").exists()


def test_info_on_garbage_is_exit_3(tmp_path):
    (tmp_path / "junk.ckpt").write_bytes(b"not a checkpoint at all")
    proc = run_cli("info", "junk.ckpt", cwd=tmp_path)
    assert proc.returncode == 3


# ------------------------------------------------------------ exit codes

EXIT_CODES = {
    "DiffusionLabError": 4,
    "ConfigError": 2,
    "ShapeMismatch": 3, "OutOfRange": 3, "BadMagic": 3, "TruncatedFile": 3,
    "BadMetadata": 3, "DataExhausted": 3,
    "NonScalarOutput": 4, "NotSymmetric": 4, "IndefiniteMatrix": 4, "NotConverged": 4,
    "SingularCovariance": 4, "StepOutOfRange": 4, "NonFiniteLoss": 4, "NonFiniteSample": 4,
    "ConditioningMismatch": 5, "HeadMismatch": 5,
    "OSError": 3, "FileNotFoundError": 3,
}


def _error_classes():
    classes = {errors.DiffusionLabError}
    todo = [errors.DiffusionLabError]
    while todo:
        for sub in todo.pop().__subclasses__():
            classes.add(sub)
            todo.append(sub)
    return classes


def test_every_error_class_exit_code(monkeypatch, capsys):
    by_name = {c.__name__: c for c in _error_classes()}
    assert set(by_name) == set(EXIT_CODES) - {"OSError", "FileNotFoundError"}
    for name, code in EXIT_CODES.items():
        kind = by_name.get(name) or getattr(builtins, name)

        def raise_it(args, kind=kind, name=name):
            raise kind(f"{name} raised")

        monkeypatch.setattr(cli, "cmd_info", raise_it)
        assert cli.main(["info", "x"]) == code, name
        assert capsys.readouterr().err == f"error: {name} raised\n"


def test_every_error_class_is_raised():
    # a class no check raises is dead: every subclass appears in a raise in src/
    package = Path(errors.__file__).parent
    source = "\n".join(p.read_text() for p in sorted(package.rglob("*.py")))
    raised = set(re.findall(r"\braise (\w+)\(", source))
    subclasses = {c.__name__ for c in _error_classes()} - {"DiffusionLabError"}
    assert not subclasses - raised, sorted(subclasses - raised)


# public names reached by nothing outside the tests, each for its stated reason
UNREACHED_PUBLIC_NAMES = {
    # the closed-form Gaussian reference that acceptance criteria 2 and 3 check
    "gaussian_logpdf", "gaussian_kl", "gaussian_marginal", "gaussian_posterior",
    # the only way to make a --features checkpoint until a command trains one
    "train_feature_model", "save_feature_model",
}


def _names_used(node, owner, used):
    """Add to used each (name, owner) that node's subtree names as a variable,
    attribute or imported name; owner is the top-level definition around it."""
    for child in ast.iter_child_nodes(node):
        name = (child.id if isinstance(child, ast.Name) else
                child.attr if isinstance(child, ast.Attribute) else
                child.name if isinstance(child, ast.alias) else None)
        if name is not None:
            used.add((name, owner))
        _names_used(child, owner, used)


def test_every_public_name_is_reached():
    # a public function or class that neither the program nor the benchmark
    # names outside its own body is surface nothing reaches
    package = Path(cli.__file__).parent
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    defined, used = set(), set()
    for path in sorted(package.rglob("*.py")) + sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            owner = (path, getattr(node, "name", None))
            public = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_"
            if public and path.is_relative_to(package):
                defined.add(owner)
            _names_used(node, owner, used)
    unreached = {name for path, name in defined
                 if not any(n == name and o != (path, name) for n, o in used)}
    assert unreached == UNREACHED_PUBLIC_NAMES, sorted(unreached ^ UNREACHED_PUBLIC_NAMES)


# ------------------------------------------------------------ malformed containers, in process


@pytest.fixture
def tiny(tmp_path):
    """A tiny denoiser checkpoint, a tiny feature checkpoint and a CSV to
    evaluate, with one command per checkpoint that reads it."""
    save_checkpoint(str(tmp_path / "model.ckpt"),
                    DenoiserModel.initialized(DenoiserArch(1, (2,), 4), 0),
                    linear_schedule(2), step=0)
    save_feature_model(str(tmp_path / "features.ckpt"),
                       FeatureModel.initialized(1, 2, 2, (2,), 0))
    write_samples_csv(str(tmp_path / "x.csv"), np.arange(3.0).reshape(3, 1))
    return {
        "info": ("model.ckpt", lambda path: ["info", path]),
        "sample": ("model.ckpt", lambda path: ["sample", path, "--count", "1",
                                               "--out", str(tmp_path / "s")]),
        "eval": ("features.ckpt", lambda path: [
            "eval", "--gen", str(tmp_path / "x.csv"), "--ref", str(tmp_path / "x.csv"),
            "--metrics", "fid", "--features", path, "--out", str(tmp_path / "m.csv")]),
    }


@pytest.mark.parametrize("command", ["info", "sample", "eval"])
@pytest.mark.parametrize("change, message", [
    (lambda raw: raw[:8] + struct.pack("<I", 99) + raw[12:], "format version 99"),
    (lambda raw: raw + b"x" * 13, "13 bytes after"),
], ids=["version-99", "trailing-bytes"])
def test_wrong_version_or_trailing_bytes_is_exit_3(tiny, tmp_path, capsys, command,
                                                   change, message):
    name, argv = tiny[command]
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(change((tmp_path / name).read_bytes()))
    assert cli.main(argv(str(bad))) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and message in err, err


@pytest.mark.parametrize("command", ["info", "sample", "eval"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_parameter_is_exit_3(tiny, tmp_path, capsys, command, value):
    name, argv = tiny[command]
    raw = (tmp_path / name).read_bytes()
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:-8] + np.array([value], dtype="<f4").tobytes() + raw[-4:])
    assert cli.main(argv(str(bad))) == 3
    err = capsys.readouterr()
    assert err.err.startswith("error: ") and err.err.count("\n") == 1, err.err
    assert "not finite as float32" in err.err and err.out == ""
    assert not (tmp_path / "s").exists() and not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("command", ["info", "eval"])
def test_every_checkpoint_prefix_is_exit_3(tiny, tmp_path, capsys, command):
    name, argv = tiny[command]
    raw = (tmp_path / name).read_bytes()
    assert cli.main(argv(str(tmp_path / name))) == 0
    capsys.readouterr()
    cut = tmp_path / "cut.ckpt"
    for n in range(len(raw)):
        cut.write_bytes(raw[:n])
        assert cli.main(argv(str(cut))) == 3, n
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, (n, err)
