"""Damaged input files end in a named error, never a traceback.

Five fixtures are cut at about ten offsets and hit by 25 seeded single-bit
flips each, and every damaged copy is read through `cli.main` in-process:
a denoiser checkpoint by `info` and `sample`, a CSV file by `eval --metrics
kl`, a one-image PGM directory by `eval --metrics psnr`, an IDX file by a
5-step improved `train`, and that run's INI config by `train`. The config
names its files relative to the test's directory, so a damaged path or a
dropped [output] section still writes there. A damaged file may still be valid (a flipped
pixel is a different picture), so exit 0 is allowed, with nothing on stderr;
any other outcome must be a documented exit code with exactly one `error:`
line on stderr.
"""

import numpy as np
import pytest

from diffusionlab import cli
from diffusionlab.denoiser import DenoiserArch, DenoiserModel
from diffusionlab.fileio import write_pgm, write_samples_csv
from diffusionlab.schedule import linear_schedule
from diffusionlab.training import save_checkpoint

from conftest import write_idx

CUTS = 10
FLIPS = 25
EXIT_CODES = {0, 2, 3, 4, 5}


def _damaged(raw: bytes, seed: int):
    """(label, bytes): raw cut at CUTS offsets, then FLIPS single-bit flips."""
    for n in np.linspace(0, len(raw) - 1, CUTS).astype(int):
        yield f"cut at {n}", raw[:n]
    rng = np.random.default_rng(seed)
    for pos, bit in zip(rng.integers(0, len(raw), FLIPS), rng.integers(0, 8, FLIPS)):
        bad = bytearray(raw)
        bad[pos] ^= 1 << int(bit)
        yield f"bit {bit} of byte {pos} flipped", bytes(bad)


@pytest.fixture
def fixtures(tmp_path, monkeypatch):
    """name -> (fixture file, file the damaged copy is written to, argvs)."""
    monkeypatch.chdir(tmp_path)
    save_checkpoint(str(tmp_path / "model.ckpt"),
                    DenoiserModel.initialized(DenoiserArch(2, (4,), 4), 3),
                    linear_schedule(10), step=0)
    write_samples_csv(str(tmp_path / "p.csv"), np.array([[0.1], [0.2], [0.3], [0.4]]))
    (tmp_path / "ref").mkdir()
    (tmp_path / "gen").mkdir()
    write_pgm(str(tmp_path / "ref" / "a.pgm"),
              np.arange(16, dtype=np.uint8).reshape(4, 4) * 16)
    images = np.random.default_rng(5).integers(0, 256, size=(12, 16))
    write_idx(tmp_path / "x.idx", images.reshape(12, 4, 4))
    config = ("[dataset]\nkind = idx\npath = {}\n"
              "[schedule]\ntype = linear\nt = 10\n"
              "[model]\nhidden = 4\nd_emb = 4\nhead = noise+variance\n"
              "[train]\nvariant = improved\ngamma = 0.01\nbatch = 2\nsteps = 5\nseed = 1\n"
              "[output]\ndir = run\n")
    (tmp_path / "train.ini").write_text(config.format("bad.idx"))
    (tmp_path / "x.ini").write_text(config.format("x.idx"))
    out = str(tmp_path / "out")
    bad_ckpt, bad_csv, bad_pgm = (str(tmp_path / n) for n in ("bad.ckpt", "bad.csv", "gen"))
    eval_args = ["--out", str(tmp_path / "m.csv")]
    return {
        "checkpoint": (tmp_path / "model.ckpt", tmp_path / "bad.ckpt", [
            ["info", bad_ckpt],
            ["sample", bad_ckpt, "--count", "2", "--out", out]]),
        "csv": (tmp_path / "p.csv", tmp_path / "bad.csv", [
            ["eval", "--gen", bad_csv, "--ref", str(tmp_path / "p.csv"), "--metrics", "kl",
             *eval_args]]),
        "pgm": (tmp_path / "ref" / "a.pgm", tmp_path / "gen" / "a.pgm", [
            ["eval", "--gen", bad_pgm, "--ref", str(tmp_path / "ref"), "--metrics", "psnr",
             *eval_args]]),
        "idx": (tmp_path / "x.idx", tmp_path / "bad.idx", [
            ["train", str(tmp_path / "train.ini")]]),
        "ini": (tmp_path / "x.ini", tmp_path / "bad.ini", [
            ["train", str(tmp_path / "bad.ini")]]),
    }


@pytest.mark.parametrize("name", ["checkpoint", "csv", "pgm", "idx", "ini"])
def test_damaged_fixture_ends_in_a_named_error(fixtures, capsys, name):
    good, bad, argvs = fixtures[name]
    raw = good.read_bytes()
    bad.write_bytes(raw)
    for argv in argvs:
        assert cli.main(argv) == 0, capsys.readouterr().err  # the intact file is read
    capsys.readouterr()
    for label, damaged in _damaged(raw, seed=len(name)):
        bad.write_bytes(damaged)
        for argv in argvs:
            code = cli.main(argv)
            err = capsys.readouterr().err
            where = f"{name}, {label}, {argv[0]}: exit {code}, stderr {err!r}"
            assert code in EXIT_CODES, where
            if code == 0:
                assert err == "", where
            else:
                assert err.startswith("error:") and err.count("\n") == 1, where
                assert err.endswith("\n"), where
