"""Command-line entry point for reproducible file-based runs.

Every command is a pure function of (config, seed, input files): rerunning
it writes byte-identical outputs. stdout carries only progress lines
prefixed with "#"; human-readable errors go to stderr with a stable exit
code per failure family.
"""

import argparse
import configparser
import errno
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DatasetCursor, MixtureSampler, idx_read, quantize_to_grid
from .denoiser import (
    HEAD_DUAL,
    HEAD_NOISE,
    DenoiserArch,
    DenoiserModel,
)
from .errors import (
    OS_ERROR_EXIT_CODE,
    ConditioningMismatch,
    ConfigError,
    DiffusionLabError,
    OutOfRange,
    ShapeMismatch,
)
from .fileio import (
    float32_params,
    read_numeric_csv,
    read_pgm,
    to_bytes_image,
    write_csv,
    write_manifest,
    write_pgm,
    write_samples_csv,
)
from .forward import grid_value
from .metrics import (
    discrete_kl,
    fid,
    inception_score,
    load_feature_model,
    psnr,
    ssim,
    PSNR_CAP,
)
from .numerics import RngStream
from .sampler import (
    SAMPLER_VARIANTS,
    SampleRequest,
    ddim_sample,
    ddpm_sample,
    guided_sample,
    improved_sample,
)
from .schedule import DEFAULT_COSINE_OFFSET, SCHEDULE_KINDS, build_schedule, stride_steps
from .training import (
    HYBRID_LAMBDA,
    TAG_DATA,
    VARIANTS,
    TrainConfig,
    load_checkpoint,
    model_from_checkpoint,
    save_checkpoint,
    schedule_from_meta,
    train,
)


def _numbers(cast):
    return lambda text: tuple(cast(v) for v in text.split(","))


# section -> key -> (parser, default text, allowed values); the one list of
# keys, defaults and choices. No default text: the key is None when absent.
_CONFIG = {
    "dataset": {"kind": (str, "gaussian", ("gaussian", "mixture8", "idx")),
                "center": (_numbers(float), "1.0,-1.0", None),
                "sigma": (float, "0.5", None),
                "radius": (float, "1.0", None),
                "path": (str, None, None),
                "labels": (str, None, None)},
    "schedule": {"type": (str, "linear", tuple(SCHEDULE_KINDS)),
                 "t": (int, "50", None),
                 "s": (float, str(DEFAULT_COSINE_OFFSET), None)},
    "model": {"hidden": (_numbers(int), "32,32", None),
              "d_emb": (int, "8", None),
              "head": (str, HEAD_NOISE, (HEAD_NOISE, HEAD_DUAL)),
              "num_classes": (int, "0", None)},
    "train": {"variant": (str, "ddpm", VARIANTS),
              "gamma": (float, "1e-3", None),
              "batch": (int, "64", None),
              "steps": (int, "1000", None),
              "lambda": (float, str(HYBRID_LAMBDA), None),
              "p_uncond": (float, "0.1", None),
              "seed": (int, "0", None)},
    "output": {"dir": (str, "run-output", None)},
}


@dataclass(frozen=True)
class RunConfig:
    dataset_kind: str
    center: tuple[float, ...]
    sigma: float
    radius: float
    data_path: str | None
    labels_path: str | None
    schedule_type: str
    T: int
    s: float
    hidden: tuple[int, ...]
    d_emb: int
    head: str
    num_classes: int
    variant: str
    train_cfg: TrainConfig
    out_dir: str


def _progress(msg: str) -> None:
    print(f"# {msg}")


def load_run_config(path: str) -> RunConfig:
    """Parse and validate the INI run description; unknown keys are fatal."""
    if not Path(path).is_file():
        raise FileNotFoundError(f"config file {path} not found")
    # no interpolation: a '%' in a value is plain text, not a syntax error
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as e:
        raise ConfigError(f"cannot parse {path}: {e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path} is not UTF-8 text: {e}") from None

    for section in parser.sections():
        if section not in _CONFIG:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _CONFIG[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    v = {section: {} for section in _CONFIG}
    try:
        for section, keys in _CONFIG.items():
            for key, (parse, default, allowed) in keys.items():
                text = parser.get(section, key, fallback=default)
                value = v[section][key] = None if text is None else parse(text)
                if allowed is not None and value not in allowed:
                    raise ConfigError(f"[{section}] {key} must be one of "
                                      f"{', '.join(allowed)}, got {value!r}")
        d, sc, m, tr = v["dataset"], v["schedule"], v["model"], v["train"]
        train_cfg = TrainConfig(gamma=tr["gamma"], J=tr["batch"], N=tr["steps"],
                                lam=tr["lambda"], p_uncond=tr["p_uncond"], seed=tr["seed"])
    except ValueError as e:
        raise ConfigError(f"bad value in {path}: {e}") from None

    if d["kind"] == "idx":
        if d["path"] is None:
            raise ConfigError("dataset kind idx needs a path key")
        if not Path(d["path"]).is_file():
            raise FileNotFoundError(f"dataset file {d['path']} not found")
        if d["labels"] is not None and not Path(d["labels"]).is_file():
            raise FileNotFoundError(f"labels file {d['labels']} not found")
    return RunConfig(d["kind"], d["center"], d["sigma"], d["radius"], d["path"], d["labels"],
                     sc["type"], sc["t"], sc["s"], m["hidden"], m["d_emb"], m["head"],
                     m["num_classes"], tr["variant"], train_cfg, v["output"]["dir"])


class _QuantizingSource:
    """Clip to [-1, 1] and snap onto the byte grid, as the hybrid loss needs."""

    def __init__(self, inner):
        self.inner = inner

    def take(self, k):
        x, labels = self.inner.take(k)
        return quantize_to_grid(np.clip(x, -1.0, 1.0)), labels


def _build_source(rc: RunConfig):
    """Returns (source, d, num_classes_in_data)."""
    rng = RngStream(rc.train_cfg.seed).split(TAG_DATA)
    if rc.dataset_kind == "gaussian":
        return MixtureSampler([rc.center], rc.sigma, rng), len(rc.center), 1
    if rc.dataset_kind == "mixture8":
        centers = [(rc.radius * math.cos(2 * math.pi * i / 8),
                    rc.radius * math.sin(2 * math.pi * i / 8)) for i in range(8)]
        return MixtureSampler(centers, rc.sigma, rng), 2, 8
    ds = idx_read(rc.data_path, rc.labels_path)
    return DatasetCursor(ds), ds.d, ds.num_classes


def _build_model(rc: RunConfig, d: int) -> DenoiserModel:
    arch = DenoiserArch(d, rc.hidden, rc.d_emb, rc.head, rc.num_classes)
    return DenoiserModel.initialized(arch, rc.train_cfg.seed)


def _out_dir(path: str | Path) -> Path:
    """The output directory, made once a command's work is done; a file at
    it or at a parent is refused now."""
    out = Path(path)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(existing))
    return out


def _out_file_dir(path: str) -> Path:
    """_out_dir of an output file's parent; a directory at path is refused now."""
    if Path(path).is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    return _out_dir(Path(path).parent)


def cmd_train(args) -> None:
    rc = load_run_config(args.config)
    sched = build_schedule(rc.schedule_type, rc.T, rc.s)
    source, d, data_classes = _build_source(rc)
    if rc.variant == "improved" and rc.dataset_kind != "idx":
        # an IDX source's takes are grid values already; mixture draws can leave the grid
        source = _QuantizingSource(source)
    if rc.variant == "cfg" and rc.num_classes != data_classes:
        raise ConfigError(
            f"model num_classes {rc.num_classes} != dataset classes {data_classes}")
    model = _build_model(rc, d)
    out = _out_dir(rc.out_dir)

    _progress(f"training variant={rc.variant} steps={rc.train_cfg.N} "
              f"batch={rc.train_cfg.J} schedule={rc.schedule_type} T={rc.T}")
    result = train(model, source, rc.train_cfg, sched, rc.variant)

    ckpt = out / "model.ckpt"
    float32_params(result.model.params, str(ckpt))  # a refused run makes no directory
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(str(ckpt), result.model, sched, rc.train_cfg.N, result.rng_counters)
    write_csv(out / "loss.csv",
              [(i + 1, v) for i, v in enumerate(result.losses)],
              header=("step", "loss"))
    _progress(f"saved {ckpt} and {out / 'loss.csv'}")


def cmd_sample(args) -> None:
    ck = load_checkpoint(args.checkpoint)
    model = model_from_checkpoint(ck)
    sched = schedule_from_meta(ck.schedule)
    req = SampleRequest(count=args.count, seed=args.seed)

    needs_k = args.variant in ("improved", "ddim")
    ignored = [flag for flag, value, used in (("--k", args.k, needs_k),
                                              ("--eta", args.eta, args.variant == "ddim"),
                                              ("--w", args.w, args.variant == "guided"),
                                              ("--class", args.cls, args.variant != "improved"))
               if value is not None and not used]
    if ignored:
        raise ConfigError(f"--variant {args.variant} does not use {', '.join(ignored)}")
    eta = 0.0 if args.eta is None else args.eta
    w = 0.0 if args.w is None else args.w
    if needs_k and args.k is None:
        raise ConfigError(f"--variant {args.variant} requires --k")
    d = model.arch.d
    rows = args.rows if args.rows else int(math.isqrt(d))
    if args.format == "pgm" and (rows < 1 or d % rows != 0):
        raise ConfigError(f"dimension {d} does not tile into {rows}-pixel rows")

    onehot = None
    if args.cls is not None:
        C = model.arch.num_classes
        if not C:
            raise ConditioningMismatch("checkpoint model is not class-conditional")
        if not (0 <= args.cls < C):
            raise ConfigError(f"--class must lie in 0..{C - 1}, got {args.cls}")
        onehot = np.eye(C)[args.cls]
    if args.variant == "guided" and onehot is None:
        raise ConfigError("--variant guided requires --class")

    out = _out_dir(args.out)
    if args.variant == "ddpm":
        res = ddpm_sample(model, sched, req, cond=onehot)
    elif args.variant == "improved":
        res = improved_sample(model, sched, stride_steps(sched.T, args.k), req)
    elif args.variant == "ddim":
        res = ddim_sample(model, sched, stride_steps(sched.T, args.k), eta,
                          req, cond=onehot)
    else:
        res = guided_sample(model, sched, w, onehot, req)

    out.mkdir(parents=True, exist_ok=True)
    if args.format == "csv":
        target = str(out / "samples.csv")
        write_samples_csv(target, res.samples)
    else:
        cols = d // rows
        for i in range(res.samples.shape[0]):
            write_pgm(str(out / f"sample_{i:05d}.pgm"),
                      to_bytes_image(res.samples[i], rows, cols))
        target = f"{res.samples.shape[0]} PGM files in {out}"
    write_manifest(str(out / "manifest.json"), {
        "checkpoint": str(args.checkpoint),
        "class": args.cls,
        "count": args.count,
        "eta": eta,
        "format": args.format,
        "k": args.k,
        "out": str(args.out),
        "rows": args.rows,
        "seed": args.seed,
        "variant": args.variant,
        "w": w,
    })
    _progress(f"wrote {target} and {out / 'manifest.json'}")


def _pgm_rows(paths: list[str]) -> np.ndarray:
    """(count, h * w) matrix of PGM images that must all be one size."""
    images = [read_pgm(p) for p in paths]
    for p, img in zip(paths, images):
        if img.shape != images[0].shape:
            raise ShapeMismatch(f"{p} is {img.shape[1]}x{img.shape[0]} pixels, "
                                f"{paths[0]} is {images[0].shape[1]}x{images[0].shape[0]}")
    # bytes land on the same grid the quantizer uses
    return grid_value(np.stack(images).reshape(len(images), -1))


def _load_eval_matrix(path: str) -> np.ndarray:
    """Samples as a finite (count, d) matrix from a CSV/IDX file or a PGM directory."""
    p = Path(path)
    if p.is_dir():
        # every entry named *.pgm, spelled as pathlib spells p / name
        base = str(p)
        prefix = "" if base == "." else os.path.join(base, "")
        names = sorted(prefix + e.name for e in os.scandir(base) if e.name.endswith(".pgm"))
        if not names:
            raise FileNotFoundError(f"no PGM files in directory {path}")
        return _pgm_rows(names)
    if not p.is_file():
        raise FileNotFoundError(f"input {path} not found")
    if p.suffix == ".idx":
        return grid_value(idx_read(path).levels)
    if p.suffix == ".pgm":
        return _pgm_rows([path])
    m = read_numeric_csv(path)
    bad = np.flatnonzero(~np.isfinite(m).all(axis=1))
    if bad.size:
        raise OutOfRange(f"{path}: row {bad[0] + 1} holds a non-finite value")
    return m


def cmd_eval(args) -> None:
    # the metric names and the flags they read are checked before any input is read
    metric_names = [m.strip() for m in args.metrics.split(",")]
    for i, name in enumerate(metric_names):
        if name not in ("fid", "is", "psnr", "ssim", "kl") or name in metric_names[:i]:
            raise ConfigError(f"--metrics {args.metrics!r}: {name!r} is unknown, empty "
                              "or repeated")
    for metric, flag, low in (("is", "batches", 1), ("ssim", "window", 2)):
        if metric in metric_names and getattr(args, flag) < low:
            raise ConfigError(f"--{flag} must be >= {low}, got {getattr(args, flag)}")
    needs_features = "fid" in metric_names or "is" in metric_names
    if needs_features and args.features is None:
        raise ConfigError("metrics fid/is require --features <checkpoint>")
    out = _out_file_dir(args.out)
    gen = _load_eval_matrix(args.gen)
    ref = _load_eval_matrix(args.ref)
    if needs_features:  # one feature pass of each input serves both metrics
        fm = load_feature_model(args.features)
        gx = fm.features(gen)

    rows = []
    for name in metric_names:
        if name == "fid":
            value = fid(gx, fm.features(ref))
            rows.append(("fid", value, gen.shape[0], ref.shape[0], 1, 0.0))
        elif name == "is":
            value, std = inception_score(fm.class_probs(gx), batches=args.batches)
            rows.append(("is", value, gen.shape[0], 0, args.batches, std))
        elif name in ("psnr", "ssim"):
            if gen.shape != ref.shape:
                raise ShapeMismatch(f"{name} needs equal shapes, {gen.shape} vs {ref.shape}")
            count, width = gen.shape
            if name == "psnr":
                # each row is one 1 x width image
                vals = np.minimum(psnr(gen.reshape(count, 1, width),
                                       ref.reshape(count, 1, width)), PSNR_CAP)
            else:
                side = math.isqrt(width)
                if side * side != width:
                    raise ConfigError(f"ssim needs square images, got width {width}")
                vals = ssim(gen.reshape(count, side, side), ref.reshape(count, side, side),
                            window=args.window)
            rows.append((name, float(np.mean(vals)), count, count,
                         1, float(np.std(vals, ddof=1)) if count > 1 else 0.0))
        else:
            rows.append(("kl", discrete_kl(gen.ravel(), ref.ravel()),
                         gen.size, ref.size, 1, 0.0))

    for name, value, _, _, _, std in rows:
        if not (math.isfinite(value) and math.isfinite(std)):
            raise OutOfRange(f"{name} is not finite on these inputs")
    out.mkdir(parents=True, exist_ok=True)
    write_csv(args.out, rows,
              header=("metric", "value", "k_samples", "m_samples", "batches", "std"))
    _progress(f"wrote {args.out} with {len(rows)} metric rows")


def cmd_schedule(args) -> None:
    out = _out_file_dir(args.out)
    sched = build_schedule(args.type, args.t, args.s)
    rows = [(t, sched.a(t), sched.abar(t), sched.btilde(t))
            for t in range(1, sched.T + 1)]
    out.mkdir(parents=True, exist_ok=True)
    write_csv(args.out, rows, header=("t", "alpha", "alpha_bar", "beta_tilde"))
    _progress(f"wrote {args.out} with {sched.T} schedule rows")


def cmd_info(args) -> None:
    ck = load_checkpoint(args.checkpoint)
    _progress(f"checkpoint {args.checkpoint}")
    _progress(f"format version {ck.version}")
    _progress(f"schedule {ck.schedule}")
    _progress(f"arch {ck.arch}")
    _progress(f"trained steps {ck.step}")
    _progress(f"parameters {ck.params32.size} (32-bit)")
    _progress(f"rng counters {ck.rng}")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="diffusionlab",
        description="Desk-scale diffusion models: train, sample, evaluate, inspect.")
    sub = p.add_subparsers(dest="command", required=True)

    pt = sub.add_parser("train", help="train a model from an INI config")
    pt.add_argument("config", help="path to the run configuration file")
    pt.set_defaults(handler=lambda args: cmd_train(args))

    ps = sub.add_parser("sample", help="draw samples from a checkpoint")
    ps.add_argument("checkpoint")
    ps.add_argument("--variant", default="ddpm", choices=SAMPLER_VARIANTS)
    ps.add_argument("--count", type=int, default=16)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--k", type=int, default=None, help="stride count, improved/ddim only")
    ps.add_argument("--eta", type=float, default=None, help="ddim only (default 0)")
    ps.add_argument("--w", type=float, default=None, help="guided only (default 0)")
    ps.add_argument("--class", dest="cls", type=int, default=None)
    ps.add_argument("--format", default="csv", choices=("csv", "pgm"))
    ps.add_argument("--rows", type=int, default=0, help="image rows for pgm output")
    ps.add_argument("--out", default="samples-out")
    ps.set_defaults(handler=lambda args: cmd_sample(args))

    pe = sub.add_parser("eval", help="compute metrics between two sample files")
    pe.add_argument("--gen", required=True)
    pe.add_argument("--ref", required=True)
    pe.add_argument("--metrics", default="fid")
    pe.add_argument("--features", default=None, help="feature-model checkpoint for fid/is")
    pe.add_argument("--batches", type=int, default=1)
    pe.add_argument("--window", type=int, default=4)
    pe.add_argument("--out", default="metrics.csv")
    pe.set_defaults(handler=lambda args: cmd_eval(args))

    pc = sub.add_parser("schedule", help="dump a noise schedule as CSV")
    pc.add_argument("--type", default="linear", choices=tuple(SCHEDULE_KINDS))
    pc.add_argument("--t", type=int, default=1000)
    pc.add_argument("--s", type=float, default=DEFAULT_COSINE_OFFSET)
    pc.add_argument("--out", default="schedule.csv")
    pc.set_defaults(handler=lambda args: cmd_schedule(args))

    pi = sub.add_parser("info", help="describe a checkpoint")
    pi.add_argument("checkpoint")
    pi.set_defaults(handler=lambda args: cmd_info(args))
    return p


def _error(e: Exception) -> None:
    # one line, even when the message quotes a multi-line parser report
    print("error: " + " ".join(str(e).splitlines()), file=sys.stderr)


_PARSER = None  # main's, built once; each handler looks its cmd_* up when it runs


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    try:
        # no numpy warning reaches stderr: each step refuses an overflow or
        # NaN it meets with a named error (loss, sample, parameter, metric)
        with np.errstate(over="ignore", invalid="ignore"):
            args.handler(args)
    except DiffusionLabError as e:
        _error(e)
        return e.exit_code
    except OSError as e:
        _error(e)
        return OS_ERROR_EXIT_CODE
    return 0


if __name__ == "__main__":
    sys.exit(main())
