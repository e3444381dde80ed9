"""The benchmark's workloads: inputs built from the seed, the jobs of one
round, and the checks on what the jobs write.

Every input is made here from `numpy.random.default_rng` seeded with the
workload seed; the program only sees the files. Checks compare outputs with
computations made apart from the program (see reference.py) or with
properties the method must have, never with stored outputs.
"""

import contextlib
import csv
import hashlib
import io
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

D_EMB = 8
HIDDEN = "32,32"
BATCH = 16
GAMMA = 0.02
GAMMA_IMAGES = 0.01
T_SMALL = 50
T_IMAGE = 1000
SIDE = 8


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    rows: int  # rows one run of the job processes (see README)
    outputs: tuple  # files and directories whose bytes must repeat every round


def run_cli(argv) -> int:
    """diffusionlab.cli.main in this process, its progress lines discarded."""
    from diffusionlab import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in map(Path, paths):
        for f in sorted(p.iterdir()) if p.is_dir() else [p]:
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def rel_gap(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a, np.float64), np.ascontiguousarray(b, np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def load_rows(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


# ------------------------------------------------------------ input files


def make_images(rng, count: int, side: int) -> np.ndarray:
    """(count, side, side) bytes: a bright rectangle on a dim noisy ground."""
    img = rng.integers(0, 48, size=(count, side, side))
    r0, c0 = rng.integers(0, side - 2, size=(2, count))
    r1 = r0 + 2 + (rng.random(count) * (side - 1 - r0)).astype(int)
    c1 = c0 + 2 + (rng.random(count) * (side - 1 - c0)).astype(int)
    grid = np.arange(side)
    inside = ((grid[None, :, None] >= r0[:, None, None]) & (grid[None, :, None] < r1[:, None, None])
              & (grid[None, None, :] >= c0[:, None, None]) & (grid[None, None, :] < c1[:, None, None]))
    level = rng.integers(150, 256, size=count)
    return np.where(inside, level[:, None, None], img).astype(np.uint8)


def write_idx(path: Path, images: np.ndarray) -> None:
    n, h, w = images.shape
    path.write_bytes(struct.pack(">IIII", 0x00000803, n, h, w) + images.tobytes())


def write_pgm_dir(path: Path, images: np.ndarray) -> None:
    path.mkdir(parents=True, exist_ok=True)
    for i, img in enumerate(images):
        h, w = img.shape
        (path / f"img_{i:05d}.pgm").write_bytes(b"P5\n%d %d\n255\n" % (w, h) + img.tobytes())


def mixture8(rng, count: int, sigma: float, shift=(0.0, 0.0)) -> np.ndarray:
    angle = 2 * np.pi * rng.integers(0, 8, size=count) / 8
    centers = np.stack([np.cos(angle), np.sin(angle)], axis=1) + np.asarray(shift)
    return centers + sigma * rng.normal(size=(count, 2))


def write_config(path: Path, out: Path, variant: str, steps: int, seed: int, T: int,
                 dataset: str, model: str = "", gamma: float = GAMMA) -> None:
    path.write_text(
        f"[dataset]\n{dataset}\n"
        f"[schedule]\ntype = {'cosine' if T == T_SMALL else 'linear'}\nt = {T}\n"
        f"[model]\nhidden = {HIDDEN}\nd_emb = {D_EMB}\n{model}"
        f"[train]\nvariant = {variant}\nbatch = {BATCH}\nsteps = {steps}\n"
        f"gamma = {gamma}\nseed = {seed}\n"
        f"[output]\ndir = {out}\n")


MIXTURE = "kind = mixture8\nsigma = 0.1\nradius = 3.0"
DUAL = "head = noise+variance\n"
CLASSES = "num_classes = 8\n"


class Workload:
    """Jobs of one round and the checks on their outputs."""

    name = ""
    tag = 0

    def __init__(self, work: Path, seed: int):
        self.work = Path(work)
        self.seed = seed
        self.rng = np.random.default_rng([seed, self.tag])
        self.jobs: list[Job] = []
        self._digests: dict[str, str] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def check_round(self) -> list[str]:
        """Every round must write the same bytes as the first."""
        problems = []
        for job in self.jobs:
            try:
                d = digest(job.outputs)
            except OSError as e:
                problems.append(f"{self.name}/{job.name}: {e}")
                continue
            if self._digests.setdefault(job.name, d) != d:
                problems.append(f"{self.name}/{job.name}: outputs differ from the first round")
        return problems

    def checks(self):
        """(label, callable returning a list of problems) for the final checks."""
        raise NotImplementedError

    def check(self) -> list[str]:
        """Problems found by the final checks."""
        problems = []
        for label, fn in self.checks():
            try:
                problems += fn()
            except Exception as e:  # a check that cannot run is a failed check
                problems.append(f"{self.name}/{label}: {type(e).__name__}: {e}")
        return problems

    def _seed(self) -> int:
        return int(self.rng.integers(0, 2**31))


# ------------------------------------------------------------ train


# 64-pixel images diverge at the 2-D learning rate, so they train slower
TRAIN_JOBS = (
    # name, variant, steps, dataset (None: IDX images), model section, learning rate
    ("ddpm", "ddpm", 800, MIXTURE, "", GAMMA),
    ("cfg", "cfg", 200, MIXTURE, CLASSES, GAMMA),
    ("improved", "improved", 200, None, DUAL, GAMMA_IMAGES),
)


class Train(Workload):
    name = "train"
    tag = 1

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.specs = {}
        for name, variant, steps, dataset, model, gamma in TRAIN_JOBS:
            if dataset is None:
                idx = self.work / f"{name}.idx"
                write_idx(idx, make_images(self.rng, steps * BATCH, SIDE))
                dataset = f"kind = idx\npath = {idx}"
            cfg, out = self.work / f"{name}.ini", self.work / name
            write_config(cfg, out, variant, steps, self._seed(), T_SMALL, dataset, model, gamma)
            self.specs[name] = (cfg, out, variant, steps)
            self.jobs.append(Job(name, ("train", cfg), steps * BATCH,
                                 (out / "model.ckpt", out / "loss.csv")))

    def checks(self):
        for name, (cfg, out, variant, steps) in self.specs.items():
            yield f"{name}/loss", lambda o=out, s=steps, n=name: check_loss(o / "loss.csv", s, n)
            yield f"{name}/reload", lambda o=out, n=name: check_reload(o / "model.ckpt", n)
            yield f"{name}/gradient", lambda c=cfg, o=out, n=name: check_gradient(
                c, o / "model.ckpt", n, np.random.default_rng([self.seed, 99]))


def check_loss(path: Path, steps: int, name: str) -> list[str]:
    rows = list(csv.reader(path.read_text().splitlines()))
    if rows[0] != ["step", "loss"]:
        return [f"train/{name}: loss.csv header {rows[0]}"]
    body = np.array([[float(v) for v in r] for r in rows[1:]])
    if body.shape != (steps, 2) or not np.array_equal(body[:, 0], np.arange(1, steps + 1)):
        return [f"train/{name}: loss.csv has {len(rows) - 1} rows, expected steps 1..{steps}"]
    loss = body[:, 1]
    if not np.all(np.isfinite(loss)):
        return [f"train/{name}: non-finite loss"]
    fifth = steps // 5
    if not loss[-fifth:].mean() < loss[:fifth].mean():
        return [f"train/{name}: loss did not fall ({loss[:fifth].mean():.4f} -> "
                f"{loss[-fifth:].mean():.4f})"]
    return []


def check_reload(ckpt: Path, name: str) -> list[str]:
    """The program's reload gives, bit for bit, the float32 parameter block
    that reference.read_container reads from the file's bytes."""
    from diffusionlab.training import load_checkpoint, model_from_checkpoint

    _, stored = ref.read_container(ckpt)
    model = model_from_checkpoint(load_checkpoint(str(ckpt)))
    if not same_bits(model.params, stored):
        return [f"train/{name}: checkpoint does not reload to its stored float32 parameters"]
    return []


def check_gradient(cfg: Path, ckpt: Path, name: str, rng, coords: int = 16,
                   h: float = 1e-6) -> list[str]:
    """Tape gradient at the final parameters vs central differences on
    sampled coordinates, as the relative L2 gap over those coordinates."""
    from diffusionlab import cli, training
    from diffusionlab.numerics import ADTape, grad

    rc = cli.load_run_config(str(cfg))
    sched = cli.build_schedule(rc.schedule_type, rc.T, rc.s)
    model = training.model_from_checkpoint(training.load_checkpoint(str(ckpt)))
    d, J = model.arch.d, 8
    x0 = np.clip(0.5 * rng.normal(size=(J, d)), -1.0, 1.0)
    x0 = -1.0 + (2.0 / 255.0) * np.rint((x0 + 1.0) * 127.5)  # on the byte grid
    eps = rng.normal(size=(J, d))
    t = int(rng.integers(2, sched.T + 1))
    cond = None
    if rc.variant == "cfg":
        cond = np.eye(rc.num_classes)[rng.integers(0, rc.num_classes, size=J)]
        cond[0] = 0.0
    base = model.params

    def loss(p):
        if rc.variant == "improved":
            return training.hybrid_loss(model, base, x0, eps, t, sched, lam=rc.train_cfg.lam,
                                        cond=cond, params=p)
        return training.simple_loss(model, x0, eps, t, sched, cond=cond, params=p)

    leaf = ADTape().tensor(base)
    g_ad = grad(loss(leaf), [leaf])[0]
    picks = rng.choice(base.size, size=coords, replace=False)
    g_fd = np.empty(coords)
    for j, i in enumerate(picks):
        hi, lo = base.copy(), base.copy()
        hi[i] += h
        lo[i] -= h
        g_fd[j] = (loss(hi) - loss(lo)) / (2.0 * h)
    gap = rel_gap(g_ad[picks], g_fd)
    if not gap <= 1e-4:
        return [f"train/{name}: tape gradient vs central differences gap {gap:.2e} > 1e-4"]
    return []


# ------------------------------------------------------------ sample

SAMPLE_MODELS = (
    # name, variant, steps, T, dataset (None: IDX images), model section, learning rate
    ("noise", "ddpm", 100, T_SMALL, MIXTURE, "", GAMMA),
    ("dual", "improved", 100, T_SMALL, MIXTURE, DUAL, GAMMA),
    ("class", "cfg", 100, T_SMALL, MIXTURE, CLASSES, GAMMA),
    ("image", "ddpm", 50, T_IMAGE, None, "", GAMMA_IMAGES),
)


class Sample(Workload):
    name = "sample"
    tag = 2

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.ckpt = {}
        for name, variant, steps, T, dataset, model, gamma in SAMPLE_MODELS:
            if dataset is None:
                idx = self.work / f"{name}.idx"
                write_idx(idx, make_images(self.rng, steps * BATCH, SIDE))
                dataset = f"kind = idx\npath = {idx}"
            cfg, out = self.work / f"{name}.ini", self.work / f"model_{name}"
            write_config(cfg, out, variant, steps, self._seed(), T, dataset, model, gamma)
            if run_cli(["train", cfg]) != 0:
                raise RuntimeError(f"set-up training of the {name} checkpoint failed")
            self.ckpt[name] = out / "model.ckpt"
        self.cls = int(self.rng.integers(0, 8))
        specs = (
            # job, checkpoint, count, network evaluations per chain, flags
            ("ddpm", "noise", 2000, T_SMALL, ("--variant", "ddpm")),
            ("ddim", "noise", 4000, 10, ("--variant", "ddim", "--k", 10, "--eta", 0)),
            ("improved", "dual", 4000, 10, ("--variant", "improved", "--k", 10)),
            ("guided", "class", 1000, 2 * T_SMALL,
             ("--variant", "guided", "--w", 2, "--class", self.cls)),
            ("image", "image", 128, T_IMAGE, ("--variant", "ddpm", "--format", "pgm")),
        )
        self.specs = {}
        for job, model, count, evals, flags in specs:
            out = self.work / f"out_{job}"
            argv = ("sample", self.ckpt[model], *flags, "--seed", self._seed())
            self.specs[job] = (argv, count, out)
            self.jobs.append(Job(job, argv + ("--count", count, "--out", out), count * evals,
                                 (out,)))

    def checks(self):
        for job, (argv, count, out) in self.specs.items():
            yield f"{job}/rows", lambda j=job, c=count, o=out: check_sample_out(j, o, c)
            yield f"{job}/prefix", lambda j=job, a=argv, o=out: check_prefix(
                j, a, o, self.work / f"prefix_{j}")
        yield "guided_w0", self.check_guided_w0
        yield "gaussian", self.check_gaussian
        for name, path in self.ckpt.items():
            yield f"denoiser/{name}", lambda n=name, p=path: check_denoiser(
                n, p, np.random.default_rng([self.seed, 98]))

    def check_guided_w0(self) -> list[str]:
        a, b = self.work / "w0_guided", self.work / "w0_ddpm"
        common = ("--class", self.cls, "--count", 256, "--seed", self.seed)
        for out, flags in ((a, ("--variant", "guided", "--w", 0)), (b, ("--variant", "ddpm"))):
            if run_cli(["sample", self.ckpt["class"], *flags, *common, "--out", out]) != 0:
                return [f"sample/guided_w0: sampling into {out.name} failed"]
        if (a / "samples.csv").read_bytes() != (b / "samples.csv").read_bytes():
            return ["sample/guided_w0: guided --w 0 differs from conditional ddpm"]
        return []

    def check_gaussian(self) -> list[str]:
        return check_gaussian_recovery(self.ckpt["noise"], np.random.default_rng([self.seed, 97]))


def check_sample_out(job: str, out: Path, count: int) -> list[str]:
    """count finite rows of d columns, or count PGM images of SIDE x SIDE."""
    if (out / "samples.csv").exists():
        x = load_rows(out / "samples.csv")
        if x.shape != (count, 2):
            return [f"sample/{job}: samples.csv has shape {x.shape}, expected ({count}, 2)"]
        if not np.all(np.isfinite(x)):
            return [f"sample/{job}: non-finite samples"]
        return []
    files = sorted(out.glob("*.pgm"))
    if len(files) != count:
        return [f"sample/{job}: {len(files)} PGM files, expected {count}"]
    size = len(b"P5\n%d %d\n255\n" % (SIDE, SIDE)) + SIDE * SIDE
    bad = [f.name for f in files if f.stat().st_size != size]
    return [f"sample/{job}: PGM files of the wrong size: {bad[:3]}"] if bad else []


def check_prefix(job: str, argv: tuple, out: Path, small: Path, count: int = 16) -> list[str]:
    """The first rows of a job equal those of a smaller job with the same seed."""
    if run_cli([*argv, "--count", count, "--out", small]) != 0:
        return [f"sample/{job}: the {count}-chain run failed"]
    if (out / "samples.csv").exists():
        if not same_bits(load_rows(out / "samples.csv")[:count], load_rows(small / "samples.csv")):
            return [f"sample/{job}: first {count} rows differ from a {count}-chain run"]
        return []
    big = sorted(out.glob("*.pgm"))[:count]
    if [f.read_bytes() for f in big] != [f.read_bytes() for f in sorted(small.glob("*.pgm"))]:
        return [f"sample/{job}: first {count} images differ from a {count}-chain run"]
    return []


def check_gaussian_recovery(ckpt: Path, rng, count: int = 2000) -> list[str]:
    """ddpm_sample and ddim_sample, driven by a Gaussian's exact noise
    predictor, recover its mean and covariance.

    Tolerances: mean within 6 standard errors, sqrt(tr(cov) / count);
    covariance within 15 % (Frobenius) of the target.
    """
    from diffusionlab.sampler import SampleRequest, ddim_sample, ddpm_sample
    from diffusionlab.schedule import linear_schedule, stride_steps
    from diffusionlab.training import load_checkpoint, model_from_checkpoint

    model = model_from_checkpoint(load_checkpoint(str(ckpt)))
    mu = rng.uniform(-1.0, 1.0, size=2)
    a = rng.normal(scale=0.5, size=(2, 2))
    cov = a @ a.T + 0.1 * np.eye(2)
    sched = linear_schedule(T_IMAGE)
    eps_fn = ref.gaussian_eps(mu, cov, sched.abar)
    req = SampleRequest(count=count, seed=int(rng.integers(0, 2**31)))
    runs = {
        "ddpm_sample": ddpm_sample(model, sched, req, eps_fn=eps_fn).samples,
        "ddim_sample": ddim_sample(model, sched, stride_steps(T_IMAGE, 100), 0.0, req,
                                   eps_fn=eps_fn).samples,
    }
    problems = []
    mean_tol = 6.0 * math.sqrt(np.trace(cov) / count)
    for name, x in runs.items():
        mean_err = float(np.linalg.norm(x.mean(axis=0) - mu))
        cov_err = rel_gap(np.cov(x.T), cov)
        if not (mean_err <= mean_tol and cov_err <= 0.15):
            problems.append(f"sample/gaussian: {name} mean error {mean_err:.3g} "
                            f"(limit {mean_tol:.3g}), covariance error {cov_err:.3g} (limit 0.15)")
    return problems


def check_denoiser(name: str, ckpt: Path, rng, batch: int = 32) -> list[str]:
    """The program's denoiser output on a batch against reference.denoiser_forward."""
    from diffusionlab.denoiser import denoise
    from diffusionlab.training import load_checkpoint, model_from_checkpoint

    meta, params = ref.read_container(ckpt)
    arch = meta["arch"]
    model = model_from_checkpoint(load_checkpoint(str(ckpt)))
    x = rng.normal(size=(batch, arch["d"]))
    t = int(rng.integers(1, meta["schedule"]["T"] + 1))
    cond = None
    if arch.get("conditioning"):
        k = arch["conditioning"]["num_classes"]
        cond = np.eye(k)[rng.integers(0, k, size=batch)]
        cond[: batch // 4] = 0.0
    got = denoise(model, x, t, cond)
    want = ref.denoiser_forward(arch, params, x, t, cond)
    problems = []
    for label, g, w in zip(("eps", "v2"), got, want):
        if w is None:
            continue
        gap = rel_gap(g, w)
        if not gap <= 1e-10:
            problems.append(f"sample/denoiser/{name}: {label} gap {gap:.2e} > 1e-10")
    return problems


# ------------------------------------------------------------ eval

EVAL_ROWS = 4000
IMAGES = 300
IMAGE_SIDE = 16
WINDOW = 4
BATCHES = 4
FEATURES = dict(d=2, hidden=(32,), num_classes=8)
# Four features of 2-D points keep the feature covariance well conditioned,
# so FID is defined to 1e-6; near-singular ones (16 features) are not.
FEATURE_DIM = 4


def write_features(path: Path, rng) -> None:
    """A feature classifier with uniform weights of scale 2 / sqrt(fan-in)."""
    shapes = dict(ref.feature_shapes(feature_dim=FEATURE_DIM, **FEATURES))
    params = np.concatenate([
        rng.uniform(-2.0, 2.0, size=int(np.prod(s)))
        / math.sqrt(s[0] if len(s) == 2 else shapes[n[:-2] + ".w"][0])
        for n, s in shapes.items()])
    ref.write_feature_container(path, feature_dim=FEATURE_DIM, params=params, **FEATURES)


def write_rows(path: Path, x: np.ndarray) -> None:
    np.savetxt(path, x, delimiter=",", fmt="%.17g")


class Eval(Workload):
    name = "eval"
    tag = 3

    def setup(self):
        w, rng = self.work, self.rng
        w.mkdir(parents=True, exist_ok=True)
        self.ref_csv = w / "ref.csv"
        write_rows(self.ref_csv, mixture8(rng, EVAL_ROWS, 0.1))
        gens = {"gen_wide": mixture8(rng, EVAL_ROWS, 0.2),
                "gen_shift": mixture8(rng, EVAL_ROWS, 0.1, shift=rng.normal(scale=0.3, size=2))}
        for name, x in gens.items():
            write_rows(w / f"{name}.csv", x)
        self.features = w / "features.ckpt"
        write_features(self.features, rng)
        images = make_images(rng, IMAGES, IMAGE_SIDE)
        noisy = np.clip(images + rng.normal(scale=12.0, size=images.shape), 0, 255)
        self.img_a, self.img_b = w / "img_a", w / "img_b"
        write_pgm_dir(self.img_a, images)
        write_pgm_dir(self.img_b, np.rint(noisy).astype(np.uint8))


        specs = [(name, w / f"{name}.csv", self.ref_csv, "fid,is", self.features, 2 * EVAL_ROWS)
                 for name in gens]
        specs.append(("images", self.img_a, self.img_b, "psnr,ssim", None, 2 * IMAGES))
        self.specs = {}
        for name, gen, refp, metrics, features, rows in specs:
            out = w / f"report_{name}.csv"
            argv = ["eval", "--gen", gen, "--ref", refp, "--metrics", metrics, "--out", out]
            argv += ["--features", features, "--batches", BATCHES] if features else \
                ["--window", WINDOW]
            self.specs[name] = (gen, refp, features, out)
            self.jobs.append(Job(name, tuple(argv), rows, (out,)))

    def checks(self):
        for job, (gen, refp, features, out) in self.specs.items():
            yield f"{job}/report", lambda j=job, g=gen, r=refp, f=features, o=out: check_report(
                j, o, g, r, f)
        for path in (self.ref_csv, *(s[0] for s in self.specs.values() if s[2] == self.features)):
            yield f"read_numeric_csv/{path.name}", lambda p=path: check_csv_parse(p)
        yield "self_fid", self.check_self_fid
        yield "self_ssim", self.check_self_ssim

    def check_self_fid(self) -> list[str]:
        out = self.work / "self_fid.csv"
        if run_cli(["eval", "--gen", self.ref_csv, "--ref", self.ref_csv, "--metrics", "fid",
                    "--features", self.features, "--out", out]) != 0:
            return ["eval/self_fid: eval failed"]
        value = read_report(out)["fid"][0]
        return [] if value <= 1e-6 else [f"eval/self_fid: FID of a file with itself {value:.3g}"]

    def check_self_ssim(self) -> list[str]:
        out = self.work / "self_ssim.csv"
        if run_cli(["eval", "--gen", self.img_a, "--ref", self.img_a, "--metrics", "ssim",
                    "--window", WINDOW, "--out", out]) != 0:
            return ["eval/self_ssim: eval failed"]
        value = read_report(out)["ssim"][0]
        return [] if value == 1.0 else [f"eval/self_ssim: SSIM of a directory with itself {value!r}"]


def read_report(path: Path) -> dict[str, list[float]]:
    """metric -> [value, k_samples, m_samples, batches, std]."""
    rows = list(csv.reader(Path(path).read_text().splitlines()))
    if rows[0] != ["metric", "value", "k_samples", "m_samples", "batches", "std"]:
        raise ValueError(f"{path}: report header {rows[0]}")
    return {r[0]: [float(v) for v in r[1:]] for r in rows[1:]}


def check_report(job: str, out: Path, gen: Path, refp: Path, features: Path) -> list[str]:
    """Every report column against the reference computation."""
    report = read_report(out)
    expected = {}
    if gen.is_dir():
        g, r = ref.read_pgm_dir(gen), ref.read_pgm_dir(refp)
        expected["psnr"] = (*ref.mean_std(ref.psnr_rows(g, r)), len(g), len(r), 1)
        expected["ssim"] = (*ref.mean_std(ref.ssim_rows(g, r, WINDOW)), len(g), len(r), 1)
    else:
        g, r = load_rows(gen), load_rows(refp)
        meta, params = ref.read_container(features)
        expected["fid"] = (ref.fid(meta, params, g, r), 0.0, len(g), len(r), 1)
        if "is" in report:
            expected["is"] = (*ref.inception_score(meta, params, g, BATCHES), len(g), 0, BATCHES)
    if sorted(report) != sorted(expected):
        return [f"eval/{job}: report metrics {sorted(report)}, expected {sorted(expected)}"]
    problems = []
    for metric, (value, std, k, m, b) in expected.items():
        got = report[metric]
        tol = 1e-6 if metric == "fid" else 1e-8 * abs(value)
        if not abs(got[0] - value) <= tol:
            problems.append(f"eval/{job}: {metric} {got[0]!r}, reference {value!r}")
        if not abs(got[4] - std) <= 1e-8 * abs(std) + 1e-14:
            problems.append(f"eval/{job}: {metric} std {got[4]!r}, reference {std!r}")
        if got[1:4] != [k, m, b]:
            problems.append(f"eval/{job}: {metric} counts {got[1:4]}, expected {[k, m, b]}")
    return problems


def check_csv_parse(path: Path) -> list[str]:
    from diffusionlab.fileio import read_numeric_csv

    if not same_bits(read_numeric_csv(str(path)), load_rows(path)):
        return [f"eval/read_numeric_csv: {path.name} differs from np.loadtxt"]
    return []


WORKLOADS = {w.name: w for w in (Train, Sample, Eval)}
