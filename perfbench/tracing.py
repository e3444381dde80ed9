"""Spans around the program's layer boundaries, kept in memory, and the
per-layer metrics derived from them.

A traced run replaces public functions and methods with wrappers at the
module attribute each caller looks up (for example `sampler.denoise`, which
the samplers call, and `training.denoise`, which the losses call). Each
wrapper appends one span: name, parent span, start, end, and one work
amount (rows, draws, bytes, sweeps or tape nodes, depending on the layer).
Nothing is wrapped in an untraced run.
"""

import os
import time
import tracemalloc
from array import array

import numpy as np

_clock = time.perf_counter


class Tracer:
    """Append-only span store with a stack of the spans now open."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]
        self._installed = []
        self.recording = False
        self.probe_alloc = False
        self.peak_alloc = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.work.append(0.0)
        self.end.append(0.0)
        self.start.append(_clock())
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float, work: float = 0.0) -> None:
        self.end[idx] = end
        self.work[idx] = work
        self._stack.pop()

    def event(self, name: str, work: float) -> None:
        """A zero-length span that only carries a count."""
        now = _clock()
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.start.append(now)
        self.end.append(now)
        self.work.append(work)

    def wrap(self, owner, attr: str, name: str, work=None, before=None, alloc=False):
        """Replace owner.attr by a span-recording wrapper.

        work(args, kwargs, result) gives the span's work amount; before(args,
        kwargs) runs ahead of the span for counts that must be read before
        the call. With alloc, the probe round measures the call's tracemalloc
        peak instead of recording spans.
        """
        fn = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.probe_alloc and alloc:
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.peak_alloc = max(tracer.peak_alloc,
                                            tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if not tracer.recording:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = tracer.open(name)
            result, done = None, False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = _clock()
                tracer.close(idx, end, work(args, kwargs, result) if work and done else 0.0)

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            work=np.frombuffer(self.work))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from diffusionlab import cli, data, metrics, sampler, training
    from diffusionlab.numerics import kernels
    from diffusionlab.numerics.rng import RngStream

    def rows(args, kwargs, result):
        x = np.asarray(args[1])
        return 1 if x.ndim == 1 else x.shape[0]

    def file_bytes(args, kwargs, result):
        return os.path.getsize(args[0])

    def slice_vjp_bytes(args, kwargs):
        # each slice node on the parameter leaf builds a zero vector of the
        # leaf's full length on backward
        f, leaves = args[0], args[1]
        tape, leaf = f.tape, leaves[0]
        slices = sum(1 for op, par in zip(tape.ops, tape.parents)
                     if op == "slice" and par[0] == leaf.index)
        tracer.event("autodiff.slice_vjp", slices * leaf.value.nbytes)
        tracer.event("autodiff.tape_nodes", len(tape))

    w = tracer.wrap
    w(cli, "train", "training.train")
    w(cli, "save_checkpoint", "training.ckpt_save")
    w(cli, "load_checkpoint", "training.ckpt_load")
    w(cli, "load_feature_model", "training.ckpt_load")
    w(cli, "write_csv", "fileio.csv_write", work=file_bytes)
    w(cli, "write_samples_csv", "fileio.csv_write", work=file_bytes)
    w(cli, "read_numeric_csv", "fileio.csv_read", work=file_bytes)
    w(cli, "write_pgm", "fileio.pgm_write")
    w(cli, "read_pgm", "fileio.pgm_read")
    for fn in ("ddpm_sample", "ddim_sample", "improved_sample", "guided_sample"):
        w(cli, fn, "sampler." + fn, alloc=True)
    w(sampler, "ddpm_sample", "sampler.ddpm_sample")
    w(sampler, "denoise", "denoiser.denoise", work=rows)
    w(training, "denoise", "denoiser.denoise", work=rows)
    w(RngStream, "split", "rng.split")
    w(RngStream, "normals", "rng.normals", work=lambda a, k, r: a[1])
    w(RngStream, "raw", "rng.raw", work=lambda a, k, r: a[1])
    w(training, "simple_loss", "training.loss")
    w(training, "hybrid_loss", "training.loss")
    w(training, "grad", "autodiff.grad", before=slice_vjp_bytes)
    w(training, "sgd_step", "training.sgd")
    w(data.MixtureSampler, "take", "data.take")
    w(data.DatasetCursor, "take", "data.take")
    w(cli, "fid", "metrics.fid")
    w(cli, "inception_score", "metrics.is")
    w(cli, "psnr", "metrics.psnr")
    w(cli, "ssim", "metrics.ssim")
    w(metrics.FeatureModel, "features", "metrics.features")
    w(metrics.FeatureModel, "probs", "metrics.features")
    w(metrics, "spd_sqrt", "linalg.spd_sqrt")
    w(kernels, "jacobi_sweeps", "linalg.jacobi_sweeps", work=lambda a, k, r: r)


def _layer(name: str) -> str:
    """Span name -> the layer its time and counts belong to."""
    if name.startswith("sampler."):
        return "sampler"
    if name.startswith("rng."):
        return "rng"
    return name


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer figures from the recorded spans.

    Busy time of a layer sums its outermost spans (a span nested in another
    span of the same layer adds nothing). Self time of a span is its length
    minus its direct children's lengths. Times are seconds per round except
    the training ones, which are seconds per SGD step.
    """
    n = len(tracer.start)
    layers = [_layer(tracer.names[i]) for i in tracer.name]
    layer = np.array(layers)
    parent = np.frombuffer(tracer.parent, np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    work = np.frombuffer(tracer.work)

    child_time = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time

    # outermost within its layer: no ancestor of the same layer
    outer = np.ones(n, dtype=bool)
    for i in range(n):
        p = parent[i]
        while p >= 0:
            if layers[p] == layers[i]:
                outer[i] = False
                break
            p = parent[p]

    def sel(lay):
        return layer == lay

    def busy(lay):
        return float(dur[sel(lay) & outer].sum())

    def calls(lay):
        return int(np.count_nonzero(sel(lay)))

    def total(lay):
        return float(work[sel(lay) & outer].sum())

    r = max(rounds, 1)
    steps = calls("training.sgd")
    per_step = (lambda v: v / steps) if steps else (lambda v: 0.0)
    den_calls, den_rows, den_busy = calls("denoiser.denoise"), total("denoiser.denoise"), busy("denoiser.denoise")
    out = {
        "cli.self_s": float(self_time[sel("cli.main")].sum()) / r,
        "training.step_s": per_step(busy("training.train")),
        "training.loss_s": per_step(busy("training.loss")),
        "autodiff.grad_s": per_step(busy("autodiff.grad")),
        "training.sgd_s": per_step(busy("training.sgd")),
        "data.take_s": per_step(busy("data.take")),
        "autodiff.tape_nodes": per_step(total("autodiff.tape_nodes")),
        "autodiff.slice_vjp_mb": per_step(total("autodiff.slice_vjp")) / 1e6,
        "denoiser.calls": den_calls / r,
        "denoiser.rows": den_rows / r,
        "denoiser.us_per_call": den_busy / den_calls * 1e6 if den_calls else 0.0,
        "denoiser.ns_per_row": den_busy / den_rows * 1e9 if den_rows else 0.0,
        "rng.calls": calls("rng") / r,
        "rng.draws": total("rng") / r,
        "rng.s": busy("rng") / r,
        "sampler.self_s": float(self_time[sel("sampler")].sum()) / r,
        "sampler.peak_alloc_mb": tracer.peak_alloc / 1e6,
        "fileio.csv_write_s": busy("fileio.csv_write") / r,
        "fileio.csv_write_mb": total("fileio.csv_write") / 1e6 / r,
        "fileio.pgm_write_s": busy("fileio.pgm_write") / r,
        "fileio.csv_read_s": busy("fileio.csv_read") / r,
        "fileio.csv_read_mb": total("fileio.csv_read") / 1e6 / r,
        "fileio.pgm_read_s": busy("fileio.pgm_read") / r,
        "training.ckpt_save_s": busy("training.ckpt_save") / r,
        "training.ckpt_load_s": busy("training.ckpt_load") / r,
        "metrics.features_s": busy("metrics.features") / r,
        "metrics.fid_s": busy("metrics.fid") / r,
        "metrics.is_s": busy("metrics.is") / r,
        "metrics.ssim_s": busy("metrics.ssim") / r,
        "metrics.psnr_s": busy("metrics.psnr") / r,
        "linalg.spd_sqrt_s": busy("linalg.spd_sqrt") / r,
        "linalg.jacobi_sweeps": total("linalg.jacobi_sweeps") / r,
    }
    return out
