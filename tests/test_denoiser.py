import math

import numpy as np
import pytest
import tape_oracle as ops
from scipy.spatial import cKDTree

from diffusionlab import training
from diffusionlab.data import quantize_to_grid
from diffusionlab.denoiser import (
    HEAD_DUAL,
    DenoiserArch,
    DenoiserModel,
    _adagn_backward,
    _adagn_consts,
    _adagn_rows,
    _check_conditioning,
    _embedding,
    _network,
    denoise,
    init_params,
    param_layout,
    split_head,
)
from diffusionlab.errors import ConditioningMismatch, ConfigError, ShapeMismatch, StepOutOfRange
from diffusionlab.metrics import FeatureModel, _feature_layout
from diffusionlab.numerics import ADTape, RngStream, grad
from diffusionlab.schedule import cosine_schedule


# ------------------------------------------------------------ time embedding

def test_time_embedding_zero_probe():
    emb = _embedding(0, 8)
    np.testing.assert_array_equal(emb[:4], np.zeros(4))
    np.testing.assert_array_equal(emb[4:], np.ones(4))


def test_time_embedding_unit_angle():
    # c=2: first frequency exponent is 1/(c-1) = 1, so t=10000 gives sin(1)
    emb = _embedding(10000, 4)
    assert emb[0] == pytest.approx(math.sin(1.0), abs=1e-12)
    assert emb[2] == pytest.approx(math.cos(1.0), abs=1e-12)


def test_time_embedding_range():
    rng = np.random.default_rng(1)
    for _ in range(200):
        t = int(rng.integers(0, 10**6))
        d_emb = 2 * int(rng.integers(2, 40))
        emb = _embedding(t, d_emb)
        assert emb.shape == (d_emb,)
        assert np.all(emb >= -1.0) and np.all(emb <= 1.0)


def test_time_embedding_degenerate():
    for d_emb in (2, 3, 0, 7):
        with pytest.raises(ConfigError, match="embedding dim"):
            DenoiserArch(2, (4,), d_emb)
    model = DenoiserModel.initialized(DenoiserArch(2, (4,), 4), 0)
    with pytest.raises(StepOutOfRange):
        denoise(model, np.zeros(2), -1)


@pytest.mark.parametrize("d_emb", [4, 8, 64])
def test_time_embedding_cache_is_the_models_and_has_the_pure_functions_bits(d_emb):
    # a forward at t fills its model's cache for the block of steps around t
    # in one call; each row must keep the bits of the one-step function
    model = DenoiserModel.initialized(DenoiserArch(2, (4,), d_emb), 0)
    other = DenoiserModel.initialized(DenoiserArch(2, (4,), d_emb), 0)
    for t in (1, 63, 64, 1000):
        denoise(model, np.zeros(2), t)
    assert other.embeddings == {}
    assert {1, 63, 64, 1000} <= model.embeddings.keys()
    for t, emb in model.embeddings.items():
        assert not emb.flags.writeable
        assert np.array_equal(emb.view(np.uint64), _embedding(t, d_emb).view(np.uint64)), t


def test_time_embedding_injective_at_desk_scale():
    table = np.stack([_embedding(t, 64) for t in range(1, 10_001)])
    tree = cKDTree(table)
    dist, _ = tree.query(table, k=2, p=np.inf)
    assert float(np.min(dist[:, 1])) > 1e-6


# ------------------------------------------------------------ adagn

def adagn(x, y1, y2, eps=1e-5):
    """_adagn_rows of one feature vector or a batch of rows."""
    rows = [np.atleast_2d(np.asarray(a, dtype=np.float64)) for a in (x, y1, y2)]
    return _adagn_rows(*rows, eps, _adagn_consts(rows[0].shape[1])).reshape(np.shape(x))


def test_adagn_identity_modulation_is_group_norm():
    rng = np.random.default_rng(5)
    x = rng.normal(size=12)
    out = adagn(x, np.ones(12), np.zeros(12), eps=0.0)
    want = (x - x.mean()) / x.std()
    np.testing.assert_allclose(out, want, rtol=1e-12)


def test_adagn_elementwise_when_no_repetition():
    rng = np.random.default_rng(7)
    x = rng.normal(size=6)
    y1 = rng.normal(size=6)
    y2 = rng.normal(size=6)
    gn = adagn(x, np.ones(6), np.zeros(6), eps=1e-12)
    out = adagn(x, y1, y2, eps=1e-12)
    np.testing.assert_allclose(out, y1 * gn + y2, rtol=1e-12)


# The next three check the oracle's general AdaGN (groups, a tiling period,
# a gamma/beta affine), the reference the network's one-group form is
# checked against bit for bit.

def test_adagn_normalizes_per_group():
    rng = np.random.default_rng(6)
    x = rng.normal(loc=3.0, scale=2.0, size=(4, 24))
    out = ops._adagn(x, np.ones((1, 24)), np.zeros((1, 24)), eps=1e-12, groups=4)
    grouped = out.reshape(4, 4, 6)  # rows x groups x in-group
    np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-10)
    np.testing.assert_allclose(grouped.std(axis=2) ** 2, 1.0, rtol=1e-6)


def test_adagn_tiling_period():
    # coordinate i + D*j is modulated by signal entry i
    out = ops._adagn(np.zeros((1, 6)), np.zeros((1, 2)), np.array([[10.0, 20.0]]), eps=1.0)
    np.testing.assert_array_equal(out, [[10.0, 20.0, 10.0, 20.0, 10.0, 20.0]])


def test_adagn_gamma_beta_affine():
    x = np.random.default_rng(8).normal(size=(1, 8))
    ones, zeros = np.ones((1, 8)), np.zeros((1, 8))
    plain = ops._adagn(x, ones, zeros, beta=0.0, gamma=1.0, eps=1e-12)
    scaled = ops._adagn(x, ones, zeros, beta=0.25, gamma=2.0, eps=1e-12)
    np.testing.assert_allclose(scaled, 2.0 * plain + 0.25, rtol=1e-12)


def _adagn_matmul_form(x, y1, y2, g):
    """_adagn_rows and _adagn_backward as the one-group averaging and tiling
    matmuls, with the composed tape's expressions."""
    avg, ind, tile = ops._const_group_matrices(x.shape[1], y1.shape[1], 1)
    centered = x - (x @ avg.T) @ ind
    ve = ((centered * centered) @ avg.T) @ ind + 1e-5
    sd = np.power(ve, 0.5)
    gn = (centered / sd) * 1.0 + 0.0
    y1t = y1 @ tile.T
    out = y1t * gn + y2 @ tile.T
    g_n = (g * y1t) * 1.0
    g_sd = -g_n * centered / (sd * sd)
    g_sq = ((g_sd * 0.5 * np.power(ve, -0.5)) @ ind.T) @ avg
    g_c = ((g_n / sd) + g_sq * centered) + g_sq * centered
    return out, g_c + ((-g_c) @ ind.T) @ avg, (g * gn) @ tile, g @ tile


@pytest.mark.parametrize("w", [8, 12, 32, 33])
def test_adagn_rows_match_the_matmul_form_bit_for_bit(w):
    rng = np.random.default_rng(w)
    for B in (1, 2, 17, 300):
        for scale in (1e-300, 1e-8, 1.0, 1e8):
            x = scale * rng.normal(size=(B, w))
            x[0, :2] = (0.0, -0.0)
            if B > 1:
                x[1] = -0.0  # a row of negative zeros
            y = rng.normal(size=(B, 2 * w))
            y[:, :3] = (0.0, -0.0, 1.0)
            g = scale * rng.normal(size=(B, w))
            g[0, :2] = -0.0
            for rows in (B, 1):  # per-row modulation, and one row for the batch
                y1, y2 = y[:rows, :w], y[:rows, w:]
                saved = []
                out = _adagn_rows(x, y1, y2, 1e-5, _adagn_consts(w), saved)
                with np.errstate(all="ignore"):
                    got = (out, *_adagn_backward(g, *saved[0]))
                    want = _adagn_matmul_form(x, np.broadcast_to(y1, (B, w)).copy(),
                                              np.broadcast_to(y2, (B, w)).copy(), g)
                for a, b in zip(got, want):
                    assert _bits(a) == _bits(b), (B, scale, rows)


# ------------------------------------------------------------ model

def test_layout_tiles_exactly():
    arch = DenoiserArch(d=3, hidden=(8, 12), d_emb=6, head=HEAD_DUAL,
                        num_classes=4)
    plan = param_layout(arch)
    layout, total = plan.offsets, plan.total
    seen = np.zeros(total, dtype=bool)
    for offset, shape in layout.values():
        size = int(np.prod(shape))
        assert not seen[offset : offset + size].any()
        seen[offset : offset + size] = True
    assert seen.all()


def test_init_params_deterministic_and_bounded():
    arch = DenoiserArch(d=2, hidden=(8,), d_emb=4)
    p1 = init_params(arch, 99)
    p2 = init_params(arch, 99)
    np.testing.assert_array_equal(p1, p2)
    assert not np.array_equal(p1, init_params(arch, 100))
    off, shape = param_layout(arch).offsets["input.w"]
    assert np.max(np.abs(p1[off : off + 16])) <= 1.0 / math.sqrt(2)


def _oracle_init(layout, seed):
    """The per-name initialization rule ParamLayout.init_uniform replaced: a
    bias named x.b (or x.bN) takes the row count of the weight x.w (x.wN)."""
    def fan_in(name, shape):
        if len(shape) == 2:
            return shape[0]
        sibling = name[:-2] + ".w" if name.endswith(".b") else name
        if name.endswith(".b1") or name.endswith(".b2"):
            sibling = name[:-3] + ".w" + name[-1]
        return layout.offsets[sibling][1][0]

    stream = RngStream(seed)
    params = np.empty(layout.total, dtype=np.float64)
    for name, start, stop, shape in layout.plan:
        bound = 1.0 / math.sqrt(fan_in(name, shape))
        params[start:stop] = bound * (2.0 * stream.uniforms(stop - start) - 1.0)
    return params


@pytest.mark.parametrize("arch", [
    DenoiserArch(d=3, hidden=(16, 32), d_emb=4),  # with a projection block
    DenoiserArch(d=2, hidden=(8, 8), d_emb=6, num_classes=5),
    DenoiserArch(d=4, hidden=(12,), d_emb=4, head=HEAD_DUAL),
], ids=["projection", "class-conditional", "dual-head"])
def test_init_uniform_matches_the_per_name_rule(arch):
    layout = param_layout(arch)
    for seed in (0, 7):
        expected = _oracle_init(layout, seed)
        assert init_params(arch, seed).tobytes() == expected.tobytes()
        assert DenoiserModel.initialized(arch, seed).params.tobytes() == expected.tobytes()


@pytest.mark.parametrize("hidden", [(), (16,), (16, 8)])
def test_feature_model_init_matches_the_per_name_rule(hidden):
    fm = FeatureModel.initialized(5, 3, 4, hidden, 11)
    expected = _oracle_init(_feature_layout(5, hidden, 4, 3), 11)
    assert fm.params.tobytes() == expected.tobytes()


def test_zero_params_give_zero_output():
    arch = DenoiserArch(d=2, hidden=(8, 8), d_emb=4, head=HEAD_DUAL,
                        num_classes=3)
    model = DenoiserModel(arch, np.zeros(param_layout(arch).total))
    eps_hat, v2 = denoise(model, np.array([0.7, -0.7]), 5, np.array([1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(eps_hat, np.zeros(2))
    np.testing.assert_array_equal(v2, np.zeros(2))


def test_denoise_deterministic():
    arch = DenoiserArch(d=3, hidden=(16,), d_emb=8)
    model = DenoiserModel.initialized(arch, 3)
    x = np.array([0.1, 0.2, 0.3])
    a, _ = denoise(model, x, 7)
    b, _ = denoise(model, x, 7)
    np.testing.assert_array_equal(a, b)


def test_denoise_batch_matches_single_rows():
    arch = DenoiserArch(d=2, hidden=(8, 8), d_emb=4, head=HEAD_DUAL)
    model = DenoiserModel.initialized(arch, 17)
    xb = np.random.default_rng(4).normal(size=(5, 2))
    eb, vb = denoise(model, xb, 3)
    for j in range(5):
        ej, vj = denoise(model, xb[j], 3)
        np.testing.assert_allclose(eb[j], ej, atol=1e-14)
        np.testing.assert_allclose(vb[j], vj, atol=1e-14)


def test_dual_head_codomain():
    arch = DenoiserArch(d=4, hidden=(16,), d_emb=6, head=HEAD_DUAL)
    model = DenoiserModel.initialized(arch, 23)
    xb = np.random.default_rng(2).normal(scale=3.0, size=(100, 4))
    _, v2 = denoise(model, xb, 9)
    assert np.all(v2 > -1.0) and np.all(v2 < 1.0)


def test_conditioning_mismatch():
    plain = DenoiserModel.initialized(DenoiserArch(2, (8,), 4), 1)
    with pytest.raises(ConditioningMismatch):
        denoise(plain, np.zeros(2), 1, np.array([1.0, 0.0]))

    cls = DenoiserModel.initialized(
        DenoiserArch(2, (8,), 4, num_classes=3), 1)
    with pytest.raises(ConditioningMismatch):
        denoise(cls, np.zeros(2), 1)
    with pytest.raises(ConditioningMismatch):
        denoise(cls, np.zeros(2), 1, np.array([1.0, 0.0]))
    with pytest.raises(ConditioningMismatch):
        denoise(cls, np.zeros((4, 2)), 1, np.zeros((3, 3)))


def test_denoise_rejects_bad_step_and_params():
    model = DenoiserModel.initialized(DenoiserArch(2, (8,), 4), 1)
    with pytest.raises(StepOutOfRange):
        denoise(model, np.zeros(2), 0)
    with pytest.raises(ShapeMismatch):
        DenoiserModel(model.arch, np.zeros(model.param_count + 1))
    with pytest.raises(ShapeMismatch):
        denoise(model, np.zeros(3), 1)
    for params in (np.zeros(3), np.zeros(model.param_count + 1), ADTape().tensor(np.zeros(3))):
        with pytest.raises(ShapeMismatch):
            denoise(model, np.zeros(2), 1, params=params)


def _fd_vs_ad(arch, cond, seed):
    model = DenoiserModel.initialized(arch, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=arch.d)
    eps = rng.normal(size=arch.d)

    def loss(p):
        e_hat, _ = denoise(model, x, 4, cond, params=p)
        r = eps - e_hat
        return float(np.sum(r * r))

    tape = ADTape()
    leaf = tape.tensor(model.params)
    e_hat, _ = ops.denoise_on_fused(model, x, 4, cond, params=leaf)
    r = ops.sub(eps, e_hat)
    g = ops.grad(ops.total(ops.mul(r, r)), [leaf])[0]

    h = 1e-6
    fd = np.zeros_like(model.params)
    base = model.params
    for i in range(base.size):
        up, down = base.copy(), base.copy()
        up[i] += h
        down[i] -= h
        fd[i] = (loss(up) - loss(down)) / (2 * h)
    return float(np.linalg.norm(fd - g) / np.linalg.norm(fd))


def test_denoise_gradient_matches_finite_differences():
    rel = _fd_vs_ad(DenoiserArch(2, (6, 6), 4), None, 7)
    assert rel <= 1e-4
    rel = _fd_vs_ad(
        DenoiserArch(2, (6, 6), 4, head=HEAD_DUAL, num_classes=3),
        np.array([0.0, 1.0, 0.0]), 11)
    assert rel <= 1e-4


def test_denoise_no_nan_over_many_evaluations():
    arch = DenoiserArch(d=3, hidden=(16, 16), d_emb=8, head=HEAD_DUAL)
    model = DenoiserModel.initialized(arch, 31)
    rng = np.random.default_rng(6)
    total = 0
    for t in (1, 2, 10, 500, 10_000):
        xb = rng.normal(scale=5.0, size=(20_000, 3))
        e_hat, v2 = denoise(model, xb, t)
        assert np.all(np.isfinite(e_hat)) and np.all(np.isfinite(v2))
        total += xb.shape[0]
    assert total == 100_000


def test_varied_widths_use_projection():
    arch = DenoiserArch(d=2, hidden=(8, 12), d_emb=4)
    assert "block1.proj.w" in param_layout(arch).offsets
    model = DenoiserModel.initialized(arch, 5)
    out, _ = denoise(model, np.array([0.3, 0.4]), 2)
    assert out.shape == (2,)
    assert np.all(np.isfinite(out))


# ------------------------------------------------------------ workspace

_WS_ARCHS = {
    "plain": DenoiserArch(2, (32, 32), 8),
    "dual": DenoiserArch(2, (32, 32), 8, HEAD_DUAL),
    "class": DenoiserArch(2, (32, 32), 8, num_classes=8),
    "class-dual-proj": DenoiserArch(3, (16, 24, 24), 6, HEAD_DUAL, 12),
}


@pytest.mark.parametrize("name", sorted(_WS_ARCHS))
def test_denoise_with_a_workspace_gives_the_bits_of_fresh_arrays(name):
    # against the same forward without one, and the oracle's matmul form,
    # which modulates every row of a batch with the class vector broadcast
    arch = _WS_ARCHS[name]
    model = DenoiserModel.initialized(arch, 12)
    rng = np.random.default_rng(13)
    ws = {}
    for B in (1, 16, 1000):
        x = rng.normal(size=(B, arch.d))
        conds = [None]
        if arch.num_classes:
            C = arch.num_classes
            # one-hot and zero rows are exact in any summation order; a dense
            # class vector's modulation row has the bits of the batch's only
            # if numpy runs the same loop for both
            conds = [np.eye(C)[2], np.zeros(C), rng.normal(size=C),
                     np.eye(C)[rng.integers(0, C, size=B)]]
        for cond in conds:
            for t in (1, 37):
                got = denoise(model, x, t, cond, ws=ws)
                fresh = denoise(model, x, t, cond)
                want = ops.denoise_off_tape(model, x, t, cond)
                for a, b, c in zip(got, fresh, want):
                    if c is None:
                        assert a is None and b is None
                        continue
                    assert _bits(a) == _bits(b) == _bits(c), (B, t)


@pytest.mark.parametrize("name", ["class", "class-dual-proj"])
def test_workspace_calls_return_arrays_of_their_own(name):
    # guided sampling's conditional and unconditional passes share one workspace
    arch = _WS_ARCHS[name]
    model = DenoiserModel.initialized(arch, 14)
    x = np.random.default_rng(15).normal(size=(64, arch.d))
    C = arch.num_classes
    ws = {}
    vc = denoise(model, x, 5, np.eye(C)[1], ws=ws)
    kept = [a.copy() for a in vc if a is not None]
    vu = denoise(model, x, 5, np.zeros(C), ws=ws)
    outs = [a for a in vc + vu if a is not None]
    assert ws
    for i, a in enumerate(outs):
        assert not any(np.shares_memory(a, buf) for buf in ws.values())
        assert not any(np.shares_memory(a, b) for b in outs[i + 1:])
    assert all(_bits(a) == _bits(b) for a, b in zip(kept, vc))


@pytest.mark.parametrize("name", sorted(_WS_ARCHS))
@pytest.mark.parametrize("n", [1, 511, 512, 513, 1025, 4000])
def test_blocked_denoise_has_the_bits_of_one_network_call(name, n):
    # the rows run in blocks of at most 512, a block of a count that is not
    # a multiple of 8 padded with copies of its last row; one _network call
    # over all rows, padded so, gives the same bits
    arch = _WS_ARCHS[name]
    model = DenoiserModel.initialized(arch, 16)
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, arch.d))
    conds = [None]
    if arch.num_classes:  # one class vector for every row, and one per row
        C = arch.num_classes
        conds = [np.eye(C)[1], np.eye(C)[rng.integers(0, C, size=n)]]
    padded = np.minimum(np.arange(n + -n % 8), n - 1)
    for cond in conds:
        rows = x[padded]
        cv = _check_conditioning(arch, cond if np.ndim(cond) < 2 else cond[padded], len(rows))
        whole = split_head(arch, _network(model, model.blocks, rows,
                                          _embedding(7, arch.d_emb), cv)[:n])
        for ws in (None, {}):
            got = denoise(model, x, 7, cond, ws=ws)
            for a, b in zip(got, whole):
                assert (a is None) == (b is None)
                assert a is None or _bits(a) == _bits(b), (n, cond is None, ws is None)
            if ws:
                assert max(buf.shape[0] for buf in ws.values()) <= 512


# ------------------------------------------------------------ the fused node

# The oracle (tests/tape_oracle.py) composes the network from tape ops, one
# node per linear, add, tanh, slice and AdaGN step, and the losses on top
# of it; the program's fused nodes must give its values and gradients.


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


_FUSED_ARCHS = {
    "plain": DenoiserArch(2, (8, 8), 4),
    "class": DenoiserArch(2, (8, 8), 6, num_classes=3),
    "class-dual-proj": DenoiserArch(3, (6, 10), 4, HEAD_DUAL, 4),
    "dual-proj": DenoiserArch(3, (8, 4, 4), 8, HEAD_DUAL),
}
_SCHED = cosine_schedule(50)


def _loss_and_grad(loss_fn, params):
    """(value, gradient, tape length) of a program loss, by the program's grad."""
    tape = ADTape()
    leaf = tape.tensor(params)
    loss = loss_fn(leaf)
    return loss.value, grad(loss, [leaf])[0], len(tape)


def _cases(arch, seed):
    """(x0, eps, cond) for 1-D single inputs and batches of 1, 5 and 16."""
    rng = np.random.default_rng(seed)
    for shape in ((arch.d,), (1, arch.d), (5, arch.d), (16, arch.d)):
        x0 = quantize_to_grid(np.clip(0.5 * rng.normal(size=shape), -1.0, 1.0))
        eps = rng.normal(size=shape)
        cond = None
        if arch.num_classes:
            onehot = np.eye(arch.num_classes)[
                rng.integers(0, arch.num_classes, size=shape[:-1] or (1,))]
            onehot[rng.random(onehot.shape[0]) < 0.3] = 0.0  # dropped conditioning
            cond = onehot[0] if len(shape) == 1 else onehot
        yield x0, eps, cond


@pytest.mark.parametrize("name, loss", [(name, loss) for name in sorted(_FUSED_ARCHS)
                                        for loss in ("simple", "hybrid")
                                        if loss == "simple" or _FUSED_ARCHS[name].head == HEAD_DUAL])
@pytest.mark.parametrize("zero_params", [False, True])
def test_fused_network_matches_the_composed_tape_bit_for_bit(name, loss, zero_params):
    arch = _FUSED_ARCHS[name]
    model = DenoiserModel.initialized(arch, 5)
    if zero_params:  # exact zeros everywhere: the signs of zero adjoints must match
        model = model.with_params(np.zeros(model.param_count))
    frozen = DenoiserModel.initialized(arch, 6).params
    for x0, eps, cond in _cases(arch, 9):
        for t in (1, 2, _SCHED.T):
            if loss == "simple":
                fns = [lambda p, m=m: m.simple_loss(model, x0, eps, t, _SCHED, cond, params=p)
                       for m in (training, ops)]
            else:
                fns = [lambda p, m=m: m.hybrid_loss(model, frozen, x0, eps, t, _SCHED, lam=0.3,
                                                    cond=cond, params=p)
                       for m in (training, ops)]
            value, g, nodes = _loss_and_grad(fns[0], model.params)
            want_value, want_g, oracle_nodes = ops.loss_and_grad(fns[1], model.params)
            assert nodes == 2 < oracle_nodes
            assert _bits(value) == _bits(want_value), (x0.shape, t)
            assert _bits(g) == _bits(want_g), (x0.shape, t)


@pytest.mark.parametrize("name", sorted(_FUSED_ARCHS))
def test_fused_network_outputs_match_the_composed_tape(name):
    arch = _FUSED_ARCHS[name]
    model = DenoiserModel.initialized(arch, 3)
    for x0, _, cond in _cases(arch, 4):
        for t in (1, 2, _SCHED.T):
            tape = ADTape()
            got = ops.denoise_on_fused(model, x0, t, cond, params=tape.tensor(model.params))
            plain = denoise(model, x0, t, cond)
            want = ops.denoise(model, x0, t, cond, params=ADTape().tensor(model.params))
            # off the tape the rows are padded to a multiple of 8 with copies
            # of the last row, so only batches of a multiple of 8 rows give
            # the tape's bits
            want_plain = ops.denoise_off_tape(model, x0, t, cond)
            for a, b, c, e in zip(got, plain, want, want_plain):
                if c is None:
                    assert a is None and b is None and e is None
                    continue
                assert a.shape == b.shape == c.shape
                assert _bits(a.value) == _bits(c.value)
                assert _bits(b) == _bits(e)
                assert x0.ndim == 1 or len(x0) % 8 or _bits(b) == _bits(c.value)
