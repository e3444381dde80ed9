"""The program's tape and the oracle op set it is checked against.

The program's tape holds a parameter leaf and `fused` nodes with
hand-written backwards; a training step is three nodes. The oracle's
flat-parameter primitives (tests/tape_oracle.py): `view` and the `linear`
node give bit for bit the values and gradients of the slice/reshape and
matmul/add chains they stand for."""

import numpy as np
import pytest
import tape_oracle as ops

from diffusionlab.denoiser import HEAD_DUAL, DenoiserArch, DenoiserModel
from diffusionlab.errors import ShapeMismatch
from diffusionlab.numerics import ADTape, ParamLayout, fused, grad
from diffusionlab.schedule import cosine_schedule
from diffusionlab.training import hybrid_loss, simple_loss


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _loss(y, target):
    r = ops.sub(target, y)
    return ops.mul(ops.total(ops.mul(r, r)), 0.5)


@pytest.mark.parametrize("x_shape", [(5, 3), (3,)])
@pytest.mark.parametrize("x_on_tape", [True, False])
def test_linear_matches_matmul_add(x_shape, x_on_tape):
    rng = np.random.default_rng(1)
    x = rng.normal(size=x_shape)
    w, b = rng.normal(size=(3, 4)), rng.normal(size=4)
    target = rng.normal(size=x_shape[:-1] + (4,))

    results = []
    for fused in (True, False):
        tape = ADTape()
        xs = tape.tensor(x) if x_on_tape else x
        ws, bs = tape.tensor(w), tape.tensor(b)
        y = ops.linear(xs, ws, bs) if fused else ops.add(ops.matmul(xs, ws), bs)
        leaves = [ws, bs] + ([xs] if x_on_tape else [])
        results.append([y.value] + ops.grad(_loss(y, target), leaves))
    for fused, plain in zip(*results):
        assert _bits(fused) == _bits(plain)
    assert _bits(ops.linear(x, w, b)) == _bits(results[1][0])


def test_linear_is_one_node_and_keeps_a_constant_input_off_the_tape():
    tape = ADTape()
    w, b = tape.tensor(np.ones((2, 3))), tape.tensor(np.zeros(3))
    before = len(tape)
    ops.linear(np.ones((4, 2)), w, b)
    assert len(tape) == before + 1
    assert tape.ops[-1] == "linear"


def test_view_matches_reshaped_slice():
    rng = np.random.default_rng(2)
    flat = rng.normal(size=20)
    target = rng.normal(size=(3, 4))
    results = []
    for new in (True, False):
        tape = ADTape()
        leaf = tape.tensor(flat)
        blk = ops.view(leaf, 5, 17, (3, 4)) if new else \
            ops.reshape(ops.slice_axis(leaf, 0, 5, 17), (3, 4))
        results.append((blk.value, ops.grad(_loss(blk, target), [leaf])[0]))
    (v_new, g_new), (v_old, g_old) = results
    assert _bits(v_new) == _bits(v_old)
    assert _bits(g_new) == _bits(g_old)
    assert _bits(ops.view(flat, 5, 17, (3, 4))) == _bits(v_old)


def test_view_rejects_a_non_flat_operand():
    tape = ADTape()
    with pytest.raises(ValueError):
        ops.view(tape.tensor(np.zeros((2, 3))), 0, 2, (2,))


def test_views_tiling_a_leaf_give_the_flat_gradient():
    # a two-layer net read from one flat vector, through the plan's views
    # and through the old per-block slice/reshape chains
    rng = np.random.default_rng(3)
    plan = ParamLayout([("w1", (3, 5)), ("b1", (5,)), ("w2", (5, 2)), ("b2", (2,)),
                        ("emb.w", (4, 5))])
    flat = rng.normal(size=plan.total)
    x, emb, target = rng.normal(size=(6, 3)), rng.normal(size=4), rng.normal(size=(6, 2))

    def net(p, fused):
        lin = ops.linear if fused else (lambda a, w, b: ops.add(ops.matmul(a, w), b))
        h = ops.tanh(ops.add(lin(x, p["w1"], p["b1"]), ops.matmul(emb, p["emb.w"])))
        return lin(h, p["w2"], p["b2"])

    tape = ADTape()
    leaf = tape.tensor(flat)
    g_new = ops.grad(_loss(net(ops.blocks(plan, leaf), True), target), [leaf])[0]

    tape = ADTape()
    leaf = tape.tensor(flat)
    old = {name: ops.reshape(ops.slice_axis(leaf, 0, a, b), shape)
           for name, a, b, shape in plan.plan}
    g_old = ops.grad(_loss(net(old, False), target), [leaf])[0]
    assert _bits(g_new) == _bits(g_old)
    assert np.all(g_new != 0.0)


def test_view_scatter_adds_to_other_uses_of_the_flat_vector():
    # `add` hands one adjoint array to both of its operands; the views of a
    # must add into a's gradient without touching b's
    rng = np.random.default_rng(5)
    a_val, b_val, c = rng.normal(size=6), rng.normal(size=6), rng.normal(size=6)
    w = rng.normal(size=(2, 3))
    tape = ADTape()
    a, b = tape.tensor(a_val), tape.tensor(b_val)
    loss = ops.add(ops.total(ops.mul(ops.view(a, 0, 6, (2, 3)), w)),
                   ops.total(ops.mul(ops.add(a, b), c)))
    g_a, g_b = ops.grad(loss, [a, b])
    assert _bits(g_b) == _bits(c)
    assert _bits(g_a) == _bits(c + w.reshape(-1))


def test_plan_tiles_the_vector_and_gives_numpy_views():
    plan = ParamLayout([("a", (2, 3)), ("b", (3,)), ("c", (1, 4))])
    assert plan.total == 13
    assert [(a, b) for _, a, b, _ in plan.plan] == [(0, 6), (6, 9), (9, 13)]
    assert dict(plan.offsets) == {"a": (0, (2, 3)), "b": (6, (3,)), "c": (9, (1, 4))}
    flat = np.arange(13.0)
    blocks = plan.blocks(flat)
    assert all(np.shares_memory(v, flat) for v in blocks.values())
    assert blocks["c"].tolist() == [[9.0, 10.0, 11.0, 12.0]]


def test_blocks_rejects_a_vector_of_the_wrong_length():
    plan = ParamLayout([("a", (2, 3)), ("b", (3,))])
    for bad in (np.zeros(8), np.zeros(10), np.zeros((3, 3))):
        with pytest.raises(ShapeMismatch):
            plan.blocks(bad)


@pytest.mark.parametrize("classes, head", [(0, "noise-only"), (8, "noise-only"), (0, HEAD_DUAL)],
                         ids=["ddpm", "cfg", "improved"])
def test_training_tape_is_small_and_reads_the_leaf_through_one_fused_node(classes, head):
    # ddpm, cfg (AdaGN) and improved losses: the leaf, and the network with the loss
    model = DenoiserModel.initialized(DenoiserArch(2, (32, 32), 8, head, classes), 7)
    rng = np.random.default_rng(4)
    x0, eps = rng.normal(size=(16, 2)), rng.normal(size=(16, 2))
    onehot = np.eye(8)[rng.integers(0, 8, size=16)] if classes else None
    tape = ADTape()
    leaf = tape.tensor(model.params)
    if head == HEAD_DUAL:
        loss = hybrid_loss(model, None, x0, eps, 9, cosine_schedule(50), lam=0.1, params=leaf)
    else:
        loss = simple_loss(model, x0, eps, 9, cosine_schedule(50), cond=onehot, params=leaf)
    assert tape.ops == ["leaf", "fused"]
    assert tape.parents == [(), (0,)]
    assert grad(loss, [leaf])[0].shape == model.params.shape


def test_fused_node_backward_gets_the_adjoint_and_returns_the_parent_adjoint():
    rng = np.random.default_rng(6)
    a_val, w = rng.normal(size=4), rng.normal(size=(4, 3))
    tape = ADTape()
    a = tape.tensor(a_val)
    other = tape.tensor(np.ones(2))
    seen = []

    def backward(g):
        seen.append(g)
        return w @ g

    y = fused(a, a_val @ w, backward)
    loss = fused(y, np.sum(y.value * 2.0), lambda g: np.full(3, 2.0) * g)
    g_a, g_other = grad(loss, [a, other])
    assert _bits(g_a) == _bits(w @ np.full(3, 2.0))
    assert _bits(g_other) == _bits(np.zeros(2))
    assert len(seen) == 1 and _bits(seen[0]) == _bits(np.full(3, 2.0))
