import math
import struct

import numpy as np
import pytest

from diffusionlab.data import Dataset, DatasetCursor, MixtureSampler, idx_read, quantize_to_grid
from diffusionlab.errors import BadMagic, DataExhausted, OutOfRange, ShapeMismatch, TruncatedFile
from diffusionlab.forward import GRID_STEP, grid_index, grid_level, grid_value
from diffusionlab.numerics import RngStream

from conftest import write_idx

_CIRCLE = [(math.cos(2 * math.pi * i / 8), math.sin(2 * math.pi * i / 8))
           for i in range(8)]


# ---------------------------------------------------------------- dataset


def test_dataset_validation():
    x = np.zeros((4, 2))
    Dataset(x)
    Dataset(x, labels=np.array([0, 1, 0, 1]), num_classes=2)
    with pytest.raises(OutOfRange):
        Dataset(np.array([[np.inf, 0.0]]))
    with pytest.raises(OutOfRange):
        Dataset(np.zeros(4))
    with pytest.raises(ShapeMismatch):
        Dataset(x, labels=np.array([0, 1]), num_classes=2)
    with pytest.raises(OutOfRange):
        Dataset(x, labels=np.array([0, 1, 2, 3]), num_classes=2)


def test_dataset_cursor_walks_then_exhausts():
    ds = Dataset(np.arange(10.0).reshape(5, 2), labels=np.arange(5), num_classes=5)
    cur = DatasetCursor(ds)
    x1, l1 = cur.take(2)
    x2, l2 = cur.take(2)
    assert np.array_equal(x1, [[0.0, 1.0], [2.0, 3.0]])
    assert np.array_equal(x2, [[4.0, 5.0], [6.0, 7.0]])
    assert np.array_equal(l1, [0, 1]) and np.array_equal(l2, [2, 3])
    with pytest.raises(DataExhausted):
        cur.take(2)


# ---------------------------------------------------------------- mixture


def test_mixture_single_center_mean_bound():
    x, labels = MixtureSampler([(0.0, 0.0)], 0.5, RngStream(1)).take(100_000)
    assert x.shape == (100_000, 2)
    # standard error 0.5/sqrt(n) ~ 0.0016, so 0.01 is a generous cap
    assert np.all(np.abs(x.mean(axis=0)) <= 0.01)
    assert np.all(labels == 0)


def test_mixture_eight_centers_label_histogram():
    n = 100_000
    _, labels = MixtureSampler(_CIRCLE, 0.1, RngStream(2)).take(n)
    counts = np.bincount(labels, minlength=8)
    sigma = math.sqrt(n * (1 / 8) * (7 / 8))
    assert np.all(np.abs(counts - n / 8) <= 3 * sigma)


def test_mixture_labels_point_to_their_centers():
    x, labels = MixtureSampler(_CIRCLE, 0.05, RngStream(3)).take(5000)
    centers = np.asarray(_CIRCLE)
    gaps = np.linalg.norm(x - centers[labels], axis=1)
    assert np.max(gaps) <= 6 * 0.05 * math.sqrt(2)


def test_mixture_degenerate_scale_probe():
    # a vanishing but positive sigma leaves every draw exactly on its center;
    # centers sit off the axes so no coordinate is exactly zero
    off_axis = [(math.cos(a + math.pi / 8), math.sin(a + math.pi / 8))
                for a in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)]
    x, labels = MixtureSampler(off_axis, 1e-300, RngStream(4)).take(64)
    centers = np.asarray(off_axis)
    assert np.array_equal(x, centers[labels])


def test_mixture_reproducible_bitwise():
    xa, la = MixtureSampler(_CIRCLE, 0.3, RngStream(7)).take(500)
    xb, lb = MixtureSampler(_CIRCLE, 0.3, RngStream(7)).take(500)
    assert np.array_equal(xa, xb)
    assert np.array_equal(la, lb)


def test_mixture_validation():
    with pytest.raises(OutOfRange, match="at least one center"):
        MixtureSampler(np.zeros((0, 2)), 0.5, RngStream(0))
    with pytest.raises(OutOfRange):
        MixtureSampler([(0, 0)], 0.0, RngStream(0))


def test_mixture_sampler_is_endless_and_sequential():
    s = MixtureSampler(np.asarray(_CIRCLE), 0.2, RngStream(5))
    x1, l1 = s.take(100)
    x2, _ = s.take(100)
    assert x1.shape == (100, 2) and l1.shape == (100,)
    assert not np.array_equal(x1, x2)


def _oracle_take(rng, centers, sigma, k):
    """One take drawn on its own: k index words, then k*d normals."""
    idx = rng.integers(k, 0, centers.shape[0])
    noise = rng.normals(k * centers.shape[1]).reshape(k, centers.shape[1])
    return centers[idx] + sigma * noise, idx


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("centers", [_CIRCLE, np.linspace(-1, 1, 15).reshape(3, 5)])
def test_mixture_read_ahead_matches_one_take_at_a_time(centers):
    # a changing k drops the read-ahead; 400 takes of 16 cross its blocks;
    # 700 draws at d = 2 are beyond one block; repeated takes of 2 and 6
    # span 2 mod 4 counters, so each is drawn on its own
    centers = np.asarray(centers)
    s = MixtureSampler(centers, 0.3, RngStream(12))
    oracle = RngStream(12)
    for k in [3, 3, 5, 3, 700, 700, 700, 1, 1, 2, 2, 2, 6, 6, 6] + [16] * 400:
        x, labels = s.take(k)
        want_x, want_labels = _oracle_take(oracle, centers, 0.3, k)
        assert _same_bits(x, want_x) and _same_bits(labels, want_labels), k
        assert s.rng.counter == oracle.counter
    # a counter moved by hand drops what was drawn ahead
    s.rng.counter = oracle.counter = 5
    for k in (16, 16):
        assert _same_bits(s.take(k)[0], _oracle_take(oracle, centers, 0.3, k)[0])


def test_gaussian_mixture_draws_no_further_than_its_points():
    rng = RngStream(6)
    x, labels = MixtureSampler(_CIRCLE, 0.2, rng).take(5000)
    assert rng.counter == 5000 * (1 + 2 * 2)
    want_x, want_labels = _oracle_take(RngStream(6), np.asarray(_CIRCLE), 0.2, 5000)
    assert _same_bits(x, want_x) and _same_bits(labels, want_labels)


# ---------------------------------------------------------------- grid


def test_quantize_fixed_points_and_idempotence():
    levels = -1.0 + GRID_STEP * np.arange(256)
    q = quantize_to_grid(levels)
    assert np.array_equal(q, levels)
    assert quantize_to_grid(np.array([-1.0, 1.0])).tolist() == [-1.0, 1.0]
    rng = RngStream(6)
    x = 2.0 * rng.uniforms(500) - 1.0
    q1 = quantize_to_grid(x)
    assert np.array_equal(quantize_to_grid(q1), q1)


def test_quantizing_grid_values_is_a_no_op_bit_for_bit():
    # the train command does not wrap an IDX source in the quantizer: the
    # values idx_read makes lie in [-1, 1] and snap back to their own bits
    v = grid_value(np.arange(256))
    assert _same_bits(grid_value(grid_level(v)), v)
    assert _same_bits(quantize_to_grid(np.clip(v, -1.0, 1.0)), v)


def test_quantize_nearest_level_example():
    got = quantize_to_grid(np.array([0.004]))[0]
    assert got == pytest.approx(-1.0 + GRID_STEP * 128, rel=1e-15)
    assert got == pytest.approx(0.0039216, abs=1e-7)


def test_quantize_output_satisfies_grid_precondition():
    x = 2.0 * RngStream(8).uniforms(200) - 1.0
    k = grid_index(quantize_to_grid(x))
    assert k.min() >= 0 and k.max() <= 255


def test_quantize_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        quantize_to_grid(np.array([1.0001]))
    with pytest.raises(OutOfRange):
        quantize_to_grid(np.array([np.nan]))


# ---------------------------------------------------------------- IDX


def test_idx_endpoint_mapping(tmp_path):
    p = tmp_path / "img.idx"
    write_idx(p, np.reshape([0, 128, 255, 7, 9, 201], (2, 1, 3)))
    ds = idx_read(str(p))
    assert ds.count == 2 and ds.d == 3
    assert ds.samples[0, 0] == -1.0
    assert ds.samples[0, 2] == 1.0
    assert ds.samples[0, 1] == pytest.approx(2 * 128 / 255 - 1, rel=1e-15)
    assert ds.samples[0, 1] == pytest.approx(0.0039216, abs=1e-7)


def test_idx_values_land_on_the_grid(tmp_path):
    p = tmp_path / "img.idx"
    write_idx(p, np.concatenate([np.arange(256), np.arange(255, -1, -1)]).reshape(2, 16, 16))
    ds = idx_read(str(p))
    k = grid_index(ds.samples)
    assert np.array_equal(k[0], np.arange(256))


def test_idx_round_trip_byte_exact(tmp_path):
    src = tmp_path / "src.idx"
    back = tmp_path / "back.idx"
    write_idx(src, ((np.arange(4 * 6) * 37) % 256).reshape(4, 2, 3))
    ds = idx_read(str(src))
    # every value idx_read makes is a grid value whose level is its byte
    write_idx(back, grid_level(ds.samples).reshape(4, 2, 3))
    assert src.read_bytes() == back.read_bytes()


def test_idx_labels_round_trip(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    write_idx(img, np.arange(6).reshape(3, 1, 2))
    write_idx(lab, [2, 0, 1])
    ds = idx_read(str(img), str(lab))
    assert np.array_equal(ds.labels, [2, 0, 1])
    assert ds.num_classes == 3
    lab2 = tmp_path / "lab2.idx"
    write_idx(lab2, ds.labels)
    assert lab.read_bytes() == lab2.read_bytes()


def test_idx_label_count_mismatch(tmp_path):
    img = tmp_path / "img.idx"
    lab = tmp_path / "lab.idx"
    write_idx(img, np.zeros((3, 1, 2)))
    write_idx(lab, [0, 1])
    with pytest.raises(ShapeMismatch):
        idx_read(str(img), str(lab))


def test_idx_bad_magic(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(struct.pack(">IIII", 0x00000802, 1, 1, 1) + b"\x00")
    with pytest.raises(BadMagic):
        idx_read(str(p))
    p.write_bytes(struct.pack(">IIII", 0x01000803, 1, 1, 1) + b"\x00")
    with pytest.raises(BadMagic):
        idx_read(str(p))


def test_idx_truncations(tmp_path):
    p = tmp_path / "cut.idx"
    full = struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(8)
    for cut in (2, 10, len(full) - 3):
        p.write_bytes(full[:cut])
        with pytest.raises(TruncatedFile):
            idx_read(str(p))
    # trailing garbage also breaks the promised length
    p.write_bytes(full + b"\xff")
    with pytest.raises(TruncatedFile):
        idx_read(str(p))


@pytest.mark.parametrize("shape, message", [
    ((0, 2, 2), "holds no images"),
    ((0, 0, 0), "holds no images"),
    ((2, 2, 0), "image size 0x2 is not at least 1x1"),
    ((2, 0, 3), "image size 3x0 is not at least 1x1"),
])
def test_idx_without_pixels_is_refused(tmp_path, shape, message):
    p = tmp_path / "empty.idx"
    write_idx(p, np.zeros(shape))
    with pytest.raises(OutOfRange, match=message):
        idx_read(str(p))


def test_idx_dimension_overflow(tmp_path):
    p = tmp_path / "huge.idx"
    p.write_bytes(struct.pack(">IIII", 0x00000803, 1 << 20, 1 << 10, 1 << 10))
    with pytest.raises(OutOfRange):
        idx_read(str(p))
