"""CSV, PGM, and manifest round trips, plus the malformed-file error paths."""

import csv
import errno
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from diffusionlab import fileio
from diffusionlab.errors import BadMagic, OutOfRange, ShapeMismatch, TruncatedFile
from diffusionlab.fileio import (
    format_cell,
    read_numeric_csv,
    read_pgm,
    to_bytes_image,
    write_csv,
    write_manifest,
    write_pgm,
    write_samples_csv,
)
from diffusionlab.numerics import RngStream


# ------------------------------------------------------------ cells


def test_format_cell_float_round_trips_exactly():
    rng = RngStream(11)
    values = list(1000.0 * (rng.uniforms(50) - 0.5)) + [
        1.0, -1.0, 0.0, 1e-300, 1e300, 0.1, 2.0 / 3.0, np.pi]
    for v in values:
        assert float(format_cell(float(v))) == float(v)


def test_format_cell_int_and_text():
    assert format_cell(42) == "42"
    assert format_cell(np.int64(-7)) == "-7"
    assert format_cell("plain") == "plain"


def test_format_cell_quotes_specials():
    assert format_cell("a,b") == '"a,b"'
    assert format_cell('say "hi"') == '"say ""hi"""'
    assert format_cell("two\nlines") == '"two\nlines"'
    assert format_cell("cr\rhere") == '"cr\rhere"'


# ------------------------------------------------------------ csv files


def test_write_csv_uses_crlf(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, [(1, 2.5), (3, 4.5)], header=("a", "b"))
    raw = p.read_bytes()
    assert raw == b"a,b\r\n1,2.5\r\n3,4.5\r\n"


def test_csv_quoted_fields_round_trip(tmp_path):
    p = tmp_path / "q.csv"
    rows = [["a,b", 'with "quotes"', "line\nbreak"], ["plain", "x", "y"]]
    write_csv(p, rows, header=("name", "text", "note"))
    assert _csv_module_rows(p) == [["name", "text", "note"], *rows]


def test_numeric_csv_round_trip_bitwise(tmp_path):
    rng = RngStream(3)
    m = rng.normals(60).reshape(12, 5) * 1e3
    p = tmp_path / "m.csv"
    write_samples_csv(str(p), m)
    back = read_numeric_csv(str(p))
    assert np.array_equal(back, m)


# rows are encoded 512 at a time: the counts about one and two chunks
@pytest.mark.parametrize("shape", [(6, 2), (3, 1), (2, 5), (0, 2), (1, 2), (511, 2), (512, 2),
                                   (513, 2), (1100, 2)])
def test_samples_csv_has_the_bytes_of_write_csv(tmp_path, shape):
    specials = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-308, 1.2e17, 1e16,
                0.1, -1.0 / 3.0, 123456789.0]
    m = np.resize(np.concatenate([specials, 1e3 * RngStream(4).normals(5)]), shape)
    got, want = tmp_path / "fast.csv", tmp_path / "cells.csv"
    write_samples_csv(str(got), m)
    # the first row as write_csv's header, whose cells it formats as a row's;
    # an empty header is the one empty line of a file without samples
    write_csv(str(want), m[1:], header=m[0] if len(m) else ())
    assert got.read_bytes() == want.read_bytes()


def test_numeric_csv_empty_raises(tmp_path):
    p = tmp_path / "e.csv"
    p.write_bytes(b"")
    with pytest.raises(TruncatedFile):
        read_numeric_csv(str(p))


def test_numeric_csv_non_numeric_raises(tmp_path):
    p = tmp_path / "n.csv"
    p.write_bytes(b"1.5,apple\r\n")
    with pytest.raises(TruncatedFile):
        read_numeric_csv(str(p))


def test_numeric_csv_ragged_raises(tmp_path):
    p = tmp_path / "r.csv"
    p.write_bytes(b"1,2,3\r\n4,5\r\n")
    with pytest.raises(ShapeMismatch):
        read_numeric_csv(str(p))


def _oracle_read_csv(path):
    """The character loop the csv module replaced in the CSV reader: CRLF
    folded to LF, quoted cells may embed commas, quotes and newlines, blank
    lines dropped."""
    text = Path(path).read_text(encoding="utf-8").replace("\r\n", "\n")
    rows = []
    record, field = [], []
    started = False  # current record has content beyond a bare newline
    quoted = False
    i = 0
    while i < len(text):
        ch = text[i]
        if quoted:
            if ch == '"':
                if i + 1 < len(text) and text[i + 1] == '"':
                    field.append('"')
                    i += 1
                else:
                    quoted = False
            else:
                field.append(ch)
        elif ch == '"':
            quoted = True
            started = True
        elif ch == ",":
            record.append("".join(field))
            field = []
            started = True
        elif ch == "\n":
            if started or field:
                record.append("".join(field))
                rows.append(record)
            record, field, started = [], [], False
        else:
            field.append(ch)
            started = True
        i += 1
    if started or field:
        record.append("".join(field))
        rows.append(record)
    return rows


def _numeric_text(rng, rows, cols, newline, final_newline, blank_every=0, header=False):
    cells = 1e3 * (rng.uniforms(rows * cols) - 0.5)
    lines = [",".join(f"c{j}" for j in range(cols))] if header else []
    for r in range(rows):
        if blank_every and r % blank_every == 0:
            lines.append("")
        lines.append(",".join(format_cell(float(v)) for v in cells[r * cols : (r + 1) * cols]))
    return newline.join(lines) + (newline if final_newline else "")


def _csv_module_rows(path):
    """The rows whose cells read_numeric_csv parses: the csv module's in
    strict mode, with empty records dropped."""
    with open(path, newline="", encoding="utf-8") as f:
        return [row for row in csv.reader(f, strict=True) if row]


def _generated(header, blank_every, final_newline, newline):
    text = _numeric_text(RngStream(40 + blank_every), 23, 3, newline, final_newline,
                         blank_every, header)
    return pytest.param(text.encode("utf-8"), header, None,
                        id=f"{header}-{blank_every}-{final_newline}-{newline}")


_HUGE_CELL = "0." + "0" * 200_000 + "1"  # longer than csv.field_size_limit()

# file bytes, whether the text starts with a header line, and what
# read_numeric_csv gives: a matrix, an error class, or None for the csv
# module's cells as floats (a header is a non-numeric cell)
_CSV_INPUTS = [
    *(_generated(header, blank_every, final_newline, newline)
      for header in (False, True) for blank_every in (0, 1, 3)
      for final_newline in (False, True) for newline in ("\n", "\r\n", "\r")),
    pytest.param(b"1,2\r\n \r\n3,4\r\n", False, ShapeMismatch, id="whitespace_line"),
    pytest.param(b"\r\nx,y\r\n1,2\r\n", True, TruncatedFile, id="header_after_blank_line"),
    pytest.param("1_0,\u0661\u0662\n".encode("utf-8"), False, [[10.0, 12.0]],
                 id="float_syntax"),
    pytest.param(b'"1.5",2\r\n', False, [[1.5, 2.0]], id="quoted_number"),
    pytest.param(b"1\x00,2\r\n", False, TruncatedFile, id="nul_in_cell"),
    pytest.param(f"{_HUGE_CELL},2\r\n".encode(), False, TruncatedFile,
                 id="cell_over_field_size_limit"),
]


@pytest.mark.parametrize("raw, header, expect", _CSV_INPUTS)
def test_read_csv_matches_the_character_loop(tmp_path, raw, header, expect):
    p = tmp_path / "m.csv"
    p.write_bytes(raw)
    try:
        want = _csv_module_rows(p)
    except csv.Error:
        want = None
    else:
        if b"\r" not in raw.replace(b"\r\n", b""):  # the loop does not split a lone \r
            assert _oracle_read_csv(p) == want
    if expect is None:
        expect = TruncatedFile if header else [[float(v) for v in r] for r in want]
    if isinstance(expect, type):
        with pytest.raises(expect, match="m.csv"):
            read_numeric_csv(str(p))
    else:
        expect = np.array(expect, dtype=np.float64)
        got = read_numeric_csv(str(p))
        assert got.shape == expect.shape and got.tobytes() == expect.tobytes()


def test_read_csv_trailing_blank_lines_and_whitespace_cells(tmp_path):
    p = tmp_path / "w.csv"
    p.write_bytes(b"\r\n\n1, 2\r\n \n\n3,4\n\r\n\r\n")
    assert _csv_module_rows(p) == _oracle_read_csv(p) == [["1", " 2"], [" "], ["3", "4"]]
    with pytest.raises(ShapeMismatch, match="ragged"):  # the blank cell is a row
        read_numeric_csv(str(p))
    p.write_bytes(b"\r\n\n1, 2\r\n\n\n3,4\n\r\n\r\n")
    assert read_numeric_csv(str(p)).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_read_csv_line_breaks_the_loop_did_not_split(tmp_path):
    # the csv module ends a line at a lone \r and keeps a quoted \r\n in its cell
    p = tmp_path / "cr.csv"
    p.write_bytes(b'1,2\r3,4\r\n"5\r\n",6\r\n')
    assert _csv_module_rows(p) == [["1", "2"], ["3", "4"], ["5\r\n", "6"]]
    assert read_numeric_csv(str(p)).tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]


def test_read_csv_non_utf8_raises_naming_the_path(tmp_path):
    p = tmp_path / "latin.csv"
    p.write_bytes(b"1.0,2.0\r\n\xff\xfe,3\r\n")
    with pytest.raises(TruncatedFile, match="latin.csv"):
        read_numeric_csv(str(p))


@pytest.mark.parametrize("text", [b'1,"2\r\n3,4\r\n', b'1,"2"x\r\n'])
def test_read_csv_malformed_quoting_raises(tmp_path, text):
    p = tmp_path / "q.csv"
    p.write_bytes(text)
    with pytest.raises(TruncatedFile, match="q.csv"):
        read_numeric_csv(str(p))


def _rows_to(parts: list, stop: int, end: str, rng) -> None:
    """Append 2-cell rows with mixed line ends to parts, then one row ended
    by end whose first cell is padded with leading zeros, so that the text
    is exactly stop characters long."""
    size = sum(map(len, parts))
    while stop - size > 120:
        row = ",".join("%.17g" % v for v in rng.normal(size=2)) + rng.choice(["\r\n", "\r", "\n"])
        parts.append(row)
        size += len(row)
    parts.append("0" * (stop - size - len(end) - 9) + "1.25,-2.5" + end)


def _chunked_text(rng) -> str:
    """More than three read chunks of rows. A chunk ends after the last line
    break among its first _CSV_CHUNK bytes, so these end exactly at each
    multiple of it: a CRLF pair straddles the first boundary, a blank line
    between two lone CRs the second, and a blank LF line starts the fourth
    chunk."""
    c, parts = fileio._CSV_CHUNK, []
    _rows_to(parts, c, "\r", rng)
    parts.append("\n")
    _rows_to(parts, 2 * c, "\r", rng)
    parts.append("\r")
    _rows_to(parts, 3 * c, "\n", rng)
    parts.append("\n")
    _rows_to(parts, 3 * c + 500, "\r\n", rng)
    text = "".join(parts)
    assert (text[c - 1:c + 1], text[2 * c - 1:2 * c + 1], text[3 * c - 1:3 * c + 1]) == (
        "\r\n", "\r\r", "\n\n")
    return text


def test_numeric_csv_chunks_read_as_loadtxt_reads_the_file(tmp_path):
    p = tmp_path / "chunks.csv"
    p.write_bytes(_chunked_text(np.random.default_rng(5)).encode())
    got, want = read_numeric_csv(str(p)), np.loadtxt(p, delimiter=",", ndmin=2)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk", range(1, 41))
def test_numeric_csv_every_chunk_size_gives_the_same_cells(tmp_path, monkeypatch, chunk):
    # lines longer than a chunk included; each boundary falls everywhere once
    p = tmp_path / "small.csv"
    p.write_bytes(b"\r\n1,2.5\r-3e2,4\r\n\r\n\n0.125,7\n\r\r\n1e-300,-0\r\n8,9")
    monkeypatch.setattr(fileio, "_CSV_CHUNK", chunk)
    got, want = read_numeric_csv(str(p)), np.loadtxt(p, delimiter=",", ndmin=2)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("last_row, error, message", [
    ("1,2,3\r\n", ShapeMismatch, "ragged rows"),
    ("1.0,abc\r\n", TruncatedFile,
     "non-numeric cell (could not convert string to float: 'abc')"),
])
def test_numeric_csv_fault_in_the_last_chunk_only(tmp_path, last_row, error, message):
    p = tmp_path / "late.csv"
    text = _chunked_text(np.random.default_rng(6))
    p.write_bytes((text + last_row).encode())
    with pytest.raises(error) as e:
        read_numeric_csv(str(p))
    assert str(e.value) == f"{p}: {message}"
    # with a second fault in the first chunk, that chunk's fault is reported;
    # both classes are data errors, exit 3
    p.write_bytes(("x,y\r\n" + text + last_row).encode())
    with pytest.raises(TruncatedFile, match="non-numeric cell"):
        read_numeric_csv(str(p))
    assert ShapeMismatch.exit_code == TruncatedFile.exit_code == 3


def test_numeric_csv_read_holds_its_bytes_matrix_and_one_chunk(tmp_path):
    # beyond the file's bytes and the result, the peak does not grow with rows
    over = []
    for rows in (5000, 50_000):
        p = tmp_path / f"{rows}.csv"
        write_samples_csv(str(p), np.random.default_rng(rows).normal(size=(rows, 2)))
        read_numeric_csv(str(p))
        tracemalloc.start()
        try:
            m = read_numeric_csv(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        over.append(peak - p.stat().st_size - m.nbytes)
    assert over[1] <= over[0] + 16_384, over


# ------------------------------------------------------------ pgm images


def test_pgm_round_trip(tmp_path):
    rng = RngStream(8)
    img = (rng.uniforms(6 * 4) * 256).astype(np.uint8).reshape(6, 4)
    p = tmp_path / "i.pgm"
    write_pgm(str(p), img)
    back = read_pgm(str(p))
    assert back.shape == (6, 4)
    assert np.array_equal(back, img)


def test_pgm_header_layout(tmp_path):
    p = tmp_path / "h.pgm"
    write_pgm(str(p), np.zeros((2, 3), dtype=np.uint8))
    assert p.read_bytes() == b"P5\n3 2\n255\n" + b"\x00" * 6


def test_pgm_rejects_wrong_magic(tmp_path):
    p = tmp_path / "p4.pgm"
    p.write_bytes(b"P4\n3 2\n255\n" + b"\x00" * 6)
    with pytest.raises(BadMagic):
        read_pgm(str(p))


def test_pgm_rejects_wrong_maxval(tmp_path):
    p = tmp_path / "mv.pgm"
    p.write_bytes(b"P5\n3 2\n65535\n" + b"\x00" * 12)
    with pytest.raises(BadMagic):
        read_pgm(str(p))


def test_pgm_rejects_bad_header_token(tmp_path):
    p = tmp_path / "tok.pgm"
    p.write_bytes(b"P5\nwide 2\n255\n" + b"\x00" * 6)
    with pytest.raises(BadMagic):
        read_pgm(str(p))


@pytest.mark.parametrize("size", [b"0 0", b"3 0", b"0 2", b"-2 -3"])
def test_pgm_rejects_an_image_without_pixels(tmp_path, size):
    # "-2 -3" promises 6 bytes, and numpy cannot reshape them to (-3, -2)
    p = tmp_path / "z.pgm"
    p.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(6 if size == b"-2 -3" else 0))
    w, h = size.decode().split()
    with pytest.raises(OutOfRange, match=f"image size {w}x{h} is not at least 1x1"):
        read_pgm(str(p))


def test_pgm_truncated_payload(tmp_path):
    p = tmp_path / "t.pgm"
    write_pgm(str(p), np.arange(12, dtype=np.uint8).reshape(3, 4))
    raw = p.read_bytes()
    p.write_bytes(raw[:-5])
    with pytest.raises(TruncatedFile):
        read_pgm(str(p))


def test_pgm_rejects_bytes_after_the_pixels(tmp_path):
    # a second image appended to the first must not read as the first alone
    p = tmp_path / "two.pgm"
    one = b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4])
    p.write_bytes(one + one)
    with pytest.raises(TruncatedFile, match="19 pixel bytes, header promises 4"):
        read_pgm(str(p))


def test_pgm_truncated_header(tmp_path):
    p = tmp_path / "th.pgm"
    p.write_bytes(b"P5\n3")
    with pytest.raises(TruncatedFile):
        read_pgm(str(p))


def test_pgm_header_whitespace_is_any_run_of_blanks(tmp_path):
    # one whitespace byte ends the header; pixels that look like blanks stay pixels
    img = np.array([[9, 10, 13], [32, 0, 255]], dtype=np.uint8)
    p = tmp_path / "ws.pgm"
    p.write_bytes(b"P5\t\r\n 3  \t2\r\r   255\r" + img.tobytes())
    back = read_pgm(str(p))
    write_pgm(str(tmp_path / "plain.pgm"), img)
    assert back.tobytes() == read_pgm(str(tmp_path / "plain.pgm")).tobytes() == img.tobytes()
    assert back.shape == (2, 3)


def test_write_pgm_validates_input():
    with pytest.raises(ShapeMismatch):
        write_pgm("/tmp/never.pgm", np.zeros(6))
    with pytest.raises(ShapeMismatch):
        write_pgm("/tmp/never.pgm", np.full((2, 2), 300.0))
    with pytest.raises(ShapeMismatch):
        write_pgm("/tmp/never.pgm", np.full((2, 2), np.nan))


def test_to_bytes_image_mapping():
    img = to_bytes_image(np.array([-1.0, 1.0, 0.0, -5.0, 5.0, -1.0 + 2.0 / 255.0]),
                         2, 3)
    assert img.dtype == np.uint8
    assert img.shape == (2, 3)
    # endpoints, midpoint, clipping, one grid step above the floor
    assert img.ravel().tolist() == [0, 255, 128, 0, 255, 1]


def test_pgm_byte_grid_round_trip(tmp_path):
    """Quantized samples survive PGM export and reimport on the same grid."""
    rng = RngStream(4)
    x = 2.0 * rng.uniforms(16) - 1.0
    img = to_bytes_image(x, 4, 4)
    p = tmp_path / "g.pgm"
    write_pgm(str(p), img)
    back = read_pgm(str(p))
    x2 = -1.0 + (2.0 / 255.0) * back.astype(np.float64).ravel()
    assert np.max(np.abs(x2 - x)) <= 1.0 / 255.0 + 1e-12


# ------------------------------------------------------------ manifests


def test_manifest_round_trip(tmp_path):
    payload = {"seed": 7, "variant": "ddim", "eta": 0.5, "k": None}
    p = tmp_path / "m.json"
    write_manifest(str(p), payload)
    assert json.loads(p.read_text(encoding="utf-8")) == payload


def test_manifest_bytes_deterministic_and_sorted(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_manifest(str(a), {"z": 1, "a": 2})
    write_manifest(str(b), {"a": 2, "z": 1})
    assert a.read_bytes() == b.read_bytes()
    keys = list(json.loads(a.read_text()).keys())
    assert keys == sorted(keys)
    assert a.read_bytes().endswith(b"}\n")


# ------------------------------------------------------------ checkpoint container


@pytest.mark.parametrize("value", [np.nan, np.inf, 3.5e38, -1e39])
def test_container_writer_refuses_what_its_reader_would(tmp_path, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast-overflow warning either
        with pytest.raises(OutOfRange, match="parameter 1 is .*not finite as float32"):
            fileio.write_container(str(tmp_path / "c.ckpt"), {}, np.array([0.5, value]))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_container_reader_refuses_a_non_finite_parameter(tmp_path, value):
    path = tmp_path / "c.ckpt"
    fileio.write_container(str(path), {}, np.array([0.5, 1.0, -2.0]))
    assert fileio.read_container(str(path), "denoiser", {})[2].tolist() == [0.5, 1.0, -2.0]
    path.write_bytes(path.read_bytes()[:-8] + np.array([value], dtype="<f4").tobytes()
                     + path.read_bytes()[-4:])
    with pytest.raises(OutOfRange, match="parameter 1 is"):
        fileio.read_container(str(path), "denoiser", {})


# ------------------------------------------------------------ atomic replacement


@pytest.mark.parametrize("name, write", [
    ("loss.csv", lambda p, v: write_csv(p, [(1, v)], header=("step", "loss"))),
    ("samples.csv", lambda p, v: write_samples_csv(p, np.full((3, 2), v))),
    ("manifest.json", lambda p, v: write_manifest(p, {"seed": v})),
])
def test_failed_text_write_keeps_the_old_file(tmp_path, monkeypatch, name, write):
    # the second write of the file runs out of space: the first file's bytes
    # survive and no temp file is left beside it
    path = tmp_path / name
    write(path, 1.5)
    old = path.read_bytes()

    class DiskFull:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            raise OSError(errno.ENOSPC, "No space left on device")

    opened = []

    def failing_open(file, mode="r"):
        opened.append(str(file))
        return DiskFull(open(file, mode))

    monkeypatch.setattr(fileio, "open", failing_open, raising=False)
    with pytest.raises(OSError) as failed:
        write(path, 2.5)
    assert failed.value.filename == str(path)  # the file asked for, not the temp file
    assert len(opened) == 1 and opened[0].startswith(str(path) + ".")
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == [name]
