"""Bit-stable file formats: RFC-4180 CSV with 17-digit floats, binary PGM
images, sorted-key JSON manifests, and the model checkpoint container. No
timestamps anywhere. CSV, manifest and checkpoint files are replaced
atomically; PGM images, written by the hundred, are written in place."""

import csv
import io
import json
import os
import re
import struct
from itertools import chain, repeat

import numpy as np

from .errors import BadMagic, BadMetadata, ConfigError, OutOfRange, ShapeMismatch, TruncatedFile
from .forward import grid_level

_CSV_ROWS = 512  # sample rows per encoded chunk of write_samples_csv
_CSV_CHUNK = 1 << 16  # text bytes per parsed chunk of read_numeric_csv (whole lines)


def format_cell(value) -> str:
    """One CSV cell: floats at 17 significant digits, quoting per RFC 4180."""
    if isinstance(value, float) or isinstance(value, np.floating):
        text = f"{float(value):.17g}"
    elif isinstance(value, (int, np.integer)):
        text = str(int(value))
    else:
        text = str(value)
    if any(ch in text for ch in ',"\r\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: str, rows, header) -> None:
    """A header line, then one line per row, each ended by CRLF."""
    lines = [",".join(map(format_cell, row)) for row in chain((header,), rows)]
    _write_atomic(path, (("\r\n".join(lines) + "\r\n").encode("utf-8"),))


def _write_atomic(path, chunks) -> None:
    """Write the byte chunks to a temp file next to path, then rename it
    over path, so a failed or killed write leaves any old file intact. An
    OSError names path, not the temp file.

    No fsync: the rename is atomic against a failed write, not a power cut.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException as e:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(e, OSError):
            raise OSError(e.errno, e.strerror, str(path)) from None
        raise


def _read_bytes(path) -> bytes:
    """The whole file, read on its raw descriptor: one read of the size
    fstat gives, then 64 KiB reads to end of file, so a file of that size
    is held once; an OSError names path (a directory opens and fails at its
    first read)."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = [os.read(fd, os.fstat(fd).st_size)]
            chunks += iter(lambda: os.read(fd, 1 << 16), b"")
        finally:
            os.close(fd)
    except OSError as e:
        raise OSError(e.errno, e.strerror, str(path)) from None
    return b"".join(chunks)  # one chunk is returned as it is, not copied


def _decode(raw: bytes, path) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise TruncatedFile(f"{path}: not UTF-8 text") from None


def read_numeric_csv(path: str) -> np.ndarray:
    """(rows, cols) float matrix of the cells the csv module reads in strict
    mode, empty records dropped (quoted cells may embed commas, quotes and
    line breaks); raises on ragged or non-numeric content, a header line
    included.

    Quote-free text whose lines fit the csv module's field size limit is
    split at each CR, LF and comma, which gives the same cells, in chunks of
    at most _CSV_CHUNK bytes that end at a line break (a longer line is a
    chunk of its own), one width holding across them: the file's bytes, the
    matrix and one chunk's cells are held. As the chunks are checked in
    file order, a file with faults in two chunks reports the first chunk's.
    Other text goes to the csv module whole."""
    raw = _read_bytes(path)
    m = None if b'"' in raw else _quote_free_matrix(raw, path)
    if m is not None:
        return m
    try:
        rows = [row for row in csv.reader(io.StringIO(_decode(raw, path), newline=""),
                                          strict=True) if row]
    except csv.Error as e:
        raise TruncatedFile(f"{path}: malformed CSV ({e})") from None
    if not rows:
        raise TruncatedFile(f"{path}: no data rows")
    return _cell_matrix(path, rows, {len(r) - 1 for r in rows}, chain.from_iterable(rows))


def _quote_free_matrix(raw: bytes, path) -> np.ndarray | None:
    """read_numeric_csv's matrix of quote-free CSV bytes, parsed a chunk at
    a time; None when no line holds a cell or a line is longer than
    csv.field_size_limit(), which the csv module then reads. A chunk ends
    after the last CR or LF among its first _CSV_CHUNK bytes; CR, LF and
    comma are single bytes in UTF-8, so each chunk decodes on its own."""
    out, n, lo, limit = None, 0, 0, csv.field_size_limit()
    while lo < len(raw):
        hi = min(lo + _CSV_CHUNK, len(raw))
        if hi < len(raw):
            hi = max(raw.rfind(b"\n", lo, hi), raw.rfind(b"\r", lo, hi)) + 1
            if hi == 0:  # no line break in the chunk: it runs to the next one
                hi = min((i for i in (raw.find(b"\n", lo), raw.find(b"\r", lo)) if i >= 0),
                         default=len(raw) - 1) + 1
        chunk, lo = raw[lo:hi], hi
        rows = list(filter(None, _decode(chunk, path).replace("\r", "\n").split("\n")))
        if not rows:
            continue
        if max(map(len, rows)) > limit:
            return None
        commas = set(map(str.count, rows, repeat(",")))
        if out is not None:
            commas.add(out.shape[1] - 1)
        block = _cell_matrix(path, rows, commas, ",".join(rows).split(","))
        if out is None:
            out = np.empty((0, block.shape[1]))
        if n + len(block) > len(out):  # room for the rest at this chunk's rows per byte
            rest = len(block) * (len(raw) - hi) // len(chunk)
            out.resize((max(n + len(block) + rest, len(out) * 9 // 8), out.shape[1]),
                       refcheck=False)
        out[n:n + len(block)] = block
        n += len(block)
    if out is not None:
        out.resize((n, out.shape[1]), refcheck=False)
    return out


def _cell_matrix(path, rows: list, commas: set, cells) -> np.ndarray:
    """The (len(rows), width) float matrix of cells, whose rows hold the
    comma counts in commas: one count, or ragged rows."""
    if len(commas) > 1:
        raise ShapeMismatch(f"{path}: ragged rows")
    width = commas.pop() + 1
    try:
        cells = np.fromiter(map(float, cells), dtype=np.float64, count=len(rows) * width)
    except ValueError as e:
        raise TruncatedFile(f"{path}: non-numeric cell ({e})") from None
    return cells.reshape(len(rows), width)


def write_samples_csv(path: str, samples: np.ndarray) -> None:
    """Sample matrices are written headerless, one row per sample, in
    write_csv's bytes; a float's text never needs quoting, so each row is
    formatted in one step. Rows are formatted and encoded _CSV_ROWS at a
    time, so the text never exists whole; a matrix without rows is one
    empty line, as in write_csv."""
    m = np.asarray(samples, dtype=np.float64)
    line = ",".join(["%.17g"] * m.shape[1]) + "\r\n"
    chunks = ("".join(line % tuple(r) for r in m[lo:lo + _CSV_ROWS].tolist()).encode("ascii")
              for lo in range(0, len(m), _CSV_ROWS))
    _write_atomic(path, chunks if len(m) else (b"\r\n",))


def write_pgm(path: str, image: np.ndarray) -> None:
    """8-bit binary (P5) image."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ShapeMismatch(f"PGM needs a 2-D image, got {img.shape}")
    if img.dtype != np.uint8:
        if not np.all(np.isfinite(img)) or img.min() < 0 or img.max() > 255:
            raise ShapeMismatch("PGM pixels must fit one byte")
        img = img.astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


_PGM_HEADER = re.compile(rb"P5\s+(\S+)\s+(\S+)\s+(\S+)\s")


def read_pgm(path: str) -> np.ndarray:
    raw = _read_bytes(path)
    if not raw.startswith(b"P5"):
        raise BadMagic(f"{path}: not a binary PGM file")
    m = _PGM_HEADER.match(raw)
    if m is None:
        raise TruncatedFile(f"{path}: header ends early")
    try:
        w, h, maxval = (int(v) for v in m.groups())
    except ValueError:
        raise BadMagic(f"{path}: malformed header tokens {m.groups()}") from None
    if maxval != 255:
        raise BadMagic(f"{path}: only 8-bit images supported, maxval {maxval}")
    if w < 1 or h < 1:
        raise OutOfRange(f"{path}: image size {w}x{h} is not at least 1x1")
    data = raw[m.end():]
    if len(data) != w * h:
        raise TruncatedFile(f"{path}: {len(data)} pixel bytes, header promises {w * h}")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)


def to_bytes_image(samples_row: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """De-quantize one [-1, 1] sample vector to an 8-bit image."""
    x = np.clip(np.asarray(samples_row, dtype=np.float64), -1.0, 1.0)
    return grid_level(x).astype(np.uint8).reshape(rows, cols)


def write_manifest(path: str, payload: dict) -> None:
    blob = json.dumps(payload, sort_keys=True, indent=2)
    _write_atomic(path, ((blob + "\n").encode("utf-8"),))


# ------------------------------------------------------------ checkpoint container

CONTAINER_MAGIC = b"DDPMCKPT"
CONTAINER_VERSION = 1
_HEADER = struct.Struct("<II")  # version, metadata length in bytes
_JSON_NAMES = {int: "integer", dict: "object", list: "array"}


def write_container(path: str, meta: dict, params) -> None:
    """Magic, u32 version, u32-length-prefixed sorted-key JSON metadata, then
    the parameters as little-endian float32.

    The metadata gains param_count. The file is written atomically (see
    _write_atomic).
    """
    block = float32_params(params, path)
    meta = {**meta, "param_count": int(block.size)}
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    _write_atomic(path, (CONTAINER_MAGIC + _HEADER.pack(CONTAINER_VERSION, len(blob)) + blob,
                         block.tobytes()))


def read_container(path: str, kind: str,
                   required: dict[str, type]) -> tuple[int, dict, np.ndarray]:
    """(version, metadata, float32 parameters) of a container holding a
    `kind` model (metadata without a kind holds a denoiser).

    The magic, version, lengths and kind are checked, then each required
    metadata key and its JSON type; the parameter block must end the file.
    """
    raw = _read_bytes(path)
    head = len(CONTAINER_MAGIC) + _HEADER.size
    if len(raw) < head:
        raise TruncatedFile(f"checkpoint {path} too short for its header")
    if raw[: len(CONTAINER_MAGIC)] != CONTAINER_MAGIC:
        raise BadMagic(f"checkpoint {path} has wrong magic bytes")
    version, meta_len = _HEADER.unpack_from(raw, len(CONTAINER_MAGIC))
    if version != CONTAINER_VERSION:
        raise BadMagic(f"checkpoint {path} has format version {version}, "
                       f"expected {CONTAINER_VERSION}")
    if len(raw) < head + meta_len:
        raise TruncatedFile(f"checkpoint {path} metadata truncated")
    meta = read_metadata(raw[head : head + meta_len], path)
    found = meta.get("kind", "denoiser")
    if found != kind:
        raise ConfigError(f"{path} holds a {found} model, not a {kind} model")
    require_keys(meta, path, {**required, "param_count": int})
    start = head + meta_len
    stop = start + 4 * meta["param_count"]
    if len(raw) < stop:
        raise TruncatedFile(f"checkpoint {path} parameter block truncated")
    if len(raw) > stop:
        raise BadMetadata(f"checkpoint {path} has {len(raw) - stop} bytes after its "
                          f"{meta['param_count']} parameters")
    return version, meta, float32_params(np.frombuffer(raw[start:stop], dtype="<f4"), path)


def float32_params(params, path: str) -> np.ndarray:
    """A new copy of params as the container's <f4 block; a value not finite
    there (NaN, inf, beyond 3.4e38) is refused by writer and reader alike."""
    with np.errstate(over="ignore", invalid="ignore"):
        block = np.asarray(params).astype("<f4")
    bad = np.flatnonzero(~np.isfinite(block))
    if bad.size:
        raise OutOfRange(f"{path}: parameter {bad[0]} is {block[bad[0]]}, not finite as float32")
    return block


def read_metadata(blob: bytes, path: str) -> dict:
    """Decode a container's metadata block, which must be one JSON object."""
    try:
        meta = json.loads(blob.decode("utf-8"))
    except UnicodeDecodeError:
        raise BadMetadata(f"{path}: metadata is not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise BadMetadata(f"{path}: metadata is not valid JSON ({e})") from None
    if not isinstance(meta, dict):
        raise BadMetadata(f"{path}: metadata is a JSON {type(meta).__name__}, not an object")
    return meta


def require_keys(meta: dict, path: str, required: dict[str, type]) -> None:
    """Each required key must be present with its type; integers must be
    >= 0 and are never booleans."""
    for key, kind in required.items():
        if key not in meta:
            raise BadMetadata(f"{path}: metadata lacks key {key!r}")
        value = meta[key]
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise BadMetadata(f"{path}: metadata key {key!r} must be a JSON "
                              f"{_JSON_NAMES[kind]}, got {value!r}")
        if kind is int and value < 0:
            raise BadMetadata(f"{path}: metadata key {key!r} must be >= 0, got {value}")
