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
from itertools import chain, islice, repeat

import numpy as np

from .errors import BadMagic, BadMetadata, ConfigError, OutOfRange, ShapeMismatch, TruncatedFile
from .forward import grid_level

_CSV_ROWS = 512  # rows per encoded chunk of write_samples_csv and per csv-module block read
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
    """The whole file, read on its raw descriptor: one read of fstat's size
    + 1 bytes is the file, held once, if it returns that size; else (a FIFO,
    a /proc file, a file that grew or shrank) 64 KiB reads follow to end of
    file. An OSError names path (a directory fails at its first read)."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            chunks = [os.read(fd, size + 1)]
            if len(chunks[0]) != size:
                chunks += iter(lambda: os.read(fd, 1 << 16), b"")
        finally:
            os.close(fd)
    except OSError as e:
        raise OSError(e.errno, e.strerror, str(path)) from None
    return b"".join(chunks)  # one chunk is returned as it is, not copied


def read_numeric_csv(path: str) -> np.ndarray:
    """(rows, cols) float matrix of the cells the csv module reads in strict
    mode, empty records dropped (quoted cells may embed commas, quotes and
    line breaks); raises on ragged or non-numeric content, a header line
    included.

    The text is decoded in chunks of at most _CSV_CHUNK bytes that end at a
    line break (a longer line is a chunk of its own), and its rows go into
    one matrix as they are read, one width holding across them: the file's
    bytes, the matrix and one block's text and cells are held. Quote-free
    text is split at each CR, LF and comma, a chunk per block, which gives
    the same cells; text with a quote goes through the csv module, blocks
    of _CSV_ROWS records. Blocks are checked in file order, so of faults in
    two blocks the first block's is reported."""
    raw = _read_bytes(path)
    out, n = None, 0
    blocks = _csv_blocks if b'"' in raw else _split_blocks
    for rows, commas, cells in blocks(_chunk_texts(raw, path), path):
        if out is not None:
            commas.add(out.shape[1] - 1)
        block = _cell_matrix(path, rows, commas, cells)
        del rows, cells  # before the next block is read
        if out is None:  # rows <= lines, and <= (bytes + 1) / width: width - 1 commas, a break
            lines = raw.count(b"\n") + 1
            if b"\r" in raw:  # a lone CR ends a line too
                lines += raw.count(b"\r") - raw.count(b"\r\n")
            out = np.empty((min(lines, (len(raw) + 1) // block.shape[1]), block.shape[1]))
        out[n:n + len(block)] = block
        n += len(block)
    if out is None:
        raise TruncatedFile(f"{path}: no data rows")
    out.resize((n, out.shape[1]), refcheck=False)
    return out


def _chunk_texts(raw: bytes, path):
    """The text of raw in chunks that end after the last CR or LF among
    their first _CSV_CHUNK bytes; CR and LF are single bytes in UTF-8, so
    each chunk decodes on its own."""
    lo = 0
    while lo < len(raw):
        hi = min(lo + _CSV_CHUNK, len(raw))
        if hi < len(raw):
            hi = max(raw.rfind(b"\n", lo, hi), raw.rfind(b"\r", lo, hi)) + 1
            if hi == 0:  # no line break in the chunk: it runs to the next one
                hi = min((i for i in (raw.find(b"\n", lo), raw.find(b"\r", lo)) if i >= 0),
                         default=len(raw) - 1) + 1
        try:
            text, lo = raw[lo:hi].decode("utf-8"), hi
        except UnicodeDecodeError:
            raise TruncatedFile(f"{path}: not UTF-8 text") from None
        yield text


def _split_blocks(texts, path):
    """(rows, comma counts, cells) of each quote-free text that holds a row,
    split at each CR, LF and comma; a cell longer than csv.field_size_limit()
    is malformed, as it is to the csv module."""
    limit = csv.field_size_limit()
    for text in texts:
        rows = list(filter(None, text.replace("\r", "\n").split("\n")))
        if not rows:
            continue
        if max(map(len, rows)) > limit and max(map(len, ",".join(rows).split(","))) > limit:
            raise TruncatedFile(f"{path}: malformed CSV (field larger than field limit)")
        yield rows, set(map(str.count, rows, repeat(","))), ",".join(rows).split(",")


def _csv_blocks(texts, path):
    """(rows, comma counts, cells) of each run of _CSV_ROWS records that the
    csv module reads in strict mode from the lines of texts, empty records
    dropped; a quoted cell may run across texts."""
    reader = csv.reader(chain.from_iterable(io.StringIO(t, newline="") for t in texts), strict=True)
    try:
        for records in iter(lambda: list(islice(reader, _CSV_ROWS)), []):
            if rows := [r for r in records if r]:
                yield rows, {len(r) - 1 for r in rows}, [c for r in rows for c in r]
    except csv.Error as e:
        raise TruncatedFile(f"{path}: malformed CSV ({e})") from None


def _cell_matrix(path, rows: list, commas: set, cells: list) -> np.ndarray:
    """The (len(rows), width) float matrix of cells, whose rows hold the
    comma counts in commas: one count, or ragged rows."""
    if len(commas) > 1:
        raise ShapeMismatch(f"{path}: ragged rows")
    width = commas.pop() + 1
    try:  # np.array calls float on each str: Python's syntax and error text
        cells = np.array(cells, dtype=np.float64)
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
    """(h, w) uint8 image of a binary (P5) file whose w x h pixels end it: a
    read-only view of the file's bytes after the header, not a copy."""
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
    if len(raw) - m.end() != w * h:
        raise TruncatedFile(f"{path}: {len(raw) - m.end()} pixel bytes, header promises {w * h}")
    return np.frombuffer(raw, np.uint8, offset=m.end()).reshape(h, w)


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
