"""Binary PGM (P5, maxval 255) reading and writing.

The only raster format the package uses.  Masks store 0 for false and
255 for true; grayscale images store round(value * 255).
"""

from __future__ import annotations

import numpy as np

from .errors import DatasetIOError


def write_pgm(path, values: np.ndarray) -> None:
    values = np.asarray(values)
    if values.ndim != 2 or values.dtype != np.uint8:
        raise DatasetIOError(f"{path}: PGM payload must be a 2-d uint8 array")
    h, w = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(values.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    fields = []
    pos = 0
    # Header is four whitespace-separated tokens (magic, width, height,
    # maxval); '#' starts a comment running to end of line.
    while len(fields) < 4:
        if pos >= len(raw):
            raise DatasetIOError(f"{path}: truncated PGM header")
        c = raw[pos : pos + 1]
        if c == b"#":
            nl = raw.find(b"\n", pos)
            pos = len(raw) if nl < 0 else nl + 1
        elif c.isspace():
            pos += 1
        else:
            end = pos
            while end < len(raw) and not raw[end : end + 1].isspace():
                end += 1
            fields.append(raw[pos:end])
            pos = end
    pos += 1  # single whitespace byte after maxval
    if fields[0] != b"P5":
        raise DatasetIOError(f"{path}: not a binary PGM (magic {fields[0]!r})")
    try:
        w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    except ValueError as exc:
        raise DatasetIOError(f"{path}: malformed PGM header") from exc
    if w < 1 or h < 1:
        raise DatasetIOError(f"{path}: PGM size {w}x{h} is not positive")
    if maxval != 255:
        raise DatasetIOError(f"{path}: unsupported maxval {maxval}")
    data = raw[pos : pos + h * w]
    if len(data) != h * w:
        raise DatasetIOError(f"{path}: truncated PGM payload ({len(data)} of {h * w} bytes)")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w).copy()
