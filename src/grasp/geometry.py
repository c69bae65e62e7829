"""Binary masks, exact signed distance fields, pooling, and IoU.

A mask is stored as packed bits, one bit per pixel.  Counting, union,
difference, equality and IoU work on the packed bytes; the bool raster
that the distance transform and the model read is unpacked on demand.

Distances are measured between pixel centers.  The distance transform
is exact Euclidean and only computed over a window: the bounding box of
the false pixels grown by one pixel, since everything outside it is a
true pixel at distance 0.  Inside the window it is separable: a scan
of the columns that hold a true pixel, gathered once (two running
maxima along the rows), finds each pixel's squared row distance to the
nearest true pixel of each such column, then a broadcast minimum over
those columns, taken over blocks of rows, adds the squared column
offset and keeps the smallest sum.  When a bound from the scan puts
every pixel's nearest true pixel within a few columns, as in a mask of
scattered pixels, the minimum spans only those columns around each
pixel.  All squared distances are integers until the final square
root, so the minimum is exact and independent of the order in which it
is taken.  It runs in the narrowest integer type that holds the largest
one, (h - 1)**2 + (w - 1)**2: int16 below 2**15 (every image up to
128 x 128), int32 below 2**31, int64 above, which leaves every value
unchanged.

The signed distance field of a mask V uses the opposite-class
convention: a pixel outside V gets +distance to the nearest pixel of V,
a pixel inside V gets -distance to the nearest pixel of the complement.
Because a pixel is never its own opposite, the magnitude is at least 1.
If the opposite class is empty (all-true or all-false mask), its
distance is defined as the image diagonal, so normalized values always
stay within [-1, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import pgm
from .errors import ConfigError, DimensionError, IntegrityError

_BLOCK_BYTES = 2**18  # the broadcast-min temporary of one block of rows


class BinaryMask:
    """An immutable 2-d boolean raster, stored as packed bits.

    ``bits`` is ``np.packbits`` of the raster in row-major order, one bit
    per pixel (read-only ``uint8``); the padding bits of its last byte
    are always zero.  ``a`` is derived from ``bits`` on each read, so a
    caller that needs the raster reads it once.  The algebra below
    (``count``, ``any``, ``all``, ``==``, ``hash``, ``mask_union``,
    ``mask_diff`` and ``iou``) runs on the bits without unpacking them.
    """

    __slots__ = ("bits", "shape")

    def __init__(self, values):
        arr = np.asarray(values, dtype=bool)
        if arr.ndim != 2:
            raise DimensionError(f"mask must be 2-d, got shape {arr.shape}")
        self._set(np.packbits(arr, axis=None), arr.shape)

    def _set(self, bits: np.ndarray, shape: tuple[int, int]) -> None:
        bits.flags.writeable = False
        self.bits = bits
        self.shape = shape

    @classmethod
    def _from_bits(cls, bits: np.ndarray, shape: tuple[int, int]) -> "BinaryMask":
        """A mask over packed ``bits`` whose padding is already zero; nothing is copied."""
        mask = object.__new__(cls)
        mask._set(bits, shape)
        return mask

    @classmethod
    def zeros(cls, h: int, w: int) -> "BinaryMask":
        return cls(np.zeros((h, w), dtype=bool))

    @classmethod
    def full(cls, h: int, w: int) -> "BinaryMask":
        return cls(np.ones((h, w), dtype=bool))

    @property
    def a(self) -> np.ndarray:
        """The raster as a fresh read-only bool array, unpacked on each read."""
        h, w = self.shape
        arr = np.unpackbits(self.bits, count=h * w).view(bool).reshape(h, w)
        arr.flags.writeable = False
        return arr

    def count(self) -> int:
        return _popcount(self.bits)

    def any(self) -> bool:
        return bool(self.bits.any())

    def all(self) -> bool:
        return self.count() == self.shape[0] * self.shape[1]

    def __eq__(self, other):
        return (isinstance(other, BinaryMask) and self.shape == other.shape
                and self.bits.tobytes() == other.bits.tobytes())

    def __hash__(self):
        return hash((self.shape, self.bits.tobytes()))

    def __repr__(self):
        return f"BinaryMask({self.shape[0]}x{self.shape[1]}, {self.count()} true)"


def _popcount(bits: np.ndarray) -> int:
    """Set bits in a packed ``uint8`` array."""
    return int.from_bytes(bits.tobytes(), "little").bit_count()


def _check_same_shape(a: BinaryMask, b: BinaryMask):
    if a.shape != b.shape:
        raise DimensionError(f"mask shapes {a.shape} and {b.shape} differ")


def mask_union(a: BinaryMask, b: BinaryMask) -> BinaryMask:
    _check_same_shape(a, b)
    return BinaryMask._from_bits(a.bits | b.bits, a.shape)


def mask_diff(a: BinaryMask, b: BinaryMask) -> BinaryMask:
    _check_same_shape(a, b)
    return BinaryMask._from_bits(a.bits & ~b.bits, a.shape)


def iou(a: BinaryMask, b: BinaryMask) -> float:
    """Intersection over union.  Both empty -> 1.0, exactly one empty -> 0.0."""
    _check_same_shape(a, b)
    union = _popcount(a.bits | b.bits)
    if union == 0:
        return 1.0
    return _popcount(a.bits & b.bits) / union


# -- exact Euclidean distance transform ----------------------------------


def _sum_dtype(h: int, w: int):
    """The narrowest integer type that holds every squared distance in an h x w image."""
    largest = (h - 1) ** 2 + (w - 1) ** 2
    if largest < 2**15:
        return np.int16
    return np.int32 if largest < 2**31 else np.int64


def _column_sq(window: np.ndarray, found: np.ndarray, h: int, dtype) -> np.ndarray:
    """Squared row distance to the nearest true pixel of each ``found`` column.

    Returns (columns, rows).  A true pixel at row t is coded t + h for
    the running maximum down the rows and 2h - t for the one up them; a
    pixel with no true pixel on a side keeps the code 0 there, which
    leaves that side at least h rows away, so the other side wins.
    """
    wh = window.shape[0]
    down = np.arange(h, h + wh, dtype=dtype)  # row + h
    up = np.arange(2 * h, 2 * h - wh, -1, dtype=dtype)  # 2h - row
    feature = window.T[found].astype(dtype)  # 1 at a true pixel
    above = feature * down
    below = feature * up
    np.maximum.accumulate(above, axis=1, out=above)
    np.maximum.accumulate(below[:, ::-1], axis=1, out=below[:, ::-1])  # up the rows
    np.subtract(down, above, out=above)
    np.subtract(up, below, out=below)
    colsq = np.minimum(above, below, out=above)
    colsq *= colsq
    return colsq


def _min_over_columns(colsq: np.ndarray, found: np.ndarray, ww: int) -> np.ndarray:
    """min over found columns x' of colsq[x', y] + (x - x')^2, as (width, rows)."""
    wh = colsq.shape[1]
    dx_sq = np.subtract.outer(found.astype(colsq.dtype), np.arange(ww, dtype=colsq.dtype))
    dx_sq *= dx_sq
    near = np.empty((ww, wh), dtype=colsq.dtype)
    step = max(1, _BLOCK_BYTES // (found.size * ww * colsq.itemsize))
    for y in range(0, wh, step):
        block = colsq[:, None, y : y + step] + dx_sq[:, :, None]
        # a 2-d minimum over the leading axis runs as whole-row passes
        near[:, y : y + step] = block.reshape(found.size, -1).min(axis=0).reshape(ww, -1)
    return near


def _min_within_reach(colsq: np.ndarray, found: np.ndarray, ww: int, reach: int,
                      fill: int) -> np.ndarray:
    """min over |k| <= reach of colsq[x + k, y] + k^2, as (rows, width).

    The columns are laid out side by side in rows of ww + 2 * reach, with
    ``reach`` columns before and after the window's.  Window columns with
    no true pixel, and the columns past its edges, hold ``fill``, which
    is no less than any answer, so they never lower it.  Read as one flat
    run, offset k of every pixel is the run shifted by reach + k, so each
    block of rows is one (offsets, run) add and one minimum; the last
    2 * reach places of each row fall past the window and are dropped.
    """
    wh, width = colsq.shape[1], ww + 2 * reach
    padded = np.full((wh, width), fill, dtype=colsq.dtype)
    padded[:, reach + found] = colsq.T
    k_sq = np.arange(-reach, reach + 1, dtype=colsq.dtype)[:, None] ** 2
    near = np.empty((wh, width), dtype=colsq.dtype)
    flat, item = near.reshape(-1), padded.itemsize
    step = max(1, _BLOCK_BYTES // ((2 * reach + 1) * width * item))
    for y in range(0, wh, step):
        start, run = y * width, min(step, wh - y) * width - 2 * reach
        # shifted[k, p] = padded.flat[start + p + k], a view
        shifted = np.ndarray((2 * reach + 1, run), padded.dtype, padded, start * item,
                             (item, item))
        np.min(shifted + k_sq, axis=0, out=flat[start : start + run])
    return near[:, :ww]


def edt_sq(mask: BinaryMask | np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distance to the nearest true pixel (int64).

    ``mask`` is a BinaryMask or a 2-d bool raster; a raster is read as it
    is, so a caller that holds one (as ``sdf`` does) unpacks nothing.

    Only a window can hold a nonzero answer: the bounding box of the
    false pixels, grown by one row and one column on each side that has
    one.  Every row and column outside the box is all true, so a nearest
    true pixel outside the window clamps onto the window's border, which
    is true there and no farther from any pixel inside; the answer in the
    window therefore needs only the window.

    Inside it, the window columns that hold a true pixel are gathered
    once, and two running maxima along their rows give colsq[x', y], the
    squared row distance to the nearest true pixel of column x'.  The
    answer is min over those x' of colsq[x', y] + (x - x')^2.  Every
    window column lies within ``gap`` columns of such an x', so no answer
    exceeds bound = max(colsq) + gap^2, and the nearest true pixel of
    every pixel is at most reach = isqrt(bound) columns away.  When the
    2 * reach + 1 columns around each pixel are fewer than the x', as in
    a mask of scattered pixels, the minimum runs over those offsets
    only; otherwise over every x', as a (columns, width, rows) broadcast.
    Either is taken a block of rows at a time, so the temporary holds at
    most _BLOCK_BYTES (one row when a row alone is more).

    Every term is an integer, so the minimum is exact and the same on
    both paths.  It is taken in the narrowest of int16, int32 and int64
    that holds the largest possible sum, (h - 1)^2 + (w - 1)^2: int16
    below 2^15, which covers every image up to 128 x 128, int32 below
    2^31, int64 above.  No code exceeds 2h and no sum, fill included,
    can wrap, so the result equals the int64 one.

    An empty mask has no feature to measure against; every pixel gets
    the squared image diagonal by convention.  An all-true mask is 0
    everywhere.
    """
    arr = mask.a if isinstance(mask, BinaryMask) else mask
    h, w = arr.shape
    rows = np.flatnonzero(~arr.all(axis=1))
    if rows.size == 0:
        return np.zeros((h, w), dtype=np.int64)
    cols = np.flatnonzero(~arr.all(axis=0))
    y0, y1 = max(rows[0] - 1, 0), min(rows[-1] + 2, h)
    x0, x1 = max(cols[0] - 1, 0), min(cols[-1] + 2, w)
    window = arr[y0:y1, x0:x1]
    found = np.flatnonzero(window.any(axis=0))  # window columns holding a true pixel
    if found.size == 0:  # the window holds a true pixel whenever the mask does
        return np.full((h, w), np.int64(h * h + w * w))
    ww = window.shape[1]
    colsq = _column_sq(window, found, h, _sum_dtype(h, w))
    gap = max(int(found[0]), ww - 1 - int(found[-1]))
    if found.size > 1:
        gap = max(gap, int((found[1:] - found[:-1]).max()) // 2)
    bound = int(colsq.max()) + gap * gap
    reach = math.isqrt(bound)
    out = np.zeros((h, w), dtype=np.int64)
    if 2 * reach + 1 < found.size:
        out[y0:y1, x0:x1] = _min_within_reach(colsq, found, ww, reach, bound)
    else:
        out[y0:y1, x0:x1] = _min_over_columns(colsq, found, ww).T
    return out


@dataclass(frozen=True)
class SdfField:
    """A signed distance field and its diagonal-normalized form."""

    values: np.ndarray
    diagonal: float
    normalized: np.ndarray = field(repr=False)


def sdf(mask: BinaryMask) -> SdfField:
    """Signed distance field of a mask (negative inside, positive outside).

    At every pixel one of the two transforms is 0 (the pixel is its own
    nearest pixel of its class), so one square root of their sum gives
    both magnitudes.
    """
    h, w = mask.shape
    diagonal = math.sqrt(h * h + w * w)
    arr = mask.a
    sq = edt_sq(arr)
    sq += edt_sq(~arr)
    values = np.sqrt(sq, dtype=np.float64)
    np.negative(values, out=values, where=arr)
    values.flags.writeable = False
    normalized = values / diagonal
    normalized.flags.writeable = False
    return SdfField(values=values, diagonal=diagonal, normalized=normalized)


def pool_to_grid(field: SdfField, grid_h: int, grid_w: int) -> np.ndarray:
    """Mean-pool the normalized field onto a grid; returns (grid_h*grid_w,).

    Cells are equal-size blocks, so the mean of the pooled vector equals
    the global mean of the normalized field.
    """
    h, w = field.values.shape
    if grid_h < 1 or grid_w < 1 or h % grid_h or w % grid_w:
        raise ConfigError(f"grid {grid_h}x{grid_w} does not divide field {h}x{w}")
    ch, cw = h // grid_h, w // grid_w
    pooled = field.normalized.reshape(grid_h, ch, grid_w, cw).mean(axis=(1, 3))
    return pooled.reshape(grid_h * grid_w)


# -- serialization --------------------------------------------------------


def write_mask(path, mask: BinaryMask) -> None:
    pgm.write_pgm(path, mask.a.view(np.uint8) * np.uint8(255))


def read_mask(path) -> BinaryMask:
    values = pgm.read_pgm(path)
    bad = (values != 0) & (values != 255)
    if bad.any():
        raise IntegrityError(f"{path}: mask PGM has levels other than 0 and 255")
    return BinaryMask(values == 255)
