"""Masks, IoU, exact distance transform, signed distance fields, rasters."""

import numpy as np
import pytest

from grasp import geometry
from grasp.errors import ConfigError, DatasetIOError, DimensionError, IntegrityError
from grasp.geometry import (
    BinaryMask,
    edt_sq,
    iou,
    mask_diff,
    mask_union,
    pool_to_grid,
    read_mask,
    sdf,
    write_mask,
)
from grasp.pgm import read_pgm, write_pgm


def brute_edt_sq(arr):
    """O(pixels * features) reference distance transform, one row at a time.

    Going row by row keeps the temporary at (w, features), so dense masks
    of scene size stay cheap to check.
    """
    h, w = arr.shape
    ys, xs = np.nonzero(arr)
    if ys.size == 0:
        return np.full((h, w), h * h + w * w, dtype=np.int64)
    xx = np.arange(w)[:, None]
    rows = [((y - ys) ** 2 + (xx - xs) ** 2).min(axis=1) for y in range(h)]
    return np.array(rows, dtype=np.int64)


# -- masks and IoU --------------------------------------------------------


def test_mask_is_immutable_and_copies_input():
    src = np.zeros((2, 2), dtype=bool)
    m = BinaryMask(src)
    src[0, 0] = True
    assert m.count() == 0
    with pytest.raises(ValueError):
        m.a[0, 0] = True


def test_mask_requires_2d():
    with pytest.raises(DimensionError):
        BinaryMask(np.zeros(4, dtype=bool))


def test_mask_equality_and_hash():
    a = BinaryMask(np.eye(3, dtype=bool))
    b = BinaryMask(np.eye(3, dtype=bool))
    c = BinaryMask(np.zeros((3, 3), dtype=bool))
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != np.eye(3, dtype=bool)


def test_mask_set_operations():
    a = BinaryMask([[1, 1], [0, 0]])
    b = BinaryMask([[1, 0], [1, 0]])
    assert mask_union(a, b).a.tolist() == [[True, True], [True, False]]
    assert mask_diff(a, b).a.tolist() == [[False, True], [False, False]]


def test_mask_ops_reject_shape_mismatch():
    a, b = BinaryMask.zeros(2, 2), BinaryMask.zeros(2, 3)
    for op in (mask_union, mask_diff, iou):
        with pytest.raises(DimensionError):
            op(a, b)


def test_iou_conventions():
    e = BinaryMask.zeros(3, 3)
    f = BinaryMask.full(3, 3)
    assert iou(e, e) == 1.0  # both empty
    assert iou(e, f) == 0.0  # exactly one empty
    assert iou(f, e) == 0.0
    assert iou(f, f) == 1.0


def test_iou_hand_value():
    a = BinaryMask([[1, 1], [0, 0]])
    b = BinaryMask([[1, 0], [1, 0]])
    assert iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert iou(a, b) == iou(b, a)


def test_iou_shrinks_when_overlap_is_removed():
    rng = np.random.default_rng(0)
    for _ in range(20):
        arr = rng.random((8, 8)) < 0.4
        a = BinaryMask(arr)
        inter = arr & (rng.random((8, 8)) < 0.5)
        if not inter.any() or inter.all() == arr.all() and (inter == arr).all():
            continue
        assert iou(a, BinaryMask(inter)) <= 1.0


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (7, 9), (8, 8)])
def test_packed_mask_round_trips_and_ignores_its_padding(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for arr in (rng.random(shape) < 0.5, np.zeros(shape, bool), np.ones(shape, bool)):
        m = BinaryMask(arr)
        assert m.bits.dtype == np.uint8 and m.bits.size == -(-arr.size // 8)
        assert m.a.dtype == bool and np.array_equal(m.a, arr) and m.shape == shape
        assert m.count() == int(arr.sum())
        assert m.any() == bool(arr.any()) and m.all() == bool(arr.all())
        # the padding bits of the last byte stay zero, so a complement set
        # through the algebra still compares and hashes as a fresh mask
        full = BinaryMask.full(*shape)
        assert mask_union(m, full) == full and hash(mask_union(m, full)) == hash(full)
        assert mask_diff(full, m) == BinaryMask(~arr)
        assert hash(mask_diff(full, m)) == hash(BinaryMask(~arr))
        assert mask_diff(full, m).count() == arr.size - int(arr.sum())


def test_packed_mask_algebra_equals_the_bool_array_formulas():
    rng = np.random.default_rng(7)
    for _ in range(200):
        shape = tuple(int(n) for n in rng.integers(1, 20, size=2))
        x = rng.random(shape) < rng.random()
        y = rng.random(shape) < rng.random()
        a, b = BinaryMask(x), BinaryMask(y)
        union, inter = int((x | y).sum()), int((x & y).sum())
        assert iou(a, b) == (inter / union if union else 1.0)
        assert np.array_equal(mask_union(a, b).a, x | y)
        assert np.array_equal(mask_diff(a, b).a, x & ~y)
        assert a.count() == int(x.sum())
        assert (a == b) == np.array_equal(x, y)


def test_mask_raster_is_read_only_and_fresh_on_each_read():
    m = BinaryMask(np.eye(3, dtype=bool))
    first, second = m.a, m.a
    assert first is not second and not np.shares_memory(first, second)
    assert not first.flags.writeable and not m.bits.flags.writeable
    with pytest.raises(ValueError):
        m.bits[0] = 0


# -- exact distance transform ---------------------------------------------


def test_edt_matches_brute_force_on_random_masks():
    rng = np.random.default_rng(1)
    for seed in range(60):
        h = int(rng.integers(1, 24))
        w = int(rng.integers(1, 24))
        density = float(rng.uniform(0.02, 0.9))
        arr = rng.random((h, w)) < density
        got = edt_sq(BinaryMask(arr))
        want = brute_edt_sq(arr)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), f"seed {seed} shape {h}x{w}"
    # Shapes that span several row blocks of the broadcast minimum: the
    # default 64x64, partial last blocks (70x64, 64x40, 37x129), and a row
    # wider than one block's budget (5x300).  Each sparse mask is checked
    # together with its dense complement.
    for h, w in ((64, 64), (70, 64), (64, 40), (37, 129), (5, 300)):
        arr = rng.random((h, w)) < 0.01
        arr[int(rng.integers(h)), int(rng.integers(w))] = True
        for case in (arr, ~arr):
            got = edt_sq(BinaryMask(case))
            assert got.dtype == np.int64
            assert np.array_equal(got, brute_edt_sq(case)), f"shape {h}x{w}"


def test_edt_matches_brute_force_on_structured_masks():
    cases = []
    a = np.zeros((9, 13), dtype=bool)
    a[0, 0] = True
    cases.append(a)  # single far corner
    b = np.zeros((7, 7), dtype=bool)
    b[3, :] = True
    cases.append(b)  # full row
    c = np.zeros((11, 5), dtype=bool)
    c[:, 2] = True
    cases.append(c)  # full column
    d = np.zeros((8, 8), dtype=bool)
    d[::4, ::4] = True
    cases.append(d)  # sparse lattice
    e = np.ones((6, 6), dtype=bool)
    cases.append(e)  # everything true
    f = np.zeros((1, 17), dtype=bool)
    f[0, 16] = True
    cases.append(f)  # single row strip
    g = np.zeros((17, 1), dtype=bool)
    g[9, 0] = True
    cases.append(g)  # single column strip
    for i, arr in enumerate(cases):
        assert np.array_equal(edt_sq(BinaryMask(arr)), brute_edt_sq(arr)), f"case {i}"


def _window_cases():
    """Masks that put the false-pixel bounding box in every position."""
    h, w = 9, 11
    # a false box touching each edge and each corner, or none of them
    for y0, y1 in ((0, 3), (3, 6), (6, 9), (0, 9)):
        for x0, x1 in ((0, 4), (4, 7), (7, 11), (0, 11)):
            arr = np.ones((h, w), dtype=bool)
            arr[y0:y1, x0:x1] = False
            arr[(y0 + y1) // 2, (x0 + x1) // 2] = True  # a true pixel inside the box
            yield f"box {y0}:{y1}x{x0}:{x1}", arr
            hollow = arr.copy()
            hollow[y0:y1, x0:x1] = True
            hollow[y0, x0] = hollow[y1 - 1, x1 - 1] = False  # the box is only its corners
            yield f"corners {y0}:{y1}x{x0}:{x1}", hollow
    for y in range(h):
        for x in range(w):
            one = np.zeros((h, w), dtype=bool)
            one[y, x] = True
            yield f"true pixel {y},{x}", one
            yield f"false pixel {y},{x}", ~one
    # all-true rows and columns crossing the box
    rng = np.random.default_rng(8)
    for k in range(20):
        arr = rng.random((h, w)) < 0.3
        arr[int(rng.integers(h)), :] = True
        arr[:, int(rng.integers(w))] = True
        yield f"crossed {k}", arr
    for n in (1, 2, 5, 40):
        for k in range(n):
            strip = np.zeros(n, dtype=bool)
            strip[k] = True
            for case in (strip, ~strip, strip | (np.arange(n) % 3 == 0)):
                yield f"1x{n} {k}", case[None, :]
                yield f"{n}x1 {k}", case[:, None]


def test_edt_window_matches_brute_force_wherever_the_false_box_lies():
    for label, arr in _window_cases():
        if not arr.any():
            continue
        got = edt_sq(BinaryMask(arr))
        assert got.dtype == np.int64
        assert np.array_equal(got, brute_edt_sq(arr)), label


def test_edt_matches_brute_force_on_discs_on_and_off_the_image():
    yy, xx = np.mgrid[:64, :64]
    centres = ((32, 32), (0, 0), (63, 20), (-12, 30), (40, 75), (80, -8))
    for r in range(1, 41):
        for cy, cx in centres:
            disc = (yy - cy) ** 2 + (xx - cx) ** 2 < r * r
            for case in (disc, ~disc):
                if case.any():
                    assert np.array_equal(edt_sq(BinaryMask(case)), brute_edt_sq(case)), (
                        f"radius {r} centre {cy},{cx}"
                    )


def test_edt_is_exact_on_both_sides_of_the_int32_limit():
    # The broadcast minimum runs in int32 only while (h - 1)^2 + (w - 1)^2
    # stays below 2^31.  A 46341x1 column is the tallest that qualifies;
    # at 46342x1 the largest distance (h - 1)^2 no longer fits in int32.
    for h in (46340, 46342):
        arr = np.zeros((h, 1), dtype=bool)
        arr[0, 0] = True
        for case in (arr, arr[::-1]):
            got = edt_sq(BinaryMask(case))
            assert got.dtype == np.int64
            assert np.array_equal(got, brute_edt_sq(case)), f"{h}x1"
            assert int(got.max()) == (h - 1) ** 2
    assert (46342 - 1) ** 2 > np.iinfo(np.int32).max


def test_edt_is_exact_on_both_sides_of_the_int16_limit():
    # The minimum runs in int16 only while (h - 1)^2 + (w - 1)^2 stays
    # below 2^15: 182x1 and 128x128 qualify, 183x1 and 129x129 do not.
    # A single true pixel in a corner reaches the largest distance.
    for h, w in ((182, 1), (183, 1), (128, 128), (129, 129)):
        arr = np.zeros((h, w), dtype=bool)
        arr[0, 0] = True
        rng = np.random.default_rng(h)
        scattered = rng.random((h, w)) < 0.05
        scattered[-1, -1] = True
        for case in (arr, arr[::-1, ::-1], scattered, ~scattered):
            got = edt_sq(BinaryMask(case))
            assert got.dtype == np.int64
            assert np.array_equal(got, brute_edt_sq(case)), f"{h}x{w}"
        assert int(edt_sq(BinaryMask(arr)).max()) == (h - 1) ** 2 + (w - 1) ** 2
    assert 181**2 < 2**15 <= 182**2 and 2 * 127**2 < 2**15 <= 2 * 128**2


def test_edt_takes_both_minimum_paths_and_each_is_exact(monkeypatch):
    # Scattered pixels keep every answer small, so the minimum runs over
    # the few columns within reach; a compact blob needs every column.  Two
    # full rows reach 31 columns, so that minimum spans several row blocks.
    calls = {"_min_within_reach": 0, "_min_over_columns": 0}
    for name in calls:
        original = getattr(geometry, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(geometry, name, counted)
    rng = np.random.default_rng(6)
    yy, xx = np.mgrid[:64, :64]
    cases = [(yy % 3 == 0) & (xx % 3 == 0), (yy % 8 == 1) & (xx % 5 == 2),
             (yy - 30) ** 2 + (xx - 20) ** 2 < 100, (yy == 31) | (yy == 32)]
    cases += [rng.random((h, w)) < p for h, w, p in ((64, 64, 0.1), (40, 70, 0.3), (9, 200, 0.2))]
    for i, arr in enumerate(cases):
        for case in (arr, ~arr):
            assert np.array_equal(edt_sq(case), brute_edt_sq(case)), f"case {i}"
    assert calls["_min_within_reach"] > 0 and calls["_min_over_columns"] > 0, calls


def test_edt_reads_a_bool_raster_as_its_mask():
    rng = np.random.default_rng(4)
    for _ in range(10):
        arr = rng.random((9, 13)) < 0.3
        assert np.array_equal(edt_sq(arr), edt_sq(BinaryMask(arr)))


def test_edt_empty_mask_uses_squared_diagonal():
    out = edt_sq(BinaryMask.zeros(3, 4))
    assert np.all(out == 25)


# -- signed distance fields -------------------------------------------------


def test_sdf_hand_values_single_center_pixel():
    arr = np.zeros((3, 3), dtype=bool)
    arr[1, 1] = True
    field = sdf(BinaryMask(arr))
    assert field.values[1, 1] == -1.0  # inside, adjacent to background
    assert field.values[0, 1] == 1.0  # one step outside
    assert field.values[1, 0] == 1.0
    assert field.values[0, 0] == pytest.approx(np.sqrt(2.0), abs=0)
    assert field.diagonal == pytest.approx(np.sqrt(18.0), abs=0)


def test_sdf_is_bit_equal_to_the_two_root_form():
    def two_root(arr):
        inside = np.sqrt(edt_sq(BinaryMask(~arr)).astype(np.float64))
        outside = np.sqrt(edt_sq(BinaryMask(arr)).astype(np.float64))
        return np.where(arr, -inside, outside)

    rng = np.random.default_rng(9)
    cases = [arr for _, arr in _window_cases()]
    cases += [rng.random((16, 16)) < p for p in (0.0, 0.05, 0.5, 0.95, 1.0)]
    for i, arr in enumerate(cases):
        values = sdf(BinaryMask(arr)).values
        want = two_root(arr)
        assert values.dtype == want.dtype and values.tobytes() == want.tobytes(), f"case {i}"
        assert np.array_equal(np.signbit(values), np.signbit(want)), f"case {i}"


def test_sdf_sign_convention_and_min_magnitude():
    rng = np.random.default_rng(3)
    for seed in range(30):
        arr = rng.random((9, 11)) < 0.35
        if not arr.any() or arr.all():
            continue
        field = sdf(BinaryMask(arr))
        assert np.all(field.values[arr] < 0)
        assert np.all(field.values[~arr] > 0)
        # opposite-class distances are at least one pixel
        assert np.min(np.abs(field.values)) >= 1.0


def test_sdf_is_antisymmetric_under_complement():
    rng = np.random.default_rng(4)
    for _ in range(20):
        arr = rng.random((8, 10)) < 0.5
        if not arr.any() or arr.all():
            continue
        f = sdf(BinaryMask(arr))
        g = sdf(BinaryMask(~arr))
        assert np.array_equal(g.values, -f.values)
        assert np.array_equal(g.normalized, -f.normalized)


def test_sdf_degenerate_masks_hit_normalized_extremes():
    empty = sdf(BinaryMask.zeros(5, 7))
    assert np.all(empty.normalized == 1.0)
    full = sdf(BinaryMask.full(5, 7))
    assert np.all(full.normalized == -1.0)


def test_sdf_normalized_is_bounded():
    rng = np.random.default_rng(5)
    for _ in range(20):
        arr = rng.random((6, 14)) < rng.uniform(0.05, 0.95)
        field = sdf(BinaryMask(arr))
        assert np.all(field.normalized >= -1.0)
        assert np.all(field.normalized <= 1.0)
        assert np.array_equal(field.normalized, field.values / field.diagonal)


def test_sdf_arrays_are_read_only():
    field = sdf(BinaryMask.full(2, 2))
    with pytest.raises(ValueError):
        field.values[0, 0] = 0.0
    with pytest.raises(ValueError):
        field.normalized[0, 0] = 0.0


# -- pooling ----------------------------------------------------------------


def test_pooling_preserves_global_mean():
    rng = np.random.default_rng(6)
    for _ in range(10):
        arr = rng.random((16, 16)) < 0.4
        field = sdf(BinaryMask(arr))
        pooled = pool_to_grid(field, 4, 4)
        assert pooled.shape == (16,)
        assert pooled.mean() == pytest.approx(field.normalized.mean(), abs=1e-13)


def test_pooling_at_full_resolution_is_identity():
    arr = np.zeros((4, 6), dtype=bool)
    arr[1:3, 2:5] = True
    field = sdf(BinaryMask(arr))
    assert np.array_equal(pool_to_grid(field, 4, 6), field.normalized.reshape(-1))


def test_pooling_blocks_are_block_means():
    arr = np.zeros((4, 4), dtype=bool)
    arr[:2, :2] = True
    field = sdf(BinaryMask(arr))
    pooled = pool_to_grid(field, 2, 2)
    assert pooled[0] == pytest.approx(field.normalized[:2, :2].mean(), abs=0)
    assert pooled[3] == pytest.approx(field.normalized[2:, 2:].mean(), abs=0)


def test_pooling_rejects_non_divisible_grid():
    field = sdf(BinaryMask.full(6, 6))
    with pytest.raises(ConfigError):
        pool_to_grid(field, 4, 3)
    with pytest.raises(ConfigError):
        pool_to_grid(field, 0, 3)


# -- PGM serialization -------------------------------------------------------


def test_pgm_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    for i in range(5):
        values = rng.integers(0, 256, size=(int(rng.integers(1, 20)), int(rng.integers(1, 20))),
                              dtype=np.uint8)
        p = tmp_path / f"img{i}.pgm"
        write_pgm(p, values)
        assert np.array_equal(read_pgm(p), values)


def test_pgm_reader_accepts_header_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n\x07\xff")
    assert read_pgm(p).tolist() == [[7, 255]]


def test_pgm_reader_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(DatasetIOError):
        read_pgm(p)


def test_pgm_reader_rejects_wrong_maxval(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(DatasetIOError):
        read_pgm(p)


def test_pgm_reader_rejects_truncated_payload(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n3 2\n255\n\x00\x01")
    with pytest.raises(DatasetIOError) as err:
        read_pgm(p)
    assert "truncated" in str(err.value)


def test_pgm_reader_rejects_truncated_header(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P5\n3")
    with pytest.raises(DatasetIOError):
        read_pgm(p)


def test_pgm_writer_rejects_wrong_dtype(tmp_path):
    with pytest.raises(DatasetIOError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2), dtype=np.float64))
    with pytest.raises(DatasetIOError):
        write_pgm(tmp_path / "x.pgm", np.zeros(4, dtype=np.uint8))


def test_mask_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    m = BinaryMask(rng.random((9, 5)) < 0.5)
    p = tmp_path / "m.pgm"
    write_mask(p, m)
    assert read_mask(p) == m


def test_read_mask_rejects_intermediate_levels(tmp_path):
    p = tmp_path / "m.pgm"
    write_pgm(p, np.array([[0, 128], [255, 0]], dtype=np.uint8))
    with pytest.raises(IntegrityError):
        read_mask(p)
