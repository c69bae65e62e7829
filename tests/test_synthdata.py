"""Scene generator invariants, mask perturbation, dataset round trips."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from grasp.errors import ConfigError, DatasetIOError, DimensionError, IntegrityError
from grasp.geometry import BinaryMask, iou, mask_diff, mask_union
from grasp.synthdata import (
    MAX_SCENE_SIZE,
    OCC_BINS,
    SHAPE_CLASSES,
    SceneConfig,
    SceneInstance,
    _dilate,
    _disc_offsets,
    _erode,
    _translate,
    generate_dataset,
    generate_scene,
    make_instance,
    perturb_vm,
    read_dataset,
    training_vm,
    write_dataset,
)


# -- scene invariants -------------------------------------------------------


def test_scene_masks_satisfy_visibility_algebra():
    for seed in range(40):
        for inst in generate_scene(seed):
            assert not (inst.visible.a & ~inst.amodal.a).any(), "visible leaks past amodal"
            assert mask_union(inst.visible, inst.occluded) == inst.amodal
            assert not (inst.visible.a & inst.occluded.a).any()
            assert inst.amodal.any()
            assert inst.occ_ratio == inst.occluded.count() / inst.amodal.count()
            assert inst.shape_class in SHAPE_CLASSES


def test_scene_images_are_quantized_and_read_only():
    for inst in generate_scene(123):
        img = inst.image
        assert img.dtype == np.float64
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert np.array_equal(img, np.rint(img * 255.0) / 255.0), "not on the 1/255 lattice"
        assert not img.flags.writeable
        break  # all instances share the scene image


def test_scene_instances_share_one_image():
    insts = generate_scene(7)
    assert len(insts) >= 2
    for inst in insts[1:]:
        assert inst.pixels is insts[0].pixels


def test_image_is_derived_from_the_read_only_pixels():
    assert "image" not in {f.name for f in dataclasses.fields(SceneInstance)}
    inst = generate_scene(5)[0]
    assert inst.pixels.dtype == np.uint8 and not inst.pixels.flags.writeable
    img = inst.image
    assert img.dtype == np.float64 and not img.flags.writeable
    assert img.tobytes() == (inst.pixels / 255.0).tobytes()
    assert inst.image is not img  # computed anew, not cached


def test_generated_instances_keep_under_4_kib_each():
    # two 64x64 masks are 1 KiB as packed bits and would be 8 KiB as bool
    # rasters; a float64 image per scene would add ~10 KiB more
    generate_scene(0)  # the first scene imports modules numpy loads lazily
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        insts = generate_dataset(128, 0)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept / len(insts) < 4 * 1024, kept / len(insts)


def test_scene_object_count_respects_config():
    cfg = SceneConfig(min_objects=3, max_objects=3)
    for seed in range(10):
        assert len(generate_scene(seed, cfg)) == 3


def test_scene_generation_is_deterministic():
    a = generate_scene(11)
    b = generate_scene(11)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.image, y.image)
        assert x.visible == y.visible
        assert x.amodal == y.amodal
        assert x.shape_class == y.shape_class


def test_scenes_differ_across_seeds():
    a = generate_scene(0)
    b = generate_scene(1)
    assert not np.array_equal(a[0].image, b[0].image)


def test_nearer_objects_are_painted_brighter():
    # an occluder hides part of another object; the occluder's visible pixels
    # must be brighter (before noise), so compare medians which are robust
    for seed in range(30):
        insts = generate_scene(seed)
        for inst in insts:
            if not inst.occluded.any() or inst.occ_ratio > 0.9:
                continue
            own = np.median(inst.image[inst.visible.a])
            hidden = inst.occluded.a
            cover = np.median(inst.image[hidden])
            assert cover > own - 0.08, f"seed {seed}: occluder not brighter"


def test_make_instance_rejects_visible_outside_amodal():
    img = np.zeros((4, 4))
    amodal = BinaryMask(np.eye(4, dtype=bool))
    bad = BinaryMask(~np.eye(4, dtype=bool))
    with pytest.raises(IntegrityError):
        make_instance(img, bad, amodal, "rectangle", 0)


def test_make_instance_rejects_empty_amodal():
    img = np.zeros((4, 4))
    empty = BinaryMask.zeros(4, 4)
    with pytest.raises(IntegrityError):
        make_instance(img, empty, empty, "rectangle", 0)


def _image_with(value, dtype=np.float64):
    img = np.zeros((4, 4), dtype=dtype)
    img[1, 2] = value
    return img


@pytest.mark.parametrize("image,match", [
    (_image_with(0.5), "lattice"), (_image_with(-1.0 / 255.0), r"\[0, 1\]"),
    (_image_with(256.0 / 255.0), r"\[0, 1\]"), (_image_with(math.nan), r"\[0, 1\]"),
    (_image_with(math.inf), r"\[0, 1\]"), (_image_with(3, np.int64), "dtype"),
], ids=["off-lattice", "below-0", "above-1", "nan", "inf", "int64"])
def test_make_instance_rejects_off_lattice_and_out_of_range_images(image, match):
    amodal = BinaryMask(np.eye(4, dtype=bool))
    with pytest.raises(IntegrityError, match=match):
        make_instance(image, amodal, amodal, "rectangle", 0)


def test_make_instance_takes_pixels_as_they_are_and_quantizes_a_lattice_image():
    amodal = BinaryMask(np.eye(4, dtype=bool))
    pixels = np.arange(16, dtype=np.uint8).reshape(4, 4) * 17
    inst = make_instance(pixels, amodal, amodal, "rectangle", 0)
    assert np.shares_memory(inst.pixels, pixels) and not inst.pixels.flags.writeable
    assert pixels.flags.writeable  # the caller's array is left as it was
    again = make_instance(pixels / 255.0, amodal, amodal, "rectangle", 0)
    assert again.pixels.dtype == np.uint8 and np.array_equal(again.pixels, pixels)


# -- dataset-level statistics ------------------------------------------------


def test_negative_seeds_are_config_errors():
    with pytest.raises(ConfigError, match="seed"):
        generate_scene(-1)
    with pytest.raises(ConfigError, match="seed"):
        generate_dataset(4, -3)


def test_generate_dataset_count_and_truncation():
    insts = generate_dataset(17, 5)
    assert len(insts) == 17
    seeds = [i.seed for i in insts]
    assert seeds[0] == 5 and all(b - a in (0, 1) for a, b in zip(seeds, seeds[1:]))
    assert len(generate_dataset(1, 0)) == 1
    with pytest.raises(ConfigError):
        generate_dataset(0, 0)


def test_generate_dataset_prefix_property():
    a = generate_dataset(10, 0)
    b = generate_dataset(25, 0)
    for x, y in zip(a, b):
        assert x.visible == y.visible and x.amodal == y.amodal


def test_occlusion_bins_are_all_populated():
    insts = generate_dataset(300, 0)
    occluded = [i for i in insts if i.occluded.any()]
    assert len(occluded) / len(insts) >= 0.4, "too few occluded instances"
    # half-open bins with a closed last one, as np.histogram counts them
    edges = [lo for lo, _ in OCC_BINS] + [OCC_BINS[-1][1]]
    counts, _ = np.histogram([i.occ_ratio for i in occluded], bins=edges)
    assert counts.sum() == len(occluded)
    for (lo, hi), n in zip(OCC_BINS, counts):
        assert n / len(occluded) >= 0.05, f"bin [{lo},{hi}) underpopulated: {n}"


def test_scene_config_validation():
    with pytest.raises(ConfigError):
        SceneConfig(min_objects=0)
    with pytest.raises(ConfigError):
        SceneConfig(min_objects=3, max_objects=2)
    with pytest.raises(ConfigError):
        SceneConfig(size=8)
    with pytest.raises(ConfigError):
        SceneConfig(shapes=())
    with pytest.raises(ConfigError):
        SceneConfig(shapes=("rectangle", "hexagon"))


@pytest.mark.parametrize("field", ["background", "noise_sigma", "overlap_bias"])
@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf])
def test_scene_config_rejects_non_finite_and_out_of_range_floats(field, value):
    with pytest.raises(ConfigError) as err:
        SceneConfig.from_dict({field: value})
    assert field in str(err.value)


def test_scene_config_accepts_range_edges():
    SceneConfig(background=0.0, noise_sigma=0.0, overlap_bias=0.0)
    SceneConfig(background=1.0, overlap_bias=1.0)


def test_scene_size_has_a_ceiling():
    assert SceneConfig(size=MAX_SCENE_SIZE).size == MAX_SCENE_SIZE  # constructs; nothing rendered
    with pytest.raises(ConfigError, match="ceiling"):
        SceneConfig(size=MAX_SCENE_SIZE + 1)


def test_occluded_mask_is_derived_not_stored():
    assert "occluded" not in {f.name for f in dataclasses.fields(SceneInstance)}
    inst = next(i for i in generate_scene(3) if i.occluded.any())
    assert inst.occluded == mask_diff(inst.amodal, inst.visible)


def test_scene_config_dict_round_trip():
    cfg = SceneConfig(size=32, shapes=("ellipse", "triangle"))
    assert SceneConfig.from_dict(cfg.to_dict()) == cfg


def test_scene_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError) as err:
        SceneConfig.from_dict({"size": 32, "n_objects": 3})
    assert "n_objects" in str(err.value)
    with pytest.raises(ConfigError):
        SceneConfig.from_dict("size=32")


# -- visible-mask perturbation -----------------------------------------------


def _blob(size=24):
    arr = np.zeros((size, size), dtype=bool)
    arr[9:15, 9:15] = True
    return BinaryMask(arr)


def test_perturb_is_deterministic():
    m = _blob()
    for seed in (0, 1, 99):
        assert perturb_vm(m, seed) == perturb_vm(m, seed)


def test_perturb_never_empties_a_nonempty_mask():
    arr = np.zeros((16, 16), dtype=bool)
    arr[2, 3] = True  # single pixel, worst case for erosion and shifts
    m = BinaryMask(arr)
    for seed in range(300):
        assert perturb_vm(m, seed).any(), f"seed {seed} emptied the mask"


def test_perturb_keeps_empty_masks_empty():
    m = BinaryMask.zeros(12, 12)
    for seed in range(50):
        assert not perturb_vm(m, seed).any()


def test_perturb_identity_draw():
    # seed 95 draws the identity: zero shift, no morphology
    m = _blob()
    assert perturb_vm(m, 95) == m


def test_perturb_pure_translation_draw():
    # seed 2 draws shift (dy=2, dx=-1) with no morphology
    m = _blob()
    out = perturb_vm(m, 2)
    want = np.zeros((24, 24), dtype=bool)
    want[11:17, 8:14] = True
    assert np.array_equal(out.a, want)
    assert out.count() == m.count()


def test_perturb_pure_dilation_draw():
    # seed 1317 draws zero shift + dilation with radius 1 (a plus element)
    arr = np.zeros((9, 9), dtype=bool)
    arr[4, 4] = True
    out = perturb_vm(BinaryMask(arr), 1317)
    want = np.zeros((9, 9), dtype=bool)
    want[4, 3:6] = True
    want[3:6, 4] = True
    assert np.array_equal(out.a, want)


def test_perturb_pure_erosion_draw():
    # seed 135 draws zero shift + erosion with radius 1
    arr = np.zeros((9, 9), dtype=bool)
    arr[3:6, 3:6] = True
    out = perturb_vm(BinaryMask(arr), 135)
    want = np.zeros((9, 9), dtype=bool)
    want[4, 4] = True
    assert np.array_equal(out.a, want)


def _morph_per_offset(arr, radius, dilate):
    """The reference morphology: one zero-filled translated copy per disc offset."""
    out = np.zeros_like(arr) if dilate else np.ones_like(arr)
    for dy, dx in _disc_offsets(radius):
        if dilate:
            out |= _translate(arr, dy, dx)
        else:
            out &= _translate(arr, dy, dx)
    return out


def test_morphology_equals_the_per_offset_reference():
    rng = np.random.default_rng(7)
    masks = [inst.visible.a for inst in generate_dataset(24, 3)]
    masks += [rng.random((13, 17)) < p for p in (0.1, 0.5, 0.9)]
    full = np.ones((10, 12), dtype=bool)
    edges = np.zeros((10, 12), dtype=bool)
    edges[0, :] = edges[:, -1] = edges[4, 0] = True  # on the border, and a lone border pixel
    corner = np.zeros((10, 12), dtype=bool)
    corner[-3:, -3:] = True
    masks += [full, edges, corner, np.zeros((5, 5), dtype=bool), np.ones((4, 6), dtype=bool)]
    for i, arr in enumerate(masks):
        for radius in (1, 2, 3):
            got_d, got_e = _dilate(arr, radius), _erode(arr, radius)
            assert got_d.dtype == got_e.dtype == arr.dtype
            assert np.array_equal(got_d, _morph_per_offset(arr, radius, True)), (i, radius)
            assert np.array_equal(got_e, _morph_per_offset(arr, radius, False)), (i, radius)


def test_perturb_severity_band():
    # frozen regression band for the measured mean degradation
    insts = generate_dataset(300, 0)
    vals = [
        iou(inst.visible, perturb_vm(inst.visible, 1000 + i))
        for i, inst in enumerate(insts)
        if inst.visible.any()
    ]
    mean = float(np.mean(vals))
    assert 0.45 <= mean <= 0.75, f"perturbation severity drifted: mean IoU {mean:.3f}"


def test_training_vm_extreme_probabilities():
    m = _blob()
    assert all(training_vm(m, s, clean_prob=1.0) == m for s in range(40))
    dirty = [training_vm(m, s, clean_prob=0.0) for s in range(40)]
    assert any(d != m for d in dirty)


def test_training_vm_coin_fraction():
    m = _blob()
    clean = sum(training_vm(m, s, clean_prob=0.5) == m for s in range(2000))
    assert 0.45 <= clean / 2000 <= 0.56, f"coin fraction off: {clean / 2000}"


def test_training_vm_perturbation_inert_to_the_coin():
    # the perturbation seed is drawn before the keep-clean coin, so the
    # perturbed variant for a seed does not depend on clean_prob
    m = _blob()
    for s in range(30):
        assert training_vm(m, s, clean_prob=0.0) == training_vm(m, s, clean_prob=1e-12)


def test_training_vm_is_deterministic():
    m = _blob()
    for s in (3, 17):
        assert training_vm(m, s) == training_vm(m, s)


# -- dataset round trip --------------------------------------------------------


def test_dataset_round_trip_is_bit_exact(tmp_path):
    insts = generate_dataset(12, 3)
    manifest = write_dataset(tmp_path, insts, base_seed=3, split="test")
    assert manifest.count == 12 and manifest.split == "test"
    back_manifest, back = read_dataset(tmp_path)
    assert back_manifest.count == 12
    assert back_manifest.split == "test"
    assert back_manifest.base_seed == 3
    assert len(back) == 12
    for a, b in zip(insts, back):
        assert b.pixels.dtype == np.uint8 and not b.pixels.flags.writeable
        assert np.array_equal(a.pixels, b.pixels), "pixels changed"
        assert np.array_equal(a.image, b.image), "image bits changed"
        assert a.visible == b.visible
        assert a.amodal == b.amodal
        assert a.occluded == b.occluded
        assert a.occ_ratio == b.occ_ratio
        assert a.shape_class == b.shape_class
        assert a.seed == b.seed


def test_write_dataset_rejects_bad_inputs(tmp_path):
    insts = generate_dataset(2, 0)
    with pytest.raises(ConfigError):
        write_dataset(tmp_path, insts, base_seed=0, split="validation")
    with pytest.raises(ConfigError):
        write_dataset(tmp_path, [], base_seed=0)


def test_read_dataset_missing_manifest(tmp_path):
    with pytest.raises(DatasetIOError) as err:
        read_dataset(tmp_path)
    assert "manifest" in str(err.value)


def test_read_dataset_malformed_manifest(tmp_path):
    (tmp_path / "manifest.json").write_text("{not json")
    with pytest.raises(DatasetIOError):
        read_dataset(tmp_path)


def test_read_dataset_unknown_format(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"format": "other-v9"}))
    with pytest.raises(DatasetIOError):
        read_dataset(tmp_path)


def _tamper(tmp_path, mutate):
    insts = generate_dataset(3, 1)
    write_dataset(tmp_path, insts, base_seed=1)
    p = tmp_path / "manifest.json"
    raw = json.loads(p.read_text())
    mutate(raw)
    p.write_text(json.dumps(raw))


def test_read_dataset_detects_occ_ratio_tampering(tmp_path):
    def mutate(raw):
        raw["instances"][0]["occ_ratio"] += 0.125

    _tamper(tmp_path, mutate)
    with pytest.raises(IntegrityError):
        read_dataset(tmp_path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_read_dataset_rejects_a_non_finite_occ_ratio(tmp_path, value):
    def mutate(raw):
        raw["instances"][1]["occ_ratio"] = value

    _tamper(tmp_path, mutate)
    with pytest.raises(IntegrityError) as err:
        read_dataset(tmp_path)
    assert "occ_ratio" in str(err.value)


@pytest.mark.parametrize("key,value", [("seed", None), ("image", None), ("occ_ratio", None),
                                       ("image", 5), ("seed", "7")])
def test_read_dataset_rejects_missing_or_ill_typed_entry_field(tmp_path, key, value):
    def mutate(raw):
        if value is None:
            del raw["instances"][1][key]
        else:
            raw["instances"][1][key] = value

    _tamper(tmp_path, mutate)
    with pytest.raises(DatasetIOError) as err:
        read_dataset(tmp_path)
    assert key in str(err.value)


def test_read_dataset_rejects_manifest_with_missing_key(tmp_path):
    def mutate(raw):
        del raw["height"]

    _tamper(tmp_path, mutate)
    with pytest.raises(DatasetIOError) as err:
        read_dataset(tmp_path)
    assert "height" in str(err.value)


@pytest.mark.parametrize("mutate,named", [
    (lambda raw: raw.update(split="validation"), "validation"),
    (lambda raw: raw["instances"][1].update(shape_class="hexagon"), "hexagon"),
    (lambda raw: raw["config"].update(size=-5, bogus=1), "bogus"),
], ids=["split", "shape_class", "config"])
def test_read_dataset_rejects_a_manifest_value_no_writer_makes(tmp_path, mutate, named):
    _tamper(tmp_path, mutate)
    with pytest.raises(DatasetIOError) as err:
        read_dataset(tmp_path)
    assert named in str(err.value)


def test_read_dataset_detects_count_mismatch(tmp_path):
    def mutate(raw):
        raw["count"] += 1

    _tamper(tmp_path, mutate)
    with pytest.raises(IntegrityError):
        read_dataset(tmp_path)


def test_read_dataset_detects_shape_mismatch(tmp_path):
    def mutate(raw):
        raw["height"] += 2
        raw["width"] += 2

    _tamper(tmp_path, mutate)
    with pytest.raises(IntegrityError):
        read_dataset(tmp_path)


def test_read_dataset_detects_swapped_masks(tmp_path):
    # swapping visible and amodal puts visible pixels outside amodal
    insts = generate_dataset(6, 2)
    victim = next(i for i, inst in enumerate(insts) if inst.occluded.any())
    write_dataset(tmp_path, insts, base_seed=2)
    vis = tmp_path / f"vis_{victim:06d}.pgm"
    amo = tmp_path / f"amo_{victim:06d}.pgm"
    vb, ab = vis.read_bytes(), amo.read_bytes()
    vis.write_bytes(ab)
    amo.write_bytes(vb)
    with pytest.raises(IntegrityError):
        read_dataset(tmp_path)
