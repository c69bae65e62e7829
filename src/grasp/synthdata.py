"""Procedural occlusion scenes with exact visible/amodal ground truth.

A scene is a stack of 2-4 parametric shapes (rectangle, ellipse,
triangle, L-shape) in a random depth order on a dark background.  Each
object's amodal mask is its full rendered silhouette; its visible mask
removes everything covered by strictly nearer objects; the occluded
mask is their difference, derived on each read rather than stored.
Nearer objects are rendered brighter, so pixel intensity carries a
depth cue the way shading does in the curated crops this stands in for.

A scene's image is quantized to 256 gray levels, so it is kept as the
8-bit pixels it is, one read-only array that every instance of the
scene shares, and written to and read from PGM as those bytes.  The
float64 image the model reads, ``pixels / 255.0``, is derived on each
read.

Every scene is a pure function of its seed.  Scene i of a dataset uses
seed base_seed + i, and placement is biased so that heavily occluded
instances are common enough for every occlusion-ratio band to be
populated.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import pgm
from .errors import (
    ConfigError,
    DatasetIOError,
    DimensionError,
    IntegrityError,
    check_fields,
    check_ranges,
    config_from_dict,
    parse_json_object,
    write_json,
)
from .geometry import BinaryMask, mask_diff, read_mask, write_mask

SHAPE_CLASSES = ("rectangle", "ellipse", "triangle", "l_shape")
SPLITS = ("train", "test")
OCC_BINS = ((0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0))

# Largest scene side: one float64 image of it is 128 MiB.
MAX_SCENE_SIZE = 4096
# Most objects in one scene (the default draws 2 to 4): the occlusion
# bookkeeping is quadratic in the count.
MAX_OBJECTS = 64

MANIFEST_NAME = "manifest.json"
DATASET_FORMAT = "grasp-dataset-v1"


@dataclass(frozen=True)
class SceneConfig:
    size: int = 64
    min_objects: int = 2
    max_objects: int = 4
    shapes: tuple[str, ...] = SHAPE_CLASSES
    background: float = 0.08
    noise_sigma: float = 0.02
    overlap_bias: float = 0.55

    def __post_init__(self):
        if self.min_objects < 1:
            raise ConfigError("a scene needs at least one object")
        if self.max_objects < self.min_objects:
            raise ConfigError(
                f"max_objects {self.max_objects} below min_objects {self.min_objects}"
            )
        if self.max_objects > MAX_OBJECTS:
            raise ConfigError(f"max_objects {self.max_objects} exceeds the ceiling {MAX_OBJECTS}")
        if self.size < 16:
            raise ConfigError(f"scene size {self.size} is too small to place shapes")
        if self.size > MAX_SCENE_SIZE:
            raise ConfigError(f"scene size {self.size} exceeds the ceiling {MAX_SCENE_SIZE}")
        if not self.shapes:
            raise ConfigError("empty shape mixture")
        unknown = set(self.shapes) - set(SHAPE_CLASSES)
        if unknown:
            raise ConfigError(f"unknown shape classes {sorted(unknown)}")
        check_ranges(self, (
            ("background", 0.0 <= self.background <= 1.0, "in [0, 1]"),
            ("noise_sigma", 0.0 <= self.noise_sigma < math.inf, "finite and >= 0"),
            ("overlap_bias", 0.0 <= self.overlap_bias <= 1.0, "in [0, 1]"),
        ))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["shapes"] = list(self.shapes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SceneConfig":
        if isinstance(d, dict) and isinstance(d.get("shapes"), list):
            d = {**d, "shapes": tuple(d["shapes"])}
        return config_from_dict(cls, d)


@dataclass(frozen=True)
class SceneInstance:
    """One object of one scene, with its ground-truth masks.

    The scene's image is stored as its read-only uint8 ``pixels``, which
    all instances of one scene share, and only the visible and amodal
    masks are stored.  The float64 image and the occluded mask are
    derived from them on each read.
    """

    pixels: np.ndarray  # read-only uint8 (size, size)
    visible: BinaryMask
    amodal: BinaryMask
    occ_ratio: float
    shape_class: str
    seed: int

    def __post_init__(self):
        if self.pixels.shape != self.amodal.shape:
            raise DimensionError(
                f"image {self.pixels.shape} and amodal {self.amodal.shape} disagree"
            )

    @property
    def image(self) -> np.ndarray:
        """The read-only float64 image ``pixels / 255.0``, computed anew on each read."""
        image = self.pixels / 255.0
        image.flags.writeable = False
        return image

    @property
    def occluded(self) -> BinaryMask:
        """The amodal mask minus the visible one, computed anew on each read."""
        return mask_diff(self.amodal, self.visible)


def make_instance(image, visible, amodal, shape_class, seed) -> SceneInstance:
    """Derive the occlusion ratio, enforcing visible within amodal.

    uint8 ``image`` pixels are taken as they are, not copied.  A float
    image is quantized once, and it must lie in [0, 1] on the k/255
    lattice, so that ``pixels / 255.0`` gives it back bit for bit.
    """
    image = np.asarray(image)
    if image.dtype == np.uint8:
        pixels = image
    elif image.dtype.kind == "f":
        if not ((image >= 0.0) & (image <= 1.0)).all():  # NaN fails too
            raise IntegrityError("image values leave [0, 1]")
        pixels = np.rint(image * 255.0).astype(np.uint8)
        if not np.array_equal(pixels / 255.0, image):
            raise IntegrityError("image values are not on the k/255 lattice")
    else:
        raise IntegrityError(f"image dtype {image.dtype} is neither uint8 nor float")
    if pixels.flags.writeable:
        pixels = pixels.view()
        pixels.flags.writeable = False
    if mask_diff(visible, amodal).any():
        raise IntegrityError("visible mask leaks outside the amodal mask")
    if not amodal.any():
        raise IntegrityError("amodal mask is empty")
    occ_ratio = mask_diff(amodal, visible).count() / amodal.count()
    return SceneInstance(
        pixels=pixels,
        visible=visible,
        amodal=amodal,
        occ_ratio=occ_ratio,
        shape_class=shape_class,
        seed=int(seed),
    )


# -- shape rendering ------------------------------------------------------


def _frame(size, cy, cx, angle):
    yy, xx = np.mgrid[0:size, 0:size]
    dy = yy - cy
    dx = xx - cx
    c, s = math.cos(angle), math.sin(angle)
    u = c * dx + s * dy
    v = -s * dx + c * dy
    return u, v


def _render_shape(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
    cy = rng.uniform(0.22, 0.78) * size
    cx = rng.uniform(0.22, 0.78) * size
    angle = rng.uniform(0.0, math.pi)
    if kind == "rectangle":
        a = rng.uniform(0.12, 0.30) * size
        b = rng.uniform(0.12, 0.30) * size
        u, v = _frame(size, cy, cx, angle)
        return (np.abs(u) <= a) & (np.abs(v) <= b)
    if kind == "ellipse":
        a = rng.uniform(0.12, 0.32) * size
        b = rng.uniform(0.10, 0.28) * size
        u, v = _frame(size, cy, cx, angle)
        return (u / a) ** 2 + (v / b) ** 2 <= 1.0
    if kind == "triangle":
        radii = rng.uniform(0.16, 0.34, size=3) * size
        jitter = rng.uniform(-0.3, 0.3, size=3)
        angles = angle + 2.0 * math.pi * np.arange(3) / 3.0 + jitter
        vy = cy + radii * np.sin(angles)
        vx = cx + radii * np.cos(angles)
        yy, xx = np.mgrid[0:size, 0:size]
        inside_pos = np.ones((size, size), dtype=bool)
        inside_neg = np.ones((size, size), dtype=bool)
        for k in range(3):
            ey, ex = vy[(k + 1) % 3] - vy[k], vx[(k + 1) % 3] - vx[k]
            cross = ex * (yy - vy[k]) - ey * (xx - vx[k])
            inside_pos &= cross >= 0
            inside_neg &= cross <= 0
        return inside_pos | inside_neg
    if kind == "l_shape":
        a = rng.uniform(0.14, 0.30) * size
        b = rng.uniform(0.14, 0.30) * size
        cut_u = rng.uniform(0.8, 1.3) * a
        cut_v = rng.uniform(0.8, 1.3) * b
        u, v = _frame(size, cy, cx, angle)
        body = (np.abs(u) <= a) & (np.abs(v) <= b)
        notch = (u > a - cut_u) & (v > b - cut_v)
        return body & ~notch
    raise ConfigError(f"unknown shape class {kind!r}")


def _place_near(mask: np.ndarray, size: int, rng: np.random.Generator) -> tuple[float, float]:
    ys, xs = np.nonzero(mask)
    cy = float(ys.mean()) + rng.uniform(-0.16, 0.16) * size
    cx = float(xs.mean()) + rng.uniform(-0.16, 0.16) * size
    lo, hi = 0.2 * size, 0.8 * size
    return min(max(cy, lo), hi), min(max(cx, lo), hi)


def _recenter(mask: np.ndarray, cy: float, cx: float) -> np.ndarray:
    ys, xs = np.nonzero(mask)
    dy = int(round(cy - ys.mean()))
    dx = int(round(cx - xs.mean()))
    return _translate(mask, dy, dx)


def generate_scene(seed: int, config: SceneConfig | None = None) -> list[SceneInstance]:
    """Render one scene; returns one instance per object, placement order."""
    if seed < 0:
        raise ConfigError(f"scene seed {seed} must be >= 0")
    config = config or SceneConfig()
    rng = np.random.default_rng(seed)
    size = config.size
    k = int(rng.integers(config.min_objects, config.max_objects + 1))

    silhouettes = []
    kinds = []
    for i in range(k):
        kind = config.shapes[int(rng.integers(len(config.shapes)))]
        for attempt in range(10):
            mask = _render_shape(kind, size, rng)
            if silhouettes and rng.random() < config.overlap_bias:
                cy, cx = _place_near(
                    silhouettes[int(rng.integers(len(silhouettes)))], size, rng
                )
                mask = _recenter(mask, cy, cx)
            if mask.any():
                break
        else:
            raise IntegrityError(f"scene {seed}: could not place a nonempty {kind}")
        silhouettes.append(mask)
        kinds.append(kind)

    # Random depth order: order[j] is the index of the j-th farthest object.
    order = rng.permutation(k)
    image = np.full((size, size), config.background)
    covered_by_nearer = [np.zeros((size, size), dtype=bool) for _ in range(k)]
    for j, idx in enumerate(order):
        shade = 0.35 + (0.5 * j / (k - 1) if k > 1 else 0.25) + rng.uniform(-0.04, 0.04)
        image[silhouettes[idx]] = shade
        for earlier in order[:j]:
            covered_by_nearer[earlier] |= silhouettes[idx]

    image = np.clip(image + rng.normal(0.0, config.noise_sigma, (size, size)), 0.0, 1.0)
    pixels = np.rint(image * 255.0).astype(np.uint8)
    pixels.flags.writeable = False

    instances = []
    for i in range(k):
        amodal = BinaryMask(silhouettes[i])
        visible = BinaryMask(silhouettes[i] & ~covered_by_nearer[i])
        instances.append(make_instance(pixels, visible, amodal, kinds[i], seed))
    return instances


def generate_dataset(
    n_instances: int, base_seed: int, config: SceneConfig | None = None
) -> list[SceneInstance]:
    """Generate scenes at seeds base_seed + 0, 1, ... until n instances exist."""
    if n_instances < 1:
        raise ConfigError(f"dataset size {n_instances} must be positive")
    config = config or SceneConfig()
    instances: list[SceneInstance] = []
    scene_idx = 0
    while len(instances) < n_instances:
        instances.extend(generate_scene(base_seed + scene_idx, config))
        scene_idx += 1
    return instances[:n_instances]


# -- visible-mask perturbation --------------------------------------------


def _translate(arr: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.zeros_like(arr)
    h, w = arr.shape
    ys = slice(max(dy, 0), min(h + dy, h))
    xs = slice(max(dx, 0), min(w + dx, w))
    ys_src = slice(max(-dy, 0), min(h - dy, h))
    xs_src = slice(max(-dx, 0), min(w - dx, w))
    out[ys, xs] = arr[ys_src, xs_src]
    return out


def _disc_offsets(radius: int) -> list[tuple[int, int]]:
    r2 = radius * radius
    return [
        (dy, dx)
        for dy in range(-radius, radius + 1)
        for dx in range(-radius, radius + 1)
        if dy * dy + dx * dx <= r2
    ]


def _disc_shifts(arr: np.ndarray, radius: int):
    """``_translate(arr, dy, dx)`` for each disc offset, as views of one zero-padded copy."""
    h, w = arr.shape
    pad = np.zeros((h + 2 * radius, w + 2 * radius), dtype=arr.dtype)
    pad[radius:radius + h, radius:radius + w] = arr
    for dy, dx in _disc_offsets(radius):
        yield pad[radius - dy:radius - dy + h, radius - dx:radius - dx + w]


def _dilate(arr: np.ndarray, radius: int) -> np.ndarray:
    out = np.zeros_like(arr)
    for shifted in _disc_shifts(arr, radius):
        out |= shifted
    return out


def _erode(arr: np.ndarray, radius: int) -> np.ndarray:
    out = np.ones_like(arr)
    for shifted in _disc_shifts(arr, radius):
        out &= shifted
    return out


def perturb_vm(mask: BinaryMask, seed: int) -> BinaryMask:
    """Degrade a visible mask the way an upstream segmenter would.

    Two independent stages: a translation with (dy, dx) drawn uniformly
    from {-2..2}^2 (so 1/25 of draws are the identity), then one of
    {none, dilate, erode} with a disc element of radius uniform in
    {1..3}.  A stage that would empty a nonempty mask is undone, so a
    nonempty input never degrades to an all-false mask.
    """
    rng = np.random.default_rng(seed)
    dy, dx = (int(d) for d in rng.integers(-2, 3, size=2))
    choice = int(rng.integers(0, 3))
    radius = int(rng.integers(1, 4))

    arr = mask.a
    out = _translate(arr, dy, dx)
    if mask.any() and not out.any():
        out = arr
    if choice == 1:
        out = _dilate(out, radius)
    elif choice == 2:
        eroded = _erode(out, radius)
        if eroded.any() or not out.any():
            out = eroded
    return BinaryMask(out)


def training_vm(visible: BinaryMask, seed: int, clean_prob: float = 0.5) -> BinaryMask:
    """Visible-mask input for a training step: clean or perturbed."""
    rng = np.random.default_rng(seed)
    perturb_seed = int(rng.integers(0, 2**62))
    if rng.random() < clean_prob:
        return visible
    return perturb_vm(visible, perturb_seed)


# -- dataset serialization --------------------------------------------------


@dataclass(frozen=True)
class DatasetManifest:
    height: int
    width: int
    count: int
    split: str
    base_seed: int
    config: dict
    instances: list

    def to_dict(self) -> dict:
        return {"format": DATASET_FORMAT, **asdict(self)}


def _names(i: int) -> tuple[str, str, str]:
    return (f"img_{i:06d}.pgm", f"vis_{i:06d}.pgm", f"amo_{i:06d}.pgm")


def write_dataset(
    out_dir,
    instances: list[SceneInstance],
    base_seed: int,
    config: SceneConfig | None = None,
    split: str = "train",
) -> DatasetManifest:
    if split not in SPLITS:
        raise ConfigError(f"split must be train or test, got {split!r}")
    if not instances:
        raise ConfigError("refusing to write an empty dataset")
    os.makedirs(out_dir, exist_ok=True)
    h, w = instances[0].pixels.shape
    entries = []
    for i, inst in enumerate(instances):
        if inst.pixels.shape != (h, w):
            raise DimensionError(f"instance {i} shape {inst.pixels.shape} != dataset {h}x{w}")
        img_name, vis_name, amo_name = _names(i)
        pgm.write_pgm(os.path.join(out_dir, img_name), inst.pixels)
        write_mask(os.path.join(out_dir, vis_name), inst.visible)
        write_mask(os.path.join(out_dir, amo_name), inst.amodal)
        entries.append(
            {
                "id": i,
                "image": img_name,
                "visible": vis_name,
                "amodal": amo_name,
                "shape_class": inst.shape_class,
                "occ_ratio": inst.occ_ratio,
                "seed": inst.seed,
            }
        )
    manifest = DatasetManifest(
        height=h,
        width=w,
        count=len(instances),
        split=split,
        base_seed=int(base_seed),
        config=(config or SceneConfig()).to_dict(),
        instances=entries,
    )
    write_json(os.path.join(out_dir, MANIFEST_NAME), manifest.to_dict())
    return manifest


_MANIFEST_FIELDS = {"height": int, "width": int, "count": int, "split": str, "base_seed": int,
                    "config": dict, "instances": list}
_ENTRY_FIELDS = {"id": int, "image": str, "visible": str, "amodal": str, "shape_class": str,
                 "occ_ratio": float, "seed": int}


def read_dataset(data_dir) -> tuple[DatasetManifest, list[SceneInstance]]:
    manifest_path = os.path.join(data_dir, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise DatasetIOError(f"{manifest_path}: manifest missing")
    with open(manifest_path, "rb") as fh:
        raw = parse_json_object(fh.read(), f"{manifest_path}: manifest", DatasetIOError)
    if raw.get("format") != DATASET_FORMAT:
        raise DatasetIOError(f"{manifest_path}: unknown format {raw.get('format')!r}")
    check_fields(raw, _MANIFEST_FIELDS, f"{manifest_path}: manifest", DatasetIOError,
                 others=("format",))
    if raw["count"] < 1:
        raise DatasetIOError(f"{manifest_path}: empty dataset (count {raw['count']})")
    if raw["base_seed"] < 0:
        raise DatasetIOError(f"{manifest_path}: base_seed {raw['base_seed']} is negative")
    if raw["split"] not in SPLITS:
        raise DatasetIOError(f"{manifest_path}: split {raw['split']!r} is not one of {SPLITS}")
    try:
        SceneConfig.from_dict(raw["config"])
    except ConfigError as exc:
        raise DatasetIOError(f"{manifest_path}: scene config: {exc}") from exc
    h, w = raw["height"], raw["width"]
    instances = []
    for i, entry in enumerate(raw["instances"]):
        what = f"{manifest_path}: instance entry {i}"
        check_fields(entry, _ENTRY_FIELDS, what, DatasetIOError)
        if entry["id"] != i:
            raise IntegrityError(f"{what} has id {entry['id']}")
        if entry["seed"] < 0:
            raise DatasetIOError(f"{what}: seed {entry['seed']} is negative")
        if entry["shape_class"] not in SHAPE_CLASSES:
            raise DatasetIOError(f"{what}: shape_class {entry['shape_class']!r} is not one "
                                 f"of {SHAPE_CLASSES}")
        pixels = pgm.read_pgm(os.path.join(data_dir, entry["image"]))
        visible = read_mask(os.path.join(data_dir, entry["visible"]))
        amodal = read_mask(os.path.join(data_dir, entry["amodal"]))
        for name, got in (
            (entry["image"], pixels.shape),
            (entry["visible"], visible.shape),
            (entry["amodal"], amodal.shape),
        ):
            if got != (h, w):
                raise IntegrityError(f"{name}: shape {got} contradicts manifest {h}x{w}")
        inst = make_instance(pixels, visible, amodal, entry["shape_class"], entry["seed"])
        if not abs(inst.occ_ratio - entry["occ_ratio"]) <= 1e-9:  # NaN fails too
            raise IntegrityError(
                f"instance {entry['id']}: stored occ_ratio {entry['occ_ratio']} "
                f"contradicts masks ({inst.occ_ratio})"
            )
        instances.append(inst)
    manifest = DatasetManifest(**{key: raw[key] for key in _MANIFEST_FIELDS})
    if manifest.count != len(instances):
        raise IntegrityError(
            f"manifest count {manifest.count} contradicts {len(instances)} instances"
        )
    return manifest, instances
