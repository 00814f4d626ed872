"""Seeded synthetic segmentation tasks with controlled domain shift.

Four generators share a geometric vocabulary but differ in band count,
intensity level and noise family: a 3-band building-footprint pre-task,
a 1-band speckled flood task, a 1-band bright fracture task with thin dark
polylines, and a 3-band landslide task with an elongated tinted patch.
The shifts are what the batch-norm adaptation experiment measures, so each
downstream task keeps a per-band mean-intensity gap from the pre-task.

Datasets serialize to the little-endian HZDS container, bit-exact.
"""

from __future__ import annotations

import dataclasses
import enum
import struct

import numpy as np

from .errors import ContractError, FormatError, GenerationError

DATASET_MAGIC = b"HZDS"
DATASET_VERSION = 1

POS_FRAC_MIN = 0.02
POS_FRAC_MAX = 0.30
REJECTION_BUDGET = 100


class TaskKind(enum.Enum):
    BUILDINGS = "buildings"
    FLOOD = "flood"
    FRACTURE = "fracture"
    LANDSLIDE = "landslide"


TASK_BANDS = {
    TaskKind.BUILDINGS: 3,
    TaskKind.FLOOD: 1,
    TaskKind.FRACTURE: 1,
    TaskKind.LANDSLIDE: 3,
}

DOWNSTREAM_TASKS = (TaskKind.FLOOD, TaskKind.FRACTURE, TaskKind.LANDSLIDE)


@dataclasses.dataclass
class SegmentationSample:
    sample_id: int
    image: np.ndarray  # [C,H,W] float64 in [0,1]
    mask: np.ndarray  # [H,W] uint8 in {0,1}
    band_count: int

    def __post_init__(self):
        if self.image.shape[1:] != self.mask.shape:
            raise ContractError("SegmentationSample: image/mask extent mismatch")
        if not np.all((self.mask == 0) | (self.mask == 1)):
            raise ContractError("SegmentationSample: mask is not binary")


@dataclasses.dataclass
class GeneratorConfig:
    kind: TaskKind
    n_samples: int
    size: int = 32
    seed: int = 0
    # buildings
    building_count: tuple[int, int] = (2, 6)
    building_size: tuple[int, int] = (4, 10)
    # flood
    flood_cells: int = 3
    flood_speckle: float = 0.2
    # fracture
    fracture_lines: tuple[int, int] = (1, 4)
    fracture_width: tuple[int, int] = (1, 2)
    # landslide
    landslide_eccentricity: float = 2.5

    def validate(self) -> None:
        if self.n_samples < 1:
            raise ContractError("GeneratorConfig: n_samples must be >= 1")
        if self.size < 8:
            raise ContractError("GeneratorConfig: size must be >= 8")
        if self.kind == TaskKind.BUILDINGS and self.size < self.building_size[1]:
            raise ContractError("GeneratorConfig: size must be >= the largest building size "
                                f"{self.building_size[1]}")


def _value_noise(rng: np.random.Generator, size: int, cells: int) -> np.ndarray:
    """Bilinear interpolation of a coarse random grid; values in [0,1]."""
    grid = rng.random((cells + 1, cells + 1))
    t = np.linspace(0.0, cells, size)
    i0 = np.minimum(t.astype(int), cells - 1)
    f = t - i0
    v00 = grid[np.ix_(i0, i0)]
    v10 = grid[np.ix_(i0 + 1, i0)]
    v01 = grid[np.ix_(i0, i0 + 1)]
    v11 = grid[np.ix_(i0 + 1, i0 + 1)]
    fy, fx = f[:, None], f[None, :]
    return v00 * (1 - fy) * (1 - fx) + v10 * fy * (1 - fx) + v01 * (1 - fy) * fx + v11 * fy * fx


def _gen_buildings(rng, cfg: GeneratorConfig):
    s = cfg.size
    base = 0.50 + 0.18 * (_value_noise(rng, s, 4) - 0.5) * 2.0
    direction = rng.random() * 2 * np.pi
    yy, xx = np.mgrid[0:s, 0:s] / s
    base = base + 0.08 * (np.cos(direction) * xx + np.sin(direction) * yy)
    img = np.stack([base + 0.04 * (_value_noise(rng, s, 6) - 0.5) for _ in range(3)])
    mask = np.zeros((s, s), dtype=np.uint8)
    rects = []
    lo, hi = cfg.building_count
    for _ in range(rng.integers(lo, hi + 1)):
        bw = int(rng.integers(cfg.building_size[0], cfg.building_size[1] + 1))
        bh = int(rng.integers(cfg.building_size[0], cfg.building_size[1] + 1))
        r = int(rng.integers(0, s - bh + 1))
        c = int(rng.integers(0, s - bw + 1))
        depth = 0.28 + 0.12 * rng.random()
        img[:, r:r + bh, c:c + bw] -= depth
        mask[r:r + bh, c:c + bw] = 1
        rects.append((r, c, bh, bw))
    img += 0.02 * rng.normal(size=img.shape)
    return np.clip(img, 0.0, 1.0), mask, {"rects": rects}


def _gen_flood(rng, cfg: GeneratorConfig):
    s = cfg.size
    field = _value_noise(rng, s, cfg.flood_cells)
    target_frac = rng.uniform(0.06, 0.24)
    thr = np.quantile(field, 1.0 - target_frac)
    mask = (field > thr).astype(np.uint8)
    img = 0.70 + 0.10 * (_value_noise(rng, s, 5) - 0.5) * 2.0
    img = np.where(mask, 0.30 + 0.06 * (_value_noise(rng, s, 5) - 0.5) * 2.0, img)
    # multiplicative gamma speckle, SAR-like signature
    k = 1.0 / max(cfg.flood_speckle, 1e-6) ** 2
    img = img * rng.gamma(shape=k, scale=1.0 / k, size=img.shape)
    return np.clip(img, 0.0, 1.0)[None], mask, {}


def _gen_fracture(rng, cfg: GeneratorConfig):
    s = cfg.size
    img = 0.85 + 0.06 * (_value_noise(rng, s, 5) - 0.5) * 2.0
    mask = np.zeros((s, s), dtype=np.uint8)
    lo, hi = cfg.fracture_lines
    for _ in range(rng.integers(lo, hi + 1)):
        width = int(rng.integers(cfg.fracture_width[0], cfg.fracture_width[1] + 1))
        y = rng.uniform(2, s - 2)
        x = rng.uniform(2, s - 2)
        theta = rng.uniform(0, 2 * np.pi)
        steps = int(s * rng.uniform(0.7, 1.3))
        for _ in range(steps):
            theta += rng.normal(0.0, 0.25)
            y = np.clip(y + np.sin(theta), 0, s - 1)
            x = np.clip(x + np.cos(theta), 0, s - 1)
            yi, xi = int(y), int(x)
            mask[yi, xi] = 1
            if width > 1:
                mask[min(yi + 1, s - 1), xi] = 1
    img = np.where(mask, img - 0.45 + 0.04 * rng.normal(size=img.shape), img)
    return np.clip(img, 0.0, 1.0)[None], mask, {}


def _gen_landslide(rng, cfg: GeneratorConfig):
    s = cfg.size
    base = 0.35 + 0.14 * (_value_noise(rng, s, 4) - 0.5) * 2.0
    tints = (0.02, 0.0, -0.02)
    img = np.stack([base + t + 0.03 * (_value_noise(rng, s, 6) - 0.5) * 2.0 for t in tints])
    a = s * rng.uniform(0.16, 0.28)
    b = a / cfg.landslide_eccentricity
    cy, cx = rng.uniform(0.25 * s, 0.75 * s, size=2)
    theta = rng.uniform(0, np.pi)
    yy, xx = np.mgrid[0:s, 0:s]
    dy, dx = yy - cy, xx - cx
    u = np.cos(theta) * dx + np.sin(theta) * dy
    v = -np.sin(theta) * dx + np.cos(theta) * dy
    wobble = 0.35 * (_value_noise(rng, s, 3) - 0.5) * 2.0
    mask = (((u / a) ** 2 + (v / b) ** 2) <= 1.0 + wobble).astype(np.uint8)
    deltas = (-0.14, -0.08, +0.07)
    for band, d in enumerate(deltas):
        img[band] = np.where(mask, img[band] + d, img[band])
    img += 0.015 * rng.normal(size=img.shape)
    return np.clip(img, 0.0, 1.0), mask, {}


_GENERATORS = {
    TaskKind.BUILDINGS: _gen_buildings,
    TaskKind.FLOOD: _gen_flood,
    TaskKind.FRACTURE: _gen_fracture,
    TaskKind.LANDSLIDE: _gen_landslide,
}


def generate(cfg: GeneratorConfig, with_meta: bool = False):
    """Generate a seeded dataset; every mask's positive fraction lands in
    [POS_FRAC_MIN, POS_FRAC_MAX] by rejection resampling per sample."""
    cfg.validate()
    gen_fn = _GENERATORS[cfg.kind]
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_samples)
    samples, metas = [], []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        sample_id = int(child.generate_state(1, np.uint64)[0])
        for _ in range(REJECTION_BUDGET):
            img, mask, meta = gen_fn(rng, cfg)
            frac = mask.mean()
            if POS_FRAC_MIN <= frac <= POS_FRAC_MAX:
                break
        else:
            raise GenerationError(
                f"rejection budget exhausted for kind={cfg.kind.value}, seed={cfg.seed}, sample={i}")
        samples.append(SegmentationSample(sample_id, img, mask, band_count=img.shape[0]))
        metas.append(meta)
    return (samples, metas) if with_meta else samples


def band_align(image: np.ndarray, target_channels: int) -> np.ndarray:
    """Match an image's band count to a model's input width.

    Identity when counts agree; a single band is replicated across all
    target channels; anything else is unsupported.
    """
    c = image.shape[0]
    if c == target_channels:
        return image
    if c == 1:
        return np.repeat(image, target_channels, axis=0)
    raise ContractError(f"band_align: cannot map {c} bands to {target_channels}")


def aligned_images(samples, target_channels: int) -> list[np.ndarray]:
    return [band_align(s.image, target_channels) for s in samples]


# ---------------------------------------------------------------------------
# HZDS container


def dataset_file_size(n: int, c: int, h: int, w: int) -> int:
    # 4-byte magic + <IIHHH header (14 bytes) + per-sample payloads
    return 18 + n * (8 + c * h * w * 8 + h * w)


def write_dataset(samples: list[SegmentationSample], path) -> None:
    if not samples:
        raise ContractError("write_dataset: empty sample list")
    c, h, w = samples[0].image.shape
    if any(s.image.shape != (c, h, w) for s in samples):
        raise ContractError("write_dataset: inconsistent image shapes")
    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<IIHHH", DATASET_VERSION, len(samples), c, h, w))
        for s in samples:
            f.write(struct.pack("<Q", s.sample_id))
            f.write(np.ascontiguousarray(s.image, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(s.mask, dtype=np.uint8).tobytes())


def read_dataset(path) -> list[SegmentationSample]:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 18 or blob[:4] != DATASET_MAGIC:
        raise FormatError(f"{path}: bad magic at byte 0")
    version, n, c, h, w = struct.unpack_from("<IIHHH", blob, 4)
    if version != DATASET_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte 4")
    expected = dataset_file_size(n, c, h, w)
    if len(blob) != expected:
        raise FormatError(f"{path}: size {len(blob)} != expected {expected} (diverges at byte "
                          f"{min(len(blob), expected)})")
    samples = []
    off = 18
    img_bytes = c * h * w * 8
    for _ in range(n):
        (sid,) = struct.unpack_from("<Q", blob, off)
        off += 8
        img = np.frombuffer(blob[off:off + img_bytes], dtype="<f8").reshape(c, h, w).copy()
        off += img_bytes
        mask = np.frombuffer(blob[off:off + h * w], dtype=np.uint8).reshape(h, w).copy()
        off += h * w
        if not np.all((mask == 0) | (mask == 1)):
            raise FormatError(f"{path}: non-binary mask byte before offset {off}")
        samples.append(SegmentationSample(sid, img, mask, band_count=c))
    return samples
