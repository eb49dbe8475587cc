"""Synthetic desk-scale datasets: flat-colored shapes with exact labels.

Each generated sample is an sRGB image plus a ground-truth label map that
matches the generating shapes pixel for pixel.  Class colors are given in
CIELAB and converted to sRGB once per class; optional iid Gaussian noise
(8-bit units) is added per channel.  Generation is fully deterministic per
seed.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .core_io import (_D65_WHITE, _SRGB_TO_XYZ, read_pgm, read_ppm, write_pgm,
                      write_ppm)

_XYZ_TO_SRGB = np.linalg.inv(_SRGB_TO_XYZ)

# In-gamut, well-separated Lab colors; cycled when more classes are asked for.
_PALETTE = np.array(
    [
        [50.0, 0.0, 0.0],     # gray
        [55.0, 55.0, 35.0],   # red
        [60.0, -50.0, 40.0],  # green
        [45.0, 15.0, -55.0],  # blue
        [85.0, -10.0, 70.0],  # yellow
        [65.0, 45.0, -45.0],  # violet
        [68.0, -35.0, -15.0], # cyan
        [35.0, 40.0, 25.0],   # brown
    ]
)


def default_palette(num_classes):
    """(C, 3) Lab colors, brightened slightly on each palette reuse."""
    reps = -(-num_classes // len(_PALETTE))
    colors = np.tile(_PALETTE, (reps, 1))[:num_classes].copy()
    for r in range(1, reps):
        lo, hi = r * len(_PALETTE), min((r + 1) * len(_PALETTE), num_classes)
        colors[lo:hi, 0] = np.clip(colors[lo:hi, 0] + 12.0 * r, 5.0, 95.0)
    return colors


def lab_to_rgb(lab):
    """Inverse of core_io.rgb_to_lab; output clipped to valid uint8."""
    lab = np.asarray(lab, dtype=np.float64)
    fy = (lab[..., 0] + 16.0) / 116.0
    fx = fy + lab[..., 1] / 500.0
    fz = fy - lab[..., 2] / 200.0
    f = np.stack([fx, fy, fz], axis=-1)
    delta = 6.0 / 29.0
    t = np.where(f > delta, f**3, 3.0 * delta**2 * (f - 4.0 / 29.0))
    linear = (t * _D65_WHITE) @ _XYZ_TO_SRGB.T
    linear = np.clip(linear, 0.0, 1.0)
    srgb = np.where(
        linear <= 0.0031308, 12.92 * linear, 1.055 * linear ** (1.0 / 2.4) - 0.055
    )
    return np.clip(np.rint(srgb * 255.0), 0, 255).astype(np.uint8)


@dataclass
class SyntheticSpec:
    size: int = 64                       # square images, size x size
    num_classes: int = 4
    kind: str = "blobs"                  # quadrants | blobs | stripes
    noise_sigma: float = 0.0             # 8-bit Gaussian noise per channel

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.kind not in ("quadrants", "blobs", "stripes"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "blobs" and self.size < 3:  # radii size//8..size//3 would be 0
            raise ValueError(f"blobs need size >= 3, got {self.size}")
        if not 0 <= self.noise_sigma < np.inf:  # NaN fails
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


def _gt_quadrants(spec, rng):
    half = spec.size // 2
    gt = np.zeros((spec.size, spec.size), dtype=np.int32)
    gt[:half, half:] = 1 % spec.num_classes
    gt[half:, :half] = 2 % spec.num_classes
    gt[half:, half:] = 3 % spec.num_classes
    return gt


def _gt_blobs(spec, rng):
    """3 to 6 ellipses of random foreground classes, radii size/8..size/3."""
    size = spec.size
    gt = np.zeros((size, size), dtype=np.int32)
    ys, xs = np.arange(size)[:, None], np.arange(size)
    nblobs = int(rng.integers(3, 7))
    for _ in range(nblobs):
        cls = int(rng.integers(1, spec.num_classes))
        cy, cx = rng.uniform(0, size, size=2)
        ry = rng.uniform(size // 8, size // 3)
        rx = rng.uniform(size // 8, size // 3)
        # a pixel beyond the bounding box with one pixel of margin has
        # ((x - cx) / rx)**2 >= (1 + 1/rx)**2, so it cannot pass the test
        y0, y1 = max(math.floor(cy - ry) - 1, 0), min(math.ceil(cy + ry) + 2, size)
        x0, x1 = max(math.floor(cx - rx) - 1, 0), min(math.ceil(cx + rx) + 2, size)
        box = gt[y0:y1, x0:x1]
        box[((xs[x0:x1] - cx) / rx) ** 2 + ((ys[y0:y1] - cy) / ry) ** 2 <= 1.0] = cls
    return gt


def _gt_stripes(spec, rng):
    x = np.arange(spec.size)
    stripe = x * spec.num_classes // spec.size
    gt = np.broadcast_to(stripe % spec.num_classes, (spec.size, spec.size))
    return gt.astype(np.int32).copy()


_GENERATORS = {"quadrants": _gt_quadrants, "blobs": _gt_blobs, "stripes": _gt_stripes}


def generate_image(spec, rng):
    """One (image, gt) pair; gt regions exactly match the painted shapes."""
    gt = _GENERATORS[spec.kind](spec, rng)
    rgb = lab_to_rgb(default_palette(spec.num_classes))[gt].astype(np.float64)
    if spec.noise_sigma > 0:
        rgb = rgb + rng.normal(0.0, spec.noise_sigma, size=rgb.shape)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8), gt


def _pairs(spec, count, seed):
    """The (image, gt) pairs of generate_dataset, one at a time."""
    rng = np.random.default_rng(seed)
    return (generate_image(spec, rng) for _ in range(count))


def generate_dataset(spec, count, seed):
    """List of (image, gt) pairs, deterministic per seed."""
    return list(_pairs(spec, count, seed))


def synth_generate(spec, count, seed, out_dir):
    """Write count >= 1 img_NNNN.ppm / gt_NNNN.pgm pairs to out_dir, which
    is created once the first image exists.  Each pair is written as it is
    generated, so memory holds one image whatever count is.  More than 65536
    classes, which a 16-bit label map cannot hold, are refused before
    anything is written."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if spec.num_classes > 65536:
        raise ValueError(f"label maps are 16-bit PGM files: classes must be <= 65536, "
                         f"got {spec.num_classes}")
    paths = []
    for i, (img, gt) in enumerate(_pairs(spec, count, seed)):
        os.makedirs(out_dir, exist_ok=True)
        img_path = os.path.join(out_dir, f"img_{i:04d}.ppm")
        gt_path = os.path.join(out_dir, f"gt_{i:04d}.pgm")
        write_ppm(img, img_path)
        write_pgm(gt, gt_path)
        paths.append((img_path, gt_path))
    return paths


def load_dataset(directory):
    """Read back img_*.ppm / gt_*.pgm pairs written by synth_generate; a
    directory without an img_*.ppm raises ValueError."""
    names = sorted(f for f in os.listdir(directory) if f.startswith("img_") and f.endswith(".ppm"))
    if not names:
        raise ValueError(f"no img_*.ppm images in {directory}")
    pairs = []
    for name in names:
        gt_name = name.replace("img_", "gt_").replace(".ppm", ".pgm")
        pairs.append(
            (read_ppm(os.path.join(directory, name)),
             read_pgm(os.path.join(directory, gt_name)).astype(np.int32))
        )
    return pairs
