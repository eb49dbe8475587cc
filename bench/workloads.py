"""The benchmark's three workloads.

Each workload makes its inputs from a seed (`setup`), runs one unit of
work on them through the public zok entry points (`run`), and then
records the digests of every artifact the unit wrote and its quality
numbers (`check`).  Entry points are looked up on their modules at call
time, so a traced unit calls their wrapped versions; `check` runs after
the tracing has been undone.
"""

import hashlib
import json
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from zok import cli, core_io, learner, metrics, synth, weaksup, zoomout


@dataclass
class Unit:
    ops: list                    # seconds per operation, in call order
    failed: int = 0              # operations that raised or exited nonzero
    images: int = 0              # images that went through the unit
    output: object = None        # what the entry point returned
    artifacts: dict = field(default_factory=dict)   # artifact -> sha256
    quality: dict = field(default_factory=dict)     # miou, miou_crf
    error: str = ""


def _sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def _timed(call):
    """(result, seconds, error text); an exception is reported, not raised."""
    start = perf_counter()
    try:
        result = call()
    except Exception as exc:  # the failed operation counts toward failed_frac
        return None, perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return result, perf_counter() - start, ""


class SupervisedBlobs:
    """cli.pipeline_run on 5-class noisy blobs: SLIC -> zoom-out -> MLP -> CRF."""

    name = "supervised-blobs"
    pool = 4                     # datasets per seed; mIoU is their mean
    train_images = 6
    test_images = 4

    def setup(self, workdir, seed):
        spec = synth.SyntheticSpec(size=128, num_classes=5, kind="blobs", noise_sigma=8.0)
        configs = []
        for j in range(self.pool):
            train_dir = os.path.join(workdir, f"train_{j}")
            test_dir = os.path.join(workdir, f"test_{j}")
            synth.synth_generate(spec, self.train_images, 1000 * seed + 2 * j + 1, train_dir)
            synth.synth_generate(spec, self.test_images, 1000 * seed + 2 * j + 2, test_dir)
            # the acceptance run's settings (tests/test_acceptance.py, criterion 8)
            configs.append({
                "train_dir": train_dir,
                "test_dir": test_dir,
                "classes": 5,
                "slic": {"k": 128, "m": 15},
                "proximal_radius": 2,
                "train": {"hidden": [64], "epochs": 30, "learning_rate": 0.02,
                          "batch_size": 128, "seed": 0, "loss": "asymmetric"},
                "crf": {"iters": 5, "damping": 0.5, "w_appearance": 2.0, "w_smooth": 0.5,
                        "sigma_xy": 20.0, "sigma_lab": 8.0, "sigma_xy_smooth": 5.0},
                "report": os.path.join(workdir, f"report_{j}.json"),
            })
        return configs

    def run(self, inputs, index):
        config = inputs[index]
        report, seconds, error = _timed(lambda: cli.pipeline_run(config))
        if error:
            return Unit([seconds], failed=1, error=error)
        return Unit([seconds], images=self.train_images + self.test_images, output=report)

    def check(self, inputs, index, unit):
        report = unit.output
        exact = {k: v for k, v in report.items() if k != "timings"}
        unit.artifacts = {
            "report.json": _sha256_file(inputs[index]["report"]),
            "report.exact": _sha256_bytes(json.dumps(exact, sort_keys=True).encode()),
        }
        unit.quality = {"miou": report["mIoU"], "miou_crf": report["crf"]["mIoU"]}


# --- weak-points: variant-blob images as in the weak-supervision trend test

_BG = np.array([55.0, 0.0, 0.0])
_SHADE_A = np.array([[55.0, 60.0, 30.0], [45.0, 10.0, -55.0], [65.0, 55.0, -15.0]])
_SHADE_B = np.array([[55.0, -55.0, 40.0], [82.0, -5.0, 75.0], [70.0, -30.0, -20.0]])
# Class sets cycle through every nonempty set of at most two classes, so
# each class is present in the same number of images for every seed and
# the amount of localizer training does not depend on the seed.
_CLASS_SETS = ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))


def variant_blobs(count, seed, size=64, noise=4.0):
    """Blob images where each class has a common shade and a rarer variant
    that usually co-occurs with it but sometimes appears alone."""
    rng = np.random.default_rng(seed)
    images, gts = [], []
    ys, xs = np.mgrid[0:size, 0:size]
    for i in range(count):
        gt = np.zeros((size, size), dtype=np.int32)
        lab = np.tile(_BG, (size, size, 1)).astype(np.float64)
        for cls in _CLASS_SETS[i % len(_CLASS_SETS)]:
            r = rng.uniform()
            shades = [0, 1] if r < 0.6 else ([0] if r < 0.8 else [1])
            for sh in shades:
                cy, cx = rng.uniform(10, size - 10, size=2)
                ry, rx = rng.uniform(8, 13, size=2)
                mask = ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 <= 1.0
                gt[mask] = cls
                lab[mask] = (_SHADE_A if sh == 0 else _SHADE_B)[cls - 1]
        rgb = synth.lab_to_rgb(lab).astype(np.float64) + rng.normal(0, noise, (size, size, 3))
        images.append(np.clip(np.rint(rgb), 0, 255).astype(np.uint8))
        gts.append(gt)
    return images, gts


def grid_field(img, cell=2):
    """(3, H/cell, W/cell) field of cell-mean Lab values."""
    lab = core_io.rgb_to_lab(img)
    h, w = lab.shape[:2]
    f = lab.reshape(h // cell, cell, w // cell, cell, 3).mean(axis=(1, 3))
    return np.moveaxis(f, 2, 0)


class WeakPoints:
    """weaksup.point_supervision_pipeline, diverse sampling with k=20."""

    name = "weak-points"
    pool = 8                     # datasets per seed; mIoU is their mean
    images = 24
    cell = 2

    def setup(self, workdir, seed):
        inputs = []
        for j in range(self.pool):
            images, gts = variant_blobs(self.images, 1000 * seed + j)
            fields = [grid_field(im, self.cell) for im in images]
            presence = [set(int(v) for v in np.unique(g)) - {0} for g in gts]
            inputs.append((fields, presence, gts))
        return inputs

    def run(self, inputs, index):
        fields, presence, gts = inputs[index]
        cfg = learner.TrainConfig(
            epochs=150, batch_size=128, learning_rate=0.1, momentum=0.9,
            weight_decay=1e-4, seed=0, loss="asymmetric", hidden=(32,))
        preds, seconds, error = _timed(
            lambda: weaksup.point_supervision_pipeline(
                fields, presence, 4, 20, "diverse", seed=0, classifier_cfg=cfg))
        if error:
            return Unit([seconds], failed=1, error=error)
        return Unit([seconds], images=len(preds), output=preds)

    def check(self, inputs, index, unit):
        _, _, gts = inputs[index]
        preds = unit.output
        cm = np.zeros((4, 4), dtype=np.int64)
        block = np.ones((self.cell, self.cell), dtype=np.int32)
        for p, g in zip(preds, gts):
            cm += metrics.confusion(np.kron(p, block), g, 4)
        miou = metrics.mean_iou(cm)
        unit.artifacts = {"predictions": _sha256_bytes(np.stack(preds).astype("<i4").tobytes())}
        # no CRF stage: the final labelling is the unrefined one
        unit.quality = {"miou": miou, "miou_crf": miou}


class RegionZoom:
    """In-process `zok rect`, `zok features` and `zok crf` on ~2k regions."""

    name = "region-zoom"
    pool = 2
    size = 256
    classes = 5
    regions = 2048
    levels = "local,proximal:2,pooled,subscene:3,scene"
    featmap_channels = 16
    featmap_cell = 8

    def setup(self, workdir, seed):
        spec = synth.SyntheticSpec(size=self.size, num_classes=self.classes,
                                   kind="blobs", noise_sigma=8.0)
        rng = np.random.default_rng(seed + 7919)
        rect = zoomout.rect_regions(self.size, self.size, self.regions)
        k = int(rect.max()) + 1
        inputs = []
        for i, (img, gt) in enumerate(synth.generate_dataset(spec, self.pool, seed)):
            paths = {key: os.path.join(workdir, f"{key}_{i}.{ext}") for key, ext in (
                ("image", "ppm"), ("featmap", "zot"), ("unary", "zot"),
                ("superpixels", "zot"), ("features", "zot"), ("crf", "zot"))}
            core_io.write_ppm(img, paths["image"])
            core_io.write_tensor(self._featmap(img, rng), paths["featmap"])
            core_io.write_tensor(self._unary(gt, rect, k, rng), paths["unary"])
            inputs.append((paths, gt))
        return inputs

    def _featmap(self, img, rng):
        """(16, H/8, W/8) map: random tanh projections of cell-mean Lab."""
        field = grid_field(img, self.featmap_cell).reshape(3, -1)
        field = (field - field.mean(axis=1, keepdims=True)) / field.std(axis=1, keepdims=True)
        proj = rng.normal(size=(self.featmap_channels, 3))
        bias = rng.normal(scale=0.5, size=(self.featmap_channels, 1))
        side = self.size // self.featmap_cell
        fm = np.tanh(proj @ field + bias).reshape(self.featmap_channels, side, side)
        return fm.astype(np.float32)

    def _unary(self, gt, rect, k, rng):
        """(K, C) region probabilities peaked on a corrupted majority class.

        The labels of a random 30% of the regions are shuffled among
        themselves, which keeps every class's share, so the unary mIoU
        barely depends on how large each class happens to be.
        """
        votes = np.bincount(rect.ravel() * self.classes + gt.ravel(),
                            minlength=k * self.classes).reshape(k, self.classes)
        labels = np.argmax(votes, axis=1)
        flip = rng.choice(k, size=k * 3 // 10, replace=False)
        labels[flip] = labels[rng.permutation(flip)]
        noise = rng.dirichlet(np.ones(self.classes), size=k)
        return (0.5 * np.eye(self.classes)[labels] + 0.5 * noise).astype(np.float32)

    def run(self, inputs, index):
        paths, gt = inputs[index]
        calls = [
            ["rect", "--input", paths["image"], "--count", str(self.regions),
             "--out", paths["superpixels"]],
            ["features", "--image", paths["image"], "--superpixels", paths["superpixels"],
             "--levels", self.levels, "--featmap", paths["featmap"], "--mirror",
             "--out", paths["features"]],
            ["crf", "--unary", paths["unary"], "--image", paths["image"],
             "--superpixels", paths["superpixels"], "--iters", "10", "--mode", "parallel",
             "--out", paths["crf"]],
        ]
        ops, failed, errors = [], 0, []
        for argv in calls:
            code, seconds, error = _timed(lambda: cli.main(argv))
            ops.append(seconds)
            if error or code != 0:
                failed += 1
                errors.append(error or f"zok {argv[0]} exited {code}")
        return Unit(ops, failed=failed, images=0 if failed else 1, error="; ".join(errors))

    def check(self, inputs, index, unit):
        paths, gt = inputs[index]
        spmap = core_io.read_tensor(paths["superpixels"]).astype(np.int64)
        before = np.argmax(core_io.read_tensor(paths["unary"]), axis=1)[spmap]
        after = np.argmax(core_io.read_tensor(paths["crf"]), axis=1)[spmap]
        unit.artifacts = {key: _sha256_file(paths[key])
                          for key in ("superpixels", "features", "crf")}
        unit.quality = {
            "miou": metrics.mean_iou(metrics.confusion(before, gt, self.classes)),
            "miou_crf": metrics.mean_iou(metrics.confusion(after, gt, self.classes)),
        }


WORKLOADS = {w.name: w for w in (SupervisedBlobs(), WeakPoints(), RegionZoom())}

