import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from zok.core_io import rgb_to_lab, write_pgm, write_ppm
from zok.synth import (_GENERATORS, SyntheticSpec, _gt_blobs, default_palette,
                       generate_dataset, generate_image, lab_to_rgb, load_dataset,
                       synth_generate)


def reference_gt_blobs(spec, rng):
    """The former _gt_blobs: every ellipse tested against the whole grid."""
    size = spec.size
    gt = np.zeros((size, size), dtype=np.int32)
    ys, xs = np.mgrid[0:size, 0:size]
    nblobs = int(rng.integers(3, 7))
    for _ in range(nblobs):
        cls = int(rng.integers(1, spec.num_classes))
        cy, cx = rng.uniform(0, size, size=2)
        ry = rng.uniform(size // 8, size // 3)
        rx = rng.uniform(size // 8, size // 3)
        mask = ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 <= 1.0
        gt[mask] = cls
    return gt


def reference_generate_image(spec, rng):
    """The former generate_image: lab_to_rgb run once per pixel."""
    gt = {**_GENERATORS, "blobs": reference_gt_blobs}[spec.kind](spec, rng)
    rgb = lab_to_rgb(default_palette(spec.num_classes)[gt]).astype(np.float64)
    if spec.noise_sigma > 0:
        rgb = rgb + rng.normal(0.0, spec.noise_sigma, size=rgb.shape)
    return np.clip(np.rint(rgb), 0, 255).astype(np.uint8), gt


class TestMatchesReference:
    """The palette conversion and the boxed blob tests change no byte."""

    @pytest.mark.parametrize("kind", ["quadrants", "blobs", "stripes"])
    @pytest.mark.parametrize("size", [3, 4, 5, 7, 8, 17, 128, 256])
    def test_generate_image(self, kind, size):
        for classes in (2, 5, 9, 17, 64):
            for noise in (0.0, 8.0):
                spec = SyntheticSpec(size=size, num_classes=classes, kind=kind,
                                     noise_sigma=noise)
                for seed in range(3):
                    rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    img, gt = generate_image(spec, rng)
                    want_img, want_gt = reference_generate_image(spec, want_rng)
                    assert img.dtype == want_img.dtype and gt.dtype == want_gt.dtype
                    assert img.tobytes() == want_img.tobytes()
                    assert gt.tobytes() == want_gt.tobytes()
                    assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_gt_blobs_at_small_sizes(self):
        # at these sizes radii can be under one pixel and most boxes meet the border
        for size in range(3, 13):
            spec = SyntheticSpec(size=size, num_classes=7, kind="blobs")
            for seed in range(100):
                got = _gt_blobs(spec, np.random.default_rng(seed))
                want = reference_gt_blobs(spec, np.random.default_rng(seed))
                assert np.array_equal(got, want), (size, seed)


class TestLabToRgb:
    def test_palette_roundtrip_in_gamut(self):
        pal = default_palette(8)
        back = rgb_to_lab(lab_to_rgb(pal).reshape(1, -1, 3)).reshape(-1, 3)
        assert np.abs(back - pal).max() < 0.5

    def test_white_and_black(self):
        assert np.array_equal(lab_to_rgb(np.array([100.0, 0.0, 0.0])), [255, 255, 255])
        assert np.array_equal(lab_to_rgb(np.array([0.0, 0.0, 0.0])), [0, 0, 0])


class TestGeneration:
    def test_quadrants_layout(self):
        spec = SyntheticSpec(size=32, num_classes=4, kind="quadrants")
        _, gt = generate_image(spec, np.random.default_rng(0))
        assert np.all(gt[:16, :16] == 0) and np.all(gt[:16, 16:] == 1)
        assert np.all(gt[16:, :16] == 2) and np.all(gt[16:, 16:] == 3)

    def test_noiseless_colors_exact(self):
        spec = SyntheticSpec(size=16, num_classes=4, kind="quadrants", noise_sigma=0.0)
        img, gt = generate_image(spec, np.random.default_rng(0))
        expected = lab_to_rgb(default_palette(spec.num_classes)[gt])
        assert np.array_equal(img, expected)

    def test_blobs_cover_foreground_classes(self):
        spec = SyntheticSpec(size=64, num_classes=5, kind="blobs")
        labels = set()
        for img, gt in generate_dataset(spec, 10, seed=3):
            labels |= set(np.unique(gt).tolist())
        assert labels == set(range(5))

    def test_stripes_straight_boundaries(self):
        spec = SyntheticSpec(size=30, num_classes=3, kind="stripes")
        _, gt = generate_image(spec, np.random.default_rng(0))
        assert np.all(gt == gt[0])          # columns constant
        assert set(np.unique(gt)) == {0, 1, 2}

    def test_same_seed_identical_files(self, tmp_path):
        spec = SyntheticSpec(size=24, num_classes=4, kind="blobs", noise_sigma=6.0)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        synth_generate(spec, 3, 11, d1)
        synth_generate(spec, 3, 11, d2)
        for f in sorted(p.name for p in d1.iterdir()):
            assert (d1 / f).read_bytes() == (d2 / f).read_bytes()

    def test_load_dataset_roundtrip(self, tmp_path):
        spec = SyntheticSpec(size=16, num_classes=3, kind="stripes")
        synth_generate(spec, 2, 0, tmp_path)
        pairs = load_dataset(tmp_path)
        assert len(pairs) == 2
        img, gt = pairs[0]
        assert img.shape == (16, 16, 3) and gt.shape == (16, 16)

    def test_files_match_generate_dataset(self, tmp_path):
        spec = SyntheticSpec(size=20, num_classes=4, kind="blobs", noise_sigma=6.0)
        paths = synth_generate(spec, 4, 7, tmp_path)
        pairs = generate_dataset(spec, 4, 7)
        assert len(paths) == len(pairs) == 4
        for i, (img, gt) in enumerate(pairs):
            write_ppm(img, tmp_path / "want.ppm")
            write_pgm(gt, tmp_path / "want.pgm")
            assert Path(paths[i][0]).read_bytes() == (tmp_path / "want.ppm").read_bytes()
            assert Path(paths[i][1]).read_bytes() == (tmp_path / "want.pgm").read_bytes()

    def test_peak_memory_holds_one_image(self, tmp_path):
        # each pair is written as it is made; holding all 24 would add
        # 22 * 128^2 * (3 + 4) bytes over 2 pairs, about 2.5 MB.  The first,
        # untraced call takes the allocations a first call makes once.
        spec = SyntheticSpec(size=128, num_classes=4, kind="blobs", noise_sigma=6.0)
        synth_generate(spec, 1, 3, tmp_path / "warm-up")
        peaks = []
        for count in (2, 24):
            tracemalloc.start()
            try:
                synth_generate(spec, count, 3, tmp_path / str(count))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0] + 128 * 128 * (3 + 4)

    @pytest.mark.parametrize("size", [3, 4, 5, 6, 7, 8])
    def test_small_blobs_generate_cleanly(self, size):
        # every radius is drawn from [size // 8, size // 3], which is 0 below 3
        spec = SyntheticSpec(size=size, num_classes=3, kind="blobs")
        for img, gt in generate_dataset(spec, 5, seed=size):
            assert img.shape == (size, size, 3) and gt.shape == (size, size)

    def test_more_classes_than_16_bit_labels_write_nothing(self, tmp_path):
        spec = SyntheticSpec(size=8, num_classes=65537, kind="stripes")
        with pytest.raises(ValueError, match="65536"):
            synth_generate(spec, 1, 0, tmp_path / "data")
        assert not (tmp_path / "data").exists()
        spec = SyntheticSpec(size=8, num_classes=65536, kind="stripes")
        synth_generate(spec, 1, 0, tmp_path / "data")

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticSpec(kind="donuts")
        with pytest.raises(ValueError, match="size >= 3"):
            SyntheticSpec(size=2, kind="blobs")
        SyntheticSpec(size=2, kind="quadrants")  # other kinds still accept it
        for noise in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise_sigma"):
                SyntheticSpec(noise_sigma=noise)
