import numpy as np
import pytest

from zok.core_io import rgb_to_lab
from zok.synth import (SyntheticSpec, default_palette, generate_dataset,
                       generate_image, lab_to_rgb, load_dataset,
                       synth_generate)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticSpec(kind="donuts")
