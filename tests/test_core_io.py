import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zok.core_io import (FormatError, read_pgm, read_ppm, read_tensor,
                         rgb_to_lab, write_pgm, write_ppm, write_tensor)
from zok.learner import init_model, read_model, write_model


class TestPpm:
    def test_white_pixel_roundtrip(self, tmp_path):
        img = np.full((1, 1, 3), 255, dtype=np.uint8)
        path = tmp_path / "w.ppm"
        write_ppm(img, path)
        assert np.array_equal(read_ppm(path), img)

    def test_random_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        path = tmp_path / "r.ppm"
        write_ppm(img, path)
        assert np.array_equal(read_ppm(path), img)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(FormatError, match="wrong magic"):
            read_ppm(path)

    def test_bad_maxval(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n1 1\n127\n\x00\x00\x00")
        with pytest.raises(FormatError, match="maxval"):
            read_ppm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(FormatError, match="truncated"):
            read_ppm(path)

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# comment\n 2 1 # trailing\n255\n" + bytes(6))
        assert read_ppm(path).shape == (1, 2, 3)


class TestPgm:
    def test_zero_map_payload(self, tmp_path):
        path = tmp_path / "z.pgm"
        write_pgm(np.zeros((3, 3), dtype=np.int64), path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 3\n255\n")
        assert data.split(b"255\n", 1)[1] == bytes(9)

    def test_wide_values_force_16bit(self, tmp_path):
        labels = np.arange(301).reshape(7, 43)
        path = tmp_path / "wide.pgm"
        write_pgm(labels, path)
        assert b"65535" in path.read_bytes()[:24]
        assert np.array_equal(read_pgm(path), labels)

    def test_value_exceeds_16bit(self, tmp_path):
        with pytest.raises(ValueError, match="exceeds 16-bit"):
            write_pgm(np.array([[70000]]), tmp_path / "x.pgm")

    def test_8bit_roundtrip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 256, size=(4, 6))
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        write_pgm(labels, p1)
        write_pgm(read_pgm(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_16bit_samples_are_big_endian(self, tmp_path):
        path = tmp_path / "be.pgm"
        write_pgm(np.array([[0x0102]]), path)
        assert path.read_bytes().endswith(b"\x01\x02")


class TestZot:
    def test_single_float_is_14_bytes(self, tmp_path):
        path = tmp_path / "t.zot"
        write_tensor(np.array([1.0], dtype=np.float32), path)
        data = path.read_bytes()
        # magic(4) + dtype(1) + rank(1) + one u32 dim(4) + one f32(4)
        assert len(data) == 14
        assert data[:4] == b"ZOT1"
        assert data[4] == 0 and data[5] == 1

    def test_u32_roundtrip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        arr = rng.integers(0, 2**32, size=(2, 3, 4), dtype=np.uint32)
        p1, p2 = tmp_path / "a.zot", tmp_path / "b.zot"
        write_tensor(arr, p1)
        back = read_tensor(p1)
        assert np.array_equal(back, arr)
        write_tensor(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.zot"
        write_tensor(np.zeros((2, 2), dtype=np.float32), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError, match="payload size mismatch"):
            read_tensor(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.zot"
        path.write_bytes(b"ZOTX" + bytes(10))
        with pytest.raises(FormatError, match="wrong magic"):
            read_tensor(path)

    def test_bad_dtype_code(self, tmp_path):
        path = tmp_path / "t.zot"
        path.write_bytes(b"ZOT1" + bytes([9, 1]) + bytes(8))
        with pytest.raises(FormatError, match="dtype"):
            read_tensor(path)

    def test_dims_product_beyond_int64_is_size_mismatch(self, tmp_path):
        # 65536**4 elements wrap to 0 in int64; the header must not read as empty
        path = tmp_path / "t.zot"
        path.write_bytes(b"ZOT1" + bytes([0, 4]) + struct.pack("<4I", *[65536] * 4))
        with pytest.raises(FormatError, match="payload size mismatch"):
            read_tensor(path)

    def test_bad_rank(self, tmp_path):
        path = tmp_path / "t.zot"
        path.write_bytes(b"ZOT1" + bytes([0, 5]) + bytes(24))
        with pytest.raises(FormatError, match="rank"):
            read_tensor(path)

    def test_rejects_unsupported_dtype(self, tmp_path):
        with pytest.raises(ValueError, match="dtype"):
            write_tensor(np.zeros(3, dtype=np.float64), tmp_path / "t.zot")

    @settings(max_examples=25, deadline=None)
    @given(dims=st.lists(st.integers(1, 5), min_size=1, max_size=4),
           seed=st.integers(0, 2**31))
    def test_roundtrip_property(self, dims, seed):
        import tempfile

        rng = np.random.default_rng(seed)
        arr = rng.random(dims).astype(np.float32)
        with tempfile.TemporaryDirectory() as tmp:
            path = tmp + "/t.zot"
            write_tensor(arr, path)
            assert np.array_equal(read_tensor(path), arr)


def _write_valid(kind, dims, seed, path):
    """A small valid file of one format; returns its reader."""
    rng = np.random.default_rng(seed)
    h, w = dims[0], dims[-1]
    if kind == "ppm":
        write_ppm(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8), path)
        return read_ppm
    if kind == "pgm":
        top = 255 if seed % 2 else 65535  # 8- and 16-bit samples
        write_pgm(rng.integers(0, top + 1, size=(h, w)), path)
        return read_pgm
    if kind == "tensor":
        dtype = (np.float32, np.uint32, np.uint16)[seed % 3]
        write_tensor((rng.random(dims) * 1000).astype(dtype), path)
        return read_tensor
    write_model(init_model(list(dims), seed), path)
    return read_model


class TestReaderRobustness:
    """Damaged copies of valid PPM, PGM, ZOT1 and ZOM1 files."""

    @pytest.mark.parametrize("kind", ["ppm", "pgm", "tensor", "model"])
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(dims=st.lists(st.integers(1, 3), min_size=2, max_size=4),
           seed=st.integers(0, 2**31))
    def test_every_strict_prefix_raises_format_error(self, kind, dims, seed):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = tmp + "/f"
            reader = _write_valid(kind, dims, seed, path)
            with open(path, "rb") as fh:
                data = fh.read()
            for n in range(len(data)):
                with open(path, "wb") as fh:
                    fh.write(data[:n])
                with pytest.raises(FormatError):
                    reader(path)

    @pytest.mark.parametrize("kind", ["ppm", "pgm", "tensor", "model"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(dims=st.lists(st.integers(1, 3), min_size=2, max_size=4),
           seed=st.integers(0, 2**31))
    def test_every_bit_flip_reads_or_raises_format_error(self, kind, dims, seed):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = tmp + "/f"
            reader = _write_valid(kind, dims, seed, path)
            with open(path, "rb") as fh:
                data = bytearray(fh.read())
            for bit in range(8 * len(data)):
                data[bit // 8] ^= 1 << (bit % 8)
                with open(path, "wb") as fh:
                    fh.write(data)
                data[bit // 8] ^= 1 << (bit % 8)
                try:
                    reader(path)
                except FormatError:
                    pass


def _scalar_lab_l(gray):
    """Independent scalar CIE computation for a gray sRGB level."""
    c = gray / 255.0
    lin = c / 12.92 if c <= 0.04045 else ((c + 0.055) / 1.055) ** 2.4
    y = lin * 0.2126729 + lin * 0.7151522 + lin * 0.0721750  # Y of the sRGB matrix
    t = y / 1.0  # D65 white has Yn = 1
    f = t ** (1 / 3) if t > (6 / 29) ** 3 else t / (3 * (6 / 29) ** 2) + 4 / 29
    return 116 * f - 16


class TestRgbToLab:
    def test_white(self):
        lab = rgb_to_lab(np.full((1, 1, 3), 255, dtype=np.uint8))[0, 0]
        assert lab[0] == pytest.approx(100.0, abs=1e-3)
        assert abs(lab[1]) < 0.01 and abs(lab[2]) < 0.01

    def test_black(self):
        lab = rgb_to_lab(np.zeros((1, 1, 3), dtype=np.uint8))[0, 0]
        assert np.allclose(lab, 0.0, atol=1e-9)

    def test_mid_gray_reference_value(self):
        lab = rgb_to_lab(np.full((1, 1, 3), 119, dtype=np.uint8))[0, 0]
        assert lab[0] == pytest.approx(_scalar_lab_l(119), abs=1e-6)
        assert lab[0] == pytest.approx(49.9, abs=0.2)
        assert abs(lab[1]) < 0.2 and abs(lab[2]) < 0.2

    def test_grays_are_neutral_and_monotone(self):
        grays = np.arange(256, dtype=np.uint8).reshape(1, 256, 1)
        img = np.repeat(grays, 3, axis=2)
        lab = rgb_to_lab(img)[0]
        assert np.all(np.abs(lab[:, 1]) < 0.01)
        assert np.all(np.abs(lab[:, 2]) < 0.01)
        assert np.all(np.diff(lab[:, 0]) > 0)
        assert np.all((lab[:, 0] >= -1e-9) & (lab[:, 0] <= 100 + 1e-3))

    def test_payload_length_invariant(self, tmp_path):
        rng = np.random.default_rng(0)
        for dims in [(3,), (2, 3), (2, 3, 4), (1, 2, 3, 4)]:
            arr = rng.random(dims).astype(np.float32)
            path = tmp_path / "t.zot"
            write_tensor(arr, path)
            back = read_tensor(path)
            assert back.size * back.dtype.itemsize == math.prod(dims) * 4
