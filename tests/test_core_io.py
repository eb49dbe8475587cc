import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zok.core_io import (_D65_WHITE, _SRGB_TO_XYZ, FormatError, read_pgm, read_ppm,
                         read_tensor, rgb_to_lab, write_pgm, write_ppm, write_tensor)
from zok.learner import MlpModel, init_model, read_model, write_model


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
        with pytest.raises(FormatError, match="payload size mismatch"):
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


# The readers as they were before they shared one reader frame: each read
# its own file and checked its own magic, and the Netpbm header was parsed
# byte by byte.  They take the file's bytes; the path prefix of a message is
# not compared.

def reference_read_pnm_header(data, magic):
    if data[:2] != magic:
        raise FormatError(f"wrong magic: expected {magic!r}, got {data[:2]!r}")
    pos = 2
    tokens = []
    while len(tokens) < 3:
        if pos >= len(data):
            raise FormatError("truncated header")
        c = data[pos : pos + 1]
        if c == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(data) and not data[pos : pos + 1].isspace():
                pos += 1
            tokens.append(data[start:pos])
    pos += 1  # the single whitespace byte before the payload
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"bad header token: {exc}") from exc
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}")
    return width, height, maxval, pos


def reference_read_ppm(data):
    width, height, maxval, pos = reference_read_pnm_header(data, b"P6")
    if maxval != 255:
        raise FormatError(f"maxval must be 255, got {maxval}")
    payload = data[pos:]
    expected = width * height * 3
    if len(payload) != expected:
        raise FormatError(f"truncated payload: expected {expected} bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3).copy()


def reference_read_pgm(data):
    width, height, maxval, pos = reference_read_pnm_header(data, b"P5")
    if not 1 <= maxval <= 65535:
        raise FormatError(f"maxval out of range: {maxval}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    payload = data[pos:]
    expected = width * height * dtype.itemsize
    if len(payload) != expected:
        raise FormatError(f"truncated payload: expected {expected} bytes, got {len(payload)}")
    arr = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    return arr.astype(np.uint16)


_REFERENCE_ZOT_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<u4"), 2: np.dtype("<u2")}


def reference_read_tensor(data):
    if data[:4] != b"ZOT1":
        raise FormatError(f"wrong magic: {data[:4]!r}")
    if len(data) < 6:
        raise FormatError("truncated header")
    code, rank = data[4], data[5]
    if code not in _REFERENCE_ZOT_DTYPES:
        raise FormatError(f"unknown dtype code {code}")
    if not 1 <= rank <= 4:
        raise FormatError(f"rank must be 1..4, got {rank}")
    header_end = 6 + 4 * rank
    if len(data) < header_end:
        raise FormatError("truncated dims")
    dims = struct.unpack("<" + "I" * rank, data[6:header_end])
    if any(d < 1 for d in dims):
        raise FormatError(f"bad dims {dims}")
    dtype = _REFERENCE_ZOT_DTYPES[code]
    expected = math.prod(dims) * dtype.itemsize
    payload = data[header_end:]
    if len(payload) != expected:
        raise FormatError(f"payload size mismatch: expected {expected} bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()


def reference_read_model(data):
    if data[:4] != b"ZOM1":
        raise FormatError(f"wrong magic: {data[:4]!r}")
    pos = 4

    def take(nbytes, what):
        nonlocal pos
        if pos + nbytes > len(data):
            raise FormatError(f"truncated {what}: needs {nbytes} bytes at offset {pos}, "
                              f"file has {len(data)}")
        pos += nbytes
        return data[pos - nbytes : pos]

    def floats(count, what):
        values = np.frombuffer(take(count * 4, what), dtype="<f4")
        if not np.isfinite(values).all():
            raise FormatError(f"non-finite {what}")
        return values.astype(np.float64)

    num_classes, nlayers = struct.unpack("<II", take(8, "header"))
    if nlayers == 0:
        raise FormatError("model has no layers")
    weights, biases = [], []
    for layer in range(nlayers):
        in_dim, out_dim = struct.unpack("<II", take(8, f"layer {layer} header"))
        if weights and in_dim != weights[-1].shape[0]:
            raise FormatError(f"layer {layer} input size {in_dim} != previous output size "
                              f"{weights[-1].shape[0]}")
        weights.append(floats(in_dim * out_dim, f"layer {layer} weights").reshape(out_dim, in_dim))
        biases.append(floats(out_dim, f"layer {layer} bias"))
    d = weights[0].shape[1]
    mean = floats(d, "mean")
    std = floats(d, "std")
    if pos != len(data):
        raise FormatError("payload size mismatch")
    if weights[-1].shape[0] != num_classes:
        raise FormatError("declared class count disagrees with final layer")
    return MlpModel(weights, biases, mean, std)


_READERS = {"ppm": (read_ppm, reference_read_ppm), "pgm": (read_pgm, reference_read_pgm),
            "tensor": (read_tensor, reference_read_tensor),
            "model": (read_model, reference_read_model)}


def _outcome(read, arg):
    """(dtype, shape, bytes) of every array read returns, or None on FormatError."""
    try:
        result = read(arg)
    except FormatError:
        return None
    parts = ([result] if isinstance(result, np.ndarray)
             else [*result.weights, *result.biases, result.mean, result.std])
    return [(p.dtype.str, p.shape, p.tobytes()) for p in parts]


def assert_reads_as_reference(kind, data, path):
    """The reader and its reference agree on data: equal arrays, or both refuse it."""
    read, reference = _READERS[kind]
    with open(path, "wb") as fh:
        fh.write(data)
    assert _outcome(read, path) == _outcome(reference, data), data


# Every byte the header tokenizer must tell apart: the six ASCII whitespace
# bytes, the comment mark and newline, and bytes that str.isspace() (but not
# bytes.isspace()) calls whitespace.
_HEADER_BYTES = b" \t\n\r\x0b\x0c#\x1c\x1d\x1e\x1f\x85\xa0+-_0123456789a"


def _random_pnm(rng, magic):
    """A Netpbm file with random separators, comments and damaged tokens."""
    def junk(n):
        return bytes(rng.choice(list(_HEADER_BYTES), size=n).tolist())

    def space():
        i = rng.integers(6)
        return b" \t\n\r\x0b\x0c"[i : i + 1]

    def sep():
        parts = [space()]
        for _ in range(rng.integers(0, 3)):
            if rng.random() < 0.5:
                parts.append(b"#" + junk(rng.integers(0, 6)).replace(b"\n", b"") + b"\n")
            else:
                parts.append(space())
        return b"".join(parts) if rng.random() < 0.95 else junk(rng.integers(0, 4))

    width, height = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    maxval = int(rng.choice([255, 255, 255, 65535, 127]))
    tokens = [b"%d" % v for v in (width, height, maxval)]
    if rng.random() < 0.2:  # a # or a stray byte inside or after a token
        i = rng.integers(3)
        tokens[i] = tokens[i] + junk(rng.integers(1, 3))
    samples = width * height * (3 if magic == b"P6" else 1) * (2 if maxval > 255 else 1)
    payload = bytes(rng.integers(0, 256, size=samples + int(rng.choice([0, 0, 0, 0, 0, 0, -1, 1]))).tolist())
    head = magic + b"".join(sep() + t for t in tokens)
    return head + (space() if rng.random() < 0.9 else junk(1)) + payload


class TestReadersMatchReference:
    """One reader frame and the token regex read every file as the old
    per-format readers and the byte-loop header parser did."""

    @pytest.mark.parametrize("kind,magic", [("ppm", b"P6"), ("pgm", b"P5")])
    def test_random_headers(self, tmp_path, kind, magic):
        rng = np.random.default_rng(23)
        read_ok = 0
        for _ in range(1500):
            data = _random_pnm(rng, magic)
            assert_reads_as_reference(kind, data, tmp_path / "f")
            read_ok += _outcome(_READERS[kind][1], data) is not None
        assert 150 < read_ok < 1350  # both outcomes are well represented

    @pytest.mark.parametrize("kind", list(_READERS))
    @pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(dims=st.lists(st.integers(1, 3), min_size=2, max_size=4),
           seed=st.integers(0, 2**31))
    def test_every_prefix_and_bit_flip(self, kind, dims, seed):
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            path = tmp + "/f"
            _write_valid(kind, dims, seed, path)
            with open(path, "rb") as fh:
                data = fh.read()
            for n in range(len(data) + 1):
                assert_reads_as_reference(kind, data[:n], path)
            for bit in range(8 * len(data)):
                flipped = bytearray(data)
                flipped[bit // 8] ^= 1 << (bit % 8)
                assert_reads_as_reference(kind, bytes(flipped), path)


def _scalar_lab_l(gray):
    """Independent scalar CIE computation for a gray sRGB level."""
    c = gray / 255.0
    lin = c / 12.92 if c <= 0.04045 else ((c + 0.055) / 1.055) ** 2.4
    y = lin * 0.2126729 + lin * 0.7151522 + lin * 0.0721750  # Y of the sRGB matrix
    t = y / 1.0  # D65 white has Yn = 1
    f = t ** (1 / 3) if t > (6 / 29) ** 3 else t / (3 * (6 / 29) ** 2) + 4 / 29
    return 116 * f - 16


def reference_rgb_to_lab(img):
    """The former rgb_to_lab: the sRGB transfer function run per channel value."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got shape {img.shape}")
    c = img.astype(np.float64) / 255.0
    linear = np.where(c <= 0.04045, c / 12.92, ((c + 0.055) / 1.055) ** 2.4)
    xyz = linear @ _SRGB_TO_XYZ.T
    t = xyz / _D65_WHITE
    delta = 6.0 / 29.0
    f = np.where(t > delta**3, np.cbrt(t), t / (3.0 * delta**2) + 4.0 / 29.0)
    lab = np.empty_like(f)
    lab[..., 0] = 116.0 * f[..., 1] - 16.0
    lab[..., 1] = 500.0 * (f[..., 0] - f[..., 1])
    lab[..., 2] = 200.0 * (f[..., 1] - f[..., 2])
    return lab


def assert_lab_as_reference(img):
    got, want = rgb_to_lab(img), reference_rgb_to_lab(img)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestRgbToLab:
    @pytest.mark.parametrize("length", [1, 7, 256, 257])
    def test_every_level_matches_reference(self, length):
        # every level in every channel, at a length that fills whole SIMD
        # vectors (256) or leaves a tail (1, 7, 257), as a row and as a column
        levels = np.arange(256)
        pixels = np.stack([levels, (levels + 85) % 256, (levels + 170) % 256], axis=1)
        pixels = np.resize(pixels.astype(np.uint8), (-(-256 // length) * length, 3))
        for start in range(0, len(pixels), length):
            chunk = pixels[start:start + length]
            assert_lab_as_reference(chunk.reshape(1, length, 3))
            assert_lab_as_reference(chunk.reshape(length, 1, 3))

    def test_strided_views_match_reference(self):
        img = np.random.default_rng(0).integers(0, 256, (40, 48, 3), dtype=np.uint8)
        for view in (img, img[:, ::-1], img[::2, ::3], img[::-1, :, ::-1],
                     img.transpose(1, 0, 2)):
            assert_lab_as_reference(view)

    @pytest.mark.parametrize("img", [
        np.full((1, 1, 3), 300.0), np.full((1, 1, 3), -5.0),
        np.full((1, 1, 3), 128.0), np.full((1, 1, 3), 128, dtype=np.int64),
        np.full((1, 1, 3), 128, dtype=np.uint16), np.ones((1, 1, 3), dtype=bool),
        np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 2, 4), dtype=np.uint8)])
    def test_refuses_all_but_uint8_rgb(self, img):
        with pytest.raises(ValueError, match=r"expected \(H, W, 3\) uint8 image"):
            rgb_to_lab(img)

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
