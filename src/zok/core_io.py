"""Image, label-map, depth and tensor containers with bit-exact file I/O.

Everything in this package passes plain numpy arrays around:

* RGB image   -- ``(H, W, 3) uint8``, sRGB
* Lab image   -- ``(H, W, 3) float64``; L in [0, 100], a/b roughly [-128, 127]
* label map   -- ``(H, W)`` integer array; an "ignore" value (255 by the
  usual VOC convention) marks unlabeled pixels
* depth map   -- ``(H, W) float64`` meters; entries > 0 are valid
* tensor      -- any 1..4-D array with dtype float32, uint32 or uint16

Files: binary PPM (P6) for RGB images, binary PGM (P5) for label maps
(16-bit big-endian samples when maxval > 255, per the Netpbm convention),
and the little-endian "ZOT1" container for tensors.  All formats
round-trip exactly.  Functions never mutate their inputs.
"""

import functools
import itertools
import math
import re
import struct

import numpy as np


class FormatError(Exception):
    """A file does not conform to its declared on-disk format."""


def _reader(magic):
    """Make parse(data) a reader of one file, read(path).

    The reader reads the whole file, checks that it starts with magic and
    starts every FormatError message with the path.
    """
    def frame(parse):
        @functools.wraps(parse)
        def read(path):
            with open(path, "rb") as fh:
                data = fh.read()
            try:
                if not data.startswith(magic):
                    raise FormatError(f"wrong magic: expected {magic!r}, "
                                      f"got {data[:len(magic)]!r}")
                return parse(data)
            except FormatError as exc:
                raise FormatError(f"{path}: {exc}") from None
        return read
    return frame


def _payload(data, pos, shape, dtype):
    """A fresh array of shape and dtype from data[pos:], which must hold it exactly."""
    payload = memoryview(data)[pos:]
    expected = math.prod(shape) * dtype.itemsize  # a Python int: never wraps
    if len(payload) != expected:
        raise FormatError(f"payload size mismatch: expected {expected} bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


# ZOT1 dtype codes.
_ZOT_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<u4"), 2: np.dtype("<u2")}
_ZOT_CODES = {dtype.newbyteorder("="): code for code, dtype in _ZOT_DTYPES.items()}

# A Netpbm header token: a comment (# to end of line) or a run of
# non-whitespace bytes, in which a # is an ordinary byte.
_PNM_TOKEN = re.compile(rb"#[^\n]*|\S+")


def _pnm_header(data):
    """Parse a binary Netpbm header; return (width, height, maxval, offset).

    Comments and runs of whitespace are permitted between tokens; exactly
    one byte, whitespace by convention, separates the maxval from the payload.
    """
    fields = (m for m in _PNM_TOKEN.finditer(data, 2) if m[0][:1] != b"#")
    tokens = list(itertools.islice(fields, 3))
    if len(tokens) < 3:
        raise FormatError("truncated header")
    try:
        width, height, maxval = (int(t[0]) for t in tokens)
    except ValueError as exc:
        raise FormatError(f"bad header token: {exc}") from exc
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}")
    return width, height, maxval, tokens[2].end() + 1


@_reader(b"P6")
def read_ppm(data):
    """Read a binary PPM (P6, maxval 255) into an (H, W, 3) uint8 array."""
    width, height, maxval, pos = _pnm_header(data)
    if maxval != 255:
        raise FormatError(f"maxval must be 255, got {maxval}")
    return _payload(data, pos, (height, width, 3), np.dtype(np.uint8))


def write_ppm(img, path):
    """Write an (H, W, 3) uint8 array as binary PPM."""
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError(f"expected (H, W, 3) uint8 image, got {img.shape} {img.dtype}")
    height, width = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (width, height))
        fh.write(img.tobytes())


@_reader(b"P5")
def read_pgm(data):
    """Read a binary PGM (P5) label map into an (H, W) uint16 array.

    Samples are 1 byte for maxval <= 255 and 2 bytes big-endian
    otherwise.  Values are preserved exactly.
    """
    width, height, maxval, pos = _pnm_header(data)
    if not 1 <= maxval <= 65535:
        raise FormatError(f"maxval out of range: {maxval}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    return _payload(data, pos, (height, width), dtype).astype(np.uint16)


def write_pgm(labels, path):
    """Write an (H, W) integer label map as binary PGM.

    Maxval 255 is used when all values fit in 8 bits, 65535 otherwise.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"expected a 2-D label map, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() > 65535):
        raise ValueError("label value exceeds 16-bit range")
    maxval = 255 if labels.max(initial=0) <= 255 else 65535
    dtype = np.dtype("u1") if maxval == 255 else np.dtype(">u2")
    height, width = labels.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n%d\n" % (width, height, maxval))
        fh.write(labels.astype(dtype).tobytes())


@_reader(b"ZOT1")
def read_tensor(data):
    """Read a ZOT1 tensor file into a numpy array (little-endian payload)."""
    if len(data) < 6:
        raise FormatError("truncated header")
    code, rank = data[4], data[5]
    if code not in _ZOT_DTYPES:
        raise FormatError(f"unknown dtype code {code}")
    if not 1 <= rank <= 4:
        raise FormatError(f"rank must be 1..4, got {rank}")
    header_end = 6 + 4 * rank
    if len(data) < header_end:
        raise FormatError("truncated dims")
    dims = struct.unpack("<" + "I" * rank, data[6:header_end])
    if any(d < 1 for d in dims):
        raise FormatError(f"bad dims {dims}")
    return _payload(data, header_end, dims, _ZOT_DTYPES[code])


def write_tensor(arr, path):
    """Write a 1..4-D float32/uint32/uint16 array as a ZOT1 file."""
    arr = np.ascontiguousarray(arr)
    base = arr.dtype.newbyteorder("=")
    if base not in _ZOT_CODES:
        raise ValueError(f"unsupported dtype {arr.dtype}; use float32, uint32 or uint16")
    if not 1 <= arr.ndim <= 4:
        raise ValueError(f"rank must be 1..4, got {arr.ndim}")
    if any(d < 1 for d in arr.shape):
        raise ValueError(f"dims must all be >= 1, got {arr.shape}")
    with open(path, "wb") as fh:
        fh.write(b"ZOT1")
        fh.write(bytes([_ZOT_CODES[base], arr.ndim]))
        fh.write(struct.pack("<" + "I" * arr.ndim, *arr.shape))
        fh.write(arr.astype(arr.dtype.newbyteorder("<")).tobytes())


# sRGB (D65) to XYZ, published IEC 61966-2-1 matrix.
_SRGB_TO_XYZ = np.array(
    [
        [0.4124564, 0.3575761, 0.1804375],
        [0.2126729, 0.7151522, 0.0721750],
        [0.0193339, 0.1191920, 0.9503041],
    ]
)
_D65_WHITE = np.array([0.95047, 1.0, 1.08883])


def _srgb_linear_table():
    """The piecewise sRGB transfer function at each 8-bit level."""
    c = np.arange(256) / 255.0
    return np.where(c <= 0.04045, c / 12.92, ((c + 0.055) / 1.055) ** 2.4)


_SRGB_LINEAR = _srgb_linear_table()


def rgb_to_lab(img):
    """Convert an (H, W, 3) uint8 sRGB image to float64 CIELAB (D65).

    Applies the standard piecewise sRGB transfer function (tabulated per
    8-bit level, so other dtypes raise ValueError), the published
    sRGB->XYZ matrix and the CIE L*a*b* formulas with the D65 white point.
    """
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[2] != 3 or img.dtype != np.uint8:
        raise ValueError(f"expected (H, W, 3) uint8 image, got {img.shape} {img.dtype}")
    xyz = _SRGB_LINEAR[img] @ _SRGB_TO_XYZ.T
    t = xyz / _D65_WHITE
    delta = 6.0 / 29.0
    f = np.where(t > delta**3, np.cbrt(t), t / (3.0 * delta**2) + 4.0 / 29.0)
    lab = np.empty_like(f)
    lab[..., 0] = 116.0 * f[..., 1] - 16.0
    lab[..., 1] = 500.0 * (f[..., 0] - f[..., 1])
    lab[..., 2] = 200.0 * (f[..., 1] - f[..., 2])
    return lab
