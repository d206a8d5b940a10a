"""File formats: raw tensors (LRT1), masks (LRM1), PPM/PGM images,
traffic-matrix CSVs and their tensorizations.

The LRT1 tensor format is: magic ``b"LRT1"``, uint32 order N, N uint32
dimensions, then the float64 payload in mode-1 lexicographic order (first
index fastest), everything little-endian. The LRM1 mask format replaces the
payload with a uint64 count and that many ascending uint64 flat indices in
the same order, the ``ObservationMask.fortran_positions()`` of the mask.
"""

import math
import os
import stat

import numpy as np

from .tensor import ObservationMask

__all__ = [
    "FileFormatError",
    "read_tensor",
    "write_tensor",
    "read_mask",
    "write_mask",
    "read_image",
    "write_image",
    "read_traffic_csv",
    "tensorize",
]

TENSOR_MAGIC = b"LRT1"
MASK_MAGIC = b"LRM1"
MAX_ELEMENTS = 1 << 40  # dims-overflow guard


class FileFormatError(ValueError):
    """Malformed or truncated on-disk data."""


def _read_exact(f, n, what):
    """`n` bytes from `f`. A regular file's remaining size is checked
    first, so a header that declares more payload than the file holds is a
    FileFormatError before any buffer of that size is allocated."""
    st = os.fstat(f.fileno())
    if stat.S_ISREG(st.st_mode) and n > st.st_size - f.tell():
        raise FileFormatError(f"truncated file while reading {what}")
    buf = f.read(n)
    if len(buf) != n:
        raise FileFormatError(f"truncated file while reading {what}")
    return buf


def _read_header(f, magic):
    got = f.read(len(magic))
    if got != magic:
        raise FileFormatError(f"bad magic {got!r}, expected {magic!r}")
    (order,) = np.frombuffer(_read_exact(f, 4, "order"), dtype="<u4")
    if order < 1:
        raise FileFormatError(f"invalid tensor order {order}")
    dims = tuple(
        int(d)
        for d in np.frombuffer(_read_exact(f, 4 * int(order), "dims"), "<u4")
    )
    if min(dims) < 1:
        raise FileFormatError(f"invalid dims {dims}")
    # Python ints: a product that passes int64 must not wrap
    total = math.prod(dims)
    if total > MAX_ELEMENTS:
        raise FileFormatError(f"dims {dims} overflow element budget")
    return dims, total


def _header(magic, dims):
    """The header for `dims`, checked against :func:`_read_header`'s rule
    before any file is opened, so no writer leaves a file a reader
    refuses."""
    valid = dims and all(0 < d < 2**32 for d in dims)
    if not valid or math.prod(dims) > MAX_ELEMENTS:
        raise ValueError(
            f"cannot write dims {dims}: need at least one dim, each in "
            f"[1, 2**32 - 1], and at most {MAX_ELEMENTS} entries"
        )
    return magic + np.asarray([len(dims), *dims], dtype="<u4").tobytes()


def read_tensor(path):
    """Read an LRT1 tensor file."""
    with open(path, "rb") as f:
        dims, total = _read_header(f, TENSOR_MAGIC)
        payload = np.frombuffer(
            _read_exact(f, 8 * total, "payload"), dtype="<f8"
        )
        if f.read(1):
            raise FileFormatError("trailing bytes after payload")
    return payload.reshape(dims, order="F").copy()


def write_tensor(path, tensor):
    """Write an LRT1 tensor file; bit-exact round trip with read_tensor."""
    tensor = np.asarray(tensor, dtype=np.float64)
    header = _header(TENSOR_MAGIC, tensor.shape)
    with open(path, "wb") as f:
        f.write(header)
        f.write(
            tensor.ravel(order="F").astype("<f8", copy=False).tobytes()
        )


def read_mask(path):
    """Read an LRM1 observation-mask file."""
    with open(path, "rb") as f:
        dims, total = _read_header(f, MASK_MAGIC)
        (count,) = np.frombuffer(_read_exact(f, 8, "count"), dtype="<u8")
        if count > total:
            raise FileFormatError(
                f"mask count {count} exceeds element count {total}"
            )
        flat = np.frombuffer(
            _read_exact(f, 8 * int(count), "indices"), dtype="<u8"
        )
        if f.read(1):
            raise FileFormatError("trailing bytes after indices")
    if flat.size and flat.max() >= total:
        raise FileFormatError("mask index out of range")
    return ObservationMask.from_fortran_positions(dims, flat)


def write_mask(path, mask):
    """Write an LRM1 observation-mask file."""
    header = _header(MASK_MAGIC, mask.dims)
    flat = mask.fortran_positions()
    with open(path, "wb") as f:
        f.write(header)
        f.write(np.asarray([flat.size], dtype="<u8").tobytes())
        f.write(flat.astype("<u8").tobytes())


def _read_pnm_header(f):
    # header tokens may be separated by whitespace and '#' comments
    magic = f.read(2)
    if magic not in (b"P5", b"P6"):
        raise FileFormatError(f"unsupported image magic {magic!r}")
    tokens = []
    while len(tokens) < 3:
        c = f.read(1)
        if not c:
            raise FileFormatError("truncated image header")
        if c == b"#":
            while c not in (b"\n", b""):
                c = f.read(1)
        elif c.isspace():
            continue
        else:
            tok = c
            c = f.read(1)
            while c and not c.isspace() and c != b"#":
                tok += c
                c = f.read(1)
            if c == b"#":
                while c not in (b"\n", b""):
                    c = f.read(1)
            tokens.append(tok)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as e:
        raise FileFormatError(f"malformed image header: {e}") from e
    if width < 1 or height < 1:
        raise FileFormatError(f"invalid image size {width}x{height}")
    if maxval != 255:
        raise FileFormatError(f"only maxval 255 supported, got {maxval}")
    return magic, width, height


def read_image(path):
    """Read a binary PPM (P6) or PGM (P5) image as an H x W x C tensor.

    Pixels land in [0, 255] as float64; C is 3 for P6 and 1 for P5.
    """
    with open(path, "rb") as f:
        magic, width, height = _read_pnm_header(f)
        channels = 3 if magic == b"P6" else 1
        n = width * height * channels
        raw = np.frombuffer(_read_exact(f, n, "pixel data"), dtype=np.uint8)
    return raw.astype(np.float64).reshape(height, width, channels)


def write_image(path, tensor):
    """Write an H x W x C tensor as binary PPM (C=3) or PGM (C=1).

    Values are rounded half away from zero and clamped to [0, 255], so a
    read/write round trip on decoded files is exact.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.ndim != 3 or tensor.shape[2] not in (1, 3):
        raise ValueError(
            f"expected H x W x 1 or H x W x 3 tensor, got {tensor.shape}"
        )
    height, width, channels = tensor.shape
    # on [0, 255], floor(t + 0.5) is rounding half away from zero, so
    # clamping first gives the same bytes in three passes
    pixels = np.clip(tensor, 0.0, 255.0)
    pixels += 0.5
    np.floor(pixels, out=pixels)
    magic = b"P6" if channels == 3 else b"P5"
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (width, height))
        f.write(pixels.astype(np.uint8, order="C"))


def read_traffic_csv(path):
    """Read a rectangular CSV of finite reals as a 2-D matrix.

    A UTF-8 byte-order mark at the start of the file, as spreadsheet
    exports write, is skipped. A field with an underscore is non-numeric,
    although Python's ``float`` reads ``1_0`` as 10.0.
    """
    rows = []
    with open(path, "r", encoding="utf-8-sig") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            try:
                if "_" in line:
                    field = next(v for v in fields if "_" in v)
                    raise ValueError(f"digit group separator in {field!r}")
                row = [float(v) for v in fields]
            except ValueError as e:
                raise FileFormatError(
                    f"{path}:{lineno}: non-numeric field ({e})"
                ) from e
            if not all(math.isfinite(v) for v in row):
                raise FileFormatError(f"{path}:{lineno}: non-finite field")
            rows.append(row)
    if not rows:
        raise FileFormatError(f"{path}: empty CSV")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise FileFormatError(f"{path}: ragged rows")
    return np.asarray(rows, dtype=np.float64)


def tensorize(matrix, directive):
    """Reshape a traffic matrix into an OTD or OOT tensor.

    directive is ("otd", pairs, intervals_per_day, days) for a pairs x
    (days*intervals) matrix with day-major columns, giving entry
    (pair, t, d) = matrix[pair, d*T + t]; or ("oot", sources, destinations,
    intervals) for an (S*D) x intervals matrix with column-major pair rows,
    giving entry (s, d, t) = matrix[d*S + s, t].
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {matrix.shape}")
    kind, *shape = directive
    shape = tuple(int(v) for v in shape)
    if len(shape) != 3:
        raise ValueError(f"directive needs three dimensions, got {shape}")
    if kind == "otd":
        pairs, intervals, days = shape
        if matrix.shape != (pairs, days * intervals):
            raise ValueError(
                f"matrix {matrix.shape} does not match OTD"
                f"({pairs},{intervals},{days})"
            )
        return np.transpose(
            matrix.reshape(pairs, days, intervals), (0, 2, 1)
        ).copy()
    if kind == "oot":
        sources, dests, intervals = shape
        if matrix.shape != (sources * dests, intervals):
            raise ValueError(
                f"matrix {matrix.shape} does not match OOT"
                f"({sources},{dests},{intervals})"
            )
        return matrix.reshape((sources, dests, intervals), order="F").copy()
    raise ValueError(f"unknown tensorization kind {kind!r}")
