"""File formats: raw tensors (LRT1), masks (LRM1), PPM/PGM images,
traffic-matrix CSVs and their tensorizations.

The LRT1 tensor format is: magic ``b"LRT1"``, uint32 order N, N uint32
dimensions, then the float64 payload in mode-1 lexicographic order (first
index fastest), everything little-endian. The LRM1 mask format replaces the
payload with a uint64 count and that many ascending uint64 flat indices in
the same order, the ``ObservationMask.fortran_positions()`` of the mask.
"""

import itertools
import math
import os
import stat

import numpy as np

from .tensor import ObservationMask, _slabs

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
    read/write round trip on decoded files is exact. On [0, 255],
    floor(t + 0.5) is that rounding, so each axis-0 slab
    (:func:`lrsetd.tensor._slabs`) is clipped, shifted by 0.5 and floored
    in one slab-sized float64 buffer, then cast into a C-order uint8 image,
    which is written once: the writer holds about one byte per pixel
    value beside its input. A NaN entry raises ValueError, caught by that
    cast before the file is opened; +inf and -inf clamp to 255 and 0.
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.ndim != 3 or tensor.shape[2] not in (1, 3):
        raise ValueError(
            f"expected H x W x 1 or H x W x 3 tensor, got {tensor.shape}"
        )
    height, width, channels = tensor.shape
    pixels = np.empty(tensor.shape, dtype=np.uint8)
    slabs = _slabs(tensor.shape)
    # the first slab is the longest
    buf = np.empty(tensor[slabs[0]].shape) if slabs else None
    # clipping keeps NaN, the only value whose cast to uint8 is invalid
    try:
        with np.errstate(invalid="raise"):
            for sl in slabs:
                slab = tensor[sl]
                piece = np.clip(slab, 0.0, 255.0, out=buf[: len(slab)])
                piece += 0.5
                np.floor(piece, out=piece)
                pixels[sl] = piece
    except FloatingPointError:
        raise ValueError("write_image: tensor has NaN entries") from None
    magic = b"P6" if channels == 3 else b"P5"
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (width, height))
        f.write(pixels)


def _parse_csv(lines):
    """The matrix of `lines`, comma-separated float64 fields: the one
    value parser of :func:`read_traffic_csv`, numpy's C tokenizer, whose
    values are bitwise those of Python's ``float``. It raises ValueError
    on a field that is not an ASCII decimal, and on ragged rows."""
    return np.loadtxt(
        lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2
    )


def _non_numeric(line):
    """The first field of `line` that :func:`_parse_csv` rejects."""
    for field in line.split(","):
        if field.isspace() or not field:
            return field.strip()
        try:
            _parse_csv([field])
        except ValueError:
            return field.strip()
    return line.strip()


def _raise_fault(path, f):
    """Raise the FileFormatError of the CSV text file `f`, if any: each
    line that is not blank is parsed alone, so the first non-numeric or
    non-finite one is named by its file line, and ragged rows are
    reported only when no line is faulty."""
    widths = set()
    for lineno, line in enumerate(f, 1):
        if line.isspace():
            continue
        try:
            row = _parse_csv([line])
        except ValueError:
            field = _non_numeric(line)
            raise FileFormatError(
                f"{path}:{lineno}: non-numeric field {field!r}"
            ) from None
        if not np.isfinite(row).all():
            raise FileFormatError(f"{path}:{lineno}: non-finite field")
        widths.add(row.size)
    if len(widths) > 1:
        raise FileFormatError(f"{path}: ragged rows")


def read_traffic_csv(path):
    """Read a rectangular CSV of finite reals as a 2-D float64 matrix.

    Each field is an ASCII decimal such as ``-1.5e3``, with optional
    spaces or tabs around it, read bitwise as Python's ``float`` reads it.
    A UTF-8 byte-order mark at the start of the file, as spreadsheet
    exports write, is skipped, and so are blank and whitespace-only lines.
    An empty, quoted or ``#`` field is non-numeric, and so are ``1_0`` and
    non-ASCII digits such as ``\u0661``, which ``float`` reads. A ``nan``,
    ``inf`` or overflowing field such as ``1e400`` is non-finite. Either
    is a :class:`FileFormatError` named ``path:line`` by file line; so are
    ragged rows and a file that is not UTF-8 text, named by path.

    The text streams through numpy's C tokenizer, so the reader holds
    about the matrix's own size: up to a quarter more while numpy grows
    it, and one line of text at 4 bytes a character. A faulty file is read
    again, one line at a time, to name its first faulty line; a pipe, read
    once, is named by path with numpy's message.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            lines = (line for line in f if not line.isspace())
            # loadtxt would warn on no data, an error under -W error
            first = next(lines, None)
            if first is None:
                raise FileFormatError(f"{path}: empty CSV")
            try:
                matrix = _parse_csv(itertools.chain([first], lines))
                if np.isfinite(matrix).all():
                    return matrix
                error = "non-finite field"
            except UnicodeDecodeError:
                raise
            except ValueError as e:
                error = e
            if f.seekable():
                f.seek(0)
                _raise_fault(path, f)
            raise FileFormatError(f"{path}: {error}")
    except UnicodeDecodeError as e:
        raise FileFormatError(f"{path}: not UTF-8 text ({e.reason})") from e


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
