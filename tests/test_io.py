import os
import struct
import threading
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lrsetd.io import (
    FileFormatError,
    read_image,
    read_mask,
    read_tensor,
    read_traffic_csv,
    tensorize,
    write_image,
    write_mask,
    write_tensor,
)
from lrsetd.masks import random_mask
from lrsetd.tensor import ObservationMask

from conftest import mask_at


def read_oversized(reader, path, what):
    """`reader(path)` on a file whose header declares far more payload than
    the file holds: a FileFormatError naming `what`, raised before any
    buffer of the declared size is allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(
            FileFormatError, match=f"truncated file while reading {what}$"
        ):
            reader(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


class TestTensorFormat:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        t = rng.standard_normal((4, 3, 5))
        t[0, 0, 0] = -0.0
        t[1, 0, 0] = np.nextafter(1.0, 2.0)
        path = tmp_path / "t.lrt"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.shape == t.shape
        assert np.array_equal(
            back.view(np.uint64), t.view(np.uint64)
        )  # bitwise, including -0.0

    def test_header_layout(self, tmp_path):
        t = np.zeros((2, 3, 4))
        path = tmp_path / "t.lrt"
        write_tensor(path, t)
        raw = path.read_bytes()
        assert raw[:4] == b"LRT1"
        assert struct.unpack("<I", raw[4:8]) == (3,)
        assert struct.unpack("<3I", raw[8:20]) == (2, 3, 4)
        assert len(raw) == 20 + 8 * 24

    def test_payload_order_first_index_fastest(self, tmp_path):
        t = np.arange(1.0, 9.0).reshape((2, 2, 2), order="F")
        path = tmp_path / "t.lrt"
        write_tensor(path, t)
        payload = np.frombuffer(path.read_bytes()[20:], dtype="<f8")
        np.testing.assert_array_equal(payload, np.arange(1.0, 9.0))

    def test_matrix_and_vector(self, tmp_path, rng):
        for shape in ((7,), (3, 4)):
            t = rng.standard_normal(shape)
            path = tmp_path / "x.lrt"
            write_tensor(path, t)
            np.testing.assert_array_equal(read_tensor(path), t)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lrt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FileFormatError, match="magic"):
            read_tensor(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.lrt"
        write_tensor(path, np.zeros((2, 2, 2)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FileFormatError, match="truncated"):
            read_tensor(path)

    def test_header_larger_than_file(self, tmp_path):
        # 2^18 x 2^18 doubles declared, 512 GiB, with a 64-byte body
        path = tmp_path / "t.lrt"
        path.write_bytes(
            b"LRT1" + struct.pack("<3I", 2, 2**18, 2**18) + bytes(64)
        )
        read_oversized(read_tensor, path, "payload")

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.lrt"
        write_tensor(path, np.zeros((2, 2, 2)))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FileFormatError, match="trailing"):
            read_tensor(path)

    def test_zero_dim_rejected(self, tmp_path):
        path = tmp_path / "t.lrt"
        path.write_bytes(b"LRT1" + struct.pack("<I", 2) + struct.pack("<2I", 2, 0))
        with pytest.raises(FileFormatError, match=r"invalid dims \(2, 0\)$"):
            read_tensor(path)

    def test_overflow_guard(self, tmp_path):
        path = tmp_path / "t.lrt"
        path.write_bytes(
            b"LRT1"
            + struct.pack("<I", 3)
            + struct.pack("<3I", 2**20, 2**20, 2**20)
        )
        with pytest.raises(FileFormatError, match="overflow"):
            read_tensor(path)

    def test_overflow_guard_past_int64(self, tmp_path):
        # 2^31 * 2^31 * 4 = 2^64 elements, a product that wraps to 0 in
        # int64
        path = tmp_path / "t.lrt"
        path.write_bytes(
            b"LRT1" + struct.pack("<4I", 3, 2**31, 2**31, 4) + bytes(64)
        )
        with pytest.raises(
            FileFormatError,
            match=r"^dims \(2147483648, 2147483648, 4\) overflow",
        ):
            read_tensor(path)

    @pytest.mark.parametrize(
        "tensor",
        [np.empty((3, 0)), np.float64(2.0), np.empty((2**32, 0))],
        ids=["zero-dim", "order-0", "dim-past-uint32"],
    )
    def test_writer_refuses_header_reader_refuses(self, tmp_path, tensor):
        # the reader's rule is checked before the file is opened, so no
        # header, whole or partial, is left behind
        path = tmp_path / "t.lrt"
        with pytest.raises(ValueError, match="cannot write dims"):
            write_tensor(path, tensor)
        assert not path.exists()


class TestMaskFormat:
    def test_round_trip(self, tmp_path):
        mask = random_mask((5, 4, 3), 0.4, seed=2)
        path = tmp_path / "m.lrm"
        write_mask(path, mask)
        back = read_mask(path)
        assert back.dims == mask.dims
        np.testing.assert_array_equal(back.boolean(), mask.boolean())

    def test_empty_and_full(self, tmp_path):
        for mask in (ObservationMask.empty((3, 3, 3)), ObservationMask.full((3, 3, 3))):
            path = tmp_path / "m.lrm"
            write_mask(path, mask)
            back = read_mask(path)
            np.testing.assert_array_equal(back.boolean(), mask.boolean())

    def test_writer_refuses_order_0(self, tmp_path):
        # no ObservationMask has order 0; the writer still checks the dims
        # of what it is given before it opens the file
        path = tmp_path / "m.lrm"
        order_0 = SimpleNamespace(
            dims=(), fortran_positions=lambda: np.zeros(1, dtype=np.intp)
        )
        with pytest.raises(ValueError, match=r"cannot write dims \(\)"):
            write_mask(path, order_0)
        assert not path.exists()

    def test_header_layout(self, tmp_path):
        mask = mask_at((2, 2, 2), (1, 0, 0), (0, 1, 1))
        path = tmp_path / "m.lrm"
        write_mask(path, mask)
        raw = path.read_bytes()
        assert raw[:4] == b"LRM1"
        assert struct.unpack("<I", raw[4:8]) == (3,)
        (count,) = struct.unpack("<Q", raw[20:28])
        assert count == 2
        idx = np.frombuffer(raw[28:], dtype="<u8")
        # flat lexicographic indices, sorted: (1,0,0) -> 1, (0,1,1) -> 6
        np.testing.assert_array_equal(idx, [1, 6])

    def test_count_exceeds_total(self, tmp_path):
        path = tmp_path / "m.lrm"
        path.write_bytes(
            b"LRM1"
            + struct.pack("<I", 3)
            + struct.pack("<3I", 2, 2, 2)
            + struct.pack("<Q", 9)
        )
        with pytest.raises(FileFormatError, match="count"):
            read_mask(path)

    def test_overflow_guard_past_int64(self, tmp_path):
        # as for LRT1: 2^64 elements, a product that wraps to 0 in int64
        path = tmp_path / "m.lrm"
        path.write_bytes(
            b"LRM1"
            + struct.pack("<4I", 3, 2**31, 2**31, 4)
            + struct.pack("<Q", 0)
        )
        with pytest.raises(
            FileFormatError,
            match=r"^dims \(2147483648, 2147483648, 4\) overflow",
        ):
            read_mask(path)

    def test_count_larger_than_file(self, tmp_path):
        # 2^38 indices declared, 2 TiB, with a 16-byte body
        path = tmp_path / "m.lrm"
        path.write_bytes(
            b"LRM1"
            + struct.pack("<3I", 2, 2**20, 2**20)
            + struct.pack("<Q", 2**38)
            + bytes(16)
        )
        read_oversized(read_mask, path, "indices")

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "m.lrm"
        path.write_bytes(
            b"LRM1"
            + struct.pack("<I", 3)
            + struct.pack("<3I", 2, 2, 2)
            + struct.pack("<Q", 1)
            + struct.pack("<Q", 8)
        )
        with pytest.raises(FileFormatError, match="out of range"):
            read_mask(path)

    def test_trailing_bytes(self, tmp_path):
        mask = mask_at((2, 2, 2), (0, 0, 0))
        path = tmp_path / "m.lrm"
        write_mask(path, mask)
        path.write_bytes(path.read_bytes() + b"z")
        with pytest.raises(FileFormatError, match="trailing"):
            read_mask(path)


class TestImages:
    def test_ppm_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(5, 7, 3)).astype(np.float64)
        path = tmp_path / "img.ppm"
        write_image(path, img)
        np.testing.assert_array_equal(read_image(path), img)

    def test_pgm_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(4, 6, 1)).astype(np.float64)
        path = tmp_path / "img.pgm"
        write_image(path, img)
        np.testing.assert_array_equal(read_image(path), img)

    def test_rounding_and_clamping(self, tmp_path):
        img = np.array([[[-3.0], [0.49], [0.5], [254.5], [300.0]]])
        path = tmp_path / "img.pgm"
        write_image(path, img)
        np.testing.assert_array_equal(
            read_image(path), [[[0.0], [0.0], [1.0], [255.0], [255.0]]]
        )

    def test_bytes_match_round_half_away_formula(self, tmp_path, rng):
        # rounding half away from zero, then clamping, written out directly
        edges = [-0.5, 0.5, -0.49999999999999994, 0.49999999999999994,
                 -1.5, 1.5, 2.5, 254.49999999999997, 254.5, 255.0, 255.5,
                 256.0, -0.0, 0.0, 5e-324, -1e-300, 1e300, -1e300, np.inf,
                 -np.inf]
        values = np.concatenate([
            edges,
            rng.uniform(-20.0, 280.0, 100_000),
            np.round(rng.uniform(-5.0, 260.0, 9_981)) + 0.5,
        ])
        img = values.reshape(-1, 1, 3)
        old = np.clip(np.sign(img) * np.floor(np.abs(img) + 0.5), 0, 255)
        path = tmp_path / "img.ppm"
        write_image(path, img)
        body = path.read_bytes()
        assert body.startswith(b"P6\n1 %d\n255\n" % img.shape[0])
        assert body[-img.size:] == old.astype(np.uint8).tobytes()

    @pytest.mark.parametrize(
        "shape",
        # one slab; two (113 rows of 96x3, then 15); rows longer than a
        # slab; a grey image over three slabs
        [(5, 7, 3), (128, 96, 3), (3, 11_000, 3), (300, 250, 1)],
    )
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bytes_match_whole_array_formula(self, tmp_path, shape, layout):
        # the slab pass writes the bytes of the former whole-array clip,
        # shift and floor, cast once
        rng = np.random.default_rng(shape[0])
        full = rng.uniform(-20.0, 280.0, (2,) + shape)
        edges = [-np.inf, np.inf, -0.0, 0.0, 0.49999999999999994, 0.5,
                 254.49999999999997, 254.5, 255.0, 1e300, -1e300, 5e-324]
        flat = full.reshape(-1)
        flat[rng.choice(flat.size, len(edges), replace=False)] = edges
        img = {
            "C": full[0],
            "F": np.asfortranarray(full[0]),
            "strided": full[::-1][1][::-1, ::-1, ::-1],
        }[layout]
        before = img.copy()
        pixels = np.clip(img, 0.0, 255.0)
        pixels += 0.5
        np.floor(pixels, out=pixels)
        path = tmp_path / "img.ppm"
        write_image(path, img)
        height, width, channels = shape
        magic = b"P6" if channels == 3 else b"P5"
        header = magic + b"\n%d %d\n255\n" % (width, height)
        assert path.read_bytes() == header + pixels.astype(
            np.uint8, order="C"
        ).tobytes()
        assert img.tobytes() == before.tobytes()

    def test_memory_is_one_byte_per_value(self, tmp_path):
        # the uint8 image and one slab-sized float64 buffer: the peak read
        # 1.338 bytes per value at 512x512x3, and the bound leaves under
        # 5 % above it; the whole-array clip and cast read 9.0
        img = np.random.default_rng(0).uniform(-20.0, 280.0, (512, 512, 3))
        path = tmp_path / "img.ppm"
        write_image(path, img)  # what numpy and the file system cache
        tracemalloc.start()
        try:
            write_image(path, img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.40 * img.size

    def test_fortran_ordered_input(self, tmp_path, rng):
        img = np.asfortranarray(rng.uniform(0.0, 255.0, size=(4, 5, 3)))
        path = tmp_path / "img.ppm"
        write_image(path, img)
        np.testing.assert_array_equal(read_image(path), np.floor(img + 0.5))

    def test_header_comments(self, tmp_path):
        body = bytes(range(6))
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n# a comment\n2 # inline\n1\n255\n" + body)
        img = read_image(path)
        assert img.shape == (1, 2, 3)
        np.testing.assert_array_equal(img.ravel(), np.arange(6.0))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(FileFormatError, match="magic"):
            read_image(path)

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FileFormatError, match="maxval"):
            read_image(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(FileFormatError, match="truncated"):
            read_image(path)

    def test_size_larger_than_file(self, tmp_path):
        # 200000 x 200000 RGB pixels declared, 120 GB, with a 30-byte body
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6 200000 200000 255\n" + bytes(30))
        read_oversized(read_image, path, "pixel data")

    def test_write_bad_channels(self, tmp_path):
        with pytest.raises(ValueError, match="H x W"):
            write_image(tmp_path / "x.ppm", np.zeros((2, 2, 2)))


class TestTrafficCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2.5,3\n4,5,-6\n")
        np.testing.assert_array_equal(
            read_traffic_csv(path), [[1, 2.5, 3], [4, 5, -6]]
        )

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\n1,2\n\n3,4\n\n")
        assert read_traffic_csv(path).shape == (2, 2)

    def test_ragged(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(FileFormatError, match="ragged"):
            read_traffic_csv(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,x\n")
        with pytest.raises(FileFormatError, match="non-numeric"):
            read_traffic_csv(path)

    def test_byte_order_mark_skipped(self, tmp_path):
        # the UTF-8 "CSV" export of a spreadsheet starts with a BOM
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2.5\n3,4\n")
        np.testing.assert_array_equal(read_traffic_csv(path), [[1, 2.5], [3, 4]])

    @pytest.mark.parametrize("field", ["1_0", "1_000.5", "2e1_0"])
    def test_digit_group_underscore(self, tmp_path, field):
        # float() reads 1_0 as 10.0; np.loadtxt rejects it, and so does this
        path = tmp_path / "t.csv"
        path.write_text(f"1,2\n3,{field}\n")
        with pytest.raises(FileFormatError, match=r"t\.csv:2: non-numeric"):
            read_traffic_csv(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\n\n")
        with pytest.raises(FileFormatError, match="empty"):
            read_traffic_csv(path)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "NaN", "1e400"])
    def test_non_finite(self, tmp_path, field):
        path = tmp_path / "t.csv"
        path.write_text(f"1,2\n3,{field}\n")
        with pytest.raises(FileFormatError, match=r"t\.csv:2: non-finite"):
            read_traffic_csv(path)

    @pytest.mark.parametrize(
        "field",
        [
            "",  # a trailing comma
            "#3",
            '"3"',
            "  ",
            "0x10",
            # float() reads this Arabic-Indic one as 1.0; the reader takes
            # ASCII decimals only, a deliberate narrowing
            "\u0661",
        ],
    )
    def test_non_numeric_fields(self, tmp_path, field):
        path = tmp_path / "t.csv"
        path.write_text(f"1,2\n4,{field}\n", encoding="utf-8")
        with pytest.raises(
            FileFormatError,
            match=rf"t\.csv:2: non-numeric field {field.strip()!r}$",
        ):
            read_traffic_csv(path)

    def test_fault_names_its_file_line(self, tmp_path):
        # two blank lines, one of them whitespace only, before the fault:
        # the line is counted in the file, not in data rows
        path = tmp_path / "t.csv"
        path.write_text("1,2\n\n \t\n3,4\n5,x\n")
        with pytest.raises(
            FileFormatError, match=r"t\.csv:5: non-numeric field 'x'$"
        ):
            read_traffic_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            # a faulty line after a ragged row is reported, as before
            ("1,2\n3\n4,x\n", r"t\.csv:3: non-numeric field 'x'$"),
            ("1,2\n3,nan\n4,x\n", r"t\.csv:2: non-finite field$"),
            ("1,2\n3,x\n4,nan\n", r"t\.csv:2: non-numeric field 'x'$"),
            ("1,2\n3\n4,nan\n", r"t\.csv:3: non-finite field$"),
            ("1,2\n3\n", r"t\.csv: ragged rows$"),
        ],
    )
    def test_first_fault_in_file_order(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(FileFormatError, match=message):
            read_traffic_csv(path)

    def test_not_utf8(self, tmp_path):
        # a Latin-1 byte; UnicodeDecodeError is a ValueError, which the CLI
        # would report as a config error with no file name
        path = tmp_path / "t.csv"
        path.write_bytes(b"1,2\n3,\xe9\n")
        with pytest.raises(FileFormatError, match=r"t\.csv: not UTF-8 text"):
            read_traffic_csv(path)

    @pytest.mark.parametrize("text", ["", "\n \n\t\r\n", "\ufeff\n"])
    def test_empty_before_any_parser_warning(self, tmp_path, text):
        # loadtxt warns on no data, an error under -W error; the reader
        # refuses the file before that
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FileFormatError, match=r"t\.csv: empty CSV$"):
                read_traffic_csv(path)

    def test_shapes_of_one_row_and_one_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("7\n")
        assert read_traffic_csv(path).shape == (1, 1)
        path.write_text("1\n2\n3\n")
        assert read_traffic_csv(path).shape == (3, 1)
        path.write_text("1,2,3\n")
        assert read_traffic_csv(path).shape == (1, 3)

    def test_memory_about_the_matrix(self, tmp_path, rng):
        # the traffic-wholeday matrix, 121 pairs by 7 days of 288 intervals,
        # 1.95 MB: the reader streams the text, with no Python float or list
        # per field, which peaked at 5.1 times the matrix
        matrix = rng.standard_normal((121, 2016))
        path = tmp_path / "t.csv"
        np.savetxt(path, matrix, fmt="%.17g", delimiter=",")
        tracemalloc.start()
        try:
            got = read_traffic_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, matrix)
        assert peak <= 1.5 * matrix.nbytes

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
    @pytest.mark.parametrize(
        "text, message",
        [("1,2\n3,4\n", None), ("1,2\n3,x\n", r"t\.csv: ")],
    )
    def test_pipe(self, tmp_path, text, message):
        # a pipe is read once: a bad one is named by path, not by line
        path = tmp_path / "t.csv"
        os.mkfifo(path)

        def feed():
            with open(path, "w") as f:
                f.write(text)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        try:
            if message is None:
                assert read_traffic_csv(path).tolist() == [[1, 2], [3, 4]]
            else:
                with pytest.raises(FileFormatError, match=message):
                    read_traffic_csv(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()


# finite float64 values, the extremes of the range included
CSV_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
         1.7e308, -1.7e308, 1.7976931348623157e308]
    ),
)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "t.csv"


class TestTrafficCsvRoundTrip:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        matrix=st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
            lambda shape: arrays(np.float64, shape, elements=CSV_VALUES)
        ),
        text=st.sampled_from(["%.17g", "repr"]),
        bom=st.booleans(),
        newline=st.sampled_from(["\n", "\r\n"]),
        blanks=st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from(["", " ", "\t  "])),
            max_size=3,
        ),
    )
    def test_values_round_trip_bitwise(
        self, csv_path, matrix, text, bom, newline, blanks
    ):
        def field(v):
            return f"{v:.17g}" if text == "%.17g" else repr(float(v))

        lines = [",".join(field(v) for v in row) for row in matrix]
        for at, blank in blanks:
            lines.insert(min(at, len(lines)), blank)
        body = newline.join(lines) + newline
        csv_path.write_bytes(
            (b"\xef\xbb\xbf" if bom else b"") + body.encode("utf-8")
        )
        got = read_traffic_csv(csv_path)
        assert got.dtype == np.float64
        assert got.shape == matrix.shape
        assert np.array_equal(got.view(np.uint64), matrix.view(np.uint64))


class TestTensorize:
    def test_otd_layout(self):
        # 2 pairs, 3 intervals/day, 2 days; columns day-major
        matrix = np.arange(12.0).reshape(2, 6)
        t = tensorize(matrix, ("otd", 2, 3, 2))
        assert t.shape == (2, 3, 2)
        for p in range(2):
            for tt in range(3):
                for d in range(2):
                    assert t[p, tt, d] == matrix[p, d * 3 + tt]

    def test_oot_layout(self):
        # 2 sources, 3 destinations, 4 intervals; rows pair column-major
        matrix = np.arange(24.0).reshape(6, 4)
        t = tensorize(matrix, ("oot", 2, 3, 4))
        assert t.shape == (2, 3, 4)
        for s in range(2):
            for d in range(3):
                for tt in range(4):
                    assert t[s, d, tt] == matrix[d * 2 + s, tt]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            tensorize(np.zeros((2, 5)), ("otd", 2, 3, 2))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            tensorize(np.zeros((2, 2)), ("abc", 2, 1, 2))
