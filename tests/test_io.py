import struct
import tracemalloc

import numpy as np
import pytest

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
        path = tmp_path / "m.lrm"
        with pytest.raises(ValueError, match=r"cannot write dims \(\)"):
            write_mask(path, ObservationMask(np.array(True)))
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
