import itertools
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrsetd.io import read_mask, write_mask
from lrsetd.masks import (
    MissingSpec,
    nmae,
    psnr,
    random_mask,
    rse,
    structured_mask,
)
from lrsetd.tensor import ObservationMask

from conftest import mask_at, relayout


class TestMissingSpec:
    def test_json_round_trip(self):
        spec = MissingSpec(
            kind="composite",
            mode=1,
            params={"structural": {"kind": "whole_slices",
                                   "params": {"slices": [3]}},
                    "ratio": 0.8},
            seed=5,
        )
        back = MissingSpec.from_json(spec.to_json())
        assert back == spec

    def test_defaults_from_minimal_json(self):
        spec = MissingSpec.from_json('{"kind": "random"}')
        assert spec.mode == 0 and spec.seed == 0 and spec.params == {}

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown missing kind"):
            MissingSpec(kind="checkerboard")


class TestRandomMask:
    def test_exact_count(self):
        mask = random_mask((10, 10, 10), 0.3, seed=1)
        assert mask.n_observed == 300

    def test_edge_ratios(self):
        assert random_mask((4, 4, 4), 0.0).n_observed == 0
        assert random_mask((4, 4, 4), 1.0).n_missing == 0

    def test_seed_determinism(self):
        a = random_mask((6, 5, 4), 0.5, seed=42)
        b = random_mask((6, 5, 4), 0.5, seed=42)
        np.testing.assert_array_equal(a.boolean(), b.boolean())
        c = random_mask((6, 5, 4), 0.5, seed=43)
        assert not np.array_equal(a.boolean(), c.boolean())

    def test_rounding(self):
        # round(0.5 * 27) = 14 (round half to even on .5 exactly)
        mask = random_mask((3, 3, 3), 0.5)
        assert mask.n_observed == round(0.5 * 27)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError, match="ratio"):
            random_mask((2, 2, 2), 1.5)

    @pytest.mark.parametrize("ratio", [True, "0.5", None])
    def test_non_number_ratio(self, ratio):
        # a boolean would draw a full mask, a string fail inside numpy
        with pytest.raises(ValueError, match="ratio must be a number"):
            random_mask((2, 2, 2), ratio)


class TestDimsBoundary:
    RANGE = r"must each lie in \[1, 2\*\*32 - 1\], with at most \d+ entries"

    @pytest.mark.parametrize(
        "dims, ratio",
        [
            # 1e12 entries: within io.MAX_ELEMENTS (2**40), but a draw
            # holds 9 bytes an entry, far past any machine's memory
            ((100000, 100000, 100), 0.5),
            # past an LRM1 header's uint32 field
            ((4294967297, 2), 0.0),
            # an int64 product of 2**64 wraps to 0
            ((2**32, 2**32), 0.0),
            ((-1, -5), 0.5),
            ((0, 3), 0.5),
        ],
        ids=["past-memory", "past-uint32", "wraps-int64", "negative", "zero"],
    )
    def test_rejected_before_any_allocation(self, dims, ratio):
        slices = MissingSpec(
            kind="whole_slices", mode=0, params={"slices": [0]}
        )
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=self.RANGE):
                random_mask(dims, ratio)
            with pytest.raises(ValueError, match=self.RANGE):
                structured_mask(dims, slices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e5

    def test_element_budget_without_a_memory_figure(self, monkeypatch):
        # where the system reports no memory size, io.MAX_ELEMENTS alone
        # bounds the product, taken as a Python int
        def unreported(name):
            raise ValueError(name)

        monkeypatch.setattr(os, "sysconf", unreported)
        with pytest.raises(ValueError, match=f"at most {2**40} entries"):
            random_mask((2**20, 2**20, 2), 0.0)
        assert random_mask((3, 2), 0.5).n_observed == 3

    @pytest.mark.parametrize("dims", [(2.0, 3), (True, 3), ("2", 3)])
    def test_non_integer_dims(self, dims):
        with pytest.raises(ValueError, match="each dim must be an integer"):
            random_mask(dims, 0.5)


class TestStructuredMask:
    def test_random_kind_delegates(self):
        spec = MissingSpec(kind="random", params={"ratio": 0.25}, seed=9)
        a = structured_mask((4, 4, 4), spec)
        b = random_mask((4, 4, 4), 0.25, seed=9)
        np.testing.assert_array_equal(a.boolean(), b.boolean())

    def test_drop_every_kth_slice(self):
        spec = MissingSpec(
            kind="drop_every_kth_slice", mode=1, params={"k": 3, "phase": 0}
        )
        mask = structured_mask((2, 9, 2), spec)
        b = mask.boolean()
        # slices 0, 3, 6 of mode 1 dropped: 9 - 3 = 6 kept, 6 * 4 = 24
        assert mask.n_observed == 24
        for j in range(9):
            assert b[:, j, :].all() == (j % 3 != 0)

    def test_drop_every_kth_phase(self):
        spec = MissingSpec(
            kind="drop_every_kth_slice", mode=0, params={"k": 2, "phase": 1}
        )
        b = structured_mask((4, 3, 2), spec).boolean()
        assert b[0].all() and b[2].all()
        assert not b[1].any() and not b[3].any()

    def test_time_window(self):
        spec = MissingSpec(
            kind="time_window",
            mode=2,
            params={"period": 4, "start": 1, "length": 2},
        )
        b = structured_mask((2, 2, 8), spec).boolean()
        for t in range(8):
            assert b[:, :, t].all() == (t % 4 not in (1, 2))

    def test_whole_slices(self):
        spec = MissingSpec(kind="whole_slices", mode=2, params={"slices": [0, 3]})
        b = structured_mask((3, 3, 4), spec).boolean()
        assert not b[:, :, 0].any() and not b[:, :, 3].any()
        assert b[:, :, 1].all() and b[:, :, 2].all()

    def test_composite_counts(self):
        spec = MissingSpec(
            kind="composite",
            mode=2,
            params={
                "structural": {"kind": "whole_slices", "mode": 2,
                               "params": {"slices": [1]}},
                "ratio": 0.8,
            },
            seed=3,
        )
        mask = structured_mask((5, 5, 5), spec)
        b = mask.boolean()
        assert not b[:, :, 1].any()
        # 100 structurally surviving entries, 80% retained
        assert mask.n_observed == 80

    @pytest.mark.parametrize("ratio", [1.5, -0.1, float("nan")])
    def test_composite_invalid_ratio(self, ratio):
        spec = MissingSpec(
            kind="composite",
            params={"structural": {"kind": "whole_slices",
                                   "params": {"slices": [0]}},
                    "ratio": ratio},
        )
        with pytest.raises(ValueError, match="ratio must be in"):
            structured_mask((3, 3, 3), spec)

    def test_composite_determinism(self):
        spec = MissingSpec(
            kind="composite",
            params={
                "structural": {"kind": "drop_every_kth_slice", "mode": 1,
                               "params": {"k": 4}},
                "ratio": 0.5,
            },
            seed=11,
        )
        a = structured_mask((6, 8, 4), spec).boolean()
        b = structured_mask((6, 8, 4), spec).boolean()
        np.testing.assert_array_equal(a, b)

    def test_traffic_mask_keeps_one_boolean_and_one_index(self):
        # a traffic-shaped mask holds its boolean array (1 byte per entry)
        # and the int64 C-order index, and no other copy of the set
        spec = MissingSpec(
            kind="composite",
            mode=2,
            params={
                "structural": {"kind": "whole_slices",
                               "params": {"slices": [3]}},
                "ratio": 0.6,
            },
            seed=8,
        )
        dims = (121, 288, 7)
        structured_mask((2, 2, 7), spec)  # imports numpy.random lazily
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            mask = structured_mask(dims, spec)
            mask.boolean()
            mask.c_flat_index()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept <= math.prod(dims) + 8 * mask.n_observed + 16 * 1024

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("drop_every_kth_slice", {"k": 0}),
            ("drop_every_kth_slice", {"k": 2, "phase": 2}),
            ("time_window", {"period": 0, "start": 0, "length": 1}),
            ("time_window", {"period": 4, "start": 5, "length": 1}),
            ("whole_slices", {"slices": [7]}),
        ],
    )
    def test_invalid_params(self, kind, params):
        with pytest.raises(ValueError):
            structured_mask((3, 3, 3), MissingSpec(kind=kind, params=params))

    def test_mode_out_of_range(self):
        spec = MissingSpec(kind="whole_slices", mode=3, params={"slices": [0]})
        with pytest.raises(ValueError, match="mode"):
            structured_mask((3, 3, 3), spec)


def philox_permutation(n, seed):
    return np.random.Generator(np.random.Philox(seed)).permutation(n)


def fortran_order_tuples(dims):
    """Every index tuple over `dims`, first index fastest."""
    ranges = [range(d) for d in reversed(dims)]
    return [t[::-1] for t in itertools.product(*ranges)]


def structural_keeps(kind, params, i):
    """Whether the structural pattern keeps slice `i` of its mode."""
    if kind == "drop_every_kth_slice":
        return i % params["k"] != params["phase"]
    if kind == "time_window":
        offset = i % params["period"] - params["start"]
        return not 0 <= offset < params["length"]
    return i not in params["slices"]


def oracle_tuples(dims, kind, mode, params, seed):
    """Observed index tuples of a spec, chosen tuple by tuple."""
    if kind == "random":
        total = math.prod(dims)
        k = round(params["ratio"] * total)
        flat = philox_permutation(total, seed)[:k]
        return list(zip(*np.unravel_index(flat, dims, order="F")))
    if kind == "composite":
        inner = params["structural"]
        kept = [
            t
            for t in fortran_order_tuples(dims)
            if structural_keeps(inner["kind"], inner["params"], t[mode])
        ]
        k = round(params["ratio"] * len(kept))
        return [kept[j] for j in philox_permutation(len(kept), seed)[:k]]
    return [
        t
        for t in fortran_order_tuples(dims)
        if structural_keeps(kind, params, t[mode])
    ]


@st.composite
def structural_params(draw, kind, size):
    if kind == "drop_every_kth_slice":
        k = draw(st.integers(1, 4))
        return {"k": k, "phase": draw(st.integers(0, k - 1))}
    if kind == "time_window":
        period = draw(st.integers(1, 4))
        return {
            "period": period,
            "start": draw(st.integers(0, period - 1)),
            "length": draw(st.integers(0, 4)),
        }
    slices = st.lists(st.integers(0, size - 1), unique=True, max_size=size)
    return {"slices": draw(slices)}


class TestSelectionOracle:
    """Every generator and the LRM1 round trip observe the index tuples an
    oracle picks from the same Philox draws, one tuple at a time."""

    @settings(max_examples=200, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 4), min_size=1, max_size=5),
        kind=st.sampled_from(
            ["random", "drop_every_kth_slice", "time_window",
             "whole_slices", "composite"]
        ),
        ratio=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_observed_set_and_file_bytes(self, dims, kind, ratio, seed, data):
        dims = tuple(dims)
        mode = data.draw(st.integers(0, len(dims) - 1), label="mode")
        if kind == "random":
            params = {"ratio": ratio}
        elif kind == "composite":
            inner = data.draw(
                st.sampled_from(
                    ["drop_every_kth_slice", "time_window", "whole_slices"]
                ),
                label="structural",
            )
            inner_params = data.draw(
                structural_params(inner, dims[mode]), label="params"
            )
            params = {
                "structural": {"kind": inner, "params": inner_params},
                "ratio": ratio,
            }
        else:
            params = data.draw(
                structural_params(kind, dims[mode]), label="params"
            )
        spec = MissingSpec(kind=kind, mode=mode, params=params, seed=seed)
        mask = structured_mask(dims, spec)
        if kind == "random":
            assert random_mask(dims, ratio, seed) == mask

        expected = np.array(
            oracle_tuples(dims, kind, mode, params, seed), dtype=np.int64
        ).reshape(-1, len(dims))
        assert len({tuple(t) for t in expected}) == len(expected)
        observed = np.zeros(dims, dtype=bool)
        observed[tuple(expected.T)] = True
        np.testing.assert_array_equal(mask.boolean(), observed)
        assert mask.n_observed == len(expected)
        np.testing.assert_array_equal(
            mask.c_flat_index(), np.flatnonzero(observed)
        )

        # `fortran_positions`: the same set, ascending
        flat = mask.fortran_positions()
        assert flat.dtype == np.int64
        assert np.all(np.diff(flat) > 0)
        oracle_flat = np.sort(np.ravel_multi_index(expected.T, dims, order="F"))
        np.testing.assert_array_equal(flat, oracle_flat)

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.lrm")
            write_mask(path, mask)
            with open(path, "rb") as f:
                raw = f.read()
            back = read_mask(path)
        header = 4 + 4 + 4 * len(dims) + 8
        assert raw[header:] == oracle_flat.astype("<u8").tobytes()
        assert back == mask
        np.testing.assert_array_equal(back.fortran_positions(), flat)


def traced(metric, *args):
    """metric(*args) and the peak memory it allocates, with the mask's
    observed index, which the mask caches, built beforehand."""
    args[2].c_flat_index()
    tracemalloc.start()
    try:
        value = metric(*args)
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def image_like(rng):
    """An image-sized truth on a 0-255 scale, its estimate and a mask of
    40 % observed entries."""
    truth = 255.0 * rng.random((256, 256, 3))
    rec = truth + rng.standard_normal(truth.shape)
    return truth, rec, random_mask(truth.shape, 0.4, seed=5)


# C, Fortran and strided views of the same values; both metrics allocate
# their full-size arrays in C order, so no layout adds an index copy
METRIC_LAYOUTS = pytest.mark.parametrize("layout", ["C", "F", "strided"])


class TestNmae:
    def test_perfect_recovery(self, rng):
        truth = rng.standard_normal((4, 4, 4)) + 5.0
        mask = random_mask((4, 4, 4), 0.5, seed=0)
        assert nmae(truth, truth.copy(), mask) == 0.0

    def test_hand_computed(self):
        truth = np.arange(1.0, 9.0).reshape((2, 2, 2), order="F")
        rec = truth.copy()
        mask = mask_at((2, 2, 2), (0, 0, 0))
        rec[1, 1, 1] += 3.0  # unobserved entry 8 -> 11
        # complement truth sums to 2+...+8 = 35, abs error 3
        assert nmae(truth, rec, mask) == pytest.approx(3.0 / 35.0)

    def test_observed_errors_ignored(self, rng):
        truth = rng.standard_normal((3, 3, 3)) + 4.0
        mask = random_mask((3, 3, 3), 0.4, seed=2)
        rec = truth.copy()
        rec[mask.boolean()] += 100.0
        assert nmae(truth, rec, mask) == 0.0

    def test_full_mask_undefined(self, rng):
        t = rng.standard_normal((2, 2, 2))
        with pytest.raises(ValueError, match="empty complement"):
            nmae(t, t, ObservationMask.full((2, 2, 2)))

    def test_zero_truth_complement_undefined(self):
        truth = np.zeros((2, 2, 2))
        truth[0, 0, 0] = 5.0
        mask = mask_at((2, 2, 2), (0, 0, 0))
        with pytest.raises(ValueError, match="vanishes"):
            nmae(truth, truth, mask)

    @METRIC_LAYOUTS
    def test_gathers_no_complement(self, rng, monkeypatch, layout):
        truth, rec, mask = image_like(rng)
        # the oracle gathers the complement
        miss = ~mask.boolean()
        oracle = np.abs(truth[miss] - rec[miss]).sum() / truth[miss].sum()

        def no_gather():
            raise AssertionError("nmae gathered the mask's complement")

        # both sums run over the whole tensor with the observed entries
        # zeroed through the cached index, which reads the mask no other way
        monkeypatch.setattr(mask, "boolean", no_gather)
        got, peak = traced(
            nmae, relayout(truth, layout), relayout(rec, layout), mask
        )
        assert got == pytest.approx(oracle, rel=1e-12)
        # the copy of the truth and the error, and no more than a quarter
        # of a tensor beside them
        assert peak < 2.25 * truth.nbytes


# scales at which a sum of squared entries overflows or underflows float64
EXTREME_SCALES = [1e200, 1e-200, 2.0**1000, 1e-310]


def one_percent_error(rng):
    truth = rng.standard_normal((6, 5, 4))
    return truth, truth * (1.0 + 0.01 * rng.standard_normal(truth.shape))


class TestPsnr:
    def test_perfect_is_inf(self, rng):
        truth = np.abs(rng.standard_normal((3, 3, 3))) + 1.0
        mask = random_mask((3, 3, 3), 0.5, seed=1)
        assert psnr(truth, truth.copy(), mask) == math.inf

    def test_hand_computed(self):
        truth = np.full((2, 2, 2), 100.0)
        rec = truth.copy()
        mask = mask_at((2, 2, 2), (0, 0, 0))
        rec[~mask.boolean()] += 10.0
        # MSE over the 7 unobserved entries is 100, peak is 100
        assert psnr(truth, rec, mask) == pytest.approx(
            10.0 * math.log10(100.0**2 / 100.0)
        )

    def test_explicit_peak(self):
        truth = np.full((2, 2, 2), 50.0)
        rec = truth + 5.0
        mask = ObservationMask.empty((2, 2, 2))
        got = psnr(truth, rec, mask, max_value=255.0)
        assert got == pytest.approx(10.0 * math.log10(255.0**2 / 25.0))

    def test_full_tensor_flag(self, rng):
        truth = np.abs(rng.standard_normal((3, 3, 3))) + 1.0
        rec = truth + rng.standard_normal((3, 3, 3)) * 0.1
        mask = random_mask((3, 3, 3), 0.5, seed=3)
        miss = ~mask.boolean()
        sse_full = float(np.sum((rec - truth) ** 2))
        peak = float(truth.max())
        expected = 10.0 * math.log10(peak**2 / (sse_full / miss.sum()))
        assert psnr(truth, rec, mask, full_tensor=True) == pytest.approx(
            expected
        )

    def test_nonpositive_peak_rejected(self):
        truth = -np.ones((2, 2, 2))
        mask = ObservationMask.empty((2, 2, 2))
        with pytest.raises(ValueError, match="peak"):
            psnr(truth, truth + 1.0, mask)

    @pytest.mark.parametrize("full_tensor", [False, True])
    def test_undefined_cases_rejected(self, rng, full_tensor):
        t = rng.standard_normal((2, 2, 2))
        with pytest.raises(ValueError, match="empty complement"):
            psnr(t, t, ObservationMask.full((2, 2, 2)), full_tensor=full_tensor)
        mask = random_mask((2, 2, 2), 0.5)
        with pytest.raises(ValueError, match="shape mismatch"):
            psnr(t, t[:1], mask, full_tensor=full_tensor)

    def test_full_tensor_gathers_no_complement(self, rng, monkeypatch):
        truth, rec = one_percent_error(rng)
        mask = random_mask(truth.shape, 0.5, seed=2)
        expected = psnr(truth, rec, mask, full_tensor=True)
        # the default error, from the complement the oracle gathers
        miss = ~mask.boolean()
        sse = float(np.sum((rec - truth)[miss] ** 2))
        oracle = 10.0 * math.log10(truth.max() ** 2 * miss.sum() / sse)

        def no_gather():
            raise AssertionError("psnr gathered the mask's complement")

        monkeypatch.setattr(mask, "boolean", no_gather)
        assert psnr(truth, rec, mask, full_tensor=True) == expected
        # the default zeroes the observed entries through the cached index
        # and reads the mask no other way
        assert psnr(truth, rec, mask) == pytest.approx(oracle, rel=1e-12)

    @METRIC_LAYOUTS
    def test_layouts_against_complement_oracle(self, rng, layout):
        truth, rec, mask = image_like(rng)
        miss = ~mask.boolean()
        sse = float(np.sum((rec[miss] - truth[miss]) ** 2))
        oracle = 10.0 * math.log10(255.0**2 * miss.sum() / sse)
        got, peak = traced(
            psnr, relayout(truth, layout), relayout(rec, layout), mask, 255.0
        )
        assert got == pytest.approx(oracle, rel=1e-12)
        # the difference, and no more than a quarter of a tensor beside it
        assert peak < 1.25 * truth.nbytes

    @pytest.mark.parametrize(
        "dtype, shift", [(np.float32, 0), (np.uint8, -5), (np.uint8, 5)]
    )
    def test_full_tensor_computes_in_float64(self, rng, dtype, shift):
        # a uint8 difference would wrap around where recovered < truth
        truth = rng.integers(10, 246, (4, 6, 3)).astype(dtype)
        if shift:
            rec = (truth.astype(np.int64) + shift).astype(dtype)
        else:
            rec = truth + rng.standard_normal(truth.shape).astype(dtype)
        mask = random_mask(truth.shape, 0.5, seed=2)
        expected = psnr(
            truth.astype(np.float64), rec.astype(np.float64), mask,
            full_tensor=True,
        )
        assert psnr(truth, rec, mask, full_tensor=True) == expected

    @pytest.mark.parametrize("full_tensor", [False, True])
    @pytest.mark.parametrize("scale", EXTREME_SCALES)
    def test_extreme_scale(self, rng, scale, full_tensor):
        truth, rec = one_percent_error(rng)
        mask = random_mask(truth.shape, 0.5, seed=2)
        expected = psnr(truth, rec, mask, full_tensor=full_tensor)
        got = psnr(truth * scale, rec * scale, mask, full_tensor=full_tensor)
        assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("full_tensor", [False, True])
    def test_huge_peak(self, rng, full_tensor):
        # the peak's square overflows float64; its logarithm does not
        truth, rec = one_percent_error(rng)
        mask = random_mask(truth.shape, 0.5, seed=2)
        unit = psnr(truth, rec, mask, max_value=1.0, full_tensor=full_tensor)
        got = psnr(truth, rec, mask, max_value=1e200, full_tensor=full_tensor)
        assert got == pytest.approx(unit + 4000.0, rel=1e-12)


class TestRse:
    def test_perfect(self, rng):
        t = rng.standard_normal((3, 3, 3))
        assert rse(t, t.copy()) == 0.0

    def test_hand_computed(self):
        truth = np.full((2, 2), 3.0)
        assert rse(truth, np.zeros((2, 2))) == pytest.approx(1.0)

    def test_scaling(self, rng):
        truth = rng.standard_normal((3, 3))
        assert rse(truth, 2.0 * truth) == pytest.approx(1.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            rse(np.zeros((2, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("scale", EXTREME_SCALES)
    def test_extreme_scale(self, rng, scale):
        # squaring the entries overflows, or underflows, in float64
        truth, rec = one_percent_error(rng)
        got = rse(truth * scale, rec * scale)
        assert got == pytest.approx(rse(truth, rec), rel=1e-9)
