import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrsetd.hosvd import TuckerModel, hosvd, reconstruction_snr, truncate_core
from lrsetd.tensor import frobenius, multilinear, unfold

from conftest import smooth_orthonormal_factors, synthetic_image


class TestHosvd:
    def test_full_rank_exact(self, rng):
        t = rng.standard_normal((4, 5, 3))
        model = hosvd(t, t.shape)
        err = frobenius(model.reconstruct() - t)
        assert err <= 1e-10 * frobenius(t)

    def test_orthonormal_factors(self, rng):
        t = rng.standard_normal((6, 5, 4))
        model = hosvd(t, (3, 2, 2))
        for f in model.factors:
            np.testing.assert_allclose(
                f.T @ f, np.eye(f.shape[1]), atol=1e-10
            )

    def test_core_is_compression(self, rng):
        t = rng.standard_normal((5, 4, 3))
        model = hosvd(t, (2, 2, 2))
        expected = multilinear(t, [f.T for f in model.factors])
        np.testing.assert_allclose(model.core, expected, atol=1e-12)

    def test_recovers_exact_low_rank(self, rng):
        dims, ranks = (8, 7, 6), (3, 2, 2)
        factors = smooth_orthonormal_factors(dims, ranks)
        core = rng.standard_normal(ranks)
        t = multilinear(core, factors)
        model = hosvd(t, ranks)
        err = frobenius(model.reconstruct() - t)
        assert err <= 1e-9 * max(1.0, frobenius(t))

    def test_truncation_optimal_per_mode(self, rng):
        # per-mode projection error equals the energy of the discarded
        # singular values of that unfolding
        t = rng.standard_normal((6, 6, 6))
        r = 3
        model = hosvd(t, (r, 6, 6))
        sv = np.linalg.svd(unfold(t, 0), compute_uv=False)
        tail = math.sqrt(float((sv[r:] ** 2).sum()))
        err = frobenius(model.reconstruct() - t)
        assert err == pytest.approx(tail, rel=1e-9)

    def test_deterministic(self, rng):
        t = rng.standard_normal((5, 5, 5))
        a = hosvd(t, (2, 3, 2))
        b = hosvd(t, (2, 3, 2))
        for fa, fb in zip(a.factors, b.factors):
            np.testing.assert_array_equal(fa, fb)

    def test_rank_validation(self, rng):
        t = rng.standard_normal((3, 3, 3))
        with pytest.raises(ValueError, match="out of range"):
            hosvd(t, (4, 3, 3))
        with pytest.raises(ValueError, match="ranks"):
            hosvd(t, (2, 2))

    @pytest.mark.parametrize(
        "ranks", [(2.5, 2, 2), (True, 2, 2), ("2", 2, 2)]
    )
    def test_non_integer_ranks(self, rng, ranks):
        # each would have run at a truncated or coerced rank
        t = rng.standard_normal((3, 3, 3))
        with pytest.raises(ValueError, match="each rank must be an integer"):
            hosvd(t, ranks)

    def test_numpy_integer_ranks(self, rng):
        t = rng.standard_normal((3, 3, 3))
        assert hosvd(t, np.array([2, 2, 1])).core.shape == (2, 2, 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, rng, bad):
        t = rng.standard_normal((4, 3, 2))
        t[1, 2, 0] = bad
        with pytest.raises(ValueError, match="must be finite"):
            hosvd(t, (2, 2, 2))

    def test_matrix_input(self, rng):
        m = rng.standard_normal((6, 4))
        model = hosvd(m, (2, 2))
        u, s, vt = np.linalg.svd(m)
        best = (u[:, :2] * s[:2]) @ vt[:2]
        assert frobenius(model.reconstruct() - best) <= 1e-9

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300])
    def test_extreme_scale_matches_unit_scale(self, rng, scale):
        # the Grams of a tensor scaled to 1e200 overflow, and those of one
        # scaled to 1e-200 underflow, unless the tensor is rescaled first
        t = rng.random((6, 6, 6))
        ref = hosvd(t, (3, 3, 3))
        model = hosvd(t * scale, (3, 3, 3))
        for f, g in zip(model.factors, ref.factors):
            np.testing.assert_allclose(f, g, atol=1e-12)
        approx = model.reconstruct()
        assert np.isfinite(approx).all()
        assert reconstruction_snr(t * scale, approx) == pytest.approx(
            reconstruction_snr(t, ref.reconstruct()), rel=1e-9
        )


def model_with_block(rng, core_dims, block, rows=None):
    """Random model whose core is nonzero only on ``core[:b0, :b1, ...]``,
    with every block entry nonzero."""
    rows = rows or [d + 2 for d in core_dims]
    core = np.zeros(core_dims)
    inner_block = tuple(slice(b) for b in block)
    core[inner_block] = rng.uniform(0.5, 1.5, block) * rng.choice(
        [-1.0, 1.0], block
    )
    factors = [rng.standard_normal((r, d)) for r, d in zip(rows, core_dims)]
    return TuckerModel(core=core, factors=factors)


def assert_matches_untrimmed(model):
    """reconstruct() equals the product of the whole core with every factor
    column."""
    expected = multilinear(model.core, model.factors)
    got = model.reconstruct()
    assert got.shape == expected.shape
    assert got.flags.c_contiguous
    err = np.linalg.norm(got - expected)
    assert err <= 1e-12 * max(np.linalg.norm(expected), 1e-300)


class TestTuckerReconstruct:
    @pytest.mark.parametrize(
        "block", [(5, 4, 3), (2, 4, 3), (5, 1, 3), (5, 4, 1), (1, 1, 1),
                  (3, 2, 2)]
    )
    def test_trailing_zero_slices(self, rng, block):
        assert_matches_untrimmed(model_with_block(rng, (5, 4, 3), block))

    def test_zeros_inside_block_are_kept(self, rng):
        # only the last nonzero slice of each mode bounds the block
        model = model_with_block(rng, (5, 4, 3), (4, 3, 2))
        model.core[0] = 0.0
        model.core[:, 1] = 0.0
        assert_matches_untrimmed(model)

    def test_all_zero_core(self, rng):
        model = TuckerModel(
            core=np.zeros((3, 2, 4)),
            factors=[rng.standard_normal((r, d)) for r, d in
                     ((6, 3), (5, 2), (7, 4))],
        )
        out = model.reconstruct()
        assert out.shape == (6, 5, 7)
        assert not out.any()

    def test_only_last_entry_nonzero(self, rng):
        core = np.zeros((3, 4, 2))
        core[-1, -1, -1] = 2.5
        factors = [rng.standard_normal((d + 1, d)) for d in core.shape]
        assert_matches_untrimmed(TuckerModel(core=core, factors=factors))

    @pytest.mark.parametrize(
        "core_dims, block",
        [((6,), (4,)), ((5, 4), (2, 3)), ((3, 2, 4, 2, 3), (2, 2, 3, 1, 3))],
    )
    def test_orders(self, rng, core_dims, block):
        assert_matches_untrimmed(model_with_block(rng, core_dims, block))

    @settings(max_examples=150, deadline=None)
    @given(
        core_dims=st.lists(st.integers(1, 4), min_size=1, max_size=5),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_oracle_any_order(self, core_dims, data, seed):
        block = [
            data.draw(st.integers(0, d), label=f"block{n}")
            for n, d in enumerate(core_dims)
        ]
        rows = [
            data.draw(st.integers(1, 5), label=f"rows{n}")
            for n in range(len(core_dims))
        ]
        model = model_with_block(
            np.random.default_rng(seed), core_dims, block, rows
        )
        if 0 in block:
            out = model.reconstruct()
            assert out.shape == tuple(rows) and not out.any()
        else:
            assert_matches_untrimmed(model)

    def test_columns_beyond_block_are_not_read(self, rng):
        model = model_with_block(rng, (5, 4, 3), (3, 2, 2))
        for f, b in zip(model.factors, (3, 2, 2)):
            f[:, b:] = np.nan
        out = model.reconstruct()
        assert np.isfinite(out).all()
        clean = [np.nan_to_num(f) for f in model.factors]
        expected = multilinear(model.core, clean)
        assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(
            expected
        )

    def test_nan_in_core_reaches_output(self, rng):
        model = model_with_block(rng, (4, 3, 2), (2, 2, 1))
        model.core[3, 2, 1] = np.nan
        assert np.isnan(model.reconstruct()).all()

    def test_truncated_hosvd_core(self):
        img = synthetic_image(32, 32, seed=1) / 255.0
        model = hosvd(img, img.shape)
        for tn in (0.0, 0.01, 0.05, 0.5):
            assert_matches_untrimmed(truncate_core(model, tn)[0])

    def test_factor_shape_checked(self, rng):
        model = TuckerModel(
            core=np.ones((2, 2)),
            factors=[np.ones((3, 2)), np.ones((3, 4))],
        )
        with pytest.raises(ValueError, match="incompatible"):
            model.reconstruct()
        with pytest.raises(ValueError, match="incompatible"):
            TuckerModel(core=np.ones((2, 2)), factors=[]).reconstruct()


class TestTruncateCore:
    def test_zero_threshold_is_identity(self, rng):
        model = hosvd(rng.standard_normal((4, 4, 4)), (3, 3, 3))
        out, sparsity = truncate_core(model, 0.0)
        np.testing.assert_array_equal(out.core, model.core)
        assert sparsity == 0.0

    def test_strict_inequality(self):
        model = TuckerModel(
            core=np.array([[[0.5, -0.5], [0.49, 2.0]]]), factors=[]
        )
        out, sparsity = truncate_core(model, 0.5)
        np.testing.assert_array_equal(
            out.core, np.array([[[0.5, -0.5], [0.0, 2.0]]])
        )
        assert sparsity == pytest.approx(0.25)

    @pytest.mark.parametrize("tn,sparsity", [(0.0, 0.25), (0.5, 0.5)])
    def test_negative_zero_counts_and_nan_does_not(self, tn, sparsity):
        # -0.0 is a zero of the core (kept as is by tn = 0, zeroed to +0.0
        # otherwise); NaN is not, and no threshold drops it
        model = TuckerModel(
            core=np.array([[[np.nan, -0.0], [0.3, 2.0]]]), factors=[]
        )
        out, got = truncate_core(model, tn)
        assert got == sparsity
        assert np.isnan(out.core[0, 0, 0])
        assert np.signbit(out.core[0, 0, 1]) == (tn == 0.0)

    def test_huge_threshold_zeroes_everything(self, rng):
        model = hosvd(rng.standard_normal((3, 3, 3)), (2, 2, 2))
        out, sparsity = truncate_core(model, 1e12)
        assert not out.core.any()
        assert sparsity == 1.0

    def test_negative_threshold(self, rng):
        model = hosvd(rng.standard_normal((3, 3, 3)), (2, 2, 2))
        with pytest.raises(ValueError, match="nonnegative"):
            truncate_core(model, -0.1)

    def test_nan_threshold(self, rng):
        # NaN < tn is False for every entry, so a NaN threshold would keep
        # the whole core and pass as tn = 0
        model = hosvd(rng.standard_normal((3, 3, 3)), (2, 2, 2))
        with pytest.raises(ValueError, match="nonnegative"):
            truncate_core(model, np.nan)

    def test_factors_shared(self, rng):
        model = hosvd(rng.standard_normal((3, 3, 3)), (2, 2, 2))
        out, _ = truncate_core(model, 0.3)
        for fa, fb in zip(model.factors, out.factors):
            assert fa is fb

    @pytest.mark.parametrize("tn", [0.0, 5e-324, 0.5, np.inf])
    @pytest.mark.parametrize(
        "shape",
        # one slab; several with a shorter last one (64 rows of 30x17, then
        # 6); rows longer than a slab; 1-D over two slabs; 0-d
        [(3, 5, 4, 2), (70, 30, 17), (2, 40_000), (40_000,), ()],
    )
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bitwise_the_np_where_core_and_its_count(self, tn, shape, layout):
        # the slab pass gives np.where's core bit for bit, signed zeros and
        # NaN signs included, and the count of the former whole-array form
        rng = np.random.default_rng(len(shape))
        tiny = np.finfo(np.float64).smallest_subnormal
        specials = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, tiny,
                    -tiny, 1e-310, -1e-310, 0.5, -0.5, 0.49999999999999994,
                    -0.5000000000000001]
        if shape:
            full = rng.standard_normal((2,) + shape) * 0.6
            flat = full.reshape(-1)
            spots = rng.choice(flat.size, len(specials), replace=False)
            flat[spots] = specials
            flip = (slice(None, None, -1),) * len(shape)
            cores = [{
                "C": full[0],
                "F": np.asfortranarray(full[0]),
                "strided": full[::-1][1][flip],
            }[layout]]
        else:  # each special in turn
            cores = [np.array(v) for v in specials]
        for core in cores:
            assert core.shape == shape
            before = core.copy()
            model = TuckerModel(core=core, factors=[])
            out, sparsity = truncate_core(model, tn)
            small = np.abs(core) < tn
            expected = np.where(small, 0.0, core)
            zeros = np.count_nonzero(small if tn > 0 else expected == 0.0)
            assert out.core.dtype == expected.dtype
            assert out.core.shape == shape
            assert (
                out.core.view(np.int64).tobytes()
                == expected.view(np.int64).tobytes()
            )
            assert sparsity == float(zeros) / expected.size
            # the input core is left as it was, NaN bits included
            assert (
                core.view(np.int64).tobytes()
                == before.view(np.int64).tobytes()
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.float64])
    def test_dtype_matches_np_where(self, dtype):
        core = (np.arange(-30, 30).reshape(3, 4, 5) / 7).astype(dtype)
        out, _ = truncate_core(TuckerModel(core=core, factors=[]), 1.5)
        expected = np.where(np.abs(core) < 1.5, 0.0, core)
        assert out.core.dtype == np.result_type(core, 0.0) == expected.dtype
        assert out.core.tobytes() == expected.tobytes()

    def test_memory_is_one_core_and_a_slab(self):
        # the new core and one slab's boolean mask: the peak read 1.016
        # cores at 512x512x3 and tn = 0.01, and the bound leaves under 5 %
        # above it; the former np.abs, mask and np.where passes read 1.125
        core = np.random.default_rng(0).standard_normal((512, 512, 3)) / 100
        model = TuckerModel(core=core, factors=[])
        truncate_core(model, 0.01)  # what numpy caches on first use
        tracemalloc.start()
        try:
            out, sparsity = truncate_core(model, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.0 < sparsity < 1.0
        assert peak < 1.06 * core.nbytes

    def test_sparsity_monotone_in_threshold(self, rng):
        model = hosvd(rng.standard_normal((5, 5, 5)), (4, 4, 4))
        last = -1.0
        for tn in (0.0, 0.1, 0.5, 1.0, 5.0):
            _, sparsity = truncate_core(model, tn)
            assert sparsity >= last
            last = sparsity


class TestReconstructionSnr:
    def test_exact_is_inf(self, rng):
        t = rng.standard_normal((3, 3, 3))
        assert reconstruction_snr(t, t.copy()) == math.inf

    def test_known_value(self):
        truth = np.full((2, 2, 2), 2.0)
        approx = truth + 0.2
        expected = 20.0 * math.log10(
            frobenius(truth) / frobenius(approx - truth)
        )
        assert reconstruction_snr(truth, approx) == pytest.approx(expected)

    def test_scale_invariant(self, rng):
        truth = rng.standard_normal((3, 3, 3))
        approx = truth + 0.1 * rng.standard_normal((3, 3, 3))
        a = reconstruction_snr(truth, approx)
        b = reconstruction_snr(7.0 * truth, 7.0 * approx)
        assert a == pytest.approx(b, rel=1e-12)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            reconstruction_snr(np.zeros((2, 2)), np.ones((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            reconstruction_snr(np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 2.0**1000, 1e-310])
    def test_extreme_scale(self, rng, scale):
        # squaring the entries overflows, or underflows, in float64
        truth = rng.standard_normal((4, 3, 2))
        approx = truth + 0.1 * rng.standard_normal((4, 3, 2))
        expected = reconstruction_snr(truth, approx)
        got = reconstruction_snr(truth * scale, approx * scale)
        assert got == pytest.approx(expected, rel=1e-9)


class TestTruncationStudy:
    def test_image_sparsity_snr_tradeoff(self):
        # the motivating observation: Tucker cores of natural images tolerate
        # aggressive truncation, so sparsity rises fast while SNR sags slowly
        img = synthetic_image(64, 64, seed=0) / 255.0
        model = hosvd(img, img.shape)
        sparsities, snrs = [], []
        for tn in (0.0, 0.01, 0.05, 0.1):
            trunc, sparsity = truncate_core(model, tn)
            sparsities.append(sparsity)
            snrs.append(reconstruction_snr(img, trunc.reconstruct()))
        assert sparsities == sorted(sparsities)
        assert snrs == sorted(snrs, reverse=True)
        assert sparsities[-1] > 0.5
        assert snrs[-1] > 20.0
