import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrsetd.hosvd import TuckerModel
from lrsetd.tensor import (
    ObservationMask,
    frobenius,
    inner,
    mode_product,
    multilinear,
    unfold,
)

from conftest import (
    fold_by_index_formula,
    kron_others,
    mask_at,
    relayout,
    unfold_by_index_formula,
)


def lex_tensor(dims):
    """Tensor whose storage order enumerates 1..prod(dims), first index
    fastest."""
    n = int(np.prod(dims))
    return np.arange(1.0, n + 1.0).reshape(dims, order="F")


class TestUnfold:
    def test_mode0_of_2x2x2(self):
        t = lex_tensor((2, 2, 2))
        expected = np.array([[1, 3, 5, 7], [2, 4, 6, 8]], dtype=float)
        np.testing.assert_array_equal(unfold(t, 0), expected)

    def test_mode2_of_2x2x2(self):
        t = lex_tensor((2, 2, 2))
        expected = np.array([[1, 2, 3, 4], [5, 6, 7, 8]], dtype=float)
        np.testing.assert_array_equal(unfold(t, 2), expected)

    def test_singleton(self):
        t = np.full((1, 1, 1), 4.25)
        for mode in range(3):
            np.testing.assert_array_equal(unfold(t, mode), [[4.25]])

    @pytest.mark.parametrize("dims", [(2, 3, 4), (3, 1, 2), (2, 2, 2, 3)])
    def test_matches_index_formula(self, dims, rng):
        t = rng.standard_normal(dims)
        for mode in range(len(dims)):
            np.testing.assert_array_equal(
                unfold(t, mode), unfold_by_index_formula(t, mode)
            )

    def test_preserves_value_multiset(self, rng):
        t = rng.standard_normal((3, 4, 5))
        for mode in range(3):
            assert sorted(unfold(t, mode).ravel()) == sorted(t.ravel())

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            unfold(np.zeros((2, 2)), 2)


class TestFold:
    # lrsetd has no fold; the index-formula fold of the tests inverts unfold
    @pytest.mark.parametrize("dims", [(3, 4, 5), (6, 6, 6, 6), (2, 1, 3)])
    def test_round_trip_exact(self, dims, rng):
        t = rng.standard_normal(dims)
        for mode in range(len(dims)):
            back = fold_by_index_formula(unfold(t, mode), mode, dims)
            assert np.array_equal(back, t)  # bitwise

    def test_inverse_of_unfold_oracle(self):
        m = np.array([[1, 3, 5, 7], [2, 4, 6, 8]], dtype=float)
        np.testing.assert_array_equal(
            fold_by_index_formula(m, 0, (2, 2, 2)), lex_tensor((2, 2, 2))
        )

    def test_singleton(self):
        np.testing.assert_array_equal(
            fold_by_index_formula(np.array([[3.5]]), 0, (1, 1, 1)),
            np.full((1, 1, 1), 3.5),
        )


class TestModeProduct:
    def test_identity(self, rng):
        t = rng.standard_normal((3, 4, 2))
        for mode in range(3):
            np.testing.assert_array_equal(
                mode_product(t, np.eye(t.shape[mode]), mode), t
            )

    def test_zero_matrix(self, rng):
        t = rng.standard_normal((3, 4, 2))
        out = mode_product(t, np.zeros((5, 3)), 0)
        assert out.shape == (5, 4, 2)
        assert not out.any()

    def test_equals_fold_of_matrix_product(self, rng):
        t = rng.standard_normal((2, 3, 2))
        m = rng.standard_normal((4, 3))
        out = mode_product(t, m, 1)
        expected = fold_by_index_formula(m @ unfold(t, 1), 1, (2, 4, 2))
        np.testing.assert_allclose(out, expected, rtol=1e-13)

    def test_inner_dim_mismatch(self, rng):
        with pytest.raises(ValueError, match="incompatible"):
            mode_product(rng.standard_normal((2, 3, 2)), np.zeros((4, 5)), 1)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize(
        "buffer",
        [
            lambda shape: np.empty(shape[:-1] + (shape[-1] + 1,)),
            lambda shape: np.empty(math.prod(shape)),
            lambda shape: np.empty(shape, dtype=np.float32),
            lambda shape: np.empty(shape, order="F"),
        ],
        ids=["wrong-shape", "flat", "float32", "fortran"],
    )
    def test_out_of_wrong_shape_dtype_or_layout_rejected(
        self, rng, mode, buffer
    ):
        t = rng.standard_normal((2, 3, 4))
        m = rng.standard_normal((5, t.shape[mode]))
        shape = mode_product(t, m, mode).shape
        with pytest.raises(ValueError, match="out must be"):
            mode_product(t, m, mode, out=buffer(shape))

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("after", [1, 2, 3, 4, 7])
    def test_middle_mode_either_side_of_batching(self, rng, after, layout):
        # block counts before*after on both sides of 64, where a former
        # rule switched to a moved copy at trailing sizes 1-3, and a
        # fourth-order tensor whose leading size is split over two axes
        shapes = []
        for before in (4, 64 // after, 64 // after + 1, 40):
            shapes += [((before, 9, after), 1), ((2, before, 9, after), 2)]
        for shape, mode in shapes:
            t = relayout(rng.standard_normal(shape), layout)
            m = rng.standard_normal((5, 9))
            expected = np.einsum(m, [9, mode], t, range(t.ndim),
                                 [9 if a == mode else a for a in range(t.ndim)])
            got = mode_product(t, m, mode)
            assert got.flags.c_contiguous
            err = np.linalg.norm(got - expected)
            assert err <= 1e-13 * np.linalg.norm(expected)
            out = np.full(got.shape, np.nan)
            assert mode_product(t, m, mode, out=out) is out
            np.testing.assert_array_equal(out, got)

    @pytest.mark.parametrize(
        "shape, rows",
        [((31, 72, 7), 288), ((31, 72, 2), 72), ((20, 20, 20), 2)],
    )
    def test_batched_product_into_out_allocates_nothing(self, rng, shape, rows):
        # the batched middle-mode product writes into `out` with no moved
        # copy of the input and no product to move back
        t = rng.standard_normal(shape)
        m = rng.standard_normal((rows, shape[1]))
        out = np.empty((shape[0], rows, shape[2]))
        mode_product(t, m, 1, out=out)
        tracemalloc.start()
        try:
            mode_product(t, m, 1, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024
        np.testing.assert_array_equal(out, mode_product(t, m, 1))

    @settings(max_examples=300, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 4), min_size=1, max_size=5),
        data=st.data(),
        rows=st.integers(1, 5),
        layout=st.sampled_from(["C", "F", "strided"]),
        chain=st.sampled_from(["grow", "shrink", "square"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_einsum_oracle_any_layout(
        self, dims, data, rows, layout, chain, seed
    ):
        order = len(dims)
        mode = data.draw(st.integers(0, order - 1), label="mode")
        rng = np.random.default_rng(seed)
        if layout == "strided":
            # every other entry of a larger array along each axis
            big = rng.standard_normal([2 * d for d in dims])
            t = big[(slice(None, None, 2),) * order]
        else:
            t = np.asarray(rng.standard_normal(dims), order=layout)
        m = rng.standard_normal((rows, dims[mode]))
        out = mode_product(t, m, mode)
        # written into a given buffer, the product is bit for bit the same
        buffer = np.full(out.shape, np.nan)
        assert mode_product(t, m, mode, out=buffer) is buffer
        np.testing.assert_array_equal(buffer, out)
        axes = list(range(order))
        expected = np.einsum(
            m, [order, mode], t, axes, [order if a == mode else a for a in axes]
        )
        assert out.flags.c_contiguous
        assert out.shape == expected.shape
        err = np.linalg.norm(out - expected)
        assert err <= 1e-12 * np.linalg.norm(expected)

        # the full multilinear chain on the same tensor: one factor per mode,
        # each adding a row, dropping one (down to 1) or keeping the size
        delta = {"grow": 1, "shrink": -1, "square": 0}[chain]
        factors = [
            rng.standard_normal((max(d + delta, 1), d)) for d in dims
        ]
        out = multilinear(t, factors)
        operands = [t, axes]
        for n, f in enumerate(factors):
            operands += [f, [order + n, n]]
        expected = np.einsum(*operands, [order + n for n in axes])
        assert out.flags.c_contiguous
        assert out.shape == expected.shape
        err = np.linalg.norm(out - expected)
        assert err <= 1e-12 * max(np.linalg.norm(expected), 1e-300)


class TestMultilinear:
    def test_identity_factors(self, rng):
        s = rng.standard_normal((2, 3, 4))
        out = multilinear(s, [np.eye(d) for d in s.shape])
        np.testing.assert_allclose(out, s, rtol=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_matricized_identity(self, seed):
        rng = np.random.default_rng(seed)
        dims, ranks = (4, 3, 5), (2, 3, 2)
        s = rng.standard_normal(ranks)
        factors = [rng.standard_normal((d, r)) for d, r in zip(dims, ranks)]
        full = multilinear(s, factors)
        for mode in range(3):
            expected = (
                factors[mode] @ unfold(s, mode) @ kron_others(factors, mode).T
            )
            err = np.linalg.norm(unfold(full, mode) - expected)
            assert err <= 1e-10 * max(1.0, np.linalg.norm(expected))

    def test_rank_one_expansion(self):
        s = np.full((1, 1, 1), 2.0)
        ones = np.ones((2, 1))
        out = multilinear(s, [ones, ones, ones])
        np.testing.assert_array_equal(out, np.full((2, 2, 2), 2.0))

    def test_rank_inequality(self, rng):
        # numerical rank of a mode unfolding never exceeds the factor's
        dims, ranks = (5, 4, 3), (3, 2, 2)
        s = rng.standard_normal(ranks)
        factors = [rng.standard_normal((d, r)) for d, r in zip(dims, ranks)]
        full = multilinear(s, factors)

        def numrank(m):
            sv = np.linalg.svd(m, compute_uv=False)
            return int((sv > 1e-8 * sv[0]).sum()) if sv.size and sv[0] else 0

        for mode in range(3):
            assert numrank(unfold(full, mode)) <= numrank(factors[mode])

    @pytest.mark.parametrize(
        "dims, run",
        [
            ((64, 64, 3), multilinear),
            ((30, 40, 5, 3), multilinear),
            ((64, 64, 3), lambda s, f: TuckerModel(s, f).reconstruct()),
        ],
        ids=["order-3", "order-4", "reconstruct"],
    )
    def test_size_keeping_chain_holds_two_results(self, rng, dims, run):
        # a chain that keeps the size runs as last-axis products into new
        # arrays: only the input and the output of one product are live,
        # with no moved copy beside them (three results when a middle mode
        # moved one). A full-rank core's reconstruction is such a chain
        s = rng.standard_normal(dims)
        factors = [np.linalg.qr(rng.standard_normal((d, d)))[0] for d in dims]
        tracemalloc.start()
        try:
            out = run(s, factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == dims
        assert peak <= 2.1 * out.nbytes

    def test_factor_count_mismatch(self, rng):
        with pytest.raises(ValueError, match="expected 3 factors"):
            multilinear(rng.standard_normal((2, 2, 2)), [np.eye(2)] * 2)


class TestInnerFrobenius:
    def test_inner_with_zeros(self, rng):
        a = rng.standard_normal((2, 3, 2))
        assert inner(a, np.zeros_like(a)) == 0.0

    def test_frobenius_all_ones(self):
        assert frobenius(np.ones((2, 2, 2))) == pytest.approx(np.sqrt(8.0))

    def test_invariant_under_unfolding(self, rng):
        a = rng.standard_normal((3, 4, 2))
        b = rng.standard_normal((3, 4, 2))
        for mode in range(3):
            assert inner(a, b) == pytest.approx(
                inner(unfold(a, mode), unfold(b, mode)), rel=1e-12
            )
            assert frobenius(a) == pytest.approx(
                frobenius(unfold(a, mode)), rel=1e-12
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            inner(np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("scale", [1.0, 1e-100, 2.0**-395, 1e150])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_in_range_norm_is_numpys_bit_for_bit(self, rng, scale, layout):
        # the solver's stopping rule reads this norm every iteration, so its
        # value there must not move by a single ulp
        a = rng.standard_normal((6, 5, 4)) * scale
        a = {"C": a, "F": np.asfortranarray(a), "strided": a[::2, :, ::-1]}[
            layout
        ]
        expected = float(np.linalg.norm(a.ravel()))
        assert 2.0**-400 < expected < np.inf
        assert frobenius(a) == expected

    @pytest.mark.parametrize("power", [600, 1000, -600, -1060])
    def test_out_of_range_norm_is_exactly_rescaled(self, rng, power):
        # a power of two scales every square and so the norm exactly, while
        # the direct sum of squares overflows or underflows; at 2**-1060
        # the entries are subnormal, so only the order of magnitude holds
        a = rng.standard_normal((6, 5, 4))
        got = frobenius(np.ldexp(a, power))
        expected = math.ldexp(frobenius(a), power)
        if power > -1022:
            assert got == expected
        else:
            assert got == pytest.approx(expected, rel=1e-3, abs=0.0)

    def test_zero_empty_and_nonfinite(self):
        assert frobenius(np.zeros((3, 2))) == 0.0
        assert frobenius(np.zeros((0, 2))) == 0.0
        assert frobenius(np.array([1.0, np.inf])) == np.inf
        assert np.isnan(frobenius(np.array([1.0, np.nan])))
        # finite entries whose norm passes float64's largest: inf, where
        # the rescaled norm's math.ldexp raised OverflowError
        assert frobenius(np.full(4, 1e308)) == np.inf
        # all zero, with no rescaled copy of the array
        zeros = np.zeros(100_000)
        tracemalloc.start()
        try:
            assert frobenius(zeros) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < zeros.nbytes / 10


class TestObservationMask:
    def test_counts(self):
        mask = mask_at((2, 3, 2), (0, 0, 0), (1, 2, 1))
        assert mask.n_observed == 2
        assert mask.n_missing == 10

    def test_duplicates_collapse(self):
        mask = ObservationMask.from_fortran_positions((2, 2, 2), [6, 1, 6])
        assert mask.n_observed == 2
        np.testing.assert_array_equal(mask.fortran_positions(), [1, 6])
        assert mask == mask_at((2, 2, 2), (1, 0, 0), (0, 1, 1))

    def test_index_tuples_are_no_constructor(self):
        # a mask is built from its boolean array or from flat positions
        with pytest.raises(TypeError):
            ObservationMask((2, 2), [(0, 0)])
        assert not hasattr(ObservationMask, "indices")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ObservationMask(np.array(True)),
            lambda: ObservationMask(False),
            lambda: ObservationMask.full(()),
            lambda: ObservationMask.from_fortran_positions((), [0]),
        ],
        ids=["array", "scalar", "full", "positions"],
    )
    def test_order_zero_rejected(self, build):
        # an LRM1 file holds order 1 or more, so a mask of order 0 could be
        # built but never stored
        with pytest.raises(ValueError, match="at least one dim"):
            build()

    def test_out_of_range(self):
        for position in (8, -1):
            with pytest.raises(ValueError, match="out of range"):
                ObservationMask.from_fortran_positions((2, 2, 2), [position])

    @pytest.mark.parametrize(
        "indices",
        [[(1.7, 2.2)], [(1.0, 2.0)], [(True, False)], np.ones((1, 2), bool)],
    )
    def test_non_integer_indices_rejected(self, indices):
        # 1.7 used to be truncated to 1, booleans read as 0/1
        with pytest.raises(ValueError, match="integers"):
            ObservationMask.from_fortran_positions((3, 3), np.ravel(indices))

    def test_stored_arrays_are_read_only(self):
        mask = ObservationMask.full((2, 2))
        index = mask.c_flat_index()
        with pytest.raises(ValueError, match="read-only"):
            mask.boolean()[0, 0] = False
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 1
        # every view of the set still agrees
        assert mask.n_observed == 4 and mask.boolean().sum() == 4
        np.testing.assert_array_equal(mask.c_flat_index(), [0, 1, 2, 3])

    def test_from_boolean_copies_its_argument(self):
        # the one constructor from a boolean array owns a copy
        observed = np.ones((2, 3), dtype=bool)
        mask = ObservationMask(observed)
        observed[0, 0] = False
        assert observed.flags.writeable
        assert mask.n_observed == 6 and mask.boolean().all()
        assert not np.shares_memory(mask.boolean(), observed)

    def test_boolean_and_contains(self):
        mask = mask_at((2, 2, 2), (1, 0, 1))
        b = mask.boolean()
        assert b[1, 0, 1] and b.sum() == 1
        assert not b[0, 0, 0]

    def test_full_and_empty(self):
        assert ObservationMask.full((2, 3, 2)).n_missing == 0
        assert ObservationMask.empty((2, 3, 2)).n_observed == 0
        assert mask_at((2, 3, 2)) == ObservationMask.empty((2, 3, 2))
        assert ObservationMask.from_fortran_positions(
            (2, 3, 2), []
        ) == ObservationMask.empty((2, 3, 2))

    @pytest.mark.parametrize(
        "kind",
        ["c-boolean", "fortran-boolean", "fortran-positions", "full", "empty"],
    )
    def test_c_flat_index(self, kind, rng):
        dims = (4, 3, 5)
        observed = rng.random(dims) < 0.5
        mask = {
            "c-boolean": lambda: ObservationMask(observed),
            "fortran-boolean": lambda: ObservationMask(
                np.asfortranarray(observed)
            ),
            "fortran-positions": lambda: ObservationMask.from_fortran_positions(
                dims, np.flatnonzero(observed.ravel(order="F"))[::-1]
            ),
            "full": lambda: ObservationMask.full(dims),
            "empty": lambda: ObservationMask.empty(dims),
        }[kind]()
        if kind not in ("full", "empty"):
            np.testing.assert_array_equal(mask.boolean(), observed)
        index = mask.c_flat_index()
        np.testing.assert_array_equal(index, np.flatnonzero(mask.boolean()))
        a = rng.standard_normal(dims)
        np.testing.assert_array_equal(np.take(a, index), a[mask.boolean()])
        assert mask.c_flat_index() is index
