import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import difference_matrix, relayout, tridiag_solve_reference
from lrsetd.kernels import (
    _SHORT,
    _gram_resolves,
    _route,
    _soft_shrink,
    _svd_shrink,
    soft_shrink,
    svd_shrink,
    tridiag_ldl,
    tridiag_solve,
)


def nuclear_norm(m):
    return np.linalg.svd(m, compute_uv=False).sum()


def svt_reference(m, tau):
    """Singular value thresholding through LAPACK's SVD of `m` itself, and
    the rank of the result, the number of singular values above tau."""
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    return (u * s) @ vt, int(np.count_nonzero(s))


def planted(shape, singular_values, seed=0):
    """A matrix with the given singular values and random singular
    vectors."""
    rng = np.random.default_rng(seed)
    k = len(singular_values)
    u, _ = np.linalg.qr(rng.standard_normal((shape[0], k)))
    v, _ = np.linalg.qr(rng.standard_normal((shape[1], k)))
    return (u * np.asarray(singular_values, dtype=float)) @ v.T


@pytest.fixture
def svd_calls(monkeypatch):
    """Counts the calls of ``np.linalg.svd`` made through the module
    attribute."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(kwargs.get("compute_uv", True))
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


class TestSvdShrink:
    def test_diagonal_case(self):
        np.testing.assert_allclose(
            svd_shrink(np.diag([3.0, 1.0]), 2.0), np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_tau_zero_is_identity(self, rng):
        m = rng.standard_normal((4, 3))
        np.testing.assert_allclose(svd_shrink(m, 0.0), m, atol=1e-9)

    def test_negative_tau(self):
        with pytest.raises(ValueError, match="nonnegative"):
            svd_shrink(np.eye(2), -0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            svd_shrink(np.array([[1.0, np.nan]]), 0.5)

    @pytest.mark.parametrize("shape", [(3,), (2, 3, 4)])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="need a matrix"):
            svd_shrink(np.ones(shape), 0.5)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_matrix(self, shape):
        m = np.ones(shape)
        np.testing.assert_array_equal(svd_shrink(m, 0.5), m)

    def test_local_optimality_probe(self, rng):
        m = rng.standard_normal((4, 3))
        tau = 0.5
        y = svd_shrink(m, tau)

        def obj(cand):
            return tau * nuclear_norm(cand) + 0.5 * np.linalg.norm(cand - m) ** 2

        best = obj(y)
        for _ in range(200):
            delta = rng.standard_normal(y.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert obj(y + delta) >= best - 1e-12

    def test_nonexpansive(self, rng):
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4))
            d = np.linalg.norm(svd_shrink(a, 0.7) - svd_shrink(b, 0.7))
            assert d <= np.linalg.norm(a - b) + 1e-12

    def test_shrinks_nuclear_norm_and_rank(self, rng):
        m = rng.standard_normal((5, 4))
        y = svd_shrink(m, 0.8)
        assert nuclear_norm(y) <= nuclear_norm(m) + 1e-10
        assert np.linalg.matrix_rank(y) <= np.linalg.matrix_rank(m)


    @pytest.mark.parametrize("tau", [0.0, 0.8, 1e3])
    def test_reported_rank(self, rng, tau):
        # the count of singular values above tau, against a fresh SVD
        m = rng.standard_normal((7, 3))
        y, kept = _svd_shrink(m, tau)
        np.testing.assert_array_equal(y, svd_shrink(m, tau))
        sigma = np.linalg.svd(m, compute_uv=False)
        assert kept == np.count_nonzero(sigma > tau) == np.linalg.matrix_rank(y)


class TestGramRoute:
    # the prox and the nuclear norm come from the eigensolve of the r x r
    # Gram, which must agree with LAPACK's SVD at 1e-12, and hand over to
    # that SVD when the Gram squares a condition number above 1e4
    @pytest.mark.parametrize(
        "shape", [(9, 4), (4, 9), (6, 6)], ids=["tall", "wide", "square"]
    )
    @pytest.mark.parametrize(
        "level", [0.0, 0.5, 2.0], ids=["zero", "mid", "all"]
    )
    def test_shrink_matches_svd_reference(self, shape, level, svd_calls):
        # tau at 0, between the singular values, and above the largest one
        rng = np.random.default_rng([*shape, int(10 * level)])
        m = rng.standard_normal(shape)
        sigma = np.linalg.svd(m, compute_uv=False)
        tau = level * np.median(sigma) if level < 2.0 else 1.01 * sigma[0]
        expected, expected_rank = svt_reference(m, tau)
        svd_calls.clear()
        y, kept = _svd_shrink(m, tau)
        assert svd_calls == []
        assert y.shape == m.shape
        assert kept == expected_rank
        if level == 2.0:
            np.testing.assert_array_equal(y, np.zeros(shape))
            assert kept == 0
        else:
            gap = np.linalg.norm(y - expected)
            assert gap <= 1e-12 * np.linalg.norm(expected)
        np.testing.assert_array_equal(svd_shrink(m, tau), y)

    def test_zero_input_gives_zeros_without_svd(self, svd_calls):
        y, kept = _svd_shrink(np.zeros((5, 3)), 0.0)
        np.testing.assert_array_equal(y, np.zeros((5, 3)))
        assert kept == 0
        assert svd_calls == []

    @pytest.mark.parametrize("shape", [(8, 5), (5, 8)], ids=["tall", "wide"])
    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_ill_conditioned_input_takes_the_svd(self, shape, tau, svd_calls):
        # singular values 1e8 ... 1e-2: the Gram's spectrum spans 1e20, far
        # past the 1e8 that its eigenvalues resolve, so LAPACK's SVD runs
        m = planted(shape, [1e8, 1e5, 1e2, 1.0, 1e-2])
        expected, expected_rank = svt_reference(m, tau)
        svd_calls.clear()
        y, kept = _svd_shrink(m, tau)
        assert svd_calls == [True]
        assert np.linalg.norm(y - expected) <= 1e-12 * np.linalg.norm(expected)
        assert kept == expected_rank

    @pytest.mark.parametrize("tau", [0.0, 1e-9])
    def test_rank_deficient_input_at_small_tau_takes_the_svd(
        self, tau, svd_calls
    ):
        # a zero singular value below a tiny tau cannot be told from the
        # Gram's rounding, so the kept values are taken from the SVD
        m = planted((7, 4), [3.0, 2.0, 1.0])
        expected, _ = svt_reference(m, tau)
        svd_calls.clear()
        y, _ = _svd_shrink(m, tau)
        assert svd_calls == [True]
        assert np.linalg.norm(y - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize(
        "smallest, resolved", [(2e-4, True), (5e-5, False)]
    )
    def test_condition_bound_is_1e4(self, smallest, resolved):
        # singular values 1 and 2e-4 are read off the Gram; 1 and 5e-5 are
        # not, at tau = 0 or at a tau below the small value, while a tau
        # that cuts the small value away leaves only the large one
        a = planted((6, 2), [1.0, smallest])
        lam = np.linalg.eigvalsh(a.T @ a)
        assert _gram_resolves(lam, 0.0) == resolved
        assert _gram_resolves(lam, 0.5 * smallest) == resolved
        assert _gram_resolves(lam, 0.5)

    def test_overflowing_gram_takes_the_svd(self, svd_calls):
        # entries near 1e200 square past float64 in the Gram; the prox
        # must not warn and must match the SVD
        m = 1e200 * np.random.default_rng(3).standard_normal((6, 3))
        expected, expected_rank = svt_reference(m, 1e199)
        svd_calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, kept = _svd_shrink(m, 1e199)
        assert svd_calls == [True]
        # compared at unit scale, where the norms do not overflow
        gap = np.linalg.norm((y - expected) / 1e200)
        assert gap <= 1e-12 * np.linalg.norm(expected / 1e200)
        assert kept == expected_rank



class TestSoftShrink:
    def test_scalar_values(self):
        out = soft_shrink(np.array([5.0, -1.0]), 2.0)
        np.testing.assert_array_equal(out, [3.0, 0.0])

    def test_tau_zero_identity(self, rng):
        m = rng.standard_normal((3, 3))
        np.testing.assert_array_equal(soft_shrink(m, 0.0), m)

    def test_negative_tau(self):
        with pytest.raises(ValueError, match="nonnegative"):
            soft_shrink(np.zeros(3), -1.0)

    def test_matches_grid_oracle(self, rng):
        m = rng.standard_normal((3, 3))
        tau = 0.7
        out = soft_shrink(m, tau)
        grid = np.linspace(-4, 4, 80001)
        for val, got in zip(m.ravel(), out.ravel()):
            objs = tau * np.abs(grid) + 0.5 * (grid - val) ** 2
            assert abs(grid[np.argmin(objs)] - got) <= 1e-6 + 1e-4

    def test_nonexpansive(self, rng):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        d = np.linalg.norm(soft_shrink(a, 0.3) - soft_shrink(b, 0.3))
        assert d <= np.linalg.norm(a - b) + 1e-12

    def test_tensor_input(self, rng):
        t = rng.standard_normal((2, 3, 2))
        assert soft_shrink(t, 0.5).shape == t.shape

    @pytest.mark.parametrize("tau", [0.0, 0.5])
    def test_in_place_threshold_is_bitwise_the_formula(self, rng, tau):
        # the threshold written into its input, as the core step runs it,
        # against sign(m)*max(|m| - tau, 0) bit for bit, signed zeros
        # included; the input of soft_shrink itself is left alone
        m = np.concatenate(
            [rng.standard_normal(64), [0.0, -0.0, 0.5, -0.5, 1e-300, -1e-300]]
        )
        kept = m.copy()
        expected = np.sign(m) * np.maximum(np.abs(m) - tau, 0.0)
        got = soft_shrink(m, tau)
        np.testing.assert_array_equal(m.view(np.uint64), kept.view(np.uint64))
        inplace = m.copy()
        assert _soft_shrink(inplace, tau) is inplace
        for out in (got, inplace):
            np.testing.assert_array_equal(
                out.view(np.uint64), expected.view(np.uint64)
            )


class TestToeplitzDiff:
    # the first-order difference matrix of the W-sweep and reference ADMM
    # oracles; the solver never forms it
    def test_n3(self):
        expected = np.array(
            [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0], [0.0, 0.0, 1.0]]
        )
        np.testing.assert_array_equal(difference_matrix(3), expected)

    def test_n1(self):
        np.testing.assert_array_equal(difference_matrix(1), [[1.0]])

    def test_action_on_vector(self, rng):
        n = 6
        v = rng.standard_normal(n)
        out = difference_matrix(n) @ v
        np.testing.assert_allclose(out[:-1], v[:-1] - v[1:])
        assert out[-1] == v[-1]

    def test_gram_structure(self):
        n = 5
        a = difference_matrix(n)
        g = a.T @ a
        np.testing.assert_allclose(g, g.T)
        # tridiagonal
        assert not np.triu(g, 2).any()
        assert np.linalg.eigvalsh(g).min() >= -1e-12

    def test_shifted_gram_is_spd(self):
        for beta, omega in ((0.1, 0.0), (1e-6, 5.0), (2.0, 0.3)):
            a = difference_matrix(7)
            m = beta * np.eye(7) + 2 * omega * a.T @ a
            assert np.linalg.eigvalsh(m).min() > 0


class TestTridiagSolve:
    @pytest.mark.parametrize("toeplitz", [True, False], ids=["toeplitz", "eye"])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_matches_dense_solve(self, n, axis, toeplitz):
        # the W subproblem matrix beta*I + 2*omega*A^T A, solved along one
        # axis of a 3-way array, against np.linalg.solve on the unfolding
        rng = np.random.default_rng([n, axis, toeplitz])
        beta, omega = rng.uniform(0.1, 2.0), rng.uniform(0.0, 2.0)
        a = difference_matrix(n) if toeplitz else np.eye(n)
        t = beta * np.eye(n) + 2.0 * omega * a.T @ a
        shape = [3, 2]
        shape.insert(axis, n)
        b = rng.standard_normal(shape)
        lines = np.moveaxis(b, axis, 0).reshape(n, -1)
        expected = np.moveaxis(
            np.linalg.solve(t, lines).reshape(np.moveaxis(b, axis, 0).shape),
            0,
            axis,
        )
        got = tridiag_solve(tridiag_ldl(np.diag(t), np.diag(t, 1)), b, axis)
        assert got is b
        err = np.linalg.norm(got - expected)
        assert err <= 1e-12 * np.linalg.norm(expected)

    @settings(max_examples=300, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 6), min_size=1, max_size=5),
        data=st.data(),
        layout=st.sampled_from(["C", "F", "strided"]),
        toeplitz=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reference_sweep_oracle_any_layout(
        self, dims, data, layout, toeplitz, seed
    ):
        order = len(dims)
        axis = data.draw(st.integers(0, order - 1), label="axis")
        rng = np.random.default_rng(seed)
        n = dims[axis]
        beta, omega = rng.uniform(0.1, 2.0), rng.uniform(0.0, 2.0)
        a = difference_matrix(n) if toeplitz else np.eye(n)
        t = beta * np.eye(n) + 2.0 * omega * a.T @ a
        ldl = tridiag_ldl(np.diag(t), np.diag(t, 1))
        if layout == "strided":
            # every other entry of a larger array along each axis
            big = rng.standard_normal([2 * d for d in dims])
            b = big[(slice(None, None, 2),) * order]
            outside = np.ones(big.shape, dtype=bool)
            outside[(slice(None, None, 2),) * order] = False
            untouched = big[outside]
        else:
            b = np.asarray(rng.standard_normal(dims), order=layout)
        # the same right-hand side in the same layout, solved with scratch
        twin = np.empty_like(big if layout == "strided" else b)
        np.copyto(twin, big if layout == "strided" else b)
        if layout == "strided":
            twin = twin[(slice(None, None, 2),) * order]
        reference = tridiag_solve_reference(ldl, b, axis)
        lines = np.moveaxis(b, axis, 0)
        dense = np.moveaxis(
            np.linalg.solve(t, lines.reshape(n, -1)).reshape(lines.shape),
            0,
            axis,
        )
        got = tridiag_solve(ldl, b, axis)
        assert got is b
        assert np.linalg.norm(got - reference) <= 1e-12 * np.linalg.norm(
            reference
        )
        scratch = np.full(b.shape, np.nan)
        assert tridiag_solve(ldl, twin, axis, scratch) is twin
        np.testing.assert_array_equal(twin, got)
        assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)
        if layout == "strided":
            np.testing.assert_array_equal(big[outside], untouched)

    def test_out_leaves_b_unchanged(self):
        # with out, b is read only; the result is bitwise the in-place one
        rng = np.random.default_rng(5)
        for shape, axis in (((9, 4), 0), ((3, 20, 2), 1), ((5, 7), 1)):
            ldl = tridiag_ldl(np.full(shape[axis], 3.0), np.ones(shape[axis] - 1))
            b = rng.standard_normal(shape)
            kept = b.copy()
            for out in (np.empty(shape), np.empty(shape, order="F")):
                assert tridiag_solve(ldl, b, axis, out=out) is out
                np.testing.assert_array_equal(b, kept)
                np.testing.assert_array_equal(
                    out, tridiag_solve(ldl, kept.copy(), axis)
                )

    def test_vector_right_hand_side(self):
        t = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        b = np.array([1.0, 0.0, 1.0])
        x = tridiag_solve(tridiag_ldl(np.diag(t), np.diag(t, 1)), b.copy(), 0)
        np.testing.assert_allclose(t @ x, b, atol=1e-14)

    @pytest.mark.parametrize(
        "diag, off",
        [([1.0, -1.0], [0.0]), ([1.0, 1.0], [2.0]), ([0.0], [])],
        ids=["negative-pivot", "indefinite", "zero"],
    )
    def test_non_spd_raises(self, diag, off):
        with pytest.raises(np.linalg.LinAlgError):
            tridiag_ldl(diag, off)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tridiag_ldl([1.0, 1.0], [0.0, 0.0])
        ldl = tridiag_ldl([2.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="axis 1"):
            tridiag_solve(ldl, np.zeros((2, 3)), 1)

    @pytest.mark.parametrize(
        "scratch",
        [
            np.empty(5),
            np.empty(7),
            np.empty((3, 2), dtype=np.float32),
            np.empty((3, 2), order="F"),
        ],
        ids=["too-small", "too-large", "float32", "fortran"],
    )
    def test_scratch_of_wrong_size_dtype_or_layout_rejected(self, scratch):
        ldl = tridiag_ldl([2.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="scratch must be"):
            tridiag_solve(ldl, np.zeros((3, 2)), 1, scratch)


def w_matrix(n, beta, omega):
    """The W subproblem matrix beta*I + 2*omega*A^T A of a mode of length
    n: its diagonal and off-diagonal."""
    diag = np.full(n, beta + 2.0 * omega)
    diag[1:] += 2.0 * omega
    return diag, np.full(n - 1, -2.0 * omega)


def relative_error(got, expected, scale):
    """||got - expected|| / ||expected||, taken on both divided by `scale`
    so that squares of data near 1e-300 or 1e150 neither underflow nor
    overflow."""
    return np.linalg.norm((got - expected) / scale) / np.linalg.norm(
        expected / scale
    )


class TestTridiagRoutes:
    # each route of tridiag_solve, the matrix product by T^{-1} of a short
    # axis and the scaled sweep in place or in a swapped copy, against the
    # per-row reference sweep and, where T fits in memory, a dense solve of
    # the unfolding

    LENGTHS = [1, 2, 3, 7, 16, 17, _SHORT, _SHORT + 1, 288, 10_080]

    @staticmethod
    def shape(n, order, axis):
        # short other axes, so a 10 080-long line stays a small tensor
        shape = [3, 2, 1, 2][: order - 1]
        shape.insert(axis, n)
        return shape

    @staticmethod
    def check(ldl, t, b, axis, scale):
        reference = tridiag_solve_reference(ldl, b, axis)
        got = tridiag_solve(ldl, b.copy(), axis)
        assert relative_error(got, reference, scale) <= 1e-12
        if t is not None:
            lines = np.moveaxis(b, axis, 0)
            flat = lines.reshape(t.shape[0], -1)
            dense = np.moveaxis(
                np.linalg.solve(t, flat).reshape(lines.shape),
                0,
                axis,
            )
            assert relative_error(got, dense, scale) <= 1e-12
        return got

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_every_axis_and_layout(self, n, order):
        rng = np.random.default_rng([n, order])
        ldl = tridiag_ldl(*w_matrix(n, 0.1, 1.0))
        t = None
        if n <= 288:
            a = difference_matrix(n)
            t = 0.1 * np.eye(n) + 2.0 * a.T @ a
        for axis in range(order):
            shape = self.shape(n, order, axis)
            b = rng.standard_normal(shape)
            got = self.check(ldl, t, b, axis, 1.0)
            for layout in ("F", "strided"):
                c = relayout(b, layout)
                kept = c.copy()
                np.testing.assert_array_equal(tridiag_solve(ldl, c, axis), got)
                # and with out in the same layout, which leaves b as it was
                out = relayout(np.zeros(shape), layout)
                tridiag_solve(ldl, kept, axis, out=out)
                np.testing.assert_array_equal(out, got)
                np.testing.assert_array_equal(kept, b)
            # a short axis is a matrix product in any position of these
            # shapes, whose middle axes have at most 12 blocks; a long one
            # is swept
            route = _route(ldl, shape, axis)
            if n <= _SHORT:
                assert route == "inverse"
            else:
                assert route in ("rows", "swap")

    @pytest.mark.parametrize("n", [2, 7, _SHORT])
    @pytest.mark.parametrize(
        "before, after",
        [
            (32, 2), (21, 3), (3, 20), (500, 4), (33, 2), (22, 3),
            (1000, 2), (512, 2), (513, 2), (341, 3), (342, 3),
        ],
    )
    def test_short_middle_axis(self, n, before, after):
        # a short middle axis is one batched product by T^{-1} whatever
        # the number and trailing size of its blocks, 2 000 blocks of a
        # trailing size of 2 included
        shape = (before, n, after)
        ldl = tridiag_ldl(*w_matrix(n, 0.1, 1.0))
        a = difference_matrix(n)
        t = 0.1 * np.eye(n) + 2.0 * a.T @ a
        assert _route(ldl, shape, 1) == "inverse"
        b = np.random.default_rng([n, before, after]).standard_normal(shape)
        got = self.check(ldl, t, b, 1, 1.0)
        for layout in ("F", "strided"):
            c = relayout(b, layout)
            out = relayout(np.zeros(shape), layout)
            tridiag_solve(ldl, c, 1, out=out)
            np.testing.assert_array_equal(out, got)
            np.testing.assert_array_equal(tridiag_solve(ldl, c, 1), got)
        out = np.empty(shape)
        tridiag_solve(ldl, b, 1, np.empty(b.size), out=out)
        np.testing.assert_array_equal(out, got)

    @pytest.mark.parametrize("ratio", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e150])
    @pytest.mark.parametrize("n", [7, 17, _SHORT + 1, 288, 10_080])
    def test_extreme_scales_and_ratios(self, n, scale, ratio):
        # beta/omega from 1e-6 to 1e6: at 1e6 the multipliers are about
        # 2e-6, so the scaled sweep restarts its products every ~26 rows
        rng = np.random.default_rng([n, int(np.log10(scale)) + 400])
        beta, omega = ratio, 1.0
        ldl = tridiag_ldl(*w_matrix(n, beta, omega))
        t = None
        if n <= 288:
            a = difference_matrix(n)
            t = beta * np.eye(n) + 2.0 * omega * a.T @ a
        if ratio == 1e6 and n > 30:
            assert any(c != 1.0 for c in ldl.forward)
            assert any(c != 1.0 for c in ldl.backward)
        with np.errstate(over="raise", invalid="raise"):
            for axis in range(3):
                shape = self.shape(n, 3, axis)
                b = scale * rng.standard_normal(shape)
                got = self.check(ldl, t, b, axis, scale)
                assert np.isfinite(got).all()
