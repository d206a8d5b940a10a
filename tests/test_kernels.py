import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import difference_matrix, tridiag_solve_reference
from lrsetd.kernels import (
    _svd_shrink,
    soft_shrink,
    svd_shrink,
    tridiag_ldl,
    tridiag_solve,
)


def nuclear_norm(m):
    return np.linalg.svd(m, compute_uv=False).sum()


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
    def test_reported_nuclear_norm(self, rng, tau):
        # the sum of the shrunk singular values, against a fresh SVD
        m = rng.standard_normal((7, 3))
        y, norm = _svd_shrink(m, tau)
        np.testing.assert_array_equal(y, svd_shrink(m, tau))
        assert norm == pytest.approx(nuclear_norm(y), rel=1e-12, abs=1e-300)


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
        reference = tridiag_solve_reference(ldl, b, axis)
        lines = np.moveaxis(b, axis, 0)
        dense = np.moveaxis(
            np.linalg.solve(t, lines.reshape(n, -1)).reshape(lines.shape),
            0,
            axis,
        )
        got = tridiag_solve(ldl, b, axis)
        assert got is b
        np.testing.assert_array_equal(got, reference)
        assert np.linalg.norm(got - dense) <= 1e-12 * np.linalg.norm(dense)
        if layout == "strided":
            np.testing.assert_array_equal(big[outside], untouched)

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
