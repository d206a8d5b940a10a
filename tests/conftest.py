"""Shared fixtures and independent oracles for the test suite."""

import numpy as np
import pytest

from lrsetd import solver
from lrsetd.tensor import ObservationMask, multilinear


def mask_at(dims, *entries):
    """ObservationMask that observes exactly the index tuples `entries`."""
    observed = np.zeros(dims, dtype=bool)
    for entry in entries:
        observed[entry] = True
    return ObservationMask(observed)


def unfold_by_index_formula(tensor, mode):
    """Brute-force mode unfolding straight from the lexicographic column
    index formula; independent of the library's reshape-based path."""
    dims = tensor.shape
    n_cols = 1
    for l, d in enumerate(dims):
        if l != mode:
            n_cols *= d
    out = np.zeros((dims[mode], n_cols))
    for idx in np.ndindex(*dims):
        j = 0
        stride = 1
        for l, d in enumerate(dims):
            if l == mode:
                continue
            j += idx[l] * stride
            stride *= d
        out[idx[mode], j] = tensor[idx]
    return out


def fold_by_index_formula(matrix, mode, dims):
    """Inverse of :func:`unfold_by_index_formula`, by the same column index
    formula."""
    out = np.zeros(dims)
    for idx in np.ndindex(*dims):
        j = 0
        stride = 1
        for l, d in enumerate(dims):
            if l == mode:
                continue
            j += idx[l] * stride
            stride *= d
        out[idx] = matrix[idx[mode], j]
    return out


def kron_others(factors, mode):
    """Explicit Kronecker factor of the matricized Tucker identity:
    kron(X_N, ..., X_{mode+1}, X_{mode-1}, ..., X_0), which is [[1.0]] for
    a single factor."""
    out = np.ones((1, 1))
    for j in reversed(range(len(factors))):
        if j != mode:
            out = np.kron(out, factors[j])
    return out


def difference_matrix(n):
    """n-by-n first-order difference matrix: ones on the diagonal, -1 on the
    first superdiagonal, so ``(A @ v)[j] = v[j] - v[j+1]`` for j < n-1 and
    ``v[n-1]`` at the end."""
    return np.eye(n) - np.eye(n, k=1)


def smoothing_matrix(cfg, dims, i):
    """Dense smoothing matrix A_i of mode i: the first-order difference
    matrix of size ``dims[i]`` on every mode. `cfg` is not read; it stays in
    the signature the block oracles call."""
    return difference_matrix(dims[i])


def reference_admm(m, observed, cfg, n_iter):
    """Slow reference for :func:`lrsetd.solver.solve`: the same ADMM with a
    W_i/U_i pair on every mode, whatever omega is, at any order.

    Every block is written out in matrix form: unfoldings by the index
    formula, each X_i from its normal equations with the explicit
    :func:`kron_others` factor. The start is the solver's fixed draw, the
    orthonormal Q of one seed-0 Gaussian I_n x r_n matrix per mode in mode
    order. After each iteration k <= ``solver._BALANCE_ITERS``, when some
    mode has omega_i > 0, beta doubles when max ||Z - W_i||_F over those
    modes exceeds 10 times beta*||Z_k - Z_{k-1}||_F and halves in the
    converse case. Returns Z after `n_iter` iterations.
    """
    dims, ranks, modes = m.shape, cfg.ranks, range(m.ndim)
    beta, lam = cfg.beta, cfg.lam
    smoothed = [i for i in modes if cfg.omega[i] > 0]
    unf, fld = unfold_by_index_formula, fold_by_index_formula
    z = np.where(observed, m, 0.0)
    rng = np.random.default_rng(0)
    x = [np.linalg.qr(rng.standard_normal((dims[n], ranks[n])))[0] for n in modes]
    s = fld(x[0].T @ unf(z, 0) @ kron_others(x, 0), 0, ranks)
    y = [f.copy() for f in x]
    t = [np.zeros_like(f) for f in x]
    w = [z.copy() for _ in modes]
    u = [np.zeros(dims) for _ in modes]
    a_mats = [smoothing_matrix(cfg, dims, i) for i in modes]
    for k in range(1, n_iter + 1):
        z_prev = z
        for i in modes:
            b = kron_others(x, i)
            s_i = unf(s, i)
            lhs = beta * np.eye(ranks[i]) + lam * s_i @ b.T @ b @ s_i.T
            rhs = lam * unf(z, i) @ b @ s_i.T + beta * y[i] - t[i]
            x[i] = np.linalg.solve(lhs, rhs.T).T
        for i in modes:
            left, sv, right = np.linalg.svd(
                x[i] + t[i] / beta, full_matrices=False
            )
            y[i] = left * np.maximum(sv - cfg.alpha[i] / beta, 0.0) @ right
        b = kron_others(x, 0)
        zeta = np.prod([np.linalg.norm(f.T @ f, 2) for f in x])
        if zeta > 0:
            s_mat = unf(s, 0)
            step = s_mat - x[0].T @ (x[0] @ s_mat @ b.T - unf(z, 0)) @ b / zeta
            tau = cfg.sigma / (lam * zeta)
            s_mat = np.sign(step) * np.maximum(np.abs(step) - tau, 0.0)
            s = fld(s_mat, 0, ranks)
        zhat = fld(x[0] @ unf(s, 0) @ b.T, 0, dims)
        z = (lam * zhat + sum(beta * w[i] - u[i] for i in modes)) / (
            lam + m.ndim * beta
        )
        z[observed] = m[observed]
        for i in modes:
            a = a_mats[i]
            lhs = beta * np.eye(dims[i]) + 2.0 * cfg.omega[i] * a.T @ a
            w[i] = fld(
                np.linalg.solve(lhs, beta * unf(z, i) + unf(u[i], i)), i, dims
            )
        for i in modes:
            u[i] = u[i] + beta * (z - w[i])
            t[i] = t[i] + beta * (x[i] - y[i])
        if smoothed and k <= solver._BALANCE_ITERS:
            primal = max(np.linalg.norm(z - w[i]) for i in smoothed)
            dual = beta * np.linalg.norm(z - z_prev)
            if primal > 10 * dual:
                beta *= 2
            elif dual > 10 * primal:
                beta /= 2
    return z


def tridiag_solve_reference(ldl, b, axis):
    """Per-row LDL^T sweep for :func:`lrsetd.kernels.tridiag_solve`: the
    same forward and backward substitutions, each step written as one
    in-place row update with a temporary, D^{-1} applied row by row in the
    backward sweep. Returns a new array and leaves `b` unchanged."""
    lower, inv_d = ldl.lower, ldl.inv_d
    x = np.ascontiguousarray(np.moveaxis(b, axis, 0), dtype=np.float64)
    x = x.copy() if np.shares_memory(x, b) else x
    n = inv_d.size
    rows = x.reshape(n, -1)
    for j in range(1, n):
        rows[j] -= lower[j - 1] * rows[j - 1]
    rows[n - 1] *= inv_d[n - 1]
    for j in range(n - 2, -1, -1):
        rows[j] *= inv_d[j]
        rows[j] -= lower[j] * rows[j + 1]
    return np.moveaxis(x, 0, axis)


def relayout(a, layout):
    """A copy of `a` in C or Fortran order, or ("strided") every other
    entry of a larger array along each axis."""
    if layout == "strided":
        big = np.full([2 * d for d in a.shape], np.nan)
        view = big[(slice(None, None, 2),) * a.ndim]
        view[...] = a
        return view
    return np.array(a, order=layout)


def smooth_orthonormal_factors(dims, ranks):
    """Orthonormal factor matrices from boundary-decaying polynomial
    columns; smooth along every mode so the difference regularizer is
    compatible with the ground truth."""
    factors = []
    for d, r in zip(dims, ranks):
        t = np.linspace(0.0, 1.0, d)
        base = np.column_stack([(1.0 - t) ** (j + 1) for j in range(r)])
        q, _ = np.linalg.qr(base)
        factors.append(q)
    return factors


def synthetic_tucker(
    seed=0, dims=(20, 20, 20), ranks=(2, 2, 2), density=0.1, scale=2000.0
):
    """Ground-truth tensor [[S; X]] with smooth orthonormal factors and a
    sparse core (round(density * core size) nonzeros at image-like scale)."""
    rng = np.random.default_rng(seed)
    factors = smooth_orthonormal_factors(dims, ranks)
    core = np.zeros(ranks)
    k = max(1, int(round(density * core.size)))
    vals = (1.0 + np.abs(rng.standard_normal(k))) * scale
    vals *= np.sign(rng.standard_normal(k))
    core.ravel()[rng.permutation(core.size)[:k]] = vals
    return multilinear(core, factors), factors, core


def synthetic_image(height=256, width=256, seed=0):
    """Natural-looking test image in [0, 255]: smooth waves plus Gaussian
    blobs and mild texture."""
    rng = np.random.default_rng(seed)
    y, x = np.meshgrid(
        np.linspace(0, 1, height), np.linspace(0, 1, width), indexing="ij"
    )
    img = np.zeros((height, width, 3))
    for c in range(3):
        img[:, :, c] = 120 + 100 * np.sin(
            2 * np.pi * (1.5 * x + 0.7 * c)
        ) * np.cos(2 * np.pi * (1.1 * y - 0.3 * c))
        for _ in range(6):
            cx, cy = rng.uniform(0, 1, 2)
            amp = rng.uniform(-60, 60)
            s = rng.uniform(0.05, 0.2)
            img[:, :, c] += amp * np.exp(
                -((x - cx) ** 2 + (y - cy) ** 2) / (2 * s * s)
            )
    img += rng.standard_normal((height, width, 3)) * 2.0
    return np.clip(img, 0, 255)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
