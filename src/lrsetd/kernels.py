"""Matrix kernels used by the ADMM updates.

Singular value shrinkage, elementwise soft thresholding, SPD solves, the
first-order difference (Toeplitz) regularizer and an O(n) solve with a
symmetric positive definite tridiagonal matrix along one tensor axis.
"""

import numpy as np
import scipy.linalg

__all__ = [
    "svd_shrink",
    "soft_shrink",
    "spd_solve",
    "toeplitz_diff",
    "tridiag_ldl",
    "tridiag_solve",
]


def svd_shrink(m, tau):
    """Singular value shrinkage: prox of ``tau * ||.||_*`` at `m`.

    Unique minimizer of ``tau*||Y||_* + 0.5*||Y - m||_F^2``.
    """
    return _svd_shrink(m, tau)[0]


def _svd_shrink(m, tau):
    """:func:`svd_shrink` of `m` and the nuclear norm of the result, which
    is the sum of the shrunk singular values, so it needs no second SVD.
    Raises ValueError when `m` holds NaN or inf."""
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    m = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ValueError("svd_shrink: input has non-finite entries")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    keep = s > 0
    if not keep.any():
        return np.zeros_like(m), 0.0
    return (u[:, keep] * s[keep]) @ vt[keep], float(s.sum())


def soft_shrink(m, tau):
    """Elementwise soft threshold: prox of ``tau * ||.||_1`` at `m`.

    Works on arrays of any shape.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    m = np.asarray(m, dtype=np.float64)
    return np.sign(m) * np.maximum(np.abs(m) - tau, 0.0)


def spd_solve(a, b):
    """Solve ``a @ x = b`` for symmetric positive definite `a`.

    Raises ``np.linalg.LinAlgError`` when `a` is not SPD.
    """
    a = np.asarray(a, dtype=np.float64)
    try:
        factor = scipy.linalg.cho_factor(a)
    except scipy.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"matrix is not SPD: {e}") from e
    return scipy.linalg.cho_solve(factor, np.asarray(b, dtype=np.float64))


def toeplitz_diff(n):
    """n-by-n first-order difference matrix.

    Ones on the diagonal, -1 on the first superdiagonal, zeros elsewhere;
    ``(A @ v)[j] = v[j] - v[j+1]`` for j < n-1 and ``v[n-1]`` at the end.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return np.eye(n) - np.eye(n, k=1)


def tridiag_ldl(diag, off):
    """LDL^T factor of a symmetric positive definite tridiagonal matrix.

    `diag` is the main diagonal (length n) and `off` the sub- and
    superdiagonal (length n-1). Returns ``(lower, inv_d)``: the subdiagonal
    of the unit lower bidiagonal L and the reciprocal diagonal of D. Raises
    ``np.linalg.LinAlgError`` when the matrix is not SPD.
    """
    diag = np.asarray(diag, dtype=np.float64)
    off = np.asarray(off, dtype=np.float64)
    if diag.ndim != 1 or diag.size < 1 or off.shape != (diag.size - 1,):
        raise ValueError(
            f"need n >= 1 diagonal and n-1 off-diagonal entries, got "
            f"{diag.shape} and {off.shape}"
        )
    d = diag.copy()
    lower = np.empty_like(off)
    for j in range(off.size):
        if not d[j] > 0:
            break
        lower[j] = off[j] / d[j]
        d[j + 1] -= lower[j] * off[j]
    if not np.all(d > 0):
        raise np.linalg.LinAlgError("tridiagonal matrix is not SPD")
    return lower, 1.0 / d


def tridiag_solve(ldl, b, axis):
    """Solve ``T x = b`` along `axis` of `b` in place and return `b`.

    `ldl` is :func:`tridiag_ldl` of T; every 1-D line of `b` along `axis`
    is one right-hand side. One forward and one backward sweep over the
    slices of `b` normal to `axis`, O(n) work per line.
    """
    lower, inv_d = ldl
    lines = np.moveaxis(b, axis, 0)  # a view: writes land in b
    n = inv_d.size
    if lines.shape[0] != n:
        raise ValueError(f"axis {axis} of b has length {lines.shape[0]}, T {n}")
    # each sweep step is one ufunc call over a whole slice, several times
    # faster on contiguous memory, so strided slices are swept in a copy
    x = np.ascontiguousarray(lines)
    rows = x.reshape(n, -1)
    for j in range(1, n):
        rows[j] -= lower[j - 1] * rows[j - 1]
    rows[n - 1] *= inv_d[n - 1]
    for j in range(n - 2, -1, -1):
        rows[j] *= inv_d[j]
        rows[j] -= lower[j] * rows[j + 1]
    if x is not lines:
        lines[...] = x
    return b
