"""Matrix kernels used by the ADMM updates.

Singular value shrinkage, elementwise soft thresholding and an O(n) solve
with a symmetric positive definite tridiagonal matrix along one tensor
axis.

The ADMM calls :func:`tridiag_solve` on small operands every iteration, so
its Python-level cost counts as much as its arithmetic: it sweeps with two
ufunc calls per step into a preallocated row. The factor step's r x r
solve is one ``np.linalg.solve`` call in the solver. Everything here runs
on numpy alone, so a process loads one LAPACK and one BLAS thread pool.
"""

import numpy as np

__all__ = [
    "svd_shrink",
    "soft_shrink",
    "tridiag_ldl",
    "tridiag_solve",
]


def svd_shrink(m, tau):
    """Singular value shrinkage: prox of ``tau * ||.||_*`` at `m`.

    Unique minimizer of ``tau*||Y||_* + 0.5*||Y - m||_F^2``. Raises
    ValueError when `m` holds NaN or inf.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    m = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ValueError("svd_shrink: input has non-finite entries")
    return _svd_shrink(m, tau)[0]


def _svd_shrink(m, tau):
    """:func:`svd_shrink` of a finite float64 `m` at ``tau >= 0``, unchecked,
    and the nuclear norm of the result, which is the sum of the shrunk
    singular values, so it needs no second SVD."""
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
    is one right-hand side. One forward sweep over the slices of `b` normal
    to `axis`, one multiply by D^{-1} and one backward sweep, O(n) work per
    line.
    """
    lower, inv_d = ldl
    front = [axis, *range(axis), *range(axis + 1, b.ndim)]
    lines = b.transpose(front)  # a view: writes land in b
    n = inv_d.size
    if lines.shape[0] != n:
        raise ValueError(f"axis {axis} of b has length {lines.shape[0]}, T {n}")
    # each sweep step is one ufunc call over a whole slice, several times
    # faster on contiguous memory, so strided slices are swept in a copy
    x = np.ascontiguousarray(lines)
    rows = x.reshape(n, -1)
    row = list(rows)  # views, built once
    lower = lower.tolist()
    tmp = np.empty_like(row[0])
    for j in range(1, n):
        np.multiply(row[j - 1], lower[j - 1], out=tmp)
        row[j] -= tmp
    # backward step j reads only row j+1, which is final by then, so D^{-1}
    # scales every row at once
    rows *= inv_d[:, None]
    for j in range(n - 2, -1, -1):
        np.multiply(row[j + 1], lower[j], out=tmp)
        row[j] -= tmp
    if x is not lines:
        lines[...] = x
    return b
