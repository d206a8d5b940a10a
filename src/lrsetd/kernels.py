"""Matrix kernels used by the ADMM updates.

Singular value shrinkage, elementwise soft thresholding and an O(n) solve
with a symmetric positive definite tridiagonal matrix along one tensor
axis.

The solver's factors are tall I x r matrices with r much smaller than I,
so their singular values come from the eigenvalues of the r x r Gram
A^T A, a fraction of the cost of LAPACK's SVD of A, wherever
:func:`_gram_resolves` trusts them (a condition number up to 1e4 for A),
and from ``np.linalg.svd`` otherwise.

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
    ValueError when `m` is not 2-D or holds NaN or inf.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"svd_shrink: need a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("svd_shrink: input has non-finite entries")
    return _svd_shrink(m, tau)[0]


def _svd_shrink(m, tau):
    """:func:`svd_shrink` of a finite float64 `m` at ``tau >= 0``, unchecked,
    and the nuclear norm of the result, which is the sum of the shrunk
    singular values, so it needs no second SVD.

    Singular value thresholding keeps the values above tau and their right
    vectors V_k only: Y = (A V_k) diag(1 - tau/s_k) V_k^T for the tall
    orientation A of `m`, transposed back for a wide `m`.
    """
    wide = m.shape[0] < m.shape[1]
    a = m.T if wide else m
    s, v = _tall_svd(a, tau)
    keep = s > tau
    if not keep.any():
        return np.zeros_like(m), 0.0
    s, v = s[keep], v[:, keep]
    shrunk = s - tau
    y = ((a @ v) * (shrunk / s)) @ v.T
    return (y.T if wide else y), float(shrunk.sum())


# largest lambda_max / lambda_min of a Gram whose eigenvalues are used: a
# condition number of 1e4 for the matrix itself
_GRAM_COND = 1e8


def _gram_resolves(lam, tau=0.0):
    """Whether the ascending eigenvalues `lam` of a Gram a^T a give the
    singular values of `a` that matter to working accuracy.

    The Gram squares the condition number and rounds its eigenvalues to
    about eps * lambda_max, so they are used only when the singular values
    above `tau`, and `tau` itself when some value falls at or below it, are
    all within a factor 1e4 of the largest:
    lambda_max <= 1e8 * max(lambda_min, tau^2). For a nuclear norm
    (tau = 0) that is every singular value.
    """
    # dividing, and squaring a Python float, cannot warn on overflow
    tau = float(tau)
    return lam[-1] / _GRAM_COND <= max(lam[0], tau * tau)


def _tall_svd(a, tau):
    """Singular values of a tall float64 `a` (rows >= columns) and its
    right singular vectors as columns, ``(s, v)``, for singular value
    thresholding at `tau`.

    They come from ``eigh`` of the r x r Gram a^T a, a fraction of the cost
    of LAPACK's SVD of a factor-sized matrix, when :func:`_gram_resolves`
    trusts its eigenvalues; otherwise, or when the Gram overflows, from
    ``np.linalg.svd``.
    """
    # a Gram that overflows is sent to the SVD below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a.T @ a
    # an empty Gram has no eigenvalues to compare
    if gram.size and np.isfinite(gram).all():
        lam, v = np.linalg.eigh(gram)
        if _gram_resolves(lam, tau):
            # rounding may leave tiny eigenvalues negative
            return np.sqrt(np.maximum(lam, 0.0)), v
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    return s, vt.T


def _nuclear_norm(a, lam):
    """||a||_* of a tall float64 `a` from the ascending eigenvalues `lam` of
    its Gram a^T a, or from ``np.linalg.svd`` of `a` when
    :func:`_gram_resolves` does not trust them."""
    if _gram_resolves(lam):
        return float(np.sqrt(np.maximum(lam, 0.0)).sum())
    return float(np.linalg.svd(a, compute_uv=False).sum())


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


def tridiag_solve(ldl, b, axis, scratch=None):
    """Solve ``T x = b`` along `axis` of `b` in place and return `b`.

    `ldl` is :func:`tridiag_ldl` of T; every 1-D line of `b` along `axis`
    is one right-hand side. One forward sweep over the slices of `b` normal
    to `axis`, one multiply by D^{-1} and one backward sweep, O(n) work per
    line. A `b` whose slices are strided is swept in a C-contiguous copy,
    which goes into `scratch` when given: a C-contiguous array of `b`'s
    dtype and size. The result is bitwise the same either way.
    """
    lower, inv_d = ldl
    front = [axis, *range(axis), *range(axis + 1, b.ndim)]
    lines = b.transpose(front)  # a view: writes land in b
    n = inv_d.size
    if lines.shape[0] != n:
        raise ValueError(f"axis {axis} of b has length {lines.shape[0]}, T {n}")
    if scratch is not None and (
        scratch.size != b.size
        or scratch.dtype != b.dtype
        or not scratch.flags.c_contiguous
    ):
        raise ValueError(
            f"scratch must be a C-contiguous {b.dtype} array of {b.size} "
            f"entries, got {scratch.dtype} {scratch.shape}"
        )
    # each sweep step is one ufunc call over a whole slice, several times
    # faster on contiguous memory, so strided slices are swept in a copy
    x = lines
    if not lines.flags.c_contiguous:
        if scratch is None:
            x = np.empty(lines.shape, dtype=b.dtype)
        else:
            x = scratch.reshape(lines.shape)  # a view
        np.copyto(x, lines)
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
