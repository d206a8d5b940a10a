"""Matrix kernels used by the ADMM updates.

Singular value shrinkage, elementwise soft thresholding, SPD solves and
the first-order difference (Toeplitz) regularizer.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "SvdFactors",
    "svd_reduced",
    "svd_shrink",
    "soft_shrink",
    "spd_solve",
    "spd_factorize",
    "toeplitz_diff",
]


@dataclass(frozen=True)
class SvdFactors:
    """Reduced SVD: ``u @ diag(singular_values) @ v.T`` rebuilds the input."""

    u: np.ndarray
    singular_values: np.ndarray
    v: np.ndarray


def svd_reduced(m):
    """Reduced SVD of a matrix with finite entries."""
    m = np.asarray(m, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise ValueError("svd_reduced: input has non-finite entries")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return SvdFactors(u=u, singular_values=s, v=vt.T)


def svd_shrink(m, tau):
    """Singular value shrinkage: prox of ``tau * ||.||_*`` at `m`.

    Unique minimizer of ``tau*||Y||_* + 0.5*||Y - m||_F^2``.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    f = svd_reduced(m)
    s = np.maximum(f.singular_values - tau, 0.0)
    keep = s > 0
    if not keep.any():
        return np.zeros_like(np.asarray(m, dtype=np.float64))
    return (f.u[:, keep] * s[keep]) @ f.v[:, keep].T


def soft_shrink(m, tau):
    """Elementwise soft threshold: prox of ``tau * ||.||_1`` at `m`.

    Works on arrays of any shape.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    m = np.asarray(m, dtype=np.float64)
    return np.sign(m) * np.maximum(np.abs(m) - tau, 0.0)


def spd_factorize(a):
    """Cholesky-factor a symmetric positive definite matrix.

    Returns a callable ``solve(b) -> x`` with ``a @ x = b``. Raises
    ``np.linalg.LinAlgError`` when `a` is not SPD.
    """
    a = np.asarray(a, dtype=np.float64)
    try:
        c, lower = scipy.linalg.cho_factor(a)
    except scipy.linalg.LinAlgError as e:
        raise np.linalg.LinAlgError(f"matrix is not SPD: {e}") from e

    def solve(b):
        return scipy.linalg.cho_solve((c, lower), np.asarray(b, dtype=np.float64))

    return solve


def spd_solve(a, b):
    """Solve ``a @ x = b`` for symmetric positive definite `a`."""
    return spd_factorize(a)(b)


def toeplitz_diff(n):
    """n-by-n first-order difference matrix.

    Ones on the diagonal, -1 on the first superdiagonal, zeros elsewhere;
    ``(A @ v)[j] = v[j] - v[j+1]`` for j < n-1 and ``v[n-1]`` at the end.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return np.eye(n) - np.eye(n, k=1)
