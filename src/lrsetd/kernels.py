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
its Python-level cost and its strided copies count as much as its
arithmetic. It takes an exact route chosen from the array's shape alone:
a short axis is one matrix product by the stored T^{-1}, batched over the
blocks of a middle axis (see :func:`_route`); any other axis is swept
with one ufunc call per step, an add on rows scaled beforehand, in place
on a first axis and otherwise in a copy made as a 2-D transpose of whole
trailing blocks. The factor step's r x r solve is one ``np.linalg.solve``
call in the solver. Everything here runs on numpy alone, so a process
loads one LAPACK and one BLAS thread pool.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "svd_shrink",
    "soft_shrink",
    "TridiagLDL",
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
    and the rank of the result: the number of singular values above tau.

    Singular value thresholding keeps the values above tau and their right
    vectors V_k only: Y = (A V_k) diag(1 - tau/s_k) V_k^T for the tall
    orientation A of `m`, transposed back for a wide `m`.
    """
    wide = m.shape[0] < m.shape[1]
    a = m.T if wide else m
    s, v = _tall_svd(a, tau)
    keep = s > tau
    kept = int(np.count_nonzero(keep))
    if not kept:
        return np.zeros_like(m), 0
    s, v = s[keep], v[:, keep]
    y = ((a @ v) * ((s - tau) / s)) @ v.T
    return (y.T if wide else y), kept


# largest lambda_max / lambda_min of a Gram whose eigenvalues are used: a
# condition number of 1e4 for the matrix itself
_GRAM_COND = 1e8


def _gram_resolves(lam, tau):
    """Whether the ascending eigenvalues `lam` of a Gram a^T a give the
    singular values of `a` that matter to working accuracy.

    The Gram squares the condition number and rounds its eigenvalues to
    about eps * lambda_max, so they are used only when the singular values
    above `tau`, and `tau` itself when some value falls at or below it, are
    all within a factor 1e4 of the largest:
    lambda_max <= 1e8 * max(lambda_min, tau^2). At tau = 0 that is every
    singular value.
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


def soft_shrink(m, tau):
    """Elementwise soft threshold: prox of ``tau * ||.||_1`` at `m`.

    Works on arrays of any shape.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    # [()] gives a scalar for a scalar input, as a ufunc does
    return _soft_shrink(np.array(m, dtype=np.float64), tau)[()]


def _soft_shrink(m, tau):
    """:func:`soft_shrink` of a float64 `m` at ``tau >= 0``, unchecked,
    written into `m` and returned: sign(m)*max(|m| - tau, 0), the same
    operations with one temporary, sign(m)."""
    sign = np.sign(m)
    np.abs(m, out=m)
    m -= tau
    np.maximum(m, 0.0, out=m)
    m *= sign
    return m


# the longest axis solved as a matrix product by T^{-1}, which caps the
# stored inverse at 1 024 numbers (8 kB); the product beats the sweep well
# past it (up to n = 96 on either end axis of a 244k-entry array, and it
# ties the sweep on the middle axis of 64x96x64, at one BLAS thread on a
# 2-core Xeon VM). At n <= 32, T has a condition number of at most 1 708
# whatever beta/omega, and the product stays within 1.3e-15 of a dense
# solve
_SHORT = 32

# the scaled sweep's running products stay within this range, so its
# scaled rows stay finite for data up to about 1e150
_SCALED = (1e-150, 1e150)


@dataclass(frozen=True, eq=False)
class TridiagLDL:
    """LDL^T factor of a symmetric positive definite tridiagonal T, as
    :func:`tridiag_ldl` builds it, with everything :func:`tridiag_solve`
    reads: O(n) numbers, and T^{-1} when n <= 32.

    `lower` is the subdiagonal of the unit lower bidiagonal L and `inv_d`
    the reciprocal diagonal of D. With the multipliers m_j = -lower[j], the
    forward substitution y_j = b_j + m_{j-1} y_{j-1} is swept on
    y_j / P_j, where P_j is the product of the multipliers since the start
    of j's block, so each step inside a block is one add:
    y_j/P_j = b_j/P_j + y_{j-1}/P_{j-1}. A block starts wherever that
    product would leave [1e-150, 1e150], and its first step is a
    multiply-add by the carried product. The backward substitution
    x_j = y_j/d_j + m_j x_{j+1} is swept on x_j / Q_j alike, with Q_j the
    product of the multipliers from j to the end of its block.

    `pre` (1/P), `mid` (P/(d Q)) and `post` (Q) are the three scaling
    passes; `forward[j-1]` and `backward[j]` are the couplings of rows j in
    the two sweeps, 1.0 inside a block.
    """

    lower: np.ndarray
    inv_d: np.ndarray
    inverse: np.ndarray | None
    pre: np.ndarray
    mid: np.ndarray
    post: np.ndarray
    forward: tuple
    backward: tuple


def _scaled_products(mult):
    """Running products p of the multipliers `mult`, p[0] = 1 and
    p[j+1] = p[j] * mult[j], restarted at 1 wherever they would leave
    _SCALED, and the couplings c: the recurrence
    v_{j+1} = b_{j+1} + mult[j] v_j becomes
    v_{j+1}/p[j+1] = b_{j+1}/p[j+1] + c[j] v_j/p[j], with c[j] = 1.0 inside
    a block and the carried product p[j] * mult[j] at a restart."""
    lo, hi = _SCALED
    p, c = np.ones(mult.size + 1), [1.0] * mult.size
    for j, m in enumerate(mult.tolist()):
        carried = p[j] * m
        if lo <= abs(carried) <= hi:
            p[j + 1] = carried
        else:
            c[j] = carried
    return p, tuple(c)


def tridiag_ldl(diag, off):
    """LDL^T factor of a symmetric positive definite tridiagonal matrix.

    `diag` is the main diagonal (length n) and `off` the sub- and
    superdiagonal (length n-1). Returns a :class:`TridiagLDL`. Raises
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
    inverse = None
    if diag.size <= _SHORT:
        inverse = np.linalg.inv(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        # exactly symmetric, so one C-contiguous matrix serves as T^{-1}
        # and as its transpose, the faster operand of either product
        inverse = 0.5 * (inverse + inverse.T)
    p, forward = _scaled_products(-lower)
    q, backward = _scaled_products(-lower[::-1])
    q = q[::-1]
    return TridiagLDL(
        lower=lower,
        inv_d=1.0 / d,
        inverse=inverse,
        pre=1.0 / p,
        mid=p / q / d,
        post=q,
        forward=forward,
        backward=backward[::-1],
    )


def _route(ldl, shape, axis):
    """How :func:`tridiag_solve` reaches the lines along `axis` of a
    C-contiguous array of `shape`, from the lengths alone.

    - ``"inverse"``: an axis of at most 32 is a matrix product by T^{-1}:
      one product on a first or last axis, whose lines are the columns or
      the rows of one matrix, and one batched matmul over the
      (before, n, after) blocks of a middle axis.
    - ``"rows"``: any other axis whose preceding axes all have length 1,
      as the first, is swept in place: its lines are the columns of n
      contiguous rows.
    - ``"swap"``: every other axis is swept in a copy whose lines are
      columns, made as a 2-D transpose of records, each the contiguous
      block of the trailing axes.
    """
    if ldl.inverse is not None:
        return "inverse"
    return "rows" if math.prod(shape[:axis]) == 1 else "swap"


def _records(a, shape):
    """A C-contiguous `a` of ``math.prod(shape)`` entries viewed as a
    ``shape[:2]`` array of records, each ``shape[2]`` entries long."""
    record = np.dtype((np.void, shape[2] * a.itemsize))
    return a.reshape(shape).view(record)[..., 0]


def _steps(steps, tmp):
    """Row updates dst += c * src in order, for (dst, src, c) in `steps`:
    one add when c is 1.0, as inside a block, else a multiply-add through
    the row `tmp`. The out argument is positional, which numpy parses
    faster."""
    for dst, src, c in steps:
        if c == 1.0:
            np.add(dst, src, dst)
        else:
            np.multiply(src, c, tmp)
            np.add(dst, tmp, dst)


def _sweep(rows, ldl):
    """The scaled forward and backward sweeps of `ldl` down the columns of
    the C-contiguous n x m `rows`, which already hold b/P, in place."""
    row = list(rows)  # views, built once
    tmp = np.empty_like(row[0])
    _steps(zip(row[1:], row, ldl.forward), tmp)
    # backward step j reads only row j+1, which is final by then, so the
    # middle scaling, D^{-1} with it, takes every row at once
    rows *= ldl.mid[:, None]
    _steps(zip(row[-2::-1], row[:0:-1], reversed(ldl.backward)), tmp)
    rows *= ldl.post[:, None]


def tridiag_solve(ldl, b, axis, scratch=None, out=None):
    """Solve ``T x = b`` along `axis` of `b`, write x into `out`, or into
    `b` when `out` is None, and return it.

    `ldl` is :func:`tridiag_ldl` of T; every 1-D line of `b` along `axis`
    is one right-hand side. `out` is `b` or an array of its shape that
    shares no memory with it, and `b` is read only when it is not `out`.
    :func:`_route` picks the route from the shape of `b`:

    - a short axis is a matrix product by T^{-1}, batched over the blocks
      of a middle axis, read from a copy of `b` when the solve is in place;
    - any other axis is the scaled sweep of :class:`TridiagLDL`: one add
      per step inside a block and three scaling passes, O(n) work per
      line, done in `out` on a first axis and in a copy whose lines are
      columns on every other.

    A copy goes into `scratch` when given: a C-contiguous array of `b`'s
    dtype and size that shares no memory with `b` or `out`. The routes
    run on C-order arrays: an `out` in another layout takes the solve of a
    C-order copy of `b`, and a `b` in another layout is copied to C order,
    so each route gives bitwise the same result in every layout.
    """
    n = ldl.inv_d.size
    if b.shape[axis] != n:
        raise ValueError(f"axis {axis} of b has length {b.shape[axis]}, T {n}")
    if scratch is not None and (
        scratch.size != b.size
        or scratch.dtype != b.dtype
        or not scratch.flags.c_contiguous
    ):
        raise ValueError(
            f"scratch must be a C-contiguous {b.dtype} array of {b.size} "
            f"entries, got {scratch.dtype} {scratch.shape}"
        )
    out = b if out is None else out
    if out.shape != b.shape:
        raise ValueError(f"out has shape {out.shape}, b {b.shape}")
    if not b.size:
        return out
    if not out.flags.c_contiguous:
        x = tridiag_solve(ldl, np.array(b, order="C"), axis, scratch)
        np.copyto(out, x)
        return out
    b = np.ascontiguousarray(b)
    route = _route(ldl, b.shape, axis)
    before = math.prod(b.shape[:axis])
    after = b.size // (before * n)
    if route == "inverse":
        # the product must not read what it writes
        src = b
        if out is b:
            src = np.empty_like(b) if scratch is None else scratch
            np.copyto(src.reshape(b.shape), b)
        if before > 1 and after == 1:
            np.matmul(src.reshape(-1, n), ldl.inverse, out=out.reshape(-1, n))
        else:
            block = (before, n, after)
            np.matmul(ldl.inverse, src.reshape(block), out=out.reshape(block))
        return out
    if route == "rows":
        # the first scaling pass writes b/P into out
        pre = ldl.pre.reshape((1,) * axis + (n,) + (1,) * (b.ndim - axis - 1))
        np.multiply(b, pre, out=out)
        _sweep(out.reshape(n, -1), ldl)
        return out
    # lines as columns: the (before, n, after) blocks of b swapped into an
    # (n, before, after) copy, a byte copy of whole trailing blocks
    x = np.empty(b.size, dtype=b.dtype) if scratch is None else scratch
    block, swapped = (before, n, after), (n, before, after)
    np.copyto(_records(x, swapped), _records(b, block).T)
    rows = x.reshape(n, -1)
    rows *= ldl.pre[:, None]
    _sweep(rows, ldl)
    np.copyto(_records(out, block), _records(x, swapped).T)
    return out
