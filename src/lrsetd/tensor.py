"""Dense tensor primitives: unfolding, mode products, observation masks.

Tensors are plain ``numpy.ndarray`` objects of dtype float64 and may have
any memory layout. :func:`mode_product` and :func:`multilinear` return a
C-contiguous array (last index varies fastest) for any input.

Every Tucker chain is built from two products, each one matmul of C-order
reshapes with no moved copy: :func:`_lead` multiplies along the first
axis and places the new axis last, :func:`_trail` multiplies along the
last axis and places the new axis first. Applied to every mode in turn,
either leaves the modes in their order. :func:`multilinear` runs a chain
that shrinks its input as :func:`_lead` products from mode 0, and any
other (a Tucker reconstruction, or a chain that keeps the size) as
:func:`_trail` products from the last mode, so that it holds at most its
input and its output of each step. :func:`mode_product` takes one mode
alone: a matmul on the rows of a last-axis reshape, or one matmul
batched over the blocks of any other.

The matrix column order of :func:`unfold` is Fortran-style, whatever the
layout: the first remaining index varies fastest, i.e. column

    j = sum_{l != n} i_l * J_l,   J_l = prod_{t < l, t != n} I_t

so that ``unfold(multilinear(s, [X1, ..., XN]), n)`` equals
``Xn @ unfold(s, n) @ kron(XN, ..., X_{n+1}, X_{n-1}, ..., X1).T``.

:func:`frobenius`, the norm of every quality figure and of the solver's
stopping rule, is accurate for finite data at any scale, 1e200 or 1e-310.

Modes are 0-based throughout, matching numpy axis numbering. An
:class:`ObservationMask` stores its observed set once, as a boolean array.
"""

import functools
import math

import numpy as np

__all__ = [
    "unfold",
    "mode_product",
    "multilinear",
    "inner",
    "frobenius",
    "ObservationMask",
]


def _check_mode(ndim, mode):
    if not 0 <= mode < ndim:
        raise ValueError(f"mode {mode} out of range for order-{ndim} tensor")


def _check_factor(matrix, dim, mode):
    if matrix.ndim != 2 or matrix.shape[1] != dim:
        raise ValueError(
            f"factor shape {matrix.shape} incompatible with mode-{mode} "
            f"dimension {dim}"
        )


def unfold(tensor, mode):
    """Mode-`mode` unfolding of `tensor`.

    Parameters
    ----------
    tensor : ndarray
    mode : int
        0-based mode index.

    Returns
    -------
    ndarray of shape ``(tensor.shape[mode], prod of the other dims)``.
    """
    tensor = np.asarray(tensor)
    _check_mode(tensor.ndim, mode)
    front = [mode, *range(mode), *range(mode + 1, tensor.ndim)]
    return tensor.transpose(front).reshape((tensor.shape[mode], -1), order="F")


def mode_product(tensor, matrix, mode, out=None):
    """n-mode product ``tensor x_mode matrix``.

    `matrix` must have as many columns as ``tensor.shape[mode]``; that mode
    is replaced by ``matrix.shape[0]`` in the result, which is C-contiguous
    for any input layout. With the leading and trailing sizes ``before``
    and ``after`` of a C-order reshape ``(before, I, after)``, the product
    is one ``T @ M^T`` when ``after == 1`` and otherwise one matmul
    ``M @ T`` batched over the ``before`` blocks; neither copies a
    C-contiguous `tensor`.

    `out`, when given, is a C-contiguous array of the result's shape and
    dtype that receives the product and is returned, bit for bit the array
    that would otherwise be allocated.
    """
    tensor = np.asarray(tensor)
    matrix = np.asarray(matrix)
    _check_mode(tensor.ndim, mode)
    _check_factor(matrix, tensor.shape[mode], mode)
    dims = list(tensor.shape)
    rows = matrix.shape[0]
    shape = (*dims[:mode], rows, *dims[mode + 1 :])
    if out is not None:
        dtype = np.result_type(tensor, matrix)
        if (
            out.shape != shape
            or out.dtype != dtype
            or not out.flags.c_contiguous
        ):
            raise ValueError(
                f"out must be a C-contiguous {dtype} array of shape {shape}, "
                f"got {out.dtype} {out.shape}"
            )
    before, after = math.prod(dims[:mode]), math.prod(dims[mode + 1 :])
    if after == 1:  # the lines along `mode` are rows
        flat = None if out is None else out.reshape(before, rows)  # a view
        product = np.matmul(
            tensor.reshape(before, dims[mode]), matrix.T, out=flat
        )
    else:
        flat = None if out is None else out.reshape(before, rows, after)
        product = np.matmul(
            matrix, tensor.reshape(before, dims[mode], after), out=flat
        )
    return product.reshape(shape) if out is None else out


def _lead(t, matrix, out=None):
    """`t` times `matrix` along its first axis, the new axis placed last:
    one matmul of C-order reshapes, ``t_(0)^T @ matrix^T``, written into
    `out` when given, a C-contiguous array of the result's shape, which
    is returned."""
    rest = t.shape[1:]
    rows = t.reshape(t.shape[0], math.prod(rest)).T
    if out is None:
        return np.matmul(rows, matrix.T).reshape(*rest, len(matrix))
    np.matmul(rows, matrix.T, out=out.reshape(len(rows), len(matrix)))
    return out


def _trail(t, matrix, out=None):
    """`t` times `matrix` along its last axis, the new axis placed first:
    one matmul of C-order reshapes, ``matrix @ t_(last)^T``, written into
    `out` when given, a C-contiguous array of the result's shape, which
    is returned."""
    rest = t.shape[:-1]
    rows = t.reshape(math.prod(rest), t.shape[-1]).T
    if out is None:
        return np.matmul(matrix, rows).reshape(len(matrix), *rest)
    np.matmul(matrix, rows, out=out.reshape(len(matrix), rows.shape[1]))
    return out


def multilinear(core, factors):
    """Multilinear (Tucker) product ``core x_0 F0 x_1 F1 ...``.

    Computed as sequential products on the first or last axis, as the
    module docstring describes; the large Kronecker factor of the
    matricized form is never materialized. The result is C-contiguous.
    """
    core = np.asarray(core)
    if len(factors) != core.ndim:
        raise ValueError(
            f"expected {core.ndim} factors, got {len(factors)}"
        )
    factors = [np.asarray(f) for f in factors]
    for mode, f in enumerate(factors):
        _check_factor(f, core.shape[mode], mode)
    out = core
    if math.prod(len(f) for f in factors) < core.size:
        for f in factors:
            out = _lead(out, f)
    else:
        for f in reversed(factors):
            out = _trail(out, f)
    return out


def inner(a, b):
    """Inner product: sum of elementwise products."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.vdot(a, b))


# entries per slab of :func:`_slabs`, 256 kB of float64: small enough that
# a chain's operands stay in cache from one pass to the next. Not a
# setting: an elementwise chain gives the same values at every size, bit
# for bit, and so does a matmul batched over the blocks of a middle axis
_SLAB = 32_768


def _slabs(shape):
    """Slices of axis 0 that cut an array of `shape` into slabs of about
    _SLAB entries, one row at least: the pieces over which a chain of
    elementwise passes runs. An axis-0 slice is a view in any layout."""
    return _cuts(tuple(shape), _SLAB)


# the slabs of a shape, cached: a solver iteration asks for them about
# five times, and forming them took 0.9 us against 0.13 us from the cache,
# which shows on a 20^3 tensor, whose W and dual steps take 60-70 us
@functools.lru_cache(maxsize=64)
def _cuts(shape, size):
    rows = max(1, size // max(1, math.prod(shape[1:])))
    return tuple(slice(k, k + rows) for k in range(0, shape[0], rows))


def _exponent(lo, hi):
    """Binary exponent e of max(-lo, hi), so that ``np.ldexp(a, -e)`` peaks
    in [0.5, 1) for an `a` with minimum `lo` and maximum `hi` (0 when both
    are 0): an exact rescale whose squares neither overflow nor underflow."""
    return math.frexp(max(hi, -lo))[1]


def frobenius(a):
    """Frobenius norm in float64, ``sqrt(inner(a, a))``: numpy's norm when
    that lies in (2**-400, inf), else the norm of `a` rescaled by
    ``_exponent``, or inf when the norm of finite entries passes float64's
    range; entries below 2**-511 lose their squares only below the ulp of
    such a norm."""
    a = np.asarray(a)
    v = a.ravel().astype(np.float64, copy=False)
    # numpy's norm is sqrt(v.dot(v)); vdot is the same BLAS sum without the
    # norm's wrapper, and raises no floating-point warning that would need
    # an errstate when the sum overflows or underflows
    n = math.sqrt(float(np.vdot(v, v)))
    if 2.0**-400 < n < math.inf or not a.size:
        return n
    lo, hi = a.min(), a.max()
    if not (lo or hi):  # all zero, with no rescaled copy
        return 0.0
    e = _exponent(lo, hi)
    try:
        return math.ldexp(float(np.linalg.norm(np.ldexp(a, -e).ravel())), e)
    except OverflowError:  # the norm itself is past float64's largest
        return math.inf


def _indices(values, upper):
    """`values` as int64 in [0, upper); rejects booleans and floats."""
    values = np.asarray(values)
    if values.size and values.dtype.kind not in "iu":
        raise ValueError(f"mask indices must be integers, got {values.dtype}")
    values = values.astype(np.int64, copy=False)
    if not ((values >= 0) & (values < upper)).all():
        raise ValueError("mask index out of range")
    return values


class ObservationMask:
    """Set of observed multi-indices over a fixed dimension vector, stored
    as one C-contiguous, read-only boolean array (True = observed): 1 byte
    per entry, an eighth of the float64 tensor that every solve and metrics
    call already holds. :meth:`c_flat_index` is its one lazy cache. LRM1
    files use ascending Fortran-order flat positions (first index fastest),
    which only :meth:`from_fortran_positions` and :meth:`fortran_positions`
    convert."""

    def __init__(self, observed):
        """Mask of the True entries of `observed`, which is copied; it
        needs order 1 or more, as an LRM1 file does."""
        observed = np.array(observed, dtype=bool, order="C")
        if not observed.ndim:
            raise ValueError("a mask needs at least one dim, got ()")
        if any(d < 1 for d in observed.shape):
            raise ValueError(f"all dims must be >= 1, got {observed.shape}")
        observed.flags.writeable = False
        self.dims = observed.shape
        self._observed = observed
        self._n_observed = int(np.count_nonzero(observed))
        self._c_flat = None

    @classmethod
    def from_fortran_positions(cls, dims, positions):
        """Mask of the Fortran-order flat positions, in any order."""
        observed = np.zeros(math.prod(int(d) for d in dims), dtype=bool)
        observed[_indices(positions, observed.size)] = True
        return cls(observed.reshape(dims, order="F"))

    @classmethod
    def full(cls, dims):
        return cls(np.ones(dims, dtype=bool))

    @classmethod
    def empty(cls, dims):
        return cls(np.zeros(dims, dtype=bool))

    @property
    def n_observed(self):
        return self._n_observed

    @property
    def n_missing(self):
        return self._observed.size - self._n_observed

    def fortran_positions(self):
        """Ascending Fortran-order flat positions of the observed entries."""
        return np.flatnonzero(self._observed.T)

    def boolean(self):
        """The dense boolean array (True = observed); read-only."""
        return self._observed

    def c_flat_index(self):
        """Ascending C-order flat positions of the observed entries (cached,
        read-only): ``np.take(a, index)`` gathers them from any `a`."""
        if self._c_flat is None:
            self._c_flat = np.flatnonzero(self._observed)
            self._c_flat.flags.writeable = False
        return self._c_flat

    def __eq__(self, other):
        if not isinstance(other, ObservationMask):
            return NotImplemented
        return np.array_equal(self._observed, other._observed)

    def __repr__(self):
        observed = f"{self.n_observed}/{self._observed.size}"
        return f"ObservationMask(dims={self.dims}, observed={observed})"
