"""Dense tensor primitives: unfolding, mode products, masks.

Tensors are plain ``numpy.ndarray`` objects of dtype float64 and may have
any memory layout. :func:`mode_product`, and so :func:`multilinear`, returns
a C-contiguous array (last index varies fastest) for any input; each mode
product is one matrix multiply of a C-order reshape.

Mode products on distinct modes commute, so :func:`multilinear` picks their
order. A chain whose output is larger than its input (a Tucker
reconstruction) runs from the last mode to the first: the full-size result
then comes from the mode-0 product ``M @ T.reshape(I0, -1)``, which copies
nothing. Every other chain (a compression, or one that keeps the size) runs
from the first mode to the last.

:func:`mode_product` and :func:`unfold`, which a third-order solve calls
about 30 times per iteration, move axes with ``ndarray.transpose`` on an
explicit permutation, not ``np.moveaxis``: the permutation and so the
memory layout and every BLAS operand are the same, but ``np.moveaxis``
normalizes its axis arguments in Python on every call, which on a
20x20x20 tensor cost more than the matrix multiplies.

The matrix column order of :func:`unfold` is Fortran-style, whatever the
layout: the first remaining index varies fastest, i.e. column

    j = sum_{l != n} i_l * J_l,   J_l = prod_{t < l, t != n} I_t

so that ``unfold(multilinear(s, [X1, ..., XN]), n)`` equals
``Xn @ unfold(s, n) @ kron(XN, ..., X_{n+1}, X_{n-1}, ..., X1).T``.

Modes are 0-based throughout, matching numpy axis numbering.
"""

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


def mode_product(tensor, matrix, mode):
    """n-mode product ``tensor x_mode matrix``.

    `matrix` must have as many columns as ``tensor.shape[mode]``; that mode
    is replaced by ``matrix.shape[0]`` in the result, which is C-contiguous
    for any input layout. The product is one matrix multiply of a C-order
    reshape: the first and the last mode need no copy of a C-contiguous
    `tensor`, and a middle mode is moved last and back with one copy each.
    """
    tensor = np.asarray(tensor)
    matrix = np.asarray(matrix)
    _check_mode(tensor.ndim, mode)
    if matrix.ndim != 2 or matrix.shape[1] != tensor.shape[mode]:
        raise ValueError(
            f"factor shape {matrix.shape} incompatible with mode-{mode} "
            f"dimension {tensor.shape[mode]}"
        )
    dims = list(tensor.shape)
    if mode == 0:
        out = matrix @ tensor.reshape(dims[0], math.prod(dims[1:]))
        dims[0] = matrix.shape[0]
        return out.reshape(dims)
    # a batched matmul over (before, I_mode, after) blocks would re-read
    # `matrix` once per block, which is slow when `after` is small
    last = tensor.ndim - 1
    rest = dims[:mode] + dims[mode + 1 :]
    moved = tensor.transpose([*range(mode), *range(mode + 1, last + 1), mode])
    out = moved.reshape(math.prod(rest), dims[mode]) @ matrix.T
    out = out.reshape(rest + [matrix.shape[0]])
    # the last axis goes back to position `mode`
    back = [*range(mode), last, *range(mode, last)]
    return np.ascontiguousarray(out.transpose(back))


def multilinear(core, factors):
    """Multilinear (Tucker) product ``core x_0 F0 x_1 F1 ...``.

    Computed as sequential mode products, in the order the module docstring
    gives; the large Kronecker factor of the matricized form is never
    materialized.
    """
    core = np.asarray(core)
    if len(factors) != core.ndim:
        raise ValueError(
            f"expected {core.ndim} factors, got {len(factors)}"
        )
    modes = range(core.ndim)
    if math.prod(len(f) for f in factors) > core.size:
        modes = reversed(modes)
    out = core
    for mode in modes:
        out = mode_product(out, factors[mode], mode)
    return out


def inner(a, b):
    """Inner product: sum of elementwise products."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.vdot(a, b))


def frobenius(a):
    """Frobenius norm, ``sqrt(inner(a, a))``."""
    return float(np.linalg.norm(np.asarray(a).ravel()))


class ObservationMask:
    """Set of observed multi-indices over a fixed dimension vector.

    Stores explicit index tuples (a ``(k, N)`` int array) and caches a dense
    boolean view and a flat C-order index for inner-loop use. Immutable
    after construction.
    """

    def __init__(self, dims, indices):
        self.dims = tuple(int(d) for d in dims)
        if any(d < 1 for d in self.dims):
            raise ValueError(f"all dims must be >= 1, got {self.dims}")
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            idx = idx.reshape(0, len(self.dims))
        if idx.ndim != 2 or idx.shape[1] != len(self.dims):
            raise ValueError(
                f"indices must be (k, {len(self.dims)}), got {idx.shape}"
            )
        if idx.shape[0]:
            if idx.min() < 0 or (idx >= np.array(self.dims)).any():
                raise ValueError("mask index out of range")
        # canonical order + uniqueness via flat (Fortran) position
        flat = np.ravel_multi_index(idx.T, self.dims, order="F")
        flat = np.unique(flat)
        self._flat = flat
        self.indices = np.column_stack(
            np.unravel_index(flat, self.dims, order="F")
        ).astype(np.int64)
        self._boolean = None
        self._c_flat = None

    @classmethod
    def from_boolean(cls, observed):
        observed = np.asarray(observed, dtype=bool)
        idx = np.argwhere(observed)
        mask = cls(observed.shape, idx)
        mask._boolean = observed.copy()
        return mask

    @classmethod
    def full(cls, dims):
        return cls.from_boolean(np.ones(dims, dtype=bool))

    @classmethod
    def empty(cls, dims):
        return cls(dims, np.empty((0, len(tuple(dims))), dtype=np.int64))

    @property
    def n_observed(self):
        return int(self._flat.size)

    @property
    def n_missing(self):
        return int(np.prod(self.dims, dtype=np.int64)) - self.n_observed

    def boolean(self):
        """Dense boolean view (True = observed). Cached; treat as read-only."""
        if self._boolean is None:
            b = np.zeros(self.dims, dtype=bool)
            if self.indices.shape[0]:
                b[tuple(self.indices.T)] = True
            self._boolean = b
        return self._boolean

    def c_flat_index(self):
        """Ascending C-order flat positions of the observed entries, so that
        ``np.take(a, index)`` are the observed values of `a` and, for a
        C-contiguous `a`, ``a.reshape(-1)[index] = values`` writes them
        back. Cached; treat as read-only."""
        if self._c_flat is None:
            flat = np.ravel_multi_index(self.indices.T, self.dims)
            self._c_flat = np.sort(flat)
        return self._c_flat

    def contains(self, index):
        return bool(self.boolean()[tuple(index)])

    def __eq__(self, other):
        if not isinstance(other, ObservationMask):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(
            self._flat, other._flat
        )

    def __repr__(self):
        return (
            f"ObservationMask(dims={self.dims}, "
            f"observed={self.n_observed}/{int(np.prod(self.dims))})"
        )

