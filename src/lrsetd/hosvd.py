"""HOSVD, core truncation and reconstruction SNR.

Supports the motivation study: how sparse a truncated Tucker core can get
before the reconstruction quality degrades. Both take any finite input: the
Grams and the SNR norms are formed after an exact power-of-two rescale.
"""

import math
from dataclasses import dataclass

import numpy as np

from .masks import _integer
from .tensor import _exponent, frobenius, multilinear, unfold

__all__ = ["TuckerModel", "hosvd", "truncate_core", "reconstruction_snr"]


@dataclass(frozen=True)
class TuckerModel:
    """Core tensor plus per-mode factor matrices with orthonormal columns."""

    core: np.ndarray
    factors: list

    def reconstruct(self):
        """Full-size tensor ``core x_0 F0 x_1 F1 ...``.

        Only the leading block of the core that holds all its nonzero
        entries is contracted, ``core[:b0, :b1, ...]`` with the leading
        columns ``factors[n][:, :bn]``, where bn is one past the last mode-n
        slice that holds a nonzero. The terms left out are exact zeros, so a
        truncated core costs what its block holds. The slice norms of an
        HOSVD core fall along every mode, so truncation tends to leave its
        nonzeros in a small leading block. An all-zero core gives zeros of
        the full shape.
        """
        core = np.asarray(self.core)
        factors = [np.asarray(f) for f in self.factors]
        # slicing would hide a factor with too many columns
        if [f.shape[1:] for f in factors] != [(d,) for d in core.shape]:
            raise ValueError(
                f"factor shapes {[f.shape for f in factors]} incompatible "
                f"with core shape {core.shape}"
            )
        block = _nonzero_block(core)
        if 0 in block:
            return np.zeros(tuple(f.shape[0] for f in factors))
        return multilinear(
            core[tuple(slice(b) for b in block)],
            [f[:, :b] for f, b in zip(factors, block)],
        )


def _nonzero_block(core):
    """Per mode, one past the last slice of `core` that holds a nonzero
    (NaN counts as nonzero); 0 for an all-zero core."""
    rest = core != 0
    block = []
    for d in core.shape:
        # reductions over axis 0, and over contiguous rows, stay fast; an
        # `any` over non-leading axes of a C-order array does not
        held = np.flatnonzero(rest.reshape(d, -1).any(axis=1))
        block.append(int(held[-1]) + 1 if held.size else 0)
        rest = rest.any(axis=0)
    return tuple(block)


def _left_singular_vectors(mat, r):
    # Gram eigenproblem: cheaper than an economy SVD when the unfolding is
    # short and wide, which is the common case here
    g = mat @ mat.T
    evals, evecs = np.linalg.eigh(g)
    order = np.argsort(evals)[::-1][:r]
    u = evecs[:, order]
    # deterministic sign: largest-magnitude entry of each column nonnegative
    for j in range(u.shape[1]):
        i = np.argmax(np.abs(u[:, j]))
        if u[i, j] < 0:
            u[:, j] = -u[:, j]
    return u


def hosvd(t, ranks):
    """Truncated higher-order SVD of `t` at the given per-mode ranks.

    factors[n] holds the leading ranks[n] left singular vectors of the
    mode-n unfolding; the core is the multilinear compression of `t`.
    Raises ValueError when `t` holds NaN or inf, or a rank is not an
    integer in [1, I_n].
    """
    t = np.asarray(t, dtype=np.float64)
    # min and max carry any NaN or inf, without a full-size boolean mask,
    # and give the power-of-two prescale below
    lo, hi = (t.min(), t.max()) if t.size else (0.0, 0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("hosvd input must be finite, found NaN or inf")
    ranks = tuple(_integer(r, "each rank") for r in ranks)
    if len(ranks) != t.ndim:
        raise ValueError(f"need {t.ndim} ranks, got {len(ranks)}")
    for r, d in zip(ranks, t.shape):
        if not 1 <= r <= d:
            raise ValueError(f"rank {r} out of range [1, {d}]")
    # the singular vectors of a tensor scaled by a power of two are those of
    # the tensor, and its Grams stay finite for any finite input
    scaled = np.ldexp(t, -_exponent(lo, hi))
    factors = [
        _left_singular_vectors(unfold(scaled, n), ranks[n])
        for n in range(t.ndim)
    ]
    del scaled
    core = multilinear(t, [f.T for f in factors])
    return TuckerModel(core=core, factors=factors)


def _check_threshold(tn):
    if not tn >= 0:  # NaN included
        raise ValueError(f"tn must be a nonnegative number, got {tn}")


def truncate_core(model, tn):
    """Zero all core entries with magnitude strictly below `tn`.

    Returns the truncated model and the fraction of zero entries in the new
    core.
    """
    _check_threshold(tn)
    small = np.abs(model.core) < tn
    core = np.where(small, 0.0, model.core)
    # a positive tn also catches every entry that was zero already
    zeros = np.count_nonzero(small if tn > 0 else core == 0.0)
    sparsity = float(zeros) / core.size
    return TuckerModel(core=core, factors=model.factors), sparsity


def reconstruction_snr(truth, approx):
    """Reconstruction SNR in dB: 20*log10(||truth|| / ||approx - truth||).

    Returns ``math.inf`` for an exact reconstruction.
    """
    truth = np.asarray(truth, dtype=np.float64)
    approx = np.asarray(approx, dtype=np.float64)
    if truth.shape != approx.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {approx.shape}")
    ref = frobenius(truth)
    if ref == 0.0:
        raise ValueError("SNR undefined for an all-zero reference tensor")
    err = frobenius(approx - truth)
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(ref / err)
